"""Tests for the Levi-Civita / Hermitian connection layer."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistorlab.connection import (
    _B_FRAME,
    CONNECTION_T,
    _lee_fields,
    bismut_curvature_relation,
    chern_curvature_relation,
    christoffel,
    complex_connection_matrix,
    complexify,
    curvature_rows,
    direct_curvature,
    flip_pattern,
    gauduchon,
    levi_civita,
    mu_from_omega,
    omega_tilde_coord,
    parse_pattern,
    structure_equation_defect,
    torsion_auxiliary,
    torsion_correction,
    torsion_tensor,
)
from twistorlab.exterior import ComplexForm, wedge
from twistorlab import connection as cn
from twistorlab import twistor as tw
from twistorlab.manifold import (POINT_MEMO_LIMIT, HermitianSurface, adapted_frame, builtin,
                                 coordinate_fundamental_matrix, dF_array, lee_components, lee_form,
                                 point_memo, push_slots, stack_field)

RNG_POINTS = {
    "flat_c2": np.array([0.1, -0.2, 0.3, 0.05]),
    "cp2_fs": np.array([0.21, -0.13, 0.08, 0.17]),
    "ch2": np.array([0.11, -0.07, 0.09, 0.13]),
    "hopf": np.array([0.62, 0.55, 0.71, 0.68]),
}


def scalar_curvature(lc) -> float:
    return float(sum(lc.R[i, j, i, j] for i in range(4) for j in range(4)))


# ======================================================================
# pattern parsing and complexification
# ======================================================================

def test_parse_pattern_basic():
    assert parse_pattern("1*212*") == [(0, True), (1, False), (0, False), (1, True)]
    assert parse_pattern("1212") == [(0, False), (1, False), (0, False), (1, False)]
    assert flip_pattern("1*212*") == "12*1*2"


@pytest.mark.parametrize("bad", ["123*", "1*2", "1*2121", "3121", "**12"])
def test_parse_pattern_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_pattern(bad)


def random_algebraic_curvature(seed: int) -> np.ndarray:
    """Sum of Kulkarni-Nomizu style products: has all pair/antisymmetry identities."""
    rng = np.random.default_rng(seed)
    R = np.zeros((4, 4, 4, 4))
    for _ in range(3):
        P = rng.normal(size=(4, 4))
        P = P + P.T
        Q = rng.normal(size=(4, 4))
        Q = Q + Q.T
        R += (np.einsum("ik,jl->ijkl", P, Q) + np.einsum("jl,ik->ijkl", P, Q)
              - np.einsum("il,jk->ijkl", P, Q) - np.einsum("jk,il->ijkl", P, Q))
    return R


@pytest.mark.parametrize("seed", [0, 7, 19])
def test_complexify_matches_hand_expansion(seed):
    R = random_algebraic_curvature(seed)
    # frozen closed-form expansions over real components (indices 0-based)
    expect = {
        "1*212": 0.25 * ((R[0, 2, 0, 2] - R[1, 3, 1, 3] + R[1, 2, 1, 2] - R[0, 3, 0, 3])
                         - 2j * (R[0, 2, 0, 3] + R[1, 2, 1, 3])),
        "1*21*2*": 0.25 * ((R[0, 2, 0, 2] - R[1, 3, 1, 3] + R[0, 3, 0, 3] - R[1, 2, 1, 2])
                           + 2j * (R[0, 2, 1, 2] + R[0, 3, 1, 3])),
        "1*211*": 0.5 * ((R[0, 3, 0, 1] - R[1, 2, 0, 1]) + 1j * (R[0, 2, 0, 1] + R[1, 3, 0, 1])),
        "1*222*": 0.5 * ((R[0, 3, 2, 3] - R[1, 2, 2, 3]) + 1j * (R[0, 2, 2, 3] + R[1, 3, 2, 3])),
    }
    for pattern, val in expect.items():
        assert complexify(R, pattern) == pytest.approx(val, abs=1e-12)


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("pattern", ["1*212", "1*21*2", "1*211*", "1*222*", "1*212*", "2*121*"])
def test_complexify_conjugation_symmetry(seed, pattern):
    R = random_algebraic_curvature(seed)
    assert complexify(R, pattern) == pytest.approx(np.conj(complexify(R, flip_pattern(pattern))), abs=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_complexify_real_linearity(seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(4, 4, 4, 4))
    B = rng.normal(size=(4, 4, 4, 4))
    c = float(rng.normal())
    lhs = complexify(A + c * B, "1*212*")
    rhs = complexify(A, "1*212*") + c * complexify(B, "1*212*")
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# ======================================================================
# Levi-Civita
# ======================================================================

def test_flat_connection_vanishes():
    M = builtin("flat_c2")
    lc = levi_civita(M, RNG_POINTS["flat_c2"])
    assert np.max(np.abs(lc.Gamma)) < 1e-12
    assert np.max(np.abs(lc.omega_coord)) < 1e-10
    assert np.max(np.abs(lc.R)) < 1e-9


@pytest.mark.parametrize("name", ["cp2_fs", "ch2", "hopf"])
def test_levi_civita_invariants(name):
    M = builtin(name)
    for x in M.chart.interior_points(4, seed=5):
        d = levi_civita(M, x).defects()
        assert d["omega_antisymmetry"] < 1e-8
        assert d["pair_symmetry"] < 1e-6
        assert d["antisymmetry_12"] < 1e-6
        assert d["antisymmetry_34"] < 1e-8
        assert d["first_bianchi"] < 1e-6


def test_first_structure_equation_levi_civita():
    # d theta^i = -omega^i_j ^ theta^j for the torsion-free connection
    M = builtin("cp2_fs", c=2.0)
    x = RNG_POINTS["cp2_fs"]
    lc = levi_civita(M, x)

    def theta_of(p):
        from twistorlab.manifold import adapted_frame
        return adapted_frame(M, p).theta

    theta0 = theta_of(x)
    dth = np.stack([M.backend.partial(theta_of, x, nu) for nu in range(4)])
    worst = 0.0
    for i in range(4):
        for mu in range(4):
            for nu in range(mu + 1, 4):
                val = dth[mu, i, nu] - dth[nu, i, mu]
                val += sum(lc.omega_coord[i, j, mu] * theta0[j, nu]
                           - lc.omega_coord[i, j, nu] * theta0[j, mu] for j in range(4))
                worst = max(worst, abs(val))
    assert worst < 1e-9


def test_cp2_constant_holomorphic_sectional_curvature():
    M = builtin("cp2_fs", c=2.0)
    for x in [np.zeros(4), RNG_POINTS["cp2_fs"], np.array([-0.3, 0.25, 0.1, -0.22])]:
        lc = levi_civita(M, x)
        assert lc.component("1*212*") == pytest.approx(1.0, abs=1e-6)
        assert lc.component("1*111*") == pytest.approx(2.0, abs=1e-6)
        assert lc.component("2*222*") == pytest.approx(2.0, abs=1e-6)
        assert abs(lc.component("1*21*2")) < 1e-6       # anti-self-dual part
        assert abs(lc.component("1*21*2*")) < 1e-6      # Ricci J-anti-invariant part
        assert abs(lc.component("1*211*")) < 1e-6
        assert abs(lc.component("1*222*")) < 1e-6
        assert scalar_curvature(lc) == pytest.approx(12.0, abs=1e-5)


def test_ch2_constant_negative_curvature():
    M = builtin("ch2", c=2.0)
    lc = levi_civita(M, RNG_POINTS["ch2"])
    assert lc.component("1*212*") == pytest.approx(-1.0, abs=1e-6)
    assert lc.component("1*111*") == pytest.approx(-2.0, abs=1e-6)
    assert abs(lc.component("1*21*2")) < 1e-6
    assert scalar_curvature(lc) == pytest.approx(-12.0, abs=1e-5)


def test_curvature_scaling_with_c():
    M = builtin("cp2_fs", c=4.0)
    lc = levi_civita(M, np.array([0.1, 0.05, -0.12, 0.08]))
    assert lc.component("1*212*") == pytest.approx(2.0, abs=1e-6)
    assert scalar_curvature(lc) == pytest.approx(24.0, abs=1e-5)


def test_curvature_two_form_components():
    M = builtin("cp2_fs", c=2.0)
    lc = levi_civita(M, RNG_POINTS["cp2_fs"])
    form = lc.curvature_two_form(0, 1)
    eye = np.eye(4)
    for k in range(4):
        for l in range(k + 1, 4):
            assert form.evaluate(eye[[k, l]]) == pytest.approx(lc.R[0, 1, k, l], abs=1e-12)


# ======================================================================
# the Gauduchon family
# ======================================================================

def test_connection_name_map():
    assert CONNECTION_T == {"lichnerowicz": 0.0, "chern": 1.0, "bismut": -1.0}


@pytest.mark.parametrize("name", ["flat_c2", "cp2_fs", "ch2"])
def test_kahler_family_collapses_to_levi_civita(name):
    M = builtin(name)
    x = RNG_POINTS[name]
    lc = levi_civita(M, x)
    for t in (1.0, 0.0, -1.0, 0.37):
        hd = gauduchon(M, x, t)
        assert np.max(np.abs(hd.omega_tilde_coord - lc.omega_coord)) < 1e-7
        assert np.max(np.abs(hd.torsion_coord)) < 1e-7


def test_hopf_family_is_hermitian():
    M = builtin("hopf")
    x = RNG_POINTS["hopf"]
    for t in (1.0, 0.0, -1.0, 0.6):
        hd = gauduchon(M, x, t)
        assert hd.skew_hermitian_defect() < 1e-8
        assert hd.j_commutation_defect() < 1e-8


def test_chern_torsion_has_no_mixed_part():
    M = builtin("hopf")
    hd = gauduchon(M, RNG_POINTS["hopf"], CONNECTION_T["chern"])
    assert np.max(np.abs(hd.T11)) < 1e-7
    assert np.max(np.abs(hd.T20)) > 1e-3


def test_bismut_torsion_has_mixed_part():
    M = builtin("hopf")
    hd = gauduchon(M, RNG_POINTS["hopf"], CONNECTION_T["bismut"])
    assert np.max(np.abs(hd.T11)) > 1e-3


def test_lichnerowicz_matrix_is_u2_projection():
    M = builtin("hopf")
    x = RNG_POINTS["hopf"]
    lc = levi_civita(M, x)
    hd = gauduchon(M, x, CONNECTION_T["lichnerowicz"])
    assert np.max(np.abs(hd.psi_coord - complex_connection_matrix(lc.omega_coord))) < 1e-8


def test_mu_vanishes_exactly_when_kahler():
    lc_k = levi_civita(builtin("cp2_fs"), RNG_POINTS["cp2_fs"])
    assert np.linalg.norm(mu_from_omega(lc_k.omega_coord)) < 1e-8
    lc_h = levi_civita(builtin("hopf"), RNG_POINTS["hopf"])
    assert np.linalg.norm(mu_from_omega(lc_h.omega_coord)) > 1e-2


def test_family_is_affine_in_t():
    M = builtin("hopf")
    x = RNG_POINTS["hopf"]
    h0 = gauduchon(M, x, 0.0)
    h1 = gauduchon(M, x, 1.0)
    for t in (-1.0, 0.25, 0.7, 2.3):
        ht = gauduchon(M, x, t)
        blend_psi = (1 - t) * h0.psi_coord + t * h1.psi_coord
        blend_om = (1 - t) * h0.omega_tilde_coord + t * h1.omega_tilde_coord
        assert np.max(np.abs(ht.psi_coord - blend_psi)) < 1e-9
        assert np.max(np.abs(ht.omega_tilde_coord - blend_om)) < 1e-9


@pytest.mark.parametrize("t", [1.0, 0.0, -1.0])
def test_structure_equation_consistency(t):
    M = builtin("hopf")
    hd = gauduchon(M, RNG_POINTS["hopf"], t)
    assert structure_equation_defect(M, hd) < 1e-7


def _structure_equation_reference(M, data):
    """structure_equation_defect with d eta taken by the per-point partial."""
    x = data.point
    eta_of = lambda p: adapted_frame(M, p).eta  # noqa: E731
    eta0 = eta_of(x)
    deta = np.stack([M.backend.partial(eta_of, x, nu) for nu in range(4)])
    worst = 0.0
    for a in range(2):
        for mu in range(4):
            for nu in range(mu + 1, 4):
                val = deta[mu, a, nu] - deta[nu, a, mu]
                for b in range(2):
                    val += data.psi_coord[a, b, mu] * eta0[b, nu] - data.psi_coord[a, b, nu] * eta0[b, mu]
                val -= np.dot(eta0[a], data.torsion_coord[:, mu, nu])
                worst = max(worst, abs(val))
    return worst


@pytest.mark.parametrize("name", ["cp2_fs", "hopf"])
def test_structure_equation_defect_matches_the_per_point_reference(name):
    M = builtin(name)
    for t in (1.0, 0.0, -1.0):
        hd = gauduchon(M, RNG_POINTS[name], t)
        assert structure_equation_defect(M, hd) == _structure_equation_reference(M, hd)


def test_mu_is_t_independent():
    M = builtin("hopf")
    x = RNG_POINTS["hopf"]
    mus = [gauduchon(M, x, t).mu_coord for t in (1.0, 0.0, -1.0)]
    assert np.max(np.abs(mus[0] - mus[1])) < 1e-12
    assert np.max(np.abs(mus[0] - mus[2])) < 1e-12


# ======================================================================
# torsion auxiliaries
# ======================================================================

def test_torsion_auxiliary_vanishes_on_kahler():
    M = builtin("cp2_fs", c=2.0)
    aux = torsion_auxiliary(M, RNG_POINTS["cp2_fs"])
    assert np.max(np.abs(aux.L)) < 1e-7
    assert np.max(np.abs(aux.d_alpha_J)) < 1e-7
    assert aux.alpha_sq < 1e-7
    assert np.max(np.abs(aux.alpha_J_wedge_F)) < 1e-7
    assert np.max(np.abs(aux.grad_alpha_J_wedge_F)) < 1e-6


def _torsion_auxiliary_reference(M, x):
    """L, d(alpha o J), alpha, (alpha o J) ^ F and its covariant derivative,
    in frame components, from the Lee form as a ComplexForm, the wedge of
    the exterior algebra and the per-point partial."""
    fr, Gm, be = adapted_frame(M, x), christoffel(M, x), M.backend

    def alpha(p):
        a = lee_form(M, p)
        return np.array([a.terms.get((i,), 0.0) for i in range(4)]).real @ adapted_frame(M, p).theta

    def B3(p):
        aJ = alpha(p) @ M.J(p)
        F = coordinate_fundamental_matrix(M, p)
        return wedge(ComplexForm(4, 1, {(i,): aJ[i] for i in range(4)}),
                     ComplexForm(4, 2, {(i, j): F[i, j] for i in range(4) for j in range(i + 1, 4)})
                     ).to_array().real

    ac, B = alpha(x), B3(x)
    da = np.stack([be.partial(alpha, x, nu) for nu in range(4)])
    L = fr.E.T @ (da - np.einsum("mnr,m->nr", Gm, ac) + 0.5 * np.outer(ac, ac)) @ fr.E
    daJ = np.stack([be.partial(lambda p: alpha(p) @ M.J(p), x, nu) for nu in range(4)])
    dB = np.stack([be.partial(B3, x, nu) for nu in range(4)])
    gradB = (dB - np.einsum("mna,mbc->nabc", Gm, B) - np.einsum("mnb,amc->nabc", Gm, B)
             - np.einsum("mnc,abm->nabc", Gm, B))
    return {"L": L, "d_alpha_J": fr.E.T @ (daJ - daJ.T) @ fr.E, "alpha_frame": ac @ fr.E,
            "alpha_J_wedge_F": np.einsum("abc,ai,bj,ck->ijk", B, fr.E, fr.E, fr.E),
            "grad_alpha_J_wedge_F": np.einsum("nabc,nd,ai,bj,ck->dijk", gradB, fr.E, fr.E, fr.E, fr.E)}


@pytest.mark.parametrize("name", ["cp2_fs", "hopf"])
def test_torsion_auxiliary_matches_the_per_point_reference(name):
    M = builtin(name)
    aux = torsion_auxiliary(M, RNG_POINTS[name])
    for field, ref in _torsion_auxiliary_reference(M, RNG_POINTS[name]).items():
        assert np.max(np.abs(getattr(aux, field) - ref)) <= 1e-11 * max(1.0, np.max(np.abs(ref)))


def test_hopf_lee_square_norm():
    M = builtin("hopf")
    for x in M.chart.interior_points(3, seed=9):
        aux = torsion_auxiliary(M, x)
        assert aux.alpha_sq == pytest.approx(4.0, abs=1e-8)


def test_d_alpha_j_is_antisymmetric():
    M = builtin("hopf")
    aux = torsion_auxiliary(M, RNG_POINTS["hopf"])
    assert np.max(np.abs(aux.d_alpha_J + aux.d_alpha_J.T)) < 1e-10


# ======================================================================
# curvature relations against the direct structure-equation curvature
# ======================================================================

def test_direct_curvature_matches_levi_civita_on_kahler():
    M = builtin("cp2_fs", c=2.0)
    x = RNG_POINTS["cp2_fs"]
    lc = levi_civita(M, x)
    for t in (0.0, 1.0, -1.0):
        dc = direct_curvature(M, x, t)
        assert np.max(np.abs(dc.real_tensor() - lc.R)) < 1e-5


def test_direct_curvature_component_interface():
    M = builtin("cp2_fs", c=2.0)
    dc = direct_curvature(M, RNG_POINTS["cp2_fs"], 1.0)
    assert dc.component("1*212*") == pytest.approx(1.0, abs=1e-5)
    assert dc.component("1212") == 0.0  # J-parallel: like-type endomorphism slots die
    flipped = np.conj(dc.component("1*212*"))
    assert dc.component("12*1*2") == pytest.approx(flipped, abs=1e-12)


def test_chern_relation_on_hopf():
    M = builtin("hopf")
    for x in M.chart.interior_points(10, seed=31):
        lc = levi_civita(M, x)
        aux = torsion_auxiliary(M, x)
        rel = chern_curvature_relation(lc, aux)
        direct = direct_curvature(M, x, CONNECTION_T["chern"]).real_tensor()
        assert np.max(np.abs(rel.array - direct)) < 1e-5
        assert rel.conjugation_defect() < 1e-8


def test_bismut_relation_on_hopf():
    M = builtin("hopf")
    for x in M.chart.interior_points(10, seed=32):
        lc = levi_civita(M, x)
        aux = torsion_auxiliary(M, x)
        rel = bismut_curvature_relation(lc, aux)
        direct = direct_curvature(M, x, CONNECTION_T["bismut"]).real_tensor()
        assert np.max(np.abs(rel.array - direct)) < 1e-4


def test_relations_collapse_to_levi_civita_on_kahler():
    M = builtin("ch2", c=2.0)
    x = RNG_POINTS["ch2"]
    lc = levi_civita(M, x)
    aux = torsion_auxiliary(M, x)
    assert np.max(np.abs(chern_curvature_relation(lc, aux).array - lc.R)) < 1e-6
    assert np.max(np.abs(bismut_curvature_relation(lc, aux).array - lc.R)) < 1e-6


def test_christoffel_symmetry():
    M = builtin("hopf")
    Gm = christoffel(M, RNG_POINTS["hopf"])
    assert np.max(np.abs(Gm - np.transpose(Gm, (0, 2, 1)))) < 1e-12


# ======================================================================
# staged frame contractions against the multi-operand einsums they replaced
# ======================================================================

BUILTINS = ("flat_c2", "cp2_fs", "ch2", "hopf")
T_GENERIC = 0.3     # both terms of the D^t correction are nonzero


def _reference_torsion_correction(M, x, t):
    X = np.asarray(x, dtype=float).reshape(-1, 4)
    Jm, dF3 = M.J(X), dF_array(M, X)
    return ((1.0 - t) / 4.0 * np.einsum("zabc,zan,zbr,zcl->znrl", dF3, Jm, Jm, Jm)
            - (1.0 + t) / 4.0 * np.einsum("zabc,zan->znbc", dF3, Jm))


def _reference_lc_forms(M, x):
    g, E, Gm = M.metric(x), adapted_frame(M, x).E, christoffel(M, x)
    dE = M.backend.partials(lambda p: adapted_frame(M, p).E, x)
    nabla = np.einsum("znmj->zmnj", dE) + np.einsum("zmnr,zrj->zmnj", Gm, E)
    return np.einsum("zml,zmnj,zli->zijn", g, nabla, E)


def _reference_torsion_forms(M, x, t):
    E = adapted_frame(M, x).E
    return np.einsum("znrl,zrj,zli->zijn", _reference_torsion_correction(M, x, t), E, E)


def _reference_riemann(M, x):
    g, E, Gm = M.metric(x), adapted_frame(M, x).E, christoffel(M, x)
    dG = M.backend.partials(lambda p: christoffel(M, p), x)
    Rup = (np.einsum("zrmsn->zmnrs", dG) - np.einsum("zsmrn->zmnrs", dG)
           + np.einsum("zmrl,zlsn->zmnrs", Gm, Gm) - np.einsum("zmsl,zlrn->zmnrs", Gm, Gm))
    Rdn = np.einsum("zml,zlnrs->zmnrs", g, Rup)
    return np.einsum("zmnrs,zmi,znj,zrk,zsl->zijkl", Rdn, E, E, E, E)


def _reference_lee_components(M, x, E):
    dF = np.einsum("...abc,...ai,...bj,...ck->...ijk", dF_array(M, x), E, E, E)
    b = np.stack([dF[..., 1, 2, 3], -dF[..., 0, 2, 3], dF[..., 0, 1, 3], -dF[..., 0, 1, 2]], axis=-1)
    return np.stack([-b[..., 1], b[..., 0], -b[..., 3], b[..., 2]], axis=-1)


def _reference_torsion_auxiliary_pushes(M, x):
    """alpha_J_wedge_F and grad_alpha_J_wedge_F of torsion_auxiliary."""
    E, Gm = adapted_frame(M, x).E, christoffel(M, x)
    fields = lambda p: _lee_fields(M, p)  # noqa: E731
    B3 = fields(x)[8:].reshape(4, 4, 4)
    dB3 = M.backend.partials(fields, x)[:, 8:].reshape(4, 4, 4, 4)
    gradB3 = (dB3 - np.einsum("mna,mbc->nabc", Gm, B3) - np.einsum("mnb,amc->nabc", Gm, B3)
              - np.einsum("mnc,abm->nabc", Gm, B3))
    return (np.einsum("abc,ai,bj,ck->ijk", B3, E, E, E),
            np.einsum("nabc,nd,ai,bj,ck->dijk", gradB3, E, E, E, E))


def _reference_torsion_components(data):
    """(T20, T11, T02) of a HermitianConnectionData."""
    T, U, eta = data.torsion_coord, data.frame.U, data.frame.eta
    def tcomp(vb, vc):
        return np.einsum("am,mbc->abc", eta, np.einsum("mnr,nb,rc->mbc", T, vb, vc))
    return tcomp(U, U), tcomp(U, np.conj(U)), tcomp(np.conj(U), np.conj(U))


def _reference_complexify(tensor, pattern):
    vecs = [np.conj(_B_FRAME[idx]) if conj else _B_FRAME[idx] for idx, conj in parse_pattern(pattern)]
    return complex(np.einsum("ijkl,i,j,k,l->", tensor, *vecs))


def assert_close_to_reference(new, ref):
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.shape == ref.shape
    assert np.all(np.abs(new - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


def _staged_results(M, x):
    """Every stacked result a staged contraction feeds, at a stack x (n, 4)."""
    om_t, om_lc, fr = omega_tilde_coord(M, x, T_GENERIC)
    return {"torsion_correction": torsion_correction(M, x, T_GENERIC),
            "levi_civita.R": levi_civita(M, x).R,
            "omega_tilde_coord": om_t,
            "omega_lc": om_lc,
            "lee_components": lee_components(M, x, fr.E)}


def _reference_results(M, x):
    E = adapted_frame(M, x).E
    return {"torsion_correction": _reference_torsion_correction(M, x, T_GENERIC),
            "levi_civita.R": _reference_riemann(M, x),
            "omega_tilde_coord": _reference_lc_forms(M, x) + _reference_torsion_forms(M, x, T_GENERIC),
            "omega_lc": _reference_lc_forms(M, x),
            "lee_components": _reference_lee_components(M, x, E)}


@pytest.mark.parametrize("name", BUILTINS)
def test_staged_contractions_match_the_multi_operand_einsums(name):
    points = builtin(name).chart.interior_points(34, seed=7)
    for n in (1, 2, 34):
        x = points[:n]
        M = builtin(name)
        got, want = _staged_results(M, x), _reference_results(M, x)
        for key in want:
            assert_close_to_reference(got[key], want[key])


@pytest.mark.parametrize("name", BUILTINS)
def test_staged_contractions_keep_each_points_bits_in_any_stack(name):
    points = builtin(name).chart.interior_points(34, seed=7)
    whole = _staged_results(builtin(name), points)      # a fresh memo per stack
    for n in (1, 2):
        part = _staged_results(builtin(name), points[:n])
        for key, value in part.items():
            assert np.array_equal(value, whole[key][:n]), (n, key)
    for k in (5, 33):
        one = _staged_results(builtin(name), points[k:k + 1])
        for key, value in one.items():
            assert np.array_equal(value[0], whole[key][k]), (k, key)


@pytest.mark.parametrize("name", BUILTINS)
def test_single_point_staged_contractions_match_the_multi_operand_einsums(name):
    M = builtin(name)
    for x in M.chart.interior_points(3, seed=8):
        aux = torsion_auxiliary(M, x)
        B3_frame, gradB3_frame = _reference_torsion_auxiliary_pushes(M, x)
        assert_close_to_reference(aux.alpha_J_wedge_F, B3_frame)
        assert_close_to_reference(aux.grad_alpha_J_wedge_F, gradB3_frame)
        data = gauduchon(M, x, T_GENERIC)
        for got, want in zip((data.T20, data.T11, data.T02), _reference_torsion_components(data)):
            assert_close_to_reference(got, want)
        R = levi_civita(M, x).R
        for pattern in ("1*212", "1*21*2", "1*211*", "1*222*", "12*1*2", "1212"):
            assert_close_to_reference(complexify(R, pattern), _reference_complexify(R, pattern))


# ======================================================================
# the canonical family as one affine line, against the per-t build
# ======================================================================
# `_reference_torsion_correction` above is the multi-operand einsum form;
# these are the per-t build with today's staged contractions, which the
# memoized t-independent tables must reproduce bit for bit

FAMILY_T = (0.0, 1.0, -1.0, 0.5, -0.3)


def _reference_family_torsion_correction(M, x, t):
    """dF and both J pushes evaluated afresh for every t."""
    x = np.asarray(x, dtype=float)
    X = x.reshape(-1, 4)
    Jm = M.J(X)
    c1 = (1.0 - t) / 4.0
    c2 = (1.0 + t) / 4.0
    JdF_first = push_slots(dF_array(M, X), Jm, (0,))
    JdF_all = push_slots(JdF_first, Jm, (1, 2))
    return (c1 * JdF_all - c2 * JdF_first).reshape(x.shape[:-1] + (4, 4, 4))


def _reference_family_lc_forms(M, x, g, E):
    Gm = christoffel(M, x)
    dE = M.backend.partials(lambda p: adapted_frame(M, p).E, x)
    nabla = np.einsum("znmj->zmnj", dE) + np.einsum("zmnr,zrj->zmnj", Gm, E)
    return np.einsum("zmi,zmnj->zijn", push_slots(g, E, (1,)), nabla)


@point_memo
def _reference_omega_tilde_coord(M, x, t):
    """omega_tilde_coord memoized per (point, t) only: omega^LC and the dF
    terms are rebuilt for every t."""
    fr = adapted_frame(M, x)
    omega_coord = _reference_family_lc_forms(M, x, M.metric(x), fr.E)
    A = _reference_family_torsion_correction(M, x, t)
    return omega_coord + np.transpose(push_slots(A, fr.E, (1, 2)), (0, 3, 2, 1)), omega_coord, fr


def _family_points(name):
    return tw.sample_twistor_points(builtin(name), 2, seed=16)


def _family_results(M, pts, t):
    """Every reader of the dF tables at the base points of pts, for D^t: arrays,
    or the message of the error a closed-form display raises."""
    x = np.array([z.x for z in pts])
    sweep = tw.CoframeSweep.stack(M, t, pts)
    om_t, om_lc, _ = omega_tilde_coord(M, x, t)
    out = {"omega_tilde_coord": om_t, "omega_lc": om_lc,
           "torsion_correction": torsion_correction(M, x, t),
           "torsion_tensor": torsion_tensor(M, x, t),
           "curvature_rows": curvature_rows(M, x, t),
           "gauduchon.torsion_coord": gauduchon(M, x[0], t).torsion_coord,
           "CoframeSweep.dB": sweep.dB, "CoframeSweep.dW_coeffs": sweep.dW_coeffs}
    try:
        out["TwistorCoframe.dW_coeffs"] = tw.TwistorCoframe.stack(M, t, pts).dW_coeffs
    except ValueError as exc:
        out["TwistorCoframe.dW_coeffs"] = str(exc)
    return out


@functools.lru_cache(maxsize=None)
def _family_reference(name, t):
    mp = pytest.MonkeyPatch()
    try:
        mp.setattr(cn, "torsion_correction", _reference_family_torsion_correction)
        mp.setattr(cn, "omega_tilde_coord", _reference_omega_tilde_coord)
        mp.setattr(tw, "omega_tilde_coord", _reference_omega_tilde_coord)
        return _family_results(builtin(name), _family_points(name), t)
    finally:
        mp.undo()


def _assert_family_equal(got, want):
    assert list(got) == list(want)
    for key in want:
        if isinstance(want[key], str):
            assert got[key] == want[key], key
        else:
            assert np.array_equal(got[key], want[key]), key


@pytest.mark.parametrize("name", BUILTINS)
@pytest.mark.parametrize("t", FAMILY_T)
@pytest.mark.parametrize("first", ["lichnerowicz", "t"])
def test_family_members_from_the_memoized_tables_have_the_per_t_bits(name, t, first):
    M, pts = builtin(name), _family_points(name)
    for s in ((0.0, t) if first == "lichnerowicz" else (t, 0.0)):
        _assert_family_equal(_family_results(M, pts, s), _family_reference(name, s))


def _counting_cp2():
    """A fresh cp2_fs (c=2) whose compiled metric records the size of every
    stack it evaluates."""
    base = builtin("cp2_fs", c=2.0)
    seen = []
    compiled = base._metric
    M = HermitianSurface(base.chart, stack_field(lambda x: (seen.append(len(np.reshape(x, (-1, 4)))),
                                                            compiled(x))[1]),
                         base.J, name=base.name, params=base.params, backend=base.backend)
    return M, seen


def test_a_second_family_member_evaluates_no_metric_dF_or_levi_civita_form(monkeypatch):
    calls = {"dF_array": 0, "_lc_forms": 0}
    lc_forms = cn._lc_forms.__wrapped__
    dF = cn.dF_array

    def counted_lc(M, x):
        calls["_lc_forms"] += 1
        return lc_forms(M, x)

    def counted_dF(M, x):
        calls["dF_array"] += 1
        return dF(M, x)

    monkeypatch.setattr(cn, "dF_array", counted_dF)
    monkeypatch.setattr(cn, "_lc_forms", point_memo(counted_lc))
    M, seen = _counting_cp2()
    pts = tw.sample_twistor_points(M, 2, seed=0)
    seen.clear()
    tw.CoframeSweep.stack(M, "lichnerowicz", pts).dW_coeffs
    tw.TwistorCoframe.stack(M, "lichnerowicz", pts).dW_coeffs
    assert sum(seen) > 0 and calls["dF_array"] > 0 and calls["_lc_forms"] > 0
    for conn in ("chern", "bismut", 0.5):
        seen.clear()
        calls.update(dF_array=0, _lc_forms=0)
        tw.CoframeSweep.stack(M, conn, pts).dW_coeffs
        co = tw.TwistorCoframe.stack(M, conn, pts)
        if conn == "chern":
            co.dW_coeffs
        assert (sum(seen), calls) == (0, {"dF_array": 0, "_lc_forms": 0}), conn


@pytest.mark.parametrize("layer,evals,calls", [
    ("levi_civita", 129, 3),
    ("CoframeSweep", 129, 2),
    ("condition_report", 387, 2),
    ("ddbar_oracle", 1225, 4),
])
def test_fresh_surface_metric_counts_are_unchanged_by_the_family_tables(layer, evals, calls):
    # the t-independent tables count toward POINT_MEMO_LIMIT: these counts
    # show that no clear has moved
    M, seen = _counting_cp2()
    pts = tw.sample_twistor_points(M, 3, seed=0)
    seen.clear()
    {"levi_civita": lambda: levi_civita(M, pts[0].x),
     "CoframeSweep": lambda: tw.CoframeSweep(M, "lichnerowicz", pts[0]),
     "condition_report": lambda: tw.condition_report(M, "lichnerowicz", [1.0, 2 ** 0.5, 2.0], pts),
     "ddbar_oracle": lambda: tw.ddbar_oracle(3, 1.1, M, "lichnerowicz", pts[0])}[layer]()
    assert (sum(seen), len(seen)) == (evals, calls)


def test_the_memo_keeps_one_ddbar_oracle_call_whole():
    # one ddbar_oracle call on cp2_fs stores 4 776 points: the memo holds
    # them all, so a second call evaluates no metric point
    M, seen = _counting_cp2()
    pts = tw.sample_twistor_points(M, 3, seed=0)
    seen.clear()
    first = tw.ddbar_oracle(3, 1.1, M, "lichnerowicz", pts[0])
    assert sum(seen) == 1225 and len(M._point_memo) == 4776 <= POINT_MEMO_LIMIT
    seen.clear()
    second = tw.ddbar_oracle(3, 1.1, M, "lichnerowicz", pts[0])
    assert sum(seen) == 0 and len(M._point_memo) == 4776
    assert np.array_equal(first.vec, second.vec)
