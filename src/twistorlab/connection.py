"""Levi-Civita and the canonical family of Hermitian connections.

The family D^t interpolates the three classical Hermitian connections of a
Hermitian surface (t = 0, 1, -1).  D^t differs from Levi-Civita by a torsion
correction built from dF:

    h(D^t_X Y, Z) = h(grad_X Y, Z) + (1-t)/4 * dF(JX, JY, JZ)
                                   - (1+t)/4 * dF(JX, Y, Z)

which is affine in t; on Kahler input every D^t collapses to Levi-Civita.
One point-memo table, `_base_table`, holds each point's first-order data:
g, Gamma, omega^LC, dF with its two J-pushed terms and the adapted frame;
the Levi-Civita data, dF, the Lee form and every D^t are read from it.

Curvature conventions (fixed for the whole package):
    R(X1, X2, X3, X4) = h(R(X3, X4) X2, X1),
    R(X, Y)Z = D_X D_Y Z - D_Y D_X Z - D_[X,Y] Z,
so in a frame the curvature 2-forms are Om^i_j = 1/2 R_{ijkl} th^k ^ th^l.

Complexified components insert u_a = (e_{2a-1} - i e_{2a})/sqrt2 or their
conjugates into the real tensor slots; patterns are strings like "1*212*"
parsed one slot at a time (digit, optional '*' for conjugation).
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from twistorlab.exterior import ZERO_EPS, ComplexForm, antisymmetric_array, d_rows, wedge_vectors
from twistorlab.manifold import (J_STANDARD, HermitianSurface, UnitaryFrame, _frame_fields, _join,
                                 _raise_at_first, _unitary_frame, adapted_frame,
                                 coordinate_fundamental_matrix, point_memo, push_slots, segments_of,
                                 with_stencils)

CONNECTION_T = {"lichnerowicz": 0.0, "chern": 1.0, "bismut": -1.0}

# u_a in adapted-frame components: u_1 = (e1 - i e2)/sqrt2, u_2 = (e3 - i e4)/sqrt2
_B_FRAME = np.array([
    [1.0, -1.0j, 0.0, 0.0],
    [0.0, 0.0, 1.0, -1.0j],
]) / np.sqrt(2.0)


# ======================================================================
# pattern handling and complexification
# ======================================================================

def parse_pattern(pattern: str) -> List[Tuple[int, bool]]:
    """Parse a slot pattern like '1*212*' into [(index, conjugated), ...]."""
    slots: List[Tuple[int, bool]] = []
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if ch not in "12":
            raise ValueError(f"malformed slot pattern {pattern!r}: expected '1' or '2', got {ch!r}")
        conj = i + 1 < len(pattern) and pattern[i + 1] == "*"
        slots.append((int(ch) - 1, conj))
        i += 2 if conj else 1
    if len(slots) != 4:
        raise ValueError(f"malformed slot pattern {pattern!r}: need exactly 4 slots")
    return slots


def flip_pattern(pattern: str) -> str:
    """Flip every conjugation flag in a slot pattern."""
    out = []
    for idx, conj in parse_pattern(pattern):
        out.append(f"{idx + 1}" if conj else f"{idx + 1}*")
    return "".join(out)


def complexify(tensor: np.ndarray, pattern: str, rows: np.ndarray = _B_FRAME) -> complex:
    """Insert u_a / conj(u_a) into the four slots of a frame-component tensor.

    Args:
        tensor: real (or complex) 4x4x4x4 array of adapted-frame components.
        pattern: e.g. '1*212' for (conj u_1, u_2, u_1, u_2).
        rows: (2, 4) frame components of u_1, u_2; by default those of the
           adapted frame, u_a = (e_{2a-1} - i e_{2a})/sqrt2.
    """
    tensor = np.asarray(tensor)
    if tensor.shape != (4, 4, 4, 4):
        raise ValueError(f"need frame components of shape (4,4,4,4), got {tensor.shape}")
    out = tensor
    for idx, conj in reversed(parse_pattern(pattern)):     # the last slot first
        out = out @ (np.conj(rows[idx]) if conj else rows[idx])
    return complex(out)


# ======================================================================
# Levi-Civita connection
# ======================================================================

@dataclass(frozen=True)
class _BaseData:
    """First-order data at a point (a stack: point axes in front)."""
    g: np.ndarray            # (4, 4) the metric
    Gamma: np.ndarray        # (4, 4, 4) Gamma^mu_{nu rho}
    omega: np.ndarray        # (4, 4, 4) omega^LC[i, j, nu] = h(grad_{d_nu} e_j, e_i)
    dF: np.ndarray           # (4, 4, 4) dF(d_a, d_b, d_c)
    JdF_first: np.ndarray    # (4, 4, 4) dF(JX, Y, Z)
    JdF_all: np.ndarray      # (4, 4, 4) dF(JX, JY, JZ)
    frame: UnitaryFrame      # NaN where the point has no frame
    frameless: np.ndarray    # bool: no frame at the point or at a point of its stencil


@point_memo
def _base_table(segments) -> _BaseData:
    """The first-order data at the points x of the segments from one
    `_frame_fields` pass over x and its stencil and one FD combine of each
    of g, E and F there, every segment's at once; `point_memo` serves one point
    or any stack.  A point without a frame at itself or a stencil point is
    flagged `frameless` (its frame or omega^LC is NaN) and raises nothing
    here, so Gamma and dF need no frame; `_framed` raises for the readers
    of the frame."""
    stacked, split = with_stencils(segments)
    (g, g_st), (E, E_st), (_, F_st), (degenerate, frameless) = map(split, _frame_fields(stacked))
    # dg[z, k] = d_k g at x[z], and the same for E and F
    dg, dE, dF = (np.moveaxis(segments[0][0].backend.combine(f), 0, 1) for f in (g_st, E_st, F_st))
    del g_st, E_st, F_st        # the stencil fields, freed once combined
    x = _join([p for _, p in segments])
    # Gamma^mu_{nu rho} = 1/2 g^{mu la} (d_nu g_{la rho} + d_rho g_{la nu} - d_la g_{nu rho})
    Gm = 0.5 * np.einsum("zml,znlr->zmnr", np.linalg.inv(g), dg + np.transpose(dg, (0, 3, 2, 1))
                         - np.transpose(dg, (0, 2, 1, 3)))
    # (grad_{d_nu} e_j)^mu = d_nu E[mu, j] + Gamma^mu_{nu rho} E[rho, j], and
    # h(grad_{d_nu} e_j, e_i) = (g E)[mu, i] (grad_{d_nu} e_j)^mu
    nabla = np.einsum("znmj->zmnj", dE) + np.einsum("zmnr,zrj->zmnj", Gm, E)
    omega = np.einsum("zmi,zmnj->zijn", push_slots(g, E, (1,)), nabla)
    # dF's slot coefficients below ZERO_EPS are 0, as in a ComplexForm
    v = d_rows(dF[(...,) + np.triu_indices(4, 1)], 4, 2).real
    dF = antisymmetric_array(np.where(np.abs(v) < ZERO_EPS, 0.0, v), 4, 3)
    Jm = _join([M.J(p) for M, p in segments])
    JdF_first = push_slots(dF, Jm, (0,))
    return _BaseData(g=g, Gamma=Gm, omega=omega, dF=dF, JdF_first=JdF_first,
                     JdF_all=push_slots(JdF_first, Jm, (1, 2)), frame=_unitary_frame(x, E),
                     frameless=degenerate | frameless.reshape(-1, len(x)).any(axis=0))


def _framed(segments, stencils: bool = False):
    """(`_base_table` at the points of the segments, with `stencils` at their
    stencils too, and the split of `with_stencils` or None) for a memoized
    reader of the frame at the points, whose memo replays a failing stack
    point by point: the metric's error or DegenerateFrameError at a point
    comes before any other error of its row, then DegenerateFrameError at
    its first stencil point without a frame."""
    stacked, split = with_stencils(segments) if stencils else (segments, None)
    try:
        base = _base_table(stacked)
    except Exception:
        if stencils:
            _framed(segments)       # the errors of the points' own rows come first
        for M, x in segments:
            adapted_frame(M, x)
        raise
    if (split(base.frameless, False)[0] if stencils else base.frameless).any():
        for M, x in segments:
            adapted_frame(M, x)
            adapted_frame(M, M.backend.stencil(x))
    return base, split


def christoffel(M: HermitianSurface, x: np.ndarray) -> np.ndarray:
    """Christoffel symbols Gamma[..., mu, nu, rho] = Gamma^mu_{nu rho} (FD of the
    metric) at a point or a stack of points x (..., 4), from `_base_table`."""
    return _base_table(M, x).Gamma


@dataclass(frozen=True)
class LeviCivitaData:
    """Levi-Civita connection data at a point, against the canonical frame field.

    omega_coord[i, j, nu] = h(grad_{d_nu} e_j, e_i); omega_frame contracts the
    direction slot with the frame.  R[i, j, k, l] follows the package-wide
    pairing R(X1, X2, X3, X4) = h(R(X3, X4) X2, X1).
    """
    point: np.ndarray
    frame: UnitaryFrame
    Gamma: np.ndarray         # (4, 4, 4)
    omega_coord: np.ndarray   # (4, 4, 4) real
    omega_frame: np.ndarray   # (4, 4, 4) real
    R: np.ndarray             # (4, 4, 4, 4) real, frame components

    def curvature_two_form(self, i: int, j: int) -> ComplexForm:
        """Om^i_j as a 2-form over the adapted coframe."""
        return ComplexForm(4, 2, {(k, l): self.R[i, j, k, l] for k in range(4) for l in range(k + 1, 4)})

    def component(self, pattern: str) -> complex:
        return complexify(self.R, pattern)

    def defects(self) -> Dict[str, float]:
        """Max violations of the structural invariants (for tests/validation),
        over every point of a stack."""
        R = np.reshape(self.R, (-1, 4, 4, 4, 4))      # axis 0: the points
        om = np.reshape(self.omega_frame, (-1, 4, 4, 4))
        anti_dir = float(np.max(np.abs(om + np.transpose(om, (0, 2, 1, 3)))))
        sym_pairs = float(np.max(np.abs(R - np.transpose(R, (0, 3, 4, 1, 2)))))
        anti_12 = float(np.max(np.abs(R + np.transpose(R, (0, 2, 1, 3, 4)))))
        anti_34 = float(np.max(np.abs(R + np.transpose(R, (0, 1, 2, 4, 3)))))
        bianchi = float(np.max(np.abs(R + np.transpose(R, (0, 1, 3, 4, 2))
                                      + np.transpose(R, (0, 1, 4, 2, 3)))))
        return {"omega_antisymmetry": anti_dir, "pair_symmetry": sym_pairs, "antisymmetry_12": anti_12,
                "antisymmetry_34": anti_34, "first_bianchi": bianchi}


@point_memo
def levi_civita(segments) -> LeviCivitaData:
    """Levi-Civita connection forms and curvature at the points of the
    segments; `point_memo` serves one point or any stack.

    One `_base_table` lookup at the points and their stencils (`_framed`,
    which checks the points' own rows for a frame) gives the points' rows,
    copied so that the answer keeps no stencil row alive, and the Gamma of
    every stencil point, which the curvature's FD pass over the Christoffel
    field combines at once; frame components are produced against the
    canonical Gram-Schmidt frame field.
    """
    both, split = _framed(segments, stencils=True)
    Gm, g, omega, point, E, theta, U, eta = (split(a, False)[0].copy() for a in (
        both.Gamma, both.g, both.omega, both.frame.point, both.frame.E, both.frame.theta, both.frame.U, both.frame.eta))
    fr = UnitaryFrame(point=point, E=E, theta=theta, U=U, eta=eta)
    dG = split(both.Gamma)[1]
    omega_frame = np.einsum("zijn,znk->zijk", omega, fr.E)

    # coordinate Riemann from the Christoffel field:
    # R^mu_{nu rho si} = d_rho Gm^mu_{si nu} - d_si Gm^mu_{rho nu} + Gm Gm - Gm Gm
    dG = segments[0][0].backend.combine(dG)
    dG = np.ascontiguousarray(np.moveaxis(dG, 0, 1))            # dG[z, k] = d_k Gamma
    Rup = (np.einsum("zrmsn->zmnrs", dG) - np.einsum("zsmrn->zmnrs", dG)
           + np.einsum("zmrl,zlsn->zmnrs", Gm, Gm) - np.einsum("zmsl,zlrn->zmnrs", Gm, Gm))
    # lower the first slot and push through the frame, pairing h(R(X3,X4)X2, X1)
    Rdn = np.einsum("zml,zlnrs->zmnrs", g, Rup)
    Rfr = push_slots(Rdn, fr.E, (0, 1, 2, 3))
    return LeviCivitaData(point=fr.point, frame=fr, Gamma=Gm, omega_coord=omega,
                          omega_frame=omega_frame, R=Rfr)


# ======================================================================
# dF and the Lee form
# ======================================================================

def _check_stencil_inside(segments):
    for M, x in segments:
        _raise_at_first(np.asarray(M.chart.margin_to_boundary(x) < M.backend.reach()), x,
                        lambda point: ValueError(f"point too close to boundary for FD stencil: {point}"))


def dF_array(M: HermitianSurface, x: np.ndarray) -> np.ndarray:
    """dF at a point or a stack of points x (..., 4), by FD of F's components:
    the full antisymmetric array dF[..., a, b, c] = dF(d_a, d_b, d_c), from
    `_base_table` once every stencil is checked to lie inside the chart."""
    _check_stencil_inside([(M, x)])
    return _base_table(M, x).dF


def lee_components(M: HermitianSurface, x: np.ndarray, E: np.ndarray) -> np.ndarray:
    """The Lee form's components over the adapted coframe, at a point or a
    stack of points x (..., 4) with frames E (..., 4, 4): (..., 4).

    Uses delta = -*d* on 2-forms and *F = F, so the Lee form is the J-image of
    -*dF with no nested differentiation; dF of the whole stack comes from one
    `dF_array`.
    """
    # dF over the adapted coframe: dx^mu = sum_i E[mu, i] theta^i
    dF = push_slots(dF_array(M, x), E, (0, 1, 2))
    # -*dF, with *(theta^a ^ theta^b ^ theta^c) = sign(a, b, c, d) theta^d
    b = np.stack([dF[..., 1, 2, 3], -dF[..., 0, 2, 3], dF[..., 0, 1, 3], -dF[..., 0, 1, 2]], axis=-1)
    # (J beta)(X) = -beta(JX); in the adapted frame J maps e1->e2, e3->e4
    return np.stack([-b[..., 1], b[..., 0], -b[..., 3], b[..., 2]], axis=-1)


# ======================================================================
# the Gauduchon family D^t
# ======================================================================

def _correction(base: _BaseData, t: float) -> np.ndarray:
    """A_t = c1 * dF(JX, JY, JZ) - c2 * dF(JX, Y, Z) from base table rows."""
    c1 = (1.0 - t) / 4.0
    c2 = (1.0 + t) / 4.0
    return c1 * base.JdF_all - c2 * base.JdF_first


def torsion_correction(M: HermitianSurface, x: np.ndarray, t: float) -> np.ndarray:
    """A[..., nu, rho, la] = h(D^t - grad)(d_nu, d_rho, d_la) from the dF
    correction, at a point or a stack of points x (..., 4).

    A_t = c1 * dF(JX, JY, JZ) - c2 * dF(JX, Y, Z) with c1 = (1-t)/4 and
    c2 = (1+t)/4 is affine in t: both terms come from `_base_table`, read
    as `dF_array` reads it, so a new t at visited points evaluates nothing.
    """
    _check_stencil_inside([(M, x)])
    return _correction(_base_table(M, x), t)


@dataclass(frozen=True)
class HermitianConnectionData:
    """D^t connection data at a point in the canonical adapted frame.

    psi_coord[a, b, nu] is the complex connection matrix on (1,0)-frame
    vectors along coordinate directions; mu_coord is the off-u(2) part of the
    *Levi-Civita* connection (the obstruction 1-form that vanishes exactly in
    the Kahler case), which is the same for every t.
    """
    point: np.ndarray
    t: float
    frame: UnitaryFrame
    omega_tilde_coord: np.ndarray   # (4, 4, 4) real
    psi_coord: np.ndarray           # (2, 2, 4) complex
    mu_coord: np.ndarray            # (4,) complex
    torsion_coord: np.ndarray       # (4, 4, 4) real: T^mu_{nu rho}
    T20: np.ndarray                 # (2, 2, 2) complex: T^a(u_b, u_c)
    T11: np.ndarray                 # (2, 2, 2) complex: T^a(u_b, conj u_c)
    T02: np.ndarray                 # (2, 2, 2) complex: T^a(conj u_b, conj u_c)

    def skew_hermitian_defect(self) -> float:
        """Max |psi^a_b + conj(psi^b_a)| over directions (h- and J-parallelism)."""
        return float(np.max(np.abs(self.psi_coord + np.conj(np.transpose(self.psi_coord, (1, 0, 2))))))

    def j_commutation_defect(self) -> float:
        """Max norm of the J-anticommuting part of the connection matrix.

        Zero (to FD accuracy) for every member of the family; the analogous
        quantity for raw Levi-Civita is the mu 1-form.
        """
        # row/column indices are frame labels, so J acts as the standard block matrix
        out = 0.0
        for nu in range(4):
            A = self.omega_tilde_coord[:, :, nu]
            out = max(out, float(np.max(np.abs(0.5 * (A + J_STANDARD @ A @ J_STANDARD)))))
        return out


def complex_connection_matrix(omega_coord: np.ndarray) -> np.ndarray:
    """psi^a_b(.) = 1/2[(om^{2a-1}_{2b-1} + om^{2a}_{2b}) + i(om^{2a}_{2b-1} - om^{2a-1}_{2b})],
    for omega (..., 4, 4, m) -> psi (..., 2, 2, m)."""
    om = omega_coord
    psi = np.empty(om.shape[:-3] + (2, 2, om.shape[-1]), dtype=complex)
    for a in range(2):
        for b in range(2):
            ra, rb = 2 * a, 2 * b
            psi[..., a, b, :] = 0.5 * ((om[..., ra, rb, :] + om[..., ra + 1, rb + 1, :])
                                       + 1j * (om[..., ra + 1, rb, :] - om[..., ra, rb + 1, :]))
    return psi


def mu_from_omega(omega_coord: np.ndarray) -> np.ndarray:
    """mu = 1/2[(om^2_4 - om^1_3) - i(om^2_3 + om^1_4)] (1-based rows/columns),
    for omega (..., 4, 4, m) -> mu (..., m)."""
    om = omega_coord
    return 0.5 * ((om[..., 1, 3, :] - om[..., 0, 2, :]) - 1j * (om[..., 1, 2, :] + om[..., 0, 3, :]))


def torsion_tensor(M: HermitianSurface, x: Optional[np.ndarray], t: float) -> np.ndarray:
    """The torsion T^mu_{nu rho} (..., 4, 4, 4) of D^t at a point or a stack of
    points x (..., 4), or at segments (x None): g^{mu la} [A(d_nu, d_rho, d_la)
    - A(d_rho, d_nu, d_la)] for the dF correction A, from one base lookup."""
    segments, shape = segments_of(M, x)
    _check_stencil_inside(segments)
    base = _base_table(segments)
    A = _correction(base, t)
    T = np.einsum("...ml,...nrl->...mnr", np.linalg.inv(base.g), A - np.swapaxes(A, -3, -2))
    return T.reshape(shape + T.shape[1:])


@point_memo
def _omega_rows(segments, t: float) -> Tuple[np.ndarray, np.ndarray]:
    """(omega^t, eta) at the points of the segments: the D^t forms in
    coordinates, omega^LC + A_t from one `_base_table` lookup, with the
    (1,0)-coframe `coframe_rows` reads; memoized per (point, t)."""
    base, _ = _framed(segments)
    _check_stencil_inside(segments)
    # A(d_nu, e_j, e_i): the D^t correction om~^i_j(d_nu) - om^i_j(d_nu)
    A = np.transpose(push_slots(_correction(base, t), base.frame.E, (1, 2)), (0, 3, 2, 1))
    return base.omega + A, base.frame.eta


def omega_tilde_coord(M: HermitianSurface, x: np.ndarray, t: float) -> Tuple[np.ndarray, np.ndarray, UnitaryFrame]:
    """(omega_tilde, lc_omega, frame): D^t and Levi-Civita forms in coordinates
    at a point or a stack of points x (..., 4), each field with the point
    axes in front.  omega_tilde comes from the `_omega_rows` table, and
    omega^LC and the frame are the base table's own rows, so a second member
    of the family at visited points evaluates no metric, frame or dF."""
    om_t, _ = _omega_rows(M, x, t)
    base = _base_table(M, x)
    return om_t, base.omega, base.frame


def gauduchon(M: HermitianSurface, x: np.ndarray, t: float) -> HermitianConnectionData:
    """The canonical Hermitian connection D^t at x, with torsion.

    Torsion comes from the coefficient antisymmetrization
    T^mu_{nu rho} = Gm~^mu_{nu rho} - Gm~^mu_{rho nu}, which for this family
    reduces to the antisymmetrized dF correction; complex components insert
    (1,0)-frame vectors and conjugates.
    """
    x = np.asarray(x, dtype=float)
    om_t, om_lc, fr = omega_tilde_coord(M, x, t)
    psi = complex_connection_matrix(om_t)
    mu = mu_from_omega(om_lc)

    T = torsion_tensor(M, x, t)
    U = fr.U
    Ubar = np.conj(U)
    Tu = push_slots(T, fr.eta.T, (0,))      # T^a(X, Y) = eta^a( T(X, Y) )

    def tcomp(vb, vc):
        return push_slots(push_slots(Tu, vb, (1,)), vc, (2,))
    return HermitianConnectionData(point=x, t=t, frame=fr, omega_tilde_coord=om_t, psi_coord=psi,
                                   mu_coord=mu, torsion_coord=T,
                                   T20=tcomp(U, U), T11=tcomp(U, Ubar), T02=tcomp(Ubar, Ubar))


def structure_equation_defect(M: HermitianSurface, data: HermitianConnectionData) -> float:
    """Max coefficient of d eta^a + psi^a_b ^ eta^b - T^a over the chart coframe.

    Validates that psi and the torsion really belong to the same connection:
    the identity is exact, so the residual is pure FD noise.
    """
    x = data.point
    eta0 = adapted_frame(M, x).eta
    deta = M.backend.partials(lambda p: adapted_frame(M, p).eta, x)  # [nu, a, rho]
    pe = wedge_vectors(data.psi_coord, eta0, 4, 1, 1)       # [a, b] = psi^a_b ^ eta^b
    m, n = np.triu_indices(4, 1)
    val = (d_rows(np.moveaxis(deta, 0, 1), 4, 1) + pe[:, 0] + pe[:, 1]
           - eta0 @ data.torsion_coord[:, m, n])
    return float(np.max(np.hypot(val.real, val.imag)))     # abs() of each, bit for bit


# ======================================================================
# direct D^t curvature via the structure equation Psi = d psi + psi ^ psi
# ======================================================================

@dataclass(frozen=True)
class GauduchonCurvature:
    """Curvature 2-forms Psi^a_b of D^t over the coordinate coframe."""
    point: np.ndarray
    t: float
    frame: UnitaryFrame
    Psi: List[List[ComplexForm]]    # [a][b], dim-4 2-forms over dx

    def evaluate(self, a: int, b: int, X: np.ndarray, Y: np.ndarray) -> complex:
        return self.Psi[a][b].evaluate(np.vstack([X, Y]))

    def component(self, pattern: str) -> complex:
        """K-component for a 4-slot pattern; pairing h(K(X3, X4) X2, X1).

        Slot 1 must be conjugated and slot 2 plain (or the full flip, handled
        by conjugation symmetry); patterns with slots 1, 2 of equal type
        vanish identically for a J-parallel connection.
        """
        slots = parse_pattern(pattern)
        (a, ca), (b, cb) = slots[0], slots[1]
        if ca == cb:
            return 0.0 + 0.0j
        if not ca:
            return complex(np.conj(self.component(flip_pattern(pattern))))
        vecs = []
        for idx, conj in (slots[2], slots[3]):
            v = self.frame.U[:, idx]
            vecs.append(np.conj(v) if conj else v)
        return complex(self.Psi[a][b].evaluate(np.vstack(vecs)))

    def real_tensor(self) -> np.ndarray:
        """K[i,j,k,l] = h(K(e_k, e_l) e_j, e_i) as real frame components."""
        E = self.frame.E
        out = np.empty((4, 4, 4, 4))
        for k in range(4):
            for l in range(4):
                P = np.array([[self.Psi[a][b].evaluate(np.vstack([E[:, k], E[:, l]]))
                               for b in range(2)] for a in range(2)])
                op = 2.0 * np.real(_B_FRAME.T @ P @ np.conj(_B_FRAME))
                out[:, :, k, l] = op
        return out


def curvature_rows(M: HermitianSurface, x: Optional[np.ndarray], t: float) -> np.ndarray:
    """The coefficient rows (..., 2, 2, 6) over dx of the curvature 2-forms
    Psi^a_b = d psi^a_b + psi^a_c ^ psi^c_b of D^t, at a point or a stack of
    points x (..., 4), or at segments (x None); not cut.  psi and d psi come
    from one `_omega_rows` lookup of every segment's points and stencils."""
    segments, shape = segments_of(M, x)
    stacked, split = with_stencils(segments)
    psi0, psi = split(complex_connection_matrix(_omega_rows(stacked, None, t)[0]))
    dpsi = np.ascontiguousarray(np.moveaxis(segments[0][0].backend.combine(psi), 0, 1))  # [z, nu, a, b, rho]
    # pp[z, a, c, b] = psi^a_c ^ psi^c_b
    pp = wedge_vectors(psi0[:, :, :, None, :], psi0[:, None, :, :, :], 4, 1, 1)
    rows = d_rows(np.moveaxis(dpsi, 1, 3), 4, 1) + pp[:, :, 0, :, :] + pp[:, :, 1, :, :]
    return rows.reshape(shape + rows.shape[1:])


def direct_curvature(M: HermitianSurface, x: np.ndarray, t: float) -> GauduchonCurvature:
    """Curvature of D^t from FD of the connection-matrix field plus psi ^ psi."""
    x = np.asarray(x, dtype=float)
    fr = adapted_frame(M, x)
    rows = curvature_rows(M, x, t)
    Psi = [[ComplexForm(4, 2, rows[a, b]) for b in range(2)] for a in range(2)]
    return GauduchonCurvature(point=x, t=t, frame=fr, Psi=Psi)


# ======================================================================
# curvature relations against Levi-Civita (cross-checks)
# ======================================================================

@dataclass(frozen=True)
class TorsionAuxiliary:
    """Lee-form derived quantities entering the curvature relations.

    L[i, j] = (grad_{e_i} alpha)(e_j) + 1/2 alpha(e_i) alpha(e_j);
    d_alpha_J[i, j] = d(alpha o J)(e_i, e_j); alpha_sq = |alpha|^2.
    All in adapted-frame components; all vanish on Kahler input.
    """
    point: np.ndarray
    frame: UnitaryFrame
    alpha_frame: np.ndarray    # (4,) real
    L: np.ndarray              # (4, 4) real
    d_alpha_J: np.ndarray      # (4, 4) real antisymmetric
    alpha_sq: float
    alpha_J_wedge_F: np.ndarray  # (4, 4, 4) real frame components of (alpha o J) ^ F
    grad_alpha_J_wedge_F: np.ndarray  # (4, 4, 4, 4): [dir, slots...] frame components


def _lee_fields(M: HermitianSurface, p: np.ndarray) -> np.ndarray:
    """alpha, alpha o J and (alpha o J) ^ F in chart coordinates at a stack of
    points p (..., 4), as one array (..., 72): 4 + 4 components and the full
    antisymmetric (4, 4, 4) array, flattened."""
    fr = adapted_frame(M, p)
    alpha = np.einsum("...i,...im->...m", lee_components(M, p, fr.E), fr.theta)
    aJ = np.einsum("...m,...mn->...n", alpha, M.J(p))      # (alpha o J)(d_n) = alpha(J d_n)
    F = coordinate_fundamental_matrix(M, p)
    # the 1-form aJ wedged with the 2-form F: aJ_a F_bc + aJ_b F_ca + aJ_c F_ab
    B3 = (np.einsum("...a,...bc->...abc", aJ, F) + np.einsum("...b,...ca->...abc", aJ, F)
          + np.einsum("...c,...ab->...abc", aJ, F))
    return np.concatenate([alpha, aJ, B3.reshape(B3.shape[:-3] + (64,))], axis=-1)


def torsion_auxiliary(M: HermitianSurface, x: np.ndarray) -> TorsionAuxiliary:
    """Assemble the Lee-form auxiliaries used by the curvature relations."""
    x = np.asarray(x, dtype=float)
    fr = adapted_frame(M, x)
    Gm = christoffel(M, x)
    fields = lambda p: _lee_fields(M, p)  # noqa: E731
    values, d = fields(x), M.backend.partials(fields, x)     # d[nu] = d_nu of the fields
    ac, B3 = values[:4], values[8:].reshape(4, 4, 4)

    # grad alpha in coordinates: (grad alpha)_{nu rho} = d_nu a_rho - Gm^mu_{nu rho} a_mu
    grad_a = d[:, :4] - np.einsum("mnr,m->nr", Gm, ac)
    L_coord = grad_a + 0.5 * np.outer(ac, ac)
    L = fr.E.T @ L_coord @ fr.E

    # d(alpha o J) as a coordinate 2-form
    daJ = d[:, 4:8]
    d_alpha_J = fr.E.T @ (daJ - daJ.T) @ fr.E

    alpha_frame = ac @ fr.E  # alpha(e_i)
    alpha_sq = float(np.dot(alpha_frame, alpha_frame))
    B3_frame = push_slots(B3, fr.E, (0, 1, 2))

    # covariant derivative of the 3-form in coordinates, then frame components
    dB3 = d[:, 8:].reshape(4, 4, 4, 4)
    gradB3 = (dB3
              - np.einsum("mna,mbc->nabc", Gm, B3)
              - np.einsum("mnb,amc->nabc", Gm, B3)
              - np.einsum("mnc,abm->nabc", Gm, B3))
    gradB3_frame = push_slots(gradB3, fr.E, (0, 1, 2, 3))

    return TorsionAuxiliary(point=x, frame=fr, alpha_frame=alpha_frame, L=L,
                            d_alpha_J=d_alpha_J, alpha_sq=alpha_sq,
                            alpha_J_wedge_F=B3_frame, grad_alpha_J_wedge_F=gradB3_frame)


@dataclass(frozen=True)
class CurvatureTensor:
    """A curvature-type tensor in adapted-frame components with slot pairing
    T(X1, X2, X3, X4); complexified components via `component(pattern)`."""
    which: str
    point: np.ndarray
    array: np.ndarray   # (4, 4, 4, 4)

    def component(self, pattern: str) -> complex:
        return complexify(self.array, pattern)

    def conjugation_defect(self, patterns: Tuple[str, ...] = ("1*212", "1*21*2", "1*211*", "1*222*", "1*212*", "1*21*2*")) -> float:
        return max(abs(self.component(p) - np.conj(self.component(flip_pattern(p)))) for p in patterns)


# F and h in adapted-frame components
_F_FRAME = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])
_H_FRAME = np.eye(4)


def chern_curvature_relation(levi: LeviCivitaData, aux: TorsionAuxiliary) -> CurvatureTensor:
    """Chern curvature K from Levi-Civita curvature plus Lee-form corrections.

    K(X1..X4) = R + 1/2 d(alpha o J)(X3, X4) F(X1, X2)
                + 1/2 [L(X4, X2) h(X3, X1) + L(X3, X1) h(X4, X2)]
                - 1/2 [L(X3, X2) h(X4, X1) + L(X4, X1) h(X3, X2)]
                + |alpha|^2/4 [h(X3, X2) h(X4, X1) - h(X4, X2) h(X3, X1)]
    """
    if not np.allclose(levi.point, aux.point):
        raise ValueError("relation inputs evaluated at different points")
    R = levi.R
    L = aux.L
    h = _H_FRAME
    K = (R
         + 0.5 * np.einsum("kl,ij->ijkl", aux.d_alpha_J, _F_FRAME)
         + 0.5 * (np.einsum("lj,ki->ijkl", L, h) + np.einsum("ki,lj->ijkl", L, h))
         - 0.5 * (np.einsum("kj,li->ijkl", L, h) + np.einsum("li,kj->ijkl", L, h))
         + 0.25 * aux.alpha_sq * (np.einsum("kj,li->ijkl", h, h) - np.einsum("lj,ki->ijkl", h, h)))
    return CurvatureTensor(which="chern_relation", point=levi.point, array=K)


def bismut_curvature_relation(levi: LeviCivitaData, aux: TorsionAuxiliary) -> CurvatureTensor:
    """Bismut curvature K~ from Levi-Civita curvature plus (alpha o J) ^ F terms.

    K~(X1..X4) = R + 1/2 (grad_{X3}(aJ^F))(X4, X2, X1) - 1/2 (grad_{X4}(aJ^F))(X3, X2, X1)
                 + 1/4 sum_m (aJ^F)(X4, X1, e_m)(aJ^F)(X3, X2, e_m)
                 - 1/4 sum_m (aJ^F)(X3, X1, e_m)(aJ^F)(X4, X2, e_m)
    """
    if not np.allclose(levi.point, aux.point):
        raise ValueError("relation inputs evaluated at different points")
    R = levi.R
    B = aux.alpha_J_wedge_F
    GB = aux.grad_alpha_J_wedge_F
    K = (R
         + 0.5 * np.einsum("klji->ijkl", GB)
         - 0.5 * np.einsum("lkji->ijkl", GB)
         + 0.25 * np.einsum("lim,kjm->ijkl", B, B)
         - 0.25 * np.einsum("kim,ljm->ijkl", B, B))
    return CurvatureTensor(which="bismut_relation", point=levi.point, array=K)
