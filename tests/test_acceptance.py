"""Release acceptance battery.

One test per contract item.  Each test checks the stated tolerances (and,
where a budget applies, the wall-clock limit) and prints a single summary
line; the pytest verdict per test is the pass/fail record.  Run with -s to
see the summary lines on success.
"""

import math
import time

import numpy as np

from twistorlab.connection import (
    CONNECTION_T,
    bismut_curvature_relation,
    chern_curvature_relation,
    direct_curvature,
    gauduchon,
    levi_civita,
    torsion_auxiliary,
)
from twistorlab.curvature_analysis import condition_flags
from twistorlab.exterior import ComplexForm, hodge_star_4, sd_asd_split, wedge, wedge_all
from twistorlab.flag import (
    flag_balanced,
    flag_bidegree_part,
    flag_conj,
    flag_d,
    flag_dK,
    flag_K,
    generator_form,
    nearly_kahler_check,
)
from twistorlab.manifold import BUILTIN_NAMES, builtin
from twistorlab.twistor import (
    CoframeSweep,
    acs_endomorphism,
    coframe_rows,
    conformal_compare,
    conformal_rescale,
    dK_formula,
    lambda_zero_crossing,
    nijenhuis_oracle,
    sample_twistor_points,
    twistor_coframe,
)

SQ2 = math.sqrt(2.0)
KAHLER_BUILTINS = ("flat_c2", "cp2_fs", "ch2")
SELF_DUAL_BUILTINS = ("cp2_fs", "ch2", "flat_c2")


def _surface(name):
    return builtin(name, c=2.0) if name in ("cp2_fs", "ch2") else builtin(name)


# ======================================================================
# 1. homogeneous-model exactness
# ======================================================================

def test_criterion_1_homogeneous_model_exactness():
    t0 = time.perf_counter()

    # closed-form derivative vs independently transcribed display, all four
    # structures, scalar and triple parameters: literal float equality
    a, b, c = generator_form(0), generator_form(1), generator_form(2)
    ab, bb, cb = flag_conj(a), flag_conj(b), flag_conj(c)
    signs = {1: (1, 1, -1), 2: (1, 1, 1), 3: (1, -1, -1), 4: (1, -1, 1)}
    worst_display = 0.0
    for i in (1, 2, 3, 4):
        s1, s2, s3 = signs[i]
        for lam in (1.0, 0.77, SQ2, (1.1, 0.8, 1.7)):
            l1, l2, l3 = (1.0, 1.0, lam) if isinstance(lam, float) else lam
            coeff = s1 * l1 ** 2 + s2 * l2 ** 2 + s3 * l3 ** 2
            display = (wedge_all(ab, b, cb) - wedge_all(a, bb, c)) * (1j * coeff)
            worst_display = max(worst_display, (flag_dK(i, lam) - display).norm())
            # and the display agrees with the structural differential of K_i
            worst_display = max(
                worst_display, (flag_d(flag_K(i, lam)) - flag_dK(i, lam)).norm())
    assert worst_display == 0.0

    # dK_1(lambda) = 0 exactly when lambda^2 = 2
    assert flag_dK(1, SQ2).norm() == 0.0
    for lam in (1.0, 1.2, 1.5):
        assert flag_dK(1, lam).norm() > 0.1

    # triple-parameter zero loci: the three quadric conditions
    assert flag_dK(1, (1.0, 1.0, SQ2)).norm() == 0.0            # l1^2 + l2^2 = l3^2
    assert flag_dK(3, (math.sqrt(5.0), 1.0, 2.0)).norm() == 0.0  # l1^2 = l2^2 + l3^2
    assert flag_dK(4, (1.0, math.sqrt(10.0), 3.0)).norm() == 0.0  # l2^2 = l1^2 + l3^2
    for i, lam in ((1, (1.0, 1.0, 1.0)), (3, (1.0, 1.0, 2.0)), (4, (2.0, 1.0, 1.0))):
        assert flag_dK(i, lam).norm() > 0.1

    # structure 2: the (1,2)-part of dK_2 vanishes while dK_2 does not
    dk2 = flag_dK(2, (1.1, 0.8, 1.7))
    assert flag_bidegree_part(dk2, 2, 1).norm() == 0.0
    assert dk2.norm() > 1.0

    # balanced identity K_i ^ dK_i = 0, componentwise exact
    for i in (1, 2, 3, 4):
        for lam in (1.0, 1.7, (1.0, 2.0, 3.0)):
            assert flag_balanced(i, lam).norm() == 0.0

    # nearly-Kahler residuals of the distinguished structure
    r1, r2 = nearly_kahler_check()
    assert r1 < 1e-12 and r2 < 1e-12

    dt = time.perf_counter() - t0
    assert dt < 1.0
    print(f"[criterion 1] homogeneous-model exactness: PASS "
          f"(worst display residual {worst_display:.1e}, nk residuals {r1:.1e}/{r2:.1e}, "
          f"{dt:.2f}s < 1s)")


# ======================================================================
# 2. Fubini-Study pipeline
# ======================================================================

def test_criterion_2_fubini_study_pipeline():
    t0 = time.perf_counter()
    M = builtin("cp2_fs", c=2.0)

    worst_W = worst_ric0 = worst_s = 0.0
    for x in M.chart.interior_points(10, seed=0):
        fl = condition_flags(M, x)
        worst_W = max(worst_W, fl.self_dual_defect)
        worst_ric0 = max(worst_ric0, fl.einstein_defect)
        worst_s = max(worst_s, abs(fl.s - 12.0))
    assert worst_W < 1e-6
    assert worst_ric0 < 1e-6
    assert worst_s < 1e-5

    worst_root = worst_bal = worst_ch = 0.0
    for z in sample_twistor_points(M, 3, seed=0):
        for conn in ("lichnerowicz", "chern"):
            sw = CoframeSweep(M, conn, z)
            root, _ = lambda_zero_crossing(1, M, conn, z, sweep=sw)
            assert root is not None
            worst_root = max(worst_root, abs(root - 2.0))
            for i in (1, 2, 3, 4):
                for lam in (1.0, SQ2):
                    worst_bal = max(worst_bal, sw.K_wedge_dK(i, lam).norm())
            if conn == "chern":
                worst_ch = max(worst_ch, sw.dK(1, SQ2).norm())
    assert worst_root < 1e-5
    assert worst_bal < 1e-6
    assert worst_ch < 1e-6

    dt = time.perf_counter() - t0
    assert dt < 30.0
    print(f"[criterion 2] Fubini-Study pipeline: PASS "
          f"(|W-| {worst_W:.1e}, |Ric0| {worst_ric0:.1e}, |s-12| {worst_s:.1e}, "
          f"|root-2| {worst_root:.1e}, balanced {worst_bal:.1e}, "
          f"chern dK1(sqrt2) {worst_ch:.1e}, {dt:.1f}s < 30s)")


# ======================================================================
# 3. closed-form derivative vs finite-difference oracle
# ======================================================================

def test_criterion_3_formula_vs_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for name in BUILTIN_NAMES:
        M = _surface(name)
        for conn in ("lichnerowicz", "chern"):
            for z in sample_twistor_points(M, 5, seed=11):
                sw = CoframeSweep(M, conn, z)
                co = twistor_coframe(M, conn, z)
                for i in (1, 2, 3, 4):
                    for lam in (0.5, 1.0, SQ2):
                        worst = max(
                            worst, (dK_formula(i, lam, co) - sw.dK(i, lam)).norm())
    assert worst < 1e-4
    dt = time.perf_counter() - t0
    assert dt < 300.0
    print(f"[criterion 3] formula vs oracle: PASS "
          f"(worst |dK_formula - dK_oracle| {worst:.1e} over "
          f"{len(BUILTIN_NAMES)} surfaces x 2 connections x 5 points, {dt:.1f}s < 300s)")


# ======================================================================
# 4. integrability census by Nijenhuis oracle
# ======================================================================

def test_criterion_4_integrability_suite():
    t0 = time.perf_counter()
    points = {name: sample_twistor_points(_surface(name), 1, seed=21)[0]
              for name in BUILTIN_NAMES}

    worst_zero = 0.0
    least_obstructed = math.inf
    # J_1 integrable for the canonical connection on self-dual bases
    for name in SELF_DUAL_BUILTINS:
        v = nijenhuis_oracle(1, _surface(name), "lichnerowicz", points[name])
        worst_zero = max(worst_zero, v)
        assert v < 1e-4, (name, v)
    # J_2 never integrable, either connection, any base
    for name in BUILTIN_NAMES:
        for conn in ("lichnerowicz", "chern"):
            v = nijenhuis_oracle(2, _surface(name), conn, points[name])
            least_obstructed = min(least_obstructed, v)
            assert v > 0.1, (name, conn, v)
    # J_3, J_4 integrable for the Chern lift on the Hopf surface
    for i in (3, 4):
        v = nijenhuis_oracle(i, _surface("hopf"), "chern", points["hopf"])
        worst_zero = max(worst_zero, v)
        assert v < 1e-4, (i, v)
    # J_3 integrable for the canonical lift on Kahler bases
    for name in KAHLER_BUILTINS:
        v = nijenhuis_oracle(3, _surface(name), "lichnerowicz", points[name])
        worst_zero = max(worst_zero, v)
        assert v < 1e-4, (name, v)

    dt = time.perf_counter() - t0
    assert dt < 120.0
    print(f"[criterion 4] integrability suite: PASS "
          f"(worst integrable-case norm {worst_zero:.1e} < 1e-4, "
          f"least obstructed-case norm {least_obstructed:.2f} > 0.1, {dt:.1f}s < 120s)")


# ======================================================================
# 5. torsion-corrected curvature relations vs direct curvature
# ======================================================================

def test_criterion_5_curvature_relation_crosscheck():
    M = builtin("hopf")

    worst_ch = 0.0
    for x in M.chart.interior_points(10, seed=31):
        lc = levi_civita(M, x)
        aux = torsion_auxiliary(M, x)
        rel = chern_curvature_relation(lc, aux)
        direct = direct_curvature(M, x, CONNECTION_T["chern"]).real_tensor()
        worst_ch = max(worst_ch, float(np.max(np.abs(rel.array - direct))))
    assert worst_ch < 1e-5

    worst_bi = 0.0
    for x in M.chart.interior_points(10, seed=32):
        lc = levi_civita(M, x)
        aux = torsion_auxiliary(M, x)
        rel = bismut_curvature_relation(lc, aux)
        direct = direct_curvature(M, x, CONNECTION_T["bismut"]).real_tensor()
        worst_bi = max(worst_bi, float(np.max(np.abs(rel.array - direct))))
    assert worst_bi < 1e-4

    print(f"[criterion 5] curvature relation crosscheck: PASS "
          f"(chern {worst_ch:.1e} < 1e-5, bismut {worst_bi:.1e} < 1e-4, "
          f"10 points each)")


# ======================================================================
# 6. conformal behavior
# ======================================================================

def test_criterion_6_conformal_behavior():
    M = builtin("hopf")
    z = sample_twistor_points(M, 1, seed=9)[0]

    out_ch = conformal_compare(M, "0.1*x1", "chern", z)
    assert all(out_ch[i] < 1e-6 for i in (1, 2, 3, 4)), out_ch
    out_l = conformal_compare(M, "0.1*x1", "lichnerowicz", z)
    assert out_l[1] < 1e-6, out_l

    # constant rescaling leaves every structure and its opposite unchanged
    Ms = conformal_rescale(M, "0.15")
    y = z.chart_coordinates()
    worst_const = 0.0
    for t in (0.0, 1.0):
        B1 = coframe_rows(M, t, y)
        B2 = coframe_rows(Ms, t, y)
        for i in (1, 2, 3, 4):
            Ja, Jb = acs_endomorphism(i, B1), acs_endomorphism(i, B2)
            for sign in (1.0, -1.0):
                worst_const = max(
                    worst_const, float(np.max(np.abs(sign * Ja - sign * Jb))))
    assert worst_const < 1e-8

    print(f"[criterion 6] conformal behavior: PASS "
          f"(chern worst {max(out_ch.values()):.1e} < 1e-6, "
          f"canonical J1 {out_l[1]:.1e} < 1e-6, "
          f"constant-factor worst over 8 structures {worst_const:.1e} < 1e-8)")


# ======================================================================
# 7. one-parameter connection family
# ======================================================================

def test_criterion_7_connection_family():
    M = builtin("hopf")

    # connection data is affine in the family parameter
    x = M.chart.interior_points(1, seed=40)[0]
    h0 = gauduchon(M, x, 0.0)
    h1 = gauduchon(M, x, 1.0)
    worst_affine = 0.0
    for t in (-1.0, 0.5, 2.0):
        ht = gauduchon(M, x, t)
        blend_psi = (1 - t) * h0.psi_coord + t * h1.psi_coord
        blend_om = (1 - t) * h0.omega_tilde_coord + t * h1.omega_tilde_coord
        worst_affine = max(worst_affine,
                           float(np.max(np.abs(ht.psi_coord - blend_psi))),
                           float(np.max(np.abs(ht.omega_tilde_coord - blend_om))))
    assert worst_affine < 1e-9

    # every family member induces the same first twistor structure
    z = sample_twistor_points(M, 1, seed=41)[0]
    y = z.chart_coordinates()
    J_ref = acs_endomorphism(1, coframe_rows(M, -1.0, y))
    worst_J1 = 0.0
    for t in (0.0, 0.5, 1.0):
        Jt = acs_endomorphism(1, coframe_rows(M, t, y))
        worst_J1 = max(worst_J1, float(np.max(np.abs(Jt - J_ref))))
    assert worst_J1 < 1e-8

    print(f"[criterion 7] connection family: PASS "
          f"(affine defect {worst_affine:.1e} < 1e-9, "
          f"J1 spread over t in {{-1, 0, 0.5, 1}} {worst_J1:.1e} < 1e-8)")


# ======================================================================
# 8. property battery: algebra laws and curvature invariants
# ======================================================================

def _random_form(rng, dim, degree):
    terms = {}
    idx = list(range(dim))
    for _ in range(4):
        rng.shuffle(idx)
        key = tuple(idx[:degree])
        terms[key] = complex(rng.standard_normal(), rng.standard_normal())
    return ComplexForm(dim, degree, terms)


def test_criterion_8_property_battery():
    rng = np.random.default_rng(7)

    # exterior-algebra laws: graded commutativity, associativity, bilinearity
    worst_alg = 0.0
    for dim in (4, 6):
        for p in (1, 2):
            for q in (1, 2):
                a = _random_form(rng, dim, p)
                b = _random_form(rng, dim, q)
                c = _random_form(rng, dim, 1)
                sign = (-1.0) ** (p * q)
                worst_alg = max(worst_alg, (wedge(a, b) - wedge(b, a) * sign).norm())
                worst_alg = max(
                    worst_alg, (wedge(wedge(a, b), c) - wedge(a, wedge(b, c))).norm())
                worst_alg = max(
                    worst_alg,
                    (wedge(a + a * 0.5, b) - (wedge(a, b) + wedge(a, b) * 0.5)).norm())
    assert worst_alg < 1e-12

    # Hodge star on middle forms: involution and the half-space split
    worst_star = 0.0
    for _ in range(5):
        w = _random_form(rng, 4, 2)
        worst_star = max(worst_star, (hodge_star_4(hodge_star_4(w)) - w).norm())
        sd, asd = sd_asd_split(w)
        worst_star = max(worst_star, (sd + asd - w).norm())
        worst_star = max(worst_star, (hodge_star_4(sd) - sd).norm())
        worst_star = max(worst_star, (hodge_star_4(asd) + asd).norm())
    assert worst_star < 1e-12

    # curvature symmetries and the first Bianchi identity on every base
    worst_curv = 0.0
    for name in BUILTIN_NAMES:
        M = _surface(name)
        for x in M.chart.interior_points(3, seed=50):
            for v in levi_civita(M, x).defects().values():
                worst_curv = max(worst_curv, float(v))
    assert worst_curv < 1e-6

    # metric positivity and compatibility with the surface structure
    worst_herm = 0.0
    min_eig = math.inf
    for name in BUILTIN_NAMES:
        M = _surface(name)
        for x in M.chart.interior_points(5, seed=51):
            g = M.metric(x)
            J = M.J(x)
            worst_herm = max(worst_herm, float(np.max(np.abs(g - g.T))))
            worst_herm = max(worst_herm, float(np.max(np.abs(J @ J + np.eye(4)))))
            worst_herm = max(worst_herm, float(np.max(np.abs(J.T @ g @ J - g))))
            min_eig = min(min_eig, float(np.min(np.linalg.eigvalsh(g))))
    assert worst_herm < 1e-9
    assert min_eig > 0.0

    print(f"[criterion 8] property battery: PASS "
          f"(algebra {worst_alg:.1e} < 1e-12, star {worst_star:.1e} < 1e-12, "
          f"curvature {worst_curv:.1e} < 1e-6, compatibility {worst_herm:.1e} < 1e-9, "
          f"min metric eigenvalue {min_eig:.2f} > 0)")
