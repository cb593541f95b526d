"""Tests for the 6x6 curvature operator, its blocks, and the predicates."""

import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import twistorlab

from twistorlab.connection import levi_civita
from twistorlab.curvature_analysis import (
    ConditionFlags,
    _basis_arrays,
    condition_flags,
    curvature_operator,
    decompose,
    predicates,
    ricci_tensor,
    trace_free_ricci,
)
from twistorlab.exterior import SdAsdBasis
from twistorlab.manifold import builtin, parse_surface_spec

POINTS = {
    "flat_c2": np.array([0.1, -0.2, 0.3, 0.05]),
    "cp2_fs": np.array([0.21, -0.13, 0.08, 0.17]),
    "ch2": np.array([0.11, -0.07, 0.09, 0.13]),
    "hopf": np.array([0.62, 0.55, 0.71, 0.68]),
}


def make_operator(name, x=None, **params):
    M = builtin(name, **params)
    lc = levi_civita(M, POINTS[name] if x is None else x)
    return M, lc, curvature_operator(lc)


# ======================================================================
# operator construction
# ======================================================================

def test_flat_operator_is_zero():
    _, _, op = make_operator("flat_c2")
    assert np.max(np.abs(op.matrix)) < 1e-9


@pytest.mark.parametrize("name", ["cp2_fs", "ch2", "hopf"])
def test_operator_symmetry(name):
    M = builtin(name)
    for x in M.chart.interior_points(3, seed=17):
        op = curvature_operator(levi_civita(M, x))
        assert op.symmetry_defect() < 1e-8


def _reference_curvature_operator(levi):
    """The 6x6 operator entry by entry: sum_{i<j,k<l} A_ij R_ijkl B_kl."""
    arrs = _basis_arrays(SdAsdBasis.standard())
    return np.array([[0.25 * float(np.einsum("ij,ijkl,kl->", arrs[a], levi.R, arrs[b]))
                      for b in range(6)] for a in range(6)])


@pytest.mark.parametrize("name", ["flat_c2", "cp2_fs", "ch2", "hopf"])
def test_operator_matches_the_multi_operand_einsum(name):
    M = builtin(name)
    for x in M.chart.interior_points(3, seed=9):
        lc = levi_civita(M, x)
        ref = _reference_curvature_operator(lc)
        got = curvature_operator(lc).matrix
        assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


def test_cp2_operator_anchor_values():
    _, _, op = make_operator("cp2_fs", c=2.0)
    # fundamental-form direction: diagonal entry s/4 with s = 12
    assert op.matrix[0, 0] == pytest.approx(3.0, abs=1e-6)
    # remaining self-dual block vanishes, so does the whole ASD coupling
    assert np.linalg.norm(op.matrix[:3, :3] - np.diag([3.0, 0.0, 0.0])) < 1e-6
    assert np.linalg.norm(op.matrix[:3, 3:]) < 1e-6
    assert np.linalg.norm(op.matrix[3:, 3:] - np.eye(3)) < 1e-6


# ======================================================================
# decomposition
# ======================================================================

@pytest.mark.parametrize("name", ["cp2_fs", "ch2", "hopf"])
def test_reassembly_and_trace_free(name):
    M = builtin(name)
    for x in M.chart.interior_points(3, seed=23):
        op = curvature_operator(levi_civita(M, x))
        dec = decompose(op)
        assert abs(np.trace(dec.Wplus)) < 1e-7
        assert abs(np.trace(dec.Wminus)) < 1e-7
        assert np.max(np.abs(dec.reassemble() - op.matrix)) < 1e-8


def test_cp2_weyl_blocks():
    _, _, op = make_operator("cp2_fs", c=2.0)
    dec = decompose(op)
    assert dec.s == pytest.approx(12.0, abs=1e-5)
    assert dec.sstar == pytest.approx(12.0, abs=1e-5)
    assert np.linalg.norm(dec.Wminus) < 1e-6
    assert np.linalg.norm(dec.Ric0) < 1e-6
    assert np.linalg.eigvalsh(dec.Wplus) == pytest.approx([-1.0, -1.0, 2.0], abs=1e-6)


def test_ch2_weyl_blocks():
    _, _, op = make_operator("ch2", c=2.0)
    dec = decompose(op)
    assert dec.s == pytest.approx(-12.0, abs=1e-5)
    assert dec.sstar == pytest.approx(-12.0, abs=1e-5)
    assert np.linalg.norm(dec.Wminus) < 1e-6
    assert np.linalg.eigvalsh(dec.Wplus) == pytest.approx([-2.0, 1.0, 1.0], abs=1e-6)


def test_hopf_is_conformally_flat_with_cylinder_scalar():
    _, _, op = make_operator("hopf")
    dec = decompose(op)
    assert np.linalg.norm(dec.Wplus) < 1e-8
    assert np.linalg.norm(dec.Wminus) < 1e-8
    assert dec.s == pytest.approx(6.0, abs=1e-6)


def test_einstein_defect_block_vs_tensor():
    # trace-free Ricci tensor norm = 2 x off-diagonal block norm (fixed constant)
    _, lc, op = make_operator("hopf")
    dec = decompose(op)
    r0 = trace_free_ricci(ricci_tensor(lc))
    assert np.linalg.norm(r0) == pytest.approx(2.0 * np.linalg.norm(dec.Ric0), abs=1e-7)
    assert np.linalg.norm(dec.Ric0) > 0.1  # hopf really is non-Einstein


@pytest.mark.parametrize("name,diag", [("cp2_fs", 3.0), ("ch2", -3.0)])
def test_ricci_tensor_einstein_constant(name, diag):
    _, lc, _ = make_operator(name, c=2.0)
    ric = ricci_tensor(lc)
    assert np.max(np.abs(ric - diag * np.eye(4))) < 1e-6


def test_hopf_ricci_eigenvalues():
    # locally a round-cylinder metric: Ricci eigenvalues (2, 2, 2, 0)
    _, lc, _ = make_operator("hopf")
    assert np.linalg.eigvalsh(ricci_tensor(lc)) == pytest.approx([0.0, 2.0, 2.0, 2.0], abs=1e-6)


# ======================================================================
# predicates
# ======================================================================

def test_flat_flags_all_true():
    M = builtin("flat_c2")
    fl = condition_flags(M, POINTS["flat_c2"])
    assert fl.self_dual and fl.anti_self_dual and fl.einstein and fl.kahler
    assert fl.ricci_J_invariant
    assert fl.s == pytest.approx(0.0, abs=1e-8)


def test_cp2_flags():
    M = builtin("cp2_fs", c=2.0)
    fl = condition_flags(M, POINTS["cp2_fs"])
    assert fl.self_dual and fl.self_dual_defect < 1e-7
    assert not fl.anti_self_dual
    assert fl.einstein and fl.einstein_defect < 1e-6
    assert fl.kahler and fl.kahler_defect < 1e-6
    assert fl.ricci_J_invariant
    assert fl.s == pytest.approx(12.0, abs=1e-5)


def test_ch2_flags():
    M = builtin("ch2", c=2.0)
    fl = condition_flags(M, POINTS["ch2"])
    assert fl.self_dual and fl.einstein and fl.kahler
    assert fl.s == pytest.approx(-12.0, abs=1e-5)


def test_hopf_flags_report_defects():
    M = builtin("hopf")
    fl = condition_flags(M, POINTS["hopf"])
    assert not fl.kahler and fl.kahler_defect > 0.1
    assert not fl.einstein and fl.einstein_defect > 0.5
    assert not fl.ricci_J_invariant and fl.ricci_J_invariant_defect > 0.5
    # the defects of the remaining predicates are reported as plain numbers
    assert fl.self_dual_defect >= 0.0 and fl.anti_self_dual_defect >= 0.0
    d = fl.as_dict()
    assert set(d["einstein"].keys()) == {"holds", "defect"}
    assert d["scalar_curvature"] == pytest.approx(6.0, abs=1e-6)


def test_kahler_star_scalar_matches_scalar():
    for name in ("flat_c2", "cp2_fs", "ch2"):
        M = builtin(name)
        fl = condition_flags(M, POINTS[name])
        assert fl.sstar == pytest.approx(fl.s, abs=1e-6)


def test_predicate_tolerance_is_explicit():
    M = builtin("hopf")
    x = POINTS["hopf"]
    strict = condition_flags(M, x, tol=1e-12)
    loose = condition_flags(M, x, tol=1e3)
    assert not strict.kahler and loose.kahler
    assert strict.kahler_defect == pytest.approx(loose.kahler_defect, rel=1e-12)


def test_constant_rescaling_conformal_smoke():
    # cp2_fs(1) is the cp2_fs(2) metric scaled by k^2 = 2: s halves, flags persist
    M1 = builtin("cp2_fs", c=1.0)
    M2 = builtin("cp2_fs", c=2.0)
    x = np.array([0.15, 0.1, -0.2, 0.12])
    assert np.max(np.abs(M1.metric(x) - 2.0 * M2.metric(x))) < 1e-12
    f1 = condition_flags(M1, x)
    f2 = condition_flags(M2, x)
    assert f1.s == pytest.approx(f2.s / 2.0, abs=1e-6)
    assert f1.self_dual and f2.self_dual
    assert f1.einstein and f2.einstein


def test_predicates_from_parts():
    M = builtin("cp2_fs", c=2.0)
    lc = levi_civita(M, POINTS["cp2_fs"])
    dec = decompose(curvature_operator(lc))
    fl = predicates(dec, ricci_tensor(lc), kahler_defect=0.0, tol=1e-6)
    assert isinstance(fl, ConditionFlags)
    assert fl.kahler and fl.einstein and fl.self_dual


# passes the 16-point validation, but its metric is infinite on x1 = 0
NON_FINITE_SPEC = "coords x1 x2 x3 x4\ng 1 1 = 1/x1^2\ng 2 2 = 1/x1^2\nJ standard\n"
NON_FINITE_POINT = [0.0, 0.3, 0.1, 0.2]


@pytest.mark.parametrize("rows,named", [([0], 0), ([1, 0], 0), ([0, 2], 0), ([1, 2, 0], 2), ([2, 0], 2)])
def test_a_non_finite_metric_is_a_value_error_naming_the_first_such_point(rows, named):
    M = parse_surface_spec(NON_FINITE_SPEC)
    pts = np.array([NON_FINITE_POINT, [0.2, 0.3, 0.1, 0.2], [0.0, -0.1, 0.1, 0.2]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        x = pts[rows] if len(rows) > 1 else pts[rows[0]]
        with pytest.raises(ValueError, match=re.escape(f"metric not finite at point {pts[named].tolist()}")):
            condition_flags(M, x)
        flags = condition_flags(M, pts[1])
    assert np.isfinite(flags.s) and np.isfinite(flags.kahler_defect)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_a_non_finite_metric_is_refused_in_a_fresh_interpreter(flags):
    src = os.path.dirname(os.path.dirname(twistorlab.__file__))
    code = ("import warnings; warnings.simplefilter('ignore')\n"
            "from twistorlab.curvature_analysis import condition_flags\n"
            "from twistorlab.manifold import parse_surface_spec\n"
            f"M = parse_surface_spec({NON_FINITE_SPEC!r})\n"
            "try:\n"
            f"    print(condition_flags(M, {NON_FINITE_POINT!r}))\n"
            "except ValueError as exc:\n"
            "    print('ValueError:', exc)\n")
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True,
                          timeout=300, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0
    assert proc.stdout == f"ValueError: metric not finite at point {NON_FINITE_POINT}\n"
