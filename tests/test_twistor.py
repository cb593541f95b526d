"""Tests for the fiber-bundle coframe machinery: the family of metrics and
almost-complex structures, the closed-form derivative displays, and the
finite-difference oracles that back them."""

import dataclasses
import functools
import itertools
import json
import math
import os
import re
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistorlab import connection as cn
from twistorlab import manifold as mf
from twistorlab import twistor as tw
from twistorlab.curvature_analysis import (DEFAULT_PREDICATE_TOL, ConditionFlags, _basis_arrays,
                                           condition_flags)
from twistorlab.exterior import ComplexForm, SdAsdBasis, wedge, wedge_all
from twistorlab.manifold import (J_STANDARD, ChartSpec, HermitianSurface, builtin,
                                 coordinate_fundamental_matrix, parse_surface_spec, push_slots,
                                 stack_field)

BASE_POINTS = {
    "flat_c2": np.array([0.1, -0.2, 0.3, 0.05]),
    "cp2_fs": np.array([0.21, -0.13, 0.08, 0.17]),
    "ch2": np.array([0.11, -0.07, 0.09, 0.13]),
    "hopf": np.array([0.62, 0.55, 0.71, 0.68]),
    "sphere_plane": np.array([0.1, -0.2, 0.15, 0.05]),
}
ZETA = 0.3 + 0.2j
SQ2 = math.sqrt(2.0)

# a Kahler product (round sphere times flat plane) that is neither self-dual
# nor anti-self-dual; exercises the code paths the symmetric examples miss
_PRODUCT_TEXT = (
    "coords x1 x2 x3 x4\n"
    + "".join(f"domain x{k} -1 1\n" for k in range(1, 5))
    + "g 1 1 = 4/(1 + x1^2 + x2^2)^2\n"
    + "g 2 2 = 4/(1 + x1^2 + x2^2)^2\n"
    + "g 3 3 = 1\n"
    + "g 4 4 = 1\n"
    + "J standard\n"
)


@functools.lru_cache(maxsize=None)
def surface(name):
    if name == "sphere_plane":
        return parse_surface_spec(_PRODUCT_TEXT, name="sphere_plane")
    return builtin(name, c=2.0) if name == "cp2_fs" else builtin(name)


def zpt(name, zeta=ZETA):
    return tw.TwistorPoint.from_zeta(BASE_POINTS[name], zeta)


@functools.lru_cache(maxsize=None)
def coframe(name, conn):
    return tw.twistor_coframe(surface(name), conn, zpt(name))


@functools.lru_cache(maxsize=None)
def sweep(name, conn):
    return tw.CoframeSweep(surface(name), conn, zpt(name))


# ======================================================================
# points and charts
# ======================================================================

def test_point_normalization():
    p = tw.TwistorPoint(BASE_POINTS["flat_c2"], np.array([-2.0j, 1.0 + 1.0j]))
    assert np.linalg.norm(p.line) == pytest.approx(1.0, abs=1e-12)
    assert abs(p.line[0].imag) < 1e-12 and p.line[0].real > 0
    q = tw.TwistorPoint(p.x, p.line)     # renormalising is idempotent
    assert np.allclose(p.line, q.line, atol=1e-14)


def test_point_zeta_round_trip():
    p = tw.TwistorPoint.from_zeta(BASE_POINTS["hopf"], ZETA)
    assert p.zeta == pytest.approx(ZETA, abs=1e-14)
    y = p.chart_coordinates()
    assert y.shape == (6,)
    assert np.allclose(y[:4], BASE_POINTS["hopf"])
    assert y[4] == pytest.approx(ZETA.real) and y[5] == pytest.approx(ZETA.imag)


def test_point_errors():
    with pytest.raises(ValueError, match="nonzero"):
        tw.TwistorPoint(BASE_POINTS["flat_c2"], np.array([0.0, 0.0]))
    p = tw.TwistorPoint(BASE_POINTS["flat_c2"], np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="fiber coordinate out of chart"):
        p.zeta


def test_chart_membership():
    chart = tw.TwistorChart(surface("hopf"))
    assert chart.contains(zpt("hopf"))
    assert not chart.contains(tw.TwistorPoint.from_zeta(BASE_POINTS["flat_c2"], ZETA))
    assert not chart.contains(tw.TwistorPoint.from_zeta(BASE_POINTS["hopf"], 5.0))
    assert chart.coords == ("x1", "x2", "x3", "x4", "zeta_re", "zeta_im")


def test_sample_points_deterministic_and_interior():
    pts = tw.sample_twistor_points(surface("hopf"), 5, seed=11)
    again = tw.sample_twistor_points(surface("hopf"), 5, seed=11)
    chart = tw.TwistorChart(surface("hopf"))
    assert all(chart.contains(p) for p in pts)
    assert all(np.allclose(a.x, b.x) and abs(a.zeta - b.zeta) < 1e-15
               for a, b in zip(pts, again))
    other = tw.sample_twistor_points(surface("hopf"), 5, seed=12)
    assert any(not np.allclose(a.x, b.x) for a, b in zip(pts, other))


def test_normalize_connection():
    assert tw.normalize_connection("lichnerowicz") == (0.0, "lichnerowicz")
    assert tw.normalize_connection("chern") == (1.0, "chern")
    assert tw.normalize_connection("bismut") == (-1.0, "bismut")
    assert tw.normalize_connection(1.0) == (1.0, "chern")
    t, label = tw.normalize_connection(0.37)
    assert t == pytest.approx(0.37) and label == "gauduchon(0.37)"
    with pytest.raises(ValueError, match="unknown connection"):
        tw.normalize_connection("weyl")


def test_lambda_positivity_floor():
    co = coframe("flat_c2", "lichnerowicz")
    with pytest.raises(ValueError, match="positivity floor"):
        tw.K_form(1, 1e-5, co)
    with pytest.raises(ValueError, match="positivity floor"):
        tw.K_form(1, (1.0, 1e-9, 1.0), co)
    with pytest.raises(ValueError, match="positivity floor"):
        tw.dK_formula(1, -0.5, co)


# ======================================================================
# coframe construction
# ======================================================================

def test_flat_coframe_fiber_entry():
    z = tw.TwistorPoint.from_zeta(BASE_POINTS["flat_c2"], 0.0)
    co = tw.twistor_coframe(surface("flat_c2"), "lichnerowicz", z)
    assert np.max(np.abs(co.B[2, :4])) < 1e-12      # no horizontal part at the origin
    assert co.B[2, 4] == pytest.approx(-1.0) and co.B[2, 5] == pytest.approx(1j)
    co2 = coframe("flat_c2", "lichnerowicz")
    N2 = 1.0 + abs(ZETA) ** 2
    assert co2.B[2, 4] == pytest.approx(-1.0 / N2) and co2.B[2, 5] == pytest.approx(1j / N2)


def test_gram_determinant():
    # the fiber row carries 1/N^2, so the flat determinant is 2/N^4
    N2 = 1.0 + abs(ZETA) ** 2
    assert abs(coframe("flat_c2", "lichnerowicz").gram_determinant()) == pytest.approx(2.0 / N2 ** 2, abs=1e-9)
    for name in ("cp2_fs", "ch2", "hopf"):
        for conn in ("lichnerowicz", "chern"):
            assert abs(coframe(name, conn).gram_determinant()) > 1e-8


def test_kahler_coframe_connection_independent():
    # with vanishing torsion the rotated coframes of the two connections agree
    assert np.max(np.abs(coframe("cp2_fs", "lichnerowicz").B
                         - coframe("cp2_fs", "chern").B)) < 1e-9


def test_coframe_rows_match_object():
    co = coframe("hopf", "chern")
    B = tw.coframe_rows(surface("hopf"), 1.0, zpt("hopf").chart_coordinates())
    assert np.max(np.abs(co.B - B)) < 1e-12
    assert co.label == "chern" and co.t == 1.0


def test_coframe_rows_and_levi_civita_forms_come_from_one_evaluation(monkeypatch):
    # B and the Levi-Civita forms share one D^t evaluation at the base point
    from twistorlab import connection as cn
    calls = []
    real = cn._torsion_forms

    def counting(M, x, t, E):
        calls.append(np.shape(x))
        return real(M, x, t, E)
    monkeypatch.setattr(cn, "_torsion_forms", counting)
    M, z = builtin("hopf"), zpt("hopf")
    co = tw.twistor_coframe(M, "lichnerowicz", z)
    assert calls == [(1, 4)]
    assert np.array_equal(co.B, tw.coframe_rows(builtin("hopf"), 0.0, z.chart_coordinates()))


def test_zeta_out_of_chart_raises():
    z = tw.TwistorPoint.from_zeta(BASE_POINTS["cp2_fs"], 5.0)
    with pytest.raises(ValueError, match="fiber coordinate out of chart"):
        tw.twistor_coframe(surface("cp2_fs"), "chern", z)


def test_coframe_torsion_difference():
    # the third coframe entries of the two connections differ by the rotated
    # torsion components against the horizontal (1,0)-rows
    co_l = coframe("hopf", "lichnerowicz")
    co_c = coframe("hopf", "chern")
    T1, T2 = co_c.T_components
    expected = -0.5 * (T1 * co_c.B[0, :4] + np.conj(T2) * np.conj(co_c.B[1, :4]))
    assert np.max(np.abs((co_l.B[2, :4] - co_c.B[2, :4]) - expected)) < 1e-9
    assert np.max(np.abs(co_l.B[2, 4:] - co_c.B[2, 4:])) < 1e-12


# ======================================================================
# almost-complex structures
# ======================================================================

@pytest.mark.parametrize("name,conn", [
    ("flat_c2", "lichnerowicz"), ("cp2_fs", "chern"),
    ("ch2", "lichnerowicz"), ("hopf", "chern"), ("hopf", "lichnerowicz"),
])
def test_acs_squares_to_minus_identity(name, conn):
    co = coframe(name, conn)
    for i in (1, 2, 3, 4):
        J = tw.acs_endomorphism(i, co)
        assert J.dtype == float
        assert np.max(np.abs(J @ J + np.eye(6))) < 1e-8


def test_acs_metric_orthogonal():
    co = coframe("hopf", "chern")
    G = tw.h_lambda_matrix(co, 1.2)
    assert np.min(np.linalg.eigvalsh(G)) > 0
    for i in (1, 2, 3, 4):
        J = tw.acs_endomorphism(i, co)
        assert np.max(np.abs(J.T @ G @ J - G)) < 1e-12


def test_first_structure_connection_independent():
    y = zpt("hopf").chart_coordinates()
    M = surface("hopf")
    J_ref = tw.acs_endomorphism(1, tw.coframe_rows(M, 0.0, y))
    for t in (1.0, -1.0, 0.37):
        J = tw.acs_endomorphism(1, tw.coframe_rows(M, t, y))
        assert np.max(np.abs(J - J_ref)) < 1e-8


@pytest.mark.parametrize("name,conn,i,integrable", [
    ("flat_c2", "lichnerowicz", 1, True),
    ("flat_c2", "lichnerowicz", 2, False),
    ("flat_c2", "lichnerowicz", 3, True),
    ("cp2_fs", "lichnerowicz", 1, True),
    ("cp2_fs", "lichnerowicz", 2, False),
    ("cp2_fs", "lichnerowicz", 3, True),
    ("ch2", "lichnerowicz", 1, True),
    ("ch2", "lichnerowicz", 3, True),
    ("hopf", "chern", 1, True),
    ("hopf", "chern", 3, True),
    ("hopf", "chern", 4, True),
    ("hopf", "lichnerowicz", 3, False),
])
def test_nijenhuis_oracle(name, conn, i, integrable):
    v = tw.nijenhuis_oracle(i, surface(name), conn, zpt(name))
    if integrable:
        assert v < 1e-6
    else:
        assert v > 0.1


def _nijenhuis_reference(i, M, conn, z):
    """The Nijenhuis defect with the J_i field itself differentiated by FD."""
    t, _ = tw.normalize_connection(conn)
    y0 = z.chart_coordinates()
    field = lambda y: tw.acs_endomorphism(i, tw.coframe_rows(M, t, y))  # noqa: E731
    J = field(y0)
    dJ = np.stack([M.backend.partial(field, y0, p) for p in range(6)])
    worst = 0.0
    for a in range(6):
        for b in range(a + 1, 6):
            comm = np.einsum("p,pm->m", J[:, a], dJ[:, :, b]) - np.einsum("p,pm->m", J[:, b], dJ[:, :, a])
            corr = J @ dJ[b][:, a] - J @ dJ[a][:, b]
            worst = max(worst, float(np.linalg.norm(comm + corr)))
    return worst


@pytest.mark.parametrize("name", ["flat_c2", "cp2_fs", "ch2", "hopf"])
@pytest.mark.parametrize("conn", ["lichnerowicz", "chern"])
def test_sweep_nijenhuis_matches_J_field_reference(name, conn):
    for i in (1, 2, 3, 4):
        ref = _nijenhuis_reference(i, surface(name), conn, zpt(name))
        assert abs(sweep(name, conn).nijenhuis(i) - ref) <= 1e-8 * max(1.0, ref)


@pytest.mark.parametrize("name,conn", [("cp2_fs", "lichnerowicz"), ("hopf", "chern")])
def test_sweep_partials_match_the_coframe_field(name, conn):
    M, y0 = surface(name), zpt(name).chart_coordinates()
    t, _ = tw.normalize_connection(conn)
    field = lambda y: tw.coframe_rows(M, t, y)  # noqa: E731
    assert np.array_equal(sweep(name, conn).B0, field(y0))
    for p in range(6):
        assert np.array_equal(sweep(name, conn).dB[p], M.backend.partial(field, y0, p))


def counting_surface(name):
    """A fresh copy of a built-in surface whose metric callable records the
    bytes of every point that reaches it."""
    base = surface(name)
    seen = []

    def metric(x):
        seen.append(np.asarray(x, dtype=float).tobytes())
        return base._metric(x)

    M = HermitianSurface(base.chart, metric, base.J, name=base.name,
                         params=base.params, backend=base.backend)
    return M, seen


def test_one_coframe_sweep_per_bundle_point(monkeypatch):
    pts = tw.sample_twistor_points(surface("cp2_fs"), 2, seed=0)
    report = lambda M: tw.condition_report(M, "lichnerowicz", [1.0, SQ2], pts)  # noqa: E731

    # (a) the report builds one stacked sweep that holds each bundle point once
    built = []
    build = tw.CoframeSweep._sweep

    def counted(self, M, conn, y0):
        built.append(np.array(y0))
        build(self, M, conn, y0)

    with monkeypatch.context() as mp:
        mp.setattr(tw.CoframeSweep, "_sweep", counted)
        report(counting_surface("cp2_fs")[0])
    assert len(built) == 1
    assert np.array_equal(built[0], [z.chart_coordinates() for z in pts])

    # (b) no point reaches the metric callable twice, whichever layer asks
    M, seen = counting_surface("cp2_fs")
    tw.coframe_rows(M, 0.0, pts[0].chart_coordinates())
    for z in pts:
        tw.CoframeSweep(M, "lichnerowicz", z)
        tw.nijenhuis_oracle(1, M, "lichnerowicz", z)
        tw.twistor_coframe(M, "lichnerowicz", z)
    report(M)
    assert len(seen) == len(set(seen))

    # (c) the report evaluates exactly what its parts evaluate together
    M_parts, parts = counting_surface("cp2_fs")
    parts.clear()
    for z in pts:
        tw.CoframeSweep(M_parts, "lichnerowicz", z)
        tw.twistor_coframe(M_parts, "lichnerowicz", z)
        condition_flags(M_parts, z.x)
    M_report, whole = counting_surface("cp2_fs")
    whole.clear()
    report(M_report)
    assert len(whole) == len(parts) > 0


def test_sweep_evaluates_its_stencils_as_stacks():
    M = builtin("cp2_fs", c=2.0)
    calls = []
    compiled = M._metric
    M._metric = stack_field(lambda x: (calls.append(np.asarray(x).reshape(-1, 4)), compiled(x))[1])
    tw.CoframeSweep(M, "lichnerowicz", tw.sample_twistor_points(M, 1, seed=0)[0])
    # the 17 base points, then the distinct points of every stencil under them
    assert [len(c) for c in calls] == [17, 112]
    assert len({p.tobytes() for c in calls for p in c}) == 129


def test_sweep_checks_its_base_point_before_its_stencil():
    # B is degenerate at the base point (x1 = 0), and a stencil point lies
    # too close to the boundary; a point-by-point sweep meets the first
    M = parse_surface_spec("coords x1 x2 x3 x4\ng 1 1 = 1/x1^2\ng 2 2 = 1/x1^2\nJ standard\n")
    z = tw.TwistorPoint.from_zeta([0.0, 1.0 - 1.5 * M.backend.reach(), 0.1, 0.2], 0.2)
    with np.errstate(all="ignore"), pytest.raises(tw.DegenerateCoframeError, match="Gram determinant"):
        tw.CoframeSweep(M, "lichnerowicz", z)


STACK_POINTS = {name: tw.sample_twistor_points(surface(name), 5, seed=11) for name in
                ("flat_c2", "cp2_fs", "ch2", "hopf")}


@pytest.mark.parametrize("name", ["flat_c2", "cp2_fs", "ch2", "hopf"])
@pytest.mark.parametrize("conn", ["lichnerowicz", "chern", "bismut"])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_stacked_sweep_has_the_bits_of_one_point_sweeps(name, conn, n):
    # each on a fresh surface, so neither reads what the other stored
    fresh = lambda: builtin(name, c=2.0) if name == "cp2_fs" else builtin(name)  # noqa: E731
    pts = STACK_POINTS[name][:n]
    stacked = tw.CoframeSweep.stack(fresh(), conn, pts)
    M = fresh()
    singles = [tw.CoframeSweep(M, conn, z) for z in pts]
    weights = tw.lambda_weights([(i, lam) for i in (1, 2, 3, 4) for lam in (0.5, SQ2, 2.5, (1.3, 0.7, 2.1))])
    rows = stacked.defect_rows(weights)
    crossings = {i: tw.lambda_zero_crossing(i, M, conn, pts, sweep=stacked) for i in (1, 2, 3, 4)}
    nij = {i: stacked.nijenhuis(i) for i in (1, 2, 3, 4)}
    assert stacked.y0.shape == (n, 6) and all(v.shape == (n,) for v in nij.values())
    for k, sw in enumerate(singles):
        for attr in ("y0", "B0", "dB", "W_coeffs", "dW_coeffs", "W_wedge_dW"):
            assert np.array_equal(getattr(stacked, attr)[k], getattr(sw, attr)), attr
        for got, want in zip(rows, sw.defect_rows(weights)):
            assert np.array_equal(got[k], want)
        for i in (1, 2, 3, 4):
            assert nij[i][k] == sw.nijenhuis(i)
            assert crossings[i][k] == tw.lambda_zero_crossing(i, M, conn, pts[k], sweep=sw)


_DEGENERATE_AT_X1_0 = "coords x1 x2 x3 x4\ng 1 1 = 1/x1^2\ng 2 2 = 1/x1^2\nJ standard\n"


@pytest.mark.parametrize("second,error", [
    # B degenerate at the point, its stencil inside the domain
    ([0.0, 0.3, 0.1, 0.2], tw.DegenerateCoframeError),
    # B degenerate at the point, a stencil point too close to the boundary
    ([0.0, 0.997, 0.1, 0.2], tw.DegenerateCoframeError),
    # the point itself too close to the boundary for the base FD stencils
    ([0.0, 0.9995, 0.1, 0.2], ValueError),
])
def test_stacked_sweep_raises_the_error_the_point_by_point_loop_meets_first(second, error):
    pts = [tw.TwistorPoint.from_zeta([0.5, 0.2, 0.1, 0.2], 0.2),
           tw.TwistorPoint.from_zeta(second, 0.2), tw.TwistorPoint.from_zeta([0.0, 0.5, 0.1, 0.2], 0.3)]
    with np.errstate(all="ignore"):
        with pytest.raises(Exception) as per_point:
            M = parse_surface_spec(_DEGENERATE_AT_X1_0)
            for z in pts:
                tw.CoframeSweep(M, "lichnerowicz", z)
        with pytest.raises(Exception) as stacked:
            tw.CoframeSweep.stack(parse_surface_spec(_DEGENERATE_AT_X1_0), "lichnerowicz", pts)
    assert per_point.type is stacked.type is error
    assert str(stacked.value) == str(per_point.value)
    assert str(second)[:-1] in str(stacked.value)      # the second point is named


def test_an_empty_stack_is_refused():
    with pytest.raises(ValueError, match="at least one bundle point"):
        tw.CoframeSweep.stack(surface("flat_c2"), "lichnerowicz", [])


def test_ddbar_oracle_reaches_the_metric_less_often_than_per_point_sweeps():
    # the outer pass sweeps its 24 stencil points as one stack; with one
    # sweep per point, memo clears let 1 370 points reach the metric callable
    M, seen = counting_surface("cp2_fs")
    tw.ddbar_oracle(3, 1.1, M, "lichnerowicz", zpt("cp2_fs"))
    assert len(seen) <= 1370
    assert len(seen) == len(set(seen))


def test_sweep_builds_each_building_block_once(monkeypatch):
    calls = [0]
    d_rows = tw.d_rows

    def counted(*args):
        calls[0] += 1
        return d_rows(*args)

    monkeypatch.setattr(tw, "d_rows", counted)
    sw = tw.CoframeSweep(surface("hopf"), "chern", zpt("hopf"))
    for i in (1, 2, 3, 4):
        for lam in (0.5, 1.0, (1.3, 0.7, 2.1)):
            sw.K(i, lam)
            sw.dK(i, lam)
            sw.K_wedge_dK(i, lam)
        tw.lambda_zero_crossing(i, sw.M, "chern", zpt("hopf"), sweep=sw)
    assert calls[0] == 1              # one d for the partials of all three blocks


@pytest.mark.parametrize("name,conn", [("cp2_fs", "lichnerowicz"), ("hopf", "chern")])
def test_defect_rows_have_the_bits_of_the_per_row_forms(name, conn):
    sw = tw.CoframeSweep(surface(name), conn, zpt(name))
    pairs = [(i, lam) for i in (1, 2, 3, 4) for lam in (0.5, 1.0, SQ2, 2.5, (1.3, 0.7, 2.1))]
    dK, KdK = sw.defect_rows(tw.lambda_weights(pairs))
    assert dK.shape == (len(pairs), 20) and KdK.shape == (len(pairs), 6)
    for n, (i, lam) in enumerate(pairs):
        assert np.array_equal(dK[n], sw.dK(i, lam).vec)
        assert np.array_equal(KdK[n], sw.K_wedge_dK(i, lam).vec)
        # the wedge of the whole forms holds W_3 ^ dW_3 too: roundoff at these lambda
        assert np.max(np.abs(wedge(sw.K(i, lam), sw.dK(i, lam)).vec - KdK[n])) < 1e-13
    for a in range(3):
        for b in range(3):
            block = wedge(ComplexForm(6, 2, sw.W_coeffs[a]), ComplexForm(6, 3, sw.dW_coeffs[b]))
            assert np.array_equal(sw.W_wedge_dW[a, b], np.zeros(6) if a == b == 2 else block.vec)


def test_balanced_verdict_and_formula_residual_hold_at_large_lambda():
    # the balanced defect of J_1 on cp2_fs is FD error; the left-out block
    # W_3 ^ dW_3 made it grow as lambda^4 and fail at lambda = 3000.  What
    # remains grows as lambda^2: the FD error of the cross blocks, which
    # reaches verify's 1e-4 near lambda = 1300.
    M = surface("cp2_fs")
    points = tw.sample_twistor_points(M, 2, seed=0)
    rep = tw.condition_report(M, "lichnerowicz", [1000.0, 3000.0], points, tol=1e-3)
    rows = {r.lam: r for r in rep.rows if r.i == 1}
    assert rows[1000.0].balanced and rows[3000.0].balanced
    assert rows[1000.0].formula_residual < 1e-4
    assert rows[3000.0].formula_residual < 1e-4 * 3.0 ** 2


@pytest.mark.parametrize("name,conn", [("cp2_fs", "lichnerowicz"), ("hopf", "chern")])
def test_sweep_results_do_not_alias_the_shared_forms(name, conn):
    sw = tw.CoframeSweep(surface(name), conn, zpt(name))
    first = sw.dK(3, SQ2)
    for shared in (first.vec, sw.K(3, SQ2).vec, sw.W_coeffs, sw.dW_coeffs):
        with pytest.raises(ValueError):
            shared[:] = 0                     # a caller scribbling on its result
    first.terms.clear()                       # a fresh dict on every read
    assert first.terms
    fresh = tw.CoframeSweep(surface(name), conn, zpt(name))
    for i in (1, 2, 3, 4):
        for lam in (0.5, SQ2, (1.3, 0.7, 2.1)):
            assert sw.dK(i, lam).terms == fresh.dK(i, lam).terms
            assert sw.K(i, lam).terms == fresh.K(i, lam).terms
    assert sw.dK(3, SQ2).terms == fresh.dK(3, SQ2).terms != {}


@pytest.mark.parametrize("name,conn", [("cp2_fs", "lichnerowicz"), ("hopf", "chern")])
def test_formula_results_do_not_alias_the_shared_forms(name, conn):
    co = tw.twistor_coframe(surface(name), conn, zpt(name))
    results = [tw.dK_formula(3, SQ2, co), tw.K_form(3, SQ2, co),
               tw.balanced_defect_formula(3, SQ2, co), tw.balanced_defect_formula(1, SQ2, co)]
    shared = [f.vec for f in results]
    for vec in shared + [co.W_coeffs, co.dW_coeffs, co.balanced_brackets]:
        with pytest.raises(ValueError):
            vec[:] = 0                        # a caller scribbling on its result
    fresh = tw.twistor_coframe(surface(name), conn, zpt(name))
    for i in (1, 2, 3, 4):
        for lam in (0.5, SQ2, (1.3, 0.7, 2.1)):
            assert tw.dK_formula(i, lam, co).terms == tw.dK_formula(i, lam, fresh).terms
            assert tw.K_form(i, lam, co).terms == tw.K_form(i, lam, fresh).terms
        for lam in (0.5, SQ2):
            assert (tw.balanced_defect_formula(i, lam, co).terms
                    == tw.balanced_defect_formula(i, lam, fresh).terms)
    assert co.dW_coeffs is co.dW_coeffs and co.W_coeffs is co.W_coeffs
    assert co.balanced_brackets is co.balanced_brackets
    assert tw.dK_formula(3, SQ2, co).terms == tw.dK_formula(3, SQ2, fresh).terms != {}


@pytest.mark.parametrize("name", ["flat_c2", "cp2_fs", "ch2", "hopf"])
@pytest.mark.parametrize("t", [0.0, 1.0])
def test_coframe_rows_of_a_stack_are_those_of_its_points(name, t):
    pts = tw.sample_twistor_points(surface(name), 4, seed=9)
    ys = np.stack([z.chart_coordinates() for z in pts] + [pts[1].chart_coordinates()])
    fresh = lambda: builtin(name, c=2.0) if name == "cp2_fs" else builtin(name)  # noqa: E731
    B = tw.coframe_rows(fresh(), t, ys.reshape(5, 1, 6))
    single = fresh()
    assert B.shape == (5, 1, 3, 6)
    for k, y in enumerate(ys):
        assert np.array_equal(B[k, 0], tw.coframe_rows(single, t, y))


def test_a_report_without_closed_form_displays_builds_no_coframe(monkeypatch):
    M = surface("hopf")
    pts = tw.sample_twistor_points(M, 2, seed=0)
    calls = []
    build = tw.TwistorCoframe.__dict__["_build"].__func__
    monkeypatch.setattr(tw.TwistorCoframe, "_build", classmethod(
        lambda cls, M, conn, points, shape: calls.append(len(points)) or build(cls, M, conn, points, shape)))
    rep = tw.condition_report(M, "bismut", [1.0, SQ2], pts)
    assert calls == [] and all(r.formula_residual is None for r in rep.rows)
    tw.condition_report(M, "chern", [1.0, SQ2], pts)
    assert calls == [len(pts)]


# a lambda triple, and coframes of a general family member (one point and a
# stack), handed to the closed-form displays: each refusal must survive
# python -O
_REFUSALS = """
from twistorlab import twistor as tw
from twistorlab.manifold import builtin
M = builtin("cp2_fs", c=2.0)
pts = tw.sample_twistor_points(M, 2, seed=0)
co = tw.twistor_coframe(M, "lichnerowicz", pts[0])
family = [tw.twistor_coframe(M, 0.5, pts[0]), tw.TwistorCoframe.stack(M, 0.5, pts)]
calls = [lambda: tw.balanced_defect_formula(3, (1.3, 0.7, 2.1), co),
         lambda: tw.ddbar_formula(3, (1.3, 0.7, 2.1), co),
         lambda: tw.dK_formula(3, 1.0, family[0]), lambda: tw.balanced_defect_formula(3, 1.0, family[0]),
         lambda: tw.ddbar_formula(3, 1.0, family[0]), lambda: family[1].dW_coeffs,
         lambda: family[1].balanced_brackets]
for call in calls:
    try:
        print("returned", call())
    except ValueError as exc:
        print("ValueError:", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_formula_refusals_hold_under_python_O(flags):
    src = os.path.dirname(os.path.dirname(tw.__file__))
    proc = subprocess.run([sys.executable, *flags, "-c", _REFUSALS], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300)
    family = ("ValueError: no closed-form derivative display for the general canonical-family "
              "connection; use the finite-difference oracle")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "ValueError: the product displays are stated for the one-parameter family",
        "ValueError: the displays are stated for the one-parameter family",
    ] + [family] * 5


# a lambda tuple of the wrong length, and a projective-bundle Hessian that is
# not finite (the metric is infinite beyond x1 = 0.9025, which the nested
# Hessian stencil at x1 = 0.9 reaches and the dF stencil does not): each is
# a typed error, also under python -O
_TYPED_ERRORS = """
import numpy as np
from twistorlab import twistor as tw
from twistorlab.manifold import J_STANDARD, ChartSpec, HermitianSurface, builtin
z = tw.TwistorPoint.from_zeta(np.array([0.9, 0.0, 0.1, 0.0]), 0.3)
co = tw.twistor_coframe(builtin("flat_c2"), "lichnerowicz", z)
M = HermitianSurface(ChartSpec(("a", "b", "c", "d"), [[-1, 1]] * 4),
                     lambda x: np.diag([1.0, 1.0, 1.0, 1.0] if x[0] < 0.9025 else [np.inf, np.inf, 1.0, 1.0]),
                     lambda x: J_STANDARD)
with np.errstate(all="ignore"):
    for call in (lambda: tw.K_form(1, (1.0, 2.0), co), lambda: tw.projective_bundle_form(M, 1.0, z)):
        try:
            print("returned", call())
        except ValueError as exc:
            print(type(exc).__name__ + ":", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_lambda_length_and_hessian_residue_are_typed_errors_under_python_O(flags):
    src = os.path.dirname(os.path.dirname(tw.__file__))
    proc = subprocess.run([sys.executable, *flags, "-c", _TYPED_ERRORS], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "ValueError: expected one fiber parameter or three scale parameters",
        "DegenerateCoframeError: surface invariant violation at bundle point "
        "[0.9, 0.0, 0.1, 0.0, 0.3, 0.0]: complex residue in the projective-bundle Hessian",
    ]


# malformed arguments to the public constructors and checks of manifold,
# connection, flag and twistor: each is a ValueError, also under python -O
_INPUT_CHECKS = """
import numpy as np
from twistorlab import connection as cn, manifold as mf, twistor as tw
from twistorlab.exterior import ComplexForm
from twistorlab.flag import MaurerCartanEval, SU3Element, appendix_table, flag_K, flag_d
M = mf.builtin("flat_c2")
x, y = np.array([0.1, 0.2, -0.3, 0.05]), np.array([0.2, 0.2, -0.3, 0.05])
z = tw.TwistorPoint.from_zeta(x, 0.3)
for call in (lambda: tw.TwistorPoint(np.zeros(3), np.array([1.0, 0.0])),
             lambda: flag_K(1, (1.0, 2.0)),
             lambda: flag_K(1, float("nan")),
             lambda: appendix_table((1.0, float("inf"), 1.0)),
             lambda: tw.condition_report(M, "lichnerowicz", [float("nan")], [z]),
             lambda: appendix_table(1e200),
             lambda: flag_K(1, 1e200),
             lambda: tw.lambda_weights([(1, 1e200)]),
             lambda: cn.complexify(np.zeros((4, 4, 4)), "1*212*"),
             lambda: mf.ChartSpec(("a", "b", "c", "d"), [[-1, 1]] * 3),
             lambda: mf.fundamental_form(M, x, mf.adapted_frame(M, y)),
             lambda: cn.chern_curvature_relation(cn.levi_civita(M, x), cn.torsion_auxiliary(M, y)),
             lambda: cn.bismut_curvature_relation(cn.levi_civita(M, x), cn.torsion_auxiliary(M, y)),
             lambda: flag_d(ComplexForm.basis(6, (0,))),
             lambda: MaurerCartanEval(SU3Element.identity(), np.zeros((3, 3, 7)))):
    try:
        print("returned", call())
    except ValueError as exc:
        print(type(exc).__name__ + ":", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_input_checks_are_value_errors_under_python_O(flags):
    src = os.path.dirname(os.path.dirname(tw.__file__))
    proc = subprocess.run([sys.executable, *flags, "-c", _INPUT_CHECKS], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "ValueError: a twistor point needs a base point of shape (4,) and a line of shape (2,), "
        "got (3,) and (2,)",
        "ValueError: expected one scale parameter or three, got 2",
        "ValueError: scale parameters must be positive and finite, got nan",
        "ValueError: scale parameters must be positive and finite, got inf",
        "ValueError: metric parameter nan is not finite",
        "ValueError: scale parameter 1e+200 is too large: its square overflows",
        "ValueError: scale parameter 1e+200 is too large: its square overflows",
        "ValueError: metric parameter 1e+200 is too large: its square overflows",
        "ValueError: need frame components of shape (4,4,4,4), got (4, 4, 4)",
        "ValueError: domain box must be 4x2, got (3, 2)",
        "ValueError: frame was built at a different point",
    ] + ["ValueError: relation inputs evaluated at different points"] * 2 + [
        "ValueError: an invariant form lives over the 8 generators, got dimension 6",
        "ValueError: form values must have shape (3, 3, 8), got (3, 3, 7)",
    ]


def test_kahler_check_refuses_a_dF_or_J_that_is_not_finite():
    chart = ChartSpec(("a", "b", "c", "d"), [[-1, 1]] * 4)
    x0 = np.array([0.9, 0.0, 0.1, 0.0])
    z = tw.TwistorPoint.from_zeta(x0, 0.3)
    # the metric is NaN beyond x1 = 0.9005, which the dF stencil at x1 = 0.9 reaches
    nan_metric = HermitianSurface(chart, lambda x: np.eye(4) if x[0] < 0.9005 else np.full((4, 4), np.nan),
                                  lambda x: J_STANDARD)
    # J is NaN at the base point alone, which the central dF stencil skips
    nan_J = HermitianSurface(chart, lambda x: np.eye(4),
                             lambda x: np.full((4, 4), np.nan) if np.array_equal(x, x0) else J_STANDARD)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="dF is not finite"):
            tw.fiber_coordinate_on_bundle(nan_metric, z)
        with pytest.raises(ValueError, match="standard constant complex structure"):
            tw.fiber_coordinate_on_bundle(nan_J, z)
        with pytest.raises(ValueError, match="dF is not finite"):
            tw.projective_bundle_form(nan_metric, 1.0, z)


def test_complex_residue_is_a_typed_error():
    # phi^1 within 1e-11 of phi^2: J_3 is ill-conditioned far beyond the bound
    co = coframe("hopf", "chern")
    B = co.B.copy()
    B[0] = B[1] + 1e-11 * B[0]
    with pytest.raises(tw.DegenerateCoframeError, match="^surface invariant violation: complex residue"):
        tw.acs_endomorphism(3, B)
    with pytest.raises(tw.DegenerateCoframeError) as err:
        tw.acs_endomorphism(3, dataclasses.replace(co, B=B))
    assert str(err.value).startswith(f"surface invariant violation at bundle point {co.y.tolist()}: ")


# ======================================================================
# fiber metrics
# ======================================================================

def test_K_real_and_compatible():
    co = coframe("hopf", "lichnerowicz")
    lam = (1.0, 1.0, 1.3)
    G = tw.h_lambda_matrix(co, lam)
    for i in (1, 2, 3, 4):
        K = tw.K_form(i, lam, co)
        mat = K.to_array()
        assert np.max(np.abs(np.imag(mat))) < 1e-12
        mat = np.real(mat)
        assert np.max(np.abs(mat + mat.T)) < 1e-12
        J = tw.acs_endomorphism(i, co)
        assert np.max(np.abs(mat - J.T @ G)) < 1e-12


def test_volume_coefficient_scales():
    ev = tw.evaluate_metric(surface("hopf"), "chern", zpt("hopf"), 1, (0.8, 1.2, 0.6))
    assert ev.volume_coefficient == pytest.approx((0.8 * 1.2 * 0.6) ** 2, rel=1e-9)
    assert ev.reality_defect < 1e-12
    ev2 = tw.evaluate_metric(surface("cp2_fs"), "lichnerowicz", zpt("cp2_fs"), 2, 1.0)
    assert ev2.volume_coefficient == pytest.approx(1.0, rel=1e-9)


# ======================================================================
# first-derivative displays against the sweep oracle
# ======================================================================

@pytest.mark.parametrize("name,conn", [
    ("flat_c2", "lichnerowicz"), ("cp2_fs", "lichnerowicz"),
    ("ch2", "chern"), ("hopf", "lichnerowicz"), ("hopf", "chern"),
])
def test_dK_formula_matches_oracle(name, conn):
    co, sw = coframe(name, conn), sweep(name, conn)
    for i in (1, 2, 3, 4):
        for lam in (1.0, SQ2):
            res = (tw.dK_formula(i, lam, co) - sw.dK(i, lam)).norm()
            assert res < 1e-7, (i, lam, res)


def test_dK_oracle_wrapper_matches_sweep():
    o = tw.dK_oracle(2, 1.1, surface("flat_c2"), "lichnerowicz", zpt("flat_c2"))
    assert (o - sweep("flat_c2", "lichnerowicz").dK(2, 1.1)).norm() < 1e-12


def test_dK_three_parameter_specializes():
    co = coframe("hopf", "chern")
    for i in (1, 2, 3, 4):
        d = (tw.dK_formula(i, (1.0, 1.0, 1.3), co) - tw.dK_formula(i, 1.3, co)).norm()
        assert d < 1e-13


def test_dK_three_parameter_general():
    co, sw = coframe("hopf", "chern"), sweep("hopf", "chern")
    for i in (1, 2, 3, 4):
        res = (tw.dK_formula(i, (0.8, 1.2, 0.6), co) - sw.dK(i, (0.8, 1.2, 0.6))).norm()
        assert res < 1e-7


def test_dK_formula_on_custom_surface():
    co, sw = coframe("sphere_plane", "lichnerowicz"), sweep("sphere_plane", "lichnerowicz")
    for i in (1, 2):
        assert (tw.dK_formula(i, 1.2, co) - sw.dK(i, 1.2)).norm() < 1e-7


def test_balanced_display_consistent_with_dK():
    # the product display and K ^ (first-derivative display) are transcribed
    # independently; they must agree form-by-form
    for conn in ("lichnerowicz", "chern"):
        co = coframe("hopf", conn)
        for i in (1, 2, 3, 4):
            direct = tw.balanced_defect_formula(i, 1.2, co)
            composed = wedge(tw.K_form(i, 1.2, co), tw.dK_formula(i, 1.2, co))
            assert (direct - composed).norm() < 1e-8


# the product surface is the one whose first K ^ dK bracket is of order 1
# for the Levi-Civita displays, so each sign of the display table shows
@pytest.mark.parametrize("name,conn", [("hopf", "lichnerowicz"), ("cp2_fs", "chern"),
                                       ("sphere_plane", "lichnerowicz")])
def test_balanced_formula_matches_oracle(name, conn):
    co, sw = coframe(name, conn), sweep(name, conn)
    for i in (1, 2, 3, 4):
        oracle = wedge(sw.K(i, 1.1), sw.dK(i, 1.1))
        assert (tw.balanced_defect_formula(i, 1.1, co) - oracle).norm() < 1e-7


# ======================================================================
# distinguished parameters of the examples
# ======================================================================

@pytest.mark.parametrize("conn", ["lichnerowicz", "chern"])
def test_cp2_symplectic_parameter(conn):
    sw = sweep("cp2_fs", conn)
    assert sw.dK(1, SQ2).norm() < 1e-8
    assert sw.dK(1, 1.0).norm() > 0.1


@pytest.mark.parametrize("conn", ["lichnerowicz", "chern"])
def test_cp2_zero_crossing(conn):
    root, resid = tw.lambda_zero_crossing(1, surface("cp2_fs"), conn, zpt("cp2_fs"),
                                          sweep=sweep("cp2_fs", conn))
    assert root == pytest.approx(2.0, abs=1e-6)
    assert resid < 1e-8


def test_flat_zero_crossing_degenerate():
    root, resid = tw.lambda_zero_crossing(3, surface("flat_c2"), "lichnerowicz",
                                          zpt("flat_c2"), sweep=sweep("flat_c2", "lichnerowicz"))
    assert root is None
    assert resid < 1e-9


@pytest.mark.parametrize("conn", ["lichnerowicz", "chern"])
def test_ch2_second_structure_symplectic(conn):
    sw = sweep("ch2", conn)
    assert sw.dK(2, SQ2).norm() < 1e-8
    assert sw.dK(1, SQ2).norm() > 1.0


def test_flat_reversed_structures_symplectic():
    sw = sweep("flat_c2", "lichnerowicz")
    for i in (3, 4):
        for lam in (0.7, 1.0, 1.5):
            assert sw.dK(i, lam).norm() < 1e-9
    assert sw.dK(1, 1.0).norm() > 0.1


def test_hopf_balanced_structures():
    sw_l = sweep("hopf", "lichnerowicz")
    for i in (1, 2):
        assert wedge(sw_l.K(i, 1.2), sw_l.dK(i, 1.2)).norm() < 1e-8
    for i in (3, 4):
        assert wedge(sw_l.K(i, 1.2), sw_l.dK(i, 1.2)).norm() > 0.1
    sw_c = sweep("hopf", "chern")
    for i in (1, 2, 3, 4):
        assert wedge(sw_c.K(i, 1.2), sw_c.dK(i, 1.2)).norm() > 0.1


def test_cp2_all_balanced():
    sw = sweep("cp2_fs", "lichnerowicz")
    for i in (1, 2, 3, 4):
        for lam in (1.0, 2.0):
            assert wedge(sw.K(i, lam), sw.dK(i, lam)).norm() < 1e-8


# ======================================================================
# second-derivative displays
# ======================================================================

@pytest.mark.parametrize("name,conn,i", [
    ("cp2_fs", "lichnerowicz", 1),
    ("cp2_fs", "lichnerowicz", 3),
    ("cp2_fs", "lichnerowicz", 4),
    ("cp2_fs", "chern", 3),
    ("ch2", "chern", 4),
    ("hopf", "lichnerowicz", 1),
    ("hopf", "chern", 3),
    ("sphere_plane", "lichnerowicz", 3),
])
def test_ddbar_formula_matches_oracle(name, conn, i):
    f = tw.ddbar_formula(i, 1.1, coframe(name, conn))
    o = tw.ddbar_oracle(i, 1.1, surface(name), conn, zpt(name))
    assert (f - o).norm() < 5e-6


def test_ddbar_hopf_chern_vanishes():
    # the reversed-structure second derivatives vanish identically for this
    # conformally flat non-Kahler example
    for i in (3, 4):
        assert tw.ddbar_formula(i, 1.0, coframe("hopf", "chern")).norm() < 1e-8


def test_ddbar_flat():
    co = coframe("flat_c2", "lichnerowicz")
    for i in (3, 4):
        assert tw.ddbar_formula(i, 0.9, co).norm() < 1e-12
    f = tw.ddbar_formula(1, 0.9, co)
    o = tw.ddbar_oracle(1, 0.9, surface("flat_c2"), "lichnerowicz", zpt("flat_c2"))
    assert f.norm() > 1.0                     # nonzero even in the flat case
    assert (f - o).norm() < 5e-6


@pytest.mark.parametrize("name,conn,i,msg", [
    ("sphere_plane", "lichnerowicz", 1, "self-dual"),
    ("hopf", "lichnerowicz", 3, "J-invariant Ricci"),
    ("hopf", "lichnerowicz", 2, "i = 2"),
    ("hopf", "chern", 1, "Chern"),
    ("hopf", "chern", 2, "Chern"),
])
def test_ddbar_refusals(name, conn, i, msg):
    with pytest.raises(ValueError, match=msg):
        tw.ddbar_formula(i, 1.0, coframe(name, conn))


# ======================================================================
# the general connection family
# ======================================================================

def test_family_connection_refuses_closed_forms():
    co = tw.twistor_coframe(surface("hopf"), 0.37, zpt("hopf"))
    for fn in (lambda: tw.dK_formula(1, 1.0, co),
               lambda: tw.balanced_defect_formula(1, 1.0, co),
               lambda: tw.ddbar_formula(3, 1.0, co)):
        with pytest.raises(ValueError, match="finite-difference oracle"):
            fn()


def test_family_connection_oracle_available():
    o = tw.dK_oracle(1, 1.0, surface("hopf"), 0.37, zpt("hopf"))
    assert np.isfinite(o.norm()) and o.norm() > 0.1
    co = tw.twistor_coframe(surface("hopf"), 0.37, zpt("hopf"))
    J = tw.acs_endomorphism(2, co)
    assert np.max(np.abs(J @ J + np.eye(6))) < 1e-8


# ======================================================================
# conformal behavior
# ======================================================================

def test_conformal_chern_invariance():
    out = tw.conformal_compare(surface("hopf"), "0.1*x1", "chern", zpt("hopf"))
    assert all(v < 1e-10 for v in out.values())


def test_conformal_lichnerowicz_first_only():
    out = tw.conformal_compare(surface("hopf"), "0.1*x1", "lichnerowicz", zpt("hopf"))
    assert out[1] < 1e-10
    assert out[2] > 0.01 and out[3] > 0.01


def test_conformal_constant_factor_invariance():
    for conn in ("lichnerowicz", "chern"):
        out = tw.conformal_compare(surface("hopf"), "0.15", conn, zpt("hopf"))
        assert all(v < 1e-9 for v in out.values())


def test_conformal_rescale_surface():
    Ms = tw.conformal_rescale(surface("hopf"), "0.1*x1")
    x = BASE_POINTS["hopf"]
    scale = math.exp(2 * 0.1 * x[0])
    assert np.max(np.abs(Ms.metric(x) - scale * surface("hopf").metric(x))) < 1e-12
    assert "conformal" in Ms.name


def test_principal_angles():
    y = zpt("hopf").chart_coordinates()
    M, Ms = surface("hopf"), tw.conformal_rescale(surface("hopf"), "0.1*x1")
    for i in (1, 2, 3, 4):
        Ja = tw.acs_endomorphism(i, tw.coframe_rows(M, 1.0, y))
        Jb = tw.acs_endomorphism(i, tw.coframe_rows(Ms, 1.0, y))
        assert np.max(tw.principal_angles(Ja, Jb)) < 1e-6
    Ja = tw.acs_endomorphism(3, tw.coframe_rows(M, 0.0, y))
    Jb = tw.acs_endomorphism(3, tw.coframe_rows(Ms, 0.0, y))
    ang = np.max(tw.principal_angles(Ja, Jb))
    assert 0.01 < ang < 0.2
    J1 = tw.acs_endomorphism(1, tw.coframe_rows(M, 1.0, y))
    J2 = tw.acs_endomorphism(2, tw.coframe_rows(M, 1.0, y))
    assert np.max(tw.principal_angles(J1, J2)) == pytest.approx(math.pi / 2, abs=1e-8)


# ======================================================================
# projectivised-bundle comparison
# ======================================================================

def test_bundle_fiber_coordinate_flat():
    w = tw.fiber_coordinate_on_bundle(surface("flat_c2"), zpt("flat_c2"))
    assert w == pytest.approx(ZETA, abs=1e-12)


def test_bundle_form_flat_blocks():
    M = surface("flat_c2")
    z = zpt("flat_c2")
    G = tw.projective_bundle_form(M, 1.7, z)
    assert np.max(np.abs(G + G.T)) < 1e-9
    w = tw.fiber_coordinate_on_bundle(M, z)
    c = 2.0 / (1.0 + abs(w) ** 2) ** 2
    assert np.max(np.abs(G[4:, 4:] - np.array([[0.0, c], [-c, 0.0]]))) < 1e-8
    assert np.max(np.abs(G[:4, 4:])) < 1e-8
    assert np.max(np.abs(G[:4, :4] - 1.7 * coordinate_fundamental_matrix(M, z.x))) < 1e-9


def test_bundle_form_nondegenerate_cp2():
    G = tw.projective_bundle_form(surface("cp2_fs"), 10.0, zpt("cp2_fs"))
    assert np.min(np.linalg.svd(G, compute_uv=False)) > 0.1


@pytest.mark.parametrize("name", ["flat_c2", "cp2_fs"])
def test_bundle_differs_from_twistor_form(name):
    assert tw.bundle_chart_compare(surface(name), 1.0, zpt(name)) > 0.01


def _projective_bundle_reference(M, lam, z):
    """projective_bundle_form with the Hessian of log h by the nested per-point partial."""
    be, x = M.backend, z.x
    w0 = tw.fiber_coordinate_on_bundle(M, z)
    y0 = np.concatenate([x, [w0.real, w0.imag]])

    def logh(y):
        g = M.metric(y[:4])
        G = [[0.25 * (g[2 * a, 2 * b] + g[2 * a + 1, 2 * b + 1] + 1j * (g[2 * a, 2 * b + 1] - g[2 * a + 1, 2 * b]))
              for b in range(2)] for a in range(2)]
        w = complex(y[4], y[5])
        return math.log(float(np.real(G[0][0] + w * G[1][0] + np.conj(w) * G[0][1] + abs(w) ** 2 * G[1][1])))
    Hr = np.array([[be.partial(lambda y, p=p: be.partial(logh, y, p), y0, q) for q in range(6)]
                   for p in range(6)])
    Hr = 0.5 * (Hr + Hr.T)
    pairs = [(0, 1), (2, 3), (4, 5)]
    H = np.array([[0.25 * (Hr[ra, rb] + Hr[sa, sb] + 1j * (Hr[ra, sb] - Hr[sa, rb]))
                   for rb, sb in pairs] for ra, sa in pairs])
    D = np.zeros((3, 6), dtype=complex)
    for a, (ra, sa) in enumerate(pairs):
        D[a, ra], D[a, sa] = 1.0, 1j
    out = np.real(1j * (np.einsum("ab,am,bn->mn", H, D, np.conj(D))
                        - np.einsum("ab,an,bm->mn", H, D, np.conj(D))))
    out[:4, :4] += lam * coordinate_fundamental_matrix(M, x)
    return out


@pytest.mark.parametrize("name", ["flat_c2", "cp2_fs"])
def test_projective_bundle_form_matches_the_nested_per_point_reference(name):
    M, z = surface(name), zpt(name)
    assert np.array_equal(tw.projective_bundle_form(M, 1.7, z), _projective_bundle_reference(M, 1.7, z))


@pytest.mark.parametrize("name", ["flat_c2", "cp2_fs"])
def test_bundle_chart_compare_matches_the_per_point_reference(name):
    M, z = surface(name), zpt(name)

    def transition(y):
        w = tw.fiber_coordinate_on_bundle(M, tw.TwistorPoint.from_zeta(y[:4], complex(y[4], y[5])))
        return np.concatenate([y[:4], [w.real, w.imag]])
    y0 = z.chart_coordinates()
    Jac = np.stack([M.backend.partial(transition, y0, p) for p in range(6)], axis=1)
    K = np.real(tw.K_form(3, 1.0, tw.twistor_coframe(M, "chern", z)).to_array())
    ref = float(np.max(np.abs(Jac.T @ tw.projective_bundle_form(M, 1.0, z) @ Jac - K)))
    assert tw.bundle_chart_compare(M, 1.0, z) == pytest.approx(ref, rel=1e-12, abs=1e-12)


def _ddbar_reference(i, lam, M, conn, z, outer_step=2e-3):
    """ddbar_oracle with its outer pass by the per-point partial, direction by direction."""
    t, _ = tw.normalize_connection(conn)
    y0 = z.chart_coordinates()
    keys = [(a, b, c) for a in range(6) for b in range(a + 1, 6) for c in range(b + 1, 6)]

    def dbar_vec(y):
        sw = tw.CoframeSweep(M, t, tw.TwistorPoint.from_zeta(y[:4], complex(y[4], y[5])))
        proj = tw._bidegree_project6(sw.dK(i, lam), tw._adapted_rows(i, sw.B0), 1)
        return np.array([proj.terms.get(k, 0.0) for k in keys], dtype=complex)
    be = M.backend.with_step(outer_step)
    dg = np.stack([be.partial(dbar_vec, y0, p) for p in range(6)])
    coeff = {}
    for key in itertools.combinations(range(6), 4):     # p ascending within each key
        for pos, p in enumerate(key):
            rest = keys.index(key[:pos] + key[pos + 1:])
            coeff[key] = coeff.get(key, 0.0) + (-1.0) ** pos * dg[p][rest]
    B0 = tw.coframe_rows(M, t, y0)
    return tw._bidegree_project6(ComplexForm(6, 4, coeff), tw._adapted_rows(i, B0), 2) * 1j


@pytest.mark.parametrize("name,conn,i", [("flat_c2", "lichnerowicz", 1), ("hopf", "chern", 3)])
def test_ddbar_oracle_matches_the_per_point_outer_reference(name, conn, i):
    M, z = surface(name), zpt(name)
    assert np.array_equal(tw.ddbar_oracle(i, 1.1, M, conn, z).to_array(),
                          _ddbar_reference(i, 1.1, M, conn, z).to_array())


def test_bundle_requires_kahler():
    with pytest.raises(ValueError, match="Kahler base"):
        tw.projective_bundle_form(surface("hopf"), 1.0, zpt("hopf"))


# ======================================================================
# evaluation records and condition reports
# ======================================================================

def test_evaluate_metric_record():
    ev = tw.evaluate_metric(surface("cp2_fs"), "lichnerowicz", zpt("cp2_fs"), 1, SQ2,
                            coframe=coframe("cp2_fs", "lichnerowicz"),
                            sweep=sweep("cp2_fs", "lichnerowicz"))
    assert ev.lambdas == (1.0, 1.0, SQ2)
    assert ev.symplectic_defect < 1e-8
    assert ev.balanced_defect < 1e-8
    assert ev.dK_residual < 1e-7 and ev.balanced_residual < 1e-7
    ev3 = tw.evaluate_metric(surface("hopf"), "chern", zpt("hopf"), 1, (0.8, 1.2, 0.6))
    assert ev3.balanced_formula is None       # product display is one-parameter
    assert ev3.dK_residual < 1e-7


@pytest.mark.parametrize("lam", [1.0, 1000.0, 3000.0])
def test_evaluate_metric_balanced_defect_has_the_bits_of_condition_report(lam):
    # both read K ^ dK from the sweep's blocks, without the W_3 ^ dW_3 roundoff
    M = surface("cp2_fs")
    z = tw.sample_twistor_points(M, 1, seed=0)[0]
    ev = tw.evaluate_metric(M, "lichnerowicz", z, 1, lam)
    row = tw.condition_report(M, "lichnerowicz", [lam], [z]).rows[0]
    assert row.i == 1 and ev.balanced_defect == row.balanced_defect


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, (1.0, math.nan, 1.0),
                                 (math.inf, 1.0, 1.0), (1.0, 1.0, -math.inf)])
def test_non_finite_fiber_parameters_are_refused(bad):
    M, z = surface("cp2_fs"), zpt("cp2_fs")
    calls = (lambda: tw.condition_report(M, "lichnerowicz", [bad], [z]),
             lambda: tw.K_form(1, bad, coframe("cp2_fs", "lichnerowicz")),
             lambda: tw.evaluate_metric(M, "lichnerowicz", z, 1, bad))
    for call in calls:
        with pytest.raises(ValueError, match=r"metric parameter -?(nan|inf) (is not finite|below)"):
            call()


@pytest.mark.parametrize("big", [1e200, 1.4e154, (1.0, 1e200, 1.0)])
def test_fiber_parameters_whose_square_overflows_are_refused(big):
    M, z = surface("cp2_fs"), zpt("cp2_fs")
    calls = (lambda: tw.condition_report(M, "lichnerowicz", [big], [z]),
             lambda: tw.lambda_weights([(1, big)]),
             lambda: tw.K_form(1, big, coframe("cp2_fs", "lichnerowicz")),
             lambda: tw.evaluate_metric(M, "lichnerowicz", z, 1, big))
    for call in calls:
        with pytest.raises(ValueError, match=r"metric parameter \S+ is too large: its square overflows"):
            call()
    assert tw.lambda_weights([(1, 1.3e154)])[0, 2] < math.inf


def test_condition_report_runs_the_levi_civita_body_once_per_point(monkeypatch):
    M = builtin("hopf")         # a fresh memo
    pts = tw.sample_twistor_points(M, 3, seed=0)
    sizes = []
    data = cn.LeviCivitaData
    monkeypatch.setattr(cn, "LeviCivitaData", lambda **kw: (sizes.append(len(kw["point"])), data(**kw))[1])
    tw.condition_report(M, "lichnerowicz", [1.0, 1.5], pts)
    assert sizes == [3]         # one body for the stack of base points


def test_condition_report_rows_for_a_lambda_triple():
    M, triple = surface("cp2_fs"), (1.3, 0.7, 2.1)
    pts = tw.sample_twistor_points(M, 2, seed=0)
    both = tw.condition_report(M, "chern", [1.5, triple, 1.0], pts)
    alone = tw.condition_report(M, "chern", [triple], pts)
    scalars = tw.condition_report(M, "chern", [1.0, 1.5], pts)
    assert both.lambda_grid == (1.0, 1.5) and both.rows == scalars.rows
    assert both.triple_rows == alone.triple_rows and [r.i for r in both.triple_rows] == [1, 2, 3, 4]
    sweeps = [tw.CoframeSweep(M, "chern", z) for z in pts]
    for r in both.triple_rows:
        assert r.lam == triple
        assert r.symplectic_defect == max(sw.dK(r.i, triple).norm() for sw in sweeps)
    assert "triple_rows" not in scalars.as_dict()
    assert list(both.as_dict()["triple_rows"][0]) == ["i", "lambdas", "symplectic", "balanced",
                                                       "formula_residual"]


def test_condition_report_cp2():
    pts = tw.sample_twistor_points(surface("cp2_fs"), 2, seed=5)
    rep = tw.condition_report(surface("cp2_fs"), "lichnerowicz", [1.0, SQ2, 2.0], pts)
    assert rep.connection == "lichnerowicz" and rep.t == 0.0
    assert len(rep.rows) == 12
    assert [(r.i, r.lam) for r in rep.rows] == sorted((i, l) for i in (1, 2, 3, 4)
                                                      for l in (1.0, SQ2, 2.0))
    sym = {(r.i, round(r.lam, 6)) for r in rep.rows if r.symplectic}
    assert sym == {(1, round(SQ2, 6))}
    assert all(r.balanced for r in rep.rows)
    assert all(r.formula_residual < 1e-6 for r in rep.rows)
    for root, resid in rep.zero_crossings[1]:
        assert root == pytest.approx(2.0, abs=1e-5) and resid < 1e-7
    blob = json.dumps(rep.as_dict())
    assert json.loads(blob)["surface"] == "cp2_fs"


def test_a_structure_index_outside_1_to_4_is_refused():
    co, sw = coframe("hopf", "lichnerowicz"), sweep("hopf", "lichnerowicz")
    for call in (lambda: tw.balanced_defect_formula(0, 1.0, co), lambda: tw.dK_formula(5, 1.0, co),
                 lambda: tw.K_form(0, 1.0, co), lambda: sw.dK(-1, 1.0)):
        with pytest.raises(ValueError, match="structure index must lie in 1..4"):
            call()


@pytest.mark.parametrize("conn", ["lichnerowicz", "chern"])
def test_report_checks_every_balanced_display(conn):
    # both K ^ dK brackets are of order 1 on the product surface, so a wrong
    # display sign would give a residual of order 1
    M = surface("sphere_plane")
    pts = tw.sample_twistor_points(M, 2, seed=4)
    rep = tw.condition_report(M, conn, [0.8, 1.3], pts)
    assert max(r.formula_residual for r in rep.rows) < 1e-7
    for r in rep.rows:
        assert r.formula_residual >= max(
            (tw.balanced_defect_formula(r.i, r.lam, tw.twistor_coframe(M, conn, z))
             - tw.CoframeSweep(M, conn, z).K_wedge_dK(r.i, r.lam)).norm() for z in pts)


def test_condition_report_flat():
    pts = tw.sample_twistor_points(surface("flat_c2"), 2, seed=3)
    rep = tw.condition_report(surface("flat_c2"), "lichnerowicz", [0.7, 1.0], pts)
    sym = {(r.i, r.lam) for r in rep.rows if r.symplectic}
    assert sym == {(3, 0.7), (3, 1.0), (4, 0.7), (4, 1.0)}
    by_i = {r.i: r for r in rep.rows if r.lam == 1.0}
    assert by_i[1].integrable and not by_i[2].integrable
    assert by_i[3].integrable and by_i[4].integrable


def test_condition_report_family_connection():
    pts = tw.sample_twistor_points(surface("hopf"), 1, seed=2)
    rep = tw.condition_report(surface("hopf"), 0.55, [1.0], pts)
    assert rep.connection == "gauduchon(0.55)" and rep.t == 0.55
    assert all(r.formula_residual is None for r in rep.rows)
    assert len(rep.rows) == 4


# ======================================================================
# randomized invariants
# ======================================================================

@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_point_normalization_random(seed):
    rng = np.random.default_rng(seed)
    line = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    if np.linalg.norm(line) < 1e-6:
        line = np.array([1.0, 0.0])
    p = tw.TwistorPoint(np.zeros(4), line)
    assert np.linalg.norm(p.line) == pytest.approx(1.0, abs=1e-12)
    lead = next(c for c in p.line if abs(c) > 1e-14)
    assert abs(lead.imag) < 1e-10 * max(1.0, abs(lead)) and lead.real > 0
    # projective representatives collapse to the same stored line
    q = tw.TwistorPoint(np.zeros(4), line * (2.0 - 1.5j))
    assert np.allclose(p.line, q.line, atol=1e-10)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_acs_isotropy_random_fiber(seed):
    rng = np.random.default_rng(seed)
    zeta = complex(*rng.uniform(-1.5, 1.5, size=2))
    z = tw.TwistorPoint.from_zeta(BASE_POINTS["hopf"], zeta)
    B = tw.coframe_rows(surface("hopf"), 1.0, z.chart_coordinates())
    G = 2.0 * np.real(np.einsum("am,an->mn", np.conj(B), B))
    for i in (1, 2, 3, 4):
        J = tw.acs_endomorphism(i, B)
        assert np.max(np.abs(J @ J + np.eye(6))) < 1e-8
        assert np.max(np.abs(J.T @ G @ J - G)) < 1e-10


# ======================================================================
# staged frame contractions against the multi-operand einsums they replaced
# ======================================================================

def _reference_two_form(mat):
    """The chart 2-form with coefficients mat[p, q], p < q, of a 4 x 4 matrix."""
    full = np.zeros((6, 6), dtype=complex)
    full[:4, :4] = mat
    return ComplexForm(6, 2, full[np.triu_indices(6, 1)])


def _reference_coframe_structure(M, conn, z):
    """tau3, omega_diff, R_hat and T_components of twistor_coframe."""
    t, _ = tw.normalize_connection(conn)
    lc, A = cn.levi_civita(M, z.x), tw._su2(z.zeta)
    Om = np.einsum("ijkl,km,ln->ijmn", lc.R, lc.frame.theta, lc.frame.theta)
    P = cn.complex_connection_matrix(Om.reshape(4, 4, 16)).reshape(2, 2, 4, 4)
    Vrows = A.T @ np.array([[1.0, -1j, 0.0, 0.0], [0.0, 0.0, 1.0, -1j]]) / SQ2
    Q = SQ2 * np.column_stack([Vrows[0].real, -Vrows[0].imag, Vrows[1].real, -Vrows[1].imag])
    Om_rot = np.einsum("mi,nj,mnpq->ijpq", Q, Q, Om)
    R_hat = {}
    for pattern in ("1*222*", "1*211*"):
        vecs = [np.conj(Vrows[idx]) if conj else Vrows[idx] for idx, conj in cn.parse_pattern(pattern)]
        R_hat[pattern] = complex(np.einsum("ijkl,i,j,k,l->", lc.R, *vecs))
    T_comp = None
    if abs(t) > 1e-12:
        B = tw.coframe_rows(M, t, z.chart_coordinates())
        Tm = np.einsum("am,mnr->anr", B[:2, :4], cn.gauduchon(M, z.x, t).torsion_coord)
        V = lc.frame.U @ A
        T_comp = np.array([np.einsum("nr,n,r->", Tm[a], V[:, 0], V[:, 1]) for a in range(2)])
    return (_reference_two_form(tw._mobius12(P, z.zeta)).vec,
            _reference_two_form(1j * (Om_rot[0, 1] - Om_rot[2, 3])).vec, R_hat, T_comp)


def assert_close_to_reference(new, ref):
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.shape == ref.shape
    assert np.all(np.abs(new - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("name", ["flat_c2", "cp2_fs", "ch2", "hopf"])
@pytest.mark.parametrize("conn", ["lichnerowicz", "chern", "bismut"])
def test_coframe_structure_matches_the_multi_operand_einsums(name, conn):
    M = surface(name)
    for z in tw.sample_twistor_points(M, 2, seed=4):
        co = tw.twistor_coframe(M, conn, z)
        tau3, omega_diff, R_hat, T_comp = _reference_coframe_structure(M, conn, z)
        assert_close_to_reference(co.tau3.vec, tau3)
        assert_close_to_reference(co.omega_diff.vec, omega_diff)
        for pattern, value in R_hat.items():
            assert_close_to_reference(co.R_hat[pattern], value)
        assert (co.T_components is None) is (T_comp is None)
        if T_comp is not None:
            assert_close_to_reference(co.T_components, T_comp)
        w = np.array([1.3 ** 2, 0.7 ** 2, 2.1 ** 2])
        assert_close_to_reference(tw.h_lambda_matrix(co, (1.3, 0.7, 2.1)),
                                  2.0 * np.real(np.einsum("a,am,an->mn", w, np.conj(co.B), co.B)))


# fiber scales whose fourth power overflows: K ^ dK carries lambda^4 and its
# norm squares it, so the defects leave double precision; at 1e60 they are
# finite (about 2.3e107) and the report stands
_NON_FINITE_DEFECTS = """
from twistorlab import twistor as tw
from twistorlab.manifold import builtin
M = builtin("flat_c2")
pts = tw.sample_twistor_points(M, 1, 0)
print(max(row.balanced_defect for row in tw.condition_report(M, "lichnerowicz", [1e60], pts).rows))
for lams in ([1e80], [1e100], [1.0, (1.0, 1.0, 1e80)]):
    try:
        tw.condition_report(M, "lichnerowicz", lams, pts)
        print("returned")
    except ValueError as exc:
        print(type(exc).__name__ + ":", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_non_finite_defects_are_value_errors_under_python_O(flags):
    src = os.path.dirname(os.path.dirname(tw.__file__))
    proc = subprocess.run([sys.executable, *flags, "-c", _NON_FINITE_DEFECTS], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert 1e107 < float(lines[0]) < 1e108
    tail = "is not finite: the fiber scale is too large for double precision"
    assert lines[1:] == [
        f"ValueError: defect or formula residual of J_1 at lambda = 1e+80 {tail}",
        f"ValueError: defect or formula residual of J_1 at lambda = 1e+100 {tail}",
        f"ValueError: defect or formula residual of J_1 at lambda = (1.0, 1.0, 1e+80) {tail}",
    ]


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_non_finite_defects_raise_their_value_error_without_a_runtime_warning(flags):
    # the overflow of lambda^4 and of the squared coefficients is the
    # ValueError's to report; numpy prints no warning before it
    src = os.path.dirname(os.path.dirname(tw.__file__))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *flags, "-c",
                           _NON_FINITE_DEFECTS], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert proc.returncode == 0 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert len(lines) == 4 and 1e107 < float(lines[0]) < 1e108
    assert all(line.startswith("ValueError: defect or formula residual of J_1 at lambda = ")
               for line in lines[1:])


# ======================================================================
# the stacked closed-form path against the per-point forms it replaced
# ======================================================================

def _reference_su2(zeta):
    N = math.sqrt(1.0 + abs(zeta) ** 2)
    return np.array([[1.0, -np.conj(zeta)], [zeta, 1.0]], dtype=complex) / N


def _reference_coframe(M, conn, z):
    """A per-point coframe with every structure entry as a form: the one-point
    build that `TwistorCoframe.stack` replaced, as a namespace that the
    closed-form displays read."""
    t, _ = tw.normalize_connection(conn)
    zeta, x, y = z.zeta, z.x, z.chart_coordinates()
    lc = cn.levi_civita(M, x)
    fr = lc.frame
    B = tw.coframe_rows(M, t, y)
    mu = ComplexForm(6, 1, np.concatenate([cn.mu_from_omega(cn.omega_tilde_coord(M, x, t)[1]),
                                           [0.0, 0.0]]).astype(complex))
    Om = push_slots(lc.R, fr.theta, (2, 3))
    P = cn.complex_connection_matrix(Om.reshape(4, 4, 16)).reshape(2, 2, 4, 4)
    tau3 = _reference_two_form(tw._mobius12(P, zeta))
    A = _reference_su2(zeta)
    Vrows = A.T @ np.array([[1.0, -1j, 0.0, 0.0], [0.0, 0.0, 1.0, -1j]]) / math.sqrt(2.0)
    Q = np.column_stack([
        math.sqrt(2.0) * np.real(Vrows[0]), -math.sqrt(2.0) * np.imag(Vrows[0]),
        math.sqrt(2.0) * np.real(Vrows[1]), -math.sqrt(2.0) * np.imag(Vrows[1]),
    ])
    Om_rot = push_slots(Om, Q, (0, 1))
    omega_diff = _reference_two_form(1j * (Om_rot[0, 1] - Om_rot[2, 3]))
    R_hat = {p: cn.complexify(lc.R, p, Vrows) for p in ("1*222*", "1*211*")}
    T_hat = T_comp = Psi_hat = None
    if abs(t) > 1e-12:
        Tm = np.einsum("am,mnr->anr", B[:2, :4], cn.gauduchon(M, x, t).torsion_coord)
        T_hat = [_reference_two_form(Tm[a]) for a in range(2)]
        T_comp = push_slots(Tm, fr.U @ A, (1, 2))[:, 0, 1]
    if abs(t - 1.0) < 1e-12:
        dc = cn.direct_curvature(M, x, 1.0)
        Psi_hat = [[None, None], [None, None]]
        for a in range(2):
            for b in range(2):
                acc = ComplexForm.zero(6, 2)
                for c in range(2):
                    for d in range(2):
                        w = np.conj(A[c, a]) * A[d, b]
                        if w != 0.0:
                            acc = acc + ComplexForm(6, 2, dc.Psi[c][d].terms) * w
                Psi_hat[a][b] = acc
    rows = [ComplexForm(6, 1, np.asarray(r, dtype=complex)) for r in B]
    co = types.SimpleNamespace(surface=M, t=t, y=y, B=B, mu=mu, tau3=tau3, omega_diff=omega_diff,
                               R_hat=R_hat, T_hat=T_hat, T_components=T_comp, Psi_hat=Psi_hat,
                               phi_form=lambda a: rows[a - 1])
    co.dW_forms = _reference_structure_dW(co)
    co.brackets = _reference_balanced_forms(co)
    return co


def _reference_structure_dW(co):
    p1, p2, p3 = (co.phi_form(a) for a in (1, 2, 3))
    b1, b2, b3 = p1.conj(), p2.conj(), p3.conj()
    cubic = wedge_all(b1, p2, p3) - wedge_all(p1, b2, b3)
    if abs(co.t) < 1e-12:
        mu, mub = co.mu, co.mu.conj()
        torsion1 = wedge_all(mub, p1, p2) - wedge_all(mu, b1, b2)
        torsion2 = torsion1 * (-1.0)
        dW3 = wedge(co.tau3, b3) - wedge(co.tau3.conj(), p3)
    elif abs(co.t - 1.0) < 1e-12:
        T1, T2 = co.T_hat
        torsion1 = wedge(T1, b1) - wedge(T1.conj(), p1)
        torsion2 = wedge(T2.conj(), p2) - wedge(T2, b2)
        P12 = co.Psi_hat[0][1]
        dW3 = wedge(P12, b3) - wedge(P12.conj(), p3)
    else:
        return None
    return cubic + torsion1, cubic + torsion2, dW3


def _reference_balanced_forms(co):
    p1, p2, p3 = (co.phi_form(a) for a in (1, 2, 3))
    b1, b2, b3 = p1.conj(), p2.conj(), p3.conj()
    if abs(co.t) < 1e-12:
        r22, r11 = co.R_hat["1*222*"], co.R_hat["1*211*"]
        base = wedge_all(p1, b1, b2, p2)
        c = r22 - r11
        f12 = wedge(base, b3) * c + wedge(base, p3) * np.conj(c)
        base = wedge_all(p1, b1, p2, b2)
        c = r22 + r11
        mu, mub = co.mu, co.mu.conj()
        mu_term = wedge_all(wedge(mub, p1), p2, p3, b3) - wedge_all(wedge(mu, b1), b2, p3, b3)
        return f12, wedge(base, b3) * c + wedge(base, p3) * np.conj(c) + mu_term * 2.0
    if abs(co.t - 1.0) < 1e-12:
        T1, T2 = co.T_hat
        P12 = co.Psi_hat[0][1]
        psi_pair = wedge(P12, b3) - wedge(P12.conj(), p3)
        W3 = wedge(p3, b3)
        front = wedge(p1, b1) + wedge(b2, p2)
        tor = wedge(T1, b1) - wedge(T1.conj(), p1) + wedge(T2.conj(), p2) - wedge(T2, b2)
        f12 = wedge(front, psi_pair) + wedge(tor, W3)
        front = wedge(p1, b1) + wedge(p2, b2)
        tor = wedge(T1, b1) - wedge(T1.conj(), p1) + wedge(T2, b2) - wedge(T2.conj(), p2)
        return f12, wedge(front, psi_pair) + wedge(tor, W3)
    return None


def fresh_surface(name):
    return builtin(name, c=2.0) if name == "cp2_fs" else builtin(name)


STACK_34 = {name: tw.sample_twistor_points(surface(name), 34, seed=3)
            for name in ("flat_c2", "cp2_fs", "ch2", "hopf")}


@functools.lru_cache(maxsize=None)
def reference_coframes(name, conn):
    M = fresh_surface(name)
    return [_reference_coframe(M, conn, z) for z in STACK_34[name]]


@pytest.mark.parametrize("name", ["flat_c2", "cp2_fs", "ch2", "hopf"])
@pytest.mark.parametrize("conn", ["lichnerowicz", "chern"])
@pytest.mark.parametrize("n", [1, 2, 34])
def test_stacked_coframe_rows_have_the_bits_of_the_per_point_forms(name, conn, n):
    # each stack on a fresh surface, so no stack reads what another stored
    co = tw.TwistorCoframe.stack(fresh_surface(name), conn, STACK_34[name][:n])
    assert co.B.shape == (n, 3, 6) and co.y.shape == (n, 6) and co.zeta.shape == (n,)
    assert co.dW_coeffs.shape == (n, 3, 20) and co.balanced_brackets.shape == (n, 2, 6)
    for k, ref in enumerate(reference_coframes(name, conn)[:n]):
        assert np.array_equal(co.B[k], ref.B)
        assert np.array_equal(co.W_coeffs[k], tw._W_coeffs(ref.B))
        assert np.array_equal(co.dW_coeffs[k], np.stack([f.vec for f in ref.dW_forms]))
        assert np.array_equal(co.balanced_brackets[k], np.stack([f.vec for f in ref.brackets]))


@pytest.mark.parametrize("name", ["flat_c2", "cp2_fs", "ch2", "hopf"])
@pytest.mark.parametrize("conn", ["lichnerowicz", "chern"])
def test_a_point_has_the_same_rows_whatever_its_stack(name, conn):
    pts = STACK_34[name]
    big = tw.TwistorCoframe.stack(fresh_surface(name), conn, pts)
    for k in (0, 1, 17, 33):
        for one in (tw.TwistorCoframe.stack(fresh_surface(name), conn, [pts[k]]),
                    tw.TwistorCoframe.stack(fresh_surface(name), conn, pts[k:k + 2])):
            for attr in ("B", "W_coeffs", "dW_coeffs", "balanced_brackets"):
                assert np.array_equal(getattr(one, attr)[0], getattr(big, attr)[k]), attr


@pytest.mark.parametrize("name,conn", [("flat_c2", "lichnerowicz"), ("cp2_fs", "lichnerowicz"),
                                       ("cp2_fs", "chern"), ("ch2", "chern"),
                                       ("hopf", "lichnerowicz"), ("hopf", "chern")])
def test_one_point_displays_are_those_of_the_per_point_forms(name, conn):
    M = surface(name)
    for z, ref in zip(STACK_34[name][:2], reference_coframes(name, conn)):
        co = tw.twistor_coframe(M, conn, z)
        assert co.y.shape == (6,) and co.B.shape == (3, 6) and isinstance(co.zeta, complex)
        signs = tw._BALANCED_SIGNS[co.t]
        for i in (1, 2, 3, 4):
            for lam in (0.5, SQ2, (1.3, 0.7, 2.1)):
                w = tw.lambda_weights([(i, lam)])[0]
                want = ((ref.dW_forms[0] * w[0] + ref.dW_forms[1] * w[1]) + ref.dW_forms[2] * w[2]) * 1j
                assert np.array_equal(tw.dK_formula(i, lam, co).vec, want.vec)
            for lam in (0.5, SQ2):
                want = ref.brackets[int(i > 2)] * (signs[i - 1] * lam ** 2)
                assert np.array_equal(tw.balanced_defect_formula(i, lam, co).vec, want.vec)
        flags = condition_flags(M, z.x)
        for i in (1, 2, 3, 4):
            try:
                want = tw.ddbar_formula(i, 1.1, ref, flags)
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    tw.ddbar_formula(i, 1.1, co, flags)
                continue
            assert np.array_equal(tw.ddbar_formula(i, 1.1, co, flags).vec, want.vec)


def test_a_stack_gives_rows_and_a_point_gives_forms():
    M, pts = surface("hopf"), STACK_34["hopf"][:2]
    stacked, one = tw.TwistorCoframe.stack(M, "chern", pts), tw.twistor_coframe(M, "chern", pts[0])
    for read in (lambda co: co.phi_form(1), lambda co: co.mu, lambda co: co.Psi_hat,
                 lambda co: co.T_hat, lambda co: co.R_hat, lambda co: co.T_components):
        with pytest.raises(ValueError, match="read at one bundle point"):
            read(stacked)
        assert read(one) is not None
    with pytest.raises(ValueError, match="at least one bundle point"):
        tw.TwistorCoframe.stack(M, "chern", [])
    lich = tw.twistor_coframe(M, "lichnerowicz", pts[0])
    assert lich.T_hat is None and lich.T_components is None and lich.Psi_hat is None


@pytest.mark.parametrize("bad", [
    # the second point degenerate (Gram determinant 0 at x1 = 0), the third too
    [[0.0, 0.3, 0.1, 0.2], [0.0, 0.5, 0.1, 0.2]],
    # the second point outside the fiber chart, the third degenerate
    [[0.5, 0.3, 0.1, 0.2, 5.0], [0.0, 0.5, 0.1, 0.2]],
    # the second point degenerate, the third outside the fiber chart
    [[0.0, 0.3, 0.1, 0.2], [0.5, 0.5, 0.1, 0.2, 4.5]],
])
def test_a_stacked_coframe_names_the_first_failing_point(bad):
    pts = [tw.TwistorPoint.from_zeta([0.5, 0.2, 0.1, 0.2], 0.2)]
    pts += [tw.TwistorPoint.from_zeta(p[:4], p[4] if len(p) > 4 else 0.3) for p in bad]
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError) as per_point:
            M = parse_surface_spec(_DEGENERATE_AT_X1_0)
            for z in pts:
                tw.twistor_coframe(M, "lichnerowicz", z)
        with pytest.raises(ValueError) as stacked:
            tw.TwistorCoframe.stack(parse_surface_spec(_DEGENERATE_AT_X1_0), "lichnerowicz", pts)
    assert stacked.type is per_point.type
    assert str(stacked.value) == str(per_point.value)
    assert str(pts[1].chart_coordinates().tolist()) in str(stacked.value)


# ======================================================================
# the report's base flags, Nijenhuis values and zero crossings, stacked
# ======================================================================
# today's per-point condition_flags, per-structure nijenhuis and
# lambda_zero_crossing and per-pair lambda_weights, which the stacked passes
# must reproduce bit for bit, errors included

def _reference_condition_flags(M, x, tol=DEFAULT_PREDICATE_TOL):
    """One point: its own levi_civita call, the operator and its blocks one
    point at a time, and |dF| from a fresh `dF_form` FD pass."""
    x = np.asarray(x, dtype=float)
    lc = cn.levi_civita(M, x)
    arrs = _basis_arrays(SdAsdBasis.standard()).reshape(6, 16)
    op = 0.25 * push_slots(lc.R.reshape(16, 16), arrs.T, (0, 1))
    Ms = 0.5 * (op + op.T)
    s = 2.0 * float(np.trace(Ms))
    sstar = 4.0 * float(Ms[0, 0])
    eye = np.eye(3)
    ric = np.einsum("ijil->jl", lc.R)
    einstein = float(np.linalg.norm(ric - np.trace(ric) / 4.0 * np.eye(4)))
    ricJ = float(np.linalg.norm(ric @ J_STANDARD - J_STANDARD @ ric))
    sd = float(np.linalg.norm(Ms[3:, 3:] - s / 12.0 * eye))
    asd = float(np.linalg.norm(Ms[:3, :3] - s / 12.0 * eye))
    kahler = mf.dF_form(M, x).norm()
    return ConditionFlags(point=lc.point, tol=tol, self_dual=sd < tol, self_dual_defect=sd,
                          anti_self_dual=asd < tol, anti_self_dual_defect=asd,
                          einstein=einstein < tol, einstein_defect=einstein,
                          kahler=kahler < tol, kahler_defect=float(kahler),
                          ricci_J_invariant=ricJ < tol, ricci_J_invariant_defect=ricJ,
                          s=s, sstar=sstar)


def _reference_nijenhuis(sw, i):
    """The Nijenhuis values of J_i alone: two solves of its own."""
    C, J = tw._structure(i, sw.B0, sw.y0)
    dC = tw._adapted_rows(i, sw.dB)
    dJ = tw._real_part(np.linalg.solve(C[..., None, :, :], tw._D @ dC - dC @ J[..., None, :, :]),
                       sw.y0, f"the derivative of J_{i}")
    S = np.einsum("...pa,...pmb->...abm", J, dJ) + np.einsum("...mn,...bna->...abm", J, dJ)
    worst = np.max(np.linalg.norm(S - np.swapaxes(S, -3, -2), axis=-1), axis=(-2, -1))
    return float(worst) if worst.ndim == 0 else worst


def _reference_lambda_zero_crossing(i, sw):
    """The roots of J_i alone, from a weighted sum of its own, at each point
    of the stacked sweep sw."""
    rows = tw.weighted_sum(np.array(tw._WEIGHT_SIGNS[i]) * [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
                           sw.dW_coeffs)
    out = []
    for A, Bf in rows.reshape(-1, 2, rows.shape[-1]):
        used = (A != 0) | (Bf != 0)
        av, bv = A[used], Bf[used]
        bb = float(np.real(np.vdot(bv, bv)))
        if bb < 1e-18:
            out.append((None, float(np.linalg.norm(av))))
            continue
        root = -float(np.real(np.vdot(bv, av))) / bb
        out.append((root, float(np.linalg.norm(av + root * bv))))
    return out


def _reference_lambda_weights(pairs):
    out = np.empty((len(pairs), 3))
    for r, (i, lam) in enumerate(pairs):
        tw._check_index(i)
        l1, l2, l3 = tw._lambdas(lam)
        out[r] = np.array(tw._WEIGHT_SIGNS[i]) * (l1 ** 2, l2 ** 2, l3 ** 2)
    return out


def _assert_same_flags(got, want):
    for field in dataclasses.fields(ConditionFlags):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b), field.name
        else:
            assert type(a) is type(b) and a == b, field.name


_REPORT_SURFACES = ("flat_c2", "cp2_fs", "ch2", "hopf", "conformal")


def _fresh(name):
    if name == "conformal":
        return tw.conformal_rescale(builtin("cp2_fs", c=2.0), "0.1*x1*x2 + 0.05*x3^2")
    return builtin(name, c=2.0) if name == "cp2_fs" else builtin(name)


@pytest.mark.parametrize("name", _REPORT_SURFACES)
@pytest.mark.parametrize("conn", ["lichnerowicz", "chern", "bismut"])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_report_passes_have_the_bits_of_the_per_point_and_per_structure_calls(name, conn, n):
    # each side on a fresh surface, so neither reads what the other stored
    M_ref, M = _fresh(name), _fresh(name)
    pts = tw.sample_twistor_points(M, 5, seed=18)[:n]
    X = np.array([z.x for z in pts])
    ref = tw.CoframeSweep.stack(M_ref, conn, pts)
    want_flags = [_reference_condition_flags(M_ref, x) for x in X]
    want_nij = [_reference_nijenhuis(ref, i) for i in (1, 2, 3, 4)]
    want_roots = [_reference_lambda_zero_crossing(i, ref) for i in (1, 2, 3, 4)]

    sw = tw.CoframeSweep.stack(M, conn, pts)
    flags = condition_flags(M, X)
    assert isinstance(flags, list) and len(flags) == n
    for got, want in zip(flags, want_flags):
        _assert_same_flags(got, want)
    _assert_same_flags(condition_flags(_fresh(name), X[0]), want_flags[0])
    assert sw.nijenhuis_values.shape == (4, n) and not sw.nijenhuis_values.flags.writeable
    for i, want in zip((1, 2, 3, 4), want_nij):
        assert np.array_equal(sw.nijenhuis_values[i - 1], want)
        assert np.array_equal(sw.nijenhuis(i), want)
    assert tw.lambda_zero_crossing((1, 2, 3, 4), M, conn, pts, sweep=sw) == want_roots
    assert tw.lambda_zero_crossing([3, 1], M, conn, pts, sweep=sw) == [want_roots[2], want_roots[0]]
    assert tw.lambda_zero_crossing(2, M, conn, pts, sweep=sw) == want_roots[1]
    one = tw.CoframeSweep(M, conn, pts[0])
    assert tw.lambda_zero_crossing((1, 2, 3, 4), M, conn, pts[0], sweep=one) == \
        [roots[0] for roots in want_roots]
    assert np.array_equal(one.nijenhuis_values, [nij[0] for nij in want_nij])

    report = tw.condition_report(M, conn, [1.0, SQ2], pts)
    assert report.base_flags == [f.as_dict() for f in want_flags]
    assert report.zero_crossings == dict(zip((1, 2, 3, 4), want_roots))
    assert [r.nijenhuis_defect for r in report.rows] == \
        [max(want_nij[r.i - 1].tolist()) for r in report.rows]


_DEGENERATE_FRAME_AT_X1_0 = "coords x1 x2 x3 x4\ng 1 1 = x1^2\ng 2 2 = x1^2\nJ standard\n"


@pytest.mark.parametrize("stack", [
    # the second point has no adapted frame, so no Levi-Civita data
    [[0.5, 0.2, 0.1, 0.2], [0.0, 0.3, 0.1, 0.2], [0.4, 0.5, 0.1, 0.2]],
    # the second point too close to the boundary for dF, the third without a frame
    [[0.5, 0.2, 0.1, 0.2], [0.5, 0.9995, 0.1, 0.2], [0.0, 0.3, 0.1, 0.2]],
    # the second point without a frame, the third too close to the boundary
    [[0.5, 0.2, 0.1, 0.2], [0.0, 0.3, 0.1, 0.2], [0.5, 0.9995, 0.1, 0.2]],
])
def test_stacked_flags_raise_the_error_the_point_by_point_loop_meets_first(stack):
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError) as per_point:
            M = parse_surface_spec(_DEGENERATE_FRAME_AT_X1_0)
            for x in stack:
                _reference_condition_flags(M, x)
        with pytest.raises(ValueError) as stacked:
            condition_flags(parse_surface_spec(_DEGENERATE_FRAME_AT_X1_0), np.array(stack))
    assert stacked.type is per_point.type
    assert str(stacked.value) == str(per_point.value)
    assert str(stack[1]) in str(stacked.value)          # the second point is named


def _altered_sweep(sw, alter):
    """sw with copies of its coframe rows B0 and partials dB changed in place
    by alter(B0, dB)."""
    out = tw.CoframeSweep.__new__(tw.CoframeSweep)
    out.M, out.t, out.label, out.y0 = sw.M, sw.t, sw.label, sw.y0
    out.B0, out.dB = sw.B0.copy(), sw.dB.copy()
    alter(out.B0, out.dB)
    return out


def _dJ_residue(B0, dB):
    """dJ of J_1 and J_2 not real at the third point; J_3 and J_4 fine."""
    dB[2] *= 1e12


def _J_residue(B0, dB):
    """phi^2 nearly phi^1 at the fourth point: J itself not real for most i."""
    B0[3, 1] = B0[3, 0] + 1e-8 * B0[3, 2]


def _singular(B0, dB):
    """phi^2 = phi^1 at the second point: the adapted rows are singular."""
    B0[1, 1] = B0[1, 0]


def _dJ_residue_then_J_residue(B0, dB):
    """dJ of J_1 not real at the third point, and phi^1 near a multiple of
    phi^3 at the fourth, where J_1 stays real but J_2 does not: a pass that
    checks every J before any dJ would meet J_2 first."""
    _dJ_residue(B0, dB)
    B0[3, 0] = B0[3, 2] * np.exp(1j) + 7.62939453125e-08 * np.array([1, 1j, -1, 0.5, 0.3j, 0.2])


@pytest.mark.parametrize("alter", [_dJ_residue, _J_residue, _singular, _dJ_residue_then_J_residue])
def test_stacked_nijenhuis_raises_the_error_of_the_per_structure_loop(alter):
    sw = tw.CoframeSweep.stack(surface("hopf"), "chern", STACK_POINTS["hopf"])
    sw = _altered_sweep(sw, alter)

    def outcome(fn):
        try:
            return fn()
        except (tw.DegenerateCoframeError, np.linalg.LinAlgError) as exc:
            return type(exc), str(exc)

    with pytest.raises((tw.DegenerateCoframeError, np.linalg.LinAlgError)) as stacked:
        sw.nijenhuis_values
    first = next(o for o in (outcome(lambda: _reference_nijenhuis(sw, i)) for i in (1, 2, 3, 4))
                 if isinstance(o, tuple))
    assert (stacked.type, str(stacked.value)) == first
    for i in (1, 2, 3, 4):
        got, want = outcome(lambda: sw.nijenhuis(i)), outcome(lambda: _reference_nijenhuis(sw, i))
        assert got == want if isinstance(want, tuple) else np.array_equal(got, want)


def test_a_report_after_the_sweep_runs_no_dF_pass_and_one_levi_civita_body(monkeypatch):
    M = builtin("hopf")         # a fresh memo
    pts = tw.sample_twistor_points(M, 3, seed=0)
    tw.CoframeSweep.stack(M, "chern", pts)
    dF_calls, sizes = [0], []
    dF = mf.dF_array

    def counted(*args):
        dF_calls[0] += 1
        return dF(*args)

    data = cn.LeviCivitaData
    monkeypatch.setattr(mf, "dF_array", counted)
    monkeypatch.setattr(cn, "dF_array", counted)
    monkeypatch.setattr(cn, "LeviCivitaData", lambda **kw: (sizes.append(len(kw["point"])), data(**kw))[1])
    tw.condition_report(M, "chern", [1.0, SQ2, 2.0], pts)
    assert (dF_calls[0], sizes) == (0, [3])


def test_lambda_weights_have_the_bits_and_errors_of_the_per_pair_rows():
    pairs = [(i, lam) for i in (1, 2, 3, 4) for lam in (0.5, 1.0, SQ2, 1.3e154, (1.3, 0.7, 2.1), [2.0, 1.0, 0.3])]
    got = tw.lambda_weights(pairs)
    assert got.shape == (24, 3) and np.array_equal(got, _reference_lambda_weights(pairs))
    assert tw.lambda_weights([]).shape == (0, 3)
    for bad in ([(1, 1.0), (2, 1e200), (7, 1.0)], [(1, 1.0), (0, 1.0), (2, 1e-9)],
                [(3, (1.0, 2.0)), (1, float("nan"))], [(2, 0.5), (4, (1.0, float("inf"), 1.0))]):
        with pytest.raises(ValueError) as want:
            _reference_lambda_weights(bad)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            tw.lambda_weights(bad)


def test_lambda_weights_check_and_square_each_distinct_lambda_once(monkeypatch):
    # scan's table: 4 structures x 48 grid values
    grid = np.linspace(0.5, 2.5, 48).tolist()
    pairs = [(i, lam) for i in (1, 2, 3, 4) for lam in grid] + [(2, (1.3, 0.7, 2.1)), (3, [1.3, 0.7, 2.1])]
    want = _reference_lambda_weights(pairs)
    calls = []
    lambdas = tw._lambdas
    monkeypatch.setattr(tw, "_lambdas", lambda lam: (calls.append(lam), lambdas(lam))[1])
    assert np.array_equal(tw.lambda_weights(pairs), want)
    assert len(calls) == 48 + 1
    for bad in ([(1, 2.0), (2, 2.0), (5, 2.0)], [(1, (1.0, 2.0, 3.0)), (4, [1.0, 2.0, 3.0]), (2, 1e200)],
                [(1, float("nan")), (2, float("nan"))], [(3, 0.5), (1, 1), (2, 1.0), (4, -0.0)]):
        with pytest.raises(ValueError) as want:
            _reference_lambda_weights(bad)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            tw.lambda_weights(bad)


# ======================================================================
# stacks over several surfaces: one segment per surface
# ======================================================================

SEGMENT_SIZES = {"flat_c2": 1, "cp2_fs": 2, "ch2": 3, "hopf": 2}


@pytest.mark.parametrize("conn", ["lichnerowicz", "chern"])
def test_a_stack_of_segments_has_the_bits_of_its_one_surface_stacks(conn):
    # each side on fresh surfaces, so neither reads what the other stored
    segments = [(fresh_surface(name), STACK_34[name][:n]) for name, n in SEGMENT_SIZES.items()]
    sweep, co = tw.CoframeSweep.stack(segments, conn), tw.TwistorCoframe.stack(segments, conn)
    total = sum(SEGMENT_SIZES.values())
    assert sweep.dW_coeffs.shape == (total, 3, 20) and co.dW_coeffs.shape == (total, 3, 20)
    assert co.segments == tuple((M, len(pts)) for M, pts in segments)
    with pytest.raises(ValueError, match="no one surface"):
        co.surface
    start = 0
    for name, n in SEGMENT_SIZES.items():
        part = slice(start, start + n)
        M = fresh_surface(name)
        one_sweep = tw.CoframeSweep.stack(M, conn, STACK_34[name][:n])
        one_co = tw.TwistorCoframe.stack(M, conn, STACK_34[name][:n])
        for attr in ("y0", "B0", "dB", "W_coeffs", "dW_coeffs", "W_wedge_dW"):
            assert np.array_equal(getattr(sweep, attr)[part], getattr(one_sweep, attr)), attr
        assert np.array_equal(sweep.nijenhuis_values[:, part], one_sweep.nijenhuis_values)
        for attr in ("y", "zeta", "B", "W_coeffs", "dW_coeffs", "balanced_brackets"):
            assert np.array_equal(getattr(co, attr)[part], getattr(one_co, attr)), attr
        assert one_co.surface is M and one_sweep.M is M
        start += n


def test_a_one_segment_stack_is_the_one_surface_stack():
    M, pts = surface("hopf"), STACK_34["hopf"][:3]
    for cls in (tw.CoframeSweep, tw.TwistorCoframe):
        a, b = cls.stack(M, "chern", pts), cls.stack([(M, pts)], "chern")
        assert np.array_equal(a.dW_coeffs, b.dW_coeffs)
    assert tw.TwistorCoframe.stack([(M, pts)], "chern").surface is M
    with pytest.raises(TypeError, match="inside the segments"):
        tw.CoframeSweep.stack([(M, pts)], "chern", pts)
    for segments in ([], [(M, pts), (M, [])]):
        for cls in (tw.CoframeSweep, tw.TwistorCoframe):
            with pytest.raises(ValueError, match="at least one bundle point"):
                cls.stack(segments, "chern")


def test_the_surfaces_of_one_sweep_share_one_fd_rule():
    M = surface("hopf")
    coarse = HermitianSurface(M.chart, M.metric, M.J, name="coarse", backend=mf.DiffBackend(step=2e-3))
    with pytest.raises(ValueError, match="one FD rule"):
        tw.CoframeSweep.stack([(M, STACK_34["hopf"][:1]), (coarse, STACK_34["hopf"][:1])], "chern")


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
@pytest.mark.parametrize("kind", ["sweep", "coframe"])
def test_a_stack_of_segments_raises_the_error_of_the_loop_over_surfaces(order, kind):
    # two surfaces, each failing at its second point, with different errors
    good = [tw.TwistorPoint.from_zeta([0.5, 0.2, 0.1, 0.2], 0.2)]
    degenerate = good + [tw.TwistorPoint.from_zeta([0.0, 0.3, 0.1, 0.2], 0.2)]    # Gram 0 at x1 = 0
    near_edge = good + [tw.TwistorPoint.from_zeta([0.0, 0.9995, 0.1, 0.2], 0.2)]  # off the FD reach
    far = good + [tw.TwistorPoint.from_zeta([0.5, 0.3, 0.1, 0.2], 5.0)]           # out of the fiber chart
    pts = [degenerate, near_edge if kind == "sweep" else far]
    pts = [pts[k] for k in order]
    cls = tw.CoframeSweep if kind == "sweep" else tw.TwistorCoframe

    def error(build):
        with np.errstate(all="ignore"), pytest.raises(Exception) as info:
            build([(parse_surface_spec(_DEGENERATE_AT_X1_0), p) for p in pts])
        return info.type, str(info.value)

    def per_surface(segments):
        for M, p in segments:
            cls.stack(M, "lichnerowicz", p)

    stacked = error(lambda segments: cls.stack(segments, "lichnerowicz"))
    assert stacked == error(per_surface)
    assert stacked == error(lambda segments: per_surface(segments[:1]))
    assert stacked != error(lambda segments: per_surface(segments[1:]))
