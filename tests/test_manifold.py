import dataclasses
import gc
import itertools
import math
import operator
import struct
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistorlab import connection as cn
from twistorlab import manifold as mf
from twistorlab import twistor as tw
from twistorlab.exterior import ZERO_EPS, ComplexForm, hodge_star_4, substitute


def interior_points(M, n, seed):
    return M.chart.interior_points(n, seed=seed)


# ----------------------------------------------------------------------
# DSL parsing
# ----------------------------------------------------------------------

FLAT_SPEC = """\
coords x1 x2 x3 x4
domain x1 -1 1
domain x2 -1 1
domain x3 -1 1
domain x4 -1 1
J standard
"""

# a valid surface whose J sends d1 to d3: the second fixed seed d3 then lies
# in span(e1, J e1), so no adapted frame exists anywhere
SWAPPED_J_SPEC = FLAT_SPEC.replace("J standard\n", "J 3 1 = 1\nJ 1 3 = -1\nJ 4 2 = 1\nJ 2 4 = -1\n")


def test_parse_flat_identity():
    M = mf.parse_surface_spec(FLAT_SPEC)
    x = np.array([0.3, -0.2, 0.1, 0.0])
    np.testing.assert_allclose(M.metric(x), np.eye(4))
    np.testing.assert_allclose(M.J(x), mf.J_STANDARD)


def test_parse_expressions_and_comments():
    text = """\
# comment line
coords a b c d
domain a 0.5 2
g 1 1 = 1/(1 + a^2)      # inline comment
g 2 2 = 1/(1 + a^2)
g 3 3 = sqrt(4) + sin(c)*cos(c) - tanh(exp(0 - d^2))
g 4 4 = sqrt(4) + sin(c)*cos(c) - tanh(exp(0 - d^2))
J standard
"""
    M = mf.parse_surface_spec(text)
    x = np.array([1.0, 0.3, -0.2, 0.4])
    g = M.metric(x)
    np.testing.assert_allclose(g[0, 0], 0.5)
    np.testing.assert_allclose(g[1, 1], 0.5)
    np.testing.assert_allclose(g[2, 2], 2.0 + np.sin(-0.2) * np.cos(-0.2) - np.tanh(np.exp(-0.16)))
    np.testing.assert_allclose(g[3, 3], g[2, 2])


def test_unary_minus_binds_before_power():
    # per the grammar, '-' lives at the base level, so -a^2 means (-a)^2
    text = """\
coords a b c d
g 1 1 = 3 + -a^3
g 2 2 = 3 + -a^3
J standard
"""
    M = mf.parse_surface_spec(text)
    x = np.array([0.5, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(M.metric(x)[0, 0], 3 + (-0.5) ** 3)


def test_parse_negative_exponent_and_scientific_numbers():
    text = """\
coords x1 x2 x3 x4
g 1 1 = 2^-1 + 1.5e0 - 1e0
g 2 2 = (1 + x1^2)^-1 + x1^2/(1+x1^2)
J standard
"""
    M = mf.parse_surface_spec(text)
    x = np.array([0.37, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(M.metric(x)[0, 0], 1.0)
    np.testing.assert_allclose(M.metric(x)[1, 1], 1.0, rtol=1e-14)


@pytest.mark.parametrize("bad, line, fragment", [
    ("coords x1 x2 x3\nJ standard\n", 1, "coords needs exactly 4"),
    ("coords x1 x2 x3 x4\ng 1 1 = 1 +\nJ standard\n", 2, "unexpected end"),
    ("coords x1 x2 x3 x4\ng 1 1 = y\n", 2, "unknown name 'y'"),
    ("coords x1 x2 x3 x4\ng 1 1 = x1^2.5\n", 2, "exponent must be an integer"),
    ("coords x1 x2 x3 x4\ng 5 1 = 1\n", 2, "indices must be in 1..4"),
    ("coords x1 x2 x3 x4\ndomain x9 0 1\n", 2, "unknown coordinate"),
    ("coords x1 x2 x3 x4\ng 1 1 = 1 @ 2\n", 2, "unexpected character"),
    ("domain x1 0 1\n", 1, "coords line must come first"),
])
def test_parse_errors_carry_line_numbers(bad, line, fragment):
    with pytest.raises(mf.SpecSyntaxError) as exc:
        mf.parse_surface_spec(bad)
    assert f"line {line}" in str(exc.value)
    assert fragment in str(exc.value)


def test_each_distinct_expression_text_is_parsed_once(monkeypatch):
    texts = []
    tokenize = mf._tokenize_expr
    monkeypatch.setattr(mf, "_tokenize_expr", lambda text, *rest: (texts.append(text), tokenize(text, *rest))[1])
    mf.builtin("cp2_fs")            # 8 entries, 5 distinct texts, 12 slots with mirrors
    assert len(texts) == len(set(texts)) == 5
    texts.clear()
    mf.builtin("hopf")              # 4 entries of one text
    assert len(texts) == 1


def test_a_bad_expression_repeating_an_earlier_valid_one_raises_at_its_own_line():
    text = """\
coords x1 x2 x3 x4
g 1 1 = 1/(1 + x1^2)
g 2 2 = 1/(1 + x1^2)
g 3 3 = 1/(1 + x1^2) * y
J standard
"""
    with pytest.raises(mf.SpecSyntaxError, match="unknown name 'y'") as exc:
        mf.parse_surface_spec(text)
    assert (exc.value.line, exc.value.col) == (4, text.splitlines()[3].index("y") + 1)


def test_parse_rejects_nonsymmetric_completion():
    text = """\
coords x1 x2 x3 x4
g 1 1 = 1/(1+x1^2)
g 1 2 = x1
g 2 1 = x2
J standard
"""
    with pytest.raises(ValueError, match="metric not symmetric"):
        mf.parse_surface_spec(text)


def test_parse_rejects_incompatible_J():
    # diag(1, 1, 1, 4) is positive but not invariant under the standard J
    text = """\
coords x1 x2 x3 x4
g 4 4 = 4
J standard
"""
    with pytest.raises(ValueError, match="metric not J-invariant"):
        mf.parse_surface_spec(text)


def test_parse_validates_J_square():
    text = """\
coords x1 x2 x3 x4
J 1 2 = -2
J 2 1 = 2
J 3 4 = -1
J 4 3 = 1
"""
    with pytest.raises(ValueError, match=r"J\*J != -Id"):
        mf.parse_surface_spec(text)


def test_builtin_source_round_trip():
    M = mf.builtin("cp2_fs", c=2.0)
    M2 = mf.parse_surface_spec(M.source_text)
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = rng.uniform(-0.6, 0.6, size=4)
        np.testing.assert_allclose(M.metric(x), M2.metric(x), atol=1e-12)
        np.testing.assert_allclose(M.J(x), M2.J(x), atol=1e-12)


# ----------------------------------------------------------------------
# built-ins
# ----------------------------------------------------------------------

def test_builtin_flat():
    M = mf.builtin("flat_c2")
    x = np.array([0.5, 0.5, -0.5, 0.1])
    np.testing.assert_allclose(M.metric(x), np.eye(4))
    np.testing.assert_allclose(M.J(x), mf.J_STANDARD)


def test_builtin_cp2_origin_metric():
    # at the chart origin the FS metric is (4/c) Id
    for c in (1.0, 2.0, 4.0):
        M = mf.builtin("cp2_fs", c=c)
        np.testing.assert_allclose(M.metric(np.zeros(4)), (4.0 / c) * np.eye(4), atol=1e-14)


def test_builtin_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown builtin"):
        mf.builtin("nope")
    with pytest.raises(ValueError, match="c must be positive"):
        mf.builtin("cp2_fs", c=-1.0)
    with pytest.raises(ValueError, match="unknown parameters"):
        mf.builtin("hopf", c=2.0)


@pytest.mark.parametrize("name", mf.BUILTIN_NAMES)
def test_surface_invariants_50_points(name):
    M = mf.builtin(name)
    for x in interior_points(M, 50, seed=99):
        g = M.metric(x)
        Jm = M.J(x)
        assert np.min(np.linalg.eigvalsh(g)) > 1e-10
        np.testing.assert_allclose(g, g.T, atol=1e-10)
        np.testing.assert_allclose(Jm @ Jm, -np.eye(4), atol=1e-10)
        np.testing.assert_allclose(Jm.T @ g @ Jm, g, atol=1e-10)


def test_hopf_is_not_kahler():
    M = mf.builtin("hopf")
    for x in interior_points(M, 5, seed=3):
        assert cn.dF_form(M, x).norm() > 0.1


# ----------------------------------------------------------------------
# adapted frames
# ----------------------------------------------------------------------

def test_adapted_frame_flat_is_coordinate_frame():
    M = mf.builtin("flat_c2")
    fr = mf.adapted_frame(M, np.zeros(4))
    np.testing.assert_allclose(fr.E, np.eye(4), atol=1e-14)
    np.testing.assert_allclose(fr.theta, np.eye(4), atol=1e-14)


def test_adapted_frame_cp2_origin_is_rescaled():
    M = mf.builtin("cp2_fs", c=2.0)
    fr = mf.adapted_frame(M, np.zeros(4))
    # metric is 2*Id there, so frame vectors are 1/sqrt(2) * coordinate axes
    np.testing.assert_allclose(fr.E, np.eye(4) / np.sqrt(2.0), atol=1e-14)


@pytest.mark.parametrize("name", mf.BUILTIN_NAMES)
def test_adapted_frame_invariants(name):
    M = mf.builtin(name)
    for x in interior_points(M, 8, seed=5):
        fr = mf.adapted_frame(M, x)
        g = M.metric(x)
        Jm = M.J(x)
        np.testing.assert_allclose(fr.E.T @ g @ fr.E, np.eye(4), atol=1e-10)
        np.testing.assert_allclose(fr.E[:, 1], Jm @ fr.E[:, 0], atol=1e-15)
        np.testing.assert_allclose(fr.E[:, 3], Jm @ fr.E[:, 2], atol=1e-15)
        # complex frame and its dual
        np.testing.assert_allclose(fr.U[:, 0], (fr.E[:, 0] - 1j * fr.E[:, 1]) / np.sqrt(2.0))
        np.testing.assert_allclose(fr.eta @ fr.U, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(fr.eta @ np.conj(fr.U), np.zeros((2, 2)), atol=1e-12)


def test_adapted_frame_degenerate_seed():
    M = mf.parse_surface_spec(SWAPPED_J_SPEC)       # valid: construction passes
    with pytest.raises(mf.DegenerateFrameError, match="seed degenerate at point"):
        mf.adapted_frame(M, np.zeros(4))
    assert issubclass(mf.DegenerateFrameError, ValueError)


def test_adapted_frame_is_deterministic():
    x = np.array([0.1, 0.2, -0.3, 0.05])
    np.testing.assert_array_equal(mf.adapted_frame(mf.builtin("cp2_fs"), x).E,
                                  mf.adapted_frame(mf.builtin("cp2_fs"), x).E)


def _reference_adapted_frame(M, x):
    """The frame of an (n, 4) stack as one function computed it, E, theta,
    U and eta together, from the unmemoized metric and J fields."""
    s1, s2 = mf.DEFAULT_SEEDS
    g = mf._field(M._metric, x)
    Jm = mf._field(M._J, x)

    def dot(a, b):
        a = np.broadcast_to(a, x.shape)[:, None, :]
        b = np.broadcast_to(b, x.shape)[:, :, None]
        return (a @ g @ b)[:, 0, 0]

    n1 = dot(s1, s1)
    mf._raise_at_first(n1 < 1e-16, x, mf.DegenerateFrameError)
    e1 = s1 / np.sqrt(n1)[:, None]
    e2 = (Jm @ e1[:, :, None])[:, :, 0]
    r = s2 - dot(s2, e1)[:, None] * e1 - dot(s2, e2)[:, None] * e2
    rn = dot(r, r)
    small = rn < 1e-16
    mf._raise_at_first(small | (np.sqrt(np.where(small, 1.0, rn)) < 1e-8), x, mf.DegenerateFrameError)
    e3 = r / np.sqrt(rn)[:, None]
    e4 = (Jm @ e3[:, :, None])[:, :, 0]

    E = np.stack([e1, e2, e3, e4], axis=-1)
    theta = np.linalg.inv(E)
    U = np.stack([(e1 - 1j * e2) / np.sqrt(2.0), (e3 - 1j * e4) / np.sqrt(2.0)], axis=-1)
    eta = np.stack([(theta[:, 0] + 1j * theta[:, 1]) / np.sqrt(2.0),
                    (theta[:, 2] + 1j * theta[:, 3]) / np.sqrt(2.0)], axis=1)
    return mf.UnitaryFrame(point=x, E=E, theta=theta, U=U, eta=eta)


def _frame_surface(name):
    if name == "cp2_fs+conformal":
        return tw.conformal_rescale(mf.builtin("cp2_fs"), "0.1*x1 - 0.05*x3*x4")
    return mf.builtin(name)


@pytest.mark.parametrize("name", [*mf.BUILTIN_NAMES, "cp2_fs+conformal"])
@pytest.mark.parametrize("n", [1, 2, 34])
def test_adapted_frame_has_the_bits_of_the_one_function_frame(name, n):
    x = _frame_surface(name).chart.interior_points(34, seed=3)[:n]
    want = _reference_adapted_frame(_frame_surface(name), x)
    fresh, after_basis = _frame_surface(name), _frame_surface(name)
    E = mf.adapted_basis(after_basis, x)         # the frame then reads a stored E
    assert np.array_equal(E, want.E)
    for M in (fresh, after_basis):
        got = mf.adapted_frame(M, x)
        for field in dataclasses.fields(mf.UnitaryFrame):
            assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name
        one = mf.adapted_frame(_frame_surface(name), x[-1])
        for field in dataclasses.fields(mf.UnitaryFrame):
            assert np.array_equal(getattr(one, field.name), getattr(want, field.name)[-1]), field.name


# cp2_fs with J given entry by entry; two entries are expressions equal to
# +-1 up to rounding, so J is a compiled field evaluated on every stack
ENTRY_J_SPEC = mf._builtin_cp2_fs(2.0).replace("J standard\n", (
    "J 1 2 = -(cos(x1)^2 + sin(x1)^2)\nJ 2 1 = cos(x1)^2 + sin(x1)^2\nJ 3 4 = -1\nJ 4 3 = 1\n"))
_BATCH_SURFACES = (*mf.BUILTIN_NAMES, "cp2_fs+conformal", "entry_J")
_ONE_POINT = {}         # (surface, index into _batch_pool) -> its one-point results


def _batch_surface(name):
    if name == "entry_J":
        return mf.parse_surface_spec(ENTRY_J_SPEC)
    return _frame_surface(name)


def _batch_pool(name):
    return _batch_surface(name).chart.interior_points(400, seed=7)


def _frame_layers(M, x):
    fr = mf.adapted_frame(M, x)
    return [mf.adapted_basis(M, x), fr.E, fr.theta, fr.U, fr.eta,
            mf.coordinate_fundamental_matrix(M, x), cn.christoffel(M, x)]


def _one_point_layers(name, k):
    if (name, k) not in _ONE_POINT:
        _ONE_POINT[name, k] = _frame_layers(_batch_surface(name), _batch_pool(name)[k])
    return _ONE_POINT[name, k]


# the examples are points whose E had other last bits in a two-point stack
# while a fresh stack put its point axis fastest
@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(_BATCH_SURFACES), rows=st.lists(st.integers(0, 399), min_size=1, max_size=40),
       filled=st.booleans())
@example(name="ch2", rows=[170, 171], filled=False)
@example(name="cp2_fs", rows=[266, 267], filled=False)
@example(name="cp2_fs+conformal", rows=[206, 207, 198], filled=True)
def test_a_points_frame_bits_do_not_depend_on_its_batch(name, rows, filled):
    # every point of a stack of 1-40 points gets the bits of its one-point
    # frame, fundamental matrix and Christoffels on a fresh surface, whether
    # the stack is the surface's first or christoffel filled the memo first
    M = _batch_surface(name)
    x = _batch_pool(name)[rows]
    if filled:
        cn.christoffel(M, x[::-1])
    for got, k in zip(zip(*_frame_layers(M, x)), rows):
        for a, b in zip(got, _one_point_layers(name, k)):
            assert np.array_equal(a, b), (name, k)


def _mixed_degenerate_surface():
    """Degenerate at a = 0.1 (second seed check) and a = 0.5 (first check)."""
    swapped = mf.parse_surface_spec(SWAPPED_J_SPEC).J(np.zeros(4))

    def metric(x):
        return np.diag([1e-20, 1.0, 1.0, 1.0]) if x[0] == 0.5 else np.eye(4)
    return mf.HermitianSurface(mf.ChartSpec(("a", "b", "c", "d"), [[-1, 1]] * 4),
                               metric, lambda x: swapped if x[0] == 0.1 else mf.J_STANDARD)


@pytest.mark.parametrize("rows", [[0], [1], [2, 0], [0, 1], [1, 0], [2, 1, 0]])
def test_a_degenerate_frame_raises_the_error_of_the_one_function_frame(rows):
    x = np.array([[0.1, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0], [0.3, 0.2, 0.0, 0.0]])[rows]
    with pytest.raises(mf.DegenerateFrameError) as want:
        for p in x:         # the error a point-by-point loop meets first
            _reference_adapted_frame(_mixed_degenerate_surface(), p[None])
    for fn in (mf.adapted_frame, mf.adapted_basis):
        with pytest.raises(mf.DegenerateFrameError) as got:
            fn(_mixed_degenerate_surface(), x)
        assert str(got.value) == str(want.value)


def _undefined_metric_surface():
    """Identity metric, undefined (a ValueError) at a = 0.7; no frame at a = 0.1."""
    swapped = mf.parse_surface_spec(SWAPPED_J_SPEC).J(np.zeros(4))

    def metric(x):
        if x[0] == 0.7:
            raise ValueError("metric undefined at a = 0.7")
        return np.eye(4)
    return mf.HermitianSurface(mf.ChartSpec(("a", "b", "c", "d"), [[-1, 1]] * 4),
                               metric, lambda x: swapped if x[0] == 0.1 else mf.J_STANDARD)


@pytest.mark.parametrize("rows", [[0, 1], [1, 0], [2, 1, 0]])
def test_a_stack_raises_a_missing_frame_or_a_metric_error_in_point_order(rows):
    # the E/F table keeps a point without a frame, so its frame is refused
    # after the metric of the whole stack: the first point still decides
    x = np.array([[0.1, 0.0, 0.0, 0.0], [0.7, 0.0, 0.0, 0.0], [0.3, 0.2, 0.0, 0.0]])[rows]
    with pytest.raises(ValueError) as want:
        for p in x:
            mf.adapted_frame(_undefined_metric_surface(), p)
    for fn in (mf.adapted_frame, mf.adapted_basis):
        with pytest.raises(ValueError) as got:
            fn(_undefined_metric_surface(), x)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def test_a_frame_missing_inside_a_stencil_fails_omega_lc_and_not_dF():
    # J takes the swapped structure on 0.5 < a < 0.5015, which the x + 2h
    # stencil point of a = 0.499 reaches and the point itself does not
    swapped = mf.parse_surface_spec(SWAPPED_J_SPEC).J(np.zeros(4))

    def surface():
        return mf.HermitianSurface(mf.ChartSpec(("a", "b", "c", "d"), [[-1, 1]] * 4), lambda x: np.eye(4),
                                   lambda x: swapped if 0.5 < x[0] < 0.5015 else mf.J_STANDARD)
    x = np.array([[0.3, 0.1, 0.2, 0.3], [0.499, 0.1, 0.2, 0.3]])
    with pytest.raises(mf.DegenerateFrameError) as want:     # the frame stencil, point by point
        for p in surface().backend.stencil(x).reshape(-1, 4):
            mf.adapted_basis(surface(), p)
    for layer in (cn.levi_civita, lambda M, x: cn.omega_tilde_coord(M, x, 1.0)):
        with pytest.raises(mf.DegenerateFrameError) as got:
            layer(surface(), x)
        assert str(got.value) == str(want.value)
    M = surface()
    assert np.all(np.isfinite(cn.dF_array(M, x))) and np.all(np.isfinite(cn.lee_form(M, x[1]).to_array()))
    assert np.all(np.isfinite(mf.adapted_frame(M, x).E))


def test_a_missing_frame_at_a_point_comes_before_a_metric_error_at_its_stencil():
    # the base table reads the metric of a point and its stencil in one
    # call; a reader of the frame still raises the point's own missing
    # frame first, and the Christoffel symbols, which need no frame, the
    # metric's error
    swapped = mf.parse_surface_spec(SWAPPED_J_SPEC).J(np.zeros(4))
    x = np.array([0.1, 0.2, 0.3, 0.4])

    def metric(p):
        if p[0] == 0.1 + 0.001:             # the stencil point x + h e_1
            raise ValueError("metric undefined at a = 0.101")
        return np.eye(4)

    def surface():
        return mf.HermitianSurface(mf.ChartSpec(("a", "b", "c", "d"), [[-1, 1]] * 4), metric,
                                   lambda p: swapped if p[0] == 0.1 else mf.J_STANDARD)
    for layer in (cn.levi_civita, lambda M, p: cn.omega_tilde_coord(M, p, 1.0)):
        for stack in (x, np.stack([x + 0.3, x])):
            with pytest.raises(mf.DegenerateFrameError, match=r"seed degenerate at point \[0\.1, "):
                layer(surface(), stack)
    with pytest.raises(ValueError, match="metric undefined at a = 0.101"):
        cn.christoffel(surface(), x)


def test_a_fresh_sweep_stores_full_frames_at_its_base_points_only():
    # the FD stencil of the base table reads g, E and F alone, from one
    # table and one pass; Gamma, omega^LC, dF and the frame with theta, U
    # and eta are built at the 34 base points (2 points and their
    # first-order stencils)
    M = mf.builtin("cp2_fs")
    pts = tw.sample_twistor_points(M, 2, seed=0)
    tw.CoframeSweep.stack(M, "lichnerowicz", pts)
    sizes = {fn.__name__: table.size for (fn, params), table in M._point_memo.items() if not params}
    assert sizes == {"_base_table": 34, "_frame_fields": 16 + 258}     # g is read from the E table
    # a frame at any point of the E table evaluates no metric: one
    # Gram-Schmidt built every frame
    table = M._point_memo[(mf._frame_fields.__wrapped__, ())]
    stored = np.array([np.frombuffer(key) for key in table.index])
    evaluated, metric = [], M._metric
    M._metric = mf.stack_field(lambda x: (evaluated.append(len(x)), metric(x))[1])
    mf.adapted_frame(M, stored)
    assert evaluated == [] and table.size == 16 + 258


def _first_failure_point_by_point(chart, metric, J, tol=1e-10):
    """The invariant checks at one sample point at a time, in order: the
    first failing (point, check), or None."""
    for pt in chart.interior_points(16, seed=2024):
        g, Jm = np.asarray(metric(pt), dtype=float), np.asarray(J(pt), dtype=float)
        if not np.all(np.isfinite(g)):
            return pt.tolist(), "metric not finite"
        if not np.allclose(g, g.T, atol=tol):
            return pt.tolist(), "metric not symmetric"
        if np.min(np.linalg.eigvalsh(0.5 * (g + g.T))) <= 1e-10:
            return pt.tolist(), "metric not positive-definite"
        if not np.allclose(Jm @ Jm, -np.eye(4), atol=tol):
            return pt.tolist(), "J*J != -Id"
        if not np.allclose(Jm.T @ g @ Jm, g, atol=tol):
            return pt.tolist(), "metric not J-invariant"
    return None


_ASYMMETRIC = np.eye(4) + 0.5 * np.eye(4, k=1)     # also not J-invariant
_INDEFINITE = np.diag([-1.0, 1.0, 1.0, 1.0])         # also not J-invariant
_STRETCHED = np.diag([1.0, 2.0, 1.0, 1.0])           # only not J-invariant


@pytest.mark.parametrize("bad_metric,bad_J,expected", [
    ({13: _ASYMMETRIC, 15: _INDEFINITE}, {}, (13, "metric not symmetric")),
    ({11: _INDEFINITE, 14: _ASYMMETRIC}, {}, (11, "metric not positive-definite")),
    ({13: _ASYMMETRIC}, {12: 2.0 * mf.J_STANDARD}, (12, "J*J != -Id")),
    ({15: _STRETCHED}, {}, (15, "metric not J-invariant")),
])
def test_validation_names_the_first_failing_point_and_check(bad_metric, bad_J, expected):
    chart = mf.ChartSpec(("a", "b", "c", "d"), [[-1, 1]] * 4)
    pts = chart.interior_points(16, seed=2024)

    def at(table, default):
        def field(x):
            for k, value in table.items():
                if np.array_equal(x, pts[k]):
                    return value
            return default
        return field
    metric, J = at(bad_metric, np.eye(4)), at(bad_J, mf.J_STANDARD)
    k, check = expected
    assert _first_failure_point_by_point(chart, metric, J) == (pts[k].tolist(), check)
    with pytest.raises(ValueError) as err:
        mf.HermitianSurface(chart, metric, J)
    assert str(err.value) == f"surface invariant violation at sample point {pts[k].tolist()}: {check}"


def test_validation_names_the_point_of_an_infinite_metric():
    # LAPACK does not converge on diag(inf, inf, 1, 1); the finiteness check names the point first
    chart = mf.ChartSpec(("a", "b", "c", "d"), [[-1, 1]] * 4)
    late = chart.interior_points(16, seed=2024)[14]
    metric = lambda x: np.diag([np.inf, np.inf, 1.0, 1.0]) if np.array_equal(x, late) else np.eye(4)  # noqa: E731
    with np.errstate(invalid="ignore"), pytest.raises(ValueError) as err:
        mf.HermitianSurface(chart, metric, lambda x: mf.J_STANDARD)
    assert str(err.value) == f"surface invariant violation at sample point {late.tolist()}: metric not finite"


@pytest.mark.parametrize("bad", [np.diag([np.inf, np.inf, 1.0, 1.0]), np.full((4, 4), np.inf)])
def test_validation_refuses_an_infinite_metric_with_a_J_without_zero_entries(bad):
    # a constant J = P J0 P^-1 with no zero entry, orthogonal for g = P^-T P^-1:
    # no 0 * inf of J^T g J can stand in for the finiteness check
    chart = mf.ChartSpec(("a", "b", "c", "d"), [[-1, 1]] * 4)
    late = chart.interior_points(16, seed=2024)[14]
    P = np.array([[1.0, 0.3, 0.2, 0.1], [0.1, 1.0, 0.4, 0.2], [0.3, 0.1, 1.0, 0.5], [0.2, 0.6, 0.1, 1.0]])
    J = P @ mf.J_STANDARD @ np.linalg.inv(P)
    g = np.linalg.inv(P).T @ np.linalg.inv(P)
    assert np.all(J != 0.0) and np.allclose(J.T @ g @ J, g)
    metric = lambda x: bad if np.array_equal(x, late) else g  # noqa: E731
    assert _first_failure_point_by_point(chart, metric, lambda x: J) == (late.tolist(), "metric not finite")
    with np.errstate(invalid="ignore"), pytest.raises(ValueError) as err:
        mf.HermitianSurface(chart, metric, lambda x: J)
    assert str(err.value) == f"surface invariant violation at sample point {late.tolist()}: metric not finite"


# ----------------------------------------------------------------------
# fundamental form and Lee form
# ----------------------------------------------------------------------

def test_fundamental_form_in_adapted_coframe():
    M = mf.builtin("hopf")
    x = np.array([0.6, 0.55, 0.62, 0.5])
    fr = mf.adapted_frame(M, x)
    F = mf.fundamental_form(M, x, fr)
    assert F.isclose(ComplexForm(4, 2, {(0, 1): 1.0, (2, 3): 1.0}), tol=1e-15)


def test_flat_dF_and_lee_vanish():
    M = mf.builtin("flat_c2")
    x = np.array([0.2, -0.1, 0.4, 0.3])
    assert cn.dF_form(M, x).norm() < 1e-13
    assert cn.lee_form(M, x).norm() < 1e-13


@pytest.mark.parametrize("name", ["cp2_fs", "ch2"])
def test_kahler_builtins_have_zero_lee_form(name):
    M = mf.builtin(name)
    for x in interior_points(M, 5, seed=21):
        assert cn.dF_form(M, x).norm() < 1e-8
        assert cn.lee_form(M, x).norm() < 1e-8


def _lee_form_reference(M, x):
    """The Lee form through the exterior algebra: J(-*dF) over the adapted coframe."""
    frame = mf.adapted_frame(M, x)
    b = hodge_star_4(substitute(cn.dF_form(M, x), frame.E)) * (-1.0)
    b = [b.terms.get((i,), 0.0) for i in range(4)]
    return ComplexForm(4, 1, {(0,): -b[1], (1,): b[0], (2,): -b[3], (3,): b[2]})


@pytest.mark.parametrize("name", ["flat_c2", "cp2_fs", "ch2", "hopf"])
def test_lee_form_matches_the_exterior_algebra_reference(name):
    M = mf.builtin(name)
    for x in interior_points(M, 3, seed=5):
        alpha = cn.lee_form(M, x)
        assert (alpha - _lee_form_reference(M, x)).norm() <= 1e-13 * max(1.0, alpha.norm())
    stack = interior_points(M, 3, seed=5)
    E = mf.adapted_frame(M, stack).E
    stacked = cn.lee_components(M, stack, E)
    for k, x in enumerate(stack):
        assert np.array_equal(stacked[k], cn.lee_components(M, x, E[k]))


# the multi-operand einsums push_slots replaced, each with the slots it pushes
_REFERENCE_PUSHES = [
    ("...abc,...ai,...bj,...ck->...ijk", (0, 1, 2)),                # dF frame, (alpha o J) ^ F frame
    ("...mnrs,...mi,...nj,...rk,...sl->...ijkl", (0, 1, 2, 3)),     # Riemann, its covariant derivative
    ("...abc,...bj,...ck->...ajk", (1, 2)),                         # D^t forms, dF(JX, JY, JZ)
    ("...ijkl,...km,...ln->...ijmn", (2, 3)),                       # curvature 2-forms Om
    ("...mnpq,...mi,...nj->...ijpq", (0, 1)),                       # Om rotated into the fiber
    ("...ab,...am,...bn->...mn", (0, 1)),                           # 6x6 operator, bundle Hessian
]


@pytest.mark.parametrize("subscripts,slots", _REFERENCE_PUSHES)
@pytest.mark.parametrize("dtype", [float, complex])
def test_push_slots_matches_the_multi_operand_einsum(subscripts, slots, dtype):
    rng = np.random.default_rng(len(subscripts))
    k = subscripts.index(",") - 3
    T = rng.normal(size=(34,) + (4,) * k).astype(dtype)
    P = rng.normal(size=(34, 4, 3)) * (1.0 + (dtype is complex) * 1j)
    whole = mf.push_slots(T, P, slots)
    ref = np.einsum(subscripts, T, *[P] * len(slots))
    assert whole.shape == ref.shape
    assert np.all(np.abs(whole - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))
    for n in (1, 2):      # each point keeps its bits in any stack, and alone
        assert np.array_equal(mf.push_slots(T[:n], P[:n], slots), whole[:n])
    assert np.array_equal(mf.push_slots(T[5], P[5], slots), whole[5])


def test_hopf_lee_form_homogeneity():
    M = mf.builtin("hopf")
    xa = np.array([0.6, 0.55, 0.62, 0.5])
    xb = np.array([0.5, 0.62, 0.55, 0.6])  # same |z|
    na = cn.lee_form(M, xa).norm()
    nb = cn.lee_form(M, xb).norm()
    assert na > 0.1
    np.testing.assert_allclose(na, nb, rtol=1e-9)
    # conformally flat with factor 1/rho: the Lee form has h-norm exactly 2
    np.testing.assert_allclose(na, 2.0, rtol=1e-9)


def test_boundary_guard():
    M = mf.builtin("flat_c2")
    with pytest.raises(ValueError, match="point too close to boundary"):
        cn.dF_form(M, np.array([-0.9995, 0.0, 0.0, 0.0]))


# ----------------------------------------------------------------------
# differentiation backend sanity
# ----------------------------------------------------------------------

def _ddF(M, x):
    """d(dF) by FD of FD; identically zero up to roundoff (shifts commute)."""
    keys = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

    def coeffs(p):
        f = cn.dF_form(M, p)
        return np.array([f.terms.get(k, 0.0) for k in keys])

    raw = {}
    for l in range(4):
        d = M.backend.partial(coeffs, x, l)
        for k_i, key in enumerate(keys):
            raw[(l,) + key] = raw.get((l,) + key, 0.0) + d[k_i]
    return ComplexForm(4, 4, raw)


@pytest.mark.parametrize("name", mf.BUILTIN_NAMES)
def test_ddF_vanishes(name):
    M = mf.builtin(name)
    x = M.chart.box.mean(axis=1)
    assert _ddF(M, x).norm() < 1e-4


def _exact_hopf_dF(x):
    rho = float(np.dot(x, x))
    raw = {}
    for k in range(4):
        c = -2.0 * x[k] / rho ** 2
        for pair in ((0, 1), (2, 3)):
            key = (k,) + pair
            raw[key] = raw.get(key, 0.0) + c
    return ComplexForm(4, 3, raw)


def test_order4_halving_improves_truncation_error():
    # fourth-order backend: halving the step shrinks the truncation error of
    # dF against the closed form by ~16x; assert at least 8x
    x = np.array([0.66, 0.63, 0.65, 0.64])
    errs = []
    for step in (8e-2, 4e-2):
        M = mf.builtin("hopf", backend=mf.DiffBackend(step=step))
        errs.append((cn.dF_form(M, x) - _exact_hopf_dF(x)).norm())
    assert errs[0] / errs[1] >= 8.0


def test_order2_backend_also_converges():
    x = np.array([0.66, 0.63, 0.65, 0.64])
    errs = []
    for step in (8e-2, 4e-2):
        M = mf.builtin("hopf", backend=mf.DiffBackend(step=step, order=2))
        errs.append((cn.dF_form(M, x) - _exact_hopf_dF(x)).norm())
    assert errs[0] / errs[1] >= 3.5  # second order: ~4x


def test_backend_validation():
    with pytest.raises(ValueError, match="order must be 2 or 4"):
        mf.DiffBackend(order=3)
    with pytest.raises(ValueError, match="step must be positive"):
        mf.DiffBackend(step=0.0)


# ----------------------------------------------------------------------
# the per-surface point memo
# ----------------------------------------------------------------------

class ForgetfulMemo(mf.PointMemo):
    """A memo cleared before every lookup: every call recomputes."""

    def get(self, key, default=None):
        self.clear()
        return default


def _memo_results(M, x, zeta=0.3 + 0.2j):
    """Arrays from every memoized layer and from the stacks built on them."""
    fr = mf.adapted_frame(M, x)
    om_t, om_lc, fr_t = cn.omega_tilde_coord(M, x, 1.0)
    family = [cn.omega_tilde_coord(M, x, t)[0] for t in (-1.0, 0.5)]
    z = tw.TwistorPoint.from_zeta(x, zeta)
    sw = tw.CoframeSweep(M, "chern", z)
    co = tw.twistor_coframe(M, "chern", z)
    return [M.metric(x), mf.coordinate_fundamental_matrix(M, x), cn.christoffel(M, x),
            mf.adapted_basis(M, x), fr.E, fr.theta, fr.U, fr.eta, om_t, om_lc, fr_t.eta, *family,
            *_arrays(cn._base_table(M, x[None])),
            cn.levi_civita(M, x).R, cn.levi_civita(M, x).Gamma, cn.levi_civita(M, x).omega_frame,
            cn.levi_civita(M, np.stack([x, x + 0.01])).R, sw.B0, sw.dB, co.B,
            tw.dK_formula(3, 1.5, co).to_array(), sw.dK(3, 1.5).to_array()]


@pytest.mark.parametrize("name,x", [("cp2_fs", [0.21, -0.13, 0.08, 0.17]),
                                    ("hopf", [0.62, 0.55, 0.71, 0.68])])
def test_memoized_results_are_bit_identical_to_recomputed_ones(name, x):
    x = np.array(x)
    memoized = mf.builtin(name)
    recomputed = mf.builtin(name)
    recomputed._point_memo = ForgetfulMemo()
    for twice in range(2):          # the second pass is served from the memo
        for a, b in zip(_memo_results(memoized, x), _memo_results(recomputed, x)):
            assert np.array_equal(a, b)


def test_stored_arrays_are_read_only_and_inputs_stay_writable():
    G = 2.0 * np.eye(4)
    M = mf.HermitianSurface(mf.ChartSpec(("a", "b", "c", "d"), [[-1, 1]] * 4),
                            lambda x: G, lambda x: mf.J_STANDARD)
    x = np.array([0.1, 0.2, -0.3, 0.4])
    fr = mf.adapted_frame(M, x)
    stored = [M.metric(x), cn.christoffel(M, x), mf.coordinate_fundamental_matrix(M, x),
              fr.point, fr.E, fr.theta, fr.U, fr.eta, *cn.omega_tilde_coord(M, x, 0.0)[:2],
              *_arrays(cn._base_table(M, x[None]))]
    for arr in stored:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert G.flags.writeable and M.metric(x) is not G      # the callable's array
    assert x.flags.writeable and fr.point is not x          # the caller's point
    x[0] = 0.5
    assert mf.adapted_frame(M, np.array([0.1, 0.2, -0.3, 0.4])) is fr


def test_overflowing_the_memo_clears_it_and_results_stay_correct(monkeypatch):
    x = np.array([0.21, -0.13, 0.08, 0.17])
    expected = cn.levi_civita(mf.builtin("cp2_fs"), x).R
    monkeypatch.setattr(mf, "POINT_MEMO_LIMIT", 8)
    M = mf.builtin("cp2_fs")
    sizes, clears = [], []
    metric, clear = M._metric, M._point_memo.clear
    M._metric = lambda p: (sizes.append(len(M._point_memo)), metric(p))[1]
    M._point_memo.clear = lambda: (clears.append(len(M._point_memo)), clear())[1]
    assert np.array_equal(cn.levi_civita(M, x).R, expected)
    assert max(sizes) == 8 and len(M._point_memo) <= 8
    assert clears and max(clears) <= 8      # cleared by the appends of the one pass


def test_threads_sharing_a_surface_get_the_serial_results(monkeypatch):
    points = mf.builtin("hopf").chart.interior_points(6, seed=3)
    expected = [cn.christoffel(mf.builtin("hopf"), x) for x in points]
    monkeypatch.setattr(mf, "POINT_MEMO_LIMIT", 16)     # clears race with stores
    M = mf.builtin("hopf")
    errors, mismatches = [], []

    def work(k):
        try:
            for n in range(len(points)):
                j = (n + k) % len(points)
                if not np.array_equal(cn.christoffel(M, points[j]), expected[j]):
                    mismatches.append(j)
        except Exception as exc:    # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == [] and mismatches == []
    assert len(M._point_memo) <= 16 + len(threads)


def _arrays(value):
    """Every array of a memoized result, in field order."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [a for item in value for a in _arrays(item)]
    return [a for field in dataclasses.fields(value) for a in _arrays(getattr(value, field.name))]


def test_duplicates_within_a_stack_reach_fn_once():
    G = 2.0 * np.eye(4)
    batches = []
    M = mf.HermitianSurface(mf.ChartSpec(("a", "b", "c", "d"), [[-1, 1]] * 4),
                            mf.stack_field(lambda x: (batches.append(x.copy()),
                                                      np.broadcast_to(G, x.shape[:-1] + (4, 4)))[1]),
                            lambda x: mf.J_STANDARD)
    pts = M.chart.interior_points(6, seed=7)
    M.metric(pts[:3])
    batches.clear()
    g = M.metric(pts[[1, 4, 4, 5, 1, 5, 0, 4]].reshape(2, 4, 4))
    assert len(batches) == 1 and np.array_equal(batches[0], pts[[4, 5]])
    assert g.shape == (2, 4, 4, 4) and np.array_equal(g, np.broadcast_to(G, g.shape))


@pytest.mark.parametrize("layer", [
    mf.adapted_frame,
    lambda M, x: cn.omega_tilde_coord(M, x, 1.0),
    cn.levi_civita,
    cn._base_table,
    cn.christoffel,
])
def test_a_stack_from_earlier_batches_and_new_misses_matches_a_forgetful_memo(layer):
    memoized, recomputed = mf.builtin("hopf"), mf.builtin("hopf")
    recomputed._point_memo = ForgetfulMemo()
    pts = memoized.chart.interior_points(7, seed=11)
    layer(memoized, pts[:3])                 # two earlier batches
    layer(memoized, pts[3:5])
    stack = pts[[4, 0, 6, 2, 6, 5]].reshape(2, 3, 4)     # and two new points, one twice
    got, want = _arrays(layer(memoized, stack)), _arrays(layer(recomputed, stack))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape[:2] == (2, 3) and np.array_equal(a, b) and not a.flags.writeable


# the five memoized functions, each with the params of its table
MEMOIZED = {
    "_frame_fields": (mf._frame_fields, ()),
    "adapted_frame": (mf.adapted_frame, ()),
    "_base_table": (cn._base_table, ()),
    "levi_civita": (cn.levi_civita, ()),
    "_omega_rows": (cn._omega_rows, (0.5,)),
}

# g_11 = g_22 vanish on a = 0.001, where no frame exists and E is NaN
_NO_FRAME_ON_A_LINE = "coords a b c d\ng 1 1 = (a - 0.001)^2\ng 2 2 = (a - 0.001)^2\nJ standard\n"


def _memo_surface(name):
    if name == "no frame":
        return mf.parse_surface_spec(_NO_FRAME_ON_A_LINE, name=name)
    return mf.builtin(name)


def _row(value, k):
    """The result of point k of a stacked result, its arrays indexed as a[k]."""
    if isinstance(value, np.ndarray):
        return value[k]
    if isinstance(value, tuple):
        return tuple(_row(item, k) for item in value)
    return type(value)(*(_row(getattr(value, f.name), k) for f in dataclasses.fields(value)))


def _assert_same_result(got, want, leaves):
    """got has want's structure, and leaf by leaf its type, dtype, shape and
    bytes (so -0.0 and NaN payloads too), and is read-only; the leaves are
    collected on the list `leaves`."""
    assert type(got) is type(want)
    if isinstance(want, (np.ndarray, np.generic)):
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
        assert not got.flags.writeable
        leaves.append(got)
        return
    pairs = zip(got, want) if isinstance(want, tuple) else (
        (getattr(got, f.name), getattr(want, f.name)) for f in dataclasses.fields(want))
    for a, b in pairs:
        _assert_same_result(a, b, leaves)


@pytest.mark.parametrize("name", MEMOIZED)
def test_memoized_answers_have_the_types_dtypes_and_bits_of_a_recompute(name):
    # a table keeps its results as one flat list of arrays and rebuilds each
    # answer from it: a fresh lookup (the batch), a warm one (rows taken from
    # the table), a mixed one over segments (stored rows, new misses, a
    # repeated point, two surfaces) and one point alone must all answer as
    # the body does on fresh surfaces, where no table holds a row
    fn, params = MEMOIZED[name]
    framed = name in ("_frame_fields", "_base_table")        # readers of no frame
    names = ("hopf", "cp2_fs", "no frame") if framed else ("hopf", "cp2_fs")
    surfaces = {S: _memo_surface(S) for S in names}
    pts = {S: surfaces[S].chart.interior_points(4, seed=5) for S in names}
    if framed:      # a point without a frame (E NaN), or with a stencil point without (omega^LC NaN)
        pts["no frame"][1, 0] = 0.001 if name == "_frame_fields" else 0.0

    def recompute(*segments):
        return fn.__wrapped__([(_memo_surface(S), x) for S, x in segments], *params)

    M, x = surfaces["hopf"], pts["hopf"]
    leaves = []
    for _ in range(2):                      # fresh, then warm
        _assert_same_result(fn(M, x[:2], *params), recompute(("hopf", x[:2])), leaves)
    segments = [("hopf", x[[1, 2, 2, 0]]), *((S, pts[S]) for S in names[1:])]
    mixed = fn([(surfaces[S], p) for S, p in segments], None, *params)
    _assert_same_result(mixed, recompute(*segments), leaves)
    one = fn(M, x[3], *params)
    assert fn(M, x[3], *params) is one and fn(M, x[3].copy(), *params) is one
    _assert_same_result(one, _row(recompute(("hopf", x[3:])), 0), leaves)
    kinds = {a.dtype.kind for a in leaves}
    assert "f" in kinds and kinds <= {"f", "c", "b"}
    if name in ("_frame_fields", "_base_table"):
        assert "b" in kinds                 # the frame flags
    if name in ("adapted_frame", "_base_table", "levi_civita", "_omega_rows"):
        assert "c" in kinds                 # U and eta
    if framed:      # NaN where no frame exists, and -0.0 in cp2_fs's g
        floats = [a for a in leaves if a.dtype.kind == "f"]
        assert any(np.isnan(a).any() for a in floats) and any((np.signbit(a) & (a == 0)).any() for a in floats)


def test_the_limit_counts_points_over_all_functions_and_clearing_drops_the_stores(monkeypatch):
    monkeypatch.setattr(mf, "POINT_MEMO_LIMIT", 40)
    M = mf.builtin("cp2_fs")
    assert len(M._point_memo) == 16          # g, E and F at the 16 validation points
    pts = M.chart.interior_points(15, seed=9)
    M.metric(pts)
    mf.coordinate_fundamental_matrix(M, pts)     # the same table: no new point
    assert len(M._point_memo) == 31 == sum(table.size for table in M._point_memo.values())
    # each table keeps its results as one flat list of arrays (its leaves),
    # every one holding a row per stored point
    assert [len(table.leaves) for table in M._point_memo.values()] == [4]      # g, E, F, degenerate
    assert all(len(a) == 31 for table in M._point_memo.values() for a in table.leaves)
    stores = [weakref.ref(a) for table in M._point_memo.values() for a in table.leaves]
    mf.adapted_frame(M, pts)                 # 31 + 15 = 46 points would pass the limit: cleared
    assert len(M._point_memo) == (46 - 1) % 40 + 1 == 6
    assert [(table.size, len(table.leaves)) for table in M._point_memo.values() if table.size] == [(6, 5)]
    assert all(len(a) == 6 for table in M._point_memo.values() for a in table.leaves)
    gc.collect()
    assert all(ref() is None for ref in stores)
    frame = mf.adapted_frame(mf.builtin("cp2_fs"), pts)
    assert np.array_equal(mf.adapted_frame(M, pts).E, frame.E)


# ----------------------------------------------------------------------
# stacks of points
# ----------------------------------------------------------------------

# the sin/cos/tanh/exp/sqrt surface of test_parse_expressions_and_comments
FUNCTIONS_SPEC = """\
coords a b c d
domain a 0.5 2
g 1 1 = 1/(1 + a^2)
g 2 2 = 1/(1 + a^2)
g 3 3 = sqrt(4) + sin(c)*cos(c) - tanh(exp(0 - d^2))
g 4 4 = sqrt(4) + sin(c)*cos(c) - tanh(exp(0 - d^2))
J standard
"""


# the statement template of each operation of a parsed tree, in the
# straight-line program that `_Program` emitted and exec'd before it
# evaluated its steps itself
_TEMPLATES = {operator.add: "{} + {}", operator.sub: "{} - {}", operator.mul: "{} * {}",
              operator.truediv: "{} / {}", operator.neg: "-{}",
              **{step: f"_f_{name}({{}})" for name, step in mf._STEPS.items()}}


def _statement_tree(tree):
    """A parsed tree in the straight-line program's form: a literal's text,
    or (template, *children), the template holding a `{}` per child."""
    if not isinstance(tree, tuple):
        return tree
    op, *children = tree
    if op in mf._COLUMNS:
        return (f"x[..., {mf._COLUMNS.index(op)}]",)
    if op is mf._power:
        return (f"_f_pow({{}}, {children[1]})", _statement_tree(children[0]))
    return (_TEMPLATES[op], *map(_statement_tree, children))


def _reference_elementwise(fn):
    """`_elementwise` as it was: fn called at every entry."""
    def apply(a):
        if np.ndim(a) == 0:
            return fn(a)
        return np.array([fn(v) for v in np.ravel(a).tolist()]).reshape(np.shape(a))
    return apply


def _reference_power(a, n):
    """`_power` as it was: v ** n at every entry."""
    if np.ndim(a) == 0:
        return a ** n
    flat = np.ravel(a).tolist()
    try:
        out = [v ** n for v in flat]
    except (ZeroDivisionError, OverflowError):
        out = [np.float64(v) ** n for v in flat]
    return np.array(out).reshape(np.shape(a))


def _reference_program(trees):
    """(statements, outputs, run) of the straight-line python that
    `_Program` emitted and exec'd for the parsed trees: one statement per
    distinct tree, its children first, and run(x) -> the tuple of the
    trees' values, with `math` and pow called at every entry."""
    names, lines = {}, []

    def emit(tree):
        if isinstance(tree, str):
            return tree
        name = names.get(tree)
        if name is None:
            template, *children = tree
            src = template.format(*map(emit, children))
            name = names[tree] = f"_v{len(names)}"
            lines.append(f"    {name} = {src}")
        return name
    outputs = [emit(_statement_tree(tree)) for tree in trees]
    env = {f"_f_{name}": _reference_elementwise(fn) for name, fn in mf._FUNCS.items()}
    env["_f_pow"] = _reference_power
    exec("def program(x):\n" + "\n".join(lines + [f"    return ({''.join(o + ', ' for o in outputs)})"]), env)
    return lines, outputs, env["program"]


def _statements(program, outputs):
    """The steps of a `_Program` written as the statements of the straight-line
    program (the step of slot k named _v0, _v1, ... in order), and the names
    of the slots `outputs`."""
    trees = {slot: tree for tree, slot in program.slots.items()}
    names, lines = {}, []

    def name(slot):         # a step's temporary, or a literal's text
        return names.get(slot, str(trees[slot]))
    for slot, op, a, b in program.steps:
        if op in mf._COLUMNS:
            src = f"x[..., {mf._COLUMNS.index(op)}]"
        elif op is mf._power:
            src = f"_f_pow({name(a)}, {name(b)})"
        else:
            src = _TEMPLATES[op].format(*map(name, [a] if b is None else [a, b]))
        names[slot] = f"_v{len(names)}"
        lines.append(f"    {names[slot]} = {src}")
    return lines, [name(k) for k in outputs]


def _subtrees(tree, seen):
    if isinstance(tree, tuple) and tree not in seen:
        seen.add(tree)
        for child in tree[1:]:
            _subtrees(child, seen)
    return seen


@pytest.mark.parametrize("text", [mf._builtin_flat_c2(), mf._builtin_cp2_fs(2.0), mf._builtin_ch2(2.0),
                                  mf._builtin_hopf(), FUNCTIONS_SPEC, ENTRY_J_SPEC],
                         ids=[*mf.BUILTIN_NAMES, "functions", "entry_J"])
def test_each_tree_is_emitted_once_into_the_statements_of_the_full_walk(text, monkeypatch):
    # the program's steps are the statements of the straight-line program,
    # in its order, and no two of them have one source text
    programs, emits = [], []
    compile_, emit, matrix_field = mf._Program.compile, mf._Program.emit, mf._matrix_field
    monkeypatch.setattr(mf, "_matrix_field", lambda entries, fill: (
        programs.append([list(entries.values())]), matrix_field(entries, fill))[1])
    monkeypatch.setattr(mf._Program, "emit", lambda self, tree: (emits.append(tree), emit(self, tree))[1])
    monkeypatch.setattr(mf._Program, "compile", lambda self, outputs: (
        programs[-1].append(_statements(self, outputs)), compile_(self, outputs))[1])
    mf.parse_surface_spec(text)
    for trees, *compiled in programs:       # g, and J where given entry by entry
        lines, outputs, _ = _reference_program(trees)
        assert compiled == [(lines, outputs)]
        assert len({line.split(" = ", 1)[1] for line in lines}) == len(lines)
    # the entries, then the children of each distinct tree of a program, once
    distinct = [set().union(*(_subtrees(tree, set()) for tree in trees)) for trees, *_ in programs]
    assert len(emits) == sum(len(trees) + sum(len(t) - 1 for t in d) for (trees, *_), d in zip(programs, distinct))


# expression texts over the whole grammar: every function and operator,
# negative and leading-zero exponents, unary minus, literals of each form,
# and subexpressions that occur twice
_LITERAL_TEXTS = st.sampled_from(["0", "1", "2", "007", "10", "0.5", "1e-1", "3.", ".25", "2E2", "1e308", "0.0"])
_EXPONENT_TEXTS = st.sampled_from(["2", "3", "1", "0", "02", "-1", "-2", "-03"])


def _grow(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/"]), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(sorted(mf._FUNCS)), inner).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(inner, _EXPONENT_TEXTS).map(lambda t: f"({t[0]})^{t[1]}"),
        inner.map(lambda e: f"-{e}"),
        inner.map(lambda e: f"{e} / (1 + ({e})^2)"),
    )


_EXPRESSIONS = st.recursive(st.one_of(_LITERAL_TEXTS, st.sampled_from(["a", "b", "c", "d"])), _grow, max_leaves=10)

# stack entries: signed zeros, NaNs of two payloads, infinities, values
# outside the domains of log, sqrt and exp, and ordinary ones
_NAN_PAYLOAD = float(np.array([0x7FF8000000000123], np.uint64).view(np.float64)[0])
_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, math.nan, _NAN_PAYLOAD, math.inf, -math.inf,
                                      -1.0, -2.5, 1e3, -1e3, 1e200, 1e-300, 0.5, 2.0]),
                     st.floats(-10, 10))
_ROWS = st.lists(st.lists(_ENTRIES, min_size=4, max_size=4), min_size=1, max_size=3)
_STACKS = st.tuples(_ROWS, st.lists(st.integers(0, 2), min_size=1, max_size=8)).map(
    lambda t: np.array([t[0][k % len(t[0])] for k in t[1]]))      # rows that repeat


def _bits(value):
    """The type and the bits of a value: an array's dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        return "ndarray", value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return type(value).__name__, struct.pack("<d", value)
    return type(value).__name__, repr(value)


def _outcome(run, x):
    """The bits of run(x)'s values, or the type and message of its error."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return [_bits(v) for v in run(x)]
        except Exception as exc:    # noqa: BLE001 - compared below
            return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(_EXPRESSIONS, min_size=1, max_size=4), x=_STACKS)
def test_the_evaluator_has_the_bits_and_errors_of_the_straight_line_program(texts, x):
    trees = [mf._ExprParser(text, "abcd", 1, 0).parse() for text in texts + texts[:1]]
    program = mf._Program()
    run = program.compile([program.emit(tree) for tree in trees])
    *_, reference = _reference_program(trees)
    for points in (x, x[0], x[None]):
        assert _outcome(run, points) == _outcome(reference, points)


@settings(max_examples=200, deadline=None)
@given(x=_STACKS)
def test_each_calls_fn_once_per_distinct_bit_pattern_and_raises_the_first_failing_entry(x):
    def fn(v):
        seen.append(struct.pack("<d", v))
        if v < -2.0:
            raise ValueError(f"refused {v!r}")
        return v * 3.0 + 1.0
    seen = []
    want = _outcome(lambda a: [_reference_elementwise(fn)(a)], x)
    seen = []
    got = _outcome(lambda a: [mf._each(fn, a)], x)
    assert got == want
    if isinstance(got, list):
        assert sorted(seen) == sorted({v.tobytes() for v in x.ravel()})


def test_power_and_math_functions_run_once_per_distinct_bit_pattern(monkeypatch):
    calls = []
    each = mf._each
    monkeypatch.setattr(mf, "_each", lambda fn, a: each(lambda v: (calls.append(v), fn(v))[1], a))
    a = np.array([[0.5, -0.0, 0.0, 0.5], [math.nan, _NAN_PAYLOAD, -0.0, 2.0]])
    positive = np.array([0.5, 2.0, 0.5, math.nan, 3.0, 2.0])
    for name, step in [*mf._STEPS.items(), ("^2", lambda v: mf._power(v, 2)), ("^-3", lambda v: mf._power(v, -3))]:
        x = positive if name == "log" else a
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = step(x)
            want = (_reference_power(x, int(name[1:])) if name.startswith("^")
                    else _reference_elementwise(mf._FUNCS[name])(x))
        assert got.tobytes() == want.tobytes() and got.shape == x.shape, name
        if name != "^-3":       # 0.0 ** -3 takes numpy's scalar power at every entry
            assert len(calls) == len({v.tobytes() for v in x.ravel()}), name
    for name in ("sqrt", "sin", "tanh"):
        assert np.signbit(mf._STEPS[name](a)[0, 1]) and not np.signbit(mf._STEPS[name](a)[0, 2])


def _reference_validation(pts, g, Jm):
    """The message of `_validate_samples` with np.isclose, or None."""
    gT = np.swapaxes(g, 1, 2)

    def close(a, b):
        return np.all(np.isclose(a, b, atol=1e-10), axis=(1, 2))
    finite = np.all(np.isfinite(g), axis=(1, 2))
    h = np.where(finite[:, None, None], 0.5 * (g + gT), np.eye(4))
    bad = np.stack([~finite, ~close(g, gT), np.min(np.linalg.eigvalsh(h), axis=1) <= 1e-10,
                    ~close(Jm @ Jm, -np.eye(4)), ~close(np.swapaxes(Jm, 1, 2) @ g @ Jm, g)], axis=1)
    if bad.any():
        k = int(np.argmax(bad.any(axis=1)))
        return f"surface invariant violation at sample point {pts[k].tolist()}: {mf._INVARIANTS[int(np.argmax(bad[k]))]}"
    return None


_DEFECT_SCALES = st.sampled_from([1e-12, 5e-11, 1e-10, 1.5e-10, 1e-6, 1e-5, 2e-5, 1.0, math.nan, math.inf, -math.inf])


@st.composite
def _sample_fields(draw):
    """A J-invariant metric diag(a, a, b, b) and the standard J at a point,
    each with at most one entry moved by a drawn amount (up to a NaN or an
    infinity), or with a diagonal entry below zero."""
    a, b = draw(st.floats(0.25, 4.0)), draw(st.floats(1e-3, 4.0))
    g, J = np.diag([a, a, b, b]), mf.J_STANDARD.copy()
    kind = draw(st.sampled_from(["none", "g", "g symmetric", "J", "negative"]))
    i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    delta = draw(_DEFECT_SCALES) * draw(st.sampled_from([1.0, -1.0]))
    if kind == "g":
        g[i, j] += delta * (1.0 + abs(g[i, j]))
    elif kind == "g symmetric":
        g[i, j] += delta
        g[j, i] = g[i, j]
    elif kind == "J":
        J[i, j] += delta
    elif kind == "negative":
        g[i, i] = -abs(delta)
    return g, J


@settings(max_examples=300, deadline=None)
@given(fields=st.lists(st.sampled_from([None]) | _sample_fields(), min_size=16, max_size=16))
def test_validation_names_the_point_and_check_of_the_isclose_version(fields):
    good = (np.diag([1.0, 1.0, 2.0, 2.0]), mf.J_STANDARD)
    g = np.array([(f or good)[0] for f in fields])
    Jm = np.array([(f or good)[1] for f in fields])
    chart = mf.ChartSpec(("a", "b", "c", "d"), [[-1, 1]] * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = _reference_validation(chart.interior_points(16, seed=2024), g, Jm)
        try:
            mf.HermitianSurface(chart, mf.stack_field(lambda x: g), mf.stack_field(lambda x: Jm))
            got = None
        except ValueError as exc:
            got = str(exc)
    assert got == want


@pytest.mark.parametrize("argv", [["scan", "--surface", "cp2_fs", "--lambda-range", "1:2", "--grid", "3"],
                                  ["report", "--surface", "hopf", "--connection", "chern", "--points", "2"]])
def test_a_fresh_invocation_makes_no_point_memo_lookup_under_the_metrics_name(argv, monkeypatch, capsys):
    # every read of g goes to the frame-field table; the metric has no table
    from twistorlab.cli import main
    looked = []
    lookup = mf._lookup
    monkeypatch.setattr(mf, "_lookup", lambda name, *rest: (looked.append(name[0].__name__), lookup(name, *rest))[1])
    assert main(argv) == 0
    capsys.readouterr()
    assert "_frame_fields" in looked and "metric" not in looked
    assert not hasattr(mf.HermitianSurface.metric, "__wrapped__")


def stack_surface(name):
    """A fresh surface, so that its memo holds nothing yet."""
    return mf.parse_surface_spec(FUNCTIONS_SPEC) if name == "functions" else mf.builtin(name)


def _stack(M):
    """Seven interior points and a repeat of two of them, as a (3, 3, 4) stack."""
    pts = M.chart.interior_points(7, seed=5)
    return np.concatenate([pts, pts[[2, 4]]]).reshape(3, 3, 4)


def _point_results(M, x):
    fr = mf.adapted_frame(M, x)
    om_t, om_lc, fr_t = cn.omega_tilde_coord(M, x, 1.0)
    return [M.metric(x), M.J(x), fr.point, fr.E, fr.theta, fr.U, fr.eta,
            cn.christoffel(M, x), om_t, om_lc, fr_t.E, fr_t.eta]


@pytest.mark.parametrize("name", [*mf.BUILTIN_NAMES, "functions"])
def test_a_stack_gives_the_results_of_its_points_one_at_a_time(name):
    pts = _stack(stack_surface(name))
    stacked = _point_results(stack_surface(name), pts)
    single = stack_surface(name)
    for a in range(3):
        for b in range(3):
            for whole, one in zip(stacked, _point_results(single, pts[a, b])):
                assert whole.shape == (3, 3) + one.shape
                assert np.array_equal(whole[a, b], one)


@pytest.mark.parametrize("name", [*mf.BUILTIN_NAMES, "functions"])
def test_compiled_descriptions_keep_the_bits_of_scalar_evaluation(name):
    M = stack_surface(name)
    pts = _stack(M).reshape(-1, 4)
    g = M._metric(pts)
    for p, gp in zip(pts, g):
        assert np.array_equal(gp, M._metric(p))     # numpy scalars on one point


def test_a_failing_stack_names_the_point_met_first_one_at_a_time():
    # at p the second seed check fails (J d1 = d3, the second seed); at q the
    # first (h(e1, e1) ~ 0), which the stack checks for all its points first
    swapped = mf.parse_surface_spec(SWAPPED_J_SPEC).J(np.zeros(4))

    def metric(x):
        return np.diag([1e-20, 1.0, 1.0, 1.0]) if x[0] == 0.5 else np.eye(4)
    M = mf.HermitianSurface(mf.ChartSpec(("a", "b", "c", "d"), [[-1, 1]] * 4),
                            metric, lambda x: swapped if x[0] == 0.1 else mf.J_STANDARD)
    with pytest.raises(mf.DegenerateFrameError, match=r"^seed degenerate at point \[0\.1, 0\.0, 0\.0, 0\.0\]: "):
        mf.adapted_frame(M, np.array([[0.1, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0]]))


class _RunError(Exception):
    pass


_REPLAY_CASES = st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.integers(0, n - 1)), st.booleans(),
    st.sampled_from([list, tuple, np.array])))


@settings(max_examples=200, deadline=None)
@given(_REPLAY_CASES)
def test_replay_raises_the_error_of_the_first_part_that_fails_alone(case):
    # run fails on a stack holding a failing part, on any stack of several
    # parts when `stacked` is set, and on a part alone when it is failing
    n, failing, stacked, kind = case
    parts = kind(range(n))
    calls = []

    def run(part):
        calls.append([int(k) for k in part])
        bad = sorted(int(k) for k in part if k in failing)
        if len(part) == 1 and bad:
            raise _RunError(bad[0])
        if len(part) > 1 and (bad or stacked):
            raise _RunError("stack")
        return "done"

    whole = list(range(n))
    if not failing and not (stacked and n > 1):
        assert mf.replay(run, parts) == "done"
        assert calls == [whole]                 # one call on success
        return
    with pytest.raises(_RunError) as info:
        mf.replay(run, parts)
    if n == 1:
        assert calls == [whole] and info.value.args == (0,)     # not re-run
    elif failing:
        first = min(failing)                    # no part after it runs
        assert calls == [whole] + [[k] for k in range(first + 1)]
        assert info.value.args == (first,)
    else:
        assert calls == [whole] + [[k] for k in range(n)]
        assert info.value.args == ("stack",)


def test_entries_written_out_of_order_fail_in_slot_order():
    # at x1 = -1 both kinds of entry fail; g 1 1 comes first in slot order.
    # The metric's error names the first failing point, and the error of
    # the compiled entries there is its cause
    M = mf.parse_surface_spec("coords x1 x2 x3 x4\ndomain x1 0.5 1\n"
                              "g 3 3 = 2 + log(x1)^2\ng 4 4 = 2 + log(x1)^2\n"
                              "g 1 1 = 1 + exp(-1000*x1)\ng 2 2 = 1 + exp(-1000*x1)\nJ standard\n")
    both, log_only = [-1.0, 0.0, 0.0, 0.0], [-0.001, 0.0, 0.0, 0.0]
    for x, error, message in [([both], OverflowError, "math range error"),
                              ([both, log_only], OverflowError, "math range error"),
                              ([log_only, both], ValueError, "math domain error")]:
        for stack in (np.array(x), np.array(x)[None]):
            with pytest.raises(mf.MetricEvaluationError) as info:
                M.metric(stack)
            assert str(info.value) == f"metric undefined at point {x[0]}: {message}"
            assert type(info.value.__cause__) is error and str(info.value.__cause__) == message
        with pytest.raises(error, match=f"^{message}$"):
            M._metric(np.array(x[0]))


def test_duplicates_in_a_stack_reach_a_pointwise_metric_once():
    G = 2.0 * np.eye(4)
    seen = []
    M = mf.HermitianSurface(mf.ChartSpec(("a", "b", "c", "d"), [[-1, 1]] * 4),
                            lambda x: (seen.append(np.shape(x)), G)[1], lambda x: mf.J_STANDARD)
    pts = M.chart.interior_points(5, seed=3)
    seen.clear()
    g = M.metric(np.concatenate([pts, pts[::-1]]))
    assert seen == [(4,)] * 5                        # point by point, each point once
    assert np.array_equal(g, np.broadcast_to(G, (10, 4, 4)))
    assert np.array_equal(M.J(pts), np.broadcast_to(mf.J_STANDARD, (5, 4, 4)))
    fr = mf.adapted_frame(M, pts)
    other = mf.HermitianSurface(M.chart, lambda x: G, lambda x: mf.J_STANDARD)
    for k, p in enumerate(pts):
        assert np.array_equal(fr.E[k], mf.adapted_frame(other, p).E)
        assert np.array_equal(cn.christoffel(M, pts)[k], cn.christoffel(other, p))


def test_conformal_rescale_with_a_callable_is_evaluated_point_by_point():
    base = mf.builtin("hopf")
    seen = []

    def f(x):
        seen.append(np.shape(x))
        return 0.1 * x[0]

    pointwise = tw.conformal_rescale(base, f)
    compiled = tw.conformal_rescale(mf.builtin("hopf"), "0.1*x1")
    pts = base.chart.interior_points(6, seed=4)
    seen.clear()
    g = pointwise.metric(pts)
    assert seen == [(4,)] * 6
    assert np.array_equal(g, compiled.metric(pts))
    for k, p in enumerate(pts):
        assert np.array_equal(cn.christoffel(pointwise, pts)[k], cn.christoffel(compiled, p))


def test_partials_match_partial_direction_by_direction():
    M = mf.builtin("cp2_fs")
    pts = M.chart.interior_points(3, seed=8)
    for be in (mf.DiffBackend(), mf.DiffBackend(order=2, step=[1e-3, 2e-3, 3e-3, 4e-3])):
        d = be.partials(M.metric, pts)
        assert d.shape == (3, 4, 4, 4)
        for n, p in enumerate(pts):
            for k in range(4):
                assert np.array_equal(d[n, k], be.partial(M.metric, p, k))


def _reference_stencil(be, x, dirs=None):
    """The stencil as four (or two) sums of x and h e_k, stacked."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    dirs = range(n) if dirs is None else dirs
    e = np.eye(n)[list(dirs)].reshape((-1,) + (1,) * (x.ndim - 1) + (n,))
    s = np.asarray(be.step)
    h = np.array([float(s if s.ndim == 0 else s[k]) for k in dirs]).reshape((-1,) + (1,) * x.ndim)
    if be.order == 2:
        return np.stack([x + h * e, x - h * e], axis=1)
    return np.stack([x + 2 * h * e, x + h * e, x - h * e, x - 2 * h * e], axis=1)


@pytest.mark.parametrize("be", [mf.DiffBackend(), mf.DiffBackend(order=2, step=0.37),
                                mf.DiffBackend(step=[1e-3, 2e-3, 3e-4, 0.1]),
                                mf.DiffBackend(order=2, step=[1e-3, 2e-3, 3e-4, 0.1])])
@pytest.mark.parametrize("shape", [(4,), (3, 4), (2, 5, 4)])
def test_the_stencil_has_the_bits_of_the_sums_of_the_point_and_its_steps(be, shape):
    x = np.random.default_rng(len(shape)).normal(size=shape)
    x.flat[:3] = (-0.0, 0.0, -0.0)      # signed zeros keep their sign where the step is 0
    for dirs in (None, [2], [3, 0]):
        got, want = be.stencil(x, dirs), _reference_stencil(be, x, dirs)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# one surface per segment, and the twistor chart's six coordinates
_STENCIL_SURFACES = ("hopf", "cp2_fs", "flat_c2", "ch2")


@pytest.mark.parametrize("stencils", [True, False])
@pytest.mark.parametrize("sizes", [(1,), (2,), (5,), (1, 2, 5), (5, 1, 2, 2), "chart"])
def test_with_stencils_lays_out_each_segment_with_its_own_stencil(sizes, stencils):
    # every segment's stencil comes from one stencil call over the joined
    # points, with the bits of the segment's own; split cuts the values back,
    # the values at the stencils only when asked for
    if sizes == "chart":
        M = mf.builtin("hopf")
        segments = [(M, np.array([z.chart_coordinates() for z in tw.sample_twistor_points(M, 3, seed=2)]))]
    else:
        segments = [(mf.builtin(_STENCIL_SURFACES[k % 4]),
                     mf.builtin(_STENCIL_SURFACES[k % 4]).chart.interior_points(n, seed=k))
                    for k, n in enumerate(sizes)]
    be = segments[0][0].backend
    parts, split = mf.with_stencils(segments)
    for (M, x), (S, p) in zip(segments, parts):
        own = be.stencil(x).reshape(-1, x.shape[-1])
        assert S is M and p.tobytes() == np.concatenate([x, own]).tobytes()
    values = np.concatenate([p for _, p in parts])[:, :, None] * np.array([1.0, -2.0])   # (P, n, 2)
    at, around = split(values, stencils)
    want = np.concatenate([be.stencil(x)[..., None] * np.array([1.0, -2.0]) for _, x in segments], axis=2)
    if stencils:
        assert around.shape == want.shape and around.tobytes() == want.tobytes()
    else:
        assert around is None
    assert at.tobytes() == np.concatenate([x[..., None] * np.array([1.0, -2.0]) for _, x in segments]).tobytes()
    if len(segments) == 1:          # one segment's values are cut out as views
        assert np.shares_memory(at, values) and (around is None or np.shares_memory(around, values))


def _dF_array_reference(M, x):
    """dF at one point by the per-point partial of F's components, each
    coefficient (d_a F_bc - d_b F_ac) + d_c F_ab written to its six orderings."""
    F = lambda p: mf.coordinate_fundamental_matrix(M, p)  # noqa: E731
    dF = np.stack([M.backend.partial(F, x, k) for k in range(4)])
    out = np.zeros((4, 4, 4))
    for a, b, c in itertools.combinations(range(4), 3):
        v = dF[a, b, c] - dF[b, a, c] + dF[c, a, b]
        v = 0.0 if abs(v) < ZERO_EPS else v
        for (i, j, k), sign in ((((a, b, c), 1), ((b, c, a), 1), ((c, a, b), 1),
                                 ((b, a, c), -1), ((a, c, b), -1), ((c, b, a), -1))):
            out[i, j, k] = v if sign > 0 or v == 0.0 else -v
    return out


@pytest.mark.parametrize("name", ["hopf", "cp2_fs", "flat_c2"])
def test_dF_array_matches_the_per_point_reference(name):
    M = mf.builtin(name)
    pts = M.chart.interior_points(4, seed=5)
    stacked = cn.dF_array(M, pts)
    for n, x in enumerate(pts):
        want = _dF_array_reference(M, x)
        assert np.array_equal(stacked[n], want) and np.array_equal(cn.dF_array(M, x), want)
        assert np.array_equal(np.signbit(stacked[n]), np.signbit(want))
        assert np.array_equal(cn.dF_form(M, x).to_array(), want)


def test_threads_sharing_a_surface_get_the_serial_results_for_stacks(monkeypatch):
    points = mf.builtin("hopf").chart.interior_points(6, seed=3)
    stacks = [np.roll(points, k, axis=0)[:4] for k in range(len(points))]
    serial = mf.builtin("hopf")
    expected = [(cn.christoffel(serial, s), mf.adapted_frame(serial, s).E) for s in stacks]
    monkeypatch.setattr(mf, "POINT_MEMO_LIMIT", 16)     # clears race with stores
    M = mf.builtin("hopf")
    errors, mismatches = [], []

    def work(k):
        try:
            for n in range(len(stacks)):
                j = (n + k) % len(stacks)
                Gm, E = cn.christoffel(M, stacks[j]), mf.adapted_frame(M, stacks[j]).E
                if not (np.array_equal(Gm, expected[j][0]) and np.array_equal(E, expected[j][1])):
                    mismatches.append(j)
        except Exception as exc:    # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == [] and mismatches == []
