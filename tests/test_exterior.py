import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twistorlab
from twistorlab.exterior import (
    ComplexForm,
    SdAsdBasis,
    antisymmetric_array,
    bidegree_rows,
    cut,
    d_rows,
    hodge_star_4,
    sd_asd_split,
    substitute,
    wedge,
    wedge_all,
    wedge_vectors,
)


def random_form(rng, dim, degree, nterms=3):
    keys = list(itertools.combinations(range(dim), degree))
    picks = rng.choice(len(keys), size=min(nterms, len(keys)), replace=False)
    terms = {keys[i]: complex(rng.standard_normal(), rng.standard_normal()) for i in picks}
    return ComplexForm(dim, degree, terms)


# ----------------------------------------------------------------------
# wedge basics
# ----------------------------------------------------------------------

def test_wedge_basis_case():
    e1 = ComplexForm.basis(4, (0,))
    e2 = ComplexForm.basis(4, (1,))
    w = wedge(e1, e2)
    assert w.terms == {(0, 1): 1.0 + 0.0j}


def test_wedge_self_is_zero():
    e1 = ComplexForm.basis(4, (0,))
    assert wedge(e1, e1).terms == {}


def test_wedge_complex_combination():
    # (e0 + i e1) ^ (e0 - i e1) = -2i e0^e1, by hand
    a = ComplexForm(4, 1, {(0,): 1.0, (1,): 1.0j})
    b = ComplexForm(4, 1, {(0,): 1.0, (1,): -1.0j})
    w = wedge(a, b)
    assert w.isclose(ComplexForm(4, 2, {(0, 1): -2.0j}), tol=1e-14)


def test_wedge_dimension_mismatch():
    a = ComplexForm.basis(4, (0,))
    b = ComplexForm.basis(6, (0,))
    with pytest.raises(ValueError, match="basis dimension mismatch"):
        wedge(a, b)


def test_wedge_overflow_degree_is_zero_form():
    a = ComplexForm.basis(4, (0, 1, 2))
    b = ComplexForm.basis(4, (1, 3))
    assert wedge(a, b).norm() == 0.0


def test_unsorted_key_canonicalization():
    assert ComplexForm(4, 2, {(1, 0): 2.0}).terms == {(0, 1): -2.0 + 0.0j}
    assert ComplexForm(4, 2, {(1, 1): 5.0}).terms == {}


# the uncached canonicalization path, kept verbatim as the reference for
# the memoized one: a repeated index drops the term before the length and
# range checks run
def _reference_sort(indices):
    idx = list(indices)
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
            elif idx[j] == idx[j + 1]:
                return None, 0
    return tuple(idx), sign


def _reference_terms(dim, degree, terms):
    canon = {}
    for raw_key, coeff in terms.items():
        key, sign = _reference_sort(raw_key)
        if sign == 0:
            continue
        if len(raw_key) != degree:
            raise ValueError(f"index tuple {raw_key} has length {len(raw_key)}, expected degree {degree}")
        if not all(0 <= i < dim for i in raw_key):
            raise ValueError(f"index tuple {raw_key} out of range for dimension {dim}")
        canon[key] = canon.get(key, 0.0) + sign * complex(coeff)
    return {k: v for k, v in canon.items() if abs(v) >= 1e-14}


def _reference_wedge_terms(a, b):
    total = a.degree + b.degree
    if total > a.dim:
        return _reference_terms(a.dim, a.dim, {})
    out = {}
    for ka, va in a.terms.items():
        for kb, vb in b.terms.items():
            key, sign = _reference_sort(ka + kb)
            if sign == 0:
                continue
            out[key] = out.get(key, 0.0) + sign * va * vb
    return _reference_terms(a.dim, total, out)


def _bits(terms):
    """Terms as a map from key to the coefficient's exact hex strings (a
    dense form has slot order, not the insertion order of a term loop)."""
    return {k: (v.real.hex(), v.imag.hex()) for k, v in terms.items()}


def _outcome(build):
    try:
        return "ok", _bits(build())
    except ValueError as exc:
        return "ValueError", str(exc)


_coeffs = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def _raw_terms(draw, dim, degree, valid):
    """Term dicts with unsorted and repeated keys; unless `valid`, also keys
    of the wrong length or with out-of-range indices."""
    if valid:
        index, size = st.integers(0, dim - 1), st.just(degree)
    else:
        index, size = st.integers(-1, dim), st.integers(max(0, degree - 1), degree + 1)
    n = draw(size)
    keys = st.lists(index, min_size=n, max_size=n).map(tuple)
    return draw(st.dictionaries(keys, _coeffs, max_size=6))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([4, 6, 8]), st.booleans())
def test_canonicalization_matches_the_uncached_path(data, dim, valid):
    degree = data.draw(st.integers(0, min(dim, 4)))
    terms = data.draw(_raw_terms(dim, degree, valid))
    want = _outcome(lambda: _reference_terms(dim, degree, terms))
    for _ in range(2):                # a cache miss, then a hit
        assert _outcome(lambda: ComplexForm(dim, degree, terms).terms) == want


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from([4, 6, 8]))
def test_wedge_matches_the_uncached_path(data, dim):
    p, q = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    a = ComplexForm(dim, p, data.draw(_raw_terms(dim, p, True)))
    b = ComplexForm(dim, q, data.draw(_raw_terms(dim, q, True)))
    want = _bits(_reference_wedge_terms(a, b))
    assert _bits(wedge(a, b).terms) == want
    assert _bits(wedge(a, b).terms) == want


def _dense_wedge_bits(a, b):
    """The bits of a ^ b from the stacked slot-table path."""
    p, q = a.degree, b.degree
    return _bits(ComplexForm(a.dim, p + q, wedge_vectors(a.vec, b.vec, a.dim, p, q)).terms)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([4, 6, 8]))
def test_dense_wedge_matches_the_term_loop_for_every_degree_pair(data, dim):
    # any number of terms, up to every slot
    p = data.draw(st.integers(0, dim))
    q = data.draw(st.integers(0, dim - p))
    a, b = (ComplexForm(dim, d, data.draw(st.dictionaries(
        st.sampled_from(list(itertools.combinations(range(dim), d))), _coeffs,
        max_size=len(list(itertools.combinations(range(dim), d))))))
        for d in (p, q))
    want = _bits(_reference_wedge_terms(a, b))
    assert _bits(wedge(a, b).terms) == want
    assert _dense_wedge_bits(a, b) == want


@pytest.mark.parametrize("dim", [4, 6, 8])
def test_dense_wedge_of_full_forms_matches_the_term_loop(dim):
    rng = np.random.default_rng(dim)
    for p in range(dim + 1):
        for q in range(dim - p + 1):
            a, b = (random_form(rng, dim, d, nterms=10 ** 3) for d in (p, q))
            want = _bits(_reference_wedge_terms(a, b))
            assert _bits(wedge(a, b).terms) == want, (p, q)
            assert _dense_wedge_bits(a, b) == want, (p, q)


@pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(1, float("-inf"))])
def test_a_non_finite_coefficient_reaches_only_the_slots_it_merges_into(bad):
    # both paths multiply only pairs of nonzero terms: the bad coefficient of
    # e01 meets e2 and e3 of b, and no zero slot of b
    a = ComplexForm(6, 2, {(0, 1): bad, (2, 4): 0.5 - 2j})
    b = ComplexForm(6, 1, {(2,): 1.5, (3,): -0.25j, (5,): 2.0})
    assert np.isnan(a.vec).any() or np.isinf(a.vec).any()
    loop = wedge(a, b)
    assert _bits(loop.terms) == _dense_wedge_bits(a, b)
    finite = {k for k, v in loop.terms.items() if np.isfinite(v)}
    assert set(loop.terms) - finite == {(0, 1, 2), (0, 1, 3), (0, 1, 5)}
    assert finite == {(2, 3, 4), (2, 4, 5)}
    stacked = wedge_vectors(np.stack([a.vec, a.vec]), np.stack([b.vec, b.vec]), 6, 2, 1)
    assert _bits(ComplexForm(6, 3, stacked[1]).terms) == _bits(loop.terms)


# ----------------------------------------------------------------------
# the exterior derivative of slot rows
# ----------------------------------------------------------------------

def _wedge_loop_d(partials, dim, k):
    """sum_p e_p ^ (d_p omega), p ascending, by the wedge loop on forms."""
    out = ComplexForm.zero(dim, k + 1)
    for p in range(dim):
        out = out + wedge(ComplexForm.basis(dim, (p,)), ComplexForm(dim, k, partials[p]))
    return out


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([4, 6, 8]), st.data())
def test_d_rows_matches_the_wedge_loop_for_every_degree(dim, data):
    # dyadic coefficients make every sum exact, so a wrong sign or slot
    # cannot hide behind the order of summation
    k = data.draw(st.integers(0, dim - 1))
    n = len(list(itertools.combinations(range(dim), k)))
    ints = st.lists(st.integers(-16, 16), min_size=2 * dim * n, max_size=2 * dim * n)
    v = np.array(data.draw(ints), dtype=float).reshape(2, dim, n) / 8.0
    partials = v[0] + 1j * v[1]
    want = _wedge_loop_d(partials, dim, k).vec
    assert np.array_equal(cut(d_rows(partials, dim, k)), want)
    assert np.array_equal(d_rows(v[0], dim, k), _wedge_loop_d(v[0].astype(complex), dim, k).vec)


@pytest.mark.parametrize("dim", [4, 6, 8])
def test_d_rows_has_the_bits_of_the_wedge_loop_and_stacks(dim):
    # p ascending in both, so float coefficients keep their bits too
    rng = np.random.default_rng(dim)
    for k in range(dim):
        n = len(list(itertools.combinations(range(dim), k)))
        stack = rng.standard_normal((3, dim, n)) + 1j * rng.standard_normal((3, dim, n))
        rows = d_rows(stack, dim, k)
        for r in range(3):
            assert np.array_equal(cut(rows[r]), _wedge_loop_d(stack[r], dim, k).vec), (k, r)


def _to_array_reference(f):
    """The full antisymmetric array of a form, ordering by ordering."""
    arr = np.zeros((f.dim,) * f.degree, dtype=complex)
    for key, coeff in f.terms.items():
        for perm in itertools.permutations(range(f.degree)):
            sign = np.linalg.det(np.eye(f.degree)[list(perm)])
            arr[tuple(key[q] for q in perm)] = round(sign) * coeff
    return arr


@pytest.mark.parametrize("dim", [4, 6, 8])
def test_antisymmetric_array_matches_the_ordering_loop(dim):
    rng = np.random.default_rng(dim)
    for p in range(5):
        f = random_form(rng, dim, p, nterms=10)
        assert np.array_equal(f.to_array(), _to_array_reference(f))
        stack = np.stack([f.vec, 2 * f.vec])
        assert np.array_equal(antisymmetric_array(stack, dim, p)[1], 2 * _to_array_reference(f))


def test_importing_the_cli_builds_no_wedge_table():
    probe = ("import twistorlab.cli; from twistorlab import exterior as e; "
             "print(e._wedge_pairs.cache_info().currsize, e._wedge_table.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(twistorlab.__file__))))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)]))
def test_wedge_associativity(seed, degrees):
    rng = np.random.default_rng(seed)
    a, b, c = (random_form(rng, 4, d) for d in degrees)
    lhs = wedge(wedge(a, b), c)
    rhs = wedge(a, wedge(b, c))
    assert lhs.isclose(rhs, tol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(1, 3))
def test_wedge_graded_anticommutativity(seed, p, q):
    rng = np.random.default_rng(seed)
    a = random_form(rng, 6, p)
    b = random_form(rng, 6, q)
    sign = (-1.0) ** (p * q)
    assert wedge(a, b).isclose(sign * wedge(b, a), tol=1e-12)


def test_wedge_all_matches_binary_fold():
    rng = np.random.default_rng(7)
    fs = [random_form(rng, 6, 1) for _ in range(4)]
    assert wedge_all(*fs).isclose(wedge(wedge(wedge(fs[0], fs[1]), fs[2]), fs[3]), tol=1e-12)


# ----------------------------------------------------------------------
# Hodge star
# ----------------------------------------------------------------------

def test_star_standard_orientation():
    w = hodge_star_4(ComplexForm.basis(4, (0, 1)))
    assert w.terms == {(2, 3): 1.0 + 0.0j}


def test_star_on_sd_asd_basis():
    basis = SdAsdBasis.standard()
    for f in basis.plus:
        assert hodge_star_4(f).isclose(f, tol=1e-14)
    for f in basis.minus:
        assert hodge_star_4(f).isclose(-1.0 * f, tol=1e-14)


def test_star_squared_identity_on_two_forms():
    for key in itertools.combinations(range(4), 2):
        f = ComplexForm.basis(4, key)
        assert hodge_star_4(hodge_star_4(f)).isclose(f, tol=1e-14)
    rng = np.random.default_rng(3)
    f = random_form(rng, 4, 2, nterms=6)
    assert hodge_star_4(hodge_star_4(f)).isclose(f, tol=1e-13)


def test_star_orientation_reversal_flips_sign():
    f = ComplexForm.basis(4, (0, 2))
    assert hodge_star_4(f, orientation=-1).isclose(-1.0 * hodge_star_4(f), tol=1e-14)


def test_star_isometry():
    rng = np.random.default_rng(11)
    f = random_form(rng, 4, 2, nterms=5)
    np.testing.assert_allclose(hodge_star_4(f).norm(), f.norm(), rtol=1e-12)


def test_star_rejects_dim6():
    with pytest.raises(ValueError, match="hodge star defined only on 4-dim basis"):
        hodge_star_4(ComplexForm.basis(6, (0, 1)))


def test_sd_asd_basis_unit_norm():
    for f in SdAsdBasis.standard().all_forms():
        np.testing.assert_allclose(f.norm(), 1.0, rtol=1e-14)


# ----------------------------------------------------------------------
# SD/ASD splitting
# ----------------------------------------------------------------------

def test_split_of_basic_two_form():
    basis = SdAsdBasis.standard()
    plus, minus = sd_asd_split(ComplexForm.basis(4, (0, 1)))
    r = 1.0 / np.sqrt(2.0)
    assert plus.isclose(r * basis.plus[0], tol=1e-14)
    assert minus.isclose(r * basis.minus[0], tol=1e-14)


def test_split_fixes_eigenvectors():
    alpha = SdAsdBasis.standard().plus[1]
    plus, minus = sd_asd_split(alpha)
    assert plus.isclose(alpha, tol=1e-14)
    assert minus.norm() < 1e-14


def test_split_round_trip_random():
    rng = np.random.default_rng(42)
    f = random_form(rng, 4, 2, nterms=6)
    plus, minus = sd_asd_split(f)
    assert (plus + minus).isclose(f, tol=1e-14)
    assert hodge_star_4(plus).isclose(plus, tol=1e-13)
    assert hodge_star_4(minus).isclose(-1.0 * minus, tol=1e-13)
    # cross projection annihilates
    p2, m2 = sd_asd_split(plus)
    assert m2.norm() < 1e-14
    assert p2.isclose(plus, tol=1e-14)


def test_split_requires_two_form():
    with pytest.raises(ValueError, match="split requires a 2-form"):
        sd_asd_split(ComplexForm.basis(4, (0, 1, 2)))


# ----------------------------------------------------------------------
# bidegree projection
# ----------------------------------------------------------------------

def holo_of(dim):
    """The (1,0) indices of a coframe eta_1..eta_h, conj(eta_1)..conj(eta_h)."""
    return tuple(range(dim // 2))


@pytest.mark.parametrize("dim", [4, 6, 8])
def test_bidegree_keeps_one_one(dim):
    f = ComplexForm.basis(dim, (0, dim // 2))  # eta1 ^ conj(eta1)
    assert np.array_equal(bidegree_rows(f.vec, dim, 2, holo_of(dim), 1), f.vec)


@pytest.mark.parametrize("dim", [4, 6, 8])
def test_bidegree_kills_two_zero(dim):
    f = ComplexForm.basis(dim, (0, 1))  # eta1 ^ eta2
    assert not bidegree_rows(f.vec, dim, 2, holo_of(dim), 1).any()
    assert np.array_equal(bidegree_rows(f.vec, dim, 2, holo_of(dim), 2), f.vec)


@pytest.mark.parametrize("dim", [4, 6, 8])
def test_bidegree_on_the_fundamental_form(dim):
    # (i/sqrt2) sum_a eta_a ^ conj(eta_a) is pure (1,1)
    h, r = dim // 2, 1.0j / np.sqrt(2.0)
    alpha = ComplexForm(dim, 2, {(a, a + h): r for a in range(h)})
    assert np.array_equal(bidegree_rows(alpha.vec, dim, 2, holo_of(dim), 1), alpha.vec)


@pytest.mark.parametrize("dim", [4, 6, 8])
@pytest.mark.parametrize("degree", [2, 3])
def test_bidegree_partition_of_identity(dim, degree):
    rng = np.random.default_rng(5)
    rows = np.stack([random_form(rng, dim, degree, nterms=6).vec for _ in range(3)])
    parts = [bidegree_rows(rows, dim, degree, holo_of(dim), p) for p in range(degree + 1)]
    # one (1,0) set per row: here the conjugate coframe's for the middle row
    anti = tuple(range(dim // 2, dim))
    for p, part in enumerate(parts):
        per_row = bidegree_rows(rows, dim, degree, [holo_of(dim), anti, holo_of(dim)], p)
        assert np.array_equal(per_row[[0, 2]], part[[0, 2]])
        assert np.array_equal(per_row[1], parts[degree - p][1])
    total = parts[0]
    for part in parts[1:]:
        total = cut(total + part)
    assert np.array_equal(total, rows)
    # mutually annihilating, and each part its own part
    for p in range(degree + 1):
        for p2 in range(degree + 1):
            again = bidegree_rows(parts[p], dim, degree, holo_of(dim), p2)
            if p2 == p:
                assert np.array_equal(again, parts[p])
            else:
                assert not again.any()


# ----------------------------------------------------------------------
# evaluation, substitution, conjugation
# ----------------------------------------------------------------------

def test_evaluate_matches_determinant():
    f = ComplexForm.basis(4, (0, 1))
    vecs = np.array([[1.0, 2.0, 0.0, 0.0], [3.0, 4.0, 0.0, 0.0]])
    np.testing.assert_allclose(f.evaluate(vecs), 1.0 * 4.0 - 2.0 * 3.0)


def test_substitute_identity_and_scaling():
    rng = np.random.default_rng(9)
    f = random_form(rng, 4, 2, nterms=4)
    assert substitute(f, np.eye(4)).isclose(f, tol=1e-13)
    doubled = substitute(f, 2.0 * np.eye(4))
    assert doubled.isclose(ComplexForm(4, 2, {k: 4.0 * v for k, v in f.terms.items()}), tol=1e-12)


def test_substitute_respects_wedge():
    rng = np.random.default_rng(13)
    rows = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = random_form(rng, 4, 1)
    b = random_form(rng, 4, 1)
    lhs = substitute(wedge(a, b), rows)
    rhs = wedge(substitute(a, rows), substitute(b, rows))
    assert lhs.isclose(rhs, tol=1e-10)


def test_zero_threshold_drops_dust():
    f = ComplexForm(4, 1, {(0,): 1e-15})
    assert f.terms == {}
    g = ComplexForm.basis(4, (0,)) - ComplexForm(4, 1, {(0,): 1.0 + 1e-16})
    assert g.terms == {}


# ----------------------------------------------------------------------
# argument errors, the same under python -O
# ----------------------------------------------------------------------

_ARGUMENT_ERRORS = """
import numpy as np
from twistorlab.exterior import ComplexForm, SdAsdBasis, substitute, wedge_all
f = ComplexForm.basis(4, (0, 1))
for call in (lambda: f.evaluate(np.zeros((3, 4))), lambda: wedge_all(),
             lambda: substitute(f, np.eye(3)), lambda: SdAsdBasis([f], [f]),
             lambda: ComplexForm(4, 2, np.zeros(5))):
    try:
        print("returned", call())
    except ValueError as exc:
        print("ValueError:", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_argument_errors_are_value_errors_under_python_O(flags):
    src = os.path.dirname(os.path.dirname(twistorlab.__file__))
    proc = subprocess.run([sys.executable, *flags, "-c", _ARGUMENT_ERRORS], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "ValueError: expected (2, 4) vector array, got (3, 4)",
        "ValueError: wedge_all needs at least one form",
        "ValueError: need a 4x4 matrix, got (3, 3)",
        "ValueError: need three forms per eigenspace",
        "ValueError: coefficient vector of shape (5,), expected (6,) for degree 2 over 4",
    ]
