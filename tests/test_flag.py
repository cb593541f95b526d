"""Tests for the exact invariant geometry on SU(3) and its flag quotient."""

import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistorlab.flag import (
    GENERATOR_NAMES,
    SU3_BASIS,
    SU3Element,
    appendix_table,
    d_matrix,
    flag_acs,
    flag_balanced,
    flag_bidegree_part,
    flag_conj,
    flag_d,
    flag_dK,
    flag_ddbar,
    flag_K,
    generator_form,
    integrability_obstruction,
    maurer_cartan,
    maurer_cartan_eval,
    nearly_kahler_check,
    normalization_crosscheck,
    structure_equation_residual,
    structural_ddbar,
)
from twistorlab import flag as fl
from twistorlab.exterior import ComplexForm, wedge, wedge_all
from twistorlab.flag import _d_table, _displayed_structure_equations

SQ2 = math.sqrt(2.0)
TRIPLE = (1.3, 0.7, 2.1)


def random_direction(seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(8)
    return sum(c * B for c, B in zip(coeffs, SU3_BASIS))


# ======================================================================
# structure equations and the formal differential
# ======================================================================

def test_displayed_structure_equations_match_table():
    table = _d_table()
    for k, displayed in _displayed_structure_equations().items():
        assert (table[k] - displayed).norm() == 0.0


def test_d_squared_vanishes_on_every_generator():
    table = _d_table()
    for k in range(8):
        assert flag_d(table[k]).norm() == 0.0


def _leibniz_d(form):
    """d of an invariant form term by term and position by position: the
    generator derivative at that position, wedged in place with the other
    generators."""
    table = _d_table()
    out = ComplexForm(8, form.degree + 1, {})
    for key, coeff in form.terms.items():
        for pos in range(len(key)):
            factors = [table[g] if j == pos else generator_form(g) for j, g in enumerate(key)]
            out = out + wedge_all(*factors) * (coeff * (-1.0) ** pos)
    return out


@pytest.mark.parametrize("k", range(8))
def test_d_matrix_columns_are_the_leibniz_derivatives(k):
    D = d_matrix(k)
    assert D.dtype.kind == "i" and D.shape == (math.comb(8, k + 1), math.comb(8, k))
    for s in range(D.shape[1]):
        e = ComplexForm(8, k, np.eye(D.shape[1])[s])
        want = _leibniz_d(e).vec
        assert np.array_equal(D[:, s], want.real) and not want.imag.any()
        assert np.array_equal(flag_d(e).vec, want)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 7), st.integers(0, 10 ** 6))
def test_flag_d_of_random_invariant_forms_is_the_leibniz_derivative(k, seed):
    # dyadic coefficients keep every product and sum exact, so the bits
    # cannot depend on the order of summation
    rng = np.random.default_rng(seed)
    n = math.comb(8, k)
    v = (rng.integers(-16, 17, n) + 1j * rng.integers(-16, 17, n)) / 8.0
    form = ComplexForm(8, k, np.where(rng.random(n) < 0.5, v, 0.0))
    assert np.array_equal(flag_d(form).vec, _leibniz_d(form).vec)


@pytest.mark.parametrize("k", range(8))
def test_d_squared_is_zero_as_integer_matrices(k):
    assert not np.any(d_matrix(k + 1) @ d_matrix(k))


def test_d_commutes_with_conjugation():
    for k in range(8):
        g = generator_form(k)
        assert (flag_d(flag_conj(g)) - flag_conj(flag_d(g))).norm() == 0.0


def test_conjugation_is_an_involution():
    for k in range(8):
        g = generator_form(k)
        assert (flag_conj(flag_conj(g)) - g).norm() == 0.0


def test_conjugation_swaps_transposed_entries():
    # skew-Hermitian symmetry of the matrix of 1-forms
    assert flag_conj(generator_form(0)).terms == {(3,): (-1 + 0j)}
    assert flag_conj(generator_form(4)).terms == {(1,): (-1 + 0j)}
    assert flag_conj(generator_form(6)).terms == {(6,): (-1 + 0j)}


# ======================================================================
# group elements and the left-invariant form
# ======================================================================

def test_group_element_rejects_non_unitary():
    with pytest.raises(ValueError, match="special unitary"):
        SU3Element(2.0 * np.eye(3))


def test_group_element_rejects_unit_determinant_violation():
    with pytest.raises(ValueError, match="special unitary"):
        SU3Element(np.diag([-1.0, 1.0, 1.0]).astype(complex))


def test_random_element_is_reproducible():
    g1 = SU3Element.random(11)
    g2 = SU3Element.random(11)
    assert np.array_equal(g1.g, g2.g)
    assert np.max(np.abs(np.conj(g1.g.T) @ g1.g - np.eye(3))) < 1e-12


def test_form_at_identity_reads_off_the_direction():
    e = SU3Element.identity()
    for k in range(8):
        assert np.max(np.abs(maurer_cartan(e, k) - SU3_BASIS[k])) == 0.0


def test_left_invariance_at_random_element():
    g = SU3Element.random(7)
    for k in range(8):
        assert np.max(np.abs(maurer_cartan(g, k) - SU3_BASIS[k])) < 1e-12


def test_direction_must_be_in_the_algebra():
    with pytest.raises(ValueError, match="skew-Hermitian traceless"):
        maurer_cartan(np.eye(3, dtype=complex), np.diag([1.0, -1.0, 0.0]))


def test_evaluated_form_is_algebra_valued_and_traceless():
    ev = maurer_cartan_eval(SU3Element.random(3))
    assert ev.values.shape == (3, 3, 8)
    diag_sum = ev.values[0, 0, :] + ev.values[1, 1, :] + ev.values[2, 2, :]
    assert np.max(np.abs(diag_sum)) < 1e-12
    assert np.max(np.abs(ev.covector(0, 1) + np.conj(ev.values[1, 0, :]))) < 1e-12


@pytest.mark.parametrize("seed", [7, 21, 99])
def test_finite_difference_structure_equation(seed):
    g = SU3Element.random(7)
    X = random_direction(seed)
    Y = random_direction(seed + 1)
    assert structure_equation_residual(g, X, Y) < 1e-6


# ======================================================================
# invariant almost complex structures
# ======================================================================

@pytest.mark.parametrize("i", range(1, 9))
def test_acs_squares_to_minus_identity(i):
    J = flag_acs(i)
    assert np.max(np.abs(J @ J + np.eye(6))) == 0.0


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_acs_conjugate_pairs_are_negatives(i):
    assert np.array_equal(flag_acs(i + 4), -flag_acs(i))


def test_integrability_census():
    obstructions = {i: integrability_obstruction(i) for i in range(1, 9)}
    for i in (1, 3, 4, 5, 7, 8):
        assert obstructions[i] == 0.0
    for i in (2, 6):
        assert obstructions[i] >= 1.0
    assert sum(1 for v in obstructions.values() if v == 0.0) == 6


def test_bidegree_parts_partition_a_derivative():
    dk = flag_dK(2, TRIPLE)
    parts = [flag_bidegree_part(dk, 2, p) for p in range(4)]
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    assert (total - dk).norm() == 0.0


def test_bidegree_rejects_non_quotient_forms():
    with pytest.raises(ValueError, match="diagonal"):
        flag_bidegree_part(_d_table()[0], 1, 1)


# ======================================================================
# the invariant metric family: first derivatives
# ======================================================================

@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_fundamental_form_is_real(i):
    K = flag_K(i, TRIPLE)
    assert (flag_conj(K) - K).norm() == 0.0


@pytest.mark.parametrize("i", [1, 2, 3, 4])
@pytest.mark.parametrize("lam", [1.0, SQ2, TRIPLE])
def test_derivative_display_matches_structural_d(i, lam):
    assert (flag_d(flag_K(i, lam)) - flag_dK(i, lam)).norm() < 1e-12


def test_one_parameter_derivative_coefficients():
    lam = 0.77
    rows = appendix_table(lam)["rows"]
    expected = {1: 2.0 - lam ** 2, 2: 2.0 + lam ** 2, 3: -lam ** 2, 4: lam ** 2}
    for row in rows:
        assert abs(row["dK_coefficient"] - expected[row["i"]]) < 1e-12


@pytest.mark.parametrize("i,lam", [
    (1, (1.0, 1.0, SQ2)),
    (1, SQ2),
    (3, (math.sqrt(5.0), 1.0, 2.0)),
    (4, (1.0, math.sqrt(10.0), 3.0)),
])
def test_symplectic_parameter_values(i, lam):
    assert flag_dK(i, lam).norm() < 1e-12


@pytest.mark.parametrize("lam", [0.4, 1.0, (0.3, 2.5, 1.1)])
def test_second_structure_never_closes(lam):
    # coefficient is a sum of squares: |dK| = coeff * sqrt(2) > 0
    dk = flag_dK(2, lam)
    assert dk.norm() > SQ2 * 0.09


def test_derivative_norm_is_coefficient_times_sqrt2():
    dk = flag_dK(2, (1.1, 0.8, 1.7))
    coeff = 1.1 ** 2 + 0.8 ** 2 + 1.7 ** 2
    assert abs(dk.norm() - coeff * SQ2) < 1e-12


def test_second_structure_one_two_part_vanishes():
    dk = flag_dK(2, (1.1, 0.8, 1.7))
    assert flag_bidegree_part(dk, 2, 1).norm() == 0.0
    assert flag_bidegree_part(dk, 2, 2).norm() == 0.0
    # all of the mass sits in the two pure bidegrees
    coeff = 1.1 ** 2 + 0.8 ** 2 + 1.7 ** 2
    assert abs(flag_bidegree_part(dk, 2, 3).norm() - coeff) < 1e-12
    assert abs(flag_bidegree_part(dk, 2, 0).norm() - coeff) < 1e-12


@pytest.mark.parametrize("i", [1, 2, 3, 4])
@pytest.mark.parametrize("lam", [1.7, (1.0, 2.0, 3.0)])
def test_balanced_condition_is_exact(i, lam):
    assert flag_balanced(i, lam).norm() == 0.0


@pytest.mark.parametrize("bad", [-0.5, 0.0, (1.0, 0.0, 1.0), (1.0, -2.0, 1.0)])
def test_nonpositive_parameters_rejected(bad):
    with pytest.raises(ValueError, match="positive"):
        flag_K(1, bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, (1.0, math.nan, 1.0),
                                 (math.inf, 1.0, 1.0), (1.0, 1.0, -math.inf)])
def test_non_finite_parameters_rejected(bad):
    for call in (lambda: flag_K(1, bad), lambda: flag_dK(1, bad), lambda: appendix_table(bad)):
        with pytest.raises(ValueError, match=r"positive and finite, got -?(nan|inf)$"):
            call()


@pytest.mark.parametrize("big", [1e200, 1.4e154, (1.0, 1e200, 1.0)])
def test_scales_whose_square_overflows_are_refused(big):
    for call in (lambda: flag_K(1, big), lambda: flag_dK(1, big), lambda: appendix_table(big)):
        with pytest.raises(ValueError, match=r"scale parameter \S+ is too large: its square overflows$"):
            call()
    flag_K(1, 1.3e154)                # its square, 1.69e308, is finite


@pytest.mark.parametrize("i", [0, 5, 9])
def test_bad_structure_index_rejected(i):
    with pytest.raises(ValueError, match="1..4"):
        flag_dK(i, 1.0)


# ======================================================================
# second derivatives
# ======================================================================

@pytest.mark.parametrize("i", [1, 3, 4])
@pytest.mark.parametrize("lam", [1.0, 0.77, TRIPLE])
def test_second_derivative_display_matches_structural(i, lam):
    assert (flag_ddbar(i, lam) - structural_ddbar(i, lam)).norm() < 1e-12


def test_second_derivative_refused_for_second_structure():
    with pytest.raises(ValueError, match="i = 2"):
        flag_ddbar(2, 1.0)


def test_second_derivative_vanishes_at_the_root():
    assert flag_ddbar(1, (1.0, 1.0, SQ2)).norm() < 1e-12


@pytest.mark.parametrize("lam", [0.9, 1.7])
def test_one_parameter_second_derivatives_coincide(lam):
    assert (flag_ddbar(3, lam) - flag_ddbar(4, lam)).norm() < 1e-12


# ======================================================================
# distinguished identities and the numeric crosscheck
# ======================================================================

def test_nearly_kahler_identities_are_exact():
    r1, r2 = nearly_kahler_check()
    assert r1 < 1e-12
    assert r2 < 1e-12


def test_normalization_crosscheck_default():
    numeric, exact = normalization_crosscheck()
    assert exact == 2.0
    assert abs(numeric - 2.0) < 1e-6


@pytest.mark.parametrize("c,expected", [(4.0, 1.0), (1.0, 4.0)])
def test_normalization_crosscheck_rescaled(c, expected):
    numeric, _ = normalization_crosscheck(c=c)
    assert abs(numeric - expected) < 1e-6


# ======================================================================
# the summary table
# ======================================================================

def test_summary_table_is_exact_fast_and_serializable():
    start = time.time()
    table = appendix_table()
    elapsed = time.time() - start
    assert elapsed < 1.0
    assert table["structure_equation_residual"] == 0.0
    assert table["integrable_count"] == 6
    assert table["nearly_kahler_residuals"] == [0.0, 0.0]
    assert table["generators"] == list(GENERATOR_NAMES)
    by_i = {row["i"]: row for row in table["rows"]}
    assert set(by_i) == {1, 2, 3, 4}
    for row in by_i.values():
        assert row["dK_residual"] == 0.0
        assert row["balanced_norm"] == 0.0
        assert row["dd_residual"] == 0.0
    assert by_i[1]["dK_coefficient"] == 1.0
    assert by_i[2]["dK_coefficient"] == 3.0
    assert by_i[3]["dK_coefficient"] == -1.0
    assert by_i[2]["ddbar_residual"] is None
    assert by_i[2]["one_two_part_norm"] == 0.0
    assert by_i[2]["integrable"] is False
    assert by_i[4]["ddbar_residual"] == 0.0
    json.dumps(table)


# ======================================================================
# property-based checks
# ======================================================================

@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10 ** 6))
def test_structural_derivative_always_matches_display(i, seed):
    rng = np.random.default_rng(seed)
    lams = tuple(float(v) for v in rng.uniform(0.2, 3.0, size=3))
    assert (flag_d(flag_K(i, lams)) - flag_dK(i, lams)).norm() < 1e-12
    assert flag_balanced(i, lams).norm() == 0.0


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_structure_equations_hold_along_random_curves(seed):
    g = SU3Element.random(seed)
    X = random_direction(seed + 1)
    Y = random_direction(seed + 2)
    assert structure_equation_residual(g, X, Y) < 1e-6


# ======================================================================
# the displays as weight rows
# ======================================================================
# the per-pair ComplexForm displays that the weight rows replaced, which
# the rows must reproduce bit for bit, errors included


def _reference_flag_K(i, lam):
    l1, l2, l3 = fl._params(lam)
    a, b, c, ab, bb, cb = fl._coframe_forms()
    second = wedge(bb, b) if i in (1, 2) else wedge(b, bb)
    if i in (1, 3):
        third = wedge(cb, c)
    elif i in (2, 4):
        third = wedge(c, cb)
    else:
        raise ValueError("structure index must lie in 1..4")
    return (wedge(a, ab) * l1 ** 2 + second * l2 ** 2 + third * l3 ** 2) * 1j


def _reference_flag_dK(i, lam):
    lams = fl._params(lam)
    if i not in (1, 2, 3, 4):
        raise ValueError("structure index must lie in 1..4")
    return fl._three_forms()[0] * (1j * fl._dK_coefficient(i, lams))


def _reference_flag_balanced(i, lam):
    return wedge(_reference_flag_K(i, lam), _reference_flag_dK(i, lam))


def _reference_flag_ddbar(i, lam):
    lams = fl._params(lam)
    if i == 2:
        raise ValueError("no second-derivative display for i = 2")
    if i not in (1, 3, 4):
        raise ValueError("structure index must lie in 1..4")
    (c1, c2, c3), (t1, t2, t3) = fl._DDBAR_SIGNS[i]
    coeff = c1 * lams[0] ** 2 + c2 * lams[1] ** 2 + c3 * lams[2] ** 2
    a, b, c, ab, bb, cb = fl._coframe_forms()
    if i == 1:
        m1, m2, m3 = wedge_all(a, ab, bb, b), wedge_all(bb, b, cb, c), wedge_all(cb, c, a, ab)
    elif i == 3:
        m1, m2, m3 = wedge_all(a, ab, b, bb), wedge_all(b, bb, cb, c), wedge_all(cb, c, a, ab)
    else:
        m1, m2, m3 = wedge_all(a, ab, b, bb), wedge_all(b, bb, c, cb), wedge_all(c, cb, a, ab)
    return (m1 * t1 + m2 * t2 + m3 * t3) * ((1j) ** 2 * coeff)


def _reference_structural_ddbar(i, lam):
    dk = flag_d(_reference_flag_K(i, lam))
    return flag_bidegree_part(flag_d(flag_bidegree_part(dk, i, 1)), i, 2) * 1j


def _reference_integrability_obstruction(i):
    holo, _ = fl._holo_antiholo(i)
    zero_two = d_matrix(1)[fl._holo_counts(i, 2) == 0]
    return float(np.max(np.linalg.norm(zero_two[:, list(holo)].T.astype(float), axis=-1)))


# the scales of the appendix suite and of the appendix table
SUITE_LAMBDAS = [1.0, TRIPLE, (1.0, 2.0, 3.0), (1.0, 1.0, SQ2), SQ2, (math.sqrt(5.0), 1.0, 2.0),
                 (1.0, math.sqrt(10.0), 3.0), (1.1, 0.8, 1.7), (1.0, 1.0, 1.0), 1.2]


def _outcome(fn, *args):
    try:
        return fn(*args).vec
    except ValueError as exc:
        return str(exc)


def _same(got, want):
    """The same bytes (a scale whose square sums overflow gives nan rows on
    both sides), or the same error message."""
    if isinstance(want, np.ndarray):
        return isinstance(got, np.ndarray) and got.shape == want.shape and got.tobytes() == want.tobytes()
    return isinstance(got, str) and got == want


@pytest.mark.parametrize("lam", SUITE_LAMBDAS + [1e100, (1e154, 1e154, 1e154), 0.0, math.nan, (1.0, 2.0)])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")     # overflowing scales, on both sides
def test_flag_rows_have_the_bits_and_errors_of_the_per_pair_forms(lam):
    for i in (1, 2, 3, 4, 0, 5):
        for new, old in ((flag_K, _reference_flag_K), (flag_dK, _reference_flag_dK),
                         (flag_balanced, _reference_flag_balanced),
                         (flag_ddbar, _reference_flag_ddbar),
                         (structural_ddbar, _reference_structural_ddbar)):
            assert _same(_outcome(new, i, lam), _outcome(old, i, lam)), (new.__name__, i, lam)


def test_flag_displays_have_the_norms_of_the_per_pair_forms():
    pairs = [(i, lam) for lam in SUITE_LAMBDAS for i in (1, 2, 3, 4)]
    shown = fl.FlagDisplays(pairs)
    for r, (i, lam) in enumerate(pairs):
        K, dK = _reference_flag_K(i, lam), _reference_flag_dK(i, lam)
        assert np.array_equal(shown.K[r], K.vec) and np.array_equal(shown.dK[r], dK.vec)
        assert shown.dK_norm[r] == dK.norm()
        assert shown.dK_residual[r] == (flag_d(K) - dK).norm()
        assert shown.balanced[r] == _reference_flag_balanced(i, lam).norm()
        assert shown.dd[r] == flag_d(dK).norm()
        assert shown.one_two[r] == flag_bidegree_part(dK, i, 1).norm()
        if i == 2:
            assert math.isnan(shown.ddbar_residual[r])
        else:
            want = (_reference_flag_ddbar(i, lam) - _reference_structural_ddbar(i, lam)).norm()
            assert shown.ddbar_residual[r] == want


def test_flag_rows_check_each_pair_in_order():
    for pairs, message in (([(1, 1.0), (5, 1.0), (1, -1.0)], "structure index"),
                           ([(1, 1.0), (1, -1.0), (5, 1.0)], "positive and finite")):
        with pytest.raises(ValueError, match=message):
            fl.flag_rows(pairs)
    K, dK = fl.flag_rows([])
    assert K.shape == (0, 28) and dK.shape == (0, 56)


def test_the_obstruction_is_computed_once_per_structure():
    for i in range(1, 9):
        assert integrability_obstruction(i) == _reference_integrability_obstruction(i)
    integrability_obstruction.cache_clear()
    appendix_table()
    appendix_table(TRIPLE)
    assert integrability_obstruction.cache_info().misses == 8
    with pytest.raises(ValueError, match="1..8"):
        integrability_obstruction(9)


@pytest.mark.parametrize("dim", [4, 6])
def test_d_and_bidegree_parts_refuse_a_form_that_is_not_invariant(dim):
    form = ComplexForm(dim, 2, {(0, 1): 1.0})
    for fn in (flag_d, lambda f: flag_bidegree_part(f, 1, 1)):
        with pytest.raises(ValueError, match="8 generators, got dimension"):
            fn(form)
