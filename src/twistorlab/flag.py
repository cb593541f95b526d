"""Exact invariant geometry on SU(3) and its full flag quotient.

The homogeneous twistor fibration of the projective plane is modelled here
with structure constants instead of finite differences: left-invariant
1-forms are formal exterior generators, their derivatives come from the
matrix identity d(g^-1 dg) = -(g^-1 dg) ^ (g^-1 dg), and every metric,
derivative and second-derivative identity of the invariant family is an
exact polynomial statement in the scale parameters.  Finite differences
along actual group curves appear only as an independent oracle.

Generator dictionary (fixed ordering, entry (l, m) of the left-invariant
form; indices are 1-based rows/columns of the 3x3 matrix):

    0: w12   1: w13   2: w23      (strictly upper entries)
    3: w21   4: w31   5: w32      (strictly lower entries)
    6: w11   7: w22               (imaginary diagonal; w33 = -w11 - w22)

Conjugation acts by skew-Hermitian symmetry: conj(w12) = -w21 and so on,
with the diagonal generators mapped to their own negatives.
"""

import functools
import math
import types
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence, Tuple, Union

import numpy as np

from .exterior import (ComplexForm, _scale, bidegree_rows, cut, norms, read_only, slot_counts,
                       slot_keys, substitute, wedge, wedge_all, weighted_sum)

__all__ = [
    "SU3_BASIS", "GENERATOR_NAMES", "SU3Element", "MaurerCartanEval",
    "maurer_cartan", "maurer_cartan_eval", "structure_equation_residual",
    "generator_form", "flag_conj", "d_matrix", "flag_d", "flag_bidegree_part",
    "integrability_obstruction", "flag_rows", "flag_K", "flag_dK",
    "flag_balanced", "flag_ddbar", "structural_ddbar", "FlagDisplays",
    "nearly_kahler_check", "scale_free_residuals",
    "normalization_crosscheck", "appendix_table",
]

GENERATOR_NAMES = ("w12", "w13", "w23", "w21", "w31", "w32", "w11", "w22")

# placement of each generator in the 3x3 matrix of 1-forms
_GEN_POS = ((0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1), (0, 0), (1, 1))


def _basis_su3() -> Tuple[np.ndarray, ...]:
    """Real basis of su(3): off-diagonal rotations/boosts pairwise, then the
    two imaginary diagonal directions.  Order is part of the public contract."""
    out = []
    for l, m in ((0, 1), (0, 2), (1, 2)):
        E = np.zeros((3, 3), dtype=complex)
        E[l, m] = 1.0
        out.append(E - E.T)
        out.append(1j * (E + E.T))
    out.append(1j * np.diag([1.0, -1.0, 0.0]))
    out.append(1j * np.diag([0.0, 1.0, -1.0]))
    return tuple(out)


SU3_BASIS: Tuple[np.ndarray, ...] = _basis_su3()


def _check_su3_algebra(X: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    X = np.asarray(X, dtype=complex)
    if X.shape != (3, 3) or np.max(np.abs(X + np.conj(X.T))) > tol \
            or abs(np.trace(X)) > tol:
        raise ValueError("direction must be a skew-Hermitian traceless 3x3 matrix")
    return X


def _expm_su3(X: np.ndarray) -> np.ndarray:
    # X skew-Hermitian, so 1j*X is Hermitian and eigh gives the exact
    # unitary exponential without any series truncation
    vals, vecs = np.linalg.eigh(1j * X)
    return (vecs * np.exp(-1j * vals)) @ np.conj(vecs.T)


# ======================================================================
# the group, its left-invariant form, and the FD oracle
# ======================================================================

@dataclass(frozen=True)
class SU3Element:
    """A special unitary 3x3 matrix (validated on construction)."""

    g: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g, dtype=complex)
        if g.shape != (3, 3):
            raise ValueError("group element must be a 3x3 matrix")
        if np.max(np.abs(np.conj(g.T) @ g - np.eye(3))) > 1e-12 \
                or abs(np.linalg.det(g) - 1.0) > 1e-12:
            raise ValueError("matrix is not special unitary")
        object.__setattr__(self, "g", g)

    @classmethod
    def identity(cls) -> "SU3Element":
        return cls(np.eye(3, dtype=complex))

    @classmethod
    def random(cls, seed: int) -> "SU3Element":
        rng = np.random.default_rng(seed)
        zmat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, r = np.linalg.qr(zmat)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        det = np.linalg.det(q)
        return cls(q / det ** (1.0 / 3.0))


def maurer_cartan(g: Union[SU3Element, np.ndarray],
                  direction: Union[int, np.ndarray]) -> np.ndarray:
    """Evaluate g^-1 dg on the velocity of t -> g exp(t X) at t = 0.

    Left translation makes the answer the algebra element X itself; the
    value is still computed from the honest product g^-1 (g X).
    """
    if not isinstance(g, SU3Element):
        g = SU3Element(g)
    X = SU3_BASIS[direction] if isinstance(direction, int) else _check_su3_algebra(direction)
    velocity = g.g @ X
    return np.conj(g.g.T) @ velocity


@dataclass(frozen=True)
class MaurerCartanEval:
    """The 3x3 matrix of left-invariant 1-forms paired with the eight
    algebra directions: values[l, m, k] = w_entry(l, m) on direction k."""

    g: SU3Element
    values: np.ndarray            # (3, 3, 8) complex

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (3, 3, 8):
            raise ValueError(f"form values must have shape (3, 3, 8), got {v.shape}")
        for k in range(8):
            slab = v[:, :, k]
            if np.max(np.abs(slab + np.conj(slab.T))) > 1e-12 \
                    or abs(np.trace(slab)) > 1e-12:
                raise ValueError("form values are not su(3)-valued")
        object.__setattr__(self, "values", v)

    def covector(self, l: int, m: int) -> np.ndarray:
        return self.values[l, m, :]


def maurer_cartan_eval(g: Union[SU3Element, np.ndarray]) -> MaurerCartanEval:
    if not isinstance(g, SU3Element):
        g = SU3Element(g)
    vals = np.stack([maurer_cartan(g, k) for k in range(8)], axis=-1)
    return MaurerCartanEval(g=g, values=vals)


def structure_equation_residual(g: Union[SU3Element, np.ndarray],
                                X: np.ndarray, Y: np.ndarray,
                                step: float = 1e-4) -> float:
    """Finite-difference check of d w = -w ^ w on the surface
    (s, t) -> g exp(s X) exp(t Y); returns max |dw + w ^ w| entrywise.

    Everything is differenced numerically (no structure constants), so this
    is an independent oracle for the exact algebra used elsewhere.
    """
    if not isinstance(g, SU3Element):
        g = SU3Element(g)
    X = _check_su3_algebra(X)
    Y = _check_su3_algebra(Y)
    h = step

    def sigma(s: float, t: float) -> np.ndarray:
        return g.g @ _expm_su3(s * X) @ _expm_su3(t * Y)

    def central(f: Callable[[float], np.ndarray]) -> np.ndarray:
        # order-4 central difference at 0, with the weights of DiffBackend
        return (-f(2 * h) + 8.0 * f(h) - 8.0 * f(-h) + f(-2 * h)) / (12.0 * h)

    def w_ds(s: float, t: float) -> np.ndarray:
        return np.conj(sigma(s, t).T) @ central(lambda e: sigma(s + e, t))

    def w_dt(s: float, t: float) -> np.ndarray:
        return np.conj(sigma(s, t).T) @ central(lambda e: sigma(s, t + e))

    dw = central(lambda e: w_dt(e, 0.0)) - central(lambda e: w_ds(0.0, e))
    ws, wt = w_ds(0.0, 0.0), w_dt(0.0, 0.0)
    return float(np.max(np.abs(dw + (ws @ wt - wt @ ws))))


# ======================================================================
# the exterior algebra of the left-invariant coframe
# ======================================================================

def generator_form(k: int) -> ComplexForm:
    """The k-th left-invariant 1-form as a formal exterior generator."""
    return ComplexForm(8, 1, {(k,): 1.0})


def _w_matrix() -> List[List[ComplexForm]]:
    W = [[None] * 3 for _ in range(3)]
    for k, (l, m) in enumerate(_GEN_POS):
        W[l][m] = generator_form(k)
    W[2][2] = generator_form(6) * (-1.0) + generator_form(7) * (-1.0)
    return W


# signed pairing of conjugation: upper <-> minus lower, diagonal <-> minus itself
_CONJ_ROWS = np.zeros((8, 8))
for _a, _b in ((0, 3), (1, 4), (2, 5)):
    _CONJ_ROWS[_a, _b] = -1.0
    _CONJ_ROWS[_b, _a] = -1.0
_CONJ_ROWS[6, 6] = -1.0
_CONJ_ROWS[7, 7] = -1.0


def flag_conj(form: ComplexForm) -> ComplexForm:
    """Complex conjugation of an invariant form: conjugate coefficients and
    swap each generator with minus its transpose partner."""
    return substitute(form.conj(), _CONJ_ROWS)


@functools.lru_cache(maxsize=1)
def _d_table() -> Tuple[ComplexForm, ...]:
    """d of each generator from d w = -w ^ w (exact structure constants)."""
    W = _w_matrix()
    out = []
    for l, m in _GEN_POS:
        acc = ComplexForm(8, 2, {})
        for k in range(3):
            acc = acc + wedge(W[l][k], W[k][m])
        out.append(acc * (-1.0))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def d_matrix(k: int) -> np.ndarray:
    """D_k, the integer matrix (C(8, k + 1), C(8, k)) of d on invariant
    k-forms (read-only; D_8 has no rows).  Column S is d e_S by Leibniz over
    the generator derivatives: sum_pos (-1)^pos d(e_S[pos]) ^ e_(S without
    S[pos]), each 2-form d(e_g) moved to the front past pos 1-forms with no
    sign."""
    table = _d_table()
    D = np.zeros((math.comb(8, k + 1), math.comb(8, k)), dtype=int)
    for s, key in enumerate(slot_keys(8, k) if k < 8 else ()):
        for pos, g in enumerate(key):
            rest = ComplexForm.basis(8, key[:pos] + key[pos + 1:])
            D[:, s] += (-1) ** pos * wedge(table[g], rest).vec.real.astype(int)
    return read_only(D)


def _d_rows(rows: np.ndarray, k: int) -> np.ndarray:
    """d of each degree-k row of a stack (n, C(8, k)), cut: one product
    with D_k per row, so each row has the bits of its own product."""
    D = d_matrix(k)
    return cut(np.array([D @ v for v in rows], dtype=complex).reshape(len(rows), D.shape[0]))


def _check_invariant(form: ComplexForm) -> None:
    if form.dim != 8:
        raise ValueError(f"an invariant form lives over the 8 generators, got dimension {form.dim}")


def flag_d(form: ComplexForm) -> ComplexForm:
    """Exterior derivative of an invariant form: one product with the
    integer matrix D_k of its degree; exact, no differencing."""
    _check_invariant(form)
    return ComplexForm(8, form.degree + 1, _d_rows(form.vec[None], form.degree)[0])


# (1,0)-generator sets of the four distinguished structures; the conjugate
# structures 5..8 swap holomorphic and antiholomorphic roles
_HOLO_SET = {1: (0, 4, 5), 2: (0, 4, 2), 3: (0, 1, 5), 4: (0, 1, 2)}


@functools.lru_cache(maxsize=None)
def _holo_antiholo(i: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    if i not in range(1, 9):
        raise ValueError("structure index must lie in 1..8")
    base = _HOLO_SET[(i - 1) % 4 + 1]
    anti = tuple(k for k in range(6) if k not in base)
    return (base, anti) if i <= 4 else (anti, base)


# the diagonal generators w11, w22, which carry no bidegree
_DIAGONAL = (6, 7)


def _bidegree_rows(rows: np.ndarray, structures: Sequence[int], degree: int,
                   p_holo: int) -> np.ndarray:
    """The bidegree part of each row (n, C(8, degree)) for the structure of
    its pair (`exterior.bidegree_rows`), cut; a row with a diagonal
    component is refused."""
    if np.any(rows[:, slot_counts(8, degree, _DIAGONAL) > 0] != 0):
        raise ValueError("form has diagonal components; no quotient bidegree")
    return bidegree_rows(rows, 8, degree, [_holo_antiholo(i)[0] for i in structures], p_holo)


def flag_bidegree_part(form: ComplexForm, i: int, p_holo: int) -> ComplexForm:
    """Keep the monomials with exactly `p_holo` holomorphic generators with
    respect to structure i.  The diagonal generators carry no bidegree, so
    forms that do not descend to the quotient are rejected."""
    _check_invariant(form)
    return ComplexForm(8, form.degree, _bidegree_rows(form.vec[None], [i], form.degree, p_holo)[0])


@functools.lru_cache(maxsize=None)
def integrability_obstruction(i: int) -> float:
    """Norm of the (0,2)-components of the derivatives of the (1,0)-coframe.

    Zero exactly when the (0,1)-distribution is closed under bracket; the
    value is assembled from structure constants, so the six integrable
    structures give literal zero.  Computed once per structure.
    """
    holo, _ = _holo_antiholo(i)
    return float(np.max(norms(bidegree_rows(d_matrix(1)[:, list(holo)].T, 8, 2, holo, 0))))


# ======================================================================
# the invariant metric family
# ======================================================================

def _params(lam: Union[float, Sequence[float]]) -> Tuple[float, float, float]:
    if np.isscalar(lam):
        lams = (1.0, 1.0, float(lam))
    else:
        lams = tuple(float(v) for v in lam)
        if len(lams) != 3:
            raise ValueError(f"expected one scale parameter or three, got {len(lams)}")
    for v in lams:
        if not 0.0 < v < math.inf:          # false for nan too
            raise ValueError(f"scale parameters must be positive and finite, got {v:g}")
        if v * v == math.inf:
            raise ValueError(f"scale parameter {v:g} is too large: its square overflows")
    return lams  # type: ignore[return-value]


@functools.lru_cache(maxsize=1)
def _coframe_forms() -> Tuple[ComplexForm, ...]:
    """w12, w13, w23 and their conjugates, built once like the monomials below."""
    a, b, c = generator_form(0), generator_form(1), generator_form(2)
    return a, b, c, flag_conj(a), flag_conj(b), flag_conj(c)


@functools.lru_cache(maxsize=1)
def _three_forms() -> Tuple[ComplexForm, ComplexForm, ComplexForm]:
    """The invariant 3-form of every dK_i, and the real and imaginary parts
    of the (3,0)-form of the nearly-Kahler identities."""
    a, b, c, ab, bb, cb = _coframe_forms()
    rho = wedge_all(a, bb, c) * (1j) ** 3
    return (wedge_all(ab, b, cb) - wedge_all(a, bb, c),
            (rho + flag_conj(rho)) * 0.5, (rho - flag_conj(rho)) * (1.0 / 2j))


# signs (1, e2, e3) of the blocks w12 ^ conj(w12), conj(w13) ^ w13 and
# conj(w23) ^ w23 in K_i: the w13 block is + for i in {1, 2}, the w23 block
# + for i in {1, 3}.  flag's own table: its fiber block is conj(w23) ^ w23,
# the opposite of twistor's phi^3 ^ conj(phi^3)
_K_SIGNS = {1: (1.0, 1.0, 1.0), 2: (1.0, 1.0, -1.0), 3: (1.0, -1.0, 1.0), 4: (1.0, -1.0, -1.0)}


@functools.lru_cache(maxsize=1)
def _K_rows() -> np.ndarray:
    """The lambda-independent rows (3, 28) of the blocks of every K_i:
    w12 ^ conj(w12), conj(w13) ^ w13 and conj(w23) ^ w23 (read-only)."""
    a, b, c, ab, bb, cb = _coframe_forms()
    return read_only(np.array([wedge(a, ab).vec, wedge(bb, b).vec, wedge(cb, c).vec]))


_DK_SIGNS = {1: (1.0, 1.0, -1.0), 2: (1.0, 1.0, 1.0),
             3: (1.0, -1.0, -1.0), 4: (1.0, -1.0, 1.0)}


def _dK_coefficient(i: int, lams: Tuple[float, float, float]) -> float:
    s1, s2, s3 = _DK_SIGNS[i]
    return s1 * lams[0] ** 2 + s2 * lams[1] ** 2 + s3 * lams[2] ** 2


def flag_rows(pairs: Sequence[Tuple[int, Union[float, Sequence[float]]]]
              ) -> Tuple[np.ndarray, np.ndarray]:
    """(K, dK): the rows (n, 28) of K_i(lambda) and (n, 56) of dK_i(lambda)
    for the pairs (i, lambda), each pair checked in order.  K is one
    `weighted_sum` of the block rows with the weights (l1^2, e2 l2^2,
    e3 l3^2), and dK the cubic coefficient of each pair times the invariant
    3-form; row r has the bits of flag_K(*pairs[r]).vec and
    flag_dK(*pairs[r]).vec."""
    weights, factors = [], []
    for i, lam in pairs:
        lams = _params(lam)
        if i not in _K_SIGNS:
            raise ValueError("structure index must lie in 1..4")
        weights.append([e * v ** 2 for e, v in zip(_K_SIGNS[i], lams)])
        factors.append(1j * _dK_coefficient(i, lams))
    K = weighted_sum(np.array(weights).reshape(-1, 3), _K_rows())
    theta = _three_forms()[0].vec
    dK = np.array([_scale(theta, f) for f in factors], dtype=complex).reshape(-1, 56)
    return cut(K), cut(dK)


def flag_K(i: int, lam: Union[float, Sequence[float]]) -> ComplexForm:
    """The fundamental 2-form of structure i at scales (l1, l2, l3)."""
    return ComplexForm(8, 2, flag_rows([(i, lam)])[0][0])


def flag_dK(i: int, lam: Union[float, Sequence[float]]) -> ComplexForm:
    """First derivative of the fundamental form: a single cubic coefficient
    times the invariant 3-form; vanishes exactly on the displayed parameter
    quadrics (i = 2 has a positive coefficient and never closes)."""
    return ComplexForm(8, 3, flag_rows([(i, lam)])[1][0])


def flag_balanced(i: int, lam: Union[float, Sequence[float]]) -> ComplexForm:
    """K ^ dK, assembled by wedge; the product cancels exactly for every
    structure and every parameter choice."""
    K, dK = flag_rows([(i, lam)])
    return wedge(ComplexForm(8, 2, K[0]), ComplexForm(8, 3, dK[0]))


_DDBAR_SIGNS = {1: ((1.0, 1.0, -1.0), (-1.0, 1.0, 1.0)),
                3: ((-1.0, 1.0, 1.0), (1.0, -1.0, 1.0)),
                4: ((1.0, -1.0, 1.0), (1.0, 1.0, -1.0))}


@functools.lru_cache(maxsize=1)
def _ddbar_rows() -> Mapping[int, np.ndarray]:
    """The lambda-independent row (70,) of the second-derivative display of
    each i in {1, 3, 4}: its three 4-form monomials summed with their signs
    (a read-only mapping of read-only rows)."""
    a, b, c, ab, bb, cb = _coframe_forms()
    monomials = {1: (wedge_all(a, ab, bb, b), wedge_all(bb, b, cb, c), wedge_all(cb, c, a, ab)),
                 3: (wedge_all(a, ab, b, bb), wedge_all(b, bb, cb, c), wedge_all(cb, c, a, ab)),
                 4: (wedge_all(a, ab, b, bb), wedge_all(b, bb, c, cb), wedge_all(c, cb, a, ab))}
    out = {}
    for i, (m1, m2, m3) in monomials.items():
        t1, t2, t3 = _DDBAR_SIGNS[i][1]
        out[i] = read_only((m1 * t1 + m2 * t2 + m3 * t3).vec)
    return types.MappingProxyType(out)


def _ddbar_display(i: int, lam: Union[float, Sequence[float]]) -> np.ndarray:
    """The row of structure i in {1, 3, 4} times i^2 and its coefficient, cut."""
    lams = _params(lam)
    c1, c2, c3 = _DDBAR_SIGNS[i][0]
    coeff = c1 * lams[0] ** 2 + c2 * lams[1] ** 2 + c3 * lams[2] ** 2
    return cut(_scale(_ddbar_rows()[i], (1j) ** 2 * coeff))


def flag_ddbar(i: int, lam: Union[float, Sequence[float]]) -> ComplexForm:
    """The displayed second-derivative 4-forms for i in {1, 3, 4}."""
    lams = _params(lam)
    if i == 2:
        raise ValueError("no second-derivative display for i = 2")
    if i not in (1, 3, 4):
        raise ValueError("structure index must lie in 1..4")
    return ComplexForm(8, 4, _ddbar_display(i, lams))


def _structural_rows(dK_of_K: np.ndarray, structures: Sequence[int]) -> np.ndarray:
    """i * (2,2)-part of d of the (1,2)-part of each row of dK (n, 56)."""
    part = _d_rows(_bidegree_rows(dK_of_K, structures, 3, 1), 3)
    return cut(_scale(_bidegree_rows(part, structures, 4, 2), 1j))


def structural_ddbar(i: int, lam: Union[float, Sequence[float]]) -> ComplexForm:
    """i * (2,2)-part of d applied to the (1,2)-part of dK, all from
    structure constants; the independent cross-check of `flag_ddbar`."""
    return ComplexForm(8, 4, _structural_rows(_d_rows(flag_rows([(i, lam)])[0], 2), [i])[0])


class FlagDisplays:
    """The displays of the invariant family at the pairs (i, lambda), each
    pair checked in order on construction: the rows `K` (n, 28) and `dK`
    (n, 56) of one `flag_rows` pass, and the norms (n,) the appendix
    reports, each built on first use from the rows, with the bits of the
    norm of the same forms built pair by pair: `dK_norm` |dK|, `dK_residual`
    |d K - dK|, `balanced` |K ^ dK|, `dd` |d dK|, `one_two` |the (1,2)-part
    of dK| and `ddbar_residual` |flag_ddbar - structural_ddbar| (nan for
    i = 2, which has no display)."""

    def __init__(self, pairs: Sequence[Tuple[int, Union[float, Sequence[float]]]]):
        self.pairs = list(pairs)
        self.K, self.dK = flag_rows(self.pairs)
        self.structures = [i for i, _ in self.pairs]

    @functools.cached_property
    def _dK_of_K(self) -> np.ndarray:
        return _d_rows(self.K, 2)

    @functools.cached_property
    def dK_norm(self) -> np.ndarray:
        return norms(self.dK)

    @functools.cached_property
    def dK_residual(self) -> np.ndarray:
        return norms(cut(self._dK_of_K - self.dK))

    @functools.cached_property
    def balanced(self) -> np.ndarray:
        # the rows are sparse, so the term loop of `wedge` beats `wedge_vectors`
        return norms(np.array([wedge(ComplexForm(8, 2, k), ComplexForm(8, 3, d)).vec
                               for k, d in zip(self.K, self.dK)]).reshape(-1, 56))

    @functools.cached_property
    def dd(self) -> np.ndarray:
        return norms(_d_rows(self.dK, 3))

    @functools.cached_property
    def one_two(self) -> np.ndarray:
        return norms(_bidegree_rows(self.dK, self.structures, 3, 1))

    @functools.cached_property
    def ddbar_residual(self) -> np.ndarray:
        shown = [r for r, i in enumerate(self.structures) if i != 2]
        out = np.full(len(self.structures), np.nan)
        if shown:
            display = np.array([_ddbar_display(*self.pairs[r]) for r in shown])
            structural = _structural_rows(self._dK_of_K[shown], [self.structures[r] for r in shown])
            out[shown] = norms(cut(display - structural))
        return out


def nearly_kahler_check() -> Tuple[float, float]:
    """Residuals of the two distinguished identities at scales
    (1/sqrt2, 1/sqrt2, 1/sqrt2): the derivative of the second fundamental
    form against three times the real part of the invariant (3,0)-form, and
    the derivative of its imaginary part against minus twice K ^ K."""
    s = 1.0 / math.sqrt(2.0)
    K = flag_K(2, (s, s, s))
    _, re_rho, im_rho = _three_forms()
    r1 = (flag_d(K) - re_rho * 3.0).norm()
    r2 = (flag_d(im_rho) + wedge(K, K) * 2.0).norm()
    return r1, r2


# ======================================================================
# cross-checks against the curved-space machinery
# ======================================================================

def normalization_crosscheck(c: float = 2.0, conn: str = "lichnerowicz",
                             seed: int = 0) -> Tuple[float, float]:
    """Critical squared scale of the first structure from both models.

    The numeric side scans the projective-plane twistor family built from
    the curvature of the Fubini-Study metric with holomorphic sectional
    curvature `c` (root lambda^2 = 4/c); the algebraic side reports the
    exact root 2 of the invariant coefficient l1^2 + l2^2 - l3^2 at
    (1, 1, lambda), which corresponds to the c = 2 normalization.
    """
    from .manifold import builtin
    from .twistor import lambda_zero_crossing, sample_twistor_points

    M = builtin("cp2_fs", c=c)
    z = sample_twistor_points(M, 1, seed=seed)[0]
    root, _resid = lambda_zero_crossing(1, M, conn, z)
    if root is None:
        raise ValueError(f"the first structure has no fiber-scale root on cp2_fs with c = {c:g}")
    flag_root = 2.0
    if not abs(_dK_coefficient(1, (1.0, 1.0, math.sqrt(flag_root)))) < 1e-12:
        raise RuntimeError("the invariant coefficient does not vanish at its root 2")
    return float(root), flag_root


# the displayed right-hand sides of the three coframe structure equations,
# transcribed independently of the -w^w matrix product
def _displayed_structure_equations() -> Dict[int, ComplexForm]:
    g = generator_form
    return {
        0: wedge(g(6) - g(7), g(0)) * (-1.0) + wedge(g(5), g(1)),
        1: wedge(g(6) * 2.0 + g(7), g(1)) * (-1.0) + wedge(g(2), g(0)),
        2: wedge(g(6) + g(7) * 2.0, g(2)) * (-1.0) - wedge(g(3), g(1)),
    }


def scale_free_residuals() -> Tuple[float, Tuple[float, float]]:
    """The residuals of the appendix table that no scale enters: the
    structure equations' (d of each coframe generator against its displayed
    right-hand side) and the two nearly-Kahler residuals."""
    table = _d_table()
    displayed = _displayed_structure_equations()
    return max((table[k] - displayed[k]).norm() for k in displayed), nearly_kahler_check()


def appendix_table(lam: Union[float, Sequence[float]] = (1.0, 1.0, 1.0)) -> Dict[str, object]:
    """Everything the exact model asserts, as one JSON-friendly table:
    structure-equation residuals, per-structure derivative data, the
    integrability census, and the nearly-Kahler residuals."""
    lams = _params(lam)
    structure_res, (nk1, nk2) = scale_free_residuals()

    shown = FlagDisplays([(i, lams) for i in (1, 2, 3, 4)])
    rows = []
    for r, i in enumerate((1, 2, 3, 4)):
        row: Dict[str, object] = {
            "i": i,
            "dK_coefficient": _dK_coefficient(i, lams),
            "dK_residual": float(shown.dK_residual[r]),
            "d_closed": bool(shown.dK_norm[r] < 1e-12),
            "balanced_norm": float(shown.balanced[r]),
            "dd_residual": float(shown.dd[r]),
            "obstruction": integrability_obstruction(i),
            "integrable": integrability_obstruction(i) == 0.0,
        }
        if i == 2:
            row["ddbar_residual"] = None
            row["one_two_part_norm"] = float(shown.one_two[r])
        else:
            row["ddbar_residual"] = float(shown.ddbar_residual[r])
        rows.append(row)

    return {
        "lambda": list(lams),
        "generators": list(GENERATOR_NAMES),
        "structure_equation_residual": structure_res,
        "rows": rows,
        "integrable_count": sum(1 for i in range(1, 9)
                                if integrability_obstruction(i) == 0.0),
        "nearly_kahler_residuals": [nk1, nk2],
    }
