"""Dense complex exterior algebra over a small ordered coframe.

Everything downstream (frames, connections, twistor coframes) manipulates
differential forms pointwise, i.e. as elements of the exterior algebra of a
4-, 6- or 8-dimensional cotangent space with complex coefficients.  This
module is that kernel: a degree-p form over `dim` covectors is a dense
complex vector over the C(dim, p) strictly increasing index tuples, in
lexicographic order (the "slots" of that degree).  Entries below ZERO_EPS
are set to exactly 0 after every operation, so identities that should hold
exactly (antisymmetry, basis wedges, star eigenvalues) are testable without
fuzz.

The wedge product reads a signed slot table per (dim, p, q), built on first
use and cached: which pairs of input slots merge into which output slot,
with the sign of the merge.  `wedge` loops over the nonzero terms of two
forms in slot order; `wedge_vectors` takes stacks of coefficient rows at
once, with the table grouped by output slot, forms its products with real
arithmetic and sums them in slot-pair order, so both give the same bits.

Conventions
-----------
* For 1-forms a, b:  (a ^ b)(X, Y) = a(X) b(Y) - a(Y) b(X).  No 1/2 factor.
* The Hodge star acts against an orthonormal coframe; with orientation=+1
  the volume form is e0^e1^e2^e3.
* Basis indices are 0-based everywhere in code.
"""

import functools
import itertools
import math
import warnings
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

# Coefficients below this modulus are set to exactly 0 after every operation.
ZERO_EPS = 1e-14

_ALLOWED_DIMS = (4, 6, 8)


def _sort_with_sign(indices: Sequence[int]) -> Tuple[Optional[Tuple[int, ...]], int]:
    """Sort an index tuple, tracking the permutation parity.

    Returns (sorted tuple, sign), or (None, 0) if an index repeats.
    """
    idx = list(indices)
    sign = 1
    # plain bubble sort over at most 8 indices
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
            elif idx[j] == idx[j + 1]:
                return None, 0
    return tuple(idx), sign


@functools.lru_cache(maxsize=None)
def slot_keys(dim: int, degree: int) -> Tuple[Tuple[int, ...], ...]:
    """The index tuples of the degree-`degree` slots, in slot order."""
    return tuple(itertools.combinations(range(dim), degree))


@functools.lru_cache(maxsize=None)
def _slot_index(dim: int, degree: int) -> Dict[Tuple[int, ...], int]:
    return {key: s for s, key in enumerate(slot_keys(dim, degree))}


def _modulus(v: np.ndarray) -> np.ndarray:
    # hypot, as abs() of a python complex computes it
    return np.hypot(v.real, v.imag)


_ZERO = np.complex128(0.0)


def cut(v: np.ndarray) -> np.ndarray:
    """A complex copy of v with the entries below ZERO_EPS set to 0."""
    out = np.array(v, dtype=complex)
    np.putmask(out, _modulus(out) < ZERO_EPS, _ZERO)
    return out


def read_only(v: np.ndarray) -> np.ndarray:
    """v, marked read-only: for coefficient arrays that are shared."""
    v.flags.writeable = False
    return v


def _scale(v: np.ndarray, c: complex) -> np.ndarray:
    """c * v, with the bits of the python complex product per entry (the
    textbook formula; numpy's vector loop may fuse its multiply and add)."""
    c = complex(c)
    if c.imag == 0.0:
        return v * c.real
    out = np.empty(v.shape, dtype=complex)
    out.real = c.real * v.real - c.imag * v.imag
    out.imag = c.real * v.imag + c.imag * v.real
    return out


def weighted_sum(weights: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """i (w_1 C_1 + w_2 C_2 + w_3 C_3) for the building-block coefficient rows
    C (..., 3, m) and each row of a weight table (n, 3), or one row (3,),
    with the shape of weights @ coeffs: the one weighted sum behind every
    K_i and dK_i of the twistor coframes and every K_i of the flag model.
    Each step is cut as form arithmetic cuts it, so a row has the bits of
    ((C1 * w1 + C2 * w2) + C3 * w3) * 1j on forms (the factor 1j keeps every
    modulus, so its cut is a no-op)."""
    w = np.asarray(weights)[..., None]
    c = np.asarray(coeffs)
    c = c[..., None, :, :] if w.ndim == 3 else c
    total = cut(cut(c[..., 0, :] * w[..., 0, :]) + cut(c[..., 1, :] * w[..., 1, :]))
    return cut(total + cut(c[..., 2, :] * w[..., 2, :])) * 1j


def norms(vecs: np.ndarray) -> np.ndarray:
    """Coefficient 2-norms of the rows of a coefficient stack (..., n),
    the moduli squared and summed in slot order."""
    m = _modulus(vecs)
    with np.errstate(over="ignore"):        # a coefficient beyond 1e154 has norm inf
        return np.sqrt(np.cumsum(m * m, axis=-1)[..., -1])


def antisymmetric_array(rows: np.ndarray, dim: int, p: int) -> np.ndarray:
    """The full antisymmetric component arrays (..., dim, ..., dim) of a stack
    of degree-p rows (..., C(dim, p)): A[..., i1, ..., ip] = the coefficient
    of the slot of sorted(i1..ip) times the sign of that sort, 0 on repeated
    indices.  An odd ordering holds 0.0 - c, so a zero stays +0.0."""
    rows = np.asarray(rows)
    keys = np.array(slot_keys(dim, p), dtype=int).reshape(math.comb(dim, p), p)
    place = dim ** np.arange(p - 1, -1, -1)
    out = np.zeros(rows.shape[:-1] + (dim ** p,), dtype=rows.dtype)
    for perm in itertools.permutations(range(p)):
        out[..., keys[:, list(perm)] @ place] = 0.0 - rows if _sort_with_sign(perm)[1] < 0 else rows
    return out.reshape(rows.shape[:-1] + (dim,) * p)


class ComplexForm:
    """A homogeneous complex-valued form over an ordered coframe basis.

    Attributes:
        dim: basis dimension, 4, 6 or 8.
        degree: form degree, 0..dim.
        vec: the C(dim, degree) complex coefficients in slot order
            (`slot_keys`); entries with |c| < ZERO_EPS are exactly 0.
            Read-only: operations build new forms.
    """

    __slots__ = ("dim", "degree", "vec")

    def __init__(self, dim: int, degree: int,
                 terms: Union[None, Mapping[Tuple[int, ...], complex], np.ndarray] = None):
        """`terms` is a map from index tuples (any order; a repeated index
        drops the term) to coefficients, or a coefficient vector in slot
        order."""
        if dim not in _ALLOWED_DIMS:
            raise ValueError(f"basis dimension must be 4, 6 or 8, got {dim}")
        if not 0 <= degree <= dim:
            raise ValueError(f"degree {degree} out of range for dimension {dim}")
        self.dim = dim
        self.degree = degree
        if isinstance(terms, np.ndarray):
            n = math.comb(dim, degree)
            if terms.shape != (n,):
                raise ValueError(f"coefficient vector of shape {terms.shape}, "
                                 f"expected ({n},) for degree {degree} over {dim}")
            self.vec = read_only(cut(terms))
            return
        index = _slot_index(dim, degree)
        canon: Dict[int, complex] = {}
        for raw_key, coeff in (terms or {}).items():
            slot, sign = index.get(raw_key), 1
            if slot is None:
                key, sign = _sort_with_sign(raw_key)
                if sign == 0:
                    continue
                if len(raw_key) != degree:
                    raise ValueError(f"index tuple {raw_key} has length {len(raw_key)}, expected degree {degree}")
                if not all(0 <= i < dim for i in raw_key):
                    raise ValueError(f"index tuple {raw_key} out of range for dimension {dim}")
                slot = index[key]
            canon[slot] = canon.get(slot, 0.0) + sign * complex(coeff)
        vec = np.zeros(len(index), dtype=complex)
        for slot, v in canon.items():
            if not abs(v) < ZERO_EPS:
                vec[slot] = v
        self.vec = read_only(vec)

    @property
    def terms(self) -> Dict[Tuple[int, ...], complex]:
        """The nonzero coefficients by index tuple, in slot order (a fresh dict)."""
        keys = slot_keys(self.dim, self.degree)
        vals = (self.vec + 0.0).tolist()         # + 0.0 clears negative zeros
        return {keys[s]: vals[s] for s in self.vec.nonzero()[0].tolist()}

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, degree: int) -> "ComplexForm":
        return cls(dim, degree, {})

    @classmethod
    def basis(cls, dim: int, indices: Sequence[int], coeff: complex = 1.0) -> "ComplexForm":
        """The basis form e_{i1} ^ ... ^ e_{ip} (indices need not be sorted)."""
        return cls(dim, len(indices), {tuple(indices): coeff})

    @classmethod
    def scalar(cls, dim: int, value: complex) -> "ComplexForm":
        return cls(dim, 0, {(): value})

    # ------------------------------------------------------------------
    # linear structure
    # ------------------------------------------------------------------

    def _check_compatible(self, other: "ComplexForm") -> None:
        if self.dim != other.dim:
            raise ValueError("basis dimension mismatch")
        if self.degree != other.degree:
            raise ValueError(f"cannot add forms of degree {self.degree} and {other.degree}")

    def __add__(self, other: "ComplexForm") -> "ComplexForm":
        self._check_compatible(other)
        return ComplexForm(self.dim, self.degree, self.vec + other.vec)

    def __sub__(self, other: "ComplexForm") -> "ComplexForm":
        self._check_compatible(other)
        return ComplexForm(self.dim, self.degree, self.vec - other.vec)

    def __neg__(self) -> "ComplexForm":
        return ComplexForm(self.dim, self.degree, -self.vec)

    def __mul__(self, scalar: complex) -> "ComplexForm":
        return ComplexForm(self.dim, self.degree, _scale(self.vec, scalar))

    __rmul__ = __mul__

    def conj(self) -> "ComplexForm":
        """Complex-conjugate the coefficients (basis covectors taken real)."""
        return ComplexForm(self.dim, self.degree, self.vec.conj())

    # ------------------------------------------------------------------
    # metric-free evaluation and comparison
    # ------------------------------------------------------------------

    def evaluate(self, vectors: np.ndarray) -> complex:
        """Evaluate on `degree` tangent vectors (rows of a (degree, dim) array)."""
        vectors = np.asarray(vectors)
        if vectors.shape != (self.degree, self.dim):
            raise ValueError(f"expected {(self.degree, self.dim)} vector array, got {vectors.shape}")
        total = 0.0 + 0.0j
        for key, coeff in self.terms.items():
            minor = vectors[:, list(key)]
            total += coeff * np.linalg.det(minor)
        return total

    def to_array(self) -> np.ndarray:
        """Full antisymmetric component array A[i1, ..., ip] = form(e_{i1}, ..., e_{ip})."""
        return antisymmetric_array(self.vec, self.dim, self.degree)

    def norm(self) -> float:
        """Coefficient 2-norm (= induced norm for an orthonormal coframe)."""
        return float(norms(self.vec))

    def isclose(self, other: "ComplexForm", tol: float = 1e-12) -> bool:
        if self.dim != other.dim or self.degree != other.degree:
            return False
        return bool(np.all(_modulus(self.vec - other.vec) <= tol))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComplexForm):
            return NotImplemented
        return self.isclose(other, tol=1e-12)

    __hash__ = None  # mutable-free, but tolerance-based equality forbids hashing

    def __repr__(self) -> str:
        terms = self.terms
        if not terms:
            return f"ComplexForm(dim={self.dim}, degree={self.degree}, 0)"
        body = " + ".join(f"({v:.6g})e{''.join(str(i) for i in k)}" for k, v in terms.items())
        return f"ComplexForm({body})"


# ======================================================================
# wedge product
# ======================================================================

@functools.lru_cache(maxsize=None)
def _wedge_pairs(dim: int, p: int, q: int) -> Tuple[Dict[int, Tuple[int, int]], ...]:
    """The signed slot table of a ^ b for degrees p and q: merge[ia][ib] =
    (slot, sign) when the p-slot ia and the q-slot ib have disjoint index
    tuples, which merge into that slot of degree p+q with that sign."""
    index = _slot_index(dim, p + q)
    merge = []
    for ka in slot_keys(dim, p):
        row = {}
        for ib, kb in enumerate(slot_keys(dim, q)):
            key, sign = _sort_with_sign(ka + kb)
            if sign:
                row[ib] = (index[key], sign)
        merge.append(row)
    return tuple(merge)


@functools.lru_cache(maxsize=None)
def _wedge_table(dim: int, p: int, q: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_wedge_pairs` grouped by output slot, for stacks: (ia, ib, sign) of
    shapes (T, k), (T, k), (T, k, 1) for the T = C(dim, p+q) slots of
    degree p+q and k = C(p+q, p); row r lists the pairs that merge into
    slot r, in slot-pair order."""
    pairs = [(slot, ia, ib, sign) for ia, row in enumerate(_wedge_pairs(dim, p, q))
             for ib, (slot, sign) in row.items()]
    pairs.sort(key=lambda row: row[0])          # stable: slot-pair order per output slot
    table = np.array(pairs).reshape(math.comb(dim, p + q), -1, 4)
    return table[..., 1], table[..., 2], table[..., 3:].astype(float)


def _parts(v: np.ndarray) -> np.ndarray:
    """The real view (..., n, 2) of a complex stack v (..., n)."""
    v = np.ascontiguousarray(v, dtype=complex)
    return v.view(np.float64).reshape(v.shape + (2,))


def wedge_vectors(va: np.ndarray, vb: np.ndarray, dim: int, p: int, q: int) -> np.ndarray:
    """The coefficients of a ^ b for stacks of degree-p rows va (..., C(dim, p))
    and degree-q rows vb (..., C(dim, q)), with p + q <= dim; not cut."""
    ia, ib, sign = _wedge_table(dim, p, q)
    va, vb = np.asarray(va), np.asarray(vb)
    A, B = _parts(va)[..., ia, :] * sign, _parts(vb)[..., ib, :]
    # Q[..., u, v] = part u of +-a times part v of b; the textbook complex product
    with np.errstate(invalid="ignore"):     # inf * 0 of a pair masked below
        Q = A[..., :, None] * B[..., None, :]
    prod = np.empty(Q.shape[:-1])
    np.subtract(Q[..., 0, 0], Q[..., 1, 1], out=prod[..., 0])
    np.add(Q[..., 0, 1], Q[..., 1, 0], out=prod[..., 1])
    # a pair with a zero coefficient adds nothing, as in a loop over the
    # nonzero terms, even when the other coefficient is nan or inf
    skip = (va == 0)[..., ia] | (vb == 0)[..., ib]
    np.copyto(prod, 0.0, where=skip[..., None])
    # summed one pair after the other, as a term loop adds them
    return np.ascontiguousarray(np.cumsum(prod, axis=-2)[..., -1, :]).view(complex)[..., 0]


def d_rows(partials: np.ndarray, dim: int, k: int) -> np.ndarray:
    """The exterior derivative of a stack of degree-k rows from their partials:
    partials[..., p, s] is the p-th partial of the coefficient of slot s,
    shape (..., dim, C(dim, k)); returns the (..., C(dim, k + 1)) rows of
    d = sum_p e_p ^ d_p.  Each coefficient reads the slot table of
    `wedge_vectors` and is summed in its slot-pair order, p ascending; not
    cut.  The one statement of d's sign rule."""
    ia, ib, sign = _wedge_table(dim, 1, k)
    terms = _parts(partials)[..., ia, ib, :] * sign
    return np.ascontiguousarray(np.cumsum(terms, axis=-2)[..., -1, :]).view(complex)[..., 0]


def wedge(a: ComplexForm, b: ComplexForm) -> ComplexForm:
    """The exterior product a ^ b.

    Args:
        a, b: forms over the same basis.

    Returns:
        A form of degree a.degree + b.degree; the zero form when the total
        degree exceeds the basis dimension.

    The nonzero terms are multiplied pair by pair in slot order through the
    slot table, with the bits of `wedge_vectors`, the path for stacks of
    rows.  For one pair of forms with up to ~150 nonzero pairs (more than
    any caller here passes) this loop is the faster of the two.
    """
    if a.dim != b.dim:
        raise ValueError("basis dimension mismatch")
    total = a.degree + b.degree
    if total > a.dim:
        return ComplexForm.zero(a.dim, a.dim)
    merge = _wedge_pairs(a.dim, a.degree, b.degree)
    va, vb = a.vec.tolist(), b.vec.tolist()
    ib = b.vec.nonzero()[0].tolist()
    out: Dict[int, complex] = {}
    for i in a.vec.nonzero()[0].tolist():
        row, x = merge[i], va[i]
        for j in ib:
            hit = row.get(j)
            if hit:
                slot, sign = hit
                out[slot] = out.get(slot, 0.0) + sign * x * vb[j]
    vec = np.zeros(math.comb(a.dim, total), dtype=complex)
    for slot, v in out.items():
        vec[slot] = v
    return ComplexForm(a.dim, total, vec)


def wedge_all(*forms: ComplexForm) -> ComplexForm:
    """Left-fold wedge of several forms."""
    if not forms:
        raise ValueError("wedge_all needs at least one form")
    acc = forms[0]
    for f in forms[1:]:
        acc = wedge(acc, f)
    return acc


def substitute(a: ComplexForm, rows: np.ndarray) -> ComplexForm:
    """Rewrite a form under the covector substitution e_r -> sum_s rows[r, s] f_s.

    `rows` expands each current basis covector in a new coframe of the same
    dimension; basis p-forms pick up p x p minors of `rows`.
    """
    rows = np.asarray(rows, dtype=complex)
    if rows.shape != (a.dim, a.dim):
        raise ValueError(f"need a {a.dim}x{a.dim} matrix, got {rows.shape}")
    p = a.degree
    if p == 0:
        return a
    keys = np.array(slot_keys(a.dim, p))                 # (n, p)
    used = a.vec.nonzero()[0]
    # minors[u, s] = det of the rows of old slot used[u] restricted to the columns of new slot s
    sub = rows[keys[used]]                                # (m, p, dim)
    minors = np.linalg.det(sub[:, :, keys].transpose(0, 2, 1, 3))
    c = a.vec[used, None]
    re = c.real * minors.real - c.imag * minors.imag
    im = c.real * minors.imag + c.imag * minors.real
    small = _modulus(minors) < ZERO_EPS                   # such minors are skipped
    out = np.zeros(len(keys), dtype=complex)
    if len(used):
        out.real = np.cumsum(np.where(small, 0.0, re), axis=0)[-1]
        out.imag = np.cumsum(np.where(small, 0.0, im), axis=0)[-1]
    return ComplexForm(a.dim, p, out)


# ======================================================================
# Hodge star and the self-dual / anti-self-dual splitting (dim 4 only)
# ======================================================================

@functools.lru_cache(maxsize=None)
def _star_table(degree: int) -> Tuple[np.ndarray, np.ndarray]:
    """(source slot, sign) for each slot of degree 4 - degree: the star of
    e_K is sign(K, K^c) e_{K^c} for the complement K^c of K."""
    src, signs = [], []
    for comp in slot_keys(4, 4 - degree):
        key = tuple(i for i in range(4) if i not in comp)
        src.append(_slot_index(4, degree)[key])
        signs.append(float(_sort_with_sign(key + comp)[1]))
    return np.array(src, dtype=int), np.array(signs)


def hodge_star_4(a: ComplexForm, orientation: int = 1) -> ComplexForm:
    """Hodge star against an orthonormal 4-dim coframe.

    Args:
        a: any form of degree 0..4 over a 4-dim basis.
        orientation: +1 for volume form e0^e1^e2^e3, -1 for its negative.

    Returns:
        The (4 - degree)-form *a.  On 2-forms, applying it twice returns
        the original form.
    """
    if a.dim != 4:
        raise ValueError("hodge star defined only on 4-dim basis")
    if orientation not in (1, -1):
        raise ValueError(f"orientation must be +1 or -1, got {orientation}")
    src, signs = _star_table(a.degree)
    return ComplexForm(4, 4 - a.degree, a.vec[src] * (orientation * signs))


def sd_asd_split(a: ComplexForm) -> Tuple[ComplexForm, ComplexForm]:
    """Split a 2-form on an oriented orthonormal 4-dim coframe into its
    self-dual and anti-self-dual parts.

    Returns:
        (plus, minus) with a = plus + minus, *plus = plus, *minus = -minus.
    """
    if a.degree != 2:
        raise ValueError("split requires a 2-form")
    star = hodge_star_4(a)
    plus = 0.5 * (a + star)
    minus = 0.5 * (a - star)
    return plus, minus


class SdAsdBasis:
    """The orthonormal basis of self-dual and anti-self-dual 2-forms.

    plus[k], minus[k] (k = 0, 1, 2) are unit-norm 2-forms over an oriented
    orthonormal coframe (e0, e1, e2, e3):

        plus[0]  = (e0^e1 + e2^e3)/sqrt2     minus[0] = (e0^e1 - e2^e3)/sqrt2
        plus[1]  = (e0^e2 + e3^e1)/sqrt2     minus[1] = (e0^e2 - e3^e1)/sqrt2
        plus[2]  = (e0^e3 + e1^e2)/sqrt2     minus[2] = (e0^e3 - e1^e2)/sqrt2
    """

    def __init__(self, plus: List[ComplexForm], minus: List[ComplexForm]):
        if len(plus) != 3 or len(minus) != 3:
            raise ValueError("need three forms per eigenspace")
        self.plus = plus
        self.minus = minus

    @classmethod
    def standard(cls) -> "SdAsdBasis":
        r = 1.0 / np.sqrt(2.0)
        pairs = [((0, 1), (2, 3)), ((0, 2), (3, 1)), ((0, 3), (1, 2))]
        plus = [ComplexForm(4, 2, {p: r, q: r}) for p, q in pairs]
        minus = [ComplexForm(4, 2, {p: r, q: -r}) for p, q in pairs]
        return cls(plus, minus)

    def all_forms(self) -> List[ComplexForm]:
        return list(self.plus) + list(self.minus)


# ======================================================================
# bidegree (p, q) projection in a complex coframe
# ======================================================================

def bidegree_project(a: ComplexForm, complex_pairing: Iterable[Tuple[int, int]],
                     p: int, q: int) -> ComplexForm:
    """Project onto the (p, q) part with respect to a complex basis pairing.

    Args:
        a: a form whose basis indices split into holomorphic/antiholomorphic
            partners.
        complex_pairing: (holo index, antiholo index) pairs covering all
            basis indices.
        p, q: target bidegree with p + q = a.degree.

    Returns:
        The sub-sum of terms with exactly p holomorphic and q antiholomorphic
        indices.  If p + q != a.degree the result is the empty form and a
        warning is emitted.
    """
    pairs = list(complex_pairing)
    holo = {h for h, _ in pairs}
    anti = {ab for _, ab in pairs}
    covered = holo | anti
    if covered != set(range(a.dim)) or len(holo) + len(anti) != a.dim:
        raise ValueError(f"complex pairing {pairs} does not partition 0..{a.dim - 1}")
    if p + q != a.degree:
        warnings.warn(f"bidegree ({p},{q}) does not sum to form degree {a.degree}; returning empty form")
        return ComplexForm.zero(a.dim, a.degree)
    keep = np.array([sum(1 for i in key if i in holo) == p for key in slot_keys(a.dim, a.degree)])
    return ComplexForm(a.dim, a.degree, np.where(keep, a.vec, 0j))
