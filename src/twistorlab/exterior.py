"""Sparse complex exterior algebra over a small ordered coframe.

Everything downstream (frames, connections, twistor coframes) manipulates
differential forms pointwise, i.e. as elements of the exterior algebra of a
4- or 6-dimensional cotangent space with complex coefficients.  This module
is that kernel: forms are {strictly-increasing index tuple: coefficient}
maps with a hard zero threshold, so identities that should hold exactly
(antisymmetry, basis wedges, star eigenvalues) are testable without fuzz.

Conventions
-----------
* For 1-forms a, b:  (a ^ b)(X, Y) = a(X) b(Y) - a(Y) b(X).  No 1/2 factor.
* The Hodge star acts against an orthonormal coframe; with orientation=+1
  the volume form is e0^e1^e2^e3.
* Basis indices are 0-based everywhere in code.
"""

import functools
import itertools
import warnings
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

# Coefficients below this modulus are dropped after every operation.
ZERO_EPS = 1e-14

_ALLOWED_DIMS = (4, 6, 8)


def _sort_with_sign(indices: Sequence[int]) -> Tuple[Optional[Tuple[int, ...]], int]:
    """Sort an index tuple, tracking the permutation parity.

    Returns (sorted tuple, sign), or (None, 0) if an index repeats.
    """
    idx = list(indices)
    sign = 1
    # plain bubble sort over at most 8 indices; form construction and wedge
    # reach it through the memoized _canonical_key
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
            elif idx[j] == idx[j + 1]:
                return None, 0
    return tuple(idx), sign


@functools.lru_cache(maxsize=4096)
def _canonical_key(raw_key: Tuple[int, ...], dim: int, degree: int) -> Tuple[Optional[Tuple[int, ...]], int]:
    """(sorted key, sign) of a term key in a degree-`degree` form over `dim`
    covectors; (None, 0) when an index repeats, which drops the term before
    the length and range checks run.  Rejected keys raise and are not cached.
    """
    key, sign = _sort_with_sign(raw_key)
    if sign == 0:
        return None, 0
    if len(raw_key) != degree:
        raise ValueError(f"index tuple {raw_key} has length {len(raw_key)}, expected degree {degree}")
    if not all(0 <= i < dim for i in raw_key):
        raise ValueError(f"index tuple {raw_key} out of range for dimension {dim}")
    return key, sign


class ComplexForm:
    """A homogeneous complex-valued form over an ordered coframe basis.

    Attributes:
        dim: basis dimension, 4, 6 or 8.
        degree: form degree, 0..dim.
        terms: map from strictly increasing index tuples to complex
            coefficients; coefficients with |c| < ZERO_EPS are never stored.
    """

    __slots__ = ("dim", "degree", "terms")

    def __init__(self, dim: int, degree: int, terms: Optional[Dict[Tuple[int, ...], complex]] = None):
        if dim not in _ALLOWED_DIMS:
            raise ValueError(f"basis dimension must be 4, 6 or 8, got {dim}")
        if not 0 <= degree <= dim:
            raise ValueError(f"degree {degree} out of range for dimension {dim}")
        self.dim = dim
        self.degree = degree
        canon: Dict[Tuple[int, ...], complex] = {}
        for raw_key, coeff in (terms or {}).items():
            key, sign = _canonical_key(raw_key, dim, degree)
            if sign == 0:
                continue
            canon[key] = canon.get(key, 0.0) + sign * complex(coeff)
        self.terms = {k: v for k, v in canon.items() if abs(v) >= ZERO_EPS}

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
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0.0) + v
        return ComplexForm(self.dim, self.degree, out)

    def __sub__(self, other: "ComplexForm") -> "ComplexForm":
        return self + (-1.0) * other

    def __neg__(self) -> "ComplexForm":
        return (-1.0) * self

    def __mul__(self, scalar: complex) -> "ComplexForm":
        return ComplexForm(self.dim, self.degree, {k: scalar * v for k, v in self.terms.items()})

    __rmul__ = __mul__

    def conj(self) -> "ComplexForm":
        """Complex-conjugate the coefficients (basis covectors taken real)."""
        return ComplexForm(self.dim, self.degree, {k: np.conj(v) for k, v in self.terms.items()})

    def map_basis(self, index_map: Sequence[int], signs: Optional[Sequence[float]] = None,
                  conjugate_coeffs: bool = False) -> "ComplexForm":
        """Relabel basis covectors: e_i -> signs[i] * e_{index_map[i]}.

        Used for conjugation in a complex coframe, where conjugating the form
        also swaps holomorphic and antiholomorphic basis elements.
        """
        out: Dict[Tuple[int, ...], complex] = {}
        for key, coeff in self.terms.items():
            c = np.conj(coeff) if conjugate_coeffs else coeff
            if signs is not None:
                for i in key:
                    c *= signs[i]
            new_key = tuple(index_map[i] for i in key)
            k, s = _sort_with_sign(new_key)
            if s == 0:
                continue
            out[k] = out.get(k, 0.0) + s * c
        return ComplexForm(self.dim, self.degree, out)

    # ------------------------------------------------------------------
    # metric-free evaluation and comparison
    # ------------------------------------------------------------------

    def evaluate(self, vectors: np.ndarray) -> complex:
        """Evaluate on `degree` tangent vectors (rows of a (degree, dim) array)."""
        vectors = np.asarray(vectors)
        assert vectors.shape == (self.degree, self.dim), (
            f"expected {(self.degree, self.dim)} vector array, got {vectors.shape}")
        total = 0.0 + 0.0j
        for key, coeff in self.terms.items():
            minor = vectors[:, list(key)]
            total += coeff * np.linalg.det(minor)
        return total

    def to_array(self) -> np.ndarray:
        """Full antisymmetric component array A[i1, ..., ip] = form(e_{i1}, ..., e_{ip})."""
        arr = np.zeros((self.dim,) * self.degree, dtype=complex)
        for key, coeff in self.terms.items():
            for perm in itertools.permutations(range(self.degree)):
                _, sign = _sort_with_sign(perm)
                arr[tuple(key[p] for p in perm)] = sign * coeff
        return arr

    def norm(self) -> float:
        """Coefficient 2-norm (= induced norm for an orthonormal coframe)."""
        return float(np.sqrt(sum(abs(v) ** 2 for v in self.terms.values())))

    def isclose(self, other: "ComplexForm", tol: float = 1e-12) -> bool:
        if self.dim != other.dim or self.degree != other.degree:
            return False
        keys = set(self.terms) | set(other.terms)
        return all(abs(self.terms.get(k, 0.0) - other.terms.get(k, 0.0)) <= tol for k in keys)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComplexForm):
            return NotImplemented
        return self.isclose(other, tol=1e-12)

    __hash__ = None  # mutable-free, but tolerance-based equality forbids hashing

    def __repr__(self) -> str:
        if not self.terms:
            return f"ComplexForm(dim={self.dim}, degree={self.degree}, 0)"
        body = " + ".join(f"({v:.6g})e{''.join(str(i) for i in k)}" for k, v in sorted(self.terms.items()))
        return f"ComplexForm({body})"


# ======================================================================
# wedge product
# ======================================================================

def wedge(a: ComplexForm, b: ComplexForm) -> ComplexForm:
    """The exterior product a ^ b.

    Args:
        a, b: forms over the same basis.

    Returns:
        A form of degree a.degree + b.degree; the zero form when the total
        degree exceeds the basis dimension.
    """
    if a.dim != b.dim:
        raise ValueError("basis dimension mismatch")
    total = a.degree + b.degree
    if total > a.dim:
        return ComplexForm.zero(a.dim, a.dim)
    out: Dict[Tuple[int, ...], complex] = {}
    for ka, va in a.terms.items():
        for kb, vb in b.terms.items():
            key, sign = _canonical_key(ka + kb, a.dim, total)
            if sign == 0:
                continue
            out[key] = out.get(key, 0.0) + sign * va * vb
    return ComplexForm(a.dim, total, out)


def wedge_all(*forms: ComplexForm) -> ComplexForm:
    """Left-fold wedge of several forms."""
    assert forms, "wedge_all needs at least one form"
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
    assert rows.shape == (a.dim, a.dim), f"need a {a.dim}x{a.dim} matrix, got {rows.shape}"
    p = a.degree
    if p == 0:
        return a
    out: Dict[Tuple[int, ...], complex] = {}
    for key, coeff in a.terms.items():
        sub = rows[list(key), :]
        for new_key in itertools.combinations(range(a.dim), p):
            minor = np.linalg.det(sub[:, list(new_key)])
            if abs(minor) < ZERO_EPS:
                continue
            out[new_key] = out.get(new_key, 0.0) + coeff * minor
    return ComplexForm(a.dim, p, out)


# ======================================================================
# Hodge star and the self-dual / anti-self-dual splitting (dim 4 only)
# ======================================================================

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
    out: Dict[Tuple[int, ...], complex] = {}
    full = set(range(4))
    for key, coeff in a.terms.items():
        comp = tuple(sorted(full - set(key)))
        _, sign = _sort_with_sign(key + comp)
        out[comp] = out.get(comp, 0.0) + orientation * sign * coeff
    return ComplexForm(4, 4 - a.degree, out)


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
        assert len(plus) == 3 and len(minus) == 3, "need three forms per eigenspace"
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
    out = {}
    for key, coeff in a.terms.items():
        n_holo = sum(1 for i in key if i in holo)
        if n_holo == p:
            out[key] = coeff
    return ComplexForm(a.dim, a.degree, out)
