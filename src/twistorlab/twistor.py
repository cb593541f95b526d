"""Fiberwise complex-structure bundle over a Hermitian surface.

Over an oriented four-dimensional Hermitian surface, the unit sphere of
orthogonal complex structures compatible with the orientation forms a
2-sphere bundle.  This module charts that bundle with six real coordinates
(x^1..x^4, Re zeta, Im zeta), where zeta parametrises the fiber through the
line [u_1 + zeta u_2] of (1,0)-vectors of a Gram-Schmidt frame.

On the chart we build a complex coframe (phi^1, phi^2, phi^3): the first
two rows pull back the rotated (1,0)-coframe of the base, and phi^3 is the
off-diagonal entry of a canonical Hermitian connection along the rotated
frame section (Levi-Civita u(2)-projection at t = 0, Chern at t = 1).  Out
of the coframe come

  * four almost complex structures J_1..J_4 (conjugating phi^2 and/or
    phi^3 in the (1,0)-span),
  * a family of compatible metrics with fundamental forms K_i(lambda),
  * closed-form expressions for dK_i, K_i ^ dK_i and i del dbar K_i in
    terms of base curvature and torsion data, and
  * independent finite-difference oracles for the same quantities, plus a
    Nijenhuis-tensor oracle for integrability.

Everything is evaluated pointwise; no symbolic algebra is involved.  The
formula paths and the oracle paths share only the coframe itself, which one
checked pass builds for both, so their agreement is a genuine cross-check of
the structure data.
"""

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .exterior import (ComplexForm, bidegree_rows, cut, d_rows, norms, read_only, slot_keys,
                       substitute, wedge_vectors, weighted_sum)
from .manifold import (J_STANDARD, HermitianSurface, _compile_expr, _elementwise, _join,
                       adapted_frame, coordinate_fundamental_matrix, fd_rule, push_slots,
                       replay, replay_segments, segments_of, stack_field, with_stencils)
from .connection import (CONNECTION_T, _base_table, _omega_rows, complex_connection_matrix,
                         complexify, curvature_rows, dF_array, levi_civita, mu_from_omega,
                         torsion_tensor)
from .curvature_analysis import ConditionFlags, condition_flags

__all__ = [
    "LAMBDA_MIN", "TwistorPoint", "TwistorChart", "TwistorCoframe",
    "MetricConditionRow", "TwistorConditionReport",
    "normalize_connection", "coframe_rows", "twistor_coframe",
    "acs_endomorphism", "h_lambda_matrix", "K_form", "dK_formula",
    "balanced_defect_formula", "ddbar_formula", "CoframeSweep", "nijenhuis_oracle",
    "ddbar_oracle",
    "conformal_rescale", "conformal_compare", "principal_angles",
    "fiber_coordinate_on_bundle", "projective_bundle_form",
    "bundle_chart_compare", "lambda_zero_crossing",
    "condition_report", "sample_twistor_points", "DegenerateCoframeError",
]

# smallest admissible fiber-metric parameter; below this the metrics are
# numerically degenerate and every downstream solve loses accuracy
LAMBDA_MIN = 1e-3

# the chart's fiber bound |zeta| < _ZETA_MAX (the rotated frame section
# degenerates as the line approaches the antipode of the frame's own
# structure), and the radius of the disc the sample points are drawn from
_ZETA_MAX = 4.0
_SAMPLE_RADIUS = 0.7

# rows of the full complex coframe that are (1,0) for each structure:
# indices 0..2 are phi^1..phi^3, indices 3..5 their conjugates
_J_ROWS = {1: (0, 4, 2), 2: (0, 4, 5), 3: (0, 1, 2), 4: (0, 1, 5)}

# signs (1, e2, e3) of the building blocks in K_i = i(l1^2 W1 + e2 l2^2 W2 + e3 l3^2 W3):
# the phi^2-type term is + for i in {1,2}, the fiber term + for i in {1,3}
_WEIGHT_SIGNS = {1: (1.0, 1.0, 1.0), 2: (1.0, 1.0, -1.0), 3: (1.0, -1.0, 1.0), 4: (1.0, -1.0, -1.0)}
# the same rows as one table, and the row of each structure index
_SIGN_TABLE = np.array(list(_WEIGHT_SIGNS.values()))
_SIGN_ROW = {i: row for row, i in enumerate(_WEIGHT_SIGNS)}

# the (1,0) rows of an adapted coframe carry eigenvalue +i, the rest -i
_D = np.diag([1j, 1j, 1j, -1j, -1j, -1j])


class DegenerateCoframeError(ValueError):
    """A numerical breakdown of the coframe or of a J_i, naming the chart point."""

    def __init__(self, y: Optional[np.ndarray], reason: str):
        where = "" if y is None else f" at bundle point {[float(v) for v in y]}"
        super().__init__(f"surface invariant violation{where}: {reason}")


# ======================================================================
# points and charts
# ======================================================================

@dataclass(frozen=True)
class TwistorPoint:
    """A base point together with a fiber line of (1,0)-vectors.

    The line is stored projectively normalised: unit length, first
    non-vanishing component positive real.
    """

    x: np.ndarray          # (4,) real
    line: np.ndarray       # (2,) complex, normalised

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        line = np.asarray(self.line, dtype=complex)
        if x.shape != (4,) or line.shape != (2,):
            raise ValueError(f"a twistor point needs a base point of shape (4,) and a line of "
                             f"shape (2,), got {x.shape} and {line.shape}")
        n = np.linalg.norm(line)
        if n < 1e-14:
            raise ValueError("twistor line must be nonzero")
        line = line / n
        for c in line:
            if abs(c) > 1e-14:
                line = line * (np.conj(c) / abs(c))
                break
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "line", line)

    @classmethod
    def from_zeta(cls, x: np.ndarray, zeta: complex) -> "TwistorPoint":
        return cls(np.asarray(x, dtype=float), np.array([1.0, zeta], dtype=complex))

    @property
    def zeta(self) -> complex:
        if abs(self.line[0]) < 1e-12:
            raise ValueError("fiber coordinate out of chart")
        return complex(self.line[1] / self.line[0])

    def chart_coordinates(self) -> np.ndarray:
        z = self.zeta
        return np.concatenate([self.x, [z.real, z.imag]])


@dataclass(frozen=True)
class TwistorChart:
    """The product chart (base box) x (|zeta| < 4) of the bundle."""

    surface: HermitianSurface

    @property
    def coords(self) -> Tuple[str, ...]:
        return ("x1", "x2", "x3", "x4", "zeta_re", "zeta_im")

    def contains(self, z: TwistorPoint) -> bool:
        box = self.surface.chart.box
        if np.any(z.x < box[:, 0]) or np.any(z.x > box[:, 1]):
            return False
        try:
            zeta = z.zeta
        except ValueError:
            return False
        return abs(zeta) < _ZETA_MAX

    def sample_points(self, n: int, seed: int) -> List[TwistorPoint]:
        """Deterministic interior sample: Latin-hypercube base points with
        fiber coordinates in the disc of radius 0.7."""
        xs = self.surface.chart.interior_points(n, seed=seed)
        rng = np.random.default_rng(seed + 7)
        out = []
        for k in range(n):
            r = _SAMPLE_RADIUS * math.sqrt(rng.uniform(0.05, 1.0))
            a = rng.uniform(0.0, 2.0 * math.pi)
            out.append(TwistorPoint.from_zeta(xs[k], r * complex(math.cos(a), math.sin(a))))
        return out


def sample_twistor_points(M: HermitianSurface, n: int, seed: int) -> List[TwistorPoint]:
    return TwistorChart(M).sample_points(n, seed)


def normalize_connection(conn: Union[str, float]) -> Tuple[float, str]:
    """Resolve a connection choice (name or family parameter) to (t, label)."""
    if isinstance(conn, str):
        key = conn.lower()
        if key not in CONNECTION_T:
            raise ValueError(f"unknown connection {conn!r}; choose from {sorted(CONNECTION_T)} or a numeric parameter")
        t = CONNECTION_T[key]
        return t, key
    t = float(conn)
    for name, tv in CONNECTION_T.items():
        if abs(t - tv) < 1e-12:
            return tv, name
    return t, f"gauduchon({t:g})"


def _lambdas(lam: Union[float, Sequence[float]]) -> Tuple[float, float, float]:
    if np.isscalar(lam):
        lams = (1.0, 1.0, float(lam))
    else:
        lams = tuple(float(v) for v in lam)
        if len(lams) != 3:
            raise ValueError("expected one fiber parameter or three scale parameters")
    for v in lams:
        if not v < math.inf:                 # true for nan
            raise ValueError(f"metric parameter {v:g} is not finite")
        if v < LAMBDA_MIN:
            raise ValueError(f"metric parameter {v:g} below the positivity floor {LAMBDA_MIN:g}")
        if v * v == math.inf:
            raise ValueError(f"metric parameter {v:g} is too large: its square overflows")
    return lams  # type: ignore[return-value]


# ======================================================================
# the pulled-back coframe
# ======================================================================

def _su2(zeta) -> np.ndarray:
    """Columns are the coefficients of the rotated (1,0)-frame (v_1, v_2)
    over (u_1, u_2):  v_1 = (u_1 + zeta u_2)/N,  v_2 = (-conj(zeta) u_1 + u_2)/N,
    for a number zeta (2, 2) or each entry of an array zeta (..., 2, 2)."""
    z = np.asarray(zeta, dtype=complex)
    A = np.ones(z.shape + (2, 2), dtype=complex)
    A[..., 0, 1], A[..., 1, 0] = -np.conj(z), z
    return A / np.sqrt(_norm2(z.reshape(-1))).reshape(z.shape + (1, 1))


# 1 + |zeta|^2 and conj(zeta)^2 entry by entry with python's scalar
# arithmetic, which numpy's array abs, square and complex product do not
# reproduce bit for bit
_norm2 = _elementwise(lambda z: 1.0 + abs(z) ** 2)
_square = _elementwise(lambda z: z * z)


def _mobius12(P: np.ndarray, zeta) -> np.ndarray:
    """(A* P A)[0, 1] for A = _su2(zeta): the rotated off-diagonal entry of a
    2x2 matrix of components (trailing axes carried along; zeta is a number
    or an array that broadcasts against them)."""
    zb = np.conj(zeta)
    return (P[0, 1] + zb * (P[1, 1] - P[0, 0]) - _square(zb) * P[1, 0]) / _norm2(zeta)


def coframe_rows(M: HermitianSurface, t: float, y: Optional[np.ndarray] = None) -> np.ndarray:
    """The complex coframe matrix B at chart point y = (x, Re zeta, Im zeta),
    or at every point of a stack y (..., 6), giving (..., 3, 6), or of the
    segments M = [(surface, y (k, 6)), ...] (y None), giving (n, 3, 6).

    Rows hold the coordinate components of phi^1, phi^2, phi^3 over
    (dx^1..dx^4, d zeta_re, d zeta_im).  phi^1 and phi^2 are the rotated
    (1,0)-coframe pulled back from the base; phi^3 is the off-diagonal
    connection entry along the rotated frame section, whose pure fiber part
    is -d conj(zeta) / (1 + |zeta|^2).  The base data of every segment come
    from one `_omega_rows` lookup, from the base table, so a second
    connection at visited points evaluates no metric.
    """
    segments, shape = segments_of(M, y)
    Y = _join([p for _, p in segments])
    om_t, eta = _omega_rows([(S, p[:, :4]) for S, p in segments], None, t)
    zeta = np.ascontiguousarray(Y[:, 4:]).view(complex)[:, 0]
    N2 = _norm2(zeta)[:, None]
    N = np.sqrt(N2)
    B = np.zeros(zeta.shape + (3, 6), dtype=complex)
    B[:, 0, :4] = (eta[:, 0] + np.conj(zeta)[:, None] * eta[:, 1]) / N
    B[:, 1, :4] = (-zeta[:, None] * eta[:, 0] + eta[:, 1]) / N
    B[:, 2, :4] = _mobius12(np.moveaxis(complex_connection_matrix(om_t), 0, 2), zeta[:, None])
    B[:, 2, 4:5] = -1.0 / N2
    B[:, 2, 5:6] = 1j / N2
    return B.reshape(shape + (3, 6))


# a coframe whose Gram determinant is at most this (or NaN) is degenerate
_GRAM_MIN = 1e-8
_GRAM_REASON = "coframe degenerated (Gram determinant ~ 0)"


def _full_rows(B: np.ndarray) -> np.ndarray:
    """The (..., 6, 6) matrices of the coframe rows B (..., 3, 6) over their conjugates."""
    return np.concatenate([B, np.conj(B)], axis=-2)


def _gram_determinant(B: np.ndarray) -> np.ndarray:
    """The Gram determinant of the coframe rows B (..., 3, 6) and their
    conjugates at every point: (...)."""
    return np.linalg.det(_full_rows(B))


def _coframe_pass(t: float, stencils: bool, segments: List[Tuple[HermitianSurface, np.ndarray]]):
    """(y (n, 6), zeta (n,), B (n, 3, 6), dB (n, 6, 3, 6) or None) of the chart
    points of the segments [(surface, y (k, 6)), ...]: B at the points, and
    with `stencils` at their FD stencils too (`with_stencils`), from one
    `coframe_rows` call, then one FD combine for dB.  The first failing point
    raises a fiber coordinate outside the chart, then a Gram determinant near
    zero or not finite (B at a lone point checked first when its stencils
    fail), then a dB that is not finite: the one check of every coframe."""
    y = _join([p for _, p in segments])
    zeta = np.ascontiguousarray(y[:, 4:]).view(complex)[:, 0]
    far = np.abs(zeta) >= _ZETA_MAX
    if far.any():
        raise ValueError(f"fiber coordinate out of chart at bundle point {y[np.argmax(far)].tolist()}")
    if not stencils:
        B, dB = coframe_rows(segments, t), None
    else:
        stacked, split = with_stencils(segments)
        try:
            B, around = split(coframe_rows(stacked, t))
        except Exception:
            if len(y) == 1:
                _coframe_pass(t, False, segments)
            raise
        dB = np.ascontiguousarray(np.moveaxis(fd_rule(segments).combine(around), 0, 1))
    gram = np.abs(_gram_determinant(B)) > _GRAM_MIN
    bad = ~gram if dB is None else ~gram | ~np.all(np.isfinite(dB), axis=(1, 2, 3))
    if bad.any():
        k = int(np.argmax(bad))
        raise DegenerateCoframeError(y[k], _GRAM_REASON if not gram[k] else "coframe derivative not finite")
    return y, zeta, B, dB


# the slots of the dim-6 2-forms that hold the dim-4 2-forms over dx
_BASE_SLOTS = [s for s, key in enumerate(slot_keys(6, 2)) if max(key) < 4]


def _lift_rows(rows4: np.ndarray) -> np.ndarray:
    """Base 2-form rows (..., 6) over dx as cut rows (..., 15) over the chart."""
    out = np.zeros(rows4.shape[:-1] + (15,), dtype=complex)
    out[..., _BASE_SLOTS] = rows4
    return cut(out)


def _two_form_rows(mat: np.ndarray) -> np.ndarray:
    """The cut rows (..., 15) of the chart 2-forms with coefficients
    mat[..., p, q], p < q, for base matrices mat (..., 4, 4)."""
    m, n = np.triu_indices(4, 1)
    return _lift_rows(mat[..., m, n])


def _times(rows: np.ndarray, c) -> np.ndarray:
    """The rows (..., m) times the numbers c (...), each with the bits of
    `ComplexForm.__mul__` (the textbook complex product); not cut."""
    c = np.asarray(c, dtype=complex)[..., None]
    out = np.empty(np.broadcast_shapes(rows.shape, c.shape), dtype=complex)
    out.real = c.real * rows.real - c.imag * rows.imag
    out.imag = c.real * rows.imag + c.imag * rows.real
    return out


def _wedges(pairs, p: int, q: int) -> np.ndarray:
    """The cut rows of a ^ b for each pair (a, b) of chart row stacks of
    degrees p and q, from one `wedge_vectors` call: each with the bits of
    `wedge` on the forms of its rows."""
    a, b = zip(*pairs)
    return cut(wedge_vectors(np.stack(a), np.stack(b), 6, p, q))


# the frame components of u_1, u_2 over the adapted frame, before the 1/sqrt2
_U_ROWS = np.array([[1.0, -1j, 0.0, 0.0], [0.0, 0.0, 1.0, -1j]])

# the points of a stack over several surfaces: [(M, points), ...]
Segments = Sequence[Tuple[HermitianSurface, Sequence[TwistorPoint]]]


def _segments(M: Union[HermitianSurface, Segments], points: Optional[Sequence[TwistorPoint]],
              what: str) -> Tuple[List[Tuple[HermitianSurface, np.ndarray]], Tuple[int]]:
    """The chart-point segments [(surface, y (k, 6)), ...] of a stack and its
    one point axis (`segments_of`): the surface M with its points, or M a
    sequence of (surface, points) segments and no `points`.  Each segment
    must hold at least one point."""
    if isinstance(M, HermitianSurface):
        segments = [(M, points)]
    elif points is not None:
        raise TypeError("a stack of segments takes its points inside the segments")
    else:
        segments = [(S, p) for S, p in M]
    if not segments or not all(len(p) for _, p in segments):
        raise ValueError(f"{what} needs at least one bundle point")
    return segments_of([(S, [z.chart_coordinates() for z in p]) for S, p in segments], None)


def _coframes(segments: List[Tuple[HermitianSurface, np.ndarray]], shape: Tuple[int, ...],
              conn: Union[str, float], stencils: bool = False):
    """The `TwistorCoframe` of the chart-point segments [(surface, y (k, 6)),
    ...] with the point axes `shape` (() for one point), and the partials dB
    (shape + (6, 3, 6)) of its B with `stencils`, else None: one checked pass
    over every point (`_coframe_pass`), replayed point by point in segment
    order."""
    t, label = normalize_connection(conn)
    y, zeta, B, dB = replay_segments(functools.partial(_coframe_pass, t, stencils), segments)
    co = TwistorCoframe(segments=tuple((M, len(p)) for M, p in segments), label=label, t=t,
                        y=y.reshape(shape + (6,)), zeta=zeta.reshape(shape) if shape else complex(zeta[0]),
                        B=B.reshape(shape + (3, 6)))
    return co, None if dB is None else dB.reshape(shape + (6, 3, 6))


@dataclass(frozen=True)
class TwistorCoframe:
    """The coframe and structure data of one connection at a stack of bundle
    points.

    `TwistorCoframe.stack(M, conn, points)` evaluates n bundle points at
    once: `B` (rows phi^1..phi^3 over the chart coordinates) from one
    `coframe_rows` call, and the base frames and Levi-Civita forms from the
    t-independent base table that the torsion also reads, so a second
    connection at the same points evaluates no metric, dF or Levi-Civita
    form.  The arrays carry the point axes of the input, `y` (n, 6) and `B`
    (n, 3, 6) for a stack, (6,) and (3, 6) for one point, and each point's
    values have the bits of its own one-point coframe.

    One checked pass builds every coframe (`_coframe_pass`, over chart-point
    segments): `stack` and `twistor_coframe` run it without stencils, and a
    `CoframeSweep` runs it once over its points and their stencils and keeps
    the coframe of its points as `sweep.coframe`, which the closed-form
    displays of `condition_report` and of verify read.  `stack(segments,
    conn)` stacks the points of several surfaces, and `stack(M, conn,
    points)` and `twistor_coframe` are its one-segment cases.  Every layer
    (`coframe_rows`, the base table, the Levi-Civita curvature, the torsion
    and the Chern curvature) is one call over all the segments; only each
    surface's memo lookup and its own metric and J run per segment (see
    `point_memo`).  `segments` holds each surface's point count.

    The closed-form rows do not depend on i or lambda; each is built on
    first use, from coefficient rows with `wedge_vectors`, and shared by
    every `K_form`, `dK_formula`, `balanced_defect_formula` and
    `ddbar_formula`:
    `W_coeffs` (..., 3, 15) of the building blocks W_a, `dW_coeffs`
    (..., 3, 20) of their closed-form derivatives, and `balanced_brackets`
    (..., 2, 6), the lambda-independent 5-forms of the K_i ^ dK_i displays
    (one for i in {1, 2}, one for i in {3, 4}).  Their inputs are built on
    first use too: the Levi-Civita curvature entries for t = 0, the torsion
    for t != 0 and the Chern curvature for t = 1, so dW of a Chern stack
    needs only the entry Psi^1_2 and no `levi_civita` call.  Callers must
    not mutate the rows (they are read-only).

    The curvature and torsion entries are rotated into the fiber frame
    (v_1, v_2), which is the frame the derivative formulas are written in;
    `mu` needs no rotation (the fiber rotation acts trivially on that part
    of the connection and contributes no fiber components).  Every entry
    (`_phi`, `_mu`, `_tau3`, `_omega_diff`, `_R_hat`, `_T_hat`, `_psi_hat`)
    holds one slot row or number per point, (n, ...), for one point and a
    stack alike; the displays read them, and only their results take the
    point axes of the input.
    """

    segments: Tuple[Tuple[HermitianSurface, int], ...]
    label: str
    t: float
    y: np.ndarray                      # (..., 6)
    zeta: Union[complex, np.ndarray]   # a number for one point, (n,) for a stack
    B: np.ndarray                      # (..., 3, 6) complex

    @classmethod
    def stack(cls, M: Union[HermitianSurface, Segments], conn: Union[str, float],
              points: Optional[Sequence[TwistorPoint]] = None) -> "TwistorCoframe":
        """One coframe of every point of `points` (at least one) on M, or of
        every point of the segments M = [(surface, points), ...].

        Raises ValueError for a fiber coordinate outside the chart (|zeta|
        < 4; the section degenerates as the line approaches the antipode of
        the frame's own structure), and DegenerateCoframeError when the Gram
        determinant of the coframe is near zero or not finite, naming the
        first failing point in stack order.
        """
        return _coframes(*_segments(M, points, "a twistor coframe"), conn)[0]

    @property
    def surface(self) -> HermitianSurface:
        """The surface of a one-surface coframe."""
        if len(self.segments) != 1:
            raise ValueError("a coframe of several surfaces has no one surface")
        return self.segments[0][0]

    # -- the stack with one point axis -----------------------------------

    def _out(self, rows: np.ndarray) -> np.ndarray:
        """Read-only rows (n, ...) with the point axes of the input."""
        return read_only(rows.reshape(np.shape(self.y)[:-1] + rows.shape[1:]))

    @functools.cached_property
    def _base_points(self) -> list:
        """The segments [(surface, base points (k, 4)), ...] of the stack."""
        ends = np.cumsum([n for _, n in self.segments])[:-1]
        return [(M, x) for (M, _), x in zip(self.segments, np.split(np.reshape(self.y, (-1, 6))[:, :4], ends))]

    @functools.cached_property
    def _phi(self) -> np.ndarray:
        """The rows (n, 3, 6) of phi^1..phi^3, as their forms hold them."""
        return cut(np.reshape(self.B, (-1, 3, 6)))

    @functools.cached_property
    def _base(self):
        """The base table rows (omega^LC, the frame) at the base points."""
        return _base_table(self._base_points)

    @functools.cached_property
    def _rotation(self) -> np.ndarray:
        """The fiber rotations A = _su2(zeta) (n, 2, 2)."""
        return _su2(np.reshape(self.zeta, -1))

    @functools.cached_property
    def _mu(self) -> np.ndarray:
        mu = mu_from_omega(self._base.omega)
        return cut(np.concatenate([mu, np.zeros(mu.shape[:-1] + (2,))], axis=-1))

    # -- Levi-Civita curvature entries, rotated (any t) --------------------

    @functools.cached_property
    def _Vrows(self) -> np.ndarray:
        """The adapted-frame components (n, 2, 4) of v_1, v_2."""
        return np.swapaxes(self._rotation, -1, -2) @ _U_ROWS / math.sqrt(2.0)

    @functools.cached_property
    def _lc_curvature(self) -> Tuple[np.ndarray, np.ndarray]:
        """(R, Om): the Levi-Civita curvature in frame components and its
        forms Om^i_j over dx."""
        lc = levi_civita(self._base_points)
        return lc.R, push_slots(lc.R, lc.frame.theta, (2, 3))

    @functools.cached_property
    def _tau3(self) -> np.ndarray:
        Om = self._lc_curvature[1]
        P = complex_connection_matrix(Om.reshape(-1, 4, 4, 16)).reshape(-1, 2, 2, 4, 4)
        return _two_form_rows(_mobius12(np.moveaxis(P, 0, 2), np.reshape(self.zeta, (-1, 1, 1))))

    @functools.cached_property
    def _omega_diff(self) -> np.ndarray:
        """i(Om^1_2 - Om^3_4) in the real rotation of the adapted frame that A induces."""
        Om, Vrows = self._lc_curvature[1], self._Vrows
        Q = np.stack([
            math.sqrt(2.0) * np.real(Vrows[:, 0]), -math.sqrt(2.0) * np.imag(Vrows[:, 0]),
            math.sqrt(2.0) * np.real(Vrows[:, 1]), -math.sqrt(2.0) * np.imag(Vrows[:, 1]),
        ], axis=-1)
        Om_rot = push_slots(Om, Q, (0, 1))
        return _two_form_rows(1j * (Om_rot[:, 0, 1] - Om_rot[:, 2, 3]))

    @functools.cached_property
    def _R_hat(self) -> Dict[str, np.ndarray]:
        R = self._lc_curvature[0]
        return {p: np.array([complexify(r, p, v) for r, v in zip(R, self._Vrows)])
                for p in ("1*222*", "1*211*")}

    # -- torsion (t != 0) and Chern curvature (t = 1), rotated -------------

    @functools.cached_property
    def _torsion(self) -> Optional[np.ndarray]:
        """T^a over dx (n, 2, 4, 4) for a = 1, 2 of the horizontal rows."""
        if abs(self.t) <= 1e-12:
            return None
        rows = np.reshape(self.B, (-1, 3, 6))[:, :2, :4]
        return np.einsum("...am,...mnr->...anr", rows, torsion_tensor(self._base_points, None, self.t))

    @functools.cached_property
    def _T_hat(self) -> Optional[np.ndarray]:
        return None if self._torsion is None else _two_form_rows(self._torsion)

    @functools.cached_property
    def _chern_curvature(self) -> np.ndarray:
        """The Chern curvature rows Psi^c_d over the chart (n, 2, 2, 15)."""
        return _lift_rows(cut(curvature_rows(self._base_points, None, 1.0)))

    def _psi_hat(self, a: int, b: int) -> np.ndarray:
        """Psi^a_b rotated into the fiber frame, (n, 15): the weights of the
        base curvature forms summed in (c, d) order, zero weights skipped."""
        A = self._rotation
        acc = np.zeros((len(A), 15), dtype=complex)
        for c in range(2):
            for d in range(2):
                w = _times(A[:, d, b, None], np.conj(A[:, c, a]))[:, 0]
                step = cut(acc + cut(_times(self._chern_curvature[:, c, d], w)))
                acc = np.where((w == 0.0)[:, None], acc, step)
        return acc

    # -- the closed-form rows ---------------------------------------------

    @functools.cached_property
    def W_coeffs(self) -> np.ndarray:
        """The coefficient rows (..., 3, 15) of W_1 = phi^1 ^ conj(phi^1),
        W_2 = conj(phi^2) ^ phi^2 and W_3 = phi^3 ^ conj(phi^3) (read-only)."""
        out = np.einsum("...am,...an->...amn", self.B, np.conj(self.B))
        out = out - np.swapaxes(out, -1, -2)
        out[..., 1, :, :] = -out[..., 1, :, :]
        m, n = np.triu_indices(6, 1)
        return read_only(cut(out[..., m, n]))

    @functools.cached_property
    def dW_coeffs(self) -> np.ndarray:
        """The coefficient rows (..., 3, 20) of dW_1, dW_2, dW_3 from the
        structure data (read-only)."""
        return self._out(_structure_dW(self))

    @functools.cached_property
    def balanced_brackets(self) -> np.ndarray:
        """The brackets (..., 2, 6) of the K_i ^ dK_i displays, before their
        lambda scaling: i in {1, 2}, then i in {3, 4} (read-only)."""
        return self._out(_balanced_brackets(self))

    def full_rows(self) -> np.ndarray:
        """The 6x6 matrix with rows phi^1..phi^3, conj(phi^1)..conj(phi^3):
        (6, 6) for one point, (n, 6, 6) for a stack."""
        return _full_rows(self.B)

    def gram_determinant(self) -> Union[complex, np.ndarray]:
        """The determinant of `full_rows`: a complex for one point, (n,) for a stack."""
        det = _gram_determinant(self.B)
        return complex(det) if det.ndim == 0 else det


def twistor_coframe(M: HermitianSurface, conn: Union[str, float], z: TwistorPoint,
                    with_structure: bool = True) -> TwistorCoframe:
    """The coframe of one connection at one bundle point: the one-point case
    of `TwistorCoframe.stack`, with the arrays of one point.

    `with_structure` is ignored, since every structure entry is built on
    first use; it is accepted for callers that still pass it.  Raises as
    `TwistorCoframe.stack` does.
    """
    return _coframes(*segments_of(M, z.chart_coordinates()), conn)[0]


# ======================================================================
# almost complex structures and metrics
# ======================================================================

def _adapted_rows(i: int, B: np.ndarray) -> np.ndarray:
    """The 6x6 complex matrices (..., 6, 6) whose first three rows are the
    J_i-(1,0) coframe, for coframe rows B (..., 3, 6)."""
    top = np.concatenate([B, np.conj(B)], axis=-2)[..., list(_J_ROWS[i]), :]
    return np.concatenate([top, np.conj(top)], axis=-2)


def _real_part(A: np.ndarray, y: Optional[np.ndarray], what: str) -> np.ndarray:
    """Re A, after checking that the imaginary residue of A is roundoff.  A
    holds one block per point of the stack y (..., 6), or one block when y
    is None; the error names the first failing point."""
    ok = np.max(np.abs(np.imag(A)).reshape(np.shape(y)[:-1] + (-1,)), axis=-1) < 1e-9
    if not np.all(ok):
        raise DegenerateCoframeError(None if y is None else np.reshape(y, (-1, 6))[np.argmin(ok)],
                                     f"complex residue in {what}")
    return np.real(A)


def _structure(i: int, B: np.ndarray, y: Optional[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """(C, J_i): the adapted rows of B (..., 3, 6) and the real endomorphisms
    C^-1 D C (..., 6, 6)."""
    C = _adapted_rows(i, B)
    return C, _real_part(np.linalg.solve(C, _D @ C), y, "an almost complex structure")


def acs_endomorphism(i: int, coframe: Union[TwistorCoframe, np.ndarray]) -> np.ndarray:
    """The endomorphism J_i of the chart tangent space (6x6 real).

    J_i multiplies the selected (1,0)-rows by +i; J_3 uses (phi^1, phi^2,
    phi^3), J_1 conjugates phi^2, J_4 conjugates phi^3, J_2 conjugates both.
    Raises DegenerateCoframeError when J_i has a complex residue.
    """
    B, y = (coframe.B, coframe.y) if isinstance(coframe, TwistorCoframe) else (coframe, None)
    return _structure(i, B, y)[1]


def h_lambda_matrix(coframe: TwistorCoframe, lam: Union[float, Sequence[float]]) -> np.ndarray:
    """Chart components of the bundle metric sum_a w_a phi^a (x) conj(phi^a)."""
    l1, l2, l3 = _lambdas(lam)
    w = np.array([l1 ** 2, l2 ** 2, l3 ** 2])
    B = coframe.B
    return 2.0 * np.real(np.einsum("am,an->mn", w[:, None] * np.conj(B), B))


def _check_index(i: int) -> None:
    if i not in _WEIGHT_SIGNS:
        raise ValueError(f"structure index must lie in 1..4, got {i!r}")


def lambda_weights(pairs: Sequence[Tuple[int, Union[float, Sequence[float]]]]) -> np.ndarray:
    """The weight table (n, 3): row r holds (l1^2, e2 l2^2, e3 l3^2), the
    weights of W_1, W_2, W_3 in K_i(lambda) for the r-th pair (i, lambda).
    The first failing pair raises, its i checked before its lambda; each
    distinct lambda is checked and squared once, with python's `**`, and the
    signs are one index into `_SIGN_TABLE`."""
    rows = list(map(_SIGN_ROW.get, [i for i, _ in pairs]))      # None for a bad i
    stop = rows.index(None) if None in rows else len(rows)
    # a float is its own key, as is any scalar; a triple is keyed as a tuple
    keys = [lam if lam.__class__ is float or np.isscalar(lam) else tuple(lam) for _, lam in pairs[:stop]]
    distinct = {key: k for k, key in enumerate(dict.fromkeys(keys))}
    squares = np.array([v ** 2 for key in distinct for v in _lambdas(key)]).reshape(-1, 3)
    if stop < len(rows):
        _check_index(pairs[stop][0])
    # every signed row of every distinct lambda, then one index into them
    table = (_SIGN_TABLE[:, None] * squares).reshape(-1, 3)
    return table[np.array(rows, dtype=np.intp) * len(distinct)
                 + np.fromiter(map(distinct.__getitem__, keys), np.intp, len(keys))]


def K_form(i: int, lam: Union[float, Sequence[float]], coframe: TwistorCoframe) -> ComplexForm:
    """The fundamental 2-form K_i(lambda) over the chart coordinates."""
    return ComplexForm(6, 2, weighted_sum(lambda_weights([(i, lam)])[0], coframe.W_coeffs))


# ======================================================================
# closed-form derivative expressions
# ======================================================================

def _structure_dW(co: TwistorCoframe) -> np.ndarray:
    """d of the three building blocks W_1 = phi^1^conj(phi^1),
    W_2 = conj(phi^2)^phi^2, W_3 = phi^3^conj(phi^3), from structure data:
    the rows (n, 3, 20) of the stack.

    The cubic part is common to both connection routes; the torsion part (mu
    for the Levi-Civita projection, the (2,0)-torsion for Chern) splits
    between dW_1 and dW_2, and dW_3 carries the curvature entry.  Each row
    has the bits of the same sum of form wedges, cut after every step.
    """
    p1, p2, p3 = np.moveaxis(co._phi, 1, 0)
    b1, b2, b3 = np.moveaxis(np.conj(co._phi), 1, 0)
    if abs(co.t) < 1e-12:
        mu, tau3 = co._mu, co._tau3
        bp, pb, mp, mb = _wedges([(b1, p2), (p1, b2), (np.conj(mu), p1), (mu, b1)], 1, 1)
        c1, c2, t1, t2, f1, f2 = _wedges([(bp, p3), (pb, b3), (mp, p2), (mb, b2),
                                          (tau3, b3), (np.conj(tau3), p3)], 2, 1)
        torsion1 = cut(t1 - t2)
        torsion2 = cut(-torsion1)
    elif abs(co.t - 1.0) < 1e-12:
        T1, T2 = np.moveaxis(co._T_hat, 1, 0)
        P12 = co._psi_hat(0, 1)
        bp, pb = _wedges([(b1, p2), (p1, b2)], 1, 1)
        c1, c2, t1, t2, t3, t4, f1, f2 = _wedges(
            [(bp, p3), (pb, b3), (T1, b1), (np.conj(T1), p1), (np.conj(T2), p2), (T2, b2),
             (P12, b3), (np.conj(P12), p3)], 2, 1)
        torsion1, torsion2 = cut(t1 - t2), cut(t3 - t4)
    else:
        raise ValueError("no closed-form derivative display for the general "
                         "canonical-family connection; use the finite-difference oracle")
    cubic = cut(c1 - c2)
    return np.stack([cut(cubic + torsion1), cut(cubic + torsion2), cut(f1 - f2)], axis=1)


def dK_formula(i: int, lam: Union[float, Sequence[float]], coframe: TwistorCoframe) -> ComplexForm:
    """dK_i(lambda) assembled from base curvature/torsion data (no FD).

    Only available for the t = 0 and t = 1 connections; the general family
    member has no displayed closed form and is served by `CoframeSweep.dK`.
    """
    return ComplexForm(6, 3, weighted_sum(lambda_weights([(i, lam)])[0], coframe.dW_coeffs))


def _one_parameter(lam, what: str) -> float:
    """lambda^2 of a one-parameter family member; a lambda triple is refused."""
    (l1, l2, l3) = _lambdas(lam)
    if not (l1 == 1.0 and l2 == 1.0):
        raise ValueError(f"{what} stated for the one-parameter family")
    return l3 ** 2


# signs (i = 1..4) of lambda^2 in K_i ^ dK_i = +-lambda^2 (bracket), the
# bracket being the first of `balanced_brackets` for i in {1, 2} and the
# second for i in {3, 4}; keyed by the connection parameter t of the display
_BALANCED_SIGNS = {0.0: np.array([1.0, -1.0, -1.0, 1.0]), 1.0: np.array([-1.0, 1.0, -1.0, 1.0])}


def _balanced_rows(coframe: TwistorCoframe, i: np.ndarray, lam2: np.ndarray) -> np.ndarray:
    """The coefficients (..., n, 6) of the K_i ^ dK_i displays for structures
    i (n,) at lambda^2 = lam2 (n,) of the one-parameter family, at each
    point of the coframe."""
    brackets = coframe.balanced_brackets[..., (i > 2).astype(int), :]
    return cut(brackets * (_BALANCED_SIGNS[coframe.t][i - 1] * lam2)[:, None])


def balanced_defect_formula(i: int, lam: float, coframe: TwistorCoframe) -> ComplexForm:
    """K_i ^ dK_i from the closed-form displays (a 5-form; zero iff balanced),
    a scaling of one of the coframe's two `balanced_brackets`."""
    _check_index(i)
    lam2 = _one_parameter(lam, "the product displays are")
    return ComplexForm(6, 5, _balanced_rows(coframe, np.array([i]), np.array([lam2]))[0])


def _balanced_brackets(co: TwistorCoframe) -> np.ndarray:
    """The brackets (n, 2, 6) of the K_i ^ dK_i displays, before their lambda
    scaling, each with the bits of the same sum of form wedges."""
    p1, p2, p3 = np.moveaxis(co._phi, 1, 0)
    b1, b2, b3 = np.moveaxis(np.conj(co._phi), 1, 0)
    if abs(co.t) < 1e-12:
        r22, r11 = co._R_hat["1*222*"], co._R_hat["1*211*"]
        mu = co._mu
        pb, mp, mb = _wedges([(p1, b1), (np.conj(mu), p1), (mu, b1)], 1, 1)
        pbb, pbp, mpp, mbb = _wedges([(pb, b2), (pb, p2), (mp, p2), (mb, b2)], 2, 1)
        base12, base34, mppp, mbbp = _wedges([(pbb, p2), (pbp, b2), (mpp, p3), (mbb, p3)], 3, 1)
        f1, f2, g1, g2, m1, m2 = _wedges([(base12, b3), (base12, p3), (base34, b3), (base34, p3),
                                          (mppp, b3), (mbbp, b3)], 4, 1)
        c = r22 - r11
        f12 = cut(cut(_times(f1, c)) + cut(_times(f2, np.conj(c))))
        c = r22 + r11
        f34 = cut(cut(_times(g1, c)) + cut(_times(g2, np.conj(c))))
        return np.stack([f12, cut(f34 + cut(cut(m1 - m2) * 2.0))], axis=1)
    if abs(co.t - 1.0) < 1e-12:
        T1, T2 = np.moveaxis(co._T_hat, 1, 0)
        psi_pair = np.reshape(co.dW_coeffs, (-1, 3, 20))[:, 2]
        W3, pb1, bp2, pb2 = _wedges([(p3, b3), (p1, b1), (b2, p2), (p2, b2)], 1, 1)
        t1, t2, t3, t4 = _wedges([(T1, b1), (np.conj(T1), p1), (np.conj(T2), p2), (T2, b2)], 2, 1)
        torsion1 = cut(t1 - t2)
        tor12, tor34 = cut(cut(torsion1 + t3) - t4), cut(cut(torsion1 + t4) - t3)
        fronts = _wedges([(cut(pb1 + bp2), psi_pair), (cut(pb1 + pb2), psi_pair)], 2, 3)
        tors = _wedges([(tor12, W3), (tor34, W3)], 3, 2)
        return cut(fronts + tors).swapaxes(0, 1)
    raise ValueError("no closed-form derivative display for the general "
                     "canonical-family connection; use the finite-difference oracle")


def ddbar_formula(i: int, lam: float, coframe: TwistorCoframe,
                  flags: Union[None, ConditionFlags, Sequence[ConditionFlags]] = None
                  ) -> Union[ComplexForm, np.ndarray]:
    """i del dbar K_i from the closed-form displays: the 4-form of a one-point
    coframe, or the rows (n, 15) of a stack (read-only).

    Availability: (i = 1, t = 0) on a self-dual base with constant scalar
    curvature (constancy is the caller's assertion; self-duality is checked
    against `flags`); (i in {3, 4}, t = 0) on a base with J-invariant Ricci
    tensor; (i in {3, 4}, t = 1) unconditionally.  `flags` holds one
    `ConditionFlags` per point (one for a one-point coframe, a list for a
    stack); by default those of `condition_flags` at the base points.  A
    stack is refused when the predicate fails at any of its points.
    Everything else is served by the finite-difference oracle.

    The rows come from the coframe's stacked structure rows through grouped
    `_wedges` calls, as `_structure_dW` builds dW, and each has the bits of
    the same sum of form wedges on its own point, cut after every step.
    """
    lam2 = _one_parameter(lam, "the displays are")
    co = coframe
    p1, p2, p3 = np.moveaxis(co._phi, 1, 0)
    b1, b2, b3 = np.moveaxis(np.conj(co._phi), 1, 0)
    if abs(co.t) < 1e-12:
        if i not in (1, 3, 4):
            raise ValueError("no second-derivative display for i = 2; use the finite-difference oracle")
        if flags is None:
            flags = [f for M, x in co._base_points for f in condition_flags(M, x)]
        flags = [flags] if isinstance(flags, ConditionFlags) else list(flags)
        if i == 1 and not all(f.self_dual for f in flags):
            raise ValueError("the i = 1 display requires a self-dual base with constant "
                             "scalar curvature (self-duality predicate failed); use the oracle")
        if i != 1 and not all(f.ricci_J_invariant for f in flags):
            raise ValueError("the i = 3, 4 displays require a J-invariant Ricci tensor "
                             "(predicate failed); use the oracle")
        s, sstar = np.array([[f.s, f.sstar] for f in flags]).T[:, :, None]
        tau3, mu = co._tau3, co._mu
        W3, pb1, bp2, pb2, mm = _wedges([(p3, b3), (p1, b1), (b2, p2), (p2, b2), (mu, np.conj(mu))], 1, 1)
        f1, f2, mu_term = _wedges([(co._omega_diff, W3), (tau3, np.conj(tau3)),
                                   (mm, cut(pb1 + pb2))], 2, 2)
        fiber = cut(cut(f1 - f2) * lam2)
        if i == 1:
            x1, x2, x3 = _wedges([(pb1, b2), (bp2, p3), (W3, p1)], 2, 1)
            m1, m2, m3 = _wedges([(x1, p2), (x2, b3), (x3, b1)], 3, 1)
            combo = cut(cut(cut(m1 * (-s / 12.0)) + m2) + m3)
            rows = cut(cut(combo * -(2.0 - lam2 * s / 6.0)) + fiber)
        else:
            (x,) = _wedges([(pb1, p2)], 2, 1)
            (m,) = _wedges([(x, b2)], 3, 1)
            rows = cut(cut(cut(m * (0.25 * (s - sstar))) + cut(mu_term * -2.0)) + fiber)
    elif abs(co.t - 1.0) < 1e-12:
        if i not in (3, 4):
            raise ValueError("no second-derivative display for i = 1, 2 with the Chern "
                             "connection; use the finite-difference oracle")
        P00, P01, P11 = co._psi_hat(0, 0), co._psi_hat(0, 1), co._psi_hat(1, 1)
        T1, T2 = np.moveaxis(co._T_hat, 1, 0)
        W3, pb1, pb2, p1b2, b1p2 = _wedges([(p3, b3), (p1, b1), (p2, b2), (p1, b2), (b1, p2)], 1, 1)
        f1, f2, c1, c2, t1, t2, e1, e2 = _wedges(
            [(P01, np.conj(P01)), (cut(P00 - P11), W3), (P00, pb1), (P11, pb2),
             (T1, np.conj(T1)), (T2, np.conj(T2)), (np.conj(P01), p1b2), (P01, b1p2)], 2, 2)
        fiber = cut(cut(f1 + f2) * -lam2)
        rows = cut(cut(cut(cut(cut(cut(fiber + c1) + c2) + t1) + t2) - e1) - e2)
    else:
        raise ValueError("no closed-form derivative display for the general "
                         "canonical-family connection; use the finite-difference oracle")
    rows = co._out(rows)
    return ComplexForm(6, 4, rows) if rows.ndim == 1 else rows


# ======================================================================
# finite-difference oracles
# ======================================================================

class CoframeSweep:
    """FD sweeps of the coframe field around a stack of bundle points.

    From B and its six partials, the exterior derivatives of the three
    building-block 2-forms follow by the product rule and J_i with its
    partials from the adapted rows; every dK_i(lambda), K_i ^ dK_i, zero
    crossing and Nijenhuis value is then algebraic in one sweep.
    `CoframeSweep.stack(M, conn, points)` sweeps n bundle points at once:
    B at every point and at its 24 stencil points is one `coframe_rows`
    stack of n x 25 chart points, the points before their stencils
    (`with_stencils`; the fiber-direction stencil points sit at the base
    point bit for bit, so a point adds 17 distinct base points, and the
    stencils under them are evaluated as stacks too).  `dB` is (n, 6, 3, 6)
    for a stack and (6, 3, 6) for one point, and each point's values have
    the bits of its own one-point sweep.

    The sweep holds the `TwistorCoframe` of its own points as `coframe`,
    from the same pass (`_coframe_pass`), with no second `coframe_rows`
    call: `t`, `label`, `y0`, `B0` and `W_coeffs` are the coframe's, and the
    closed-form displays read `coframe` where a caller checks them against
    the sweep.  `stack(segments, conn)` sweeps the points of several
    surfaces that share one FD rule, and `stack(M, conn, points)` and
    `CoframeSweep(M, conn, z)` are its one-segment cases.  B at the points
    and their stencils is one `coframe_rows` call over every segment, each
    surface reading its own point memo; the FD combine, dB, the checks and
    every row below run once over all the points.  `M` is the surface of a
    one-surface sweep.

    The coefficient rows `W_coeffs` (n, 3, 15) and `dW_coeffs` (n, 3, 20) of
    the building blocks, and their blocks `W_wedge_dW` (n, 3, 3, 6), do not
    depend on i or lambda; each is built once, on first use, and shared by
    every K, dK, K ^ dK and zero crossing of the sweep.  A whole (i, lambda)
    grid of every point is one weighted sum of those rows and one weighted
    sum of the blocks (`defect_rows`), and the zero crossings of every
    structure one more (`lambda_zero_crossing`).  The Nijenhuis values of
    all four structures (`nijenhuis_values`, (4, n)) are one stacked solve,
    also built on first use; `nijenhuis(i)` solves J_i alone.  `dK` gives
    the form of a one-point sweep.

    Raises, for the first failing point in stack order, ValueError for a
    fiber coordinate outside the chart (|zeta| >= 4), and
    DegenerateCoframeError when the Gram determinant of B is near zero or
    not finite, or when dB is not finite.
    """

    def __init__(self, M: HermitianSurface, conn: Union[str, float], z: TwistorPoint):
        self._sweep(*segments_of(M, z.chart_coordinates()), conn)

    @classmethod
    def stack(cls, M: Union[HermitianSurface, Segments], conn: Union[str, float],
              points: Optional[Sequence[TwistorPoint]] = None) -> "CoframeSweep":
        """One sweep of every point of `points` (at least one) on M, or of
        every point of the segments M = [(surface, points), ...], whose
        surfaces share one FD rule."""
        return cls._at(*_segments(M, points, "a coframe sweep"), conn)

    @classmethod
    def _at(cls, segments: List[Tuple[HermitianSurface, np.ndarray]], shape: Tuple[int, ...],
            conn: Union[str, float]) -> "CoframeSweep":
        """The sweep of the chart-point segments [(surface, y (k, 6)), ...]
        with the point axes `shape`."""
        sweep = cls.__new__(cls)
        sweep._sweep(segments, shape, conn)
        return sweep

    def _sweep(self, segments: List[Tuple[HermitianSurface, np.ndarray]], shape: Tuple[int, ...],
               conn: Union[str, float]) -> None:
        """One checked pass over the points and their stencils (`_coframes`)."""
        fd_rule(segments)
        self.coframe, self.dB = _coframes(segments, shape, conn, stencils=True)
        co = self.coframe
        self.t, self.label, self.y0, self.B0 = co.t, co.label, co.y, co.B
        self.M = segments[0][0] if len(segments) == 1 else None

    # -- coefficient matrices of the W-blocks and their partials ----------

    @property
    def W_coeffs(self) -> np.ndarray:
        """The coefficients (..., 3, 15) of W_1, W_2, W_3 at the bundle
        points: the coframe's (read-only)."""
        return self.coframe.W_coeffs

    @functools.cached_property
    def dW_coeffs(self) -> np.ndarray:
        """The coefficients (..., 3, 20) of dW_1, dW_2, dW_3: `d_rows` of the
        slot rows of their partials, each by the product rule
        d_s(phi ^ conj(phi)) = d_s phi ^ conj(phi) + phi ^ d_s conj(phi)
        (read-only)."""
        r, dr = self.B0, self.dB                      # (..., 3, 6) and (..., 6 partials, 3, 6)
        # S[..., a, s, m, n] = d_s(phi^a)_m conj(phi^a)_n + phi^a_m d_s(conj(phi^a))_n
        S = (np.einsum("...sam,...an->...asmn", dr, np.conj(r))
             + np.einsum("...am,...san->...asmn", r, np.conj(dr)))
        m, n = np.triu_indices(6, 1)
        P = S[..., m, n] - S[..., n, m]
        P[..., 1, :, :] = -P[..., 1, :, :]            # W_2 = conj(phi^2) ^ phi^2
        return read_only(cut(d_rows(P, 6, 2)))

    # -- assembled oracle values ------------------------------------------

    def dK(self, i: int, lam: Union[float, Sequence[float]]) -> ComplexForm:
        return ComplexForm(6, 3, weighted_sum(lambda_weights([(i, lam)])[0], self.dW_coeffs))

    @functools.cached_property
    def W_wedge_dW(self) -> np.ndarray:
        """The blocks W_a ^ dW_b (..., 3, 3, 6), with W_3 ^ dW_3 set to 0: it
        vanishes identically (each of its terms repeats phi^3 or
        conj(phi^3)), but wedged from FD rows it leaves roundoff, which
        K ^ dK would weight by lambda^4 (read-only)."""
        blocks = wedge_vectors(self.W_coeffs[..., :, None, :], self.dW_coeffs[..., None, :, :], 6, 2, 3)
        blocks[..., 2, 2, :] = 0.0
        return read_only(cut(blocks))

    def defect_rows(self, weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The coefficients of dK (..., n, 20) and of K ^ dK (..., n, 6) at
        each bundle point for each row of a weight table (n, 3)
        (`lambda_weights`).  Row r of dK has the bits of `dK(i, lam).vec`;
        K ^ dK = -sum_ab w_a w_b W_a ^ dW_b is the block sum of
        `W_wedge_dW`."""
        w = np.asarray(weights)
        with np.errstate(over="ignore", invalid="ignore"):    # a scale whose lambda^4 overflows
            KdK = -np.einsum("nab,...abs->...ns", w[:, :, None] * w[:, None, :], self.W_wedge_dW)
        return weighted_sum(w, self.dW_coeffs), cut(KdK)

    @functools.cached_property
    def nijenhuis_values(self) -> np.ndarray:
        """The max Nijenhuis norms of J_1..J_4 at the bundle points, (4,) or
        (4, n) for a stack, from one stacked solve, each with the bits of
        its own structure's solve (read-only).  Raises the error of the
        first failing structure, as a loop over i = 1..4 meets it."""
        return read_only(replay(self._nijenhuis, (1, 2, 3, 4)))

    def nijenhuis(self, i: int):
        """Max norm of the Nijenhuis tensor of J_i over the coordinate pairs,
        at each bundle point: a float for a one-point sweep, (n,) for a
        stack; J_i alone, with the bits of its row of `nijenhuis_values`."""
        _check_index(i)
        worst = self._nijenhuis((i,))[0]
        return float(worst) if worst.ndim == 0 else worst

    def _nijenhuis(self, structures: Tuple[int, ...]) -> np.ndarray:
        """The Nijenhuis values (len(structures), ...) of the J_i listed.

        N(X, Y) = [J X, J Y] - J[J X, Y] - J[X, J Y] - [X, Y] on coordinate
        fields, whose own brackets vanish.  J = C^-1 D C for the adapted rows
        C, which are real-linear in B, so dJ = C^-1 (D dC - dC J).
        """
        y = np.broadcast_to(self.y0, (len(structures),) + self.y0.shape)
        C = np.stack([_adapted_rows(i, self.B0) for i in structures])
        J = _real_part(np.linalg.solve(C, _D @ C), y, "an almost complex structure")
        dC = np.stack([_adapted_rows(i, self.dB) for i in structures])
        dJ = _real_part(np.linalg.solve(C[..., None, :, :], _D @ dC - dC @ J[..., None, :, :]),
                        y, f"the derivative of J_{structures[0]}")
        # S[a, b] = J-contraction terms of N(d_a, d_b); N is its antisymmetric part
        S = np.einsum("...pa,...pmb->...abm", J, dJ) + np.einsum("...mn,...bna->...abm", J, dJ)
        return np.max(np.linalg.norm(S - np.swapaxes(S, -3, -2), axis=-1), axis=(-2, -1))


def nijenhuis_oracle(i: int, M: HermitianSurface, conn: Union[str, float],
                     z: TwistorPoint) -> float:
    """Max norm of the Nijenhuis tensor of J_i over the 15 coordinate pairs.

    A standalone `CoframeSweep(...).nijenhuis(i)`: the same single sweep
    that serves dK, K ^ dK and the zero crossings at the point.
    """
    return CoframeSweep(M, conn, z).nijenhuis(i)


# the step of the outer FD pass of `ddbar_oracle`, over the inner sweeps
_DDBAR_OUTER_STEP = 2e-3


def ddbar_oracle(i: int, lam: Union[float, Sequence[float]], M: HermitianSurface,
                 conn: Union[str, float], z: TwistorPoint) -> ComplexForm:
    """i del dbar K_i by nested finite differences.

    The inner pass produces the (1,2)-part of dK at each stencil point (one
    coframe sweep of the whole outer stencil, each point projected with
    the J_i bidegree of that point); the outer pass, of step
    `_DDBAR_OUTER_STEP`, differentiates those coefficients and keeps the
    (2,2)-part.  A bidegree part is taken in the J_i coframe C of the point
    (`_adapted_rows`, whose (1,0) rows come first): the form is rewritten
    over C (`substitute` with C^-1), masked (`bidegree_rows`) and rewritten
    back; the centre's coframe is read from the sweep's stored rows.  Only
    meaningful when J_i is integrable.
    """
    t, _ = normalize_connection(conn)
    y0 = z.chart_coordinates()

    def part(form: ComplexForm, B: np.ndarray, p: int) -> ComplexForm:
        C = _adapted_rows(i, B)
        over = substitute(form, np.linalg.inv(C)).vec
        kept = bidegree_rows(over, 6, form.degree, (0, 1, 2), p)
        return substitute(ComplexForm(6, form.degree, kept), C)

    def dbar_vecs(Y: np.ndarray) -> np.ndarray:
        """The (1,2)-part coefficients at every point of a stack Y (..., 6),
        from one stacked coframe sweep."""
        sw = CoframeSweep._at(*segments_of(M, Y.reshape(-1, 6)), t)
        dK = weighted_sum(lambda_weights([(i, lam)])[0], sw.dW_coeffs)
        out = [part(ComplexForm(6, 3, v), B0, 1).vec for v, B0 in zip(dK, sw.B0)]
        return np.array(out, dtype=complex).reshape(Y.shape[:-1] + (-1,))

    try:
        dg = replace(M.backend, step=_DDBAR_OUTER_STEP).partials(dbar_vecs, y0)    # [p, key]
    except Exception:
        coframe_rows(M, t, y0)      # the centre's own error comes first
        raise
    return part(ComplexForm(6, 4, d_rows(dg, 6, 3)), coframe_rows(M, t, y0), 2) * 1j


# ======================================================================
# conformal comparison
# ======================================================================

_exp = _elementwise(math.exp)


def conformal_rescale(M: HermitianSurface, f_expr: Union[str, Callable[[np.ndarray], float]]) -> HermitianSurface:
    """The surface with metric e^{2f} h and the same complex structure.

    A string f is compiled and, like M's metric, evaluated on a whole stack
    of points in one call; a python callable f is evaluated point by point.
    """
    compiled = isinstance(f_expr, str)
    f = _compile_expr(f_expr, ("x1", "x2", "x3", "x4"), 1, 0) if compiled else f_expr

    def scaled(x: np.ndarray) -> np.ndarray:
        return np.asarray(_exp(2.0 * f(x)))[..., None, None] * M.metric(x)
    return HermitianSurface(M.chart, stack_field(scaled) if compiled else scaled, M.J,
                            name=f"{M.name}+conformal", params=dict(M.params), backend=M.backend)


def conformal_compare(M: HermitianSurface, f_expr: Union[str, Callable[[np.ndarray], float]],
                      conn: Union[str, float], z: TwistorPoint) -> Dict[int, float]:
    """Max-norm differences of each J_i between h and e^{2f} h.

    The Gram-Schmidt frame of the rescaled metric is e^{-f} times the
    original (both start from DEFAULT_SEEDS), so the same chart point names
    the same fiber line on both sides and the endomorphisms compare directly.
    """
    t, _ = normalize_connection(conn)
    Ms = conformal_rescale(M, f_expr)
    y = z.chart_coordinates()
    B1 = coframe_rows(M, t, y)
    B2 = coframe_rows(Ms, t, y)
    out = {}
    for i in (1, 2, 3, 4):
        J1 = acs_endomorphism(i, B1)
        J2 = acs_endomorphism(i, B2)
        out[i] = float(np.max(np.abs(J1 - J2)))
    return out


def principal_angles(J_a: np.ndarray, J_b: np.ndarray) -> np.ndarray:
    """Principal angles between the (1,0)-eigenspaces of two structures."""
    def holo_basis(J):
        # the projector has singular values (1, 1, 1, 0, 0, 0), so the
        # leading left-singular vectors give a clean basis of its range
        P = (np.eye(6) - 1j * J) / 2.0
        u, _, _ = np.linalg.svd(P)
        return u[:, :3]
    Qa, Qb = holo_basis(J_a), holo_basis(J_b)
    sv = np.linalg.svd(np.conj(Qa.T) @ Qb, compute_uv=False)
    return np.arccos(np.clip(sv, -1.0, 1.0))


# ======================================================================
# projectivised-bundle comparison (Kahler bases)
# ======================================================================

def _check_kahler(M: HermitianSurface, x: np.ndarray):
    """Refuse a non-Kahler base or a non-standard J at any point of a stack x
    (n, 4); a dF or J that is not finite is refused too."""
    # the coefficient norm of the 3-form dF at each point; each coefficient
    # fills six slots of the antisymmetric array
    dF = np.sqrt(np.sum(dF_array(M, x) ** 2, axis=(1, 2, 3)) / 6.0)
    if not np.all(np.isfinite(dF)):
        raise ValueError("projective-bundle comparison: dF is not finite "
                         "(the base metric is not finite near the point)")
    if np.any(dF > 1e-8):
        raise ValueError("projective-bundle comparison requires a Kahler base (dF != 0)")
    if not np.all(np.abs(M.J(x) - J_STANDARD) <= 1e-8):      # a NaN J fails too
        raise ValueError("the bundle chart needs the standard constant complex structure")


def _hermitian_G(A: np.ndarray) -> np.ndarray:
    """G[..., a, b] = A(d/dz^a, d/d conj(z)^b) for a real bilinear form
    A (..., 2m, 2m) over coordinates with z^a = x^{2a-1} + i x^{2a}."""
    return 0.25 * (A[..., 0::2, 0::2] + A[..., 1::2, 1::2]
                   + 1j * (A[..., 0::2, 1::2] - A[..., 1::2, 0::2]))


def _fiber_coordinates(M: HermitianSurface, x: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """The bundle fiber coordinates w (n,) of the twistor points with base
    points x (n, 4) and fiber coordinates zeta (n,), every point checked."""
    _check_kahler(M, x)
    U = adapted_frame(M, x).U
    V = U[:, :, 0] + U[:, :, 1] * zeta[:, None]         # u_1 + zeta u_2
    A = V[:, 0] + 1j * V[:, 1]
    if np.any(np.abs(A) < 1e-10):
        raise ValueError("fiber coordinate out of chart")
    return (V[:, 2] + 1j * V[:, 3]) / A


def fiber_coordinate_on_bundle(M: HermitianSurface, z: TwistorPoint) -> complex:
    """The projectivised-tangent coordinate w with [u_1 + zeta u_2] =
    [d/dz^1 + w d/dz^2] (Kahler bases with the standard structure only)."""
    return complex(_fiber_coordinates(M, z.x[None], np.array([z.zeta]))[0])


_abs2 = _elementwise(lambda w: abs(w) ** 2)
_log = _elementwise(math.log)


def projective_bundle_form(M: HermitianSurface, lam: float, z: TwistorPoint) -> np.ndarray:
    """The Kahler-quotient 2-form of the projectivised (1,0)-bundle.

    Components over the chart (x^1..x^4, Re w, Im w), evaluated at the image
    of `z`: lambda times the pulled-back fundamental form plus the complex
    Hessian term of log h(v, v) for the section v = d/dz^1 + w d/dz^2.
    """
    lam = _lambdas(float(lam))[2]
    x = z.x
    w0 = fiber_coordinate_on_bundle(M, z)
    y0 = np.concatenate([x, [w0.real, w0.imag]])

    def logh(y: np.ndarray) -> np.ndarray:      # at a stack of points y (..., 6)
        G = _hermitian_G(M.metric(y[..., :4]))
        w = y[..., 4] + 1j * y[..., 5]
        val = G[..., 0, 0] + w * G[..., 1, 0] + np.conj(w) * G[..., 0, 1] + _abs2(w) * G[..., 1, 1]
        return _log(np.real(val))

    be = M.backend
    Hr = be.partials(lambda y: be.partials(logh, y), y0)     # the real Hessian
    Hr = 0.5 * (Hr + Hr.T)

    # complex Hessian over (z^1, z^2, w) and the induced real 2-form
    H = _hermitian_G(Hr)
    D = np.kron(np.eye(3), [1.0, 1j])       # dz^a over the real coordinates
    HD = push_slots(push_slots(H, D, (0,)), np.conj(D), (1,))     # H(D[:, m], conj D[:, n])
    ddbar = 1j * (HD - HD.T)
    out = _real_part(ddbar, z.chart_coordinates(), "the projective-bundle Hessian")
    out[:4, :4] += lam * coordinate_fundamental_matrix(M, x)
    return out


def bundle_chart_compare(M: HermitianSurface, lam: float, z: TwistorPoint) -> float:
    """Max-norm difference, on the fiber chart, between the projectivised-
    bundle form (pulled back through the coordinate transition) and the
    twistor form K_3 of the Chern connection at the same parameter."""
    co = twistor_coframe(M, "chern", z)
    Kmat = np.real(K_form(3, lam, co).to_array())

    def transition(y: np.ndarray) -> np.ndarray:    # (x, zeta) -> (x, w) on a stack y (..., 6)
        Y = y.reshape(-1, 6)
        w = _fiber_coordinates(M, Y[:, :4], Y[:, 4] + 1j * Y[:, 5])
        return np.column_stack([Y[:, :4], w.real, w.imag]).reshape(y.shape)

    Jac = M.backend.partials(transition, z.chart_coordinates()).T   # Jac[m, p] = d_p of entry m
    omega = projective_bundle_form(M, lam, z)
    pulled = Jac.T @ omega @ Jac
    return float(np.max(np.abs(pulled - Kmat)))


# ======================================================================
# scans, evaluation bundles, reports
# ======================================================================

def lambda_zero_crossing(i: Union[int, Sequence[int]], M: HermitianSurface, conn: Union[str, float],
                         z: Union[TwistorPoint, Sequence[TwistorPoint]],
                         sweep: Optional[CoframeSweep] = None):
    """Least-squares root of dK_i(lambda^2) = A + lambda^2 B over the fiber
    parameter: returns (lambda^2_*, residual at the root) for one bundle
    point z, or a list of these pairs for a stack of points, from one
    stacked sweep (`sweep`, when given, is the sweep of z).  For a sequence
    of structures i, a list of those answers, one per i, from one weighted
    sum of the sweep: the one lambda-root solver of `scan` and `report`.

    The sweep is linear in lambda^2, so the root is -<A, B>/<B, B> on the
    coefficient vectors; None when the fiber block B vanishes (then the
    defect is lambda-independent and `residual` reports |A|).  Each root
    reads np.vdot and np.linalg.norm of its own rows: BLAS sums, whose
    order a reduction over a stack axis would not keep.
    """
    structures = [i] if np.ndim(i) == 0 else list(i)
    one = isinstance(z, TwistorPoint)
    sw = sweep or (CoframeSweep(M, conn, z) if one else CoframeSweep.stack(M, conn, z))
    # dK_i at lambda^2 = 0 and the coefficient of lambda^2, for each i at each point
    signs = np.array([_WEIGHT_SIGNS[k] for k in structures])[:, None, :]
    rows = weighted_sum((signs * [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]).reshape(-1, 3), sw.dW_coeffs)
    out = []
    for A, Bf in rows.reshape(-1, 2, rows.shape[-1]):       # point by point, i within
        used = (A != 0) | (Bf != 0)
        av, bv = A[used], Bf[used]
        bb = float(np.real(np.vdot(bv, bv)))
        if bb < 1e-18:
            out.append((None, float(np.linalg.norm(av))))
            continue
        root = -float(np.real(np.vdot(bv, av))) / bb
        out.append((root, float(np.linalg.norm(av + root * bv))))
    out = [out[k] if one else out[k::len(structures)] for k in range(len(structures))]
    return out[0] if np.ndim(i) == 0 else out


@dataclass(frozen=True)
class MetricConditionRow:
    """Aggregated condition data for one (structure, fiber parameter); `lam`
    is a scalar lambda or a (lambda_1, lambda_2, lambda_3) triple."""

    i: int
    lam: Union[float, Tuple[float, float, float]]
    symplectic_defect: float
    symplectic: bool
    balanced_defect: float
    balanced: bool
    nijenhuis_defect: float
    integrable: bool
    formula_residual: Optional[float]

    def as_dict(self) -> Dict[str, object]:
        """A triple's row leaves out the lambda-independent integrability verdict."""
        scalar = np.ndim(self.lam) == 0
        out = {
            "i": self.i, **({"lambda": self.lam} if scalar else {"lambdas": list(self.lam)}),
            "symplectic": {"holds": self.symplectic, "defect": self.symplectic_defect},
            "balanced": {"holds": self.balanced, "defect": self.balanced_defect},
        }
        if scalar:
            out["integrable"] = {"holds": self.integrable, "defect": self.nijenhuis_defect}
        out["formula_residual"] = self.formula_residual
        return out


@dataclass(frozen=True)
class TwistorConditionReport:
    surface: str
    params: Dict[str, float]
    connection: str
    t: float
    tolerance: float
    nijenhuis_tolerance: float
    lambda_grid: Tuple[float, ...]
    points: List[TwistorPoint]
    rows: List[MetricConditionRow]
    base_flags: List[Dict[str, object]]
    zero_crossings: Dict[int, List[Tuple[Optional[float], float]]]
    triple_rows: Tuple[MetricConditionRow, ...] = ()

    def as_dict(self) -> Dict[str, object]:
        out = {
            "surface": self.surface,
            "params": self.params,
            "connection": self.connection,
            "t": self.t,
            "tolerance": self.tolerance,
            "nijenhuis_tolerance": self.nijenhuis_tolerance,
            "lambda_grid": list(self.lambda_grid),
            "points": [{"x": list(map(float, z.x)),
                        "zeta": [z.zeta.real, z.zeta.imag]} for z in self.points],
            "rows": [r.as_dict() for r in self.rows],
            "base_flags": self.base_flags,
            "zero_crossings": {str(i): [[v if v is None else float(v), float(r)]
                                        for v, r in vals]
                               for i, vals in self.zero_crossings.items()},
        }
        if self.triple_rows:
            out["triple_rows"] = [r.as_dict() for r in self.triple_rows]
        return out


def condition_report(M: HermitianSurface, conn: Union[str, float],
                     lambdas: Sequence[Union[float, Sequence[float]]],
                     points: Sequence[TwistorPoint],
                     tol: float = 1e-6, nijenhuis_tol: float = 1e-4) -> TwistorConditionReport:
    """Survey symplectic/balanced/integrability defects over a parameter grid.

    Work fans out conceptually over (point, i, lambda); results are merged
    deterministically in sorted key order, with defects aggregated by max
    over the points, so the report is independent of evaluation order.  The
    scalar entries of `lambdas` form the sorted grid of `rows`; each lambda
    triple among them gets a row per structure in `triple_rows`, in the
    order given, whose formula residual is that of dK alone (the K ^ dK
    displays are stated for the one-parameter family).  One `CoframeSweep`
    stack of the points serves every row: the FD defects come from its rows,
    and the formula residuals (t = 0 and t = 1 only) from the closed-form
    displays of its `coframe`, so the report builds one coframe.  A defect or
    formula residual that is not finite, as from a fiber scale whose fourth
    power overflows, is a ValueError that names its (i, lambda).
    """
    t, label = normalize_connection(conn)
    grid = tuple(sorted(float(v) for v in lambdas if np.ndim(v) == 0))
    triples = [tuple(float(u) for u in v) for v in lambdas if np.ndim(v) != 0]
    formula_ok = abs(t) < 1e-12 or abs(t - 1.0) < 1e-12

    sw = CoframeSweep.stack(M, conn, points)
    co = sw.coframe if formula_ok else None
    flags = [f.as_dict() for f in condition_flags(M, sw.y0[:, :4], tol=tol)]
    nij = sw.nijenhuis_values.max(axis=-1).tolist()
    crossings = dict(zip((1, 2, 3, 4), lambda_zero_crossing((1, 2, 3, 4), M, conn, points, sweep=sw)))

    # every (i, lambda) row of every point from one weighted sum of the
    # sweep; the scalar rows come first, and their K ^ dK displays are
    # checked too
    pairs = [(i, lam) for lams in (grid, triples) for i in (1, 2, 3, 4) for lam in lams]
    weights = lambda_weights(pairs)
    n_scalar = 4 * len(grid)
    scalar_i = np.repeat([1, 2, 3, 4], len(grid))
    scalar_lam2 = np.abs(weights[:n_scalar, 2])      # +-lambda^2 in the fiber column
    dKo, bo = sw.defect_rows(weights)
    sym, bal = norms(dKo).max(axis=0), norms(bo).max(axis=0)
    res: Optional[np.ndarray] = None
    if co is not None:
        r = norms(cut(weighted_sum(weights, co.dW_coeffs) - dKo))
        bf = _balanced_rows(co, scalar_i, scalar_lam2)
        r[:, :n_scalar] = np.maximum(r[:, :n_scalar], norms(cut(bf - bo[:, :n_scalar])))
        res = r.max(axis=0)
    finite = np.isfinite(sym) & np.isfinite(bal) & (res is None or np.isfinite(res))
    if not finite.all():
        i, lam = pairs[int(np.argmin(finite))]
        raise ValueError(f"defect or formula residual of J_{i} at lambda = {lam} is not finite: "
                         f"the fiber scale is too large for double precision")

    rows = [MetricConditionRow(
        i=i, lam=lam, symplectic_defect=float(sym[n]), symplectic=bool(sym[n] < tol),
        balanced_defect=float(bal[n]), balanced=bool(bal[n] < tol),
        nijenhuis_defect=nij[i - 1], integrable=nij[i - 1] < nijenhuis_tol,
        formula_residual=None if res is None else float(res[n]))
        for n, (i, lam) in enumerate(pairs)]
    return TwistorConditionReport(
        surface=M.name, params=dict(M.params), connection=label, t=t,
        tolerance=tol, nijenhuis_tolerance=nijenhuis_tol, lambda_grid=grid,
        points=list(points), rows=rows[:n_scalar],
        base_flags=flags, zero_crossings=crossings,
        triple_rows=tuple(rows[n_scalar:]))
