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
formula paths and the oracle paths share only the coframe itself, so their
agreement is a genuine cross-check of the structure data.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .exterior import (ComplexForm, bidegree_project, cut, d_rows, norms, read_only, slot_keys,
                       substitute, wedge, wedge_all, wedge_vectors, weighted_sum)
from .manifold import (J_STANDARD, HermitianSurface, _compile_expr, _elementwise, _map_arrays,
                       adapted_frame, coordinate_fundamental_matrix, dF_array, push_slots,
                       stack_field)
from .connection import (CONNECTION_T, complex_connection_matrix, complexify, curvature_rows,
                         levi_civita, mu_from_omega, omega_tilde_coord, torsion_tensor)
from .curvature_analysis import ConditionFlags, condition_flags

__all__ = [
    "LAMBDA_MIN", "TwistorPoint", "TwistorChart", "TwistorCoframe",
    "TwistorMetricEval", "MetricConditionRow", "TwistorConditionReport",
    "normalize_connection", "coframe_rows", "twistor_coframe",
    "acs_endomorphism", "h_lambda_matrix", "K_form", "dK_formula",
    "balanced_defect_formula", "ddbar_formula", "CoframeSweep", "dK_oracle",
    "nijenhuis_oracle", "ddbar_oracle",
    "conformal_rescale", "conformal_compare", "principal_angles",
    "fiber_coordinate_on_bundle", "projective_bundle_form",
    "bundle_chart_compare", "lambda_zero_crossing", "evaluate_metric",
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


def coframe_rows(M: HermitianSurface, t: float, y: np.ndarray) -> np.ndarray:
    """The complex coframe matrix B at chart point y = (x, Re zeta, Im zeta),
    or at every point of a stack y (..., 6), giving (..., 3, 6).

    Rows hold the coordinate components of phi^1, phi^2, phi^3 over
    (dx^1..dx^4, d zeta_re, d zeta_im).  phi^1 and phi^2 are the rotated
    (1,0)-coframe pulled back from the base; phi^3 is the off-diagonal
    connection entry along the rotated frame section, whose pure fiber part
    is -d conj(zeta) / (1 + |zeta|^2).  The base data of the whole stack
    come from one `omega_tilde_coord` call, which assembles omega^t from
    the t-independent tables omega^LC (`_lc_forms`) and the J-pushed dF
    terms (`_J_pushed_dF`), so a second connection at visited points
    evaluates no metric.
    """
    y = np.asarray(y, dtype=float)
    Y = y.reshape(-1, 6)
    om_t, _, fr = omega_tilde_coord(M, Y[:, :4], t)
    eta, psi = fr.eta, complex_connection_matrix(om_t)
    zeta = np.ascontiguousarray(Y[:, 4:]).view(complex)[:, 0]
    N2 = _norm2(zeta)[:, None]
    N = np.sqrt(N2)
    B = np.zeros(zeta.shape + (3, 6), dtype=complex)
    B[:, 0, :4] = (eta[:, 0] + np.conj(zeta)[:, None] * eta[:, 1]) / N
    B[:, 1, :4] = (-zeta[:, None] * eta[:, 0] + eta[:, 1]) / N
    B[:, 2, :4] = _mobius12(np.moveaxis(psi, 0, 2), zeta[:, None])
    B[:, 2, 4:5] = -1.0 / N2
    B[:, 2, 5:6] = 1j / N2
    return B.reshape(y.shape[:-1] + (3, 6))


def _check_gram(B: np.ndarray, y: np.ndarray) -> None:
    """Raise DegenerateCoframeError, naming the first failing point of the
    stack y (..., 6), unless the Gram determinant of the coframe rows B
    (..., 3, 6) and their conjugates is finite and clear of zero."""
    ok = np.abs(np.linalg.det(np.concatenate([B, np.conj(B)], axis=-2))) > 1e-8
    if not np.all(ok):
        raise DegenerateCoframeError(np.reshape(y, (-1, 6))[np.argmin(np.ravel(ok))],
                                     "coframe degenerated (Gram determinant ~ 0)")


def _checked_rows(M: HermitianSurface, t: float,
                  points: List[TwistorPoint]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(y (n, 6), zeta (n,), B (n, 3, 6)) of the bundle points on M, from one
    `coframe_rows` call, each fiber coordinate and Gram determinant checked;
    when that raises, the points are built one at a time, so the error
    names the first failing point, as a point-by-point build meets it."""
    try:
        zeta = np.array([z.zeta for z in points])
        y = np.array([z.chart_coordinates() for z in points])
        far = np.abs(zeta) >= _ZETA_MAX
        if far.any():
            raise ValueError(f"fiber coordinate out of chart at bundle point "
                             f"{y[np.argmax(far)].tolist()}")
        B = coframe_rows(M, t, y)
        _check_gram(B, y)
    except Exception:
        if len(points) > 1:
            for z in points:
                _checked_rows(M, t, [z])
        raise
    return y, zeta, B


def _row_form(row: np.ndarray) -> ComplexForm:
    return ComplexForm(6, 1, np.asarray(row, dtype=complex))


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
              what: str) -> List[Tuple[HermitianSurface, List[TwistorPoint]]]:
    """The segments of a stack: the surface M with its points, or M a
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
    return [(S, list(p)) for S, p in segments]


def _join(parts: List):
    """Results of the same structure for consecutive segments, joined along
    the point axis (the one result of a one-segment stack as it is)."""
    return parts[0] if len(parts) == 1 else _map_arrays(lambda *a: np.concatenate(a), *parts)


@dataclass(frozen=True)
class TwistorCoframe:
    """The coframe and structure data of one connection at a stack of bundle
    points.

    `TwistorCoframe.stack(M, conn, points)` evaluates n bundle points at
    once: `B` (rows phi^1..phi^3 over the chart coordinates) from one
    `coframe_rows` call, and the base frames and connection forms from one
    `omega_tilde_coord` call.  omega^t = omega^LC + A_t is assembled from
    the t-independent tables of the point memo, omega^LC (`_lc_forms`) and
    the J-pushed dF terms (`_J_pushed_dF`), which the torsion also reads,
    so the stacks of a second connection at the same points evaluate no
    metric, dF or Levi-Civita form.  `twistor_coframe(M, conn, z)` is the same
    build for the one point z.  As in `CoframeSweep`, the arrays carry the
    point axes of the input, `y` (n, 6) and `B` (n, 3, 6) for a stack, (6,)
    and (3, 6) for one point, and each point's values have the bits of its
    own one-point coframe.

    `TwistorCoframe.stack(segments, conn)` stacks the points of several
    surfaces, given as segments [(M, points), ...]; a one-surface stack is
    the one-segment case.  What reads a surface (`coframe_rows`, the frames,
    the Levi-Civita curvature, the torsion and the Chern curvature) is
    evaluated per segment, from that surface's own point memo, and joined
    along the point axis; everything after that runs once over all the
    points.  `segments` holds each surface with its number of points.

    The closed-form rows do not depend on i or lambda; each is built on
    first use, from coefficient rows with `wedge_vectors`, and shared by
    every `K_form`, `dK_formula` and `balanced_defect_formula`:
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
    of the connection and contributes no fiber components).  The
    `ComplexForm` accessors `phi_form`, `mu`, `tau3`, `omega_diff`,
    `R_hat`, `T_hat`, `T_components` and `Psi_hat` serve one-point
    coframes, the input of `ddbar_formula`.
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
        determinant of the coframe is near zero or not finite: each names
        the first failing point in stack order, the error a point-by-point
        build meets first, segment after segment.
        """
        segments = _segments(M, points, "a twistor coframe")
        shape = (sum(len(p) for _, p in segments),)
        if len(segments) == 1:
            return cls._build(segments[0][0], conn, segments[0][1], shape)
        return cls._build(segments, conn, None, shape)

    @classmethod
    def _build(cls, M: Union[HermitianSurface, List[Tuple[HermitianSurface, List[TwistorPoint]]]],
               conn: Union[str, float], points: Optional[List[TwistorPoint]],
               shape: Tuple[int, ...]) -> "TwistorCoframe":
        """The coframe of the points on M, or, when points is None, of the
        segments M = [(surface, points), ...], built and checked segment
        after segment, with the point axes `shape`."""
        segments = [(M, points)] if points is not None else M
        t, label = normalize_connection(conn)
        y, zeta, B = _join([_checked_rows(M, t, points) for M, points in segments])
        return cls(segments=tuple((M, len(points)) for M, points in segments), label=label,
                   t=t, y=y.reshape(shape + (6,)),
                   zeta=zeta.reshape(shape) if shape else complex(zeta[0]),
                   B=B.reshape(shape + (3, 6)))

    @property
    def surface(self) -> HermitianSurface:
        """The surface of a one-surface coframe."""
        if len(self.segments) != 1:
            raise ValueError("a coframe of several surfaces has no one surface")
        return self.segments[0][0]

    def _per_surface(self, fn: Callable[[HermitianSurface, slice], object]):
        """fn(M, part) for each segment's surface M and the slice `part` of
        its points on the point axis, joined along that axis."""
        parts, start = [], 0
        for M, n in self.segments:
            parts.append(fn(M, slice(start, start + n)))
            start += n
        return _join(parts)

    # -- the stack with one point axis -----------------------------------

    def _out(self, rows: np.ndarray) -> np.ndarray:
        """Read-only rows (n, ...) with the point axes of the input."""
        return read_only(rows.reshape(np.shape(self.y)[:-1] + rows.shape[1:]))

    @functools.cached_property
    def _x(self) -> np.ndarray:
        return np.reshape(self.y, (-1, 6))[:, :4]

    @functools.cached_property
    def _phi(self) -> np.ndarray:
        """The rows (n, 3, 6) of phi^1..phi^3, as their forms hold them."""
        return cut(np.reshape(self.B, (-1, 3, 6)))

    @functools.cached_property
    def _frames(self):
        """(omega_tilde, lc_omega, frame) at the base points."""
        return self._per_surface(lambda M, part: omega_tilde_coord(M, self._x[part], self.t))

    @functools.cached_property
    def _rotation(self) -> np.ndarray:
        """The fiber rotations A = _su2(zeta) (n, 2, 2)."""
        return _su2(np.reshape(self.zeta, -1))

    @functools.cached_property
    def _mu(self) -> np.ndarray:
        mu = mu_from_omega(self._frames[1])
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
        def entries(M, part):
            lc = levi_civita(M, self._x[part])
            return lc.R, push_slots(lc.R, lc.frame.theta, (2, 3))
        return self._per_surface(entries)

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
        return self._per_surface(lambda M, part: np.einsum(
            "...am,...mnr->...anr", rows[part], torsion_tensor(M, self._x[part], self.t)))

    @functools.cached_property
    def _T_hat(self) -> Optional[np.ndarray]:
        return None if self._torsion is None else _two_form_rows(self._torsion)

    @functools.cached_property
    def _chern_curvature(self) -> np.ndarray:
        """The Chern curvature rows Psi^c_d over the chart (n, 2, 2, 15)."""
        return self._per_surface(
            lambda M, part: _lift_rows(cut(curvature_rows(M, self._x[part], 1.0))))

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
        """The coefficient rows (..., 3, 15) of W_1, W_2, W_3 (read-only)."""
        return _W_coeffs(self.B)

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

    # -- forms of a one-point coframe ----------------------------------------

    def _one_point(self) -> None:
        if np.ndim(self.y) != 1:
            raise ValueError("the forms of a coframe are read at one bundle point; "
                             "a stack gives coefficient rows")

    def _form(self, rows: np.ndarray, degree: int) -> ComplexForm:
        """The form of the row (1, m) of a one-point coframe."""
        self._one_point()
        return ComplexForm(6, degree, rows[0])

    def phi_form(self, a: int) -> ComplexForm:
        """phi^a as a 1-form over the chart coordinates (a = 1..3)."""
        return self._form(self._phi[:, a - 1], 1)

    @functools.cached_property
    def mu(self) -> ComplexForm:
        return self._form(self._mu, 1)

    @functools.cached_property
    def tau3(self) -> ComplexForm:
        return self._form(self._tau3, 2)

    @functools.cached_property
    def omega_diff(self) -> ComplexForm:
        return self._form(self._omega_diff, 2)

    @functools.cached_property
    def R_hat(self) -> Dict[str, complex]:
        """The rotated curvature components R(v_1*, v_2, v_2, v_2*) and
        R(v_1*, v_2, v_1, v_1*)."""
        self._one_point()
        return {p: complex(v[0]) for p, v in self._R_hat.items()}

    @functools.cached_property
    def T_hat(self) -> Optional[List[ComplexForm]]:
        """The rotated torsion 2-forms T^1, T^2 (None for t = 0)."""
        rows = self._T_hat
        return None if rows is None else [self._form(rows[:, a], 2) for a in range(2)]

    @functools.cached_property
    def T_components(self) -> Optional[np.ndarray]:
        """T^a(v_1, v_2) (2,) complex (None for t = 0)."""
        self._one_point()
        if self._torsion is None:
            return None
        V = self._frames[2].U @ self._rotation     # coordinate components of v_1, v_2
        return push_slots(self._torsion, V, (1, 2))[0, :, 0, 1]

    @functools.cached_property
    def Psi_hat(self) -> Optional[List[List[ComplexForm]]]:
        """The rotated Chern curvature forms Psi^a_b (None unless t = 1)."""
        if abs(self.t - 1.0) >= 1e-12:
            return None
        return [[self._form(self._psi_hat(a, b), 2) for b in range(2)] for a in range(2)]

    def full_rows(self) -> np.ndarray:
        """The 6x6 matrix with rows phi^1..phi^3, conj(phi^1)..conj(phi^3)."""
        return np.vstack([self.B, np.conj(self.B)])

    def gram_determinant(self) -> complex:
        return complex(np.linalg.det(self.full_rows()))


def twistor_coframe(M: HermitianSurface, conn: Union[str, float], z: TwistorPoint,
                    with_structure: bool = True) -> TwistorCoframe:
    """The coframe of one connection at one bundle point: the one-point case
    of `TwistorCoframe.stack`, with the arrays of one point.

    `with_structure` is ignored, since every structure entry is built on
    first use; it is accepted for callers that still pass it.  Raises as
    `TwistorCoframe.stack` does.
    """
    return TwistorCoframe._build(M, conn, [z], ())


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


def _W_coeffs(B: np.ndarray) -> np.ndarray:
    """The coefficient rows (..., 3, 15) of W_1 = phi^1 ^ conj(phi^1),
    W_2 = conj(phi^2) ^ phi^2 and W_3 = phi^3 ^ conj(phi^3) for the coframe
    rows B (..., 3, 6) (read-only): the one source of both coframes'
    `W_coeffs`."""
    out = np.einsum("...am,...an->...amn", B, np.conj(B))
    out = out - np.swapaxes(out, -1, -2)
    out[..., 1, :, :] = -out[..., 1, :, :]
    m, n = np.triu_indices(6, 1)
    return read_only(cut(out[..., m, n]))


def _check_index(i: int) -> None:
    if i not in _WEIGHT_SIGNS:
        raise ValueError(f"structure index must lie in 1..4, got {i!r}")


def lambda_weights(pairs: Sequence[Tuple[int, Union[float, Sequence[float]]]]) -> np.ndarray:
    """The weight table (n, 3): row r holds (l1^2, e2 l2^2, e3 l3^2), the
    weights of W_1, W_2, W_3 in K_i(lambda) for the r-th pair (i, lambda),
    checked in order; each distinct lambda is checked and squared once, with
    python's `**`, and the signs are one product."""
    signs, squares, seen = [], [], {}
    for i, lam in pairs:
        _check_index(i)
        signs.append(_WEIGHT_SIGNS[i])
        key = lam if np.isscalar(lam) else tuple(lam)
        if key not in seen:
            seen[key] = [v ** 2 for v in _lambdas(lam)]
        squares.append(seen[key])
    return np.array(signs).reshape(-1, 3) * np.array(squares).reshape(-1, 3)


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
    member has no displayed closed form and is served by `dK_oracle`.
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
                  flags: Optional[ConditionFlags] = None) -> ComplexForm:
    """i del dbar K_i from the closed-form displays (a 4-form).

    Availability: (i = 1, t = 0) on a self-dual base with constant scalar
    curvature (constancy is the caller's assertion; self-duality is checked
    against `flags`); (i in {3, 4}, t = 0) on a base with J-invariant Ricci
    tensor; (i in {3, 4}, t = 1) unconditionally.  Everything else is served
    by the finite-difference oracle.
    """
    lam2 = _one_parameter(lam, "the displays are")
    p1 = coframe.phi_form(1)
    p2 = coframe.phi_form(2)
    p3 = coframe.phi_form(3)
    b1, b2, b3 = p1.conj(), p2.conj(), p3.conj()
    if flags is None:
        flags = condition_flags(coframe.surface, coframe.y[:4])
    if abs(coframe.t) < 1e-12:
        fiber = (wedge(coframe.omega_diff, wedge(p3, b3)) - wedge(coframe.tau3, coframe.tau3.conj())) * lam2
        if i == 1:
            if not flags.self_dual:
                raise ValueError("the i = 1 display requires a self-dual base with constant "
                                 "scalar curvature (self-duality predicate failed); use the oracle")
            s = flags.s
            combo = (wedge_all(p1, b1, b2, p2) * (-s / 12.0)
                     + wedge_all(b2, p2, p3, b3) + wedge_all(p3, b3, p1, b1))
            return combo * (-(2.0 - lam2 * s / 6.0)) + fiber
        if i in (3, 4):
            if not flags.ricci_J_invariant:
                raise ValueError("the i = 3, 4 displays require a J-invariant Ricci tensor "
                                 "(predicate failed); use the oracle")
            mu, mub = coframe.mu, coframe.mu.conj()
            base = wedge_all(p1, b1, p2, b2) * (0.25 * (flags.s - flags.sstar))
            mu_term = wedge(wedge(mu, mub), wedge(p1, b1) + wedge(p2, b2)) * (-2.0)
            return base + mu_term + fiber
        raise ValueError("no second-derivative display for i = 2; use the finite-difference oracle")
    if abs(coframe.t - 1.0) < 1e-12:
        if i not in (3, 4):
            raise ValueError("no second-derivative display for i = 1, 2 with the Chern "
                             "connection; use the finite-difference oracle")
        P = coframe.Psi_hat
        T1, T2 = coframe.T_hat
        fiber = (wedge(P[0][1], P[0][1].conj())
                 + wedge(P[0][0] - P[1][1], wedge(p3, b3))) * (-lam2)
        return (fiber
                + wedge(P[0][0], wedge(p1, b1)) + wedge(P[1][1], wedge(p2, b2))
                + wedge(T1, T1.conj()) + wedge(T2, T2.conj())
                - wedge(P[0][1].conj(), wedge(p1, b2)) - wedge(P[0][1], wedge(b1, p2)))
    raise ValueError("no closed-form derivative display for the general "
                     "canonical-family connection; use the finite-difference oracle")


# ======================================================================
# finite-difference oracles
# ======================================================================

def _stencil_rows(M: HermitianSurface, t: float, conn: Union[str, float],
                  y0: np.ndarray) -> np.ndarray:
    """B (..., 1 + 6 m, 3, 6) at each chart point of y0 (..., 6) followed by
    its stencil, from one `coframe_rows` call on M.  When that raises, the
    error is the one a point-by-point sweep meets first: each point's
    checks in stack order, B at a point before its stencil."""
    stencil = np.moveaxis(M.backend.stencil(y0), (0, 1), (-3, -2))   # (..., 6, m, 6)
    Y = np.concatenate([y0[..., None, :], stencil.reshape(y0.shape[:-1] + (-1, 6))], axis=-2)
    try:
        return coframe_rows(M, t, Y)
    except Exception:
        if y0.ndim > 1:
            for y in y0:
                CoframeSweep.__new__(CoframeSweep)._sweep(M, conn, y)
        else:
            _check_gram(coframe_rows(M, t, y0), y0)
        raise


class CoframeSweep:
    """FD sweeps of the coframe field around a stack of bundle points.

    From B and its six partials, the exterior derivatives of the three
    building-block 2-forms follow by the product rule and J_i with its
    partials from the adapted rows; every dK_i(lambda), K_i ^ dK_i, zero
    crossing and Nijenhuis value is then algebraic in one sweep.
    `CoframeSweep.stack(M, conn, points)` sweeps n bundle points at once:
    B at every point and at its 24 stencil points is one `coframe_rows`
    stack of n x 25 chart points, in point order (the fiber-direction
    stencil points sit at the base point bit for bit, so a point adds 17
    distinct base points, and the stencils under them are evaluated as
    stacks too).  `CoframeSweep(M, conn, z)` is the same build for the one
    point z.  The arrays carry the point axes of the input, as
    `coframe_rows` does: `B0` (n, 3, 6) and `dB` (n, 6, 3, 6) for a stack,
    (3, 6) and (6, 3, 6) for one point, and each point's values have the
    bits of its own one-point sweep.

    `CoframeSweep.stack(segments, conn)` sweeps the points of several
    surfaces, given as segments [(M, points), ...] whose surfaces share one
    FD rule; a one-surface stack is the one-segment case.  B at the points
    and their stencils is one `coframe_rows` call per surface, from that
    surface's own point memo; the FD combine, dB, the checks and every row
    below run once over all the points.  `M` is the surface of a
    one-surface sweep (None for several).

    The coefficient rows `W_coeffs` (n, 3, 15) and `dW_coeffs` (n, 3, 20) of
    the building blocks, and their blocks `W_wedge_dW` (n, 3, 3, 6), do not
    depend on i or lambda; each is built once, on first use, and shared by
    every K, dK, K ^ dK and zero crossing of the sweep.  A whole (i, lambda)
    grid of every point is one weighted sum of those rows and one weighted
    sum of the blocks (`defect_rows`), and the zero crossings of every
    structure one more (`lambda_zero_crossing`).  The Nijenhuis values of
    all four structures (`nijenhuis_values`, (4, n)) are one stacked solve,
    also built on first use; `nijenhuis(i)` solves J_i alone.  `K`, `dK` and
    `K_wedge_dK` give the forms of a one-point sweep.

    Raises DegenerateCoframeError, naming the first failing point in stack
    order as a point-by-point sweep does, when the Gram determinant of B at
    a point is near zero or not finite, or when its dB is not finite.
    """

    def __init__(self, M: HermitianSurface, conn: Union[str, float], z: TwistorPoint):
        self._sweep(M, conn, z.chart_coordinates())

    @classmethod
    def stack(cls, M: Union[HermitianSurface, Segments], conn: Union[str, float],
              points: Optional[Sequence[TwistorPoint]] = None) -> "CoframeSweep":
        """One sweep of every point of `points` (at least one) on M, or of
        every point of the segments M = [(surface, points), ...], whose
        surfaces share one FD rule."""
        segments = _segments(M, points, "a coframe sweep")
        ys = [(S, np.array([z.chart_coordinates() for z in pts])) for S, pts in segments]
        sweep = cls.__new__(cls)
        if len(ys) == 1:
            sweep._sweep(ys[0][0], conn, ys[0][1])
        else:
            sweep._sweep(ys, conn, None)
        return sweep

    def _sweep(self, M: Union[HermitianSurface, List[Tuple[HermitianSurface, np.ndarray]]],
               conn: Union[str, float], y0: Optional[np.ndarray]) -> None:
        """The sweep of the chart points y0 (6,) or (k, 6) on M, or, when
        y0 is None, of the segments M = [(surface, y0 (k, 6)), ...]: B at
        every point and its stencil from one `coframe_rows` call per
        surface, then one combine and one set of checks over all points."""
        segments = [(M, y0)] if y0 is not None else M
        t, label = normalize_connection(conn)
        self.t, self.label = t, label
        self.M = segments[0][0] if len(segments) == 1 else None
        be = segments[0][0].backend
        if any(S.backend.order != be.order or not np.array_equal(S.backend.step, be.step)
               for S, _ in segments[1:]):
            raise ValueError("the surfaces of one coframe sweep must share one FD rule")
        try:
            y0, B = _join([(y, _stencil_rows(S, t, conn, y)) for S, y in segments])
            self.y0 = y0                             # (..., 6)
            self.B0 = B[..., 0, :, :]
            values = np.moveaxis(B[..., 1:, :, :].reshape(y0.shape[:-1] + (6, -1, 3, 6)),
                                 (-4, -3), (0, 1))                  # (6, m, ..., 3, 6)
            self.dB = np.moveaxis(be.combine(values), 0, -3)          # (..., 6, 3, 6)
            finite = np.all(np.isfinite(self.dB), axis=(-3, -2, -1))
            for B0, ok, y in zip(self.B0.reshape(-1, 3, 6), finite.ravel(), y0.reshape(-1, 6)):
                _check_gram(B0, y)
                if not ok:
                    raise DegenerateCoframeError(y, "coframe derivative not finite")
        except Exception:
            # the error a sweep per surface meets first, surface by surface
            if len(segments) > 1:
                for S, y in segments:
                    CoframeSweep.__new__(CoframeSweep)._sweep(S, conn, y)
            raise

    # -- coefficient matrices of the W-blocks and their partials ----------

    @functools.cached_property
    def W_coeffs(self) -> np.ndarray:
        """The coefficients (..., 3, 15) of W_1, W_2, W_3 at the bundle
        points (read-only)."""
        return _W_coeffs(self.B0)

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

    def K(self, i: int, lam: Union[float, Sequence[float]]) -> ComplexForm:
        return ComplexForm(6, 2, weighted_sum(lambda_weights([(i, lam)])[0], self.W_coeffs))

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

    def K_wedge_dK(self, i: int, lam: Union[float, Sequence[float]]) -> ComplexForm:
        return ComplexForm(6, 5, self.defect_rows(lambda_weights([(i, lam)]))[1][0])

    @functools.cached_property
    def nijenhuis_values(self) -> np.ndarray:
        """The max Nijenhuis norms of J_1..J_4 at the bundle points, (4,) or
        (4, n) for a stack, from one stacked solve, each with the bits of
        its own structure's solve (read-only).  Raises the error of the
        first failing structure, as a loop over i = 1..4 meets it."""
        return read_only(self._nijenhuis((1, 2, 3, 4)))

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
        C, which are real-linear in B, so dJ = C^-1 (D dC - dC J).  On a
        failure the structures are replayed one at a time, so the error is
        that of the first failing one, J before dJ.
        """
        y = np.broadcast_to(self.y0, (len(structures),) + self.y0.shape)
        try:
            C = np.stack([_adapted_rows(i, self.B0) for i in structures])
            J = _real_part(np.linalg.solve(C, _D @ C), y, "an almost complex structure")
            dC = np.stack([_adapted_rows(i, self.dB) for i in structures])
            dJ = _real_part(np.linalg.solve(C[..., None, :, :], _D @ dC - dC @ J[..., None, :, :]),
                            y, f"the derivative of J_{structures[0]}")
        except (DegenerateCoframeError, np.linalg.LinAlgError):
            if len(structures) > 1:
                for i in structures:
                    self._nijenhuis((i,))
            raise
        # S[a, b] = J-contraction terms of N(d_a, d_b); N is its antisymmetric part
        S = np.einsum("...pa,...pmb->...abm", J, dJ) + np.einsum("...mn,...bna->...abm", J, dJ)
        return np.max(np.linalg.norm(S - np.swapaxes(S, -3, -2), axis=-1), axis=(-2, -1))


def dK_oracle(i: int, lam: Union[float, Sequence[float]], M: HermitianSurface,
              conn: Union[str, float], z: TwistorPoint) -> ComplexForm:
    """dK_i(lambda) by order-4 finite differences of the coframe field."""
    return CoframeSweep(M, conn, z).dK(i, lam)


def nijenhuis_oracle(i: int, M: HermitianSurface, conn: Union[str, float],
                     z: TwistorPoint) -> float:
    """Max norm of the Nijenhuis tensor of J_i over the 15 coordinate pairs.

    A standalone `CoframeSweep(...).nijenhuis(i)`: the same single sweep
    that serves dK, K ^ dK and the zero crossings at the point.
    """
    return CoframeSweep(M, conn, z).nijenhuis(i)


def _bidegree_project6(form: ComplexForm, C: np.ndarray, p_holo: int) -> ComplexForm:
    """Project a chart form onto the terms with `p_holo` factors from the
    (1,0)-rows of C (rows 0..2) and the rest from their conjugates."""
    over_phi = substitute(form, np.linalg.inv(C))
    kept = bidegree_project(over_phi, [(0, 3), (1, 4), (2, 5)], p_holo, form.degree - p_holo)
    return substitute(kept, C)


def ddbar_oracle(i: int, lam: Union[float, Sequence[float]], M: HermitianSurface,
                 conn: Union[str, float], z: TwistorPoint,
                 outer_step: float = 2e-3) -> ComplexForm:
    """i del dbar K_i by nested finite differences.

    The inner pass produces the (1,2)-part of dK at each stencil point (one
    coframe sweep of the whole outer stencil, each point projected with
    the J_i bidegree of that point); the outer pass differentiates those
    coefficients and keeps the (2,2)-part.  Only meaningful when J_i is
    integrable.
    """
    t, _ = normalize_connection(conn)
    y0 = z.chart_coordinates()

    def dbar_vecs(Y: np.ndarray) -> np.ndarray:
        """The (1,2)-part coefficients at every point of a stack Y (..., 6),
        from one stacked coframe sweep."""
        sw = CoframeSweep.stack(M, t, [TwistorPoint.from_zeta(y[:4], complex(y[4], y[5]))
                                       for y in Y.reshape(-1, 6)])
        dK = weighted_sum(lambda_weights([(i, lam)])[0], sw.dW_coeffs)
        out = [_bidegree_project6(ComplexForm(6, 3, v), _adapted_rows(i, B0), 1).vec
               for v, B0 in zip(dK, sw.B0)]
        return np.array(out, dtype=complex).reshape(Y.shape[:-1] + (-1,))

    B0 = coframe_rows(M, t, y0)     # an in-domain evaluation first
    dg = M.backend.with_step(outer_step).partials(dbar_vecs, y0)    # [p, key]
    dG = ComplexForm(6, 4, d_rows(dg, 6, 3))
    return _bidegree_project6(dG, _adapted_rows(i, B0), 2) * 1j


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
class TwistorMetricEval:
    """Everything measured for one (structure, parameter) pair at one point."""

    i: int
    lambdas: Tuple[float, float, float]
    K: ComplexForm
    reality_defect: float
    volume_coefficient: float          # K^3/3! over the orientation 6-form
    dK_formula: Optional[ComplexForm]
    dK_oracle: ComplexForm
    dK_residual: Optional[float]
    symplectic_defect: float
    balanced_formula: Optional[ComplexForm]
    balanced_oracle: ComplexForm
    balanced_residual: Optional[float]
    balanced_defect: float


def evaluate_metric(M: HermitianSurface, conn: Union[str, float], z: TwistorPoint,
                    i: int, lam: Union[float, Sequence[float]],
                    coframe: Optional[TwistorCoframe] = None,
                    sweep: Optional[CoframeSweep] = None) -> TwistorMetricEval:
    """Evaluate K_i(lambda) with both the formula and the oracle paths."""
    lams = _lambdas(lam)
    co = coframe or twistor_coframe(M, conn, z)
    sw = sweep or CoframeSweep(M, conn, z)
    K = K_form(i, lams, co)
    reality = float(np.max(np.abs(K.vec.imag)))
    # K^3/3! against the ordered (1,0)-pair volume of J_i
    vol = wedge_all(K, K, K) * (1.0 / 6.0)
    rows = _adapted_rows(i, co.B)
    pair = lambda r: wedge(_row_form(rows[r]), _row_form(rows[r]).conj())  # noqa: E731
    orient = wedge_all(pair(0), pair(1), pair(2)) * (1j ** 3)
    vol_c = vol.terms.get((0, 1, 2, 3, 4, 5), 0.0)
    orient_c = orient.terms.get((0, 1, 2, 3, 4, 5), 0.0)
    volume_coefficient = float(np.real(vol_c / orient_c)) if abs(orient_c) > 0 else float("nan")

    dKo = sw.dK(i, lams)
    bo = sw.K_wedge_dK(i, lams)
    formula_ok = abs(co.t) < 1e-12 or abs(co.t - 1.0) < 1e-12
    dKf = dK_formula(i, lams, co) if formula_ok else None
    dK_res = (dKf - dKo).norm() if dKf is not None else None
    one_param = lams[0] == 1.0 and lams[1] == 1.0
    bf = balanced_defect_formula(i, lams[2], co) if (formula_ok and one_param) else None
    b_res = (bf - bo).norm() if bf is not None else None
    return TwistorMetricEval(i=i, lambdas=lams, K=K, reality_defect=reality,
                             volume_coefficient=volume_coefficient,
                             dK_formula=dKf, dK_oracle=dKo, dK_residual=dK_res,
                             symplectic_defect=dKo.norm(),
                             balanced_formula=bf, balanced_oracle=bo,
                             balanced_residual=b_res, balanced_defect=bo.norm())


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
    displays are stated for the one-parameter family).  A defect or formula
    residual that is not finite, as from a fiber scale whose fourth power
    overflows, is a ValueError that names its (i, lambda).
    """
    t, label = normalize_connection(conn)
    grid = tuple(sorted(float(v) for v in lambdas if np.ndim(v) == 0))
    triples = [tuple(float(u) for u in v) for v in lambdas if np.ndim(v) != 0]
    formula_ok = abs(t) < 1e-12 or abs(t - 1.0) < 1e-12

    sw = CoframeSweep.stack(M, conn, points)
    co = TwistorCoframe.stack(M, conn, points) if formula_ok else None
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
