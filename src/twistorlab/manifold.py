"""Chart-level Hermitian surfaces: metric DSL, built-ins, frames.

A surface lives on a single coordinate chart (a closed box in R^4) and is
described by two fields: a Riemannian metric h (symmetric 4x4) and a
compatible complex structure J (J^2 = -Id, h(JX, JY) = h(X, Y)).  Metrics
come either from the small expression DSL documented below or from the
built-in example geometries.

All differentiation downstream is central finite differences through
DiffBackend; there is no automatic differentiation anywhere, so error
behavior is uniform and step/order are tunable per run.

Surface description format (line oriented, '#' comments):

    coords x1 x2 x3 x4
    domain x1 -1 1            # one line per coordinate (default [-1, 1])
    g 1 1 = 1/(1 + x1^2)      # upper-triangle entries; omitted: 0 (diag: 1)
    J standard                # or: J i j = <expr>

Expression grammar:
    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := number | coord | func '(' expr ')' | '(' expr ')' | '-' base
    func   := sin | cos | exp | log | sqrt | tanh

The entries of a description become one list of steps (`_Program`), one
per distinct subexpression, evaluated over a whole stack of points in one
call with python's operators and the scalar `math` functions, each of which
runs once per distinct value of its operand; no source text is generated.
"""

import dataclasses
import functools
import itertools
import math
import operator
import re
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


# standard complex structure J0:  J(d1)=d2, J(d2)=-d1, J(d3)=d4, J(d4)=-d3
J_STANDARD = np.array([
    [0.0, -1.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, 1.0, 0.0],
])


# ======================================================================
# expression DSL: tokenizer, parser, compiler
# ======================================================================

class SpecSyntaxError(ValueError):
    """Syntax error in a surface description, with 1-based line/column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"syntax error at line {line}, column {col}: {message}")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(r"""
    (?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>\^|[+\-*/()])
  | (?P<ws>\s+)
  | (?P<bad>.)
""", re.VERBOSE)

_FUNCS: Dict[str, Callable[[float], float]] = {
    "sin": math.sin, "cos": math.cos, "exp": math.exp,
    "log": math.log, "sqrt": math.sqrt, "tanh": math.tanh,
}


def _each(fn: Callable, a) -> np.ndarray:
    """fn at every entry of the array a, with the bits and the first error
    of `[fn(v) for v in a.tolist()]`.  A float64 array calls fn once per
    distinct bit pattern (so -0.0 and 0.0, and NaNs with other payloads,
    stay apart) and scatters the results back; where a call fails, the
    entries are run in order to raise the error of the first that fails.
    The distinct patterns are those of np.unique of the uint64 view, from a
    sort and a searchsorted, which cost a third of np.unique's inverse."""
    flat = np.ravel(a)
    if flat.dtype != np.float64:
        return np.array([fn(v) for v in flat.tolist()]).reshape(np.shape(a))
    bits = flat.view(np.uint64)
    s = np.sort(bits)
    distinct = np.concatenate((s[:1], s[1:][s[1:] != s[:-1]]))
    try:
        values = [fn(v) for v in distinct.view(np.float64).tolist()]
    except Exception:
        for v in flat.tolist():
            fn(v)
        raise
    return np.array(values)[distinct.searchsorted(bits)].reshape(np.shape(a))


def _elementwise(fn: Callable[[float], float]) -> Callable:
    """Apply a `math` function to every entry of an array (or to a scalar),
    so a stack of points keeps math's bits and its errors, such as
    "math domain error"; numpy's exp, log and tanh round differently."""
    def apply(a):
        return fn(a) if np.ndim(a) == 0 else _each(fn, a)
    return apply


def _power(a, n: int):
    """a ** n entry by entry with the C library's pow, as for a scalar; numpy's
    array power (x * x for n = 2) differs from it in the last bit.  0 ** -n
    and overflow give inf with a warning, as for a numpy scalar."""
    if np.ndim(a) == 0:
        return a ** n
    try:
        return _each(lambda v: v ** n, a)
    except (ZeroDivisionError, OverflowError):
        return np.array([np.float64(v) ** n for v in np.ravel(a).tolist()]).reshape(np.shape(a))


def _tokenize_expr(text: str, line_no: int, col_offset: int) -> List[Tuple[str, str, int]]:
    """Tokenize one expression; returns (kind, value, column) triples."""
    out = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        col = col_offset + m.start() + 1
        if kind == "ws":
            continue
        if kind == "bad":
            raise SpecSyntaxError(f"unexpected character {m.group()!r}", line_no, col)
        text = m.group()
        if kind == "num" and text.isdigit():
            text = str(int(text))       # 01 is 1; python's grammar refuses the leading zero
        out.append((kind, text, col))
    return out


# the leaf of a tree that stands for the stack of points x (..., 4)
_POINTS = object()

# the operation of each node kind of a tree: x[..., i], a binary operator,
# and a function of _FUNCS entry by entry
_COLUMNS = tuple(operator.itemgetter((Ellipsis, i)) for i in range(4))
_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_STEPS = {name: _elementwise(fn) for name, fn in _FUNCS.items()}


class _Program:
    """The steps that evaluate a set of expressions over a stack of points.

    Every distinct subexpression is one step, an operation on the values
    of earlier steps, so entries that share a subexpression (the
    denominator of cp2_fs, say) evaluate it once.  Coordinates read
    `x[..., i]`, so one call evaluates a whole stack of points x (..., 4),
    with the same floating-point operations on every point as for a single
    point.  The steps run in the order they were emitted, each on the
    operands python's own evaluation of the expression would give it, and
    the first that fails raises its error.
    """

    def __init__(self):
        self.slots: Dict[object, int] = {_POINTS: 0}    # a tree -> the slot of its value
        self.values: List[object] = [None]     # each literal's value; slot 0 takes x
        self.steps: List[tuple] = []           # (slot, operation, operand slot, operand slot or None)

    def emit(self, tree) -> int:
        """The slot of a parsed expression tree (`_ExprParser`): one step per
        node, its children first, left to right, in the order the parser
        read them; a tree emitted before, such as the entry of a mirrored
        slot, adds no step and is not walked."""
        slot = self.slots.get(tree)
        if slot is None:
            if isinstance(tree, tuple):
                op, *children = tree
                args = [self.emit(child) for child in children]
                self.steps.append((len(self.values), op, args[0], args[1] if len(args) > 1 else None))
                value = None
            else:       # a literal: python's parse of its text, or an exponent
                value = tree if isinstance(tree, int) else int(tree) if tree.isdigit() else float(tree)
            slot = self.slots[tree] = len(self.values)
            self.values.append(value)
        return slot

    def compile(self, outputs: Sequence[int]) -> Callable[[np.ndarray], list]:
        """x -> the list of the values of the slots `outputs`."""
        initial, steps = list(self.values), list(self.steps)

        def program(x):
            values = initial.copy()
            values[0] = x
            for slot, op, a, b in steps:
                values[slot] = op(values[a]) if b is None else op(values[a], values[b])
            return [values[k] for k in outputs]
        return program


class _ExprParser:
    """Recursive-descent parser of one expression, whose text starts after
    column `col_offset` of line `line_no`, into a tree for `_Program.emit`.

    A tree is a leaf or a tuple (operation, *children).  A leaf is the text
    of a numeric literal (a str), an integer exponent, or `_POINTS`; the
    operation is x[..., i] (`_COLUMNS`, on `_POINTS`), a binary operator,
    unary minus, a function of `_FUNCS` entry by entry (`_STEPS`) or
    `_power` with its exponent.  Evaluating a whole stack of points in one
    call keeps the cost per point far below a python call per point, which
    matters because the FD oracles evaluate metrics at hundreds of points
    per bundle point.
    """

    def __init__(self, text: str, coords: Sequence[str], line_no: int, col_offset: int):
        self.toks = _tokenize_expr(text, line_no, col_offset)
        if not self.toks:
            raise SpecSyntaxError("empty expression", line_no, col_offset + 1)
        self.pos = 0
        self.coords = {name: i for i, name in enumerate(coords)}
        self.line_no = line_no

    def _peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            last_col = self.toks[-1][2] if self.toks else 1
            raise SpecSyntaxError("unexpected end of expression", self.line_no, last_col)
        self.pos += 1
        return tok

    def _expect_op(self, op: str):
        tok = self._next()
        if tok[0] != "op" or tok[1] != op:
            raise SpecSyntaxError(f"expected {op!r}, got {tok[1]!r}", self.line_no, tok[2])

    def parse(self):
        tree = self.expr()
        if self._peek() is not None:
            tok = self._peek()
            raise SpecSyntaxError(f"trailing input {tok[1]!r}", self.line_no, tok[2])
        return tree

    def expr(self):
        tree = self.term()
        while (tok := self._peek()) is not None and tok[1] in ("+", "-"):
            self._next()
            tree = (_OPERATORS[tok[1]], tree, self.term())
        return tree

    def term(self):
        tree = self.factor()
        while (tok := self._peek()) is not None and tok[1] in ("*", "/"):
            self._next()
            tree = (_OPERATORS[tok[1]], tree, self.factor())
        return tree

    def factor(self):
        tree = self.base()
        if (tok := self._peek()) is not None and tok[1] == "^":
            self._next()
            sign = ""
            nxt = self._next()
            if nxt[0] == "op" and nxt[1] == "-":
                sign = "-"
                nxt = self._next()
            if nxt[0] != "num" or any(ch in nxt[1] for ch in ".eE"):
                raise SpecSyntaxError("exponent must be an integer", self.line_no, nxt[2])
            tree = (_power, tree, int(sign + nxt[1]))
        return tree

    def base(self):
        tok = self._next()
        kind, value, col = tok
        if kind == "num":
            return value
        if kind == "op" and value == "-":
            return (operator.neg, self.base())
        if kind == "op" and value == "(":
            tree = self.expr()
            self._expect_op(")")
            return tree
        if kind == "name":
            if value in _FUNCS:
                self._expect_op("(")
                tree = self.expr()
                self._expect_op(")")
                return (_STEPS[value], tree)
            if value in self.coords:
                return (_COLUMNS[self.coords[value]], _POINTS)
            raise SpecSyntaxError(f"unknown name {value!r}", self.line_no, col)
        raise SpecSyntaxError(f"unexpected token {value!r}", self.line_no, col)


def _compile_expr(text: str, coords: Sequence[str], line_no: int, col_offset: int) -> Callable[[np.ndarray], object]:
    """One expression as a function of a point or of a stack of points (..., 4)."""
    program = _Program()
    run = program.compile([program.emit(_ExprParser(text, coords, line_no, col_offset).parse())])
    return lambda x: run(x)[0]


# ======================================================================
# chart, backend, surface
# ======================================================================

@dataclass(frozen=True)
class ChartSpec:
    """A single coordinate chart: four named coordinates on a closed box."""
    names: Tuple[str, str, str, str]
    box: np.ndarray  # shape (4, 2), [lo, hi] per coordinate

    def __post_init__(self):
        box = np.asarray(self.box, dtype=float)
        object.__setattr__(self, "box", box)
        if box.shape != (4, 2):
            raise ValueError(f"domain box must be 4x2, got {box.shape}")
        if not np.all(box[:, 1] > box[:, 0]):
            raise ValueError("chart domain has empty interior")

    def margin_to_boundary(self, x: np.ndarray):
        """Distance to the boundary in the max norm: a float for one point,
        an array for a stack of points (..., 4)."""
        x = np.asarray(x, dtype=float)
        lo = np.min(x - self.box[:, 0], axis=-1)
        hi = np.min(self.box[:, 1] - x, axis=-1)
        margin = np.where(hi < lo, hi, lo)
        return float(margin) if margin.ndim == 0 else margin

    def interior_points(self, n: int, seed: int) -> np.ndarray:
        """Deterministic Latin-hypercube sample of n interior points, kept
        off each face of the box by 8% of its width."""
        rng = np.random.default_rng(seed)
        lo = self.box[:, 0]
        w = self.box[:, 1] - self.box[:, 0]
        lo_eff = lo + 0.08 * w
        w_eff = (1.0 - 2.0 * 0.08) * w
        pts = np.empty((n, 4))
        for k in range(4):
            strata = (rng.permutation(n) + 0.5) / n
            pts[:, k] = lo_eff[k] + strata * w_eff[k]
        return pts


# the multiples c of the step in the stencil points x + c h e_k of each FD order
_OFFSETS = {2: (1.0, -1.0), 4: (2.0, 1.0, -1.0, -2.0)}


@dataclass(frozen=True)
class DiffBackend:
    """Central finite differences of order 2 or 4: the one FD rule.

    step may be a scalar or a per-coordinate array; the stencil reaches
    step (order 2) or 2*step (order 4) from the evaluation point.

    The rule has two halves.  `stencil` lays out the points of every
    partial at every point of a stack, as one sum of the points and the
    offsets c h e_k (c in _OFFSETS), and `combine` weighs the values of a
    function there: (f(x+h) - f(x-h)) / 2h, or (-f(x+2h) + 8 f(x+h)
    - 8 f(x-h) + f(x-2h)) / 12h, in that order of operations; both read the
    steps as one array, with no loop over the directions.  `partials`
    differentiates a function that evaluates stacks with one call on the
    whole stencil, nested derivatives included; the passes over segments
    (the base table, the curvatures, `CoframeSweep`) read values at the
    points and stencils of `with_stencils`, whose stencils of every segment
    are one `stencil` call, and make one `combine` per field.  The
    partials of a form's coefficients become its exterior derivative in one
    place, `exterior.d_rows`.  `partial`, the one-direction case for a
    function of one point, is not called by the package: it is the
    per-point reference that tests hold the stacked passes against.
    """
    order: int = 4
    step: float = 1e-3

    def __post_init__(self):
        if self.order not in (2, 4):
            raise ValueError(f"FD order must be 2 or 4, got {self.order}")
        if np.any(np.asarray(self.step) <= 0):
            raise ValueError("FD step must be positive")

    def reach(self) -> float:
        s = float(np.max(np.asarray(self.step)))
        return 2.0 * s if self.order == 4 else s

    def _steps(self, dirs: Sequence[int], ndim: int) -> np.ndarray:
        """The step of each direction of `dirs` on axis 0 of ndim + 1 axes
        (one step for all of them when the step is a scalar)."""
        s = np.asarray(self.step, dtype=float)
        return (s if s.ndim == 0 else s[list(dirs)]).reshape((-1,) + (1,) * ndim)

    def stencil(self, x: np.ndarray, dirs: Optional[Sequence[int]] = None) -> np.ndarray:
        """The stencil points of the partials along `dirs` (default: every
        coordinate) at every point of x (..., n): shape (len(dirs), m, ..., n)
        with m = order offsets, ordered x + 2h, x + h, x - h, x - 2h (order 4)
        or x + h, x - h (order 2), from one sum of x and the offsets
        (c h) e_k, which has the bits of x + c h e_k and x - |c| h e_k."""
        x = np.asarray(x, dtype=float)
        n = x.shape[-1]
        dirs = range(n) if dirs is None else dirs
        e = np.eye(n)[list(dirs)][:, None, :]
        c = np.array(_OFFSETS[self.order])[None, :, None]
        offsets = (c * self._steps(dirs, 2)) * e                   # (len(dirs), m, n)
        return x + offsets.reshape(offsets.shape[:2] + (1,) * (x.ndim - 1) + (n,))

    def combine(self, values: np.ndarray, dirs: Optional[Sequence[int]] = None) -> np.ndarray:
        """The partials from values[d, j] = f(stencil[d, j]): shape (len(dirs), ...)."""
        v = np.asarray(values)
        h = self._steps(range(v.shape[0]) if dirs is None else dirs, v.ndim - 2)
        if self.order == 2:
            return (v[:, 0] - v[:, 1]) / (2.0 * h)
        return (-v[:, 0] + 8.0 * v[:, 1] - 8.0 * v[:, 2] + v[:, 3]) / (12.0 * h)

    def partials(self, f: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
        """Every partial of f at every point of x (..., n), from one call of f
        on the whole stencil; f must evaluate stacks of points.  Shape
        (..., n) + the shape of f's value: the direction follows the point axes."""
        x = np.asarray(x, dtype=float)
        d = self.combine(f(self.stencil(x)))
        return np.ascontiguousarray(np.moveaxis(d, 0, x.ndim - 1))

    def partial(self, f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, k: int):
        """d f / d x_k at x, for scalar- or array-valued f of one point."""
        points = self.stencil(x, [k])[0]
        return self.combine(np.array([f(p) for p in points])[None], [k])[0]


# points a surface's point memo stores, over all its functions, before it is
# cleared; a two-point report or scan stores about 70 per surface (0.14 MB),
# verify about 104 per built-in (0.16 MB) and one ddbar_oracle call on cp2_fs
# 434 (0.84 MB of rows).  The largest row is a levi_civita point of 4 160
# bytes, so a memo holds at most 34 MB
POINT_MEMO_LIMIT = 8192

# held while a batch of results is appended to a table of any surface
_APPEND_LOCK = threading.Lock()


def _recipe(value):
    """(leaves, build) for the results of value's structure: an array, or
    tuples and frozen dataclasses (of two or more fields) of them.
    leaves(result) is the list of a result's arrays in field order, and
    build(arrays), arrays an iterator over such a list, makes a result."""
    def plan(v):        # (leaves, build) of v's structure, leaves None for an array
        if isinstance(v, np.ndarray):
            return None, next
        kind = tuple if isinstance(v, tuple) else type(v)
        items = tuple if kind is tuple else operator.attrgetter(*(f.name for f in dataclasses.fields(v)))
        subs, makes = zip(*map(plan, items(v)))

        def leaves(r):
            return [a for sub, item in zip(subs, items(r)) for a in (sub(item) if sub else (item,))]

        def build(arrays):
            parts = [make(arrays) for make in makes]
            return tuple(parts) if kind is tuple else kind(*parts)
        return leaves, build
    leaves, build = plan(value)
    return leaves or (lambda a: [a]), build


def _take(rows: list, spans: list, *stores: np.ndarray) -> np.ndarray:
    """The rows rows[k] of each table's array stores[k] of one leaf, taken into
    the span spans[k] of one read-only array (one array's rows as they are shaped)."""
    if len(stores) == 1:
        out = stores[0].take(rows[0], axis=0)
    else:
        out = np.empty((spans[-1].stop,) + stores[0].shape[1:], np.result_type(*stores))
        for a, r, span in zip(stores, rows, spans):
            a.take(r, 0, out[span], "clip")        # every row is valid: no checked copy
    out.setflags(write=False)
    return out


class _Table:
    """The stored results of one memoized function with one tuple of params:
    `leaves`, their arrays in field order with `size` rows each, one per
    point in the order computed; `recipe`, the `_recipe` of the first batch;
    `index`, from the 32 bytes of a point to its row.  Rows are only
    appended and a new list replaces `leaves` whole, so a row read from
    `index` stays valid."""
    __slots__ = ("index", "leaves", "recipe", "size")

    def __init__(self):
        self.index: Dict[bytes, int] = {}
        self.leaves: List[np.ndarray] = []
        self.recipe = None
        self.size = 0


class PointMemo(dict):
    """The point memo of a surface, one `_Table` per (fn, params), whose
    length is `points`, the points stored over all tables, kept by `_append`."""
    points = 0

    def __len__(self):
        return self.points

    def clear(self):
        super().clear()
        self.points = 0


def replay(run, parts):
    """run(parts), a stacked pass over parts (array rows, a list or a tuple).
    When it raises and there are several parts, run(parts[k:k + 1]) runs for
    each k in order before the error is raised again: the error is that of
    the first part that fails alone, which a loop over the parts meets
    first, or the stacked one when none does.  This is the one error rule
    of every stacked pass in the package."""
    try:
        return run(parts)
    except Exception:
        if len(parts) > 1:
            for k in range(len(parts)):
                run(parts[k:k + 1])
        raise


def replay_segments(run, segments):
    """run(segments) for segments [(M, points), ...], `replay`ed over the
    segments and over the points of each: a failing pass raises the error
    of the first point, in segment order, that fails alone."""
    return replay(lambda part: run(part) if len(part) > 1 else
                  replay(lambda rows: run([(part[0][0], rows)]), part[0][1]), segments)


def segments_of(M, x):
    """The segments [(surface, points (k, n)), ...] of a call at the points x
    (..., n) of M, or at segments M (x None), as private float copies, and
    the point axes of the answer: those of x, or one axis over them all."""
    segments = [(S, np.array(p, dtype=float)) for S, p in ([(M, x)] if x is not None else M)]
    flat = [(S, p.reshape(-1, p.shape[-1])) for S, p in segments]
    return flat, segments[0][1].shape[:-1] if x is not None else (sum(len(p) for _, p in flat),)


def _join(parts: List):
    """Arrays of consecutive segments, joined on the point axis (the one
    array of a one-segment stack as it is)."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def fd_rule(segments) -> "DiffBackend":
    """The FD rule that the surfaces of the segments share (ValueError if none)."""
    be = segments[0][0].backend
    if any(S.backend.order != be.order or not np.array_equal(S.backend.step, be.step) for S, _ in segments):
        raise ValueError("the surfaces of one stack must share one FD rule")
    return be


def with_stencils(segments):
    """The segments [(M, x (k, n)), ...], each x followed by its FD stencil,
    and `split`: values at their points -> (those at x (N, ...), and those
    at the stencils (d, m, N, ...), or None for split(values, False)), cut
    out by blocks (views for one segment).  The stencils of all the
    segments come from one `DiffBackend.stencil` call over their joined
    points, and each segment's has the bits of its own `stencil` call."""
    s = fd_rule(segments).stencil(_join([x for _, x in segments]))      # (d, m, N, n)
    d, m, _, n = s.shape
    parts, cuts, start, offset = [], [], 0, 0
    for M, x in segments:
        k = len(x)
        parts.append((M, np.concatenate([x, s[:, :, offset:offset + k].reshape(-1, n)])))
        cuts.append((start, start + k, start + len(parts[-1][1]), k))
        start, offset = cuts[-1][2], offset + k

    def joined(blocks, axis):           # one segment's block as it is, a view
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis)

    def split(values, stencils=True):
        return joined([values[a:b] for a, b, _, _ in cuts], 0), joined(
            [values[b:c].reshape((d, m, k) + values.shape[1:]) for _, b, c, k in cuts], 2) if stencils else None
    return parts, split


def _distinct(keys: list, points: np.ndarray):
    """The one dedupe of points: for `keys`, the 32 bytes of rows of `points` (k, 4),
    the dict of the distinct keys in first-occurrence order, their points (`points`
    when every row is one), and each key's position in it (None when none repeats)."""
    fresh = dict.fromkeys(keys)
    k = len(fresh)
    at = None if k == len(keys) else list(map(dict(zip(fresh, range(k))).__getitem__, keys))
    return fresh, points if k == len(points) else np.frombuffer(b"".join(fresh)).reshape(k, 4).copy(), at


def _append(memo: PointMemo, name: tuple, table: _Table, fresh: Dict[bytes, None], batch: list, recipe):
    """Append batch, the leaves of the results of the points `fresh`, to
    `table` of memo, whose results have the structure of `recipe`.

    Returns the table's leaves with the batch appended and the row of the
    batch's first point in them, which answer the caller whatever is kept.
    The points are stored as if one at a time, the memo being cleared whole
    whenever it holds POINT_MEMO_LIMIT points: when the batch does not fit,
    a new table keeps its last points.  The leaves are replaced before the
    index entries of their new rows are published, so a reader that finds a
    row finds it in the leaves it reads next."""
    n = len(fresh)
    with _APPEND_LOCK:
        base = table.size
        leaves = batch if base == 0 else [np.concatenate((a, b)) for a, b in zip(table.leaves, batch)]
        total = memo.points + n
        if total <= POINT_MEMO_LIMIT:
            table.leaves, table.recipe, table.size = leaves, recipe, base + n
            memo.points = total
            table.index.update(zip(fresh, range(base, base + n)))
        else:
            memo.clear()
            kept = memo.points = (total - 1) % POINT_MEMO_LIMIT + 1
            tail = memo[name] = _Table()
            tail.leaves, tail.recipe, tail.size = [a[n - kept:] for a in batch], recipe, kept
            tail.index.update(zip(itertools.islice(fresh, n - kept, None), range(kept)))
    return leaves, base


def _lookup(name: tuple, segments: list, shape: Tuple[int, ...]):
    """The results of fn(segments, *params), name = (fn, params), over the
    point axes `shape` (() for one point): one index pass over every
    segment's points, each in its own surface's table, one call of fn for
    the distinct points the tables lack (`_distinct`), every segment's at once, and,
    unless every point is a distinct miss (the batch is the answer), each
    leaf's rows taken from the segments' tables into one array.  Past fn,
    every step is a loop over the flat list of leaves."""
    fn, params = name
    tables = [M._point_memo.get(name) or M._point_memo.setdefault(name, _Table()) for M, _ in segments]
    keys = [points.view("V32").ravel().tolist() for _, points in segments]    # the 32 bytes of each point
    ends = list(itertools.accumulate(map(len, keys)))
    spans = [slice(end - len(k), end) for k, end in zip(keys, ends)]
    rows = np.fromiter(itertools.chain.from_iterable(map(table.index.get, k, itertools.repeat(-1))
                                                     for table, k in zip(tables, keys)), np.intp, ends[-1])
    stores = [table.leaves for table in tables]      # read after the index: every row found is in them
    recipe = tables[0].recipe
    missing = rows < 0
    if missing.any():
        flags = missing.tolist()
        fresh = [_distinct(list(itertools.compress(k, flags[span])), p)
                 for k, span, (_, p) in zip(keys, spans, segments)]
        total = sum(len(f) for f, _, _ in fresh)
        every = total == len(rows)      # every point a distinct miss: the batch is the answer
        batch = replay_segments(lambda part: fn(part, *params),
                                [(M, q) for (M, _), (f, q, _) in zip(segments, fresh) if f])
        recipe = recipe or _recipe(batch)
        for a in (leaves := recipe[0](batch)):
            a.setflags(write=False)
        start = 0
        for i, ((M, _), (f, _, at)) in enumerate(zip(segments, fresh)):
            k = len(f)
            if k:       # each surface's misses, appended to its own table
                piece = leaves if k == total else [a[start:start + k] for a in leaves]
                stores[i], base = _append(M._point_memo, name, tables[i], f, piece, recipe)
                start += k
                if not every:       # the new rows, in order unless a point repeats
                    rows[spans[i]][missing[spans[i]]] = np.arange(base, base + k) if at is None else np.add(at, base)
        if every:
            return batch if len(shape) == 1 else recipe[1](
                iter([a.reshape(shape + a.shape[1:]) if shape else a[0] for a in leaves]))
    r = [rows.reshape(shape or (1,))] if len(stores) == 1 else [rows[span] for span in spans]
    out = [_take(r, spans, *arrays) for arrays in zip(*stores)]
    return recipe[1](iter(out if shape else [a[0] for a in out]))


def point_memo(fn):
    """Memoize a pure point function fn(segments, *params) in the memo of
    each surface.

    fn takes segments [(M, x), ...], x an (n, 4) stack on the surface M, and
    answers with every segment's results joined on the point axis.  The
    memoized function takes M and one point (4,) or a stack (..., 4) and
    answers with the same point axes, or segments in place of M and x
    (fn(segments, None, *params)) and answers with one point axis.  The memo
    of M (`PointMemo`) holds one table per (fn, params): a dict from the
    bytes of a point to a row, and the flat list of fn's result arrays.  A
    call looks up each segment in its surface's table (`_lookup`); the
    distinct points not found are computed in one call of fn over every
    segment, and each surface's arrays appended to its own table as one
    batch.  When every point is a distinct miss the answer is that batch;
    else each array's rows are taken from the tables straight into one
    read-only array (`_take`), and the table's `_recipe` builds the answer
    from them.  A value is therefore computed once per surface and exact
    point, and does not depend on the other points of its stack.
    Exceptions are not stored; a failing stack raises the error of its
    first failing point (`replay_segments`).  The memo is cleared whole when
    an append would take it past POINT_MEMO_LIMIT points.  Threads may share
    a surface: lookups take no lock, appends take `_APPEND_LOCK`, and tables
    only grow.
    """
    @functools.wraps(fn)
    def memoized(M, x=None, *params):
        return _lookup((fn, params), *segments_of(M, x))
    return memoized


def stack_field(fn):
    """Mark a field callable as evaluating a whole stack of points x (..., 4)
    in one call, giving (..., 4, 4).  Compiled surface descriptions and a
    surface's own `metric` and `J` are stack fields; any other callable is
    evaluated point by point."""
    fn.stacks = True
    return fn


def _field(fn, x: np.ndarray) -> np.ndarray:
    """A (4, 4) field at every point of x (..., 4), as a fresh C-ordered float
    array, so a point's bits do not depend on the size of its stack."""
    if getattr(fn, "stacks", False):
        return np.array(fn(x), dtype=float, order="C")
    values = [np.asarray(fn(p), dtype=float) for p in x.reshape(-1, 4)]
    return np.array(values).reshape(x.shape[:-1] + (4, 4))


class HermitianSurface:
    """A Hermitian surface on a chart: metric field + complex-structure field.

    The fields take a point with its four coordinates on the last axis.
    `metric` and `J` accept one point (4,) or a stack of points (..., 4) and
    answer (4, 4) or (..., 4, 4).  The callables given to the constructor
    are evaluated point by point, one call per point, as are the metrics
    of `conformal_rescale` with a python callable f; a callable marked with
    `stack_field` (compiled surface descriptions, the built-ins, and the
    `metric` and `J` of another surface) is handed a whole stack in one
    call.  The choice follows from how the surface was built.

    Construction validates the Hermitian-surface invariants on a
    deterministic 16-point Latin-hypercube sample and raises with the
    offending point and check on failure.

    Each surface owns a private point memo (`point_memo`) of the three
    tables that later calls read: the base data of `connection._base_table`
    (g, Gamma, omega^LC, dF and its J-pushed terms, the frame), the
    Levi-Civita data and the D^t forms omega^t, each computed once per exact
    point and stored read-only.  `metric` and the frame fields g, E and F
    (`_frame_fields`, once per distinct point) keep nothing: each call
    evaluates the metric callable.  This relies on the surface
    being immutable: its chart, metric and J callables and backend must not
    be replaced after construction, and the callables must be pure.  The
    memo lives and dies with the surface, is cleared whole when it reaches
    POINT_MEMO_LIMIT points and is safe to share between threads.
    """

    def __init__(self, chart: ChartSpec,
                 metric: Callable[[np.ndarray], np.ndarray],
                 J: Callable[[np.ndarray], np.ndarray],
                 name: str = "custom",
                 params: Optional[Dict[str, float]] = None,
                 backend: Optional[DiffBackend] = None,
                 source_text: str = ""):
        self.chart = chart
        self._metric = metric
        self._J = J
        self.name = name
        self.params = dict(params or {})
        self.backend = backend or DiffBackend()
        self.source_text = source_text
        self._point_memo = PointMemo()
        self._validate_samples()

    @stack_field
    def metric(self, x: np.ndarray) -> np.ndarray:
        """g at a point or a stack of points from one call of the metric
        callable, `replay`ed to name the point where it fails (`_metric_field`)."""
        x = np.array(x, dtype=float)
        return replay(lambda p: _metric_field(self, p), x.reshape(-1, 4)).reshape(x.shape[:-1] + (4, 4))

    @stack_field
    def J(self, x: np.ndarray) -> np.ndarray:
        return _field(self._J, np.asarray(x, dtype=float))

    def _validate_samples(self):
        """Check the invariants at 16 sample points, evaluated as one stack,
        and raise for the first failing point with its first failing check.
        The three closeness checks (g against g^T, J*J against -Id, J^T g J
        against g) are np.isclose(a, b, atol=1e-10) at every entry, written
        out as numpy evaluates it for a finite b, |a - b| <= 1e-10 + 1e-5 |b|,
        in one pass over the three pairs.  A metric that fails at a sample
        point raises its own error (construction names no point for it)."""
        pts = self.chart.interior_points(16, seed=2024)
        g = replay(lambda p: _field(self._metric, p), pts)
        Jm = self.J(pts)
        gT = g.transpose(0, 2, 1)
        # a metric that is not finite at a point fails the first check and is
        # kept from eigvalsh, which may fail to converge on it for the whole stack
        finite = np.isfinite(g).reshape(16, 16).all(axis=1)
        h = np.where(finite[:, None, None], 0.5 * (g + gT), _EYE)
        a, b = np.empty((2, 3, 16, 4, 4))
        a[0], b[0] = g, gT
        np.matmul(Jm, Jm, out=a[1])
        b[1] = -_EYE
        np.matmul(Jm.transpose(0, 2, 1) @ g, Jm, out=a[2])
        b[2] = g
        with np.errstate(invalid="ignore"):     # as np.isclose: inf - inf is not close
            near = (abs(a - b) <= 1e-10 + 1e-5 * abs(b)).reshape(3, 16, 16).all(axis=2)
        bad = np.empty((5, 16), dtype=bool)
        bad[0] = ~finite
        bad[1], bad[3], bad[4] = ~near
        bad[2] = np.linalg.eigvalsh(h).min(axis=1) <= 1e-10
        if bad.any():
            k = int(np.argmax(bad.any(axis=0)))
            raise ValueError(f"surface invariant violation at sample point {pts[k].tolist()}: "
                             f"{_INVARIANTS[int(np.argmax(bad[:, k]))]}")


_EYE = np.eye(4)


# the checks of HermitianSurface._validate_samples, in the order they are made
_INVARIANTS = ("metric not finite", "metric not symmetric", "metric not positive-definite",
               "J*J != -Id", "metric not J-invariant")


# ======================================================================
# parsing surface descriptions
# ======================================================================

def _matrix_field(entries: Dict[Tuple[int, int], object],
                  fill: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The stack field x (..., 4) -> (..., 4, 4): `fill` with each 1-based
    slot of `entries` set to its expression, given as its parsed tree.
    The expressions enter one program in the order of `entries`, so where
    two of them fail at one point the error is that of the first, as when
    each entry is evaluated in turn."""
    program = _Program()
    run = program.compile([program.emit(tree) for tree in entries.values()])
    slots = [(i - 1, j - 1) for i, j in entries]

    @stack_field
    def field(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.array(np.broadcast_to(fill, x.shape[:-1] + (4, 4)), order="C")
        for (i, j), value in zip(slots, run(x)):
            out[..., i, j] = value
        return out
    return field


def parse_surface_spec(text: str, name: str = "custom",
                       params: Optional[Dict[str, float]] = None,
                       backend: Optional[DiffBackend] = None) -> HermitianSurface:
    """Parse a surface description (see module docstring for the format).

    Args:
        text: the description source.
        name/params/backend: metadata and FD configuration to attach.

    Returns:
        A validated HermitianSurface whose source_text round-trips.

    Raises:
        SpecSyntaxError: on malformed input, with line and column.
        ValueError: when a surface invariant fails at a sample point.
    """
    coords: Optional[Tuple[str, ...]] = None
    domains: Dict[str, Tuple[float, float]] = {}
    # each entry is the tree of its expression; each distinct text is parsed
    # once, at its first line, where a syntax error surfaces
    g_exprs: Dict[Tuple[int, int], object] = {}
    j_exprs: Dict[Tuple[int, int], object] = {}
    trees: Dict[str, object] = {}
    j_standard = False

    lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        indent = len(line) - len(line.lstrip())
        words = stripped.split()
        head = words[0]

        if head == "coords":
            if len(words) != 5:
                raise SpecSyntaxError("coords needs exactly 4 names", line_no, indent + 1)
            if coords is not None:
                raise SpecSyntaxError("duplicate coords line", line_no, indent + 1)
            if len(set(words[1:])) != 4:
                raise SpecSyntaxError("coordinate names must be distinct", line_no, indent + 1)
            coords = tuple(words[1:])
            continue

        if coords is None:
            raise SpecSyntaxError("the coords line must come first", line_no, indent + 1)

        if head == "domain":
            if len(words) != 4:
                raise SpecSyntaxError("domain needs: domain <coord> <lo> <hi>", line_no, indent + 1)
            if words[1] not in coords:
                raise SpecSyntaxError(f"unknown coordinate {words[1]!r}", line_no, line.find(words[1]) + 1)
            try:
                lo, hi = float(words[2]), float(words[3])
            except ValueError:
                raise SpecSyntaxError("domain bounds must be numbers", line_no, indent + 1) from None
            if hi <= lo:
                raise SpecSyntaxError("domain upper bound must exceed lower bound", line_no, indent + 1)
            domains[words[1]] = (lo, hi)
            continue

        if head in ("g", "J"):
            if head == "J" and len(words) == 2 and words[1] == "standard":
                j_standard = True
                continue
            eq = line.find("=")
            if eq < 0:
                raise SpecSyntaxError(f"{head} entry needs '= <expr>'", line_no, len(line) + 1)
            lhs_words = line[:eq].split()
            if len(lhs_words) != 3:
                raise SpecSyntaxError(f"expected '{head} i j = <expr>'", line_no, indent + 1)
            try:
                i, j = int(lhs_words[1]), int(lhs_words[2])
            except ValueError:
                raise SpecSyntaxError("matrix indices must be integers", line_no, indent + 1) from None
            if not (1 <= i <= 4 and 1 <= j <= 4):
                raise SpecSyntaxError("matrix indices must be in 1..4", line_no, indent + 1)
            expr = line[eq + 1:]
            if expr not in trees:
                trees[expr] = _ExprParser(expr, coords, line_no, eq + 1).parse()
            target = g_exprs if head == "g" else j_exprs
            if (i, j) in target:
                raise SpecSyntaxError(f"duplicate entry {head} {i} {j}", line_no, indent + 1)
            target[(i, j)] = trees[expr]
            continue

        raise SpecSyntaxError(f"unknown directive {head!r}", line_no, indent + 1)

    if coords is None:
        raise SpecSyntaxError("missing coords line", max(len(lines), 1), 1)

    box = np.array([domains.get(c, (-1.0, 1.0)) for c in coords])
    chart = ChartSpec(names=coords, box=box)

    # the metric's entries in slot order, slot (i, j) taking the entry
    # written for (i, j), else the one for (j, i); J's in the order written
    metric_entries = {}
    for i, j in itertools.product(range(1, 5), repeat=2):
        tree = g_exprs.get((i, j)) or g_exprs.get((j, i))
        if tree is not None:
            metric_entries[(i, j)] = tree
    metric_fn = _matrix_field(metric_entries, np.eye(4))

    if j_exprs and j_standard:
        raise SpecSyntaxError("both 'J standard' and explicit J entries given", len(lines), 1)

    if j_exprs:
        j_fn = _matrix_field(j_exprs, np.zeros((4, 4)))
    else:
        j_fn = stack_field(lambda x: np.broadcast_to(J_STANDARD, np.shape(x)[:-1] + (4, 4)))

    return HermitianSurface(chart, metric_fn, j_fn, name=name, params=params,
                            backend=backend, source_text=text)


# ======================================================================
# built-in geometries
# ======================================================================

def _fmt(v: float) -> str:
    return repr(float(v))


def _builtin_flat_c2() -> str:
    return (
        "# flat C^2, identity metric\n"
        "coords x1 x2 x3 x4\n"
        + "".join(f"domain x{k} -1 1\n" for k in range(1, 5))
        + "J standard\n"
    )


def _builtin_cp2_fs(c: float) -> str:
    # affine chart of the complex projective plane, Fubini-Study metric with
    # holomorphic sectional curvature c (potential (2/c) log(1 + |z|^2))
    rho = "(x1^2 + x2^2 + x3^2 + x4^2)"
    D = f"(1 + {rho})^2"
    k = f"({_fmt(4.0 / c)})"
    lines = [
        "# Fubini-Study metric on an affine chart",
        "coords x1 x2 x3 x4",
    ]
    lines += [f"domain x{i} -0.7 0.7" for i in range(1, 5)]
    lines += [
        f"g 1 1 = {k}*(1 + x3^2 + x4^2)/{D}",
        f"g 2 2 = {k}*(1 + x3^2 + x4^2)/{D}",
        f"g 3 3 = {k}*(1 + x1^2 + x2^2)/{D}",
        f"g 4 4 = {k}*(1 + x1^2 + x2^2)/{D}",
        f"g 1 3 = -{k}*(x1*x3 + x2*x4)/{D}",
        f"g 2 4 = -{k}*(x1*x3 + x2*x4)/{D}",
        f"g 1 4 = -{k}*(x1*x4 - x2*x3)/{D}",
        f"g 2 3 = {k}*(x1*x4 - x2*x3)/{D}",
        "J standard",
    ]
    return "\n".join(lines) + "\n"


def _builtin_ch2(c: float) -> str:
    # unit-ball model, holomorphic sectional curvature -c
    rho = "(x1^2 + x2^2 + x3^2 + x4^2)"
    D = f"(1 - {rho})^2"
    k = f"({_fmt(4.0 / c)})"
    lines = [
        "# complex hyperbolic plane on a ball chart",
        "coords x1 x2 x3 x4",
    ]
    lines += [f"domain x{i} -0.35 0.35" for i in range(1, 5)]
    lines += [
        f"g 1 1 = {k}*(1 - x3^2 - x4^2)/{D}",
        f"g 2 2 = {k}*(1 - x3^2 - x4^2)/{D}",
        f"g 3 3 = {k}*(1 - x1^2 - x2^2)/{D}",
        f"g 4 4 = {k}*(1 - x1^2 - x2^2)/{D}",
        f"g 1 3 = {k}*(x1*x3 + x2*x4)/{D}",
        f"g 2 4 = {k}*(x1*x3 + x2*x4)/{D}",
        f"g 1 4 = {k}*(x1*x4 - x2*x3)/{D}",
        f"g 2 3 = -{k}*(x1*x4 - x2*x3)/{D}",
        "J standard",
    ]
    return "\n".join(lines) + "\n"


def _builtin_hopf() -> str:
    # locally conformally flat metric |dz|^2/|z|^2 on a box inside the
    # annulus 0.5 < |z| < 2 (non-Kahler, nonzero closed Lee form)
    rho = "(x1^2 + x2^2 + x3^2 + x4^2)"
    lines = [
        "# Hopf-type metric on an annular chart",
        "coords x1 x2 x3 x4",
    ]
    lines += [f"domain x{i} 0.4 0.9" for i in range(1, 5)]
    lines += [f"g {i} {i} = 1/{rho}" for i in range(1, 5)]
    lines += ["J standard"]
    return "\n".join(lines) + "\n"


BUILTIN_NAMES = ("flat_c2", "cp2_fs", "ch2", "hopf")


def builtin(name: str, backend: Optional[DiffBackend] = None, **params: float) -> HermitianSurface:
    """Construct a built-in surface.

    Args:
        name: one of flat_c2 | cp2_fs | ch2 | hopf.
        params: cp2_fs and ch2 accept c > 0 (holomorphic-sectional-curvature
            magnitude, default 2); the others take no parameters.
    """
    if name not in BUILTIN_NAMES:
        raise ValueError(f"unknown builtin surface {name!r}; available: {', '.join(BUILTIN_NAMES)}")
    if name in ("cp2_fs", "ch2"):
        c = float(params.pop("c", 2.0))
        if params:
            raise ValueError(f"unknown parameters for {name}: {sorted(params)}")
        if c <= 0:
            raise ValueError(f"parameter c must be positive, got {c}")
        text = _builtin_cp2_fs(c) if name == "cp2_fs" else _builtin_ch2(c)
        return parse_surface_spec(text, name=name, params={"c": c}, backend=backend)
    if params:
        raise ValueError(f"unknown parameters for {name}: {sorted(params)}")
    text = _builtin_flat_c2() if name == "flat_c2" else _builtin_hopf()
    return parse_surface_spec(text, name=name, backend=backend)


# ======================================================================
# J-adapted unitary frames
# ======================================================================

DEFAULT_SEEDS = (
    np.array([1.0, 0.0, 0.0, 0.0]),
    np.array([0.0, 0.0, 1.0, 0.0]),
)


@dataclass(frozen=True)
class UnitaryFrame:
    """A J-adapted orthonormal frame at a point.

    E[:, i] holds the coordinate components of e_{i+1}; e2 = J e1 and
    e4 = J e3 exactly.  theta = E^{-1} (rows are the dual coframe).
    U[:, a] = (e_{2a+1} - i e_{2a+2})/sqrt2 spans T^{1,0}; eta rows are its
    dual (1,0)-coframe.  The frames of a stack of points hold the same
    fields with the point axes in front.
    """
    point: np.ndarray
    E: np.ndarray        # (4, 4) real, columns e_1..e_4
    theta: np.ndarray    # (4, 4) real, rows theta^1..theta^4
    U: np.ndarray        # (4, 2) complex, columns u_1, u_2
    eta: np.ndarray      # (2, 4) complex, rows eta^1, eta^2


class DegenerateFrameError(ValueError):
    """DEFAULT_SEEDS give no adapted frame at a point: under the surface's
    metric and J, seed1 has norm ~ 0 or seed2 lies in span(e1, J e1)."""

    def __init__(self, point):
        super().__init__(f"seed degenerate at point {point}: the fixed Gram-Schmidt "
                         f"start vectors give no J-adapted frame for this metric and J")


class MetricEvaluationError(ValueError):
    """The metric callable of a surface failed at a point (a math domain or
    range error of a description, say); the callable's error is the cause."""

    def __init__(self, point, error: Exception):
        super().__init__(f"metric undefined at point {point}: {error}")


def _metric_field(M: HermitianSurface, x: np.ndarray) -> np.ndarray:
    """The metric callable of M at the points x (k, 4); its error at a
    point alone is a MetricEvaluationError naming the point, and a stack's
    is raised as it is, for `replay_segments` to find the point."""
    try:
        return _field(M._metric, x)
    except MetricEvaluationError:
        raise
    except Exception as exc:
        if len(x) != 1:
            raise
        raise MetricEvaluationError(x[0].tolist(), exc) from exc


def _gram_schmidt(segments) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(g, E, F, degenerate) at the points x of the segments from one call of each metric
    callable (`_metric_field`) and J:
    the J-adapted orthonormal frame E by modified Gram-Schmidt, e1 = normalize(seed1),
    e2 = J e1, e3 = normalize(seed2 - h-projections onto e1, e2), e4 = J e3 with
    (seed1, seed2) = DEFAULT_SEEDS; F = J^T g; and where the seeds give no frame,
    at which E is NaN and g and F are kept, so that F and dF need no frame."""
    s1, s2 = DEFAULT_SEEDS
    x = _join([p for _, p in segments])
    g = _join([_metric_field(M, p) for M, p in segments])
    Jm = _join([M.J(p) for M, p in segments])

    def dot(a, b):      # h(a, b) at every point; a and b are (4,) or (n, 4)
        a = np.broadcast_to(a, x.shape)[:, None, :]
        b = np.broadcast_to(b, x.shape)[:, :, None]
        return (a @ g @ b)[:, 0, 0]

    n1 = dot(s1, s1)
    degenerate = n1 < 1e-16
    e1 = s1 / np.sqrt(np.where(degenerate, 1.0, n1))[:, None]
    e2 = (Jm @ e1[:, :, None])[:, :, 0]
    r = s2 - dot(s2, e1)[:, None] * e1 - dot(s2, e2)[:, None] * e2
    rn = dot(r, r)
    small = rn < 1e-16
    degenerate |= small | (np.sqrt(np.where(small, 1.0, rn)) < 1e-8)
    e3 = r / np.sqrt(np.where(degenerate, 1.0, rn))[:, None]
    e4 = (Jm @ e3[:, :, None])[:, :, 0]
    E = np.stack([e1, e2, e3, e4], axis=-1)
    E[degenerate] = np.nan
    return g, E, np.swapaxes(Jm, 1, 2) @ g, degenerate


def _frame_fields(M, x: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(g, E, F, degenerate) at a point or a stack x (..., 4) of M, or at segments
    (x None), from one `replay_segments`ed `_gram_schmidt` pass over each
    segment's distinct points (`_distinct`), taken back at every point."""
    segments, shape = segments_of(M, x)
    found = [_distinct(p.view("V32").ravel().tolist(), p) for _, p in segments]
    starts = itertools.accumulate([len(q) for _, q, _ in found], initial=0)
    rows = np.concatenate([np.add(range(len(q)) if at is None else at, n) for (_, q, at), n in zip(found, starts)])
    fields = replay_segments(_gram_schmidt, [(S, q) for (S, _), (_, q, _) in zip(segments, found)])
    return tuple(a[rows].reshape(shape + a.shape[1:]) for a in fields)


def _unitary_frame(x: np.ndarray, E: np.ndarray) -> UnitaryFrame:
    """The frame E (..., 4, 4) at the points x (..., 4) with its duals theta =
    E^{-1}, U and eta."""
    e1, e2, e3, e4 = np.moveaxis(E, -1, 0)
    theta = np.linalg.inv(E)
    U = np.stack([(e1 - 1j * e2) / math.sqrt(2.0), (e3 - 1j * e4) / math.sqrt(2.0)], axis=-1)
    eta = np.stack([(theta[..., 0, :] + 1j * theta[..., 1, :]) / math.sqrt(2.0),
                    (theta[..., 2, :] + 1j * theta[..., 3, :]) / math.sqrt(2.0)], axis=-2)
    return UnitaryFrame(point=x, E=E, theta=theta, U=U, eta=eta)


def adapted_frame(M: HermitianSurface, x: np.ndarray) -> UnitaryFrame:
    """The frame E of `_frame_fields` with its duals (`_unitary_frame`) at a
    point or a stack of points x (..., 4).  Raises DegenerateFrameError at the
    first point without a frame, or the metric's error where a loop over the
    points meets it first (`replay`)."""
    def basis(p):
        _, E, _, degenerate = _frame_fields(M, p)
        _raise_at_first(degenerate, p, DegenerateFrameError)
        return E
    x = np.array(x, dtype=float)
    return _unitary_frame(x, replay(basis, x.reshape(-1, 4)).reshape(x.shape[:-1] + (4, 4)))


def _raise_at_first(bad: np.ndarray, x: np.ndarray, error: Callable[[list], Exception]) -> None:
    """Raise error(point) for the first point of the stack x where `bad` holds."""
    bad = np.ravel(bad)
    if bad.any():
        raise error(np.reshape(x, (-1, 4))[np.argmax(bad)].tolist())


def push_slots(T: np.ndarray, P: np.ndarray, slots: Sequence[int]) -> np.ndarray:
    """T with each listed slot pushed through the matrix P, one slot at a time:
    out[..., i, ...] = sum_a T[..., a, ...] P[..., a, i].

    P's point axes (all but its last two) lead T as well; `slots` count T's
    remaining axes from 0.  Each slot is one two-operand einsum, because
    numpy runs a multi-operand einsum as one loop over every index
    combination.
    """
    idx = "abcdefgh"[:T.ndim - P.ndim + 2]
    for s in slots:
        T = np.einsum(f"...{idx},...{idx[s]}z->...{idx[:s]}z{idx[s + 1:]}", T, P)
    return T


def coordinate_fundamental_matrix(M: HermitianSurface, x: np.ndarray) -> np.ndarray:
    """Components F_{mu nu} = F(d_mu, d_nu) = (J^T g)_{mu nu} in chart coordinates,
    at a point or a stack of points x (..., 4), from one `_frame_fields` pass."""
    return _frame_fields(M, x)[2]
