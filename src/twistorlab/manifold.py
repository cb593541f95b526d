"""Chart-level Hermitian surfaces: metric DSL, built-ins, frames, Lee form.

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
"""

import dataclasses
import functools
import itertools
import math
import re
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from twistorlab.exterior import ZERO_EPS, ComplexForm, antisymmetric_array, d_rows

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


def _elementwise(fn: Callable[[float], float]) -> Callable:
    """Apply a `math` function to every entry of an array (or to a scalar),
    so a stack of points keeps math's bits and its errors, such as
    "math domain error"; numpy's exp, log and tanh round differently."""
    def apply(a):
        if np.ndim(a) == 0:
            return fn(a)
        return np.array([fn(v) for v in np.ravel(a).tolist()]).reshape(np.shape(a))
    return apply


def _power(a, n: int):
    """a ** n entry by entry with the C library's pow, as for a scalar; numpy's
    array power (x * x for n = 2) differs from it in the last bit.  0 ** -n
    and overflow give inf with a warning, as for a numpy scalar."""
    if np.ndim(a) == 0:
        return a ** n
    flat = np.ravel(a).tolist()
    try:
        out = [v ** n for v in flat]
    except (ZeroDivisionError, OverflowError):
        out = [np.float64(v) ** n for v in flat]
    return np.array(out).reshape(np.shape(a))


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
        out.append((kind, m.group(), col))
    return out


class _Program:
    """Straight-line python for a set of expressions over a stack of points.

    Every distinct subexpression becomes one statement, so entries that
    share a subexpression (the denominator of cp2_fs, say) evaluate it once.
    Coordinates read `x[..., i]`, so one call evaluates a whole stack of
    points x (..., 4), with the same floating-point operations on every
    point as for a single point.
    """

    def __init__(self):
        self.names: Dict[str, str] = {}     # statement source -> its temporary
        self.lines: List[str] = []

    def let(self, src: str) -> str:
        name = self.names.get(src)
        if name is None:
            name = self.names[src] = f"_v{len(self.names)}"
            self.lines.append(f"    {name} = {src}")
        return name

    def emit(self, tree) -> str:
        """The temporary (or literal) holding a parsed expression tree
        (`_ExprParser`): one statement per node, its children first, left to
        right, in the order the parser read them; a tree emitted before, such
        as the entry of a mirrored slot, adds no statement (`let`)."""
        if isinstance(tree, str):
            return tree
        template, *children = tree
        return self.let(template.format(*map(self.emit, children)))

    def compile(self, outputs: Sequence[str]) -> Callable[[np.ndarray], tuple]:
        """x -> the tuple of the values of `outputs`."""
        body = self.lines + [f"    return ({''.join(out + ', ' for out in outputs)})"]
        env = {f"_f_{name}": _elementwise(fn) for name, fn in _FUNCS.items()}
        env["_f_pow"] = _power
        exec("def program(x):\n" + "\n".join(body), env)  # noqa: S102 - source is built by our own parser
        return env["program"]


class _ExprParser:
    """Recursive-descent parser of one expression, whose text starts after
    column `col_offset` of line `line_no`, into a tree for `_Program.emit`.

    A tree is a numeric literal (a str) or a tuple (template, *children):
    the statement of one `_Program` node, with a `{}` for the value of each
    child.  Evaluating a whole stack of points in one call keeps the cost
    per point far below a python call per point, which matters because the
    FD oracles evaluate metrics at hundreds of points per bundle point.
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
            tree = (f"{{}} {tok[1]} {{}}", tree, self.term())
        return tree

    def term(self):
        tree = self.factor()
        while (tok := self._peek()) is not None and tok[1] in ("*", "/"):
            self._next()
            tree = (f"{{}} {tok[1]} {{}}", tree, self.factor())
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
            tree = (f"_f_pow({{}}, {sign}{nxt[1]})", tree)
        return tree

    def base(self):
        tok = self._next()
        kind, value, col = tok
        if kind == "num":
            return value
        if kind == "op" and value == "-":
            return ("-{}", self.base())
        if kind == "op" and value == "(":
            tree = self.expr()
            self._expect_op(")")
            return tree
        if kind == "name":
            if value in _FUNCS:
                self._expect_op("(")
                tree = self.expr()
                self._expect_op(")")
                return (f"_f_{value}({{}})", tree)
            if value in self.coords:
                return (f"x[..., {self.coords[value]}]",)
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


@dataclass(frozen=True)
class DiffBackend:
    """Central finite differences of order 2 or 4: the one FD rule.

    step may be a scalar or a per-coordinate array; the stencil reaches
    step (order 2) or 2*step (order 4) from the evaluation point.

    The rule has two halves.  `stencil` lays out the points of every
    partial at every point of a stack, and `combine` weighs the values of a
    function there: (f(x+h) - f(x-h)) / 2h, or (-f(x+2h) + 8 f(x+h)
    - 8 f(x-h) + f(x-2h)) / 12h, in that order of operations.  `partials`
    differentiates a function that evaluates stacks with one call on the
    whole stencil; it is the one FD entry point of the package, nested
    derivatives included (`partials` of a field that itself calls
    `partials`), and only `CoframeSweep` calls its two halves directly, to
    put its bundle points in their stencils' stack.  The partials of a form's
    coefficients become its exterior derivative in one place,
    `exterior.d_rows`.  `partial` is the
    one-direction case for a function of one point, evaluated point by
    point; the package does not call it, and it stays as the independent
    per-point reference that tests hold `partials` and the coframe sweeps
    against.
    """
    order: int = 4
    step: float = 1e-3

    def __post_init__(self):
        if self.order not in (2, 4):
            raise ValueError(f"FD order must be 2 or 4, got {self.order}")
        if np.any(np.asarray(self.step) <= 0):
            raise ValueError("FD step must be positive")

    def step_for(self, k: int) -> float:
        s = np.asarray(self.step)
        return float(s if s.ndim == 0 else s[k])

    def reach(self) -> float:
        s = float(np.max(np.asarray(self.step)))
        return 2.0 * s if self.order == 4 else s

    def _steps(self, dirs: Sequence[int], ndim: int) -> np.ndarray:
        return np.array([self.step_for(k) for k in dirs]).reshape((-1,) + (1,) * ndim)

    def stencil(self, x: np.ndarray, dirs: Optional[Sequence[int]] = None) -> np.ndarray:
        """The stencil points of the partials along `dirs` (default: every
        coordinate) at every point of x (..., n): shape (len(dirs), m, ..., n)
        with m = order offsets, ordered x + 2h, x + h, x - h, x - 2h (order 4)
        or x + h, x - h (order 2)."""
        x = np.asarray(x, dtype=float)
        n = x.shape[-1]
        dirs = range(n) if dirs is None else dirs
        e = np.eye(n)[list(dirs)].reshape((-1,) + (1,) * (x.ndim - 1) + (n,))
        h = self._steps(dirs, x.ndim)
        if self.order == 2:
            return np.stack([x + h * e, x - h * e], axis=1)
        return np.stack([x + 2 * h * e, x + h * e, x - h * e, x - 2 * h * e], axis=1)

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

    def with_step(self, step: float) -> "DiffBackend":
        return DiffBackend(order=self.order, step=step)


# points a surface's point memo stores, over all its functions, before it is
# cleared; a two-point report or scan stores fewer than 1 000 per surface and
# verify about 1 150 per built-in, while one ddbar_oracle call on cp2_fs
# stores 4 776 (1.5 MB of rows), which this limit keeps whole.  The largest
# row is a levi_civita point of 4 160 bytes, so a memo holds at most 34 MB
POINT_MEMO_LIMIT = 8192

# held while a batch of results is appended to a table of any surface
_APPEND_LOCK = threading.Lock()


def _freeze(value):
    """Make every array in a result read-only: arrays, tuples and frozen
    dataclasses of them."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, tuple):
        for item in value:
            _freeze(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            _freeze(getattr(value, field.name))
    return value


@functools.lru_cache(maxsize=None)
def _field_names(cls) -> Tuple[str, ...]:
    return tuple(field.name for field in dataclasses.fields(cls))


def _map_arrays(fn, value, *others):
    """fn applied to every array of a result, and to the arrays in the same
    place of `others` (results of the same structure), rebuilding its tuples
    and dataclasses."""
    if isinstance(value, np.ndarray):
        return fn(value, *others)
    if isinstance(value, tuple):
        return tuple(_map_arrays(fn, *items) for items in zip(value, *others))
    return type(value)(**{name: _map_arrays(fn, getattr(value, name),
                                            *(getattr(other, name) for other in others))
                          for name in _field_names(type(value))})


def _take(a: np.ndarray, rows) -> np.ndarray:
    """The rows of a stored array, as a read-only array."""
    out = a[rows]
    out.setflags(write=False)
    return out


class _Table:
    """The stored results of one memoized function with one tuple of params.

    `store` is a read-only result of the function's own structure whose
    arrays hold `size` rows, one per stored point, in the order they were
    computed; `index` maps the 32 bytes of a point to its row; `single`
    keeps the result of each point looked up on its own.  Rows are only
    ever appended, so a row read from `index` is valid in every `store`
    from then on.
    """
    __slots__ = ("index", "store", "size", "single")

    def __init__(self):
        self.index: Dict[bytes, int] = {}
        self.store = None
        self.size = 0
        self.single: Dict[bytes, object] = {}


def _stored(memo: dict) -> int:
    """The number of points stored in a memo, over all its tables."""
    return sum(table.size for table in list(memo.values()))


class PointMemo(dict):
    """The point memo of a surface: one `_Table` per (fn, params).  Its
    length is the number of points stored, over all tables."""

    def __len__(self):
        return _stored(self)


def _evaluate_rows(fn, params: tuple, M, rows: np.ndarray):
    """fn on a stack of points; when that raises, fn on one point at a time,
    so the error is the one a point-by-point evaluation meets first."""
    try:
        return fn(M, rows, *params)
    except Exception:
        if len(rows) > 1:
            for r in range(len(rows)):
                fn(M, rows[r:r + 1], *params)
        raise


def _append(memo: dict, name: tuple, table: _Table, fresh: Dict[bytes, None], batch):
    """Append batch, the results of the points `fresh`, to `table` of memo.

    Returns the table's store with the batch appended and the row of the
    batch's first point in it, which answer the caller whatever is kept.
    The points are stored as if one at a time, the memo being cleared
    whole whenever it holds POINT_MEMO_LIMIT points: when the batch does
    not fit, the memo is cleared and a new table keeps the batch's last
    points.  The store is replaced before the index entries of its new
    rows are published, so a reader that finds a row finds it in the
    store it reads next.
    """
    n = len(fresh)
    with _APPEND_LOCK:
        base = table.size
        store = batch if base == 0 else _map_arrays(lambda a, b: np.concatenate((a, b)),
                                                    table.store, batch)
        total = _stored(memo) + n
        if total <= POINT_MEMO_LIMIT:
            table.store, table.size = store, base + n
            table.index.update(zip(fresh, range(base, base + n)))
        else:
            memo.clear()
            kept = (total - 1) % POINT_MEMO_LIMIT + 1
            tail = memo[name] = _Table()
            tail.store, tail.size = _map_arrays(lambda a: a[n - kept:], batch), kept
            tail.index.update(zip(itertools.islice(fresh, n - kept, None), range(kept)))
    return store, base


def _lookup(M, memo: dict, name: tuple, table: _Table, points: np.ndarray,
            shape: Tuple[int, ...]):
    """The results of fn(M, points, *params), name = (fn, params), over the
    point axes `shape`: one index pass over the table, one call of fn for
    the distinct points it lacks, and one fancy index per result array."""
    keys = points.view("V32").ravel().tolist()     # the 32 bytes of each point
    n = len(keys)
    rows = np.fromiter(map(table.index.get, keys, itertools.repeat(-1, n)), np.intp, n)
    missing = rows < 0
    if missing.any():
        missed = list(itertools.compress(keys, missing.tolist()))
        fresh = dict.fromkeys(missed)
        every = len(fresh) == n
        misses = points if every else np.frombuffer(b"".join(fresh)).reshape(-1, 4).copy()
        batch = _freeze(_evaluate_rows(*name, M, misses))
        store, base = _append(memo, name, table, fresh, batch)
        if every:
            return _map_arrays(lambda a: a.reshape(shape + a.shape[1:]), batch)
        new = dict(zip(fresh, range(base, base + len(fresh))))
        rows[missing] = list(map(new.__getitem__, missed))
    else:
        store = table.store
    rows = rows.reshape(shape)
    return _map_arrays(lambda a: _take(a, rows), store)


def point_memo(fn):
    """Memoize a pure point function fn(M, x, *params) in the memo of M.

    fn is written for a stack of points x of shape (n, 4); the memoized
    function takes one point (4,) or a stack (..., 4) and answers with the
    same point axes, so a single point is the stack of one.  The memo of
    M (`PointMemo`) holds one table per (fn, params): a dict from the bytes
    of a point as float to a row number, and one read-only store with the
    structure of fn's result whose arrays hold the rows.  A call looks up
    every point of its stack in one pass; the distinct points not found,
    duplicates within the stack included, are computed in one call of fn
    and appended to the store as one batch; the answer is one fancy index
    per result array, read-only.  A value is therefore computed once per
    surface and exact point, however many FD stencils reach it, and does
    not depend on the other points of its stack.  A point looked up on its
    own gets the same result object every time.  Exceptions are not
    stored: every check runs until a point has been evaluated
    successfully, and when a stack fails, its points are evaluated one at
    a time so the error is that of the first failing point.  The memo is
    cleared whole when an append would take it past POINT_MEMO_LIMIT
    points.  Threads may share a surface: lookups take no lock, appends
    take `_APPEND_LOCK`, and stores only grow.
    """
    @functools.wraps(fn)
    def memoized(M, x, *params):
        x = np.array(x, dtype=float)        # a private copy
        shape, points = x.shape[:-1], x.reshape(-1, 4)
        memo, name = M._point_memo, (fn, params)
        table = memo.get(name)
        if table is None:
            table = memo[name] = _Table()
        if shape:
            return _lookup(M, memo, name, table, points, shape)
        key = points.tobytes()
        value = table.single.get(key)
        if value is None:
            value = table.single[key] = _map_arrays(lambda a: a[0],
                                                    _lookup(M, memo, name, table, points, (1,)))
        return value
    return memoized


def stack_field(fn):
    """Mark a field callable as evaluating a whole stack of points x (..., 4)
    in one call, giving (..., 4, 4).  Compiled surface descriptions and a
    surface's own `metric` and `J` are stack fields; any other callable is
    evaluated point by point."""
    fn.stacks = True
    return fn


def _field(fn, x: np.ndarray) -> np.ndarray:
    """A (4, 4) field at every point of x (..., 4), as a fresh float array."""
    if getattr(fn, "stacks", False):
        return np.array(fn(x), dtype=float)
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

    Each surface owns a private point memo (`point_memo`): the metric, the
    adapted frame, the coordinate fundamental matrix, the Christoffel
    symbols, the Levi-Civita data, the t-independent tables of the
    canonical family (omega^LC and the J-pushed dF terms) and the D^t
    connection forms are computed once per exact point and stored
    read-only.  This relies on the surface being immutable: its chart,
    metric and J callables and backend must not be replaced after
    construction, and the callables must be pure.  The metric stores its
    own copy, so an array returned by the metric callable is never frozen.
    The memo lives and dies with the surface, is cleared whole when it
    reaches POINT_MEMO_LIMIT points and is safe to share between threads,
    so sampling in parallel is safe.
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
    @point_memo
    def metric(self, x: np.ndarray) -> np.ndarray:
        return _field(self._metric, x)

    @stack_field
    def J(self, x: np.ndarray) -> np.ndarray:
        return _field(self._J, np.asarray(x, dtype=float))

    def _validate_samples(self):
        """Check the invariants at 16 sample points, evaluated as one stack,
        and raise for the first failing point with its first failing check."""
        pts = self.chart.interior_points(16, seed=2024)
        g = self.metric(pts)
        Jm = self.J(pts)
        gT = np.swapaxes(g, 1, 2)

        def close(a, b):    # np.allclose at each point
            return np.all(np.isclose(a, b, atol=1e-10), axis=(1, 2))
        # a metric that is not finite at a point fails the first check and is
        # kept from eigvalsh, which may fail to converge on it for the whole stack
        finite = np.all(np.isfinite(g), axis=(1, 2))
        h = np.where(finite[:, None, None], 0.5 * (g + gT), np.eye(4))
        bad = np.stack([~finite,
                        ~close(g, gT),
                        np.min(np.linalg.eigvalsh(h), axis=1) <= 1e-10,
                        ~close(Jm @ Jm, -np.eye(4)),
                        ~close(np.swapaxes(Jm, 1, 2) @ g @ Jm, g)], axis=1)
        if bad.any():
            k = int(np.argmax(bad.any(axis=1)))
            raise ValueError(f"surface invariant violation at sample point {pts[k].tolist()}: "
                             f"{_INVARIANTS[int(np.argmax(bad[k]))]}")


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
    names = [program.emit(tree) for tree in entries.values()]
    run = program.compile(names)
    slots = [(i - 1, j - 1) for i, j in entries]

    @stack_field
    def field(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.array(np.broadcast_to(fill, x.shape[:-1] + (4, 4)))
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


@point_memo
def adapted_basis(M: HermitianSurface, x: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt construction of a J-adapted orthonormal frame:
    the matrix E (n, 4, 4) whose columns e_1..e_4 are its vectors at each
    point of an (n, 4) stack x.

    e1 = normalize(seed1), e2 = J e1,
    e3 = normalize(seed2 - h-projections onto e1, e2), e4 = J e3,
    with (seed1, seed2) = DEFAULT_SEEDS; this defines a smooth frame field
    wherever the construction stays nondegenerate.  The FD passes that
    differentiate the frame field read this table alone.

    `point_memo` serves one point or any stack.  Each degeneracy check
    raises DegenerateFrameError for the first failing point.
    """
    s1, s2 = DEFAULT_SEEDS
    g = M.metric(x)
    Jm = M.J(x)

    def dot(a, b):      # h(a, b) at every point; a and b are (4,) or (n, 4)
        a = np.broadcast_to(a, x.shape)[:, None, :]
        b = np.broadcast_to(b, x.shape)[:, :, None]
        return (a @ g @ b)[:, 0, 0]

    n1 = dot(s1, s1)
    _raise_at_first(n1 < 1e-16, x, DegenerateFrameError)
    e1 = s1 / np.sqrt(n1)[:, None]
    e2 = (Jm @ e1[:, :, None])[:, :, 0]
    r = s2 - dot(s2, e1)[:, None] * e1 - dot(s2, e2)[:, None] * e2
    rn = dot(r, r)
    small = rn < 1e-16
    _raise_at_first(small | (np.sqrt(np.where(small, 1.0, rn)) < 1e-8), x, DegenerateFrameError)
    e3 = r / np.sqrt(rn)[:, None]
    e4 = (Jm @ e3[:, :, None])[:, :, 0]
    return np.stack([e1, e2, e3, e4], axis=-1)


@point_memo
def adapted_frame(M: HermitianSurface, x: np.ndarray) -> UnitaryFrame:
    """The J-adapted orthonormal frame E of `adapted_basis` with its duals:
    theta = E^{-1}, U and eta, at an (n, 4) stack of points x; `point_memo`
    serves one point or any stack, and a point without frame raises the
    DegenerateFrameError of `adapted_basis`.
    """
    E = adapted_basis(M, x)
    e1, e2, e3, e4 = np.moveaxis(E, -1, 0)
    theta = np.linalg.inv(E)
    U = np.stack([(e1 - 1j * e2) / math.sqrt(2.0), (e3 - 1j * e4) / math.sqrt(2.0)], axis=-1)
    eta = np.stack([(theta[:, 0] + 1j * theta[:, 1]) / math.sqrt(2.0),
                    (theta[:, 2] + 1j * theta[:, 3]) / math.sqrt(2.0)], axis=1)
    return UnitaryFrame(point=x, E=E, theta=theta, U=U, eta=eta)


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


# ======================================================================
# fundamental form, dF, Lee form
# ======================================================================

def fundamental_form(M: HermitianSurface, x: np.ndarray, frame: UnitaryFrame) -> ComplexForm:
    """F = h(J., .) expressed in the adapted coframe: theta^1^theta^2 + theta^3^theta^4."""
    if not np.allclose(frame.point, np.asarray(x, dtype=float)):
        raise ValueError("frame was built at a different point")
    return ComplexForm(4, 2, {(0, 1): 1.0, (2, 3): 1.0})


@point_memo
def coordinate_fundamental_matrix(M: HermitianSurface, x: np.ndarray) -> np.ndarray:
    """Components F_{mu nu} = F(d_mu, d_nu) = (J^T g)_{mu nu} in chart coordinates,
    at an (n, 4) stack of points."""
    g = M.metric(x)
    Jm = M.J(x)
    return np.swapaxes(Jm, 1, 2) @ g


def _check_stencil_inside(M: HermitianSurface, x: np.ndarray):
    _raise_at_first(np.asarray(M.chart.margin_to_boundary(x) < M.backend.reach()), x,
                    lambda point: ValueError(f"point too close to boundary for FD stencil: {point}"))


def dF_array(M: HermitianSurface, x: np.ndarray) -> np.ndarray:
    """dF at a point or a stack of points x (..., 4), by FD of F's components:
    the full antisymmetric array dF[..., a, b, c] = dF(d_a, d_b, d_c).

    The slot coefficients come from `d_rows`; those below ZERO_EPS are set
    to 0, as in a ComplexForm, and one that is not finite stays.
    """
    x = np.asarray(x, dtype=float)
    _check_stencil_inside(M, x)
    dF = M.backend.partials(lambda p: coordinate_fundamental_matrix(M, p), x)   # [..., k] = d_k F
    v = d_rows(dF[(...,) + np.triu_indices(4, 1)], 4, 2).real
    return antisymmetric_array(np.where(np.abs(v) < ZERO_EPS, 0.0, v), 4, 3)


def dF_form(M: HermitianSurface, x: np.ndarray) -> ComplexForm:
    """dF as a 3-form over the coordinate coframe, by FD of F's components."""
    A = dF_array(M, x)
    return ComplexForm(4, 3, {key: A[key] for key in itertools.combinations(range(4), 3)})


def lee_components(M: HermitianSurface, x: np.ndarray, E: np.ndarray) -> np.ndarray:
    """The Lee form's components over the adapted coframe, at a point or a
    stack of points x (..., 4) with frames E (..., 4, 4): (..., 4).

    Uses delta = -*d* on 2-forms and *F = F, so the Lee form is the J-image of
    -*dF with no nested differentiation; dF of the whole stack comes from one
    `dF_array`.
    """
    # dF over the adapted coframe: dx^mu = sum_i E[mu, i] theta^i
    dF = push_slots(dF_array(M, x), E, (0, 1, 2))
    # -*dF, with *(theta^a ^ theta^b ^ theta^c) = sign(a, b, c, d) theta^d
    b = np.stack([dF[..., 1, 2, 3], -dF[..., 0, 2, 3], dF[..., 0, 1, 3], -dF[..., 0, 1, 2]], axis=-1)
    # (J beta)(X) = -beta(JX); in the adapted frame J maps e1->e2, e3->e4
    return np.stack([-b[..., 1], b[..., 0], -b[..., 3], b[..., 2]], axis=-1)


def lee_form(M: HermitianSurface, x: np.ndarray, frame: Optional[UnitaryFrame] = None) -> ComplexForm:
    """The Lee form of (M, J, h) at x, over the adapted coframe of `frame`:
    the 1-form (theta basis) of `lee_components`."""
    x = np.asarray(x, dtype=float)
    if frame is None:
        frame = adapted_frame(M, x)
    alpha = lee_components(M, x, frame.E)
    return ComplexForm(4, 1, {(i,): alpha[i] for i in range(4)})
