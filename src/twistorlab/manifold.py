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
import math
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from twistorlab.exterior import ComplexForm, hodge_star_4, substitute

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


class _ExprParser:
    """Recursive-descent parser producing a compiled python expression string.

    Compiling straight to source (evaluated once into a closure) keeps the
    per-point cost of metric evaluation down to a plain function call, which
    matters because the FD oracles evaluate metrics tens of thousands of times.
    """

    def __init__(self, tokens: List[Tuple[str, str, int]], coords: Sequence[str], line_no: int):
        self.toks = tokens
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

    def parse(self) -> str:
        src = self.expr()
        if self._peek() is not None:
            tok = self._peek()
            raise SpecSyntaxError(f"trailing input {tok[1]!r}", self.line_no, tok[2])
        return src

    def expr(self) -> str:
        src = self.term()
        while (tok := self._peek()) is not None and tok[1] in ("+", "-"):
            self._next()
            src = f"({src} {tok[1]} {self.term()})"
        return src

    def term(self) -> str:
        src = self.factor()
        while (tok := self._peek()) is not None and tok[1] in ("*", "/"):
            self._next()
            src = f"({src} {tok[1]} {self.factor()})"
        return src

    def factor(self) -> str:
        src = self.base()
        if (tok := self._peek()) is not None and tok[1] == "^":
            self._next()
            sign = ""
            nxt = self._next()
            if nxt[0] == "op" and nxt[1] == "-":
                sign = "-"
                nxt = self._next()
            if nxt[0] != "num" or any(ch in nxt[1] for ch in ".eE"):
                raise SpecSyntaxError("exponent must be an integer", self.line_no, nxt[2])
            src = f"({src} ** {sign}{nxt[1]})"
        return src

    def base(self) -> str:
        tok = self._next()
        kind, value, col = tok
        if kind == "num":
            return value
        if kind == "op" and value == "-":
            return f"(-{self.base()})"
        if kind == "op" and value == "(":
            src = self.expr()
            self._expect_op(")")
            return f"({src})"
        if kind == "name":
            if value in _FUNCS:
                self._expect_op("(")
                src = self.expr()
                self._expect_op(")")
                return f"_f_{value}({src})"
            if value in self.coords:
                return f"x[{self.coords[value]}]"
            raise SpecSyntaxError(f"unknown name {value!r}", self.line_no, col)
        raise SpecSyntaxError(f"unexpected token {value!r}", self.line_no, col)


def _compile_expr(text: str, coords: Sequence[str], line_no: int, col_offset: int) -> Callable[[np.ndarray], float]:
    tokens = _tokenize_expr(text, line_no, col_offset)
    if not tokens:
        raise SpecSyntaxError("empty expression", line_no, col_offset + 1)
    src = _ExprParser(tokens, coords, line_no).parse()
    env = {f"_f_{name}": fn for name, fn in _FUNCS.items()}
    return eval(f"lambda x: {src}", env)  # noqa: S307 - source is built by our own parser


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
        assert box.shape == (4, 2), f"domain box must be 4x2, got {box.shape}"
        if not np.all(box[:, 1] > box[:, 0]):
            raise ValueError("chart domain has empty interior")

    def margin_to_boundary(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(min(np.min(x - self.box[:, 0]), np.min(self.box[:, 1] - x)))

    def contains(self, x: np.ndarray, margin: float = 0.0) -> bool:
        return self.margin_to_boundary(x) >= margin

    def interior_points(self, n: int, seed: int, margin_frac: float = 0.08) -> np.ndarray:
        """Deterministic Latin-hypercube sample of n interior points."""
        rng = np.random.default_rng(seed)
        lo = self.box[:, 0]
        w = self.box[:, 1] - self.box[:, 0]
        lo_eff = lo + margin_frac * w
        w_eff = (1.0 - 2.0 * margin_frac) * w
        pts = np.empty((n, 4))
        for k in range(4):
            strata = (rng.permutation(n) + 0.5) / n
            pts[:, k] = lo_eff[k] + strata * w_eff[k]
        return pts


@dataclass(frozen=True)
class DiffBackend:
    """Central finite differences of order 2 or 4.

    step may be a scalar or a per-coordinate array; the stencil reaches
    step (order 2) or 2*step (order 4) from the evaluation point.
    """
    order: int = 4
    step: float = 1e-3
    scheme: str = "central"

    def __post_init__(self):
        if self.scheme != "central":
            raise ValueError(f"unsupported scheme {self.scheme!r}")
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

    def partial(self, f: Callable[[np.ndarray], np.ndarray], x: np.ndarray, k: int):
        """d f / d x_k at x, for scalar- or array-valued f."""
        x = np.asarray(x, dtype=float)
        h = self.step_for(k)
        ek = np.zeros_like(x)
        ek[k] = 1.0
        if self.order == 2:
            return (f(x + h * ek) - f(x - h * ek)) / (2.0 * h)
        return (-f(x + 2 * h * ek) + 8.0 * f(x + h * ek)
                - 8.0 * f(x - h * ek) + f(x - 2 * h * ek)) / (12.0 * h)

    def with_step(self, step: float) -> "DiffBackend":
        return DiffBackend(order=self.order, step=step, scheme=self.scheme)


# entries a surface's point memo holds before it is cleared; a two-point
# report, scan or verify oracle job leaves fewer than 900 on its surface
POINT_MEMO_LIMIT = 4096


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


def point_memo(fn):
    """Memoize a pure point function fn(M, x, *params) in the memo of M.

    The key is (fn, the bytes of x as float, params), so a value is computed
    once per surface and exact point, however many FD stencils reach it.
    The first call computes it with the same operations in the same order
    as an unmemoized call; the stored result is made read-only and later
    calls return it as is.  Exceptions are not stored, so every check runs
    until a point has been evaluated successfully.  A call with a keyword
    option that is not None (explicit `seeds`, a supplied `lc`) bypasses
    the memo.  The memo is only read with `get`, written by item assignment
    and cleared whole when it reaches POINT_MEMO_LIMIT entries; it is never
    iterated, so threads may share a surface.
    """
    @functools.wraps(fn)
    def memoized(M, x, *params, **options):
        if any(v is not None for v in options.values()):
            return fn(M, x, *params, **options)
        x = np.array(x, dtype=float)
        key = (fn, x.tobytes(), *params)
        memo = M._point_memo
        value = memo.get(key)
        if value is None:
            value = _freeze(fn(M, x, *params))
            if len(memo) >= POINT_MEMO_LIMIT:
                memo.clear()
            memo[key] = value
        return value
    return memoized


class HermitianSurface:
    """A Hermitian surface on a chart: metric field + complex-structure field.

    Construction validates the Hermitian-surface invariants on a
    deterministic 16-point Latin-hypercube sample and raises with the
    offending point and check on failure.

    Each surface owns a private point memo (`point_memo`): the metric, the
    adapted frame, the coordinate fundamental matrix, the Christoffel
    symbols and the D^t connection forms are computed once per exact point
    and stored read-only.  This relies on the surface being immutable: its
    chart, metric and J callables and backend must not be replaced after
    construction, and the callables must be pure.  The metric stores its own
    copy, so an array returned by the metric callable is never frozen.  The
    memo lives and dies with the surface, is cleared whole when it reaches
    POINT_MEMO_LIMIT entries and is safe to share between threads, so
    sampling in parallel is safe.
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
        self._point_memo: Dict[tuple, object] = {}
        self._validate_samples()

    @point_memo
    def metric(self, x: np.ndarray) -> np.ndarray:
        return np.array(self._metric(x), dtype=float)

    def J(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self._J(np.asarray(x, dtype=float)), dtype=float)

    def _validate_samples(self, n: int = 16, tol: float = 1e-10):
        pts = self.chart.interior_points(n, seed=2024)
        for pt in pts:
            g = self.metric(pt)
            Jm = self.J(pt)
            if not np.allclose(g, g.T, atol=tol):
                raise ValueError(f"surface invariant violation at sample point {pt.tolist()}: metric not symmetric")
            if np.min(np.linalg.eigvalsh(0.5 * (g + g.T))) <= 1e-10:
                raise ValueError(f"surface invariant violation at sample point {pt.tolist()}: metric not positive-definite")
            if not np.allclose(Jm @ Jm, -np.eye(4), atol=tol):
                raise ValueError(f"surface invariant violation at sample point {pt.tolist()}: J*J != -Id")
            if not np.allclose(Jm.T @ g @ Jm, g, atol=tol):
                raise ValueError(f"surface invariant violation at sample point {pt.tolist()}: metric not J-invariant")


# ======================================================================
# parsing surface descriptions
# ======================================================================

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
    g_exprs: Dict[Tuple[int, int], Callable] = {}
    j_exprs: Dict[Tuple[int, int], Callable] = {}
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
            fn = _compile_expr(line[eq + 1:], coords, line_no, eq + 1)
            target = g_exprs if head == "g" else j_exprs
            if (i, j) in target:
                raise SpecSyntaxError(f"duplicate entry {head} {i} {j}", line_no, indent + 1)
            target[(i, j)] = fn
            continue

        raise SpecSyntaxError(f"unknown directive {head!r}", line_no, indent + 1)

    if coords is None:
        raise SpecSyntaxError("missing coords line", max(len(lines), 1), 1)

    box = np.array([domains.get(c, (-1.0, 1.0)) for c in coords])
    chart = ChartSpec(names=coords, box=box)

    def metric_fn(x: np.ndarray, _entries=g_exprs) -> np.ndarray:
        g = np.empty((4, 4))
        for i in range(1, 5):
            for j in range(1, 5):
                if (i, j) in _entries:
                    g[i - 1, j - 1] = _entries[(i, j)](x)
                elif (j, i) in _entries:
                    g[i - 1, j - 1] = _entries[(j, i)](x)
                else:
                    g[i - 1, j - 1] = 1.0 if i == j else 0.0
        return g

    if j_exprs and j_standard:
        raise SpecSyntaxError("both 'J standard' and explicit J entries given", len(lines), 1)

    if j_exprs:
        def j_fn(x: np.ndarray, _entries=j_exprs) -> np.ndarray:
            Jm = np.zeros((4, 4))
            for (i, j), fn in _entries.items():
                Jm[i - 1, j - 1] = fn(x)
            return Jm
    else:
        def j_fn(x: np.ndarray) -> np.ndarray:
            return J_STANDARD

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
    dual (1,0)-coframe.
    """
    point: np.ndarray
    E: np.ndarray        # (4, 4) real, columns e_1..e_4
    theta: np.ndarray    # (4, 4) real, rows theta^1..theta^4
    U: np.ndarray        # (4, 2) complex, columns u_1, u_2
    eta: np.ndarray      # (2, 4) complex, rows eta^1, eta^2


@point_memo
def adapted_frame(M: HermitianSurface, x: np.ndarray,
                  seeds: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> UnitaryFrame:
    """Modified Gram-Schmidt construction of a J-adapted orthonormal frame.

    e1 = normalize(seed1), e2 = J e1,
    e3 = normalize(seed2 - h-projections onto e1, e2), e4 = J e3.
    Deterministic given the seeds; with the default seeds this defines a
    smooth frame field wherever the construction stays nondegenerate.
    """
    x = np.asarray(x, dtype=float)
    s1, s2 = seeds if seeds is not None else DEFAULT_SEEDS
    g = M.metric(x)
    Jm = M.J(x)

    def dot(a, b):
        return float(a @ g @ b)

    n1 = dot(s1, s1)
    if n1 < 1e-16:
        raise ValueError(f"seed degenerate at point {x.tolist()}")
    e1 = s1 / math.sqrt(n1)
    e2 = Jm @ e1
    r = s2 - dot(s2, e1) * e1 - dot(s2, e2) * e2
    rn = dot(r, r)
    if rn < 1e-16 or math.sqrt(rn) < 1e-8:
        raise ValueError(f"seed degenerate at point {x.tolist()}")
    e3 = r / math.sqrt(rn)
    e4 = Jm @ e3

    E = np.column_stack([e1, e2, e3, e4])
    theta = np.linalg.inv(E)
    U = np.column_stack([(e1 - 1j * e2) / math.sqrt(2.0), (e3 - 1j * e4) / math.sqrt(2.0)])
    eta = np.vstack([(theta[0] + 1j * theta[1]) / math.sqrt(2.0),
                     (theta[2] + 1j * theta[3]) / math.sqrt(2.0)])
    return UnitaryFrame(point=x, E=E, theta=theta, U=U, eta=eta)


def frame_field(M: HermitianSurface,
                seeds: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> Callable[[np.ndarray], UnitaryFrame]:
    """The frame as a function of the point, with seeds held fixed so that
    finite differences of the field are well defined."""
    def field(x: np.ndarray) -> UnitaryFrame:
        return adapted_frame(M, x, seeds=seeds)
    return field


# ======================================================================
# fundamental form, dF, Lee form
# ======================================================================

def fundamental_form(M: HermitianSurface, x: np.ndarray, frame: UnitaryFrame) -> ComplexForm:
    """F = h(J., .) expressed in the adapted coframe: theta^1^theta^2 + theta^3^theta^4."""
    assert np.allclose(frame.point, np.asarray(x, dtype=float)), "frame was built at a different point"
    return ComplexForm(4, 2, {(0, 1): 1.0, (2, 3): 1.0})


@point_memo
def coordinate_fundamental_matrix(M: HermitianSurface, x: np.ndarray) -> np.ndarray:
    """Components F_{mu nu} = F(d_mu, d_nu) = (J^T g)_{mu nu} in chart coordinates."""
    g = M.metric(x)
    Jm = M.J(x)
    return Jm.T @ g


def _check_stencil_inside(M: HermitianSurface, x: np.ndarray, factor: float = 1.0):
    if M.chart.margin_to_boundary(np.asarray(x, dtype=float)) < factor * M.backend.reach():
        raise ValueError(f"point too close to boundary for FD stencil: {np.asarray(x).tolist()}")


def dF_form(M: HermitianSurface, x: np.ndarray) -> ComplexForm:
    """dF as a 3-form over the coordinate coframe, by FD of F's components."""
    x = np.asarray(x, dtype=float)
    _check_stencil_inside(M, x)
    raw: Dict[Tuple[int, ...], complex] = {}
    for k in range(4):
        dFk = M.backend.partial(lambda p: coordinate_fundamental_matrix(M, p), x, k)
        for mu in range(4):
            for nu in range(mu + 1, 4):
                raw[(k, mu, nu)] = dFk[mu, nu]
    # the ComplexForm constructor canonicalizes and merges the raw triples
    return ComplexForm(4, 3, raw)


def lee_form(M: HermitianSurface, x: np.ndarray, frame: Optional[UnitaryFrame] = None) -> ComplexForm:
    """The Lee form of (M, J, h) at x, over the adapted coframe of `frame`.

    Uses delta = -*d* on 2-forms and *F = F, so the Lee form is the J-image of
    -*dF with no nested differentiation.

    Returns:
        A 1-form over the adapted coframe (theta basis).
    """
    x = np.asarray(x, dtype=float)
    if frame is None:
        frame = adapted_frame(M, x)
    dF_coord = dF_form(M, x)
    # rewrite in the adapted coframe: dx^mu = sum_i E[mu, i] theta^i
    dF_theta = substitute(dF_coord, frame.E)
    delta_F = -1.0 * hodge_star_4(dF_theta)   # 1-form, theta components
    b = [delta_F.terms.get((i,), 0.0) for i in range(4)]
    # (J beta)(X) = -beta(JX); in the adapted frame J maps e1->e2, e3->e4
    alpha = {(0,): -b[1], (1,): b[0], (2,): -b[3], (3,): b[2]}
    return ComplexForm(4, 1, alpha)
