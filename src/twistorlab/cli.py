"""Command-line front end: condition reports, verification suites, parameter
scans, and the exact flag-manifold table.

Exit codes: 0 success; 1 verification failures; 2 bad flags or unreadable
input; 3 surface invariant violation (the offending check is named), or a
degenerate frame or coframe or an undefined metric at an evaluated point
(the point is named).

Reports are emitted as versioned JSON (``schema: 1``) with every float
printed to 17 significant digits, or as aligned text tables.  File output is
written to a temporary file and renamed, so a crashed run never leaves a
truncated report behind.  ``TWISTORLAB_THREADS`` is checked (a positive
integer, else exit 2) but starts no pool: ``verify`` runs its oracle suite
as one stacked pass per connection over the four built-in surfaces, each
surface a segment of one coframe sweep and one formula coframe, checks the
curvature symmetries of its algebra suite at those same sample points, and
reads the (i, lambda) displays of its appendix suite from stacked weight
rows.
"""

import argparse
import json
import math
import os
import sys
import tempfile
import warnings
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import __version__
from .connection import levi_civita
from .exterior import ComplexForm, cut, hodge_star_4, norms, sd_asd_split, wedge, weighted_sum
from .flag import (FlagDisplays, appendix_table, d_matrix, flag_bidegree_part, flag_dK,
                   flag_ddbar, integrability_obstruction, scale_free_residuals)
from .manifold import (BUILTIN_NAMES, DegenerateFrameError, HermitianSurface, MetricEvaluationError,
                       SpecSyntaxError, _frame_fields, builtin, parse_surface_spec, replay)
from .twistor import (LAMBDA_MIN, CoframeSweep, DegenerateCoframeError, TwistorCoframe,
                      condition_report, lambda_weights, lambda_zero_crossing,
                      normalize_connection, sample_twistor_points)

__all__ = ["main", "build_parser"]

_CONNECTION_CHOICES = ("lichnerowicz", "chern", "bismut", "gauduchon")

# the largest fiber scale accepted: the K ^ dK coefficients carry lambda^4
# and their norms square them, so lambda^8 = 1e240 leaves the surface's own
# coefficients 1e68 of double range before a defect overflows to inf or NaN
_LAMBDA_MAX = 1e30


# ======================================================================
# serialization
# ======================================================================

def _format_float(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError("non-finite number in report")
    return format(float(v), ".17g")


_quote = json.encoder.encode_basestring_ascii     # the bytes of json.dumps(str)


def _bulk_text(items: list, pad: str) -> Optional[str]:
    """A list of plain floats, or of dicts with the same str keys and a plain
    int or float column under each key (scan's rows), printed with one
    %-format, as format(v, ".17g") and str(v) would print each; or None."""
    kinds = set(map(type, items))
    keys = tuple(items[0]) if kinds == {dict} else ()
    if kinds != {float} and not (keys and set(map(tuple, items)) == {keys}):
        return None
    values = [v for row in items for v in row.values()] if keys else items
    columns = [values[k::len(keys) or 1] for k in range(len(keys) or 1)]
    types = [set(map(type, column)) for column in columns]
    if not set(map(type, keys)) <= {str} or any(t != {int} and t != {float} for t in types):
        return None
    if not all(all(map(math.isfinite, column)) for column, t in zip(columns, types) if t == {float}):
        raise ValueError("non-finite number in report")
    item = ",\n".join(pad + "    " + _quote(key).replace("%", "%%") + ": " + ("%d" if t == {int} else "%.17g")
                      for key, t in zip(keys, types))
    item = "{\n" + item + "\n" + pad + "  }" if keys else "%.17g"
    return ("[\n" + ",\n".join([pad + "  " + item] * len(items)) + "\n" + pad + "]") % tuple(values)


def _json_text(obj, pad: str) -> str:
    # hand-rolled so floats carry 17 significant digits; the stdlib encoder
    # always uses shortest-roundtrip repr and offers no hook to change it.
    # Every container is one join of its items, which are indented by pad + "  "
    kind = type(obj)
    if kind is float:
        return _format_float(obj)
    if kind is str:
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return _quote(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        bulk = _bulk_text(obj, pad)
        if bulk is not None:
            return bulk
        items = [_json_text(item, inner) for item in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_quote(str(key)) + ": " + _json_text(value, inner) for key, value in obj.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dump_json(obj) -> str:
    return _json_text(obj, "") + "\n"


def write_output(text: str, out_path: Optional[str]) -> None:
    """Print to stdout, or write atomically (temp file + rename)."""
    if out_path is None:
        sys.stdout.write(text)
        return
    target = os.path.abspath(out_path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target),
                               prefix=".twistorlab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _envelope(command: str, payload: Dict[str, object]) -> Dict[str, object]:
    doc: Dict[str, object] = {"schema": 1, "tool": "twistorlab",
                              "version": __version__, "command": command}
    doc.update(payload)
    return doc


# ======================================================================
# shared option handling
# ======================================================================

def thread_cap() -> int:
    raw = os.environ.get("TWISTORLAB_THREADS", "").strip()
    if not raw:
        return 1
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        print("twistorlab: TWISTORLAB_THREADS must be a positive integer",
              file=sys.stderr)
        raise SystemExit(2)
    return cap


def _parse_params(raw: Optional[str], parser: argparse.ArgumentParser) -> Dict[str, float]:
    params: Dict[str, float] = {}
    if not raw:
        return params
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            parser.error(f"--params entries must look like key=value, got {piece!r}")
        key, _, value = piece.partition("=")
        try:
            number = float(value)
        except ValueError:
            parser.error(f"--params value for {key.strip()!r} is not a number: {value!r}")
        if not math.isfinite(number):
            parser.error(f"--params value for {key.strip()!r} must be finite, got {value!r}")
        params[key.strip()] = number
    return params


def load_surface(args, parser: argparse.ArgumentParser) -> HermitianSurface:
    params = _parse_params(getattr(args, "params", None), parser)
    name = args.surface
    try:
        if name in BUILTIN_NAMES:
            return builtin(name, **params)
        if os.path.exists(name):
            with open(name) as fh:
                text = fh.read()
            stem = os.path.splitext(os.path.basename(name))[0]
            return parse_surface_spec(text, name=stem, params=params or None)
        parser.error(f"unknown surface {name!r}: not a builtin "
                     f"({', '.join(BUILTIN_NAMES)}) and no such file")
    except SpecSyntaxError as exc:
        parser.error(f"surface description: {exc}")
    except ValueError as exc:
        if "surface invariant violation" in str(exc):
            print(f"twistorlab: {exc}", file=sys.stderr)
            raise SystemExit(3)
        parser.error(str(exc))
    raise AssertionError("unreachable")


def check_numbers(args, parser: argparse.ArgumentParser) -> None:
    """Reject sample counts below 1, negative seeds, non-finite fiber scales
    and family parameters, fiber scales above _LAMBDA_MAX, and non-positive
    or non-finite tolerances; every test is written so that NaN fails it."""
    points = getattr(args, "points", None)
    if points is not None and not points >= 1:
        parser.error(f"--points must be at least 1, got {points}")
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        parser.error(f"--seed must be non-negative, got {seed}")
    scales = [("--lambda", v) for v in getattr(args, "lam", None) or []]
    scales += [(f"--lambda{n}", getattr(args, f"lambda{n}", None)) for n in (1, 2, 3)]
    for flag, v in scales + [("--t", getattr(args, "t", None))]:
        if v is not None and not math.isfinite(v):
            parser.error(f"{flag} must be a finite number, got {v}")
    for flag, v in scales:
        if v is not None and v > _LAMBDA_MAX:
            parser.error(f"{flag} {v:g} is above the fiber-scale ceiling {_LAMBDA_MAX:g}")
    for flag, dest in (("--tol", "tol"), ("--nijenhuis-tol", "nijenhuis_tol")):
        v = getattr(args, dest, None)
        if v is not None and not (v > 0.0 and math.isfinite(v)):
            parser.error(f"{flag} must be a positive finite number, got {v}")


def resolve_connection(args, parser: argparse.ArgumentParser) -> Union[str, float]:
    if args.connection == "gauduchon":
        if args.t is None:
            parser.error("--connection gauduchon requires --t")
        return float(args.t)
    if args.t is not None:
        parser.error("--t applies only to --connection gauduchon")
    return args.connection


def _lambda_args(args, parser: argparse.ArgumentParser,
                 default: Optional[float] = None):
    """Scalar λ list from --lambda plus an optional (λ1, λ2, λ3) triple."""
    triple_bits = (args.lambda1, args.lambda2, args.lambda3)
    triple: Optional[Tuple[float, float, float]] = None
    if any(v is not None for v in triple_bits):
        if any(v is None for v in triple_bits):
            parser.error("--lambda1, --lambda2, --lambda3 must be given together")
        triple = tuple(float(v) for v in triple_bits)
    scalars = [float(v) for v in (args.lam or [])]
    if not scalars and triple is None and default is not None:
        scalars = [default]
    for v in scalars + list(triple or ()):
        if not v > LAMBDA_MIN:
            parser.error(f"metric parameter {v:g} is below the positivity floor {LAMBDA_MIN:g}")
    return scalars, triple


# ======================================================================
# report
# ======================================================================

def cmd_report(args, parser: argparse.ArgumentParser) -> int:
    M = load_surface(args, parser)
    conn = resolve_connection(args, parser)
    scalars, triple = _lambda_args(args, parser, default=1.0)
    points = sample_twistor_points(M, args.points, seed=args.seed)

    rep = condition_report(M, conn, scalars + ([] if triple is None else [triple]), points,
                           tol=args.tol, nijenhuis_tol=args.nijenhuis_tol)
    payload: Dict[str, object] = {"seed": args.seed}
    payload.update(rep.as_dict())
    if scalars:
        payload["summary"] = {
            "symplectic": [[r.i, r.lam] for r in rep.rows if r.symplectic],
            "balanced": [[r.i, r.lam] for r in rep.rows if r.balanced],
            "integrable": sorted({r.i for r in rep.rows if r.integrable}),
        }
    else:       # a triple alone reports its rows under the header only
        for key in ("lambda_grid", "points", "rows", "base_flags", "zero_crossings"):
            del payload[key]

    doc = _envelope("report", payload)
    if args.format == "json":
        write_output(dump_json(doc), args.out)
    else:
        write_output(_render_report_text(doc), args.out)
    return 0


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _render_report_text(doc: Dict[str, object]) -> str:
    lines = [f"twistorlab report  surface={doc['surface']} params={doc.get('params', {})}"
             f" connection={doc['connection']} t={doc['t']:g}",
             f"seed={doc.get('seed')} tolerance={doc['tolerance']:g}"
             f" nijenhuis_tolerance={doc['nijenhuis_tolerance']:g}"]
    flags = doc.get("base_flags") or []
    if flags:
        lines.append("base conditions (worst defect over sample points):")
        for key in ("self_dual", "anti_self_dual", "einstein", "kahler", "ricci_J_invariant"):
            worst = max(f[key]["defect"] for f in flags)
            holds = all(f[key]["holds"] for f in flags)
            lines.append(f"  {key:<18} {_yes(holds):<4} defect {worst:.3e}")
        s_vals = [f["scalar_curvature"] for f in flags]
        lines.append(f"  scalar curvature   {min(s_vals):.6g} .. {max(s_vals):.6g}")
    rows = doc.get("rows") or []
    if rows:
        lines.append("conditions per (structure, parameter):")
        lines.append("  i  lambda      symplectic          balanced            "
                     "integrable          formula-resid")
        for r in rows:
            fr = r["formula_residual"]
            lines.append(
                f"  {r['i']}  {r['lambda']:<10.6g}"
                f"  {_yes(r['symplectic']['holds']):<4}{r['symplectic']['defect']:<12.3e}"
                f"    {_yes(r['balanced']['holds']):<4}{r['balanced']['defect']:<12.3e}"
                f"    {_yes(r['integrable']['holds']):<4}{r['integrable']['defect']:<12.3e}"
                f"    {'-' if fr is None else format(fr, '.3e')}")
    for r in doc.get("triple_rows") or []:
        lam = ", ".join(f"{v:g}" for v in r["lambdas"])
        fr = r["formula_residual"]
        lines.append(f"  i={r['i']} ({lam}): symplectic {_yes(r['symplectic']['holds'])}"
                     f" ({r['symplectic']['defect']:.3e})"
                     f"  balanced {_yes(r['balanced']['holds'])}"
                     f" ({r['balanced']['defect']:.3e})"
                     f"  formula-resid {'-' if fr is None else format(fr, '.3e')}")
    summary = doc.get("summary")
    if summary:
        sym = summary["symplectic"]
        sym_txt = ", ".join(f"i={i} lambda={lam:g}" for i, lam in sym) or "none"
        lines.append(f"symplectic rows: {sym_txt}")
        lines.append(f"integrable structures: "
                     f"{', '.join(str(i) for i in summary['integrable']) or 'none'}")
    return "\n".join(lines) + "\n"


# ======================================================================
# scan
# ======================================================================

def cmd_scan(args, parser: argparse.ArgumentParser) -> int:
    M = load_surface(args, parser)
    conn = resolve_connection(args, parser)

    grid: List[float] = [float(v) for v in (args.lam or [])]
    if args.lambda_range:
        try:
            lo_s, _, hi_s = args.lambda_range.partition(":")
            lo, hi = float(lo_s), float(hi_s)
        except ValueError:
            parser.error(f"--lambda-range must look like LO:HI, got {args.lambda_range!r}")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            parser.error(f"--lambda-range bounds must be finite, got {args.lambda_range!r}")
        if hi > _LAMBDA_MAX:
            parser.error(f"--lambda-range bound {hi:g} is above the fiber-scale ceiling {_LAMBDA_MAX:g}")
        if not lo < hi:
            parser.error("--lambda-range bounds must satisfy LO < HI")
        if args.grid < 2:
            parser.error("--grid must be at least 2")
        grid.extend(np.linspace(lo, hi, args.grid).tolist())
    if not grid:
        parser.error("empty grid: give --lambda values and/or --lambda-range")
    grid = sorted(set(grid))
    if not grid[0] > LAMBDA_MIN:
        parser.error(f"grid value {grid[0]:g} is below the positivity floor {LAMBDA_MIN:g}")

    structures = [args.i] if args.i else [1, 2, 3, 4]
    points = sample_twistor_points(M, args.points, seed=args.seed)
    sw = CoframeSweep.stack(M, conn, points)

    # the defects of every (i, lambda) row at every point from one weighted sum
    pairs = [(i, lam) for i in structures for lam in grid]
    dK, KdK = sw.defect_rows(lambda_weights(pairs))
    sym, bal = norms(dK).max(axis=0), norms(KdK).max(axis=0)
    rows = [{"i": i, "lambda": lam, "symplectic_defect": s, "balanced_defect": b}
            for (i, lam), s, b in zip(pairs, sym.tolist(), bal.tolist())]

    u_lo, u_hi = grid[0] ** 2, grid[-1] ** 2
    crossings: Dict[str, object] = {}
    for i, roots in zip(structures, lambda_zero_crossing(structures, M, conn, points, sweep=sw)):
        per_point = []
        for root, resid in roots:
            if root is None or not u_lo <= root <= u_hi:
                per_point.append(None)
                continue
            per_point.append({"lambda_sq": root, "lambda": math.sqrt(root),
                              "residual": resid})
        found = [c for c in per_point if c is not None and c["residual"] < args.tol]
        if len(found) == len(per_point) and found:
            mean = sum(c["lambda_sq"] for c in found) / len(found)
            crossings[str(i)] = {
                "lambda_sq": mean, "lambda": math.sqrt(mean),
                "residual": max(c["residual"] for c in found),
                "spread": max(abs(c["lambda_sq"] - mean) for c in found),
            }
        else:
            crossings[str(i)] = None

    t, label = normalize_connection(conn)
    doc = _envelope("scan", {
        "seed": args.seed,
        "surface": M.name, "params": dict(M.params),
        "connection": label, "t": t,
        "tolerance": args.tol,
        "points": [{"x": list(map(float, z.x)), "zeta": [z.zeta.real, z.zeta.imag]}
                   for z in points],
        "grid": grid,
        "rows": rows,
        "zero_crossings": crossings,
    })
    if args.format == "json":
        write_output(dump_json(doc), args.out)
    else:
        lines = [f"twistorlab scan  surface={doc['surface']} params={doc['params']}"
                 f" connection={doc['connection']} t={t:g} seed={args.seed}",
                 "  i  lambda      symplectic-defect  balanced-defect"]
        for r in rows:
            lines.append(f"  {r['i']}  {r['lambda']:<10.6g}  {r['symplectic_defect']:<17.6e}"
                         f"  {r['balanced_defect']:.6e}")
        lines.append("zero crossings (closed-form root of the fiber coefficient):")
        for i in structures:
            c = crossings[str(i)]
            if c is None:
                lines.append(f"  i={i}  none in range")
            else:
                lines.append(f"  i={i}  lambda^2 = {c['lambda_sq']:.6f}"
                             f"  (lambda = {c['lambda']:.6f})"
                             f"  residual {c['residual']:.3e}  spread {c['spread']:.3e}")
        write_output("\n".join(lines) + "\n", args.out)
    return 0


# ======================================================================
# verify
# ======================================================================

def _check(name: str, worst: float, tol: float, detail: str = "") -> Dict[str, object]:
    return {"name": name, "passed": bool(worst < tol), "worst": float(worst),
            "tolerance": float(tol), "detail": detail}


def _suite_appendix() -> List[Dict[str, object]]:
    exact = 1e-12
    structure_res, nearly_kahler = scale_free_residuals()
    checks = [_check("appendix:structure-equations", structure_res, exact)]

    # d^2 = 0 on every degree, as products of the integer matrices in
    # float64: the entries are at most 4 in absolute value, so every product
    # and sum is exact, and the float product runs in BLAS
    d2 = max(np.max(np.abs(d_matrix(k + 1).astype(float) @ d_matrix(k).astype(float)))
             for k in range(7))
    checks.append(_check("appendix:d-squared", d2, exact))

    # each loop over (i, lambda) pairs reads the rows of one stacked pass
    displays = FlagDisplays([(i, lam) for i in (1, 2, 3, 4) for lam in (1.0, (1.3, 0.7, 2.1))])
    checks.append(_check("appendix:derivative-displays", np.max(displays.dK_residual), exact))

    root2 = math.sqrt(2.0)
    roots = FlagDisplays([(1, (1.0, 1.0, root2)), (1, root2), (3, (math.sqrt(5.0), 1.0, 2.0)),
                          (4, (1.0, math.sqrt(10.0), 3.0))])
    checks.append(_check("appendix:symplectic-roots", np.max(roots.dK_norm), exact))

    dk2 = flag_dK(2, (1.1, 0.8, 1.7))
    mixed = flag_bidegree_part(dk2, 2, 1).norm() + flag_bidegree_part(dk2, 2, 2).norm()
    never = 0.0 if dk2.norm() > 1.0 else 1.0   # the coefficient is a sum of squares
    checks.append(_check("appendix:pluriclosed-second-structure",
                         mixed + never, exact))

    bal = FlagDisplays([(i, lam) for i in (1, 2, 3, 4) for lam in (1.0, (1.0, 2.0, 3.0))]).balanced
    checks.append(_check("appendix:balanced", np.max(bal), exact))

    ddb = np.nanmax(displays.ddbar_residual)        # i in {1, 3, 4}
    try:
        flag_ddbar(2, 1.0)
        ddb = max(ddb, 1.0)           # the refusal must fire
    except ValueError:
        pass
    checks.append(_check("appendix:second-derivative-displays", ddb, exact))

    nk = max(nearly_kahler)
    checks.append(_check("appendix:nearly-kahler", nk, exact))

    census = {i for i in range(1, 9) if integrability_obstruction(i) > 0.0}
    checks.append(_check("appendix:integrability-census",
                         0.0 if census == {2, 6} else 1.0, 0.5,
                         detail="non-integrable: " + ", ".join(map(str, sorted(census)))))
    return checks


_ORACLE_CONNECTIONS = ("lichnerowicz", "chern")


def _suite_oracle(surfaces: Dict[str, HermitianSurface], n_points: int, seed: int,
                  tol: float, samples: Optional[Dict[HermitianSurface, list]] = None) -> List[Dict[str, object]]:
    """The Lichnerowicz and Chern checks of the built-in surfaces: per
    connection, the closed-form dW of one `TwistorCoframe` stack against the
    FD dW of one `CoframeSweep` stack, each with one segment per surface, so
    every FD layer runs once over all the points and each surface's values
    come from its own point memo.  A check's worst value is the max over its
    surface's points.  One pass over the surfaces (`replay`): sampling
    (unless the algebra suite drew it into `samples`), then per connection
    the sweep and formula."""
    weights = lambda_weights([(i, lam) for i in (1, 2, 3, 4) for lam in (0.5, 1.0, math.sqrt(2.0))])

    def suite(part):
        segments = [(M, (samples or {}).get(M) or sample_twistor_points(M, n_points, seed=seed))
                    for M in part]
        worst = {}
        for conn in _ORACLE_CONNECTIONS:
            oracle = weighted_sum(weights, CoframeSweep.stack(segments, conn).dW_coeffs)
            formula = weighted_sum(weights, TwistorCoframe.stack(segments, conn).dW_coeffs)
            per_point = norms(cut(formula - oracle)).reshape(len(segments), n_points, -1)
            worst[conn] = np.max(per_point, axis=(1, 2))
        return worst

    worst = replay(suite, list(surfaces.values()))
    detail = f"{n_points} points, i in 1..4, lambda in {{0.5, 1, sqrt2}}"
    return [_check(f"oracle:{name}:{conn}", float(worst[conn][k]), tol, detail=detail)
            for k, name in enumerate(surfaces) for conn in _ORACLE_CONNECTIONS]


def _random_form(rng: np.random.Generator, dim: int, degree: int) -> ComplexForm:
    terms = {}
    idx = list(range(dim))
    for _ in range(4):
        rng.shuffle(idx)
        key = tuple(idx[:degree])
        terms[key] = complex(rng.standard_normal(), rng.standard_normal())
    return ComplexForm(dim, degree, terms)


def _suite_algebra(surfaces: Dict[str, HermitianSurface], n_points: int, seed: int,
                   samples: Optional[Dict[HermitianSurface, list]] = None) -> List[Dict[str, object]]:
    """The exterior-algebra laws, and on the built-in surfaces the curvature
    symmetries and the Hermitian invariants.  The curvature is checked at
    the base points of the oracle suite's sample, drawn into `samples` for
    it, by one `levi_civita` call over one segment per surface, which the
    oracle's Lichnerowicz formula reads back from the point memos.  The
    invariants, at six interior points per chart, are one stack."""
    samples = {} if samples is None else samples
    rng = np.random.default_rng(seed)
    worst = 0.0
    for dim in (4, 6):
        for p in (1, 2):
            for q in (1, 2):
                a = _random_form(rng, dim, p)
                b = _random_form(rng, dim, q)
                c = _random_form(rng, dim, 1)
                sign = (-1.0) ** (p * q)
                worst = max(worst, (wedge(a, b) - wedge(b, a) * sign).norm())
                worst = max(worst, (wedge(wedge(a, b), c) - wedge(a, wedge(b, c))).norm())
                worst = max(worst, (wedge(a, b + c) - wedge(a, b) - wedge(a, c)).norm()
                            if q == 1 else 0.0)
                worst = max(worst, (wedge(a, b).conj() - wedge(a.conj(), b.conj())).norm())
    checks = [_check("algebra:wedge-laws", worst, 1e-12)]

    star = 0.0
    for k in range(4):
        for l in range(k + 1, 4):
            e = ComplexForm(4, 2, {(k, l): 1.0})
            star = max(star, (hodge_star_4(hodge_star_4(e)) - e).norm())
    a = _random_form(rng, 4, 2)
    plus, minus = sd_asd_split(a)
    star = max(star, (plus + minus - a).norm())
    star = max(star, (hodge_star_4(plus) - plus).norm())
    star = max(star, (hodge_star_4(minus) + minus).norm())
    checks.append(_check("algebra:hodge-star", star, 1e-12))

    samples.update({M: sample_twistor_points(M, n_points, seed=seed) for M in surfaces.values()})
    curv = max(levi_civita([(M, [z.x for z in samples[M]]) for M in surfaces.values()]).defects().values())
    checks.append(_check("algebra:curvature-symmetries", curv, 1e-6,
                         detail=f"{n_points} points, omega antisymmetry, pair symmetry, Bianchi on "
                                + ", ".join(surfaces)))

    x = [(M, M.chart.interior_points(6, seed=seed)) for M in surfaces.values()]
    g = _frame_fields(x)[0]         # the g of every surface from one stacked read
    Jm = np.concatenate([M.J(p) for M, p in x])
    herm = max(float(np.max(np.abs(g - np.swapaxes(g, -1, -2)))),
               float(max(0.0, 1e-8 - np.min(np.linalg.eigvalsh(g)))),
               float(np.max(np.abs(Jm @ Jm + np.eye(4)))),
               float(np.max(np.abs(np.swapaxes(Jm, -1, -2) @ g @ Jm - g))))
    checks.append(_check("algebra:hermitian-invariants", herm, 1e-9))
    return checks


def cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    checks: List[Dict[str, object]] = []
    if args.suite in ("appendix", "all"):
        checks.extend(_suite_appendix())
    # the built-ins, with c = 2 for cp2_fs and ch2 (builtin's default),
    # built once for both suites that use them, which share one sample of each
    surfaces = {} if args.suite == "appendix" else {name: builtin(name) for name in BUILTIN_NAMES}
    samples: Dict[HermitianSurface, list] = {}
    if args.suite in ("algebra", "all"):
        checks.extend(_suite_algebra(surfaces, args.points, args.seed, samples))
    if args.suite in ("oracle", "all"):
        checks.extend(_suite_oracle(surfaces, args.points, args.seed, args.tol, samples))

    passed = all(c["passed"] for c in checks)
    doc = _envelope("verify", {"suite": args.suite, "seed": args.seed,
                               "checks": checks, "passed": passed})
    if args.format == "json":
        write_output(dump_json(doc), args.out)
    else:
        lines = []
        for c in checks:
            mark = "PASS" if c["passed"] else "FAIL"
            detail = f"  [{c['detail']}]" if c["detail"] else ""
            lines.append(f"{mark} {c['name']:<40} worst {c['worst']:.3e}"
                         f" (tol {c['tolerance']:g}){detail}")
        n_fail = sum(1 for c in checks if not c["passed"])
        lines.append(f"{len(checks) - n_fail}/{len(checks)} checks passed")
        if n_fail:
            lines.append("failures: " + ", ".join(c["name"] for c in checks
                                                  if not c["passed"]))
        write_output("\n".join(lines) + "\n", args.out)
    return 0 if passed else 1


# ======================================================================
# appendix
# ======================================================================

def cmd_appendix(args, parser: argparse.ArgumentParser) -> int:
    scalars, triple = _lambda_args(args, parser)
    if len(scalars) > 1:
        parser.error("appendix takes at most one --lambda value")
    lam: Union[float, Tuple[float, float, float]]
    if triple is not None:
        if scalars:
            parser.error("give either --lambda or the --lambda1..3 triple, not both")
        lam = triple
    elif scalars:
        lam = scalars[0]
    else:
        lam = (1.0, 1.0, 1.0)
    table = appendix_table(lam)
    doc = _envelope("appendix", table)
    if args.format == "json":
        write_output(dump_json(doc), args.out)
        return 0
    lines = [f"twistorlab appendix  parameters=({', '.join(format(v, 'g') for v in table['lambda'])})",
             f"generators: {' '.join(table['generators'])}",
             f"structure-equation residual: {table['structure_equation_residual']:g}",
             "  i  coefficient   dK-resid   balanced   ddbar-resid   integrable  obstruction"]
    for row in table["rows"]:
        ddbar = "-" if row["ddbar_residual"] is None else format(row["ddbar_residual"], "g")
        lines.append(f"  {row['i']}  {row['dK_coefficient']:<12.6g}"
                     f"  {row['dK_residual']:<9g}  {row['balanced_norm']:<9g}"
                     f"  {ddbar:<12}  {_yes(row['integrable']):<10}"
                     f"  {row['obstruction']:g}")
    nk = table["nearly_kahler_residuals"]
    lines.append(f"nearly-Kahler residuals: {nk[0]:g} {nk[1]:g}")
    lines.append(f"integrable structures: {table['integrable_count']} of 8")
    write_output("\n".join(lines) + "\n", args.out)
    return 0


# ======================================================================
# parser wiring
# ======================================================================

def _add_io_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", choices=("json", "text"), default="text",
                    help="output format (default: text)")
    sp.add_argument("--out", metavar="PATH", default=None,
                    help="write the report to PATH (atomic rename) instead of stdout")


def _add_surface_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--surface", required=True,
                    help="builtin surface name or path to a surface description file")
    sp.add_argument("--params", metavar="k=v,...", default=None,
                    help="surface parameters, comma-separated key=value pairs")
    sp.add_argument("--connection", choices=_CONNECTION_CHOICES,
                    default="lichnerowicz", help="connection (default: lichnerowicz)")
    sp.add_argument("--t", type=float, default=None,
                    help="family parameter, required for --connection gauduchon")


def _add_lambda_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--lambda", dest="lam", metavar="L", type=float,
                    action="append", default=None,
                    help="fiber scale; may be repeated")
    for n in (1, 2, 3):
        sp.add_argument(f"--lambda{n}", type=float, default=None,
                        help=f"component {n} of a three-parameter scale triple")


def _report_options(rp: argparse.ArgumentParser) -> None:
    _add_surface_options(rp)
    _add_lambda_options(rp)
    rp.add_argument("--points", type=int, default=3, help="sample points (default: 3)")
    rp.add_argument("--seed", type=int, default=0, help="sample seed (default: 0)")
    rp.add_argument("--tol", type=float, default=1e-3,
                    help="defect tolerance for the yes/no verdicts (default: 1e-3)")
    rp.add_argument("--nijenhuis-tol", type=float, default=1e-4,
                    help="integrability tolerance (default: 1e-4)")
    _add_io_options(rp)


def _verify_options(vp: argparse.ArgumentParser) -> None:
    vp.add_argument("--suite", choices=("appendix", "oracle", "algebra", "all"),
                    default="all", help="which battery to run (default: all)")
    vp.add_argument("--points", type=int, default=2,
                    help="sample points per built-in, for the oracle and algebra suites "
                         "(default: 2)")
    vp.add_argument("--seed", type=int, default=0, help="sample seed (default: 0)")
    vp.add_argument("--tol", type=float, default=1e-4,
                    help="formula-vs-oracle tolerance (default: 1e-4)")
    _add_io_options(vp)


def _scan_options(sp: argparse.ArgumentParser) -> None:
    _add_surface_options(sp)
    sp.add_argument("--i", type=int, choices=(1, 2, 3, 4), default=None,
                    help="restrict to one structure (default: all four)")
    sp.add_argument("--lambda", dest="lam", metavar="L", type=float,
                    action="append", default=None,
                    help="explicit grid value; may be repeated")
    sp.add_argument("--lambda-range", metavar="LO:HI", default=None,
                    help="inclusive lambda range, gridded with --grid")
    sp.add_argument("--grid", type=int, default=9,
                    help="grid size for --lambda-range (default: 9)")
    sp.add_argument("--points", type=int, default=2, help="sample points (default: 2)")
    sp.add_argument("--seed", type=int, default=0, help="sample seed (default: 0)")
    sp.add_argument("--tol", type=float, default=1e-6,
                    help="max defect at an accepted crossing (default: 1e-6)")
    _add_io_options(sp)


def _appendix_options(ap: argparse.ArgumentParser) -> None:
    _add_lambda_options(ap)
    _add_io_options(ap)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one stderr line."""

    def error(self, message: str):
        self.exit(2, f"twistorlab: error: {message}\n")


class _Commands(dict):
    """The subcommands' parsers by name, each held as the function that
    builds it until it is first read: to parse the command's arguments or to
    format its help or usage.  An invocation builds its own command's only."""

    def __getitem__(self, name: str) -> argparse.ArgumentParser:
        parser = super().__getitem__(name)
        if not isinstance(parser, argparse.ArgumentParser):
            parser = self[name] = parser()
        return parser


class _Subcommands(argparse._SubParsersAction):
    """argparse's subcommands, with each parser built by `_Commands`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.choices = self._name_parser_map = _Commands()

    def add_parser(self, name: str, *, help: str,            # noqa: A002 - argparse's keyword
                   options: Callable[[argparse.ArgumentParser], None]) -> None:
        """Add the command `name`, whose parser gets its options from `options`."""
        def build() -> argparse.ArgumentParser:
            parser = _Parser(prog=f"{self._prog_prefix} {name}")
            options(parser)
            return parser
        self._choices_actions.append(self._ChoicesPseudoAction(name, (), help))
        self._name_parser_map[name] = build


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="twistorlab",
        description="Condition reports, verification suites, and parameter scans "
                    "for almost-Hermitian twistor structures.")
    parser.add_argument("--version", action="version",
                        version=f"twistorlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, action=_Subcommands)
    sub.add_parser("report", help="survey symplectic/balanced/integrability "
                                  "conditions on a surface", options=_report_options)
    sub.add_parser("verify", help="run the invariant battery, exit 0 iff clean",
                   options=_verify_options)
    sub.add_parser("scan", help="sweep the fiber scale and locate "
                                "symplectic zero crossings", options=_scan_options)
    sub.add_parser("appendix", help="print the exact flag-manifold table",
                   options=_appendix_options)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    check_numbers(args, parser)
    thread_cap()          # reject a malformed TWISTORLAB_THREADS up front
    handlers = {"report": cmd_report, "verify": cmd_verify,
                "scan": cmd_scan, "appendix": cmd_appendix}
    held: List[warnings.WarningMessage] = []
    try:
        with warnings.catch_warnings(record=True) as held:
            return handlers[args.command](args, parser)
    except (DegenerateCoframeError, DegenerateFrameError, MetricEvaluationError) as exc:
        held = []       # the numerical warnings leading up to a breakdown are noise
        print(f"twistorlab: {exc}", file=sys.stderr)
        raise SystemExit(3)
    finally:
        for w in held:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)


if __name__ == "__main__":
    sys.exit(main())
