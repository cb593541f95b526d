"""Correctness check of one invocation's JSON output.

Every fact checked here holds for any ``--seed``: it is a property of the
surface or of the formula-versus-oracle gate, not of the sampled points.
"""

import copy
import json
import math
from typing import List

FORMULA_GATE = 1e-4      # the `verify` oracle tolerance
CP2_C = 2.0              # cp2_fs parameter in every workload


def _is_cp2(doc) -> bool:
    return doc.get("surface") == "cp2_fs" and doc.get("params") == {"c": CP2_C}


def formula_residuals(doc) -> List[float]:
    """Every formula-versus-oracle residual the output reports."""
    if doc.get("command") == "report":
        return [r["formula_residual"] for r in doc["rows"]]
    if doc.get("command") == "verify":
        return [c["worst"] for c in doc["checks"] if c["name"].startswith("oracle:")]
    return []


def _check_report(doc, argv) -> List[str]:
    problems = []
    n_points = int(argv[argv.index("--points") + 1])
    n_lambda = argv.count("--lambda")
    if len(doc["rows"]) != 4 * n_lambda or len(doc["base_flags"]) != n_points:
        problems.append("report: wrong number of rows or base points")
    if _is_cp2(doc):
        for f in doc["base_flags"]:
            for key in ("self_dual", "einstein", "kahler"):
                if not f[key]["holds"]:
                    problems.append(f"cp2_fs: {key} does not hold")
            if abs(f["scalar_curvature"] - 6.0 * CP2_C) >= 1e-6:
                problems.append("cp2_fs: scalar curvature is not 6c")
        roots = doc["zero_crossings"]["1"]
        if len(roots) != n_points or any(r is None or abs(r[0] - 2.0) >= 1e-5 for r in roots):
            problems.append("cp2_fs: structure-1 crossing is not lambda^2 = 2")
    if doc.get("surface") == "hopf" and any(f["kahler"]["holds"] for f in doc["base_flags"]):
        problems.append("hopf: reported as Kahler")
    return problems


def _check_scan(doc, argv) -> List[str]:
    problems = []
    grid = int(argv[argv.index("--grid") + 1])
    if len(doc["rows"]) != 4 * grid:
        problems.append("scan: wrong number of rows")
    if any(r["symplectic_defect"] < 0 or r["balanced_defect"] < 0 for r in doc["rows"]):
        problems.append("scan: negative defect")
    if _is_cp2(doc):
        c = doc["zero_crossings"]["1"]
        if c is None or abs(c["lambda_sq"] - 2.0) >= 1e-5:
            problems.append("cp2_fs: structure-1 crossing is not lambda^2 = 2")
    return problems


def _check_verify(doc, argv) -> List[str]:
    problems = []
    if doc["passed"] is not True or not all(c["passed"] for c in doc["checks"]):
        problems.append("verify: not passed")
    if len(formula_residuals(doc)) != 8:
        problems.append("verify: expected 8 oracle checks")
    return problems


_BY_COMMAND = {"report": _check_report, "scan": _check_scan, "verify": _check_verify}


def check_output(argv: List[str], code, text: str) -> List[str]:
    """Problems with one invocation; empty when it is correct."""
    if code != 0:
        return [f"exit status {code}"]
    try:
        doc = json.loads(text)
    except ValueError:
        return ["output is not JSON"]
    if doc.get("command") != argv[0]:
        return ["output is for another command"]
    try:
        problems = _BY_COMMAND[argv[0]](doc, argv)
        residuals = formula_residuals(doc)
    except (KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]
    if any(r is None or not math.isfinite(r) or r >= FORMULA_GATE for r in residuals):
        problems.append("formula residual at or above the oracle gate")
    return problems


# Each corruption breaks one seed-independent fact of a correct output; the
# checker must reject every one that applies.
def _bump_residual(doc):
    doc["rows"][0]["formula_residual"] = 10 * FORMULA_GATE


def _hopf_kahler(doc):
    for f in doc["base_flags"]:
        f["kahler"]["holds"] = True


def _shift_cp2_root(doc):
    if doc["command"] == "scan":
        doc["zero_crossings"]["1"]["lambda_sq"] += 1e-3
    else:
        doc["zero_crossings"]["1"][0][0] += 1e-3


def _drop_row(doc):
    doc["rows"].pop()


def _oracle_over_gate(doc):      # `passed` left true: the gate is checked on its own
    next(c for c in doc["checks"] if c["name"].startswith("oracle:"))["worst"] = 1.0


CORRUPTIONS = (
    (lambda d: d["command"] == "report", _bump_residual),
    (lambda d: d["command"] == "report" and d["surface"] == "hopf", _hopf_kahler),
    (lambda d: d["command"] in ("report", "scan") and _is_cp2(d), _shift_cp2_root),
    (lambda d: d["command"] == "scan", _drop_row),
    (lambda d: d["command"] == "verify", _oracle_over_gate),
)


def corrupted(text: str) -> List[str]:
    """Corrupted copies of a correct output, one per applicable corruption."""
    doc = json.loads(text)
    out = []
    for applies, corrupt in CORRUPTIONS:
        if applies(doc):
            bad = copy.deepcopy(doc)
            corrupt(bad)
            out.append(json.dumps(bad))
    return out
