"""Per-layer ledger of a traced run: spans and counts reduced per op.

The layer is the module name.  Every traced function contributes
``<layer>.<fn>.calls``, ``.total_s`` and ``.self_s``; DERIVED lists the
counts and ratios on top.  All values are per traced op.
"""

import json
from typing import Dict, List

from checks import formula_residuals
from tracer import SPAN_NAMES

PER_FUNCTION = (("calls", "count"), ("total_s", "s"), ("self_s", "s"))

# (name, unit, better)
DERIVED = (
    ("manifold.metric_points", "count", "lower"),
    ("manifold.stencil_points", "count", "lower"),
    ("manifold.metric_unique_frac", "ratio", "higher"),
    ("exterior.forms_built", "count", "lower"),
    ("twistor.bundle_points", "count", "higher"),
    ("twistor.sweeps_per_point", "ratio", "lower"),
    ("twistor.formula_residual_max", "norm", "lower"),
    ("cli.concurrency", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def metric_spec() -> List[dict]:
    """The per-layer metrics, in the order BENCHMARK.json lists them."""
    spec = [{"name": f"{fn}.{suffix}", "unit": unit, "better": "lower"}
            for fn in SPAN_NAMES for suffix, unit in PER_FUNCTION]
    spec += [{"name": n, "unit": u, "better": b} for n, u, b in DERIVED]
    return spec


class Ledger:
    def __init__(self):
        self.ops = 0
        self.wall = 0.0
        self.toplevel = 0.0
        # name -> [calls, total_s, self_s, metric points]; totals and points
        # sum outermost spans, so nested calls of one function count once
        self.fn: Dict[str, list] = {name: [0, 0.0, 0.0, 0] for name in SPAN_NAMES}
        self.counts = {"metric_points": 0, "unique_points": 0, "stencil_points": 0,
                       "forms_built": 0, "sweeps": 0, "bundle_points": 0}
        self.residual_max = 0.0
        self.overhead_ratio = float("nan")

    def add_op(self, drained: dict, wall: float, outputs) -> None:
        """Fold in one op: the tracer's drain, its wall time and its (code, stdout) list."""
        self.ops += 1
        self.wall += wall
        for _, name, start, end, parent, _, self_s, points, outermost in drained["spans"]:
            row = self.fn[name]
            row[0] += 1
            row[2] += self_s
            if outermost:
                row[1] += end - start
                row[3] += points
            if parent is None:
                self.toplevel += end - start
        for key in ("metric_points", "stencil_points", "forms_built", "sweeps"):
            self.counts[key] += drained[key]
        self.counts["unique_points"] += len(drained["point_keys"])
        self.counts["bundle_points"] += len(drained["bundle_keys"])
        for _, text in outputs:
            try:
                residuals = formula_residuals(json.loads(text))
            except ValueError:
                continue
            self.residual_max = max([self.residual_max] + [r for r in residuals if r is not None])

    def metrics(self) -> Dict[str, dict]:
        n, c = self.ops, self.counts
        out = {}
        for name, (calls, total, self_s, _) in self.fn.items():
            out[f"{name}.calls"] = {"value": calls / n, "unit": "count"}
            out[f"{name}.total_s"] = {"value": total / n, "unit": "s"}
            out[f"{name}.self_s"] = {"value": self_s / n, "unit": "s"}
        derived = {
            "manifold.metric_points": c["metric_points"] / n,
            "manifold.stencil_points": c["stencil_points"] / n,
            "manifold.metric_unique_frac": c["unique_points"] / max(c["metric_points"], 1),
            "exterior.forms_built": c["forms_built"] / n,
            "twistor.bundle_points": c["bundle_points"] / n,
            "twistor.sweeps_per_point": c["sweeps"] / max(c["bundle_points"], 1),
            "twistor.formula_residual_max": self.residual_max,
            "cli.concurrency": self.toplevel / self.wall,
            "trace.overhead_ratio": self.overhead_ratio,
        }
        for name, unit, _ in DERIVED:
            out[name] = {"value": derived[name], "unit": unit}
        return out

    def table(self, workload: str) -> str:
        """The ledger in the shape of the ROADMAP Baseline table."""
        n = self.ops
        lines = [f"per-layer ledger, {workload}: per op, over {n} traced ops",
                 f"  {'layer':<19}{'function':<25}{'calls':>9}{'self s':>10}"
                 f"{'total s':>10}{'metric pts':>12}"]
        for name, (calls, total, self_s, points) in self.fn.items():
            layer, _, fn = name.partition(".")
            lines.append(f"  {layer:<19}{fn:<25}{calls / n:>9.1f}{self_s / n:>10.4f}"
                         f"{total / n:>10.4f}{points / n:>12.1f}")
        layer_self: Dict[str, float] = {}
        for name, row in self.fn.items():
            layer = name.partition(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + row[2] / n
        busy = sum(layer_self.values())
        lines.append("  self-time share by layer: " + ", ".join(
            f"{k} {v / busy:.0%}" for k, v in sorted(layer_self.items(), key=lambda kv: -kv[1])))
        for name, m in self.metrics().items():
            if not name.endswith(("calls", "total_s", "self_s")):
                lines.append(f"  {name:<32}{m['value']:.6g} {m['unit']}")
        return "\n".join(lines)
