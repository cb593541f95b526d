"""Self-tests of the benchmark's own machinery.  Run from the repository root:

    python3 perfbench/selftest.py

1. Exact counts: on cp2_fs (c=2, seed 0) the tracer reproduces the
   metric-evaluation counts of single calls in the ROADMAP Baseline table.
2. No bypass: every module that binds a traced name reaches the span, and
   uninstalling restores the original objects.
3. Checker: every corrupted copy of a correct output is rejected, and an op
   with a corrupted output is counted as failed.
4. BENCHMARK.json lists exactly the workloads and per-layer metrics the
   benchmark produces.

Exits 0 when every check passes.
"""

import json
import os
import sys

import checks
import ledger
import run
import tracer
import workloads

# (label, call, metric evaluations) on cp2_fs, c=2, at the first seed-0 point
BASELINE_COUNTS = (
    ("christoffel", lambda L, M, z: L.connection.christoffel(M, z.x), 17),
    ("levi_civita", lambda L, M, z: L.connection.levi_civita(M, z.x), 307),
    ("coframe_rows (t=0)", lambda L, M, z: L.twistor.coframe_rows(M, 0.0, z.chart_coordinates()), 51),
    ("CoframeSweep (lichnerowicz)", lambda L, M, z: L.twistor.CoframeSweep(M, "lichnerowicz", z), 1275),
    ("twistor_coframe (lichnerowicz)",
     lambda L, M, z: L.twistor.twistor_coframe(M, "lichnerowicz", z, with_structure=True), 323),
    ("twistor_coframe (chern)",
     lambda L, M, z: L.twistor.twistor_coframe(M, "chern", z, with_structure=True), 1224),
    ("nijenhuis_oracle", lambda L, M, z: L.twistor.nijenhuis_oracle(1, M, "lichnerowicz", z), 1275),
)
REPORT_COUNT = 21063     # condition_report, 3 points x 3 lambda


def check_counts(lab, t):
    failures = []
    M = lab.manifold.builtin("cp2_fs", c=2.0)
    points = lab.twistor.sample_twistor_points(M, 3, seed=0)
    calls = list(BASELINE_COUNTS) + [(
        "condition_report, 3 points x 3 lambda",
        lambda L, M, z: L.twistor.condition_report(M, "lichnerowicz", [1.0, 2 ** 0.5, 2.0], points),
        REPORT_COUNT)]
    for label, call, expected in calls:
        t.drain()
        call(lab, M, points[0])
        got = t.drain()["metric_points"]
        print(f"  {label:<40} {got:>6} metric evals (baseline {expected})")
        if got != expected:
            failures.append(f"{label}: {got} metric evaluations, baseline {expected}")
    return failures


def check_no_bypass(lab, t):
    failures = []
    M = lab.manifold.builtin("cp2_fs", c=2.0)
    x = lab.twistor.sample_twistor_points(M, 1, seed=0)[0].x
    for module in (lab.connection, lab.twistor, lab.curvature_analysis, lab.cli, lab):
        t.drain()
        module.levi_civita(M, x)
        if "connection.levi_civita" not in [s[1] for s in t.drain()["spans"]]:
            failures.append(f"{module.__name__}.levi_civita bypasses the tracer")
    return failures


class Replay:
    """Stands in for twistorlab.cli: main() replays recorded (status, stdout)."""

    def __init__(self, results):
        self.results = iter(results)

    def main(self, argv):
        code, text = next(self.results)
        sys.stdout.write(text)
        return code


def check_checker(cli):
    failures = []
    for name in sorted(workloads.TEMPLATES):
        op = next(workloads.ops(name, 0))
        results = [run.invoke(cli, argv) for argv in op]
        n_bad = 0
        for argv, (code, text) in zip(op, results):
            problems = checks.check_output(argv, code, text)
            if problems:
                failures.append(f"{name}: correct output rejected: {problems}")
                continue
            bad = checks.corrupted(text)
            n_bad += len(bad)
            if not bad or any(not checks.check_output(argv, 0, b) for b in bad):
                failures.append(f"{name}: a corrupted {argv[0]} output passes the check")
        # an op whose output is corrupted counts as failed in the loop
        replay = Replay([(code, checks.corrupted(text)[0]) if k == 0 else (code, text)
                         for k, (code, text) in enumerate(results)])
        failed = run.closed_loop(replay, iter([op]), 0.0).failed
        print(f"  {name:<8} {n_bad} corruptions rejected; corrupted op counted "
              f"as failed: {failed == 1}")
        if failed != 1:
            failures.append(f"{name}: corrupted op not counted as failed")
    return failures


def check_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.TEMPLATES):
        failures.append("BENCHMARK.json workloads differ from workloads.TEMPLATES")
    if spec["per_layer"] != ledger.metric_spec():
        failures.append("BENCHMARK.json per_layer differs from ledger.metric_spec()")
    return failures


def main():
    sys.path.insert(0, run.SRC)
    import twistorlab
    import twistorlab.cli
    lab = twistorlab
    originals = [(m, m.levi_civita)
                 for m in (lab.connection, lab.twistor, lab.curvature_analysis, lab.cli, lab)]

    failures = check_benchmark_json()
    print("checker:")
    failures += check_checker(lab.cli)
    t = tracer.Tracer()
    t.install()
    try:
        print("exact counts:")
        failures += check_counts(lab, t)
        failures += check_no_bypass(lab, t)
    finally:
        t.uninstall()
    failures += [f"{m.__name__}.levi_civita not restored"
                 for m, obj in originals if m.levi_civita is not obj]
    for f in failures:
        print("FAIL", f)
    print("selftest:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
