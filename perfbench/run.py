"""twistorlab benchmark: one closed-loop caller running CLI ops in process.

Run from the repository root:

    python3 perfbench/run.py --workload survey --seed 1 --seconds 30 --trace 0

Each op calls ``twistorlab.cli.main(argv)`` with stdout captured, exactly
what a ``twistorlab`` user runs minus interpreter start-up, and checks every
output (checks.py).  The next op starts when the previous one returns.

``--trace 0`` reports the end-to-end metrics: setup_s (median wall time of
importing twistorlab.cli in fresh interpreters), ops_per_s, op_p50_s and
peak_rss_mb.  The CPU speed of a shared host drifts by up to 30% within
minutes, at equal CPU time, so every import and op is preceded by a fixed
reference computation (reference_seconds) and the reported times are
scaled to a host on which the reference takes REFERENCE_NOMINAL_S; the
measured values are printed beside them.  ``--trace 1`` runs the ops untraced for half the time and
traced (tracer.py) for the other half, prints the per-layer ledger and
reports the per-layer metrics, per traced op.

The last stdout line is the result object; the line before it holds the
run's metadata.  The program is imported from ``src/`` of the checkout;
without it the run exits 2 and prints no result.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import checks
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_RUNS = 5
REFERENCE_NOMINAL_S = 0.15    # reference_seconds() on the 2-CPU host the bounds were set on
IMPORT_PROBE = ("import time; t = time.perf_counter(); import twistorlab.cli as c; "
                "print(time.perf_counter() - t); print(c.__file__)")


def _env_with_src():
    old = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + old if old else ""))


def reference_seconds() -> float:
    """Wall time of a fixed piece of work that no change to twistorlab can alter.

    It mixes what the program spends its time on: dict and tuple churn in
    the interpreter and small numpy linear algebra.
    """
    start = time.perf_counter()
    table, m, acc = {}, np.eye(4) + 0.1, 0.0
    for i in range(120000):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0.0) + 1.5 * i
        if i % 25 == 0:
            m = np.linalg.inv(m @ m.T + np.eye(4))
            acc += float(np.einsum("ij,ij->", m, m))
    return time.perf_counter() - start


def measure_setup(refs):
    """Import times of twistorlab.cli in fresh interpreters.

    One untimed import first writes the bytecode cache, which every later
    CLI run reuses.  A reference timing precedes each import.
    """
    times = []
    for _ in range(SETUP_RUNS + 1):
        refs.append(reference_seconds())
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_env_with_src(),
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, path = proc.stdout.split("\n")[:2]
        if not path.startswith(SRC):
            raise SystemExit(f"perfbench: imported twistorlab from {path}, not {SRC}")
        times.append(float(seconds))
    return times[1:]


def invoke(cli, argv):
    """(exit status, stdout) of one in-process CLI call."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:       # a crashing op is counted as failed; the loop goes on
        traceback.print_exc()
        code = "exception"
    return code, buf.getvalue()


@dataclasses.dataclass
class Loop:
    times: list           # wall time of each op
    failed: int           # ops that exited non-zero, raised or failed the check
    busy: float           # wall time of the ops and their checks
    first: tuple          # (op, results) of the first op


def closed_loop(cli, op_stream, seconds, refs=None, on_op=None) -> Loop:
    """Run ops until ``seconds`` have passed (at least one op).

    With ``refs``, a reference timing precedes each op and is appended to it.
    ``on_op(wall, results)`` runs after each op, outside its timing.
    """
    loop = Loop([], 0, 0.0, None)
    start = time.perf_counter()
    while True:
        if refs is not None:
            refs.append(reference_seconds())
        op = next(op_stream)
        t0 = time.perf_counter()
        results = [invoke(cli, argv) for argv in op]
        loop.times.append(time.perf_counter() - t0)
        if on_op is not None:
            on_op(loop.times[-1], results)
        problems = [p for argv, (code, text) in zip(op, results)
                    for p in checks.check_output(argv, code, text)]
        if problems:
            loop.failed += 1
            print(f"perfbench: op {op} failed: {problems}", file=sys.stderr)
        if loop.first is None:
            loop.first = (op, results)
        loop.busy += time.perf_counter() - t0
        if time.perf_counter() - start >= seconds:
            return loop


def checker_rejects_corruptions(first) -> bool:
    """The checker must fail every corrupted copy of a correct first op."""
    op, results = first
    for argv, (code, text) in zip(op, results):
        if checks.check_output(argv, code, text):
            return True      # the op itself failed; already counted
        for bad in checks.corrupted(text):
            if not checks.check_output(argv, 0, bad):
                print(f"perfbench: checker accepted a corrupted {argv[0]} output",
                      file=sys.stderr)
                return False
    return True


def _git_commit():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None      # not a git checkout


def metadata(cli, args, nproc):
    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "op_argv": workloads.TEMPLATES[args.workload],
        "git_commit": _git_commit(), "python": platform.python_version(),
        "numpy": np.__version__, "nproc": nproc,
        "TWISTORLAB_THREADS": os.environ.get("TWISTORLAB_THREADS"),
        "twistorlab_threads_effective": cli.thread_cap(),
        "blas_env": {k: os.environ.get(k) for k in blas_vars},
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(cli, args):
    refs = []
    setup = measure_setup(refs)
    loop = closed_loop(cli, workloads.ops(args.workload, args.seed), args.seconds, refs)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n, ok = len(loop.times), len(loop.times) - loop.failed
    raw = {"setup_s": statistics.median(setup), "ops_per_s": ok / loop.busy,
           "op_p50_s": statistics.median(loop.times)}
    scale = REFERENCE_NOMINAL_S / statistics.median(refs)
    metrics = {
        "setup_s": _metric(raw["setup_s"] * scale, "s"),
        "ops_per_s": _metric(raw["ops_per_s"] / scale, "1/s"),
        "op_p50_s": _metric(raw["op_p50_s"] * scale, "s"),
        "peak_rss_mb": _metric(peak_mb, "MB"),
    }
    print(f"{args.workload}: {n} ops, {loop.failed} failed (failed_frac {loop.failed / n:.3f}); "
          f"reference {statistics.median(refs):.4f} s over {len(refs)} timings, "
          f"times scaled by {scale:.4f}")
    for name, m in metrics.items():
        measured = f"  (measured {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:<12} {m['value']:.6g} {m['unit']}{measured}")
    return n, loop.failed, loop.first, metrics


def traced(cli, args):
    import ledger
    import tracer

    stream = workloads.ops(args.workload, args.seed)
    plain = closed_loop(cli, stream, args.seconds / 2.0)
    t = tracer.Tracer()
    t.install()
    book = ledger.Ledger()
    t.drain()
    try:
        traced_loop = closed_loop(cli, stream, args.seconds / 2.0,
                                  on_op=lambda wall, results: book.add_op(t.drain(), wall, results))
    finally:
        t.uninstall()
    book.overhead_ratio = statistics.median(traced_loop.times) / statistics.median(plain.times)
    print(book.table(args.workload))
    return (len(plain.times) + len(traced_loop.times), plain.failed + traced_loop.failed,
            plain.first, book.metrics())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.TEMPLATES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "twistorlab", "cli.py")):
        print(f"perfbench: no twistorlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import twistorlab.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC):
        print(f"perfbench: imported twistorlab from {cli.__file__}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if cli.thread_cap() > nproc:
        print("perfbench: TWISTORLAB_THREADS exceeds nproc", file=sys.stderr)
        return 2

    run = traced if args.trace else end_to_end
    attempted, failed, first, metrics = run(cli, args)
    checker_ok = checker_rejects_corruptions(first)
    print(json.dumps({"meta": metadata(cli, args, nproc)}))
    print(json.dumps({"correct": failed == 0 and checker_ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
