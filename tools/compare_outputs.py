"""Compare the CLI output of two twistorlab source trees on one fixed argv list.

Run from the repository root, with the other tree checked out beside it (a
`git worktree add ../parent HEAD~1`, or an unpacked `git archive`):

    python3 tools/compare_outputs.py ../parent/src src

Every invocation runs as `python -m twistorlab.cli ...` in a fresh
interpreter, once per tree, one after another.  The list holds two ops of
each benchmark workload (perfbench/workloads.py, seed 0), `report` on the
four built-ins with the lichnerowicz, chern and bismut connections, a
lambda triple alone and together with --lambda values (json and text), the
gauduchon member t = 0.5, `report` on cp2_fs at lambda = 1000 (json and
text), where the roundoff of the K ^ dK oracle is weighted by powers of
lambda, `appendix` at the default scales, at lambda = 1.2 and at a scale
triple, a text `verify --suite appendix`, a text `scan`, a json `scan` of
the hopf/chern pair whose grid holds lambda = 1 and sqrt 2, a text
`verify --suite algebra`, invocations whose coframe sweeps and formula
coframes stack more than two bundle points: `report --points 5` on cp2_fs
(c=2), on hopf/chern and on ch2/chern, `scan --points 4` on cp2_fs and
`verify --suite oracle --points 3`, `verify --suite oracle --points 1`,
whose stacks hold one point each, two reports that assemble a family
member from the t-independent tables of the point memo: the negative
general member t = -0.3 on hopf and a five-point bismut stack on ch2, a
json `report` on a surface description file (written to a temporary
directory) that repeats expression texts and gives J entry by entry, a
text `report --points 5` on hopf/chern, a json `verify --suite all
--points 3 --seed 11` and a text `verify --suite oracle`, whose oracle
suites stack the four built-ins as segments of one stack per connection,
and the help text: `--help` and `<command> --help` for each of the four
commands.

It prints each invocation whose stdout is not byte-identical, the number of
byte-identical ones, and the largest |new - old| over all numbers with its
JSON path (or line and number index for text), together with the largest
|new - old| / max(1, |old|) and the largest |new - old| / |old| over the
numbers with |old| > 0; the last shows the relative drift of small
quantities, such as finite-difference residuals, that the first hides.  It
exits 1 when an exit status, a bool, a
null, a string or the shape of an output differs, and 0 otherwise.
Standard library only.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402  (stdlib-only module of the benchmark)

BUILTINS = ("flat_c2", "cp2_fs", "ch2", "hopf")

# a non-Kahler surface whose g entries repeat their texts in pairs and whose
# J is given entry by entry (the standard one)
DESCRIPTION = """\
coords a b c d
g 1 1 = 2 + sin(a)^2
g 2 2 = 2 + sin(a)^2
g 3 3 = exp(-b*c) + 1
g 4 4 = exp(-b*c) + 1
g 1 3 = 0.1*a*b
g 2 4 = 0.1*a*b
J 1 2 = -1
J 2 1 = 1
J 3 4 = -1
J 4 3 = 1
"""


def argv_list(description):
    out = []
    for name in sorted(workloads.TEMPLATES):
        stream = workloads.ops(name, 0)
        for _ in range(2):
            out.extend(next(stream))
    for surface in BUILTINS:
        for conn in ("lichnerowicz", "chern", "bismut"):
            out.append(["report", "--surface", surface, "--connection", conn,
                        "--lambda", "1", "--lambda", "1.5", "--points", "2", "--format", "json"])
    out += [
        ["report", "--surface", "hopf", "--connection", "chern", "--lambda1", "1.3",
         "--lambda2", "0.7", "--lambda3", "2.1", "--points", "2", "--format", "json"],
        ["report", "--surface", "cp2_fs", "--connection", "chern", "--lambda", "1",
         "--lambda", "1.5", "--lambda1", "1.3", "--lambda2", "0.7", "--lambda3", "2.1",
         "--points", "2", "--format", "json"],
        ["report", "--surface", "hopf", "--connection", "lichnerowicz", "--lambda", "0.8",
         "--lambda1", "1.3", "--lambda2", "0.7", "--lambda3", "2.1", "--points", "2",
         "--format", "text"],
        ["report", "--surface", "hopf", "--connection", "gauduchon", "--t", "0.5",
         "--lambda", "1.2", "--points", "2", "--format", "json"],
        *(["report", "--surface", "cp2_fs", "--params", "c=2", "--lambda", "1000",
            "--points", "2", "--format", fmt] for fmt in ("json", "text")),
        ["appendix", "--format", "json"],
        ["appendix", "--lambda", "1.2", "--format", "text"],
        ["appendix", "--lambda1", "1.3", "--lambda2", "0.7", "--lambda3", "2.1", "--format", "json"],
        ["verify", "--suite", "appendix", "--format", "text"],
        ["scan", "--surface", "cp2_fs", "--params", "c=2", "--lambda-range", "1:2",
         "--grid", "9", "--format", "text"],
        ["scan", "--surface", "hopf", "--connection", "chern", "--lambda", "1",
         "--lambda", "1.4142135623730951", "--lambda-range", "0.5:2.5", "--grid", "7",
         "--format", "json"],
        ["verify", "--suite", "algebra", "--format", "text"],
        ["report", "--surface", "cp2_fs", "--params", "c=2", "--points", "5", "--format", "json"],
        ["report", "--surface", "hopf", "--connection", "chern", "--points", "5", "--format", "json"],
        ["scan", "--surface", "cp2_fs", "--params", "c=2", "--lambda-range", "0.5:2.5",
         "--grid", "9", "--points", "4", "--format", "json"],
        ["verify", "--suite", "oracle", "--points", "3", "--format", "json"],
        ["verify", "--suite", "oracle", "--points", "1", "--format", "json"],
        ["report", "--surface", "ch2", "--connection", "chern", "--points", "5", "--format", "json"],
        ["report", "--surface", "hopf", "--connection", "gauduchon", "--t", "-0.3", "--format", "json"],
        ["report", "--surface", "ch2", "--connection", "bismut", "--points", "5", "--format", "json"],
        ["report", "--surface", description, "--connection", "chern", "--lambda", "1.2",
         "--points", "3", "--format", "json"],
        ["report", "--surface", "hopf", "--connection", "chern", "--points", "5", "--format", "text"],
        ["verify", "--suite", "all", "--points", "3", "--seed", "11", "--format", "json"],
        ["verify", "--suite", "oracle", "--format", "text"],
        ["--help"],
        *([command, "--help"] for command in ("report", "verify", "scan", "appendix")),
    ]
    return out


def run(src, argv):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-m", "twistorlab.cli", *argv],
                          capture_output=True, env=env, timeout=900)
    return proc.returncode, proc.stdout


class Diff:
    """Numeric differences and hard mismatches found between two outputs."""

    def __init__(self):
        self.worst = (0.0, None)        # (|delta|, path)
        self.worst_rel = (0.0, None)    # (|delta| / max(1, |old|), path)
        self.worst_true_rel = (0.0, None)   # (|delta| / |old|, path), old != 0
        self.mismatches = []

    def number(self, old, new, path):
        if math.isnan(old) and math.isnan(new):
            return
        delta = abs(new - old)
        if not math.isfinite(delta):
            self.mismatches.append(f"{path}: {old!r} -> {new!r}")
            return
        if delta > self.worst[0]:
            self.worst = (delta, path)
        rel = delta / max(1.0, abs(old))
        if rel > self.worst_rel[0]:
            self.worst_rel = (rel, path)
        if old != 0.0 and delta / abs(old) > self.worst_true_rel[0]:
            self.worst_true_rel = (delta / abs(old), path)

    def json(self, old, new, path="$"):
        if isinstance(old, bool) or isinstance(new, bool) or old is None or new is None \
                or isinstance(old, str) or isinstance(new, str):
            if old != new or type(old) is not type(new):
                self.mismatches.append(f"{path}: {old!r} -> {new!r}")
        elif isinstance(old, (int, float)) and isinstance(new, (int, float)):
            self.number(float(old), float(new), path)
        elif isinstance(old, dict) and isinstance(new, dict):
            if list(old) != list(new):
                self.mismatches.append(f"{path}: keys {list(old)} -> {list(new)}")
                return
            for key in old:
                self.json(old[key], new[key], f"{path}.{key}")
        elif isinstance(old, list) and isinstance(new, list):
            if len(old) != len(new):
                self.mismatches.append(f"{path}: length {len(old)} -> {len(new)}")
                return
            for k, (a, b) in enumerate(zip(old, new)):
                self.json(a, b, f"{path}[{k}]")
        else:
            self.mismatches.append(f"{path}: {type(old).__name__} -> {type(new).__name__}")

    _NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|nan|inf")

    def text(self, old, new):
        old_lines, new_lines = old.splitlines(), new.splitlines()
        if len(old_lines) != len(new_lines):
            self.mismatches.append(f"{len(old_lines)} lines -> {len(new_lines)} lines")
            return
        for n, (a, b) in enumerate(zip(old_lines, new_lines), start=1):
            if self._NUMBER.sub("#", a) != self._NUMBER.sub("#", b):
                self.mismatches.append(f"line {n}: {a!r} -> {b!r}")
                continue
            for k, (u, v) in enumerate(zip(self._NUMBER.findall(a), self._NUMBER.findall(b))):
                self.number(float(u), float(v), f"line {n} number {k}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old_src", help="src directory of the reference tree")
    ap.add_argument("new_src", help="src directory of the tree under test")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        description = os.path.join(tmp, "repeated.surface")
        with open(description, "w") as fh:
            fh.write(DESCRIPTION)
        cases = argv_list(description)
        olds = [run(args.old_src, case) for case in cases]
        news = [run(args.new_src, case) for case in cases]

    identical, failed = 0, False
    worst, worst_rel, worst_true_rel = (0.0, None), (0.0, None), (0.0, None)
    for case, (old_code, old_out), (new_code, new_out) in zip(cases, olds, news):
        label = " ".join(case)
        if old_code != new_code:
            print(f"EXIT {old_code} -> {new_code}: {label}")
            failed = True
            continue
        if old_out == new_out:
            identical += 1
            continue
        diff = Diff()
        old_text, new_text = old_out.decode(), new_out.decode()
        try:
            diff.json(json.loads(old_text), json.loads(new_text))
        except ValueError:
            diff.text(old_text, new_text)
        print(f"differs: {label}")
        print(f"  max |delta| {diff.worst[0]:.3g} at {diff.worst[1]}; "
              f"max |delta|/max(1, |old|) {diff.worst_rel[0]:.3g} at {diff.worst_rel[1]}; "
              f"max |delta|/|old| {diff.worst_true_rel[0]:.3g} at {diff.worst_true_rel[1]}")
        for m in diff.mismatches:
            print(f"  MISMATCH {m}")
        failed = failed or bool(diff.mismatches)
        if diff.worst[0] > worst[0]:
            worst = (diff.worst[0], f"{label} :: {diff.worst[1]}")
        if diff.worst_rel[0] > worst_rel[0]:
            worst_rel = (diff.worst_rel[0], f"{label} :: {diff.worst_rel[1]}")
        if diff.worst_true_rel[0] > worst_true_rel[0]:
            worst_true_rel = (diff.worst_true_rel[0], f"{label} :: {diff.worst_true_rel[1]}")

    print(f"{identical} of {len(cases)} invocations byte-identical")
    print(f"largest |delta|: {worst[0]:.3g} at {worst[1]}")
    print(f"largest |delta|/max(1, |old|): {worst_rel[0]:.3g} at {worst_rel[1]}")
    print(f"largest |delta|/|old| over |old| > 0: {worst_true_rel[0]:.3g} at {worst_true_rel[1]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
