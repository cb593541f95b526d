"""The benchmark's workloads: the CLI argv of one op, derived from a seed.

An op is a list of ``twistorlab`` invocations run back to back.  ``survey``
and ``scan`` pair a Kähler surface (cp2_fs, Lichnerowicz) with a
non-Kähler one (hopf, Chern, torsion != 0) inside one op: run as separate
ops the two differ by about 15% and the op-time median falls between two
modes.  The reasons for each workload are in BENCHMARK.json.
"""

import random
from typing import Dict, List

PAIR = (("--surface", "cp2_fs", "--params", "c=2"),
        ("--surface", "hopf", "--connection", "chern"))

# "{seed}" is replaced by the op seed
TEMPLATES: Dict[str, List[List[str]]] = {
    "survey": [["report", "--format", "json", "--points", "2", "--lambda", "1",
                "--lambda", "1.4142135623730951", "--lambda", "2",
                "--seed", "{seed}", *surface] for surface in PAIR],
    "scan": [["scan", "--format", "json", "--points", "2", "--lambda-range", "0.5:2.5",
              "--grid", "48", "--seed", "{seed}", *surface] for surface in PAIR],
    "verify": [["verify", "--suite", "all", "--format", "json", "--seed", "{seed}"]],
}


def ops(workload: str, seed: int):
    """Endless stream of ops; op k's ``--seed`` is the k-th draw from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        op_seed = str(rng.randrange(10 ** 6))
        yield [[op_seed if a == "{seed}" else a for a in argv]
               for argv in TEMPLATES[workload]]
