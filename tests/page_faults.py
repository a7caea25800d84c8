"""Count the minor page faults and system time of each benchmark round.

    python3 tests/page_faults.py OLD_SRC NEW_SRC

For each of the two source trees and each perfbench workload, a fresh
interpreter imports the package from the tree's ``src`` directory, runs the
workload's warm-up tasks, then ``ROUNDS`` rounds of its tasks (seed 0, the
task lists of ``perfbench/workloads.py``, BLAS pinned to one thread as in
the benchmark), and prints for each round the minor page faults
(``ru_minflt``) and the system CPU time the process took, then the minor
faults and the user plus system CPU time of the child processes it reaped
in that round (``RUSAGE_CHILDREN``: the forked workers of a multi-delta
``stability`` run).  Faults that repeat in every round, rather than once at
warm-up, are pages the allocator hands back to the kernel and takes again.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROUNDS = 3
WORKLOADS = ("orbital", "dispersion", "survey")

RUN = """
import json, resource, shutil, sys, tempfile
import numpy as np
sys.path.insert(0, sys.argv[1])
import workloads
from hardywaves.cli import main

name, rounds = sys.argv[2], int(sys.argv[3])
WHO = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)  # children: the reaped workers
with tempfile.TemporaryDirectory() as tmp:
    for k, task in enumerate(workloads.WARMUP[name]()):
        main([*task.argv, "--outdir", f"{tmp}/warm{k}"])
    rng = np.random.default_rng(0)
    per_round = []
    for r in range(rounds):
        tasks = workloads.ROUNDS[name](rng)
        before = [resource.getrusage(who) for who in WHO]
        for k, task in enumerate(tasks):
            outdir = f"{tmp}/r{r}-{k}"
            if main([*task.argv, "--outdir", outdir]) != 0:
                sys.exit(f"{name} task {' '.join(task.argv)} failed")
            shutil.rmtree(outdir)
        after = [resource.getrusage(who) for who in WHO]
        (self0, kids0), (self1, kids1) = before, after
        per_round.append((self1.ru_minflt - self0.ru_minflt, self1.ru_stime - self0.ru_stime,
                          kids1.ru_minflt - kids0.ru_minflt,
                          kids1.ru_utime + kids1.ru_stime - kids0.ru_utime - kids0.ru_stime))
print(json.dumps(per_round))
"""


def _rounds(src: Path, workload: str) -> list:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", RUN, str(ROOT / "perfbench"), workload, str(ROUNDS)],
        env=env, check=True, stdout=subprocess.PIPE, text=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str]) -> int:
    trees = {"old": Path(argv[0]).resolve(), "new": Path(argv[1]).resolve()}
    print(f"{'workload':12s}{'tree':6s}{'round':>6s}{'minor faults':>14s}{'sys s':>9s}"
          f"{'child faults':>14s}{'child cpu s':>13s}")
    for workload in WORKLOADS:
        for label, src in trees.items():
            for k, (faults, sys_s, child_faults, child_s) in enumerate(_rounds(src, workload), 1):
                print(f"{workload:12s}{label:6s}{k:6d}{faults:14d}{sys_s:9.3f}"
                      f"{child_faults:14d}{child_s:13.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
