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

A second table gives, for each task kind over all rounds, the task count
and the minor faults per task of the process itself, split into those taken
inside ``cli._write_csv``, inside the ground-state flow
(``normalized_gradient_flow`` as the CLI calls it) and elsewhere.
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
from hardywaves import cli
from hardywaves.cli import main

name, rounds = sys.argv[2], int(sys.argv[3])
WHO = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)  # children: the reaped workers
kinds = {}  # kind: [tasks, faults, in _write_csv, in the flow]
section = [0, 0]  # faults inside the two wrapped calls during the current task


def counted(fn, slot):
    def wrapper(*args, **kwargs):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        try:
            return fn(*args, **kwargs)
        finally:
            section[slot] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return wrapper


cli._write_csv = counted(cli._write_csv, 0)
cli.normalized_gradient_flow = counted(cli.normalized_gradient_flow, 1)
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
            section[:] = [0, 0]
            start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            if main([*task.argv, "--outdir", outdir]) != 0:
                sys.exit(f"{name} task {' '.join(task.argv)} failed")
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start
            row = kinds.setdefault(task.kind, [0, 0, 0, 0])
            for j, value in enumerate((1, faults, *section)):
                row[j] += value
            shutil.rmtree(outdir)
        after = [resource.getrusage(who) for who in WHO]
        (self0, kids0), (self1, kids1) = before, after
        per_round.append((self1.ru_minflt - self0.ru_minflt, self1.ru_stime - self0.ru_stime,
                          kids1.ru_minflt - kids0.ru_minflt,
                          kids1.ru_utime + kids1.ru_stime - kids0.ru_utime - kids0.ru_stime))
print(json.dumps([per_round, kinds]))
"""


def _rounds(src: Path, workload: str) -> tuple[list, dict]:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", RUN, str(ROOT / "perfbench"), workload, str(ROUNDS)],
        env=env, check=True, stdout=subprocess.PIPE, text=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv: list[str]) -> int:
    trees = {"old": Path(argv[0]).resolve(), "new": Path(argv[1]).resolve()}
    results = {(w, label): _rounds(src, w) for w in WORKLOADS for label, src in trees.items()}
    print(f"{'workload':12s}{'tree':6s}{'round':>6s}{'minor faults':>14s}{'sys s':>9s}"
          f"{'child faults':>14s}{'child cpu s':>13s}")
    for (workload, label), (per_round, _) in results.items():
        for k, (faults, sys_s, child_faults, child_s) in enumerate(per_round, 1):
            print(f"{workload:12s}{label:6s}{k:6d}{faults:14d}{sys_s:9.3f}"
                  f"{child_faults:14d}{child_s:13.3f}")
    print(f"\n{'workload':12s}{'tree':6s}{'kind':16s}{'tasks':>6s}{'faults/task':>13s}"
          f"{'_write_csv':>12s}{'flow':>8s}{'other':>8s}")
    for (workload, label), (_, kinds) in results.items():
        for kind, (tasks, faults, csv, flow) in sorted(kinds.items()):
            print(f"{workload:12s}{label:6s}{kind:16s}{tasks:6d}{faults / tasks:13.0f}"
                  f"{csv / tasks:12.0f}{flow / tasks:8.0f}{(faults - csv - flow) / tasks:8.0f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
