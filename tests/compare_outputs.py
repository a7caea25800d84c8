"""Check that two source trees write byte-identical CLI output.

    python3 tests/compare_outputs.py OLD_SRC NEW_SRC

Runs, under each tree's ``src`` directory, every task of the perfbench
workloads (the 21 survey ground states, its checks and Kelvin run, the
dispersion evolves and the orbital stability run for each perturbation kind)
plus the fixed ``EXTRA_TASKS``, then compares every file the two trees wrote,
byte for byte, and each task's outcome: its exit code, or the class of an
exception that escaped ``main``.  A file that differs is listed with the
CSV columns or top-level JSON keys whose text differs.  Exits 0 when all
are equal.  A perf change that claims identical artifacts runs it against
a checkout of its parent commit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

RUN = """
import json, sys
from hardywaves.cli import main
outcomes = {}
for name, argv in json.loads(sys.argv[1]):
    try:
        outcomes[name] = main([*argv, "--outdir", sys.argv[2] + "/" + name])
    except Exception as exc:  # a traceback is an outcome to compare, not a crash of the tool
        outcomes[name] = type(exc).__name__
print(json.dumps(outcomes))
"""


# branches and verdicts the workloads leave out: the log-weight ihs kind, a
# weight that fails (omega_inf above the threshold -3/2), a nonlinear evolve
# whose potential power q - 2 is not 1, a ground state that fails to converge
# (exit 2), a stability run whose second delta overflows the perturbed mass,
# one whose two deltas both fail their first step (exit 2, the first
# delta's error.json), one with more deltas than a 4-CPU machine has
# workers, so that its runs queue, the sampled checks at N = 4 and 5,
# whose grid factors the workloads' N = 3 checks do not form, and inputs no
# double can carry: grid weights t r^2 that under- or overflow, and a
# dimension whose unit-ball volume overflows (each exit 1)
EXTRA_TASKS = [
    ("check-weight", ["check", "weight"]),
    ("check-hardy-N4", ["check", "hardy", "--N", "4", "--samples", "100"]),
    ("check-ihs-N5", ["check", "ihs", "--N", "5", "--samples", "100"]),
    ("kelvin-verify-N4", ["kelvin-verify", "--N", "4", "--samples", "40"]),
    ("check-ihs-log-weight", ["check", "ihs", "--h-kind", "log-weight", "--samples", "100"]),
    ("check-weight-failing", ["check", "weight", "--omega-zero", "0", "--omega-inf", "0"]),
    ("check-weight-integrable", ["check", "weight", "--omega-zero", "-1", "--omega-inf", "-4"]),
    ("evolve-q2.4", ["evolve", "--N", "5", "--q", "2.4", "--n", "2048", "--steps", "200"]),
    ("ground-state-failing", ["ground-state", "--n", "512", "--r-min", "1e-4", "--r-max", "30",
                              "--tol", "1e-30", "--max-iter", "3"]),
    ("stability-delta-overflow", ["stability", "--n", "256", "--r-min", "1e-4", "--r-max", "30",
                                  "--T", "0.02", "--dt", "2e-3", "--delta", "0.01", "1e160"]),
    ("stability-step-failing", ["stability", "--n", "256", "--r-min", "1e-4", "--r-max", "30",
                                "--T", "1", "--dt", "100", "--delta", "0.5", "1"]),
    ("stability-queued", ["stability", "--n", "256", "--r-min", "1e-4", "--r-max", "30",
                          "--T", "0.2", "--dt", "2e-3", "--delta", "0", "1e-3", "1e-2", "2e-2",
                          "5e-2"]),
    ("check-ihs-weights-underflow", ["check", "ihs", "--n", "256", "--r-min", "1e-200",
                                     "--r-max", "50", "--samples", "3"]),
    ("check-ihs-weights-overflow", ["check", "ihs", "--n", "256", "--r-min", "1e-6",
                                    "--r-max", "1e160", "--samples", "3"]),
    ("ground-state-N400", ["ground-state", "--N", "400", "--q", "2.005", "--n", "256",
                           "--r-min", "1e-4", "--r-max", "30"]),
]


def _tasks() -> list[tuple[str, list[str]]]:
    rng = np.random.default_rng(0)
    tasks = workloads.survey_round(rng) + workloads.dispersion_round(rng)
    for kind in workloads.KINDS:
        stability = workloads.orbital_round(rng)[0]
        argv = list(stability.argv)
        argv[argv.index("--kind") + 1] = kind
        tasks.append(workloads.Task("stability", tuple(argv), stability.check))
    named = [(f"{k:02d}-{task.kind}", list(task.argv)) for k, task in enumerate(tasks)]
    return named + EXTRA_TASKS


def _run(src: Path, tasks, outroot: Path) -> dict:
    """Each task's exit code, or the class name of the exception it raised."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", RUN, json.dumps(tasks), str(outroot)],
                          env=env, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _fields(path: Path) -> dict:
    """The text of each column of a CSV file, or of each top-level key of a
    JSON one, by name; {} for any other file."""
    if path.suffix == ".json":
        return {key: json.dumps(val) for key, val in json.loads(path.read_text()).items()}
    if path.suffix != ".csv":
        return {}
    header, *rows = [line.split(",") for line in path.read_text().splitlines()
                     if not line.startswith("#")]
    return {name: [row[k] for row in rows] for k, name in enumerate(header)}


def _differing_fields(old: Path, new: Path) -> list[str]:
    """Names of the columns or keys whose text differs between two files."""
    fields = _fields(old), _fields(new)
    names = [*fields[0], *(name for name in fields[1] if name not in fields[0])]
    return [name for name in names if fields[0].get(name) != fields[1].get(name)]


def main(argv: list[str]) -> int:
    old, new = (Path(a).resolve() for a in argv)
    tasks = _tasks()
    with tempfile.TemporaryDirectory() as tmp:
        roots = Path(tmp, "old"), Path(tmp, "new")
        outcomes = [_run(src, tasks, root) for src, root in zip((old, new), roots)]
        files = [{p.relative_to(root) for p in root.rglob("*") if p.is_file()} for root in roots]
        differ = {f: _differing_fields(roots[0] / f, roots[1] / f)
                  for f in sorted(files[0] & files[1])
                  if (roots[0] / f).read_bytes() != (roots[1] / f).read_bytes()}
    changed = [name for name, _ in tasks if outcomes[0][name] != outcomes[1][name]]
    for name in changed:
        print(f"outcome differs: {name}: {outcomes[0][name]} -> {outcomes[1][name]}")
    for tree, only in (("old", files[0] - files[1]), ("new", files[1] - files[0])):
        for f in sorted(only):
            print(f"only the {tree} tree wrote:", f)
    for f, names in differ.items():
        print(f"differs: {f}" + (f" ({', '.join(names)})" if names else ""))
    print(f"{len(tasks)} tasks, {len(files[0])} and {len(files[1])} files, "
          f"{len(differ)} differ, {len(changed)} outcomes differ")
    return 1 if differ or changed or files[0] != files[1] else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
