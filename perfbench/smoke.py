"""Smoke check of the benchmark harness.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced with ``--seconds 1`` (one
round each), and fails unless every run is correct, reports exactly the
metric names of BENCHMARK.json, and shows the layer facts the workloads are
built on: no Cayley solves on ``survey``, one solve per step on
``dispersion``.  Also checks that the benchmark refuses to run, without
printing a result, in a copy holding only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: [m["name"] for m in spec["end_to_end"]],
                1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = _run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"== {label}: attempted {result['attempted']}, failed {result['failed']}")
            for name, entry in result["metrics"].items():
                print(f"   {name:40s} {entry['value']:.6g} {entry['unit']}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: pins failed\n{proc.stderr[-2000:]}")
            if sorted(metrics) != sorted(expected[trace]):
                problems.append(f"{label}: metric names differ from BENCHMARK.json")
            if trace and workload == "survey" and metrics["operators.solve_cayley.calls"] != 0:
                problems.append("survey: Cayley solves in a workload that should have none")
            if trace and workload == "dispersion" and metrics["evolve.solves_per_step"] != 1:
                problems.append("dispersion: more than one Cayley solve per step")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(bare, "dispersion", 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("a copy without src/ did not fail cleanly")

    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("smoke check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
