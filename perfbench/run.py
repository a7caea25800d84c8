"""hardywaves benchmark.

    python3 perfbench/run.py --workload orbital|dispersion|survey \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The program is imported from
``src/`` and driven in-process through ``hardywaves.cli.main(argv)``, one
closed loop with no extra threads and BLAS pinned to one thread.  Set-up
(interpreter start, imports and a small warm-up of the workload's code
paths) is timed in fresh subprocesses, several times, and reported as the
median ``setup_s``.  Then rounds of the workload's task list run until
``--seconds`` have passed (at least one round); each task's written JSON is
checked against its pins, and a task that exits nonzero or misses a pin is
a failure.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median time of a
round's CLI calls), ``setup_s`` and ``peak_rss_mib``.  ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics:
medians over traced rounds of calls, self time and counts per layer, the
workload rates of the untraced rounds, and the tracing overhead.  Its spans
go to ``.perfbench/trace-<workload>-<seed>.json``.  The last line of
standard output is the result object.
"""

from __future__ import annotations

import os

# pinned before numpy is imported, here and in the set-up subprocesses
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_RUNS = 5
WORKLOADS = ("orbital", "dispersion", "survey")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: import and warm up, then exit (timed by the parent)")
    return p.parse_args(argv)


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _run_task(cli, task, outdir: Path, tracer=None):
    """Run one CLI call; return (seconds, list of failed pins, values, bytes written)."""
    argv = [*task.argv, "--outdir", str(outdir)]
    start = time.perf_counter()
    try:
        if tracer is None:
            rc = cli.main(argv)
        else:
            with tracer.span(f"task.{task.kind}"):
                rc = cli.main(argv)
    except Exception:  # a crash is a failed task; the loop keeps measuring
        traceback.print_exc()
        rc = None
    seconds = time.perf_counter() - start
    errors, values = [f"exit code {rc}"], {}
    if rc == 0:
        try:
            errors, values = task.check(outdir)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            errors = [f"unreadable output: {exc!r}"]
    written = _dir_bytes(outdir) if outdir.exists() else 0
    shutil.rmtree(outdir, ignore_errors=True)
    if errors:
        print(f"FAIL {task.kind} {' '.join(task.argv)}: {'; '.join(errors)}", file=sys.stderr)
    return seconds, errors, values, written


def _warm_up(workload: str, scratch: Path) -> None:
    """Run the workload's small warm-up tasks (untimed; outputs are not checked)."""
    import hardywaves.cli as cli
    import workloads

    for k, task in enumerate(workloads.WARMUP[workload]()):
        cli.main([*task.argv, "--outdir", str(scratch / f"warm{k}")])


def _time_setup(args, scratch: Path) -> list:
    samples = []
    for k in range(SETUP_RUNS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--setup-probe"]
        env = dict(os.environ, PERFBENCH_SCRATCH=str(scratch / f"probe{k}"))
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=120)
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()[-2000:]}")
    return samples


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _round_summary(tasks, results) -> dict:
    groups: dict = {}
    for task, (seconds, *_) in zip(tasks, results):
        g = groups.setdefault(task.kind, {"s": 0.0, "steps": 0, "ground_states": 0,
                                          "samples": 0})
        g["s"] += seconds
        g["steps"] += task.steps
        g["ground_states"] += task.ground_states
        g["samples"] += task.samples
    return {
        "wall_s": sum(r[0] for r in results),
        "failed": sum(1 for r in results if r[1]),
        "tasks": len(results),
        "bytes": sum(r[3] for r in results),
        "ref_error": max((r[2]["ref_error"] for r in results if "ref_error" in r[2]),
                         default=0.0),
        "groups": groups,
    }


def _rate(rounds, unit: str) -> float:
    """Median over rounds of units done per second spent in the tasks doing them."""
    rates = []
    for rnd in rounds:
        work = sum(g[unit] for g in rnd["groups"].values())
        secs = sum(g["s"] for g in rnd["groups"].values() if g[unit])
        if secs > 0:
            rates.append(work / secs)
    return _median(rates)


def _layer_metrics(traced: list, untraced: list) -> dict:
    """Per-layer metrics: medians over traced rounds of per-round totals."""

    def med(fn):
        return _median([fn(t) for t in traced])

    def calls(name):
        return med(lambda t: t["calls"].get(name, 0))

    def self_s(name):
        return med(lambda t: t["self_s"].get(name, 0.0))

    def per(t, num, den, scale=1.0):
        return scale * num / den if den else 0.0

    m = {}
    for name in ("operators.solve_cayley", "operators.solve_spd", "operators.solve_tridiag",
                 "operators.assemble", "evolve.propagate", "evolve.invariants",
                 "groundstate.flow", "stability.orbit_distance", "energies.energy_J",
                 "energies.weighted_dirichlet", "energies.hardy_functional_u", "kelvin.w_norm",
                 "radial.build_grid"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["operators.solve_cayley.us_per_call"] = med(lambda t: per(
        t, t["total_s"].get("operators.solve_cayley", 0.0),
        t["calls"].get("operators.solve_cayley", 0), 1e6))
    m["evolve.steps"] = med(lambda t: t["counts"].get("evolve.steps", 0))
    m["evolve.solves_per_step"] = med(lambda t: per(
        t, t["calls"].get("operators.solve_cayley", 0), t["counts"].get("evolve.steps", 0)))
    m["groundstate.flow.iterations"] = med(lambda t: t["counts"].get("groundstate.iterations", 0))
    m["stability.experiment.self_s"] = self_s("stability.experiment")
    for name in ("checks.check_hardy", "checks.check_ckn", "checks.check_ihs",
                 "kelvin.kelvin_verify"):
        m[f"{name}.self_s"] = self_s(name)
    m["checks.us_per_sample"] = med(lambda t: per(
        t, sum(t["total_s"].get(n, 0.0)
               for n in ("checks.check_hardy", "checks.check_ckn", "checks.check_ihs")),
        t["counts"].get("checks.samples", 0), 1e6))
    m["kelvin.kelvin_transform.calls"] = calls("kelvin.kelvin_transform")
    m["cli.self_s"] = self_s("cli")
    m["cli.commands"] = calls("cli")
    m["cli.bytes_written"] = med(lambda t: t["bytes"])
    m["trace.spans"] = med(lambda t: t["spans"])
    m["trace.overhead_s"] = (_median([t["wall_s"] for t in traced])
                             - _median([r["wall_s"] for r in untraced]))
    m["run.steps_per_s"] = _rate(untraced, "steps")
    m["run.ground_states_per_s"] = _rate(untraced, "ground_states")
    m["run.check_samples_per_s"] = _rate(untraced, "samples")
    m["run.ref_error"] = max((r["ref_error"] for r in untraced + traced), default=0.0)
    attempted = sum(r["tasks"] for r in untraced + traced)
    m["run.failure_rate"] = sum(r["failed"] for r in untraced + traced) / attempted
    return m


def _load_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "hardywaves" / "__init__.py").is_file():
        print(f"error: no hardywaves sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        _warm_up(args.workload, Path(os.environ["PERFBENCH_SCRATCH"]))
        return 0

    units = _load_units()
    scratch = OUT / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        setup_samples = _time_setup(args, scratch)

        import numpy as np
        import scipy

        import hardywaves
        import hardywaves.cli as cli
        import spans
        import workloads

        _warm_up(args.workload, scratch)

        rng = np.random.default_rng(args.seed)
        make_round = workloads.ROUNDS[args.workload]
        tracer = spans.Tracer() if args.trace else None
        untraced, traced = [], []
        deadline = time.perf_counter() + args.seconds
        n_task = 0
        while True:
            tasks = make_round(rng)
            use_trace = tracer is not None and len(untraced) > len(traced)
            results = []
            if use_trace:
                tracer.reset_totals()
                first_span = len(tracer.spans)
                with tracer.installed():
                    for task in tasks:
                        tracer.task = n_task
                        results.append(_run_task(cli, task, scratch / f"t{n_task}", tracer))
                        n_task += 1
            else:
                for task in tasks:
                    results.append(_run_task(cli, task, scratch / f"t{n_task}"))
                    n_task += 1
            summary = _round_summary(tasks, results)
            if use_trace:
                summary.update(calls=dict(tracer.calls), self_s=dict(tracer.self_s),
                               total_s=dict(tracer.total_s), counts=dict(tracer.counts),
                               spans=len(tracer.spans) - first_span)
                traced.append(summary)
            else:
                untraced.append(summary)
            if time.perf_counter() >= deadline and (tracer is None or traced):
                break

        rounds = untraced + traced
        kinds = [task.kind for task in tasks]
        attempted = sum(r["tasks"] for r in rounds)
        failed = sum(r["failed"] for r in rounds)
        meta = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "git_sha": _git_sha(),
            "hardywaves": hardywaves.__version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS,
            "rounds": len(untraced),
            "traced_rounds": len(traced),
            "tasks": attempted,
            "tasks_per_round": rounds[0]["tasks"],
            "task_kinds": {k: kinds.count(k) for k in sorted(set(kinds))},
            "setup_samples_s": setup_samples,
            "round_wall_s": [r["wall_s"] for r in untraced],
        }
        if tracer is None:
            metrics = {
                "wall_s": _median([r["wall_s"] for r in untraced]),
                "setup_s": _median(setup_samples),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        else:
            metrics = _layer_metrics(traced, untraced)
            trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
            trace_file.write_text(json.dumps({
                "meta": meta,
                "span_fields": ["name", "start", "end", "parent", "task"],
                "spans": tracer.spans,
                "rounds": traced,
            }), encoding="utf-8")
            meta["trace_file"] = str(trace_file.relative_to(ROOT))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(json.dumps({"meta": meta}))
    for name, value in metrics.items():
        print(f"{name:40s} {value:.6g} {units.get(name, '')}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
