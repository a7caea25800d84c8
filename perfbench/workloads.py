"""The benchmark workloads: CLI task lists, warm-up tasks and correctness pins.

Every task is one ``hardywaves.cli.main(argv)`` call with every input given
explicitly, so a later change of a CLI default does not change the work.
A round is the workload's fixed task list; the seed only chooses the order
of the tasks, the perturbation kind and the checker sample seeds, none of
which changes the amount of work.  Why each workload exists, and which
layers it stresses, is in NOTES.md.

A pin check returns the list of violated pins (empty when the task's
written output is correct) and the observed values the run reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

DEFAULT_GRID = ("--n", "8192", "--r-min", "1e-6", "--r-max", "50", "--grading", "log")
SURVEY_GRID = ("--n", "8192", "--r-min", "1e-4", "--r-max", "50", "--grading", "log")
TINY_GRID = ("--n", "512", "--r-min", "1e-4", "--r-max", "30", "--grading", "log")
P33 = ("--N", "3", "--q", "3", "--gamma", "1")

# Regression pins, measured at the commit that added the benchmark.  Solves
# of the same problem from different starting fields agree to 5e-10 in
# lambda and 4e-15 in J, so these tolerances leave a wide margin.
LAMBDA_ATOL = 1e-7
J_ATOL = 1e-9
ORBITAL_LAMBDA = 0.001800860381078122
# (N, q, gamma) -> (lambda, J) on SURVEY_GRID at tol 1e-6
SURVEY_REFS = {
    (3, 2.5, 0.5): (0.10660614356010453, 0.23096318857830433),
    (3, 2.5, 1.0): (0.14066764880339705, 0.4497615537138655),
    (3, 2.5, 2.0): (0.18561207392619264, 0.8674199462321064),
    (3, 2.8, 0.5): (0.010822913847215187, 0.24865222938555256),
    (3, 2.8, 1.0): (0.021597608299508905, 0.4946010116818473),
    (3, 2.8, 2.0): (0.043192813368503204, 0.9784035974320896),
    (3, 3.0, 0.5): (0.00020381167780161592, 0.2501818709963152),
    (3, 3.0, 1.0): (0.0018010098620066318, 0.49993268213899433),
    (3, 3.0, 2.0): (0.006122517895185332, 0.9980507646425574),
    (4, 2.5, 0.5): (0.06396903093901407, 0.23933849389241915),
    (4, 2.5, 1.0): (0.09046585771808355, 0.46984471034837877),
    (4, 2.5, 2.0): (0.1279380192958516, 0.9147079733858382),
    (4, 2.8, 0.5): (0.000744451820668968, 0.2500867952475787),
    (4, 2.8, 1.0): (0.0029344414881663262, 0.49963885716152),
    (4, 2.8, 2.0): (0.010574651643786518, 0.9964899258422719),
    (5, 2.4, 0.5): (0.09665936595182002, 0.23273939345817043),
    (5, 2.4, 1.0): (0.12754274594322718, 0.45444900174100444),
    (5, 2.4, 2.0): (0.1682935788429609, 0.8797902445494565),
    (5, 2.6, 0.5): (0.011581929328338916, 0.24868614988952445),
    (5, 2.6, 1.0): (0.02657725419608907, 0.49395965900420935),
    (5, 2.6, 2.0): (0.061054933899550745, 0.9722468836697452),
}

ORBITAL_T, ORBITAL_DT, ORBITAL_TOL = 0.6, 2e-3, 2e-6
ORBITAL_DELTAS = (0.0, 1e-3, 1e-2)
KINDS = ("radial-bump", "phase-ramp", "mass-preserving-deformation")
DISPERSION_T = 1.0
DISPERSION_DTS = (2e-3, 1e-3, 5e-4)
SURVEY_TOL = 1e-6
CHECK_SAMPLES = 100
KELVIN_SAMPLES = 40


@dataclass(frozen=True)
class Task:
    """One CLI call and what it must write."""

    kind: str
    argv: tuple
    check: Callable[[Path], tuple[list, dict]]
    steps: int = 0          # propagation time steps
    ground_states: int = 0  # converged ground states
    samples: int = 0        # checker or Kelvin samples


def _read(outdir: Path, name: str) -> dict:
    return json.loads((outdir / name).read_text(encoding="utf-8"))


def _pin(errors: list, label: str, value, ok: bool) -> None:
    if not ok:
        errors.append(f"{label}={value!r}")


def _check_stability(outdir: Path) -> tuple[list, dict]:
    summary = _read(outdir, "stability_summary.json")
    errors: list = []
    lam = summary["lambda"]
    _pin(errors, "lambda", lam, abs(lam - ORBITAL_LAMBDA) < LAMBDA_ATOL)
    _pin(errors, "runs", len(summary["runs"]), len(summary["runs"]) == len(ORBITAL_DELTAS))
    for run in summary["runs"]:
        delta, dist = run["delta"], run["max_distance"]
        limit = 10.0 * delta if delta > 0.0 else 1e-6
        _pin(errors, f"max_distance[{delta}]", dist, dist < limit)
        _pin(errors, f"charge_drift[{delta}]", run["max_charge_drift"],
             run["max_charge_drift"] < 1e-8)
        _pin(errors, f"energy_drift[{delta}]", run["max_energy_drift"],
             run["max_energy_drift"] < 1e-6)
    return errors, {}


def _check_evolve(outdir: Path) -> tuple[list, dict]:
    summary = _read(outdir, "evolve_summary.json")
    errors: list = []
    err = summary["final_error"]
    _pin(errors, "final_error", err, err < 1e-3)
    _pin(errors, "charge_drift", summary["charge_drift"], summary["charge_drift"] < 1e-8)
    _pin(errors, "final_time", summary["final_time"],
         abs(summary["final_time"] - DISPERSION_T) < 1e-9)
    # energy_drift is not pinned: --linear runs report the nonlinear energy (NOTES.md)
    return errors, {"ref_error": err}


def _ground_state_check(ref: tuple[float, float], tol: float):
    lam, j = ref

    def check(outdir: Path) -> tuple[list, dict]:
        summary = _read(outdir, "ground_state_summary.json")
        errors: list = []
        _pin(errors, "residual", summary["residual"], summary["residual"] < tol)
        _pin(errors, "lambda", summary["lambda"], abs(summary["lambda"] - lam) < LAMBDA_ATOL)
        _pin(errors, "J", summary["J"], abs(summary["J"] - j) < J_ATOL)
        return errors, {}

    return check


def _passed_check(filename: str, count_key: str | None = None, count: int = 0):
    def check(outdir: Path) -> tuple[list, dict]:
        report = _read(outdir, filename)
        errors: list = []
        _pin(errors, "passed", report["passed"], report["passed"] is True)
        if count_key is not None:
            _pin(errors, count_key, report[count_key], report[count_key] == count)
        return errors, {}

    return check


def _stability_task(grid, tol, deltas, kind, T, dt, check) -> Task:
    steps = len(deltas) * 100 * max(1, int(round(T / (100 * dt))))  # CLI samples 100 times
    argv = ("stability", *P33, *grid, "--seed", "0", "--tol", repr(tol),
            "--delta", *map(repr, deltas), "--kind", kind, "--T", repr(T), "--dt", repr(dt))
    return Task("stability", argv, check, steps=steps)


def _evolve_task(grid, dt, steps, check) -> Task:
    argv = ("evolve", *P33, *grid, "--seed", "0", "--dt", repr(dt), "--steps", str(steps),
            "--scheme", "crank-nicolson", "--linear")
    return Task("evolve", argv, check, steps=steps)


def _ground_state_task(grid, N, q, gamma, tol, check) -> Task:
    argv = ("ground-state", "--N", str(N), "--q", repr(q), "--gamma", repr(gamma), *grid,
            "--seed", "0", "--tol", repr(tol), "--max-iter", "50000")
    return Task("ground-state", argv, check, ground_states=1)


def _check_tasks(grid, samples: int, seeds) -> list:
    hardy, ckn, ihs = (int(s) for s in seeds)
    common = (*P33, *grid, "--samples", str(samples))
    return [
        Task("check-hardy", ("check", "hardy", *common, "--seed", str(hardy)),
             _passed_check("check_hardy.json", "n_samples", samples), samples=samples),
        Task("check-ckn", ("check", "ckn", *common, "--seed", str(ckn)),
             _passed_check("check_ckn.json", "n_samples", samples), samples=samples),
        Task("check-ihs", ("check", "ihs", *common, "--seed", str(ihs),
                           "--h-kind", "piecewise-quadratic"),
             _passed_check("check_ihs.json", "n_samples", samples), samples=samples),
        Task("check-weight", ("check", "weight", *P33, *grid, "--seed", "0",
                              "--omega-zero", "0", "--omega-inf", "-2"),
             _passed_check("check_weight.json")),
    ]


def _kelvin_task(n: int, samples: int, seed: int) -> Task:
    argv = ("kelvin-verify", "--N", "3", "--n", str(n), "--r-min", "1e-5", "--r-max", "1e5",
            "--seed", str(seed), "--samples", str(samples))
    return Task("kelvin-verify", argv, _passed_check("kelvin_verify.json", "samples", samples),
                samples=samples)


def orbital_round(rng: np.random.Generator) -> list:
    """Criterion-7 stability run: three deltas around the computed standing wave."""
    kind = KINDS[int(rng.integers(len(KINDS)))]
    deltas = tuple(float(d) for d in rng.permutation(ORBITAL_DELTAS))
    return [_stability_task(DEFAULT_GRID, ORBITAL_TOL, deltas, kind, ORBITAL_T, ORBITAL_DT,
                            _check_stability)]


def dispersion_round(rng: np.random.Generator) -> list:
    """Free propagation of the Gaussian at three step sizes, against the closed form."""
    grid = ("--n", "2048", *DEFAULT_GRID[2:])
    tasks = [_evolve_task(grid, dt, int(round(DISPERSION_T / dt)), _check_evolve)
             for dt in DISPERSION_DTS]
    return [tasks[i] for i in rng.permutation(len(tasks))]


def survey_round(rng: np.random.Generator) -> list:
    """Ground-state sweep over (N, q, gamma) plus the sampled checkers and Kelvin checks."""
    tasks = [_ground_state_task(SURVEY_GRID, N, q, gamma, SURVEY_TOL,
                                _ground_state_check(ref, SURVEY_TOL))
             for (N, q, gamma), ref in SURVEY_REFS.items()]
    seeds = rng.integers(0, 2**31, size=4)
    tasks += _check_tasks(DEFAULT_GRID, CHECK_SAMPLES, seeds[:3])
    tasks.append(_kelvin_task(4096, KELVIN_SAMPLES, int(seeds[3])))
    return [tasks[i] for i in rng.permutation(len(tasks))]


def _no_check(outdir: Path) -> tuple[list, dict]:
    return [], {}


# Small tasks that load every code path a workload's timed tasks use.
WARMUP = {
    "orbital": lambda: [_stability_task(TINY_GRID, 1e-6, (1e-2,), "radial-bump", 0.02, 2e-3,
                                        _no_check)],
    "dispersion": lambda: [_evolve_task(("--n", "256", *DEFAULT_GRID[2:]), 1e-3, 20,
                                        _no_check)],
    "survey": lambda: [_ground_state_task(TINY_GRID, 3, 3.0, 1.0, 1e-6, _no_check),
                       *_check_tasks(TINY_GRID, 2, (1, 2, 3)),
                       _kelvin_task(512, 2, 4)],
}

ROUNDS = {"orbital": orbital_round, "dispersion": dispersion_round, "survey": survey_round}
