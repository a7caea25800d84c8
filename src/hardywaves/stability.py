"""Orbit-distance tracking for perturbed standing waves.

The minimiser set is represented by the phase orbit of the computed profile
(no uniqueness result is available, and phase rotations are the only
elements of the orbit exhibited explicitly), so the distance is

    dist(v, orbit)^2 = min_theta ||v - e^{i theta} v_g||_H^2
                     = ||v||_H^2 + ||v_g||_H^2 - 2 |<v, v_g>_H| ,

with the optimal phase theta* = arg <v, v_g>_H in the complex energy inner
product (Dirichlet + weighted mass).

A stability run has one problem, the wave's: perturbation, evolution and
orbit distance all run on the operator the wave was solved on.  The runs of
one wave share nothing they write, so ``_experiments`` runs the first here
and may hand the rest to forked worker processes, which die with this
process; each run gives the bits it gives alone.
"""

from __future__ import annotations

import ctypes
import functools
import os
import signal
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .evolve import _MAX_STEPS, _checkpoints, _start
from .groundstate import StandingWave, _renormalize
from .operators import RadialOperator
from .radial import Field

__all__ = ["StabilityRun", "orbit_distance", "stability_experiment", "PERTURBATION_KINDS"]

PERTURBATION_KINDS = ("radial-bump", "phase-ramp", "mass-preserving-deformation")
_SAMPLES = 100  # orbit-distance samples per run


@dataclass(frozen=True, eq=False)
class StabilityRun:
    """Orbit distance and conservation drifts sampled along one run."""

    delta: float
    times: np.ndarray
    distances: np.ndarray
    charge_drift: np.ndarray
    energy_drift: np.ndarray

    def __post_init__(self):
        names = ("times", "distances", "charge_drift", "energy_drift")
        for name in names:
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if len({getattr(self, name).shape for name in names}) > 1:
            raise ParameterError("stability run arrays must share one length")
        if np.any(self.distances < 0.0):
            raise ParameterError("orbit distances cannot be negative")

    def __reduce__(self):  # unpickled through __post_init__, so the arrays stay read-only
        return type(self), (
            self.delta, self.times, self.distances, self.charge_drift, self.energy_drift
        )

    @property
    def max_distance(self) -> float:
        return float(np.max(self.distances))


def orbit_distance(v: Field, sw: StandingWave) -> float:
    """Distance from v to the phase orbit of the standing wave, in the
    energy norm.

    The optimal phase is theta* = arg <v, v_g>_H, in closed form, with
    <v, v_g>_H = N omega_N v . (K + M) v_g; the norm of the explicit
    difference v - e^{i theta*} v_g then avoids the catastrophic
    cancellation of the expanded formula near the orbit.
    """
    op = sw.op
    return _distance(op, op.check_field(v), sw.v.values, _h_apply(op, sw.v.values))


def _h_apply(op: RadialOperator, b: np.ndarray) -> np.ndarray:
    """(K + M) b, which takes <a, b>_H in one dot product with a."""
    return op.stiffness_apply(b) + op.mass_diag * b


def _distance(op: RadialOperator, a: np.ndarray, b: np.ndarray, hb: np.ndarray) -> float:
    """``orbit_distance`` of the nodal values a from the orbit of b, for
    hb = ``_h_apply(op, b)``."""
    inner = np.vdot(hb, a)  # <a, b>_H / (N omega_N): the positive factor leaves the phase
    phase = np.exp(1j * np.angle(inner)) if inner != 0.0 else 1.0
    return float(np.sqrt(op.h_norm_sq(a - phase * b)))


def _perturbation(kind: str, op: RadialOperator, v_wave: np.ndarray) -> np.ndarray:
    r = op.grid.nodes
    if kind == "radial-bump":
        return np.exp(-((r - 2.0) ** 2)).astype(complex)
    if kind == "phase-ramp":
        # tangent to the orbit family but r-dependent, so genuinely off-orbit
        ramp = np.tanh(np.log(r / r[op.grid.n // 2]))
        return 1j * ramp * v_wave
    if kind == "mass-preserving-deformation":
        bump = np.exp(-((r - 2.0) ** 2)).astype(complex)
        overlap = op.mass_inner(bump, v_wave.astype(complex))
        return bump - (overlap / op.mass(v_wave)) * v_wave
    raise ParameterError(f"unknown perturbation kind {kind!r}; choose from {PERTURBATION_KINDS}")


def perturbed_field(sw: StandingWave, delta: float, kind: str) -> Field:
    """Standing wave plus a delta-sized energy-norm perturbation, renormalised
    back to mass gamma (the beta-normalisation device).  A delta whose
    perturbed mass is not finite and positive is a ParameterError."""
    op = sw.op
    v_wave = np.real(sw.v.values)
    v = v_wave.astype(complex)
    if delta != 0.0:
        pert = _perturbation(kind, op, v_wave)
        h_norm = np.sqrt(op.h_norm_sq(pert))
        if h_norm == 0.0:
            raise ParameterError(f"perturbation kind {kind!r} degenerates on this wave")
        v = v + (delta / h_norm) * pert
        with np.errstate(over="ignore"):  # reported by the error below
            mass = op.mass(v)
        if not 0.0 < mass < np.inf:  # an overflow would renormalise the field to zero
            raise ParameterError(f"delta = {delta} gives the perturbed field mass {mass}")
    return sw.v.with_values(_renormalize(op, v, sw.gamma))


def check_run(deltas, T: float, dt: float) -> None:
    """Raise ParameterError unless the perturbation sizes are a nonempty
    list of numbers >= 0, the final time T and the step dt are finite and
    positive, and T / dt is at most 1e9, which bounds a run's step count."""
    if not deltas or not all(delta >= 0.0 for delta in deltas):
        raise ParameterError(f"delta must be a nonempty list of numbers >= 0, got {deltas}")
    if not 0.0 < T < np.inf:
        raise ParameterError(f"final time T must be finite and positive, got {T}")
    if not 0.0 < dt < np.inf:
        raise ParameterError(f"time step must be finite and positive, got {dt}")
    if not T / dt <= _MAX_STEPS:  # an overflow to inf fails here too
        raise ParameterError(
            f"T / dt must be finite and at most {_MAX_STEPS:.0e}, got T = {T}, dt = {dt}"
        )


def stability_experiment(
    sw: StandingWave,
    delta: float,
    perturbation_kind: str = "radial-bump",
    T: float = 20.0,
    dt: float = 1e-3,
) -> StabilityRun:
    """Perturb the wave, evolve it on its own operator to time T, and sample
    the orbit distance, in its energy norm, at 100 uniformly spaced times."""
    check_run([delta], T, dt)
    sw.params.require_subcritical("stability experiments")
    op, wave = sw.op, sw.v.values
    start = _start(op, perturbed_field(sw, delta, perturbation_kind))
    steps_per_sample = max(1, int(round(T / (_SAMPLES * dt))))
    chunks = [steps_per_sample] * _SAMPLES
    h_wave = _h_apply(op, wave)
    samples = [
        (state.time, _distance(op, state.v.values, wave, h_wave), charge_drift, energy_drift)
        for state, _, _, charge_drift, energy_drift in _checkpoints(start, dt, chunks)
    ]
    times, distances, charge_drift, energy_drift = np.array(samples).T
    return StabilityRun(
        delta=delta,
        times=times,
        distances=distances,
        charge_drift=charge_drift,
        energy_drift=energy_drift,
    )


def _experiments(sw: StandingWave, deltas, kind: str, T: float, dt: float) -> list[StabilityRun]:
    """``stability_experiment`` of the wave for each delta, in delta order.

    With more than one delta, when this process can fork safely (it knows
    its CPU affinity, Linux, has more than one usable CPU and one Python
    thread), the deltas after the first go to a pool of forked worker
    processes, at most one per usable CPU, and this process runs the first
    meanwhile.  Otherwise all run here, one after another.  The wave
    reaches the workers through the fork, unpickled, so a worker computes
    its run as this process would and both places give the same bits.  A
    failure raises the first failing delta's exception and, like an
    interrupt, kills the workers; a worker also dies when this process does.
    """
    run = functools.partial(stability_experiment, sw, perturbation_kind=kind, T=T, dt=dt)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(deltas) - 1, cpus)
    if cpus < 2 or workers < 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [run(delta) for delta in deltas]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    fork = multiprocessing.get_context("fork")  # by name: Python 3.14 changed the default
    with ProcessPoolExecutor(max_workers=workers, mp_context=fork, initializer=_adopt,
                             initargs=(run, os.getpid())) as pool:
        try:
            futures = [pool.submit(_run_adopted, delta) for delta in deltas[1:]]
            return [run(deltas[0]), *(future.result() for future in futures)]
        except BaseException:  # KeyboardInterrupt too: shutdown would wait for running runs
            for worker in list(pool._processes.values()):  # Python 3.14 has pool.kill_workers()
                worker.kill()
            raise


_adopted = None  # a worker's run, set through the fork
_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def _adopt(run, parent: int) -> None:
    """Worker initializer: keep the run, and on Linux have the kernel
    SIGKILL this worker when its parent dies (a parent that dies before
    the request leaves the worker adopted, so it exits at once)."""
    global _adopted
    _adopted = run
    if sys.platform.startswith("linux"):
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != parent:
            os._exit(1)


def _run_adopted(delta: float) -> StabilityRun:
    return _adopted(delta)
