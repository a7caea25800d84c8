"""Orbit-distance tracking for perturbed standing waves.

The minimiser set is represented by the phase orbit of the computed profile
(no uniqueness result is available, and phase rotations are the only
elements of the orbit exhibited explicitly), so the distance is

    dist(v, orbit)^2 = min_theta ||v - e^{i theta} v_g||_H^2
                     = ||v||_H^2 + ||v_g||_H^2 - 2 |<v, v_g>_H| ,

with the optimal phase theta* = arg <v, v_g>_H in the complex energy inner
product (Dirichlet + weighted mass).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .evolve import _checkpoints, initial_state
from .groundstate import StandingWave, _renormalize
from .operators import RadialOperator
from .radial import Field, Params

__all__ = ["StabilityRun", "orbit_distance", "stability_experiment", "PERTURBATION_KINDS"]

PERTURBATION_KINDS = ("radial-bump", "phase-ramp", "mass-preserving-deformation")
_SAMPLES = 100  # orbit-distance samples per run


@dataclass(frozen=True)
class StabilityRun:
    """Orbit distance and conservation drifts sampled along one run."""

    delta: float
    times: np.ndarray
    distances: np.ndarray
    charge_drift: np.ndarray
    energy_drift: np.ndarray

    def __post_init__(self):
        for name in ("times", "distances", "charge_drift", "energy_drift"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (
            self.times.shape
            == self.distances.shape
            == self.charge_drift.shape
            == self.energy_drift.shape
        ):
            raise ParameterError("stability run arrays must share one length")
        if np.any(self.distances < 0.0):
            raise ParameterError("orbit distances cannot be negative")

    @property
    def max_distance(self) -> float:
        return float(np.max(self.distances))


def orbit_distance(v: Field, sw: StandingWave) -> float:
    """Distance from v to the phase orbit of the standing wave, in the
    energy norm.

    The optimal phase is theta* = arg <v, v_g>_H, in closed form; the norm
    of the explicit difference v - e^{i theta*} v_g then avoids the
    catastrophic cancellation of the expanded formula near the orbit.
    """
    op = sw.op
    a = op.check_field(v).astype(complex)
    b = sw.v.values.astype(complex)
    inner = op.h_inner(a, b)
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
    back to mass gamma (the beta-normalisation device)."""
    op = sw.op
    v_wave = np.real(sw.v.values)
    v = v_wave.astype(complex)
    if delta != 0.0:
        pert = _perturbation(kind, op, v_wave)
        h_norm = np.sqrt(op.h_norm_sq(pert))
        if h_norm == 0.0:
            raise ParameterError(f"perturbation kind {kind!r} degenerates on this wave")
        v = v + (delta / h_norm) * pert
    return sw.v.with_values(_renormalize(op, v, sw.gamma))


def stability_experiment(
    params: Params,
    sw: StandingWave,
    delta: float,
    perturbation_kind: str = "radial-bump",
    T: float = 20.0,
    dt: float = 1e-3,
) -> StabilityRun:
    """Perturb, evolve to time T, and sample the orbit distance, in the
    wave's own energy norm, at 100 uniformly spaced times."""
    if delta < 0.0:
        raise ParameterError("perturbation size must be nonnegative")
    params.require_subcritical("stability experiments")
    start = initial_state(perturbed_field(sw, delta, perturbation_kind), params)
    steps_per_sample = max(1, int(round(T / (_SAMPLES * dt))))
    chunks = [steps_per_sample] * _SAMPLES
    samples = [
        (state.time, orbit_distance(state.v, sw), charge_drift, energy_drift)
        for state, _, _, charge_drift, energy_drift in _checkpoints(start, params, dt, chunks)
    ]
    times, distances, charge_drift, energy_drift = np.array(samples).T
    return StabilityRun(
        delta=delta,
        times=times,
        distances=distances,
        charge_drift=charge_drift,
        energy_drift=energy_drift,
    )
