"""Time propagation in the transformed variable, where the critical
inverse-square potential is absorbed:

    i v_t + (1/r)(r v')' + r^{-(q-2)(N-2)/2} g |v|^{q-2} v = 0 .

The scheme is Crank-Nicolson with a fixed-point iteration on the midpoint
potential.  Each step is a Cayley transform of a real symmetric pencil,
hence exactly unitary in the discrete weighted inner product; charge is
conserved to solver roundoff and energy to O(dt^2) without secular growth.
(Strang splitting is not offered: at the singular weight its energy blows
up, from 1.25 to 2e5 by t = 0.5 for a Gaussian on the default grid.)

The midpoint iteration of a Crank-Nicolson step starts from the
extrapolation 3 v_n - 3 v_{n-1} + v_{n-2} of the last three fields (the
linear 2 v_n - v_{n-1} after one step, v_n on the first).  It stops when
the update falls below the tolerance, or earlier on the error estimate of
the simplified-Newton stopping rule (Hairer & Wanner, Solving Ordinary
Differential Equations II, IV.8): with the contraction ratio
theta_k = err_k / err_{k-1} of successive updates and
eta_k = theta_k / (1 - theta_k), the distance of the iterate from the
fixed point is about eta_k err_k, and the iteration stops once that is
below a tenth of the tolerance.  The first update of a step has no ratio
yet and uses eta_0 = max(eta_old, 2.2e-16)^0.8, where eta_old is the
last eta of the previous step (1 before any, and after a change of dt):
a step that stops after one solve passes eta_0 on, so an estimate that is
not measured again drifts back toward 1 until the iteration re-measures
it.  On a perturbed standing wave this takes about 1.14 Cayley solves
per step at delta = 0 and two at delta = 1e-3 and 1e-2, where the plain
test needs three.  The last two fields and eta_old travel with the
state, so chained ``propagate`` calls iterate across chunk boundaries
exactly as one long call does.  The potential-free part of the
right-hand side is built once per step.

Linear Crank-Nicolson has a fixed matrix, which the operator factors once
per dt.  The operator rides on the state, so chained ``propagate`` calls
of a run share one assembly and keep the factors for the whole run.

Boundary conditions: reflecting ghost at the origin end (v'(0) = 0),
zero beyond r_max.  No absorbing layer is attached at r_max; keep runs
short enough that radiation does not reach the outer boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BlowupError, ParameterError, StepError
from .operators import RadialOperator
from .radial import Field, Params

__all__ = ["EvolutionState", "initial_state", "propagate", "invariants"]

_FP_TOL = 1e-12
_FP_MAX = 50
# error-estimate stop of the midpoint iteration: safety factor on the
# tolerance, exponent on the previous step's eta, and its floor
_KAPPA = 0.1
_ETA_EXP = 0.8
_ETA_MIN = 2.2e-16


@dataclass(frozen=True)
class EvolutionState:
    """Complex field at one instant, with its conserved-quantity baselines.

    ``op`` is the operator the state was last built or advanced with.
    ``history`` holds the field values of the last two steps, newest first,
    and ``eta`` the midpoint iteration's last contraction estimate
    theta / (1 - theta), made at step size ``eta_dt``; they only seed the
    next step's iteration and are never written out.
    """

    v: Field
    time: float
    charge0: float
    energy0: float
    op: RadialOperator = field(repr=False, compare=False)
    history: tuple = field(default=(), repr=False, compare=False)
    eta: float = field(default=1.0, repr=False, compare=False)
    eta_dt: float = field(default=0.0, repr=False, compare=False)


def initial_state(v: Field, params: Params) -> EvolutionState:
    """Wrap initial data, recording charge and energy baselines."""
    op = RadialOperator(v.grid, params)
    vals = op.check_field(v).astype(complex)
    return EvolutionState(
        v=v.with_values(vals),
        time=0.0,
        charge0=op.mass(vals),
        energy0=op.energy(vals),
        op=op,
    )


def invariants(state: EvolutionState, params: Params) -> tuple[float, float]:
    """(charge, energy) of the current field: mu-mass and E_g."""
    op = _operator(state, params)
    vals = op.check_field(state.v)
    return op.mass(vals), op.energy(vals)


def propagate(
    state: EvolutionState,
    params: Params,
    dt: float,
    steps: int,
    nonlinear: bool = True,
) -> EvolutionState:
    """Advance the state by ``steps`` Crank-Nicolson steps of size dt.

    ``nonlinear=False`` disables the q-term, leaving the free 2D radial
    propagator (useful against the closed-form dispersing Gaussian).  The
    returned state carries the operator used, so chaining calls keeps its
    factored linear stage.
    """
    if dt <= 0.0:
        raise ParameterError(f"time step must be positive, got {dt}")
    if nonlinear:
        params.require_subcritical("nonlinear propagation")
    op = _operator(state, params)
    v = op.check_field(state.v).astype(complex)
    history = state.history
    # the contraction ratio grows with dt, so an estimate from another dt is void
    eta = state.eta if state.eta_dt == dt else 1.0
    # charge is conserved to roundoff, so the baseline sets the tolerance scale
    scale = max(1.0, np.sqrt(state.charge0))
    for k in range(steps):
        if not np.all(np.isfinite(v)):
            raise BlowupError(f"non-finite field at step {k}, t={state.time + k * dt}")
        if nonlinear:
            v_new, eta = _cn_step(op, v, dt, history, eta, scale)
        else:
            v_new = op.solve_cayley(None, v, dt)
        history = (v, *history[:1])
        v = v_new
    if not np.all(np.isfinite(v)):
        raise BlowupError(f"non-finite field after {steps} steps")
    return replace(
        state,
        v=state.v.with_values(v),
        time=state.time + dt * steps,
        history=history,
        eta=eta,
        eta_dt=dt,
        op=op,
    )


def _checkpoints(state: EvolutionState, params: Params, dt: float, chunks, nonlinear=True):
    """Yield (state, charge, energy, charge drift, energy drift) after each chunk of steps.

    The drifts are |c - c_0| / c_0 and |E - E_0| / max(|E_0|, 1e-300).
    """
    energy_scale = max(abs(state.energy0), 1e-300)
    for steps in chunks:
        state = propagate(state, params, dt, steps, nonlinear=nonlinear)
        charge, energy = invariants(state, params)
        charge_drift = abs(charge - state.charge0) / state.charge0
        yield state, charge, energy, charge_drift, abs(energy - state.energy0) / energy_scale


def _operator(state: EvolutionState, params: Params) -> RadialOperator:
    """The state's operator if it was built for params, else a new one."""
    return state.op if state.op.params == params else RadialOperator(state.v.grid, params)


def _extrapolate(v: np.ndarray, history: tuple) -> np.ndarray:
    """Guess for the next field from the current one and up to two before it."""
    if len(history) == 2:
        return 3.0 * v - 3.0 * history[0] + history[1]
    if len(history) == 1:
        return 2.0 * v - history[0]
    return v


def _cn_step(
    op: RadialOperator, v: np.ndarray, dt: float, history: tuple, eta_old: float, scale: float
) -> tuple[np.ndarray, float]:
    """One nonlinear Crank-Nicolson step.

    Returns v_{n+1} and the step's last eta, which seeds the next step:
    the measured one, or eta_0 when the step stopped after one solve, so
    that a run of one-solve steps drifts back toward 1 and measures the
    contraction again.
    """
    q = op.params.q
    tol = _FP_TOL * scale
    rhs = op.cayley_rhs(v, dt)
    v_next = _extrapolate(v, history)
    eta = max(eta_old, _ETA_MIN) ** _ETA_EXP
    err = theta = None
    for _ in range(_FP_MAX):
        v_mid = 0.5 * (v + v_next)
        potential = op.w_sing * np.abs(v_mid) ** (q - 2.0)
        v_new = op.solve_cayley(potential, v, dt, rhs)
        diff = v_new - v_next
        err_old, err = err, float(np.sqrt(op.sphere * np.vdot(diff, op.mass_diag * diff).real))
        v_next = v_new
        if err_old is not None:
            theta = err / err_old
            # without contraction there is no estimate, and only err < tol stops
            eta = theta / (1.0 - theta) if theta < 1.0 else np.inf
        if err < tol or eta * err <= _KAPPA * tol:
            return v_next, eta
    raise StepError(
        "Crank-Nicolson midpoint iteration did not converge",
        diagnostics={
            "dt": dt,
            "iterations": _FP_MAX,
            "last_update": err,
            "theta": theta,
            "tolerance": tol,
        },
    )
