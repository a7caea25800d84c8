"""Time propagation in the transformed variable, where the critical
inverse-square potential is absorbed:

    i v_t + (1/r)(r v')' + r^{-(q-2)(N-2)/2} g |v|^{q-2} v = 0 .

The scheme is Crank-Nicolson with a fixed-point iteration on the midpoint
potential.  Each step is a Cayley transform of a real symmetric pencil,
hence exactly unitary in the discrete weighted inner product; charge is
conserved to solver roundoff and energy to O(dt^2) without secular growth.
The stage is solved in midpoint form: the iterate is the midpoint
y = (v_n + v_{n+1}) / 2, each solve's right-hand side is M v_n, built once
per step, and v_{n+1} = 2 y - v_n, so no K v_n term is formed.
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
it.  On a perturbed standing wave this takes one Cayley solve per step
at delta = 0 (301 for 300 steps at dt = 2e-3; the iteration measures
eta only on the first step) and two at delta = 1e-3 and 1e-2, where the
plain test needs three.  An update of y is half the update of v_{n+1},
so the tolerance applies to twice the M-norm of the update of y.  The
last two fields and eta_old travel with the state, so chained
``propagate`` calls iterate across chunk boundaries exactly as one long
call does.

The operator is the one record of a run's problem: ``initial_state``
assembles it, the state carries it, and every step reads it, so a linear
run factors its fixed Crank-Nicolson matrix once per dt and each linear
step back-substitutes M v_n.  A nonlinear step writes its work arrays into
the operator's stage workspace (``operators``), made by the first step and
reused by every later one and across ``propagate`` calls; only each solve's
result is fresh, and the step forms v_{n+1} = 2 y - v_n in the last one.
So states that share an operator must not be propagated concurrently.

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


@dataclass(frozen=True, eq=False)
class EvolutionState:
    """Complex field at one instant, with its conserved-quantity baselines.

    ``op`` is the operator of the state's problem, which every step uses.
    ``history`` holds the field values of the last two steps, newest first,
    and ``eta`` the midpoint iteration's last contraction estimate
    theta / (1 - theta), made at step size ``eta_dt``; they only seed the
    next step's iteration and are never written out.
    """

    v: Field
    time: float
    charge0: float
    energy0: float
    op: RadialOperator = field(repr=False)
    history: tuple = field(default=(), repr=False)
    eta: float = field(default=1.0, repr=False)
    eta_dt: float = field(default=0.0, repr=False)


def initial_state(v: Field, params: Params) -> EvolutionState:
    """Wrap initial data of the problem ``params``, recording charge and
    energy baselines; the state carries the problem's operator."""
    return _start(RadialOperator(v.grid, params), v)


def _start(op: RadialOperator, v: Field) -> EvolutionState:
    """Initial state of v on an operator that is already assembled."""
    vals = op.check_field(v).astype(complex)
    return EvolutionState(
        v=v.with_values(vals), time=0.0, charge0=op.mass(vals), energy0=op.energy(vals), op=op
    )


def invariants(state: EvolutionState) -> tuple[float, float]:
    """(charge, energy) of the current field: mu-mass and E_g of its problem."""
    vals = state.op.check_field(state.v)
    return state.op.mass(vals), state.op.energy(vals)


def propagate(
    state: EvolutionState, dt: float, steps: int, nonlinear: bool = True
) -> EvolutionState:
    """Advance the state by ``steps`` Crank-Nicolson steps of size dt, on
    the state's own operator.

    ``nonlinear=False`` disables the q-term, leaving the free 2D radial
    propagator (useful against the closed-form dispersing Gaussian).  The
    returned state carries the same operator, so chaining calls keeps its
    factored linear stage.
    """
    if not 0.0 < dt < np.inf:
        raise ParameterError(f"time step must be finite and positive, got {dt}")
    if steps < 0:
        raise ParameterError(f"step count must be nonnegative, got {steps}")
    op = state.op
    if nonlinear:
        op.params.require_subcritical("nonlinear propagation")
    v = op.check_field(state.v).astype(complex, copy=False)
    history = state.history
    # the contraction ratio grows with dt, so an estimate from another dt is void
    eta = state.eta if state.eta_dt == dt else 1.0
    # charge is conserved to roundoff, so the baseline sets the tolerance scale
    scale = max(1.0, np.sqrt(state.charge0))
    for k in range(1, steps + 1):
        if nonlinear:
            v_new, eta = _cn_step(op, v, dt, history, eta, scale)
        else:
            v_new = 2.0 * op.solve_cayley(None, op.mass_diag * v, dt) - v
        history = (v, *history[:1])
        v = v_new
        if not np.all(np.isfinite(v)):
            raise BlowupError(f"non-finite field after step {k}, t={state.time + k * dt}")
    return replace(
        state,
        v=state.v.with_values(v),
        time=state.time + dt * steps,
        history=history,
        eta=eta,
        eta_dt=dt,
    )


def _checkpoints(state: EvolutionState, dt: float, chunks, nonlinear=True):
    """Yield (state, charge, energy, charge drift, energy drift) after each chunk of steps.

    The drifts are |c - c_0| / c_0 and |E - E_0| / max(|E_0|, 1e-300).
    """
    energy_scale = max(abs(state.energy0), 1e-300)
    for steps in chunks:
        state = propagate(state, dt, steps, nonlinear=nonlinear)
        charge, energy = invariants(state)
        charge_drift = abs(charge - state.charge0) / state.charge0
        yield state, charge, energy, charge_drift, abs(energy - state.energy0) / energy_scale


def _extrapolate(v: np.ndarray, history: tuple, out: np.ndarray, scratch: np.ndarray) -> None:
    """Write the guess for the next field, from the current one and up to two
    before it, into ``out``; ``scratch`` is overwritten."""
    if len(history) == 2:
        np.multiply(3.0, v, out=out)
        np.subtract(out, np.multiply(3.0, history[0], out=scratch), out=out)
        np.add(out, history[1], out=out)
    elif len(history) == 1:
        np.multiply(2.0, v, out=out)
        np.subtract(out, history[0], out=out)
    else:
        out[...] = v


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
    work = op._stage_work()
    mv, potential, diff, m_diff = work.mv, work.potential, work.diff, work.m_diff
    np.multiply(op.mass_diag, v, out=mv)
    y = work.midpoint
    _extrapolate(v, history, y, diff)
    np.multiply(0.5, np.add(v, y, out=y), out=y)
    eta = max(eta_old, _ETA_MIN) ** _ETA_EXP
    err = theta = None
    for _ in range(_FP_MAX):
        np.abs(y, out=potential)
        potential **= q - 2.0
        np.multiply(op.w_sing, potential, out=potential)
        # a fresh array, never the workspace, so it can become v_{n+1}
        y_new = op.solve_cayley(potential, mv, dt)
        np.subtract(y_new, y, out=diff)
        np.multiply(op.mass_diag, diff, out=m_diff)
        err_old, err = err, float(np.sqrt(4.0 * op.sphere * np.vdot(diff, m_diff).real))
        y = y_new
        if err_old is not None:
            theta = err / err_old
            # without contraction there is no estimate, and only err < tol stops
            eta = theta / (1.0 - theta) if theta < 1.0 else np.inf
        if err < tol or eta * err <= _KAPPA * tol:
            np.multiply(2.0, y, out=y)
            return np.subtract(y, v, out=y), eta
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
