"""Time propagation in the transformed variable, where the critical
inverse-square potential is absorbed:

    i v_t + (1/r)(r v')' + r^{-(q-2)(N-2)/2} g |v|^{q-2} v = 0 .

The scheme is Crank-Nicolson in midpoint form: y = (v_n + v_{n+1}) / 2
solves (M + i dt/2 (K - M P(y))) y = M v_n, P(y) = r^{-(q-2)(N-2)/2} g |y|^{q-2},
and v_{n+1} = 2 y - v_n, so no K v_n term is formed.  At that fixed point
a step is a Cayley transform of a real symmetric pencil, hence unitary in
the discrete weighted inner product: charge is conserved to the
fixed-point tolerance and energy to O(dt^2) without secular growth.
(Strang splitting is not offered: at the singular weight its energy blows
up, from 1.25 to 2e5 by t = 0.5 for a Gaussian on the default grid.)

The fixed point is found by simplified Newton (Hairer & Wanner, Solving
Ordinary Differential Equations II, IV.8): A_ref = M + i dt/2 (K - M P_ref)
is factored once, and each iterate back-substitutes
y_{k+1} = A_ref^{-1} (M v_n + i dt/2 M (P(y_k) - P_ref) y_k).  P_ref is P of
the field at the run's first nonlinear step at that dt (0 for a linear run,
where one solve is exact).  On a perturbed standing wave P(y) - P_ref is of
the order of the perturbation, and the iteration contracts as fast as with
a fresh matrix per solve.  Off the orbit P drifts from P_ref and the
contraction ratio theta grows; after a step that ends with theta > 1e-3
the next refactors at its field, RADAU5's rule for its Jacobian.  The
iteration starts from the extrapolation 3 v_n - 3 v_{n-1} + v_{n-2} of the
last three fields (2 v_n - v_{n-1} after one step, v_n on the first).  It
stops when the update err_k falls below the tolerance, or once
eta_k err_k, the estimated distance from the fixed point, is below a tenth
of it, with theta_k = err_k / err_{k-1} and eta_k = theta_k / (1 - theta_k).
The first update of a step has no ratio and uses
eta_0 = max(eta_old, 2.2e-16)^0.8 of the previous step's last eta (1
before any, and after a change of dt), so an estimate that is not measured
again drifts back toward 1 until the iteration re-measures it.  On a
perturbed standing wave this takes one solve per step at delta = 0 (301
for 300 steps at dt = 2e-3) and two at delta = 1e-3 and 1e-2, where the
plain test needs three.  An update of y is half that of v_{n+1}, so the
tolerance applies to twice the M-norm of the update of y.  The last two
fields, eta_old and the stage (the factors of A_ref and P_ref) travel with
the state, so chained ``propagate`` calls iterate across chunk boundaries
exactly as one long call does; a change of dt or of ``nonlinear`` factors
anew.

The state carries its problem's operator, which ``initial_state``
assembles and every step reads.  A nonlinear step writes its work arrays
into the operator's stage workspace (``operators``); only each solve's
result is fresh, and it becomes v_{n+1}.  So states that share an operator
must not be propagated concurrently.

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
# tolerance, exponent on the previous step's eta, and its floor; and the
# contraction ratio above which a step refactors the stage
_KAPPA = 0.1
_ETA_EXP = 0.8
_ETA_MIN = 2.2e-16
_THETA_MAX = 1e-3


@dataclass(frozen=True, eq=False)
class EvolutionState:
    """Complex field at one instant, with its conserved-quantity baselines.

    ``op`` is the operator of the state's problem, which every step uses.
    ``history`` holds the field values of the last two steps, newest first,
    ``stage`` (dt, nonlinear, factors of A_ref, P_ref) of the last step, or
    (dt,) if the next is to refactor, and ``eta`` their midpoint iteration's
    last estimate theta / (1 - theta); they only seed the next steps and
    are never written out.
    """

    v: Field
    time: float
    charge0: float
    energy0: float
    op: RadialOperator = field(repr=False)
    history: tuple = field(default=(), repr=False)
    eta: float = field(default=1.0, repr=False)
    stage: tuple = field(default=(), repr=False)


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
    returned state carries the same operator and the factored stage, so
    chaining calls at one dt factors once.
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
    stage = state.stage
    # the contraction ratio grows with dt, so an estimate from another dt is void
    eta = state.eta if stage[:1] == (dt,) else 1.0
    # charge is conserved, so its baseline sets the scale of the fixed-point tolerance
    scale = max(1.0, np.sqrt(state.charge0))
    for k in range(1, steps + 1):
        if stage[:2] != (dt, nonlinear):
            p_ref = op.w_sing * np.abs(v) ** (op.params.q - 2.0) if nonlinear else None
            stage = (dt, nonlinear, op.cayley_factors(dt, p_ref), p_ref)
        if nonlinear:
            v_new, theta, eta = _cn_step(op, v, stage, history, eta, scale)
            if theta > _THETA_MAX:
                stage = stage[:1]  # the next step refactors at its own field
        else:
            v_new = 2.0 * op.solve_cayley(stage[2], op.mass_diag * v) - v
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
        stage=stage,
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
    op: RadialOperator, v: np.ndarray, stage: tuple, history: tuple, eta_old: float, scale: float
) -> tuple[np.ndarray, float, float]:
    """One nonlinear Crank-Nicolson step.

    Returns v_{n+1}, the step's last theta (0 after one solve) and its
    last eta, which seeds the next step: the measured one, or eta_0 after
    one solve, so that a run of one-solve steps drifts back toward 1 and
    measures the contraction again.
    """
    dt, _, factors, p_ref = stage
    q = op.params.q
    tol = _FP_TOL * scale
    work = op._stage_work()
    mv, rhs, potential, diff, m_diff = work.mv, work.rhs, work.potential, work.diff, work.m_diff
    np.multiply(op.mass_diag, v, out=mv)
    y = work.midpoint
    _extrapolate(v, history, y, diff)
    np.multiply(0.5, np.add(v, y, out=y), out=y)
    eta = max(eta_old, _ETA_MIN) ** _ETA_EXP
    err, theta = None, 0.0
    for _ in range(_FP_MAX):
        # M v + i dt/2 M (P(y) - P_ref) y; a diverging y overflows here, which StepError reports
        with np.errstate(over="ignore", invalid="ignore"):
            np.abs(y, out=potential)
            potential **= q - 2.0
            np.multiply(op.w_sing, potential, out=potential)
            np.subtract(potential, p_ref, out=potential)
            np.multiply(op.mass_diag, potential, out=potential)
            np.multiply(potential, y, out=rhs)
            np.multiply(0.5j * dt, rhs, out=rhs)
            np.add(mv, rhs, out=rhs)
        # a fresh array, never the workspace, so it can become v_{n+1}
        y_new = op.solve_cayley(factors, rhs)
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
            return np.subtract(y, v, out=y), theta, eta
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
