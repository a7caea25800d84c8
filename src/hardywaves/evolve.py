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
the field at the run's first step at that dt.  The problem decides whether
a run is linear: with a weight that is identically zero P vanishes, and one
solve per step is exact.  On a perturbed standing wave P(y) - P_ref is of
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
exactly as one long call does; only a change of dt factors anew.

The state carries its problem's operator, which ``initial_state``
assembles and every step only reads.  A nonlinear step writes into work
rows that ride on the state with the factors (``_workspace``), and a linear
step into one row of its ``propagate`` call; only each solve's result is
fresh, and it becomes v_{n+1}.  The rows carry nothing between steps, so
each run owns its own; one thread steps a run at a time.

Boundary conditions: reflecting ghost at the origin end (v'(0) = 0),
zero beyond r_max.  No absorbing layer is attached at r_max; keep runs
short enough that radiation does not reach the outer boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .energies import _energy_report
from .errors import BlowupError, ParameterError, StepError
from .operators import RadialOperator
from .radial import Field, Params

__all__ = ["EvolutionState", "initial_state", "propagate", "invariants"]

_MAX_STEPS = 1e9  # time steps per evolve or stability run; the default stability run takes 2e4
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
    ``stage`` (dt, factors of A_ref, P_ref or None if linear) of the last
    step, or (dt,) if the next is to refactor, and ``eta`` their midpoint
    iteration's last estimate theta / (1 - theta); they only seed the next
    steps and are never written out.  ``work`` holds the rows a nonlinear
    step writes, () until the run's first one.
    """

    v: Field
    time: float
    charge0: float
    energy0: float
    op: RadialOperator = field(repr=False)
    history: tuple = field(default=(), repr=False)
    eta: float = field(default=1.0, repr=False)
    stage: tuple = field(default=(), repr=False)
    work: tuple = field(default=(), repr=False)


def initial_state(v: Field, params: Params) -> EvolutionState:
    """Wrap initial data of the problem ``params``, recording charge and
    energy baselines; the state carries the problem's operator."""
    return _start(RadialOperator(v.grid, params), v)


def _start(op: RadialOperator, v: Field) -> EvolutionState:
    """Initial state of v on an operator that is already assembled."""
    vals = op.check_field(v).astype(complex)
    report = _energy_report(op, vals)
    return EvolutionState(
        v=v.with_values(vals), time=0.0, charge0=report.mass_mu, energy0=report.E, op=op
    )


def invariants(state: EvolutionState) -> tuple[float, float]:
    """(charge, energy) of the current field: mu-mass and E_g of its problem."""
    report = _energy_report(state.op, state.op.check_field(state.v))
    return report.mass_mu, report.E


def propagate(state: EvolutionState, dt: float, steps: int) -> EvolutionState:
    """Advance the state by ``steps`` Crank-Nicolson steps of size dt, on
    the state's own operator.

    The run is linear exactly when the operator's weight is identically
    zero (a problem with ``weight=np.zeros_like``, the free 2D radial
    propagator of the closed-form dispersing Gaussian).  The returned state
    carries the same operator, the factored stage and the work rows, so
    chaining calls at one dt factors once.
    """
    if not 0.0 < dt < np.inf:
        raise ParameterError(f"time step must be finite and positive, got {dt}")
    if steps < 0:
        raise ParameterError(f"step count must be nonnegative, got {steps}")
    op = state.op
    nonlinear = bool(np.any(op.w_sing))
    if nonlinear:
        op.params.require_subcritical("nonlinear propagation")
    v = op.check_field(state.v).astype(complex, copy=False)
    history, stage = state.history, state.stage
    work = state.work or (_workspace(op.grid.n) if nonlinear and steps else ())
    mv = None if nonlinear else np.empty_like(v)
    # the contraction ratio grows with dt, so an estimate from another dt is void
    eta = state.eta if stage[:1] == (dt,) else 1.0
    # charge is conserved, so its baseline sets the scale of the fixed-point tolerance
    scale = max(1.0, np.sqrt(state.charge0))
    for k in range(1, steps + 1):
        if len(stage) < 2 or stage[0] != dt:
            p_ref = op.potential(v) if nonlinear else None
            stage = (dt, op.cayley_factors(dt, p_ref), p_ref)
        if nonlinear:
            v_new, theta, eta = _cn_step(op, v, stage, history, eta, scale, work)
            if theta > _THETA_MAX:
                stage = stage[:1]  # the next step refactors at its own field
        else:  # 2 y - v, y = A^-1 M v, formed in place on the solve's fresh result
            v_new = op.solve_cayley(stage[1], np.multiply(op.mass_diag, v, out=mv))
            np.multiply(2.0, v_new, out=v_new)
            np.subtract(v_new, v, out=v_new)
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
        work=work,
    )


def _checkpoints(state: EvolutionState, dt: float, chunks):
    """Yield (state, charge, energy, charge drift, energy drift) after each chunk of steps.

    The drifts are |c - c_0| / c_0 and |E - E_0| / max(|E_0|, 1e-300).
    """
    energy_scale = max(abs(state.energy0), 1e-300)
    for steps in chunks:
        state = propagate(state, dt, steps)
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


def _workspace(n: int) -> tuple:
    """The rows ``_cn_step`` writes, views of one block: complex mv, midpoint,
    diff, m_diff and rhs, then the real potential.  Made per step, they would
    be a dozen 128 KiB temporaries at n = 8192 (glibc's mmap threshold),
    whose pages the kernel would fault in again on every step."""
    block = np.empty(11 * n)
    return (*block[:10 * n].view(complex).reshape(5, n), block[10 * n:])


def _cn_step(
    op: RadialOperator, v: np.ndarray, stage: tuple, history: tuple, eta_old: float, scale: float,
    work: tuple,
) -> tuple[np.ndarray, float, float]:
    """One nonlinear Crank-Nicolson step, writing into the ``work`` rows.

    Returns v_{n+1}, the step's last theta (0 after one solve) and its
    last eta, which seeds the next step: the measured one, or eta_0 after
    one solve, so that a run of one-solve steps drifts back toward 1 and
    measures the contraction again.
    """
    dt, factors, p_ref = stage
    tol = _FP_TOL * scale
    mv, y, diff, m_diff, rhs, potential = work
    np.multiply(op.mass_diag, v, out=mv)
    _extrapolate(v, history, y, diff)
    np.multiply(0.5, np.add(v, y, out=y), out=y)
    eta = max(eta_old, _ETA_MIN) ** _ETA_EXP
    err, theta = None, 0.0
    for _ in range(_FP_MAX):
        # M v + i dt/2 M (P(y) - P_ref) y; a diverging y overflows here, which StepError reports
        with np.errstate(over="ignore", invalid="ignore"):
            op.potential(y, out=potential)
            np.subtract(potential, p_ref, out=potential)
            np.multiply(op.mass_diag, potential, out=potential)
            np.multiply(potential, y, out=rhs)
            np.multiply(0.5j * dt, rhs, out=rhs)
            np.add(mv, rhs, out=rhs)
        # a fresh array, never a work row, so it can become v_{n+1}
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
