"""Constrained minimisation of J on the weighted L^2 sphere.

Two-phase solver.  Phase one is the normalized gradient flow: a semi-implicit
step

    (M + dt K) v~ = M (v + dt (N(v) - lambda(v) v)),    then renormalise,

with the multiplier term included so that fixed points solve the discrete
stationary equation exactly.  dt starts at 20, grows by 1.5 per accepted
step up to 500 and halves (down to 1e-6) on any energy increase, so the
accepted flow iterates are J-monotone.  Phase two polishes with a bordered
Newton iteration on the stationary system plus the mass constraint
(tridiagonal solves with one dense border row), a residual line search and
at most 120 steps per polish.
The gradient flow alone crawls once the landscape flattens (for shallow
wells the multiplier is of order 1e-3 and the soft-mode curvature far
smaller), while Newton alone needs a warm start; the combination converges
in about ten flow iterations (7 to 13 over the survey problems at
r_min = 1e-4, tol 1e-6).

The achievable residual is limited by float64 quantisation of the nodal
values near the origin, roughly eps_machine * |v| / (h^2 r_min) in the
weighted norm; on the default grid (r_min = 1e-6, n = 8192) this floor sits
near 1e-6, so tolerances below that need a larger r_min or a coarser grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError

from .energies import EnergyReport, _energy_report
from .errors import ConvergenceError, DomainError, ParameterError
from .operators import RadialOperator
from .radial import (Field, Params, RadialGrid, check_origin_nodes, origin_intercept, to_v,
                     unit_ball_volume)

__all__ = ["StandingWave", "normalized_gradient_flow", "fit_origin"]

_MASS_RTOL = 1e-10
_J_MONO_TOL = 1e-12
# the step schedule, chosen by a measured (dt0, growth) sweep; a far larger
# first step (dt0 = 100, growth 2) lands (N, q, gamma) = (5, 2.4, 2) on a
# sign-changing state
_FLOW_DT0 = 20.0
_FLOW_DT_GROWTH = 1.5
_FLOW_DT_MAX = 500.0
_FLOW_DT_MIN = 1e-6
_NEWTON_MAX_STEPS = 120


@dataclass(frozen=True, eq=False)
class StandingWave:
    """Converged minimiser with its multiplier and origin diagnostics.

    ``op`` is the operator the wave was solved on, whose energy norm
    orbit distances use; it is the one record of the wave's problem, which
    ``params`` and ``gamma`` read.
    """

    v: Field
    lam: float
    energies: EnergyReport
    v0: float
    Lambda_origin: float
    residual: float
    op: RadialOperator = field(repr=False)
    iterations: int = 0
    j_history: tuple = field(default=(), repr=False)

    @property
    def params(self) -> Params:
        return self.op.params

    @property
    def gamma(self) -> float:
        return self.op.params.gamma

    def __post_init__(self):
        # the solver's own output breaking an invariant is a numerical failure
        vals = np.real(self.v.values)
        low = float(np.min(vals))
        peak = float(np.max(np.abs(vals))) or 1.0
        diagnostics = {
            "min_value": low,
            "peak": peak,
            "mass_mu": self.energies.mass_mu,
            "gamma": self.gamma,
            "v0": self.v0,
            "residual": self.residual,
            "iterations": self.iterations,
        }
        if low < -1e-10 * peak:
            raise ConvergenceError("standing wave profile must be nonnegative", diagnostics)
        if abs(self.energies.mass_mu - self.gamma) > _MASS_RTOL * self.gamma:
            raise ConvergenceError(
                f"mass constraint violated: {self.energies.mass_mu} != {self.gamma}",
                diagnostics,
            )
        if not self.v0 > 0.0:
            raise ConvergenceError("extrapolated origin value must be positive", diagnostics)


def _gradient(op: RadialOperator, v: np.ndarray, lam: float) -> np.ndarray:
    """g = K v + M (lam v - N(v)), the gradient of J with multiplier lam."""
    return op.stiffness_apply(v) + op.mass_diag * (lam * v - op.potential(v) * v)


def _residual_norm(op: RadialOperator, v: np.ndarray, lam: float, nl_vec=None) -> float:
    nl_vec = op.potential(v) * v if nl_vec is None else nl_vec
    # strong form M^{-1} K v + lam v - N(v), not M^{-1} g: it rounds differently,
    # and the flow's lambda, J and residual are pinned to its bits
    res = op.stiffness_apply(v) / op.mass_diag + lam * v - nl_vec
    return float(np.sqrt(op.sphere * np.sum(op.mass_diag * res**2)))


def _report_and_multiplier(op: RadialOperator, v: np.ndarray) -> tuple[EnergyReport, float]:
    """(energy report, quotient multiplier) of v from one evaluation of each form."""
    r = _energy_report(op, v)
    return r, (op.params.q * r.nonlinear - r.dirichlet_mu) / r.mass_mu


def _renormalize(op: RadialOperator, v: np.ndarray, gamma: float) -> np.ndarray:
    return v * np.sqrt(gamma / op.mass(v))


def _newton_polish(op, v, lam, gamma, tol):
    """Bordered Newton on (stationary equation, mass constraint).

    Accepts steps only when the residual norm strictly decreases (Armijo on
    the residual); returns the improved iterate either way, with why it
    stopped: "tol", "linalg", "denominator", "line-search" or "max-steps".
    Targets a fraction of the tolerance so that converged runs land with
    margin rather than just under the threshold.
    """
    rn = _residual_norm(op, v, lam)
    for _ in range(_NEWTON_MAX_STEPS):
        if rn < 0.2 * tol:
            return v, rn, "tol"
        g1 = _gradient(op, v, lam)
        g2 = op.mass(v) - gamma
        jac_diag = lam - (op.params.q - 1) * op.potential(v)
        rhs = np.column_stack([-g1, op.mass_diag * v])
        try:
            sol = op.solve_tridiag(jac_diag, rhs)
        except LinAlgError:
            return v, rn, "linalg"
        a, b = sol[:, 0], sol[:, 1]
        mv = op.mass_diag * v
        denom = 2.0 * op.sphere * float(np.sum(mv * b))
        if denom == 0.0 or not np.isfinite(denom):
            return v, rn, "denominator"
        dlam = (2.0 * op.sphere * float(np.sum(mv * a)) + g2) / denom
        dv = a - dlam * b
        step = 1.0
        accepted = False
        while step > 1e-5:
            v_new = v + step * dv
            if np.all(np.isfinite(v_new)) and op.mass(v_new) > 0.0:
                rn_new = _residual_norm(op, v_new, lam + step * dlam)
                if np.isfinite(rn_new) and rn_new < rn * (1.0 - 0.2 * step):
                    v, lam, rn = v_new, lam + step * dlam, rn_new
                    accepted = True
                    break
            step *= 0.5
        if not accepted:
            return v, rn, "line-search"
    return v, rn, "max-steps"


def normalized_gradient_flow(
    params: Params,
    grid: RadialGrid,
    init: Field | None = None,
    tol: float = 1e-8,
    max_iter: int = 50000,
) -> StandingWave:
    """Minimise J over the sphere of mu-mass gamma; return the standing wave.

    A negative-valued init is replaced by its modulus (the flow preserves
    positivity, so minimisers are reached through nonnegative iterates).
    Raises ConvergenceError with last-iterate diagnostics if the residual
    tolerance tol (finite, > 0) is not reached within max_iter (>= 1) flow
    iterations.
    """
    if not 0.0 < tol < np.inf:
        raise ParameterError(f"residual tolerance must be finite and positive, got {tol}")
    if not max_iter >= 1:
        raise ParameterError(f"iteration budget max_iter must be at least 1, got {max_iter}")
    if params.q > 2.0 + 4.0 / params.N + 1e-12:
        raise ParameterError(
            f"ground state solve requires q <= 2 + 4/N = {2 + 4.0 / params.N:.6g}, got q={params.q}"
        )
    check_origin_nodes(grid)  # the wave's v0 needs it: fail before the solve
    op = RadialOperator(grid, params)
    gamma = params.gamma
    if init is None:
        v = np.exp(-grid.nodes**2 / 2.0)
    else:
        v = np.abs(np.real(op.check_field(init))).astype(float)
        if op.mass(v) <= 0.0:
            raise ParameterError("initial field must have positive mass")
    v = _renormalize(op, v, gamma)

    dt = _FLOW_DT0
    report, lam = _report_and_multiplier(op, v)
    j_history = [report.J]  # flow iterates: J-monotone by backtracking
    nl_vec = op.potential(v) * v  # of the current v: residual and next step share it
    rn = _residual_norm(op, v, lam, nl_vec)
    switch = 1e-3
    iterations = 0
    polish_stop = None

    while iterations < max_iter:
        if rn < tol:
            break
        if rn < switch:
            v_new, rn_new, polish_stop = _newton_polish(op, v, lam, gamma, tol)
            if rn_new < rn:
                # the flow goes on with the quotient multiplier, not Newton's
                v, rn = v_new, rn_new
                report, lam = _report_and_multiplier(op, v)
                nl_vec = op.potential(v) * v
            if rn < tol:
                break
            # Newton stalled above tol: demand a deeper flow start before retrying
            switch = max(rn / 10.0, tol)
        iterations += 1
        rhs = op.mass_diag * (v + dt * (nl_vec - lam * v))
        v_try = op.solve_spd(rhs, dt)
        v_try = _renormalize(op, v_try, gamma)
        report_try, lam_try = _report_and_multiplier(op, v_try)
        if report_try.J <= report.J + _J_MONO_TOL:
            v, report, lam = v_try, report_try, lam_try
            # a partial Newton detour may sit above the recorded minimum;
            # flow steps re-enter the monotone record once they descend past it
            if report.J <= j_history[-1] + _J_MONO_TOL:
                j_history.append(report.J)
            nl_vec = op.potential(v) * v
            rn = _residual_norm(op, v, lam, nl_vec)
            dt = min(dt * _FLOW_DT_GROWTH, _FLOW_DT_MAX)
        else:
            dt = max(dt / 2.0, _FLOW_DT_MIN)

    if rn >= tol:
        diagnostics = {"residual": rn, "iterations": iterations, "J": report.J, "lambda": lam,
                       "dt": dt}
        if polish_stop is not None:  # why the last Newton polish gave up
            diagnostics["polish_stop"] = polish_stop
        raise ConvergenceError(
            f"gradient flow stalled at residual {rn:.3e} after {iterations} iterations "
            f"(tolerance {tol:.1e}); on fine near-origin grids the float64 residual "
            "floor may exceed the requested tolerance",
            diagnostics=diagnostics,
        )

    # guard the constraint against polish roundoff, then re-measure
    v = _renormalize(op, v, gamma)
    report, lam = _report_and_multiplier(op, v)  # report.J: the converged value, lowest of the run
    rn = _residual_norm(op, v, lam)
    if report.J <= j_history[-1] + _J_MONO_TOL:  # fails only short of a true minimum
        j_history.append(report.J)
    v0 = origin_intercept(v[:3], grid, params.N)
    return StandingWave(
        v=Field(values=v, grid=grid),
        lam=lam,
        energies=report,
        v0=v0,
        Lambda_origin=0.5 * params.N * (params.N - 2) * unit_ball_volume(params.N) * v0**2,
        residual=rn,
        op=op,
        iterations=iterations,
        j_history=tuple(j_history),
    )


def origin_fit_window(grid: RadialGrid) -> np.ndarray:
    """Mask of the nodes in [10 r_min, 1000 r_min], where fit_origin fits
    its power law; DomainError when it selects fewer than 4 nodes."""
    lo, hi = 10.0 * grid.r_min, 1e3 * grid.r_min
    mask = (grid.nodes >= lo) & (grid.nodes <= hi)
    if np.count_nonzero(mask) < 4:
        raise DomainError(f"fit window [{lo}, {hi}] selects fewer than 4 grid nodes")
    return mask


def fit_origin(u: Field, N: int):
    """(power-law exponent, extrapolated v0) of a u-form profile.

    The exponent is the least-squares slope of log u against log r over
    r in [10 r_min, 1000 r_min]; v0 extrapolates v = to_v(u) to r = 0
    linearly in the origin coordinate t.
    """
    grid = u.grid
    mask = origin_fit_window(grid)
    uu = np.abs(np.real(u.values[mask]))
    if np.any(uu == 0.0):
        raise DomainError("profile vanishes inside the origin fit window")
    slope = np.polyfit(np.log(grid.nodes[mask]), np.log(uu), 1)[0]
    v0 = origin_intercept(np.real(to_v(u, N).values[:3]), grid, N)
    return float(slope), float(v0)
