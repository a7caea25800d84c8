import dataclasses

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from hardywaves import (
    ConvergenceError,
    DomainError,
    Field,
    ParameterError,
    Params,
    build_grid,
    fit_origin,
    normalized_gradient_flow,
    to_u,
)
from hardywaves.operators import RadialOperator
from oracle import integrated_multiplier, oracle_minimize, strong_residual


@pytest.fixture(scope="module")
def grid1k():
    return build_grid(1024, 1e-4, 40.0)


@pytest.fixture(scope="module")
def wave1k(grid1k, params33):
    return normalized_gradient_flow(params33, grid1k, tol=1e-8)


def test_flow_converges(wave1k, params33):
    assert wave1k.residual < 1e-8
    assert abs(wave1k.energies.mass_mu - params33.gamma) < 1e-12
    assert np.min(wave1k.v.values) >= 0.0
    assert wave1k.v0 > 0.0


def test_flow_j_monotone(wave1k):
    j = np.asarray(wave1k.j_history)
    assert np.all(np.diff(j) <= 1e-12)
    assert j[-1] == np.min(j)


def test_flow_restart_consistency(grid1k, params33, wave1k):
    # a different positive init reaches the same minimiser
    bump = Field(values=np.exp(-np.abs(grid1k.nodes - 1.0)), grid=grid1k)
    other = normalized_gradient_flow(params33, grid1k, init=bump, tol=1e-8)
    assert abs(other.energies.J - wave1k.energies.J) < 1e-5
    op = RadialOperator(grid1k, params33)
    h_dist = np.sqrt(op.h_norm_sq(other.v.values - wave1k.v.values))
    assert h_dist < 1e-4


def test_flow_multiplier_consistency(wave1k, params33):
    # the integrated identity lambda = (q F - D) / M on the wave's own energies
    e = wave1k.energies
    assert abs(wave1k.lam - (params33.q * e.nonlinear - e.dirichlet_mu) / e.mass_mu) < 1e-6


def test_multiplier_matches_residual_minimizing_fit(wave1k, params33):
    # independent route: the residual is affine in lambda, so the norm-
    # minimising multiplier comes from a one-dimensional least squares
    op = RadialOperator(wave1k.v.grid, params33)
    v = np.real(wave1k.v.values)
    base = op.stiffness_apply(v) / op.mass_diag - op.w_sing * np.abs(v) ** (params33.q - 2) * v
    lam_fit = -float(np.sum(op.mass_diag * base * v) / np.sum(op.mass_diag * v * v))
    assert abs(lam_fit - wave1k.lam) < 1e-6


def test_flow_mass_identity(wave1k, params33):
    # J - E = gamma / 2 at the constraint
    assert abs(wave1k.energies.J - wave1k.energies.E - params33.gamma / 2.0) < 1e-10


def test_flow_gamma_scaling_observation(grid1k):
    # gamma-dependence of the ground energy is recorded, not asserted:
    # no monotonicity claim is available for it
    energies = {}
    for gamma in (1.0, 2.0):
        p = Params(N=3, q=3.0, gamma=gamma)
        sw = normalized_gradient_flow(p, grid1k, tol=1e-7)
        energies[gamma] = sw.energies.E
        assert sw.residual < 1e-7
    assert set(energies) == {1.0, 2.0}


def test_flow_rejects_supercritical_q(grid1k):
    with pytest.raises(ParameterError):
        normalized_gradient_flow(Params(N=3, q=3.5), grid1k)


def test_flow_rejects_grid_without_origin_nodes(params33, monkeypatch):
    # the wave's v0 is extrapolated from nodes below r = 1: a grid without
    # them fails before the operator is assembled
    from hardywaves import groundstate

    def assemble(*args):
        raise AssertionError("the solver ran on a grid it cannot use")

    monkeypatch.setattr(groundstate, "RadialOperator", assemble)
    with pytest.raises(DomainError, match="below r = 1"):
        normalized_gradient_flow(params33, build_grid(256, 1.0, 30.0))


def test_flow_with_radial_weight(grid1k):
    # weighted nonlinearity: same solver path, residual measured with g
    from hardywaves import WeightSpec

    params = Params(N=3, q=3.0, gamma=1.0, weight=WeightSpec(0.0, -2.0))
    sw = normalized_gradient_flow(params, grid1k, tol=1e-8)
    assert strong_residual(RadialOperator(grid1k, params), sw.v.values, sw.lam) < 1e-8
    assert abs(sw.energies.mass_mu - 1.0) < 1e-12


def test_flow_nonconvergence_error(grid1k, params33):
    with pytest.raises(ConvergenceError) as err:
        normalized_gradient_flow(params33, grid1k, tol=1e-30, max_iter=40)
    diag = err.value.diagnostics
    assert {"residual", "iterations", "J", "lambda"} <= set(diag)


def test_elliptic_residual_zero_field(grid1k, params33):
    op = RadialOperator(grid1k, params33)
    assert strong_residual(op, np.zeros(grid1k.n), 0.7) == 0.0


def test_elliptic_residual_converged_wave(wave1k, params33):
    # an operator assembled afresh measures the wave's residual as the flow did
    residual = strong_residual(RadialOperator(wave1k.v.grid, params33), wave1k.v.values,
                               wave1k.lam)
    assert residual < 1e-8
    assert residual == wave1k.residual


def test_elliptic_residual_gaussian_not_solution(grid1k, params33):
    op = RadialOperator(grid1k, params33)
    v = np.exp(-grid1k.nodes**2 / 2.0)
    assert strong_residual(op, v, integrated_multiplier(op, v)) > 1e-2


def test_origin_fit_synthetic_power_law():
    # u = r^{-1/2} (1 + r): exact exponent -1/2 and v0 = 1
    grid = build_grid(4096, 1e-6, 50.0)
    u = Field(values=grid.nodes**-0.5 * (1.0 + grid.nodes), grid=grid)
    exponent, v0 = fit_origin(u, 3)
    assert abs(exponent + 0.5) < 1e-3
    assert abs(v0 - 1.0) < 1e-3


def test_origin_fit_synthetic_n4():
    grid = build_grid(4096, 1e-6, 50.0)
    u = Field(values=grid.nodes**-1.0 * np.exp(-grid.nodes**2), grid=grid)
    exponent, _ = fit_origin(u, 4)
    assert abs(exponent + 1.0) < 1e-3


def test_origin_behavior_of_wave(wave1k):
    exponent, v0 = fit_origin(to_u(wave1k.v, 3), 3)
    assert abs(exponent + 0.5) < 0.05
    assert wave1k.v0 > 0.0
    # the fit extrapolates to_v(to_u(v)), which moves v0 only by rounding
    assert abs(v0 - wave1k.v0) < 1e-12 * wave1k.v0


def test_oracle_budget_zero_returns_initial(params33):
    grid = build_grid(256, 1e-4, 30.0)
    best = oracle_minimize(params33, grid, restarts=3, budget=0, seed=11)
    assert best.mass == pytest.approx(params33.gamma, rel=1e-12)


def test_oracle_deterministic(params33):
    grid = build_grid(256, 1e-4, 30.0)
    a = oracle_minimize(params33, grid, restarts=1, budget=500, seed=5)
    b = oracle_minimize(params33, grid, restarts=1, budget=500, seed=5)
    assert a.J == b.J
    assert np.array_equal(a.v, b.v)


def test_oracle_matches_flow(params33):
    grid = build_grid(256, 1e-4, 30.0)
    flow = normalized_gradient_flow(params33, grid, tol=1e-9)
    oracle = oracle_minimize(params33, grid, restarts=8, budget=4000, seed=7)
    assert abs(flow.energies.J - oracle.J) < 1e-4


def test_oracle_preconditioner_is_the_energy_metric(params33, monkeypatch):
    # the oracle preconditions with (K + M)^{-1}: every solve it makes must
    # satisfy (K + M) x = rhs against the dense matrix
    solves = []
    solve_spd = RadialOperator.solve_spd

    def recorded(self, rhs, dt):
        x = solve_spd(self, rhs, dt)
        solves.append((self, rhs, x))
        return x

    monkeypatch.setattr(RadialOperator, "solve_spd", recorded)
    oracle_minimize(params33, build_grid(128, 1e-4, 30.0), restarts=1, budget=5, seed=7)
    assert solves
    for op, rhs, x in solves:
        k_plus_m = (
            np.diag(op.k_diag + op.mass_diag) + np.diag(op.k_lower, 1) + np.diag(op.k_lower, -1)
        )
        assert np.linalg.norm(k_plus_m @ x - rhs) < 1e-12 * np.linalg.norm(rhs)


def test_oracle_rejects_large_grid(params33):
    with pytest.raises(ParameterError):
        oracle_minimize(params33, build_grid(1024, 1e-4, 30.0))


def test_newton_polish_propagates_non_linalg_errors(grid1k, params33, monkeypatch):
    # only a singular Jacobian may end the polish quietly; a broken solver
    # call is a defect and must surface
    def broken(self, diag, rhs):
        raise TypeError("broken tridiagonal solve")

    monkeypatch.setattr(RadialOperator, "solve_tridiag", broken)
    with pytest.raises(TypeError, match="broken tridiagonal solve"):
        normalized_gradient_flow(params33, grid1k, tol=1e-8)


@pytest.mark.parametrize("broken", ["negative-profile", "mass-drift", "origin-value"])
def test_broken_wave_invariant_is_a_numerical_failure(wave1k, broken):
    # a solver result that breaks an invariant is not a configuration error
    from dataclasses import replace

    if broken == "negative-profile":
        change = {"v": wave1k.v.with_values(-wave1k.v.values)}
    elif broken == "mass-drift":
        # the wave's mass is now short of its operator's problem
        change = {"op": RadialOperator(wave1k.v.grid, Params(N=3, q=3.0, gamma=2.0))}
    else:
        change = {"v0": 0.0}
    with pytest.raises(ConvergenceError) as err:
        replace(wave1k, **change)
    assert not isinstance(err.value, ParameterError)
    assert {"min_value", "mass_mu", "gamma", "v0", "residual"} <= set(err.value.diagnostics)


def test_flow_pins_and_evaluates_each_iterate_once(grid1k, params33, monkeypatch):
    # the values pin the flow's exact path; one nonlinear evaluation per
    # iterate, plus a handful outside the loop
    calls = []
    nonlinear = RadialOperator.nonlinear

    def counted(self, v):
        calls.append(1)
        return nonlinear(self, v)

    monkeypatch.setattr(RadialOperator, "nonlinear", counted)
    sw = normalized_gradient_flow(params33, grid1k, tol=1e-8)
    assert sw.lam == 0.0018037925646233492
    assert sw.energies.J == 0.5001415268493269
    assert sw.residual == 4.374160328537141e-10
    assert sw.iterations == 7
    assert len(sw.j_history) == 9
    assert len(calls) <= sw.iterations + 5


def test_polish_stop_cause_in_convergence_error(grid1k, params33, monkeypatch):
    # a singular Jacobian ends every polish; the flow alone runs out of
    # iterations, and the error says why the last polish stopped.  The first
    # polish runs after 7 flow steps; the flow alone would converge in 25
    def singular(self, diag, rhs):
        raise LinAlgError("singular Jacobian")

    monkeypatch.setattr(RadialOperator, "solve_tridiag", singular)
    with pytest.raises(ConvergenceError) as err:
        normalized_gradient_flow(params33, grid1k, tol=1e-8, max_iter=15)
    assert err.value.diagnostics["polish_stop"] == "linalg"


@pytest.fixture(scope="module")
def survey_grid():
    return build_grid(8192, 1e-4, 50.0)


SURVEY_STATES = [(N, q, gamma) for N, qs in ((3, (2.5, 2.8, 3.0)), (4, (2.5, 2.8)), (5, (2.4, 2.6)))
                 for q in qs for gamma in (0.5, 1.0, 2.0)]


@pytest.mark.parametrize("N, q, gamma", SURVEY_STATES)
def test_flow_reaches_tolerance_in_few_steps(survey_grid, N, q, gamma):
    # the step schedule reaches the Newton switch in a few steps; the budget
    # is about twice the most any of these states needs (13)
    sw = normalized_gradient_flow(Params(N=N, q=q, gamma=gamma), survey_grid, tol=1e-6,
                                  max_iter=25)
    assert sw.residual < 1e-6
    assert np.all(np.diff(np.asarray(sw.j_history)) <= 1e-12)


def test_polish_stop_absent_when_polish_never_ran(grid1k, params33):
    with pytest.raises(ConvergenceError) as err:
        normalized_gradient_flow(params33, grid1k, tol=1e-8, max_iter=5)
    assert "polish_stop" not in err.value.diagnostics


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0, 0.0])
def test_flow_rejects_bad_tolerance(grid1k, params33, tol):
    # a NaN tolerance is never met and never missed, so the flow would
    # return an unconverged wave marked converged
    with pytest.raises(ParameterError, match="tolerance"):
        normalized_gradient_flow(params33, grid1k, tol=tol, max_iter=5)


@pytest.mark.parametrize("max_iter", [0, -3, np.nan])
def test_flow_rejects_bad_iteration_budget(grid1k, params33, max_iter):
    # no budget below one step can converge: a config error, not a stall
    with pytest.raises(ParameterError, match="max_iter"):
        normalized_gradient_flow(params33, grid1k, tol=1e-8, max_iter=max_iter)


def test_wave_reads_its_problem_from_its_operator(wave1k, params33):
    # the operator is the one record of the problem, so the two cannot disagree
    assert {"params", "gamma"}.isdisjoint(f.name for f in dataclasses.fields(wave1k))
    assert wave1k.params is wave1k.op.params
    assert wave1k.params == params33
    assert wave1k.gamma == params33.gamma
