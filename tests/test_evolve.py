from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_banded

from hardywaves import (
    Field,
    ParameterError,
    Params,
    StepError,
    build_grid,
    normalized_gradient_flow,
    orbit_distance,
)
from hardywaves import evolve, operators
from hardywaves.checks import check_ckn
from hardywaves.evolve import _FP_MAX, _FP_TOL, _start, initial_state, invariants, propagate
from hardywaves.operators import RadialOperator
from hardywaves.stability import perturbed_field


def free_gaussian(grid, t):
    z = 1.0 + 2.0j * t
    return np.exp(-grid.nodes**2 / (2.0 * z)) / z


def test_linear_propagator_matches_dispersing_gaussian(grid2k, params33):
    # i v_t + Delta_2d v = 0, the g == 0 problem, with Gaussian data has the
    # closed-form solution v(r, t) = (1 + 2it)^{-1} exp(-r^2 / (2 (1 + 2it)))
    v0 = Field(values=np.exp(-grid2k.nodes**2 / 2.0).astype(complex), grid=grid2k)
    free = replace(params33, weight=np.zeros_like)
    state = propagate(initial_state(v0, free), 1e-3, 1000)
    assert np.max(np.abs(state.v.values - free_gaussian(grid2k, 1.0))) < 1e-3


def test_linear_self_convergence_second_order(grid2k, params33):
    v0 = Field(values=np.exp(-grid2k.nodes**2 / 2.0).astype(complex), grid=grid2k)
    free = replace(params33, weight=np.zeros_like)
    op = RadialOperator(grid2k, free)
    sols = []
    for dt in (4e-3, 2e-3, 1e-3):
        state = propagate(initial_state(v0, free), dt, int(round(1.0 / dt)))
        sols.append(state.v.values)
    e1 = np.sqrt(op.mass(sols[0] - sols[1]))
    e2 = np.sqrt(op.mass(sols[1] - sols[2]))
    assert np.log2(e1 / e2) >= 1.9


def test_nonlinear_self_convergence_second_order(grid2k, params33):
    # data away from the origin keeps the singular nonlinear weight smooth
    # on the support, where the midpoint scheme shows its clean order
    x = grid2k.log_nodes
    v0 = Field(values=(1.5 * np.exp(-(((x - np.log(8.0)) / 0.5) ** 2))).astype(complex),
               grid=grid2k)
    op = RadialOperator(grid2k, params33)
    sols = []
    for dt in (4e-3, 2e-3, 1e-3):
        state = propagate(initial_state(v0, params33), dt, int(round(1.0 / dt)))
        sols.append(state.v.values)
    e1 = np.sqrt(op.mass(sols[0] - sols[1]))
    e2 = np.sqrt(op.mass(sols[1] - sols[2]))
    assert np.log2(e1 / e2) >= 1.9


def test_invariants_fresh_state_equals_baselines(grid2k, params33):
    v0 = Field(values=np.exp(-grid2k.nodes**2 / 2.0).astype(complex), grid=grid2k)
    state = initial_state(v0, params33)
    charge, energy = invariants(state)
    assert charge == state.charge0
    assert energy == state.energy0


@pytest.mark.parametrize("scheme, energy_tol", [("crank-nicolson", 1e-6)])
def test_conservation_along_nonlinear_run(wave2k, params33, scheme, energy_tol):
    # at its fixed point the step is a Cayley transform, so charge is
    # conserved to the fixed-point tolerance; the midpoint rule keeps energy
    # to O(dt^2)
    op = RadialOperator(wave2k.v.grid, params33)
    pert = np.exp(-((wave2k.v.grid.nodes - 2.0) ** 2))
    values = wave2k.v.values + 1e-2 * pert / np.sqrt(op.h_norm_sq(pert))
    values = values * np.sqrt(params33.gamma / op.mass(values))
    state = initial_state(wave2k.v.with_values(values.astype(complex)), params33)
    state = propagate(state, 1e-3, 1000)
    charge, energy = invariants(state)
    assert abs(charge - state.charge0) / state.charge0 < 1e-10
    assert abs(energy - state.energy0) / abs(state.energy0) < energy_tol


def test_time_reversal_via_conjugation(grid2k, params33):
    # the equation is invariant under (v, t) -> (conj v, -t); CN is
    # time-symmetric, so forth-conjugate-forth-conjugate returns the data
    x = grid2k.log_nodes
    v0 = Field(values=np.exp(-(((x - 0.3) / 0.7) ** 2)).astype(complex), grid=grid2k)
    op = RadialOperator(grid2k, params33)
    fwd = propagate(initial_state(v0, params33), 1e-3, 300)
    back = propagate(initial_state(fwd.v.with_values(np.conj(fwd.v.values)), params33), 1e-3, 300)
    err = np.sqrt(op.mass(np.conj(back.v.values) - v0.values))
    assert err < 1e-8


def test_standing_wave_stationary_with_phase_removed(wave2k, params33):
    # orbit distance is phase-free, so the discrete standing wave stays put
    state = initial_state(wave2k.v, params33)
    worst = 0.0
    for _ in range(20):
        state = propagate(state, 5e-3, 100)  # t in (0, 10]
        worst = max(worst, orbit_distance(state.v, wave2k))
    assert worst < 1e-6


def test_propagate_validates_arguments(grid2k, params33):
    v0 = Field(values=np.exp(-grid2k.nodes**2 / 2.0).astype(complex), grid=grid2k)
    state = initial_state(v0, params33)
    for dt, steps in [(-1e-3, 10), (0.0, 10), (np.nan, 10), (np.inf, 10), (1e-3, -1)]:
        with pytest.raises(ParameterError):
            propagate(state, dt, steps)
    with pytest.raises(ParameterError):
        propagate(initial_state(v0, Params(N=3, q=4.0)), 1e-3, 10)  # outside 2 < q < 2 + 4/N


def test_weighted_nonlinearity_conservation(grid2k):
    # radial weight g ~ 1 at the origin, ~ r^{-2} at infinity: the weighted
    # energy is the conserved quantity of the weighted equation
    from hardywaves import WeightSpec

    params = Params(N=3, q=3.0, gamma=1.0, weight=WeightSpec(0.0, -2.0))
    x = grid2k.log_nodes
    v0 = Field(values=np.exp(-(((x - 0.3) / 0.7) ** 2)).astype(complex), grid=grid2k)
    state = propagate(initial_state(v0, params), 1e-3, 500)
    charge, energy = invariants(state)
    assert abs(charge - state.charge0) / state.charge0 < 1e-10
    assert abs(energy - state.energy0) / max(abs(state.energy0), 1e-12) < 1e-6


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fixed_point_failure_raises_step_error(grid2k, params33):
    # the iterate overflows at this dt; that is reported by the StepError,
    # not by numpy warnings while the right-hand side is formed
    big = Field(values=(20.0 * np.exp(-grid2k.nodes**2 / 2.0)).astype(complex), grid=grid2k)
    state = initial_state(big, params33)
    with pytest.raises(StepError) as err:
        propagate(state, 10.0, 1)
    assert "dt" in err.value.diagnostics
    assert err.value.diagnostics["iterations"] == _FP_MAX
    assert "theta" in err.value.diagnostics


def _perturbed_wave(wave, params, delta):
    return initial_state(perturbed_field(wave, delta, "radial-bump"), params)


def _count_solves(monkeypatch):
    calls = []
    solve = RadialOperator.solve_cayley

    def counted(self, *args, **kwargs):
        calls.append(1)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(RadialOperator, "solve_cayley", counted)
    return calls


def test_initial_state_has_empty_history(grid2k, params33):
    v0 = Field(values=np.exp(-grid2k.nodes**2 / 2.0).astype(complex), grid=grid2k)
    assert initial_state(v0, params33).history == ()


def test_chained_propagate_matches_one_call(wave2k, params33, monkeypatch):
    # the last fields ride on the state, so short chunks extrapolate the
    # midpoint guess across their boundaries as one long call does
    calls = _count_solves(monkeypatch)
    state = _perturbed_wave(wave2k, params33, 1e-2)
    one = propagate(state, 1e-3, 300)
    one_call_solves = len(calls)
    calls.clear()
    chained = state
    for _ in range(100):
        chained = propagate(chained, 1e-3, 3)
    assert len(calls) == one_call_solves
    assert chained.time == pytest.approx(one.time, abs=1e-12)
    assert len(chained.history) == 2
    assert np.max(np.abs(chained.v.values - one.v.values)) <= 1e-10


@pytest.mark.parametrize("delta, solves_per_step", [(1e-3, 2.1), (1e-2, 3.0)])
def test_extrapolated_guess_does_not_add_solves(wave2k, params33, delta, solves_per_step,
                                                monkeypatch):
    # dropping the history before every step starts each midpoint iteration
    # from v_n, the guess without extrapolation (3 solves per step here);
    # the larger perturbation oscillates too fast in time for the
    # extrapolation to save a solve
    calls = _count_solves(monkeypatch)
    plain = _perturbed_wave(wave2k, params33, delta)
    for _ in range(100):
        plain = propagate(replace(plain, history=()), 1e-3, 1)
    plain_solves = len(calls)
    calls.clear()
    guessed = propagate(_perturbed_wave(wave2k, params33, delta), 1e-3, 100)
    assert len(calls) <= min(plain_solves, solves_per_step * 100)
    assert np.max(np.abs(guessed.v.values - plain.v.values)) <= 1e-10


def test_unperturbed_wave_takes_one_solve_per_step(wave8k, params33, monkeypatch):
    # on the orbit the first update of a step is measured against a
    # tolerance of 1e-12; a stage that rounds at 1e-12 (an explicit
    # right-hand side M v - i dt/2 K v) lands there and makes the iteration
    # measure eta again (343 solves for 300 steps), while the midpoint form
    # stays far below it (301).  At n = 2048 both take 301.
    calls = _count_solves(monkeypatch)
    propagate(initial_state(perturbed_field(wave8k, 0.0, "radial-bump"), params33), 2e-3, 300)
    assert len(calls) <= 310


def test_work_rows_are_made_once_per_run(grid2k, params33, monkeypatch):
    # a nonlinear step writes into work rows that ride on the run's state:
    # made at its first nonlinear step, kept by every later propagate call
    # and refactor, and never made by a ground-state solve, a checker or a
    # linear run.  The operator stays as assembled, so runs that share it
    # get rows of their own, and no returned field shares memory with them
    made = []
    workspace = evolve._workspace

    def recorded(n):
        made.append(n)
        return workspace(n)

    monkeypatch.setattr(evolve, "_workspace", recorded)
    grid = build_grid(512, 1e-4, 30.0)
    wave = normalized_gradient_flow(params33, grid, tol=1e-6)
    check_ckn(5, 0, params33, grid)
    op = wave.op
    assembled = dict(vars(op))
    arrays = {key: val.copy() for key, val in assembled.items() if isinstance(val, np.ndarray)}
    start = _start(op, perturbed_field(wave, 1e-2, "radial-bump"))
    linear = propagate(initial_state(start.v, replace(params33, weight=np.zeros_like)), 1e-3, 3)
    assert made == [] and linear.work == ()
    first = propagate(start, 1e-3, 3)
    second = propagate(first, 1e-3, 3)
    other = propagate(_start(op, perturbed_field(wave, 1e-2, "phase-ramp")), 1e-3, 3)
    assert made == [grid.n, grid.n] and second.work is first.work and len(first.work) == 6
    assert not any(np.shares_memory(a, b) for a in first.work for b in other.work)
    assert vars(op).keys() == assembled.keys()
    assert all(vars(op)[key] is val for key, val in assembled.items())
    assert all(np.array_equal(vars(op)[key], val) for key, val in arrays.items())
    # off the orbit each chunk ends by cutting the stage to (dt,), and the
    # next call refactors with the same rows
    factored = []
    factor = RadialOperator.cayley_factors

    def counted(self, *args):
        factored.append(1)
        return factor(self, *args)

    monkeypatch.setattr(RadialOperator, "cayley_factors", counted)
    v0 = Field(values=np.exp(-grid2k.nodes**2 / 2.0).astype(complex), grid=grid2k)
    states = [propagate(initial_state(v0, params33), 5e-2, 2)]
    for _ in range(3):
        assert states[-1].stage == (5e-2,)
        states.append(propagate(states[-1], 5e-2, 2))
    assert len(factored) > len(states) and len(made) == 3
    assert all(state.work is states[0].work for state in states)
    for state in (first, second, other, *states):
        for values in (state.v.values, *state.history):
            assert not any(np.shares_memory(values, row) for row in state.work)


def test_run_factors_its_stage_once(wave2k, params33, monkeypatch):
    # a run factors its Crank-Nicolson matrix at its first step, and every
    # midpoint iterate back-substitutes through the factors; they ride on
    # the state, so chained calls keep them, and a change of dt factors anew
    lapack = {"_ZGTTRF": [], "_ZGTTRS": []}
    for name, calls in lapack.items():
        def counted(*args, routine=getattr(operators, name), calls=calls):
            calls.append(1)
            return routine(*args)

        monkeypatch.setattr(operators, name, counted)
    factored, substituted = lapack.values()
    solves = _count_solves(monkeypatch)
    state = _perturbed_wave(wave2k, params33, 1e-2)
    for _ in range(100):
        state = propagate(state, 1e-3, 3)
    assert len(factored) == 1
    assert len(substituted) == len(solves) > 300
    propagate(propagate(state, 2e-3, 3), 2e-3, 3)
    assert len(factored) == 2
    assert len(substituted) == len(solves)


def test_run_off_the_orbit_refactors_its_stage(grid2k, params33, monkeypatch):
    # a dispersing Gaussian drifts from the potential its stage was factored
    # at.  Kept for the whole run, that stage contracts ever more slowly:
    # 6.3 solves per step over these 400 steps, against 3.7 with a fresh
    # matrix per solve.  Refactoring after each step whose contraction ratio
    # exceeds 1e-3 holds the run at 3.7
    factored = []
    factor = RadialOperator.cayley_factors

    def counted(self, *args):
        factored.append(1)
        return factor(self, *args)

    monkeypatch.setattr(RadialOperator, "cayley_factors", counted)
    solves = _count_solves(monkeypatch)
    v0 = Field(values=np.exp(-grid2k.nodes**2 / 2.0).astype(complex), grid=grid2k)
    state = initial_state(v0, params33)
    for _ in range(20):
        state = propagate(state, 5e-2, 20)
    assert len(solves) <= 4 * 400
    assert len(factored) > 1


def _midpoint_fixed_point(op, v, v_next, dt, iterations=6):
    """Continue the midpoint iteration of the step v -> v_next well past
    convergence (each update contracts by about 1e-5 here), solving each
    stage (M + i dt/2 (K - M P(y))) y = M v afresh with scipy's banded
    solver rather than the operator's Cayley solves."""
    mv = op.mass_diag * v
    y = 0.5 * (v + v_next)
    ab = np.zeros((3, op.grid.n), dtype=complex)
    ab[0, 1:] = ab[2, :-1] = 0.5j * dt * op.k_lower
    for _ in range(iterations):
        potential = op.w_sing * np.abs(y) ** (op.params.q - 2.0)
        ab[1] = op.mass_diag + 0.5j * dt * (op.k_diag - op.mass_diag * potential)
        y = solve_banded((1, 1), ab, mv)
    return 2.0 * y - v


def _worst_midpoint_error(op, state, dt, steps):
    """Propagate one step at a time; return the state and the largest
    distance of a returned field from its step's midpoint fixed point."""
    worst = 0.0
    for _ in range(steps):
        v = state.v.values
        state = propagate(state, dt, 1)
        exact = _midpoint_fixed_point(op, v, state.v.values, dt)
        worst = max(worst, np.sqrt(op.mass(state.v.values - exact)))
    return state, worst


@pytest.mark.parametrize("kind", ["radial-bump", "phase-ramp"])
@pytest.mark.parametrize("delta", [0.0, 1e-3, 1e-2])
def test_midpoint_stop_is_within_tolerance(wave2k, params33, kind, delta, monkeypatch):
    # the error-estimate stop may end the iteration before two consecutive
    # iterates agree to the tolerance, but never farther than the
    # tolerance from the fixed point; an unguarded estimate from the
    # previous step's contraction ratio breaks this at radial-bump, 1e-2
    op = RadialOperator(wave2k.v.grid, params33)
    state = initial_state(perturbed_field(wave2k, delta, kind), params33)
    tol = _FP_TOL * max(1.0, np.sqrt(state.charge0))
    _, worst = _worst_midpoint_error(op, state, 1e-3, 100)
    assert worst <= tol
    if delta == 1e-2:
        # the plain test needs a third solve per step to see convergence
        calls = _count_solves(monkeypatch)
        propagate(initial_state(perturbed_field(wave2k, delta, kind), params33), 1e-3, 100)
        assert len(calls) <= 200


@pytest.mark.parametrize("calm_steps, calm_dt", [(10, 1e-3), (1, 2e-3)])
@pytest.mark.parametrize("kind", ["radial-bump", "phase-ramp"])
def test_kicked_run_does_not_trust_a_stale_contraction(wave2k, params33, kind, calm_steps,
                                                       calm_dt):
    # on the orbit the updates are phase rotations, which leave the
    # potential unchanged, so the carried contraction estimate is ~1e-11;
    # once the run is kicked off the orbit, that estimate must fade (each
    # step that stops after one solve weakens it) or be dropped (it was
    # made at another dt), else one-solve steps land up to 1e3 tolerances
    # away from the fixed point
    op = RadialOperator(wave2k.v.grid, params33)
    calm = propagate(initial_state(wave2k.v, params33), calm_dt, calm_steps)
    kicked = propagate(initial_state(perturbed_field(wave2k, 1e-2, kind), params33), 1e-3, 2)
    state = replace(calm, v=kicked.v, history=kicked.history)
    _, worst = _worst_midpoint_error(op, state, 1e-3, 50)
    assert worst <= _FP_TOL * max(1.0, np.sqrt(state.charge0))

