import contextlib
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hardywaves import (
    Field,
    ParameterError,
    Params,
    ShapeError,
    StabilityRun,
    StepError,
    WeightSpec,
    build_grid,
    normalized_gradient_flow,
    orbit_distance,
    stability_experiment,
)
import hardywaves
from hardywaves import stability
from hardywaves.evolve import initial_state, invariants, propagate
from hardywaves.operators import RadialOperator
from hardywaves.stability import PERTURBATION_KINDS, _experiments, check_run, perturbed_field
from oracle import h_inner, newton_fixed_lambda, orbit_distance_reference


def test_orbit_distance_phase_invariance(wave2k):
    for theta in (0.0, 0.4, 1.9, np.pi):
        rotated = wave2k.v.with_values(np.exp(1j * theta) * wave2k.v.values.astype(complex))
        assert orbit_distance(rotated, wave2k) < 1e-12


def test_orbit_distance_of_wave_itself(wave2k):
    assert orbit_distance(wave2k.v, wave2k) == 0.0


def test_orbit_distance_collinear(wave2k):
    scaled = wave2k.v.with_values(1.01 * wave2k.v.values)
    expected = 0.01 * np.sqrt(wave2k.op.h_norm_sq(wave2k.v.values))
    assert abs(orbit_distance(scaled, wave2k) - expected) < 1e-10 * expected


def test_orbit_distance_pythagoras(wave2k, params33):
    # perturbation H-orthogonal to the complex span of the wave: the optimal
    # phase is irrelevant and the distance equals the perturbation norm
    op = RadialOperator(wave2k.v.grid, params33)
    vg = wave2k.v.values.astype(complex)
    w = np.exp(-((wave2k.v.grid.nodes - 1.0) ** 2)).astype(complex)
    w = w - (h_inner(op, w, vg) / op.h_norm_sq(vg)) * vg
    assert abs(h_inner(op, w, vg)) < 1e-12
    perturbed = wave2k.v.with_values(vg + w)
    expected = np.sqrt(op.h_norm_sq(w))
    assert abs(orbit_distance(perturbed, wave2k) - expected) < 1e-9 * expected


@pytest.mark.parametrize("kind", PERTURBATION_KINDS)
def test_orbit_distance_matches_the_two_part_inner_product(wave2k, params33, kind):
    # the phase from one dot product with (K + M) v_g is the phase from the
    # Dirichlet and mass inner products, along runs of each size
    op, wave = wave2k.op, wave2k.v.values
    for delta in (0.0, 1e-3, 1e-2):
        state = initial_state(perturbed_field(wave2k, delta, kind), params33)
        for _ in range(4):
            expected = orbit_distance_reference(op, state.v.values, wave)
            assert abs(orbit_distance(state.v, wave2k) - expected) <= 1e-12 * expected
            state = propagate(state, 1e-3, 100)


@pytest.fixture(scope="module")
def fixed_lambda_states(grid2k, params33):
    """The ground state and the one-node state at lambda = 1 on the
    2048-node grid, with their Newton step counts, from the oracle."""
    op = RadialOperator(grid2k, params33)
    r = grid2k.nodes
    ground = newton_fixed_lambda(op, 2.0 * np.exp(-r**2 / 2.0), 1.0)
    start = 2.0 * np.max(ground[0]) * np.exp(-r**2 / 2.0) * (1.0 - r**2)
    return op, {"ground": ground, "one-node": newton_fixed_lambda(op, start, 1.0)}


@pytest.mark.parametrize("name, steps, mass, nodes", [
    ("ground", 4, 25.91, 0), ("one-node", 6, 531.70, 1),
])
def test_newton_reaches_the_standing_waves_at_fixed_lambda(fixed_lambda_states, name, steps,
                                                           mass, nodes):
    op, states = fixed_lambda_states
    v, taken = states[name]
    assert taken == steps
    assert abs(op.mass(v) - mass) < 5e-3
    assert np.count_nonzero(np.diff(np.sign(v))) == nodes


def _orbit_distances(op, params, wave):
    """Oracle orbit distances at t = 0.5, 1, ..., 12 (dt = 2e-3) of a run
    from the wave plus an H-normalised radial bump of size 1e-7, with the
    wave's mass restored."""
    bump = np.exp(-((op.grid.nodes - 2.0) ** 2))
    v = wave + (1e-7 / np.sqrt(op.h_norm_sq(bump))) * bump
    state = initial_state(Field(v * np.sqrt(op.mass(wave) / op.mass(v)), op.grid), params)
    distances = []
    for _ in range(24):
        state = propagate(state, 2e-3, 250)
        distances.append(orbit_distance_reference(op, state.v.values, wave))
    return np.array(distances)


def test_stability_negative_control(fixed_lambda_states, params33):
    # a standing wave with a node is orbitally unstable: a 1e-7 perturbation
    # grows at the linearisation's rate 0.7778 (measured 0.7729 over
    # t in [5, 12]), while the ground state's distance stays at the
    # Crank-Nicolson floor of dt = 2e-3 (measured at most 1.19e-5), not at delta
    op, states = fixed_lambda_states
    t = 0.5 * np.arange(1, 25)
    late = t >= 5.0
    excited = _orbit_distances(op, params33, states["one-node"][0])
    rate = np.polyfit(t[late], np.log(excited[late]), 1)[0]
    assert 0.74 <= rate <= 0.81
    assert np.max(_orbit_distances(op, params33, states["ground"][0])) < 5e-5


def test_orbit_distance_grid_mismatch(wave2k):
    other = build_grid(128, 1e-3, 10.0)
    with pytest.raises(ShapeError):
        orbit_distance(Field(values=np.ones(other.n), grid=other), wave2k)


@pytest.mark.parametrize("kind", PERTURBATION_KINDS)
def test_perturbation_sizes_and_mass(wave2k, params33, kind):
    op = RadialOperator(wave2k.v.grid, params33)
    for delta in (1e-3, 1e-2):
        field = perturbed_field(wave2k, delta, kind)
        assert abs(op.mass(field.values) - params33.gamma) < 1e-12
        dist = orbit_distance(field, wave2k)
        assert dist < 3.0 * delta  # renormalisation may shrink the offset


def test_unknown_perturbation_kind(wave2k):
    from hardywaves import ParameterError

    with pytest.raises(ParameterError):
        perturbed_field(wave2k, 1e-2, "twist")


def test_stability_unperturbed_control(wave2k):
    run = stability_experiment(wave2k, 0.0, T=2.0, dt=1e-3)
    assert run.max_distance < 1e-6
    assert run.times.shape == run.distances.shape == (100,)


@pytest.mark.parametrize("kind", PERTURBATION_KINDS)
def test_stability_short_runs_stay_close(wave2k, kind):
    delta = 1e-2
    run = stability_experiment(wave2k, delta, perturbation_kind=kind, T=5.0, dt=1e-3)
    assert run.max_distance < 10.0 * delta
    assert np.max(run.charge_drift) < 1e-8
    assert np.max(run.energy_drift) < 1e-6


def test_stability_requires_subcritical(wave2k):
    from hardywaves import ParameterError, Params

    # the wave's problem is its operator's, here outside 2 < q < 2 + 4/N
    supercritical = replace(wave2k, op=RadialOperator(wave2k.v.grid, Params(N=3, q=4.0)))
    with pytest.raises(ParameterError):
        stability_experiment(supercritical, 1e-2, T=1.0)


def test_stability_with_equal_weight_specs():
    # equal but distinct weight specs compare and hash by value, and a
    # weighted wave runs under its own weight
    grid = build_grid(512, 1e-4, 30.0)
    pa = Params(N=3, q=3.0, weight=WeightSpec(0.0, -2.0))
    pb = Params(N=3, q=3.0, weight=WeightSpec(0.0, -2.0))
    assert pa == pb
    assert hash(pa) == hash(pb)
    wave = normalized_gradient_flow(pa, grid)
    assert wave.params == pb
    run = stability_experiment(wave, 1e-3, T=0.1, dt=1e-3)
    assert run.max_distance < 1e-2


def test_stability_experiment_builds_one_operator(wave2k, monkeypatch):
    # the wave carries its operator, and the run starts on it: the one
    # operator of the problem is the one the ground-state solve assembled
    built = []
    init = RadialOperator.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RadialOperator, "__init__", counted)
    stability_experiment(wave2k, 1e-2, T=0.1, dt=1e-3)
    assert len(built) == 0


@pytest.mark.parametrize("T", [np.nan, np.inf, -1.0, 0.0])
def test_stability_rejects_bad_final_time(wave2k, T):
    from hardywaves import ParameterError

    with pytest.raises(ParameterError, match="final time"):
        stability_experiment(wave2k, 1e-2, T=T, dt=1e-3)


@pytest.mark.parametrize("dt", [np.nan, np.inf, -1e-3, 0.0])
def test_stability_rejects_bad_time_step(wave2k, dt):
    # dt = 0 divided by zero, and nan failed to round, in the step count
    from hardywaves import ParameterError

    with pytest.raises(ParameterError, match="time step"):
        stability_experiment(wave2k, 1e-2, T=1.0, dt=dt)


def test_stability_rejects_overflowing_step_count(wave2k):
    # T / (100 dt) = inf overflowed int(round(...)) in the step count
    from hardywaves import ParameterError

    with pytest.raises(ParameterError, match="must be finite"):
        stability_experiment(wave2k, 1e-2, T=1e308, dt=1e-10)


def test_stability_rejects_step_count_above_bound():
    # T / dt = 1e203 is finite, and its run went on for practical eternity
    check_run([1e-2], 1e6, 1e-3)  # 1e9 steps, the bound
    for T, dt in ((1e200, 1e-3), (1.001e6, 1e-3), (1e308, 1e-10)):
        with pytest.raises(ParameterError, match="at most 1e"):
            check_run([1e-2], T, dt)


@pytest.mark.parametrize("kind", PERTURBATION_KINDS)
def test_stability_rejects_delta_that_overflows_the_mass(wave2k, kind):
    # an infinite perturbed mass renormalised the field to zero, and the
    # charge drift then divided by a zero charge
    from hardywaves import ParameterError

    with pytest.raises(ParameterError, match="mass inf"):
        stability_experiment(wave2k, 1e160, perturbation_kind=kind)


@pytest.mark.parametrize("kind", PERTURBATION_KINDS)
def test_stability_experiment_matches_chained_propagate(wave2k, params33, kind):
    # the run on the wave's operator gives the bits of the same run made
    # through the public calls, on an operator initial_state assembles
    delta, T, dt = 1e-2, 0.2, 1e-3
    run = stability_experiment(wave2k, delta, perturbation_kind=kind, T=T, dt=dt)
    state = initial_state(perturbed_field(wave2k, delta, kind), params33)
    samples = []
    for _ in range(100):
        state = propagate(state, dt, 2)  # T / (100 dt) steps per sample
        charge, energy = invariants(state)
        samples.append((
            state.time,
            orbit_distance(state.v, wave2k),
            abs(charge - state.charge0) / state.charge0,
            abs(energy - state.energy0) / max(abs(state.energy0), 1e-300),
        ))
    expected = np.array(samples).T
    assert np.array_equal(expected, [run.times, run.distances, run.charge_drift, run.energy_drift])


@pytest.mark.parametrize("kind", PERTURBATION_KINDS)
def test_orbital_runs_take_their_solve_counts(wave8k, kind, monkeypatch):
    # the orbital benchmark's runs (T = 0.6, dt = 2e-3, 300 steps) take one
    # solve per step on the orbit, plus the run's first, and two off it:
    # 1501 per round.  A rounding change in the stage that lifts the first
    # midpoint update of an unperturbed step above the 1e-12 stop costs
    # about 50 more at delta = 0
    solves = []
    solve = RadialOperator.solve_cayley

    def counted(self, *args):
        solves.append(1)
        return solve(self, *args)

    monkeypatch.setattr(RadialOperator, "solve_cayley", counted)
    for delta, expected in ((0.0, 301), (1e-3, 600), (1e-2, 600)):
        solves.clear()
        stability_experiment(wave8k, delta, perturbation_kind=kind, T=0.6, dt=2e-3)
        assert len(solves) == expected


def test_array_records_compare_by_identity(wave2k, params33):
    # == on records holding arrays is identity and never raises; values
    # compare with np.array_equal
    run = dict(delta=0.1, times=[0.0, 1.0], distances=[0.0, 0.1],
               charge_drift=[0.0, 0.0], energy_drift=[0.0, 0.0])
    pairs = [
        (build_grid(256, 1e-4, 30.0), build_grid(256, 1e-4, 30.0)),
        (wave2k.v, wave2k.v.with_values(wave2k.v.values)),
        (wave2k, replace(wave2k)),
        (initial_state(wave2k.v, params33), initial_state(wave2k.v, params33)),
        (StabilityRun(**run), StabilityRun(**run)),
    ]
    for a, b in pairs:
        assert a == a and a != b
        assert len({a, b}) == 2


def test_stability_run_stays_read_only_through_pickle():
    # a run returned by a worker process is unpickled; its arrays used to
    # come back writeable, since unpickling skipped __post_init__
    run = StabilityRun(delta=0.1, times=[0.0, 1.0], distances=[0.0, 0.1],
                       charge_drift=[0.0, 1e-16], energy_drift=[0.0, 2e-16])
    back = pickle.loads(pickle.dumps(run))
    assert back.delta == run.delta
    for name in ("times", "distances", "charge_drift", "energy_drift"):
        assert not getattr(back, name).flags.writeable
        assert np.array_equal(getattr(back, name), getattr(run, name))


@pytest.mark.parametrize("change, match", [
    (dict(energy_drift=[0.0, 0.0, 0.0]), "one length"),
    (dict(distances=[0.0, -1e-3]), "negative"),
], ids=["lengths", "negative-distance"])
def test_stability_run_rejects_inconsistent_arrays(change, match):
    run = dict(delta=0.1, times=[0.0, 1.0], distances=[0.0, 0.1],
               charge_drift=[0.0, 0.0], energy_drift=[0.0, 0.0])
    with pytest.raises(ParameterError, match=match):
        StabilityRun(**{**run, **change})


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_experiments_give_the_bits_of_one_process(wave2k, monkeypatch, cpus):
    # one CPU runs the deltas here; more fork workers, whose runs must be
    # the runs made here, in delta order
    deltas, kind, T, dt = [1e-2, 0.0, 1e-3], "phase-ramp", 0.2, 1e-3
    expected = [stability_experiment(wave2k, d, perturbation_kind=kind, T=T, dt=dt)
                for d in deltas]
    _cpus(monkeypatch, cpus)
    runs = _experiments(wave2k, deltas, kind, T, dt)
    assert [run.delta for run in runs] == deltas
    for run, ref in zip(runs, expected):
        for name in ("times", "distances", "charge_drift", "energy_drift"):
            assert np.array_equal(getattr(run, name), getattr(ref, name))
            assert not getattr(run, name).flags.writeable


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_experiments_raise_the_first_failing_delta(wave2k, monkeypatch, cpus):
    # delta 3 fails first in time, but the loop here meets delta 2 first,
    # and stops there: delta 2's class, message and diagnostics are raised
    started = []

    def run(sw, delta, **kwargs):
        started.append(delta)
        if delta == 2.0:
            time.sleep(0.2)
            raise StepError("delta 2 failed", diagnostics={"delta": delta, "pid": os.getpid()})
        if delta == 3.0:
            raise ParameterError("delta 3 failed")
        return stability_experiment(sw, 0.0, T=0.01, dt=1e-3)

    monkeypatch.setattr(stability, "stability_experiment", run)
    _cpus(monkeypatch, cpus)
    with pytest.raises(StepError, match="delta 2 failed") as info:
        _experiments(wave2k, [1.0, 2.0, 3.0, 4.0], "radial-bump", 0.01, 1e-3)
    assert type(info.value) is StepError and info.value.diagnostics["delta"] == 2.0
    assert (info.value.diagnostics["pid"] == os.getpid()) == (cpus == 1)
    # delta 1 runs here on any CPU count; workers record in their own memory
    assert started == ([1.0, 2.0] if cpus == 1 else [1.0])


def test_experiments_run_the_first_delta_here(wave2k, monkeypatch):
    # the calling process runs the first delta while the workers run the rest
    monkeypatch.setattr(stability, "stability_experiment",
                        lambda sw, delta, **kwargs: (delta, os.getpid()))
    _cpus(monkeypatch, 2)
    marks = _experiments(wave2k, [1.0, 2.0, 3.0], "radial-bump", 0.01, 1e-3)
    assert [delta for delta, _ in marks] == [1.0, 2.0, 3.0]
    assert marks[0][1] == os.getpid()
    assert all(pid != os.getpid() for _, pid in marks[1:])


def test_experiments_stay_in_one_process_beside_a_thread(wave2k, monkeypatch):
    # fork copies only the calling thread, so a second Python thread keeps
    # every run here, whatever the CPU count
    pids = []

    def run(sw, delta, **kwargs):
        pids.append(os.getpid())
        return stability_experiment(sw, 0.0, T=0.01, dt=1e-3)

    monkeypatch.setattr(stability, "stability_experiment", run)
    _cpus(monkeypatch, 2)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        runs = _experiments(wave2k, [1.0, 2.0, 3.0], "radial-bump", 0.01, 1e-3)
    finally:
        release.set()
        waiter.join()
    assert len(runs) == 3 and pids == [os.getpid()] * 3


def test_experiments_report_a_worker_that_dies(wave2k, monkeypatch):
    # a worker killed before it reports (by the kernel, say) leaves no
    # result: that is an error, not a missing run
    parent = os.getpid()

    def killed(sw, delta, **kwargs):
        if delta == 1.0:  # the first delta runs here and returns
            assert os.getpid() == parent, "the first delta went to a worker"
            return stability_experiment(sw, 0.0, T=0.01, dt=1e-3)
        assert os.getpid() != parent, "the run did not go to a worker"
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(stability, "stability_experiment", killed)
    _cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="terminated abruptly"):
        _experiments(wave2k, [1.0, 2.0], "radial-bump", 0.01, 1e-3)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_MARKED_RUNS = """
import os, sys, time
from hardywaves import stability

def run(sw, delta, **kwargs):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    time.sleep(30)

stability.stability_experiment = run
os.sched_getaffinity = lambda pid: {0, 1}
stability._experiments(None, [float(d) for d in sys.argv[2:]], "radial-bump", 1.0, 1e-3)
"""


def _start_marked_runs(tmp_path, deltas, ready):
    """A process whose _experiments runs each delta as a 30-s sleep that
    first marks its pid in tmp_path, returned once ``ready(marked pids,
    its pid)`` holds."""
    src = str(Path(hardywaves.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-c", _MARKED_RUNS, str(tmp_path), *deltas],
                            env=dict(os.environ, PYTHONPATH=src), start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 30.0
    while not ready({int(pid) for pid in os.listdir(tmp_path)}, proc.pid):
        if proc.poll() is not None or time.monotonic() > deadline:
            _stop(proc, tmp_path)
            pytest.fail("the runs did not all start")
        time.sleep(0.02)
    return proc


def _stop(proc, tmp_path):
    """Kill what is left of a marked-runs process, workers first, so that
    the parent reaps them."""
    workers = [int(pid) for pid in os.listdir(tmp_path) if int(pid) != proc.pid]
    if proc.poll() is None:
        for pid in workers:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(subprocess.TimeoutExpired):
            proc.wait(timeout=10.0)
        proc.kill()
        proc.wait()
    for pid in filter(_alive, workers):  # orphans, once the parent is gone
        os.kill(pid, signal.SIGKILL)


def _alive(pid: int) -> bool:
    """Whether the process runs: it exists and is not a zombie, which an
    init that does not reap would leave behind."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


def test_an_interrupt_stops_the_workers(tmp_path):
    # SIGINT to the parent alone: the pool's shutdown would wait for the
    # running runs, so the call must kill its workers to end soon
    proc = _start_marked_runs(tmp_path, ["1", "2"], lambda marks, parent: len(marks) == 2)
    try:
        assert str(proc.pid) in os.listdir(tmp_path)  # the first delta runs in the parent
        proc.send_signal(signal.SIGINT)
        start = time.monotonic()
        proc.wait(timeout=10.0)
        assert time.monotonic() - start < 5.0 and proc.returncode != 0
        with pytest.raises(ProcessLookupError):  # nothing is left in the run's session
            os.killpg(proc.pid, 0)
    finally:
        _stop(proc, tmp_path)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="parent-death signal is Linux's")
def test_workers_die_with_a_killed_parent(tmp_path):
    # SIGKILL to the parent alone (the OOM killer, say) runs nothing there:
    # the kernel must kill the workers, which would otherwise sleep for ever
    proc = _start_marked_runs(tmp_path, ["1", "2", "3"],
                              lambda marks, parent: len(marks - {parent}) == 2)
    try:
        workers = [int(pid) for pid in os.listdir(tmp_path) if int(pid) != proc.pid]
        assert len(workers) == 2
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 5.0
        while any(map(_alive, workers)):
            assert time.monotonic() < deadline, "a worker outlived its parent"
            time.sleep(0.02)
    finally:
        _stop(proc, tmp_path)
