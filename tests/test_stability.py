import numpy as np
import pytest

from hardywaves import (
    Field,
    Params,
    ShapeError,
    WeightSpec,
    build_grid,
    normalized_gradient_flow,
    orbit_distance,
    stability_experiment,
)
from hardywaves.operators import RadialOperator
from hardywaves.stability import PERTURBATION_KINDS, perturbed_field


def test_orbit_distance_phase_invariance(wave2k):
    for theta in (0.0, 0.4, 1.9, np.pi):
        rotated = wave2k.v.with_values(np.exp(1j * theta) * wave2k.v.values.astype(complex))
        assert orbit_distance(rotated, wave2k) < 1e-12


def test_orbit_distance_of_wave_itself(wave2k):
    assert orbit_distance(wave2k.v, wave2k) == 0.0


def test_orbit_distance_collinear(wave2k):
    scaled = wave2k.v.with_values(1.01 * wave2k.v.values)
    expected = 0.01 * np.sqrt(wave2k.energies.h_norm_sq)
    assert abs(orbit_distance(scaled, wave2k) - expected) < 1e-10 * expected


def test_orbit_distance_pythagoras(wave2k, params33):
    # perturbation H-orthogonal to the complex span of the wave: the optimal
    # phase is irrelevant and the distance equals the perturbation norm
    op = RadialOperator(wave2k.v.grid, params33)
    vg = wave2k.v.values.astype(complex)
    w = np.exp(-((wave2k.v.grid.nodes - 1.0) ** 2)).astype(complex)
    w = w - (op.h_inner(w, vg) / op.h_norm_sq(vg)) * vg
    assert abs(op.h_inner(w, vg)) < 1e-12
    perturbed = wave2k.v.with_values(vg + w)
    expected = np.sqrt(op.h_norm_sq(w))
    assert abs(orbit_distance(perturbed, wave2k) - expected) < 1e-9 * expected


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


def test_stability_unperturbed_control(wave2k, params33):
    run = stability_experiment(params33, wave2k, 0.0, T=2.0, dt=1e-3)
    assert run.max_distance < 1e-6
    assert run.times.shape == run.distances.shape == (100,)


@pytest.mark.parametrize("kind", PERTURBATION_KINDS)
def test_stability_short_runs_stay_close(wave2k, params33, kind):
    delta = 1e-2
    run = stability_experiment(params33, wave2k, delta, perturbation_kind=kind, T=5.0, dt=1e-3)
    assert run.max_distance < 10.0 * delta
    assert np.max(run.charge_drift) < 1e-8
    assert np.max(run.energy_drift) < 1e-6


def test_stability_requires_subcritical(wave2k):
    from hardywaves import ParameterError, Params

    with pytest.raises(ParameterError):
        stability_experiment(Params(N=3, q=4.0), wave2k, 1e-2, T=1.0)


def test_stability_with_equal_weight_specs():
    # equal but distinct weight specs compare by value, so the wave's
    # parameters match the run's instead of raising on an array comparison
    grid = build_grid(512, 1e-4, 30.0)
    pa = Params(N=3, q=3.0, weight=WeightSpec.from_exponents(0.0, -2.0))
    pb = Params(N=3, q=3.0, weight=WeightSpec.from_exponents(0.0, -2.0))
    assert pa == pb
    run = stability_experiment(pb, normalized_gradient_flow(pa, grid), 1e-3, T=0.1, dt=1e-3)
    assert run.max_distance < 1e-2


def test_stability_experiment_builds_one_operator(wave2k, params33, monkeypatch):
    # the wave carries its operator, so a run assembles only its initial
    # state's operator, which propagates every chunk
    built = []
    init = RadialOperator.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RadialOperator, "__init__", counted)
    stability_experiment(params33, wave2k, 1e-2, T=0.1, dt=1e-3)
    assert len(built) <= 1
