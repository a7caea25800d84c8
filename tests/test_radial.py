import math

import numpy as np
import pytest
from scipy.integrate import quad

from hardywaves import (
    DomainError,
    Field,
    ParameterError,
    RadialGrid,
    ShapeError,
    build_grid,
    integrate_mu,
    reciprocal_grid,
    to_u,
    to_v,
    unit_ball_volume,
)
from hardywaves.radial import origin_intercept


def test_grid_constructor_echo():
    grid = build_grid(10_000, 1e-6, 50.0)
    assert grid.n == 10_000
    assert grid.nodes[0] == 1e-6
    assert grid.nodes[-1] == 50.0
    assert np.all(np.diff(grid.nodes) > 0)
    assert np.all(grid.weights > 0)


@pytest.mark.parametrize(
    "n, r_min, r_max",
    [(8, 1e-6, 50.0), (100, -1.0, 50.0), (100, 2.0, 1.0), (100, 0.0, 1.0),
     # weights t r^2 that under- or overflow, so every integral reads 0 or nan
     (2048, 1e-200, 50.0), (2048, 1e-6, 1e160)],
)
def test_grid_invalid_arguments(n, r_min, r_max):
    with pytest.raises(ParameterError):
        build_grid(n, r_min, r_max)


def test_grid_rejects_unequal_log_steps():
    # the stiffness 1/h is the Dirichlet form only on equally spaced
    # log-nodes; the log of a grid uniform in r is not one
    r = np.linspace(1e-2, 10.0, 512)
    with pytest.raises(ParameterError, match="equally spaced"):
        RadialGrid(nodes=r, log_nodes=np.log(r))


@pytest.mark.parametrize("nodes", [[-1.0, 1.0, 3.0], [1.0, 3.0, 2.0]],
                         ids=["nonpositive", "decreasing"])
def test_grid_rejects_nodes_out_of_order(nodes):
    with pytest.raises(ParameterError, match="positive and strictly increasing"):
        RadialGrid(nodes=np.array(nodes), log_nodes=np.arange(3.0))


def test_unit_ball_volume_overflow_is_a_parameter_error():
    # Gamma(N/2 + 1) is finite up to N = 341 and overflows from N = 342
    assert unit_ball_volume(341) == np.pi ** 170.5 / math.gamma(171.5) > 0.0
    with pytest.raises(ParameterError, match="N=342"):
        unit_ball_volume(342)


def test_grid_tolerates_rounded_log_steps():
    # linspace rounds the log-nodes, so build_grid's steps spread by a few
    # ulps of max|x|; the spacing check lets them through up to large n, and
    # the weight check lets through ranges close to the normal doubles'
    for n, r_min, r_max in [(20_000, 1e-6, 50.0), (20_000, 1e-12, 400.0), (4096, 0.5, 2.0),
                            (2048, 1e-150, 1e150)]:
        grid = build_grid(n, r_min, r_max)
        assert np.ptp(np.diff(grid.log_nodes)) > 0.0


def test_grid_derives_its_weights():
    # the weights are the half-end trapezoid t r^2 of the log-nodes, which
    # the grid computes itself: they cannot be passed, so none disagree
    grid = build_grid(1000, 1e-6, 50.0)
    for g in (grid, reciprocal_grid(grid)):
        t = np.full(g.n, g.log_nodes[1] - g.log_nodes[0])
        t[0] *= 0.5
        t[-1] *= 0.5
        assert np.array_equal(g.weights, t * g.nodes**2)
        again = RadialGrid(nodes=g.nodes, log_nodes=g.log_nodes)
        assert np.array_equal(again.weights, g.weights)
    with pytest.raises(TypeError):
        RadialGrid(nodes=grid.nodes, log_nodes=grid.log_nodes, weights=grid.weights)


def test_quadrature_indicator_log_grid():
    # indicator of [0, 1] extended by zero on a wide log grid: the cell
    # containing the jump limits accuracy to O(h * r^2) there
    grid = build_grid(10_000, 1e-6, 50.0)
    f = (grid.nodes <= 1.0).astype(float)
    h = grid.log_step
    assert abs(grid.quadrature(f) - 0.5) < 2.0 * h


def test_quadrature_gaussian_closed_form():
    # int_0^inf r exp(-r^2) dr = 1/2
    grid = build_grid(10_000, 1e-6, 50.0)
    assert abs(grid.quadrature(np.exp(-grid.nodes**2)) - 0.5) < 1e-6


def test_quadrature_second_order_bound():
    # error at most O(h^2) under refinement for a smooth decaying integrand
    exact = 0.5
    errors = []
    for n in (1024, 2048, 4096):
        grid = build_grid(n, 1e-6, 50.0)
        errors.append(abs(grid.quadrature(np.exp(-grid.nodes**2)) - exact))
    for n, err in zip((1024, 2048, 4096), errors):
        h = np.log(50.0 / 1e-6) / (n - 1)
        assert err <= 1.0 * h**2


def test_integrate_mu_gaussian():
    # mu-mass of exp(-r^2/2) at N=3: 4 pi int r e^{-r^2} dr = 2 pi
    grid = build_grid(8192, 1e-6, 50.0)
    v = np.exp(-grid.nodes**2 / 2.0)
    assert abs(integrate_mu(v**2, grid, 3) - 2.0 * np.pi) < 1e-6


def test_integrate_mu_zero():
    grid = build_grid(512, 1e-4, 10.0)
    assert integrate_mu(np.zeros(grid.n), grid, 3) == 0.0


def test_integrate_mu_refinement_oracle():
    # smoothed bump against a high-resolution reference quadrature
    def bump(grid):
        return np.exp(-(((grid.log_nodes - np.log(0.5)) / 1.0) ** 2))

    ref_grid = build_grid(131_072, 1e-6, 50.0)
    reference = integrate_mu(bump(ref_grid) ** 2, ref_grid, 3)
    grid = build_grid(8192, 1e-6, 50.0)
    value = integrate_mu(bump(grid) ** 2, grid, 3)
    assert abs(value - reference) / reference < 1e-6


def test_integrate_mu_shape_error():
    grid = build_grid(512, 1e-4, 10.0)
    with pytest.raises(ShapeError):
        integrate_mu(np.zeros(grid.n + 1), grid, 3)


def test_transform_definition_n3():
    grid = build_grid(512, 1e-4, 10.0)
    v = Field(values=np.ones(grid.n), grid=grid)
    u = to_u(v, 3)
    assert np.allclose(u.values, grid.nodes**-0.5, rtol=1e-14)


def test_transform_definition_n4():
    grid = build_grid(512, 1e-4, 10.0)
    v = Field(values=np.exp(-grid.nodes), grid=grid)
    u = to_u(v, 4)
    assert np.allclose(u.values, np.exp(-grid.nodes) / grid.nodes, rtol=1e-14)


def test_transform_round_trip_machine_precision():
    grid = build_grid(2048, 1e-6, 50.0)
    rng = np.random.default_rng(3)
    v = Field(values=rng.normal(size=grid.n), grid=grid)
    for N in (3, 4, 5):
        back = to_v(to_u(v, N), N)
        assert np.allclose(back.values, v.values, rtol=5e-16, atol=0.0)


def test_transform_is_mass_isometry():
    # mu-mass of v equals the plain L^2 mass of u = T(v), node for node
    grid = build_grid(2048, 1e-6, 50.0)
    v = Field(values=np.exp(-grid.nodes**2 / 2.0), grid=grid)
    N = 3
    u = to_u(v, N)
    mass_v = integrate_mu(np.abs(v.values) ** 2, grid, N)
    # L^2 mass of u: N omega_N int |u|^2 r^{N-1} dr = quadrature of |u|^2 r^{N-2}
    mass_u = N * unit_ball_volume(N) * grid.quadrature(np.abs(u.values) ** 2 * grid.nodes ** (N - 2))
    assert abs(mass_v - mass_u) < 1e-13 * mass_v


def test_origin_intercept_recovers_line_in_origin_coordinate():
    # samples a + b t(r) with t = (-log r)^{-1/(N-2)}: the intercept is a
    grid = build_grid(64, np.exp(-8.0), 10.0)
    a, b = 0.75, -2.5
    for N in (3, 4, 5):
        t = (1.0 / np.log(1.0 / grid.nodes[:3])) ** (1.0 / (N - 2))
        assert abs(origin_intercept(a + b * t, grid, N) - a) < 1e-12


def test_origin_intercept_domain_error():
    # the origin coordinate is defined below r = 1 only
    with pytest.raises(DomainError, match="below r = 1"):
        origin_intercept(np.ones(3), build_grid(64, 1.0, 10.0), 3)


def test_field_requires_finite_values():
    grid = build_grid(512, 1e-4, 10.0)
    values = np.ones(grid.n)
    values[3] = np.nan
    with pytest.raises(ParameterError):
        Field(values=values, grid=grid)


def test_field_requires_one_value_per_node():
    grid = build_grid(512, 1e-4, 10.0)
    for values in (np.ones(grid.n + 1), np.ones((grid.n, 2))):
        with pytest.raises(ShapeError, match="512 nodes"):
            Field(values=values, grid=grid)


def test_params_validation():
    with pytest.raises(ParameterError):
        from hardywaves import Params

        Params(N=2, q=3.0)
    from hardywaves import Params

    with pytest.raises(ParameterError):
        Params(N=3, q=2.0)
    with pytest.raises(ParameterError):
        Params(N=3, q=6.0)
    with pytest.raises(ParameterError):
        Params(N=3, q=3.0, gamma=0.0)
    p = Params(N=3, q=3.0)
    assert p.subcritical
    assert not Params(N=3, q=4.0).subcritical  # 2 + 4/3 < 4 < 6: inequality-only range


def test_gaussian_quadrature_against_scipy_oracle():
    # independent oracle for the frozen 2 pi values used across the suite
    val, _ = quad(lambda r: r * np.exp(-(r**2)), 0.0, np.inf)
    assert abs(val - 0.5) < 1e-12
    val3, _ = quad(lambda r: r**3 * np.exp(-(r**2)), 0.0, np.inf)
    assert abs(val3 - 0.5) < 1e-12
