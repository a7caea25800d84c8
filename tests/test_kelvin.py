import numpy as np
import pytest

from hardywaves import (
    Field,
    build_grid,
    hardy_functional_u,
    integrate_mu,
    kelvin_transform,
    kelvin_verify,
    lambda_infinity,
    reciprocal_grid,
    surface_term,
    to_u,
    to_v,
    unit_ball_volume,
    w_norm,
)
from hardywaves.checks import random_fields
from oracle import hardy_cells_reference


@pytest.fixture(scope="module")
def wide_grid():
    return build_grid(2048, 1e-5, 1e5)


def tail_field(grid, c=1.7, N=3):
    # w ~ c r^{-(N-2)/2} at infinity, vanishing near the origin end
    x = grid.log_nodes
    cut = 0.5 * (1.0 + np.tanh((x - np.log(10.0)) / 0.5))
    return Field(values=c * grid.nodes ** (-(N - 2) / 2.0) * cut, grid=grid)


def test_kelvin_of_fundamental_power(wide_grid):
    # w = r^{-(N-2)}: psi == 1 on the reciprocal grid
    w = Field(values=wide_grid.nodes**-1.0, grid=wide_grid)
    psi = kelvin_transform(w, 3)
    assert np.max(np.abs(psi.values - 1.0)) < 1e-13


def test_kelvin_involution(wide_grid):
    rng = np.random.default_rng(1)
    w = Field(values=rng.normal(size=wide_grid.n), grid=wide_grid)
    psi = kelvin_transform(w, 3)
    back = kelvin_transform(psi, 3)
    scale = np.max(np.abs(w.values))
    assert np.max(np.abs(back.values - w.values)) < 1e-13 * scale
    # the double-reciprocal grid is exact in the log representation
    assert np.array_equal(back.grid.log_nodes, wide_grid.log_nodes)
    assert np.allclose(back.grid.nodes, wide_grid.nodes, rtol=5e-16, atol=0.0)


def test_reciprocal_grid_structure(wide_grid):
    rec = reciprocal_grid(wide_grid)
    assert np.array_equal(rec.log_nodes, -wide_grid.log_nodes[::-1])
    psi = kelvin_transform(Field(values=np.ones(wide_grid.n), grid=wide_grid), 3)
    assert np.array_equal(psi.grid.log_nodes, rec.log_nodes)
    assert np.all(np.diff(rec.nodes) > 0)


def test_kelvin_swaps_singularity_ends(wide_grid):
    # w ~ r^{-(N-2)/2} at infinity maps to psi ~ rho^{-(N-2)/2} near zero
    w = tail_field(wide_grid)
    psi = kelvin_transform(w, 3)
    rho = psi.grid.nodes[:5]
    assert np.allclose(psi.values[:5], 1.7 * rho**-0.5, rtol=1e-12)


def test_w_norm_zero(wide_grid):
    w = Field(values=np.zeros(wide_grid.n), grid=wide_grid)
    assert w_norm(w, 3).value == 0.0


def test_w_norm_isometry_with_direct_side(wide_grid):
    # ||w||_W^2 equals the energy norm of psi = K(w) (with the mass measured
    # as int |x|^{-4} |w|^2 on the dual side and int |psi|^2 on the direct)
    report = kelvin_verify(wide_grid, 3, samples=100, seed=42)
    assert report["max_norm_mismatch"] < 1e-6
    assert report["max_involution_error"] < 1e-12
    assert report["passed"] is True


def test_lambda_infinity_reproduces_origin_formula(wide_grid):
    c = 1.7
    w = tail_field(wide_grid, c=c)
    target = 0.5 * 3 * 1 * unit_ball_volume(3) * c**2
    assert abs(lambda_infinity(w, 3) - target) / target < 1e-2


def test_surface_sign_structure(wide_grid):
    # dual side: the truncated norm adds the surface term (I + Lambda stays
    # level across tail radii, Lambda > 0); direct side: the norm subtracts
    # it (I - Lambda recovers the weighted Dirichlet energy from above)
    N = 3
    w = tail_field(wide_grid)
    report = w_norm(w, N)
    assert all(s > 0.0 for s in report.tail_surface)
    assert report.tail_surface == tuple(surface_term(w, N, r) for r in report.tail_radii)
    combined = [i + s for i, s in zip(report.tail_hardy, report.tail_surface)]
    spread = max(combined) - min(combined)
    assert spread < 1e-2 * combined[-1]

    psi = kelvin_transform(w, N)
    grid_psi = psi.grid
    eps = grid_psi.nodes[0]
    bare = hardy_functional_u(psi, N, eps)
    lam = surface_term(psi, N, eps)
    assert lam > 0.0
    # psi carries the origin singularity: the bare exterior functional sits a
    # surface term above the corrected one
    assert bare - lam < bare


def test_w_norm_mass_part_matches_direct_mass(wide_grid):
    # int |x|^{-4} |w|^2 dx == int |psi|^2 dy, node for node
    N = 3
    w = tail_field(wide_grid)
    psi = kelvin_transform(w, N)
    report = w_norm(w, N)
    psi_mass = integrate_mu(np.abs(to_v(psi, N).values) ** 2, psi.grid, N)
    assert abs(report.weighted_mass - psi_mass) < 1e-12 * psi_mass


@pytest.mark.parametrize("N", [3, 4, 5, 7])
def test_w_norm_hardy_is_the_interior_cells(wide_grid, N):
    # the Hardy part and its truncations leave the zero-extension cell out:
    # masked sums of the reference's n - 1 interior cells, to the bit
    sphere = N * unit_ball_volume(N)
    fields = [tail_field(wide_grid, N=N)]
    fields += [to_u(v, N) for _, v in random_fields(wide_grid, 3, seed=5)]
    for w in fields:
        cells = hardy_cells_reference(wide_grid.log_nodes, w.values, N)
        report = w_norm(w, N)
        inside = [sphere * float(np.sum(cells[wide_grid.nodes[1:] <= r]))
                  for r in (wide_grid.r_max, *report.tail_radii)]
        assert (report.hardy, *report.tail_hardy) == tuple(inside)
