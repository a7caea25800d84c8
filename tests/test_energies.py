import numpy as np
import pytest
from scipy.integrate import quad

from hardywaves import (
    DomainError,
    Field,
    ParameterError,
    Params,
    build_grid,
    hardy_functional_u,
    integrate_mu,
    surface_term,
    surface_term_limit,
    to_u,
    unit_ball_volume,
    weighted_dirichlet,
)
from hardywaves.checks import random_fields
from hardywaves.energies import _energy_report
from hardywaves.operators import RadialOperator
from oracle import hardy_functional_reference


def log_bump(grid, center, width=1.0, amp=1.0):
    return Field(values=amp * np.exp(-(((grid.log_nodes - np.log(center)) / width) ** 2)), grid=grid)


# ---------------------------------------------------------------------------
# weighted Dirichlet energy


def test_dirichlet_gaussian_closed_form(grid8k):
    # 4 pi int r^3 e^{-r^2} dr = 2 pi  (Gaussian integral oracle)
    v = Field(values=np.exp(-grid8k.nodes**2 / 2.0), grid=grid8k)
    assert abs(weighted_dirichlet(v, 3) - 2.0 * np.pi) < 2e-5


def test_dirichlet_zero(grid2k):
    v = Field(values=np.zeros(grid2k.n), grid=grid2k)
    assert weighted_dirichlet(v, 3) == 0.0


def test_dirichlet_refinement_oracle():
    # bump vanishing near both boundaries vs a high-resolution reference
    ref_grid = build_grid(65_536, 1e-6, 50.0)
    reference = weighted_dirichlet(log_bump(ref_grid, 0.2, width=1.5), 3)
    value = weighted_dirichlet(log_bump(build_grid(8192, 1e-6, 50.0), 0.2, width=1.5), 3)
    assert abs(value - reference) / reference < 1e-6


# ---------------------------------------------------------------------------
# exterior Hardy functional


def test_hardy_zero(grid2k):
    u = Field(values=np.zeros(grid2k.n), grid=grid2k)
    assert hardy_functional_u(u, 3, grid2k.r_min) == 0.0


def test_hardy_supported_bump_equals_dirichlet(grid8k):
    # v supported in [1, 2]: I(u) = weighted_dirichlet(v) for any eps < 1
    x = grid8k.log_nodes
    center = 0.5 * np.log(2.0)
    v = Field(values=np.exp(-(((x - center) / 0.08) ** 2)), grid=grid8k)
    u = to_u(v, 3)
    wd = weighted_dirichlet(v, 3)
    for eps in (grid8k.r_min, 0.5):
        hardy = hardy_functional_u(u, 3, eps)
        assert abs(hardy - wd) / wd < 1e-6


def test_hardy_gaussian_norm_limit_structure(grid8k):
    # For v(0) != 0 the exterior functional alone converges to
    # wd + N(N-2)/2 omega_N v(0)^2; the surface-corrected limit recovers wd.
    v = Field(values=np.exp(-grid8k.nodes**2 / 2.0), grid=grid8k)
    u = to_u(v, 3)
    wd = weighted_dirichlet(v, 3)
    eps_seq = [grid8k.nodes[k] for k in (400, 100, 0)]
    gaps = []
    for eps in eps_seq:
        corrected = hardy_functional_u(u, 3, eps) - surface_term(u, 3, eps)
        gaps.append(abs(corrected - wd))
    assert gaps[-1] < 5e-5
    # the uncorrected functional sits a full surface term higher
    bare = hardy_functional_u(u, 3, grid8k.r_min)
    assert abs(bare - wd - 2.0 * np.pi) < 1e-4


@pytest.mark.parametrize("N, a", [(3, 0.7), (5, 0.7 - 0.4j)])
def test_hardy_functional_of_last_node_field(grid2k, N, a):
    # only the last grid cell and the zero ghost cell beyond r_max see the field
    x = grid2k.log_nodes
    h = x[-1] - x[-2]
    integrand = abs(a / h) ** 2 - ((N - 2) / 2.0) ** 2 * abs(a / 2) ** 2
    cells = integrand * h * (np.exp((N - 2) * (x[-1] - h / 2)) + np.exp((N - 2) * (x[-1] + h / 2)))
    u = Field(values=np.r_[np.zeros(grid2k.n - 1), a], grid=grid2k)
    expected = N * unit_ball_volume(N) * cells
    assert hardy_functional_u(u, N, grid2k.r_min) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("N", [3, 4, 5, 7])
def test_hardy_functional_matches_two_node_ghost_reference(N):
    # the zero-extension cell is the last of the grid's cached cells; the
    # reference forms it from its own two-node log grid, and both agree to
    # the bit, for real and complex fields and eps up to r_max
    grid = build_grid(1024, 1e-5, 1e5)
    fields = [to_u(v, N) for _, v in random_fields(grid, 4, seed=11)]
    fields.append(fields[0].with_values(fields[0].values * (0.6 - 0.8j)))
    for u in fields:
        for eps in (grid.r_min, 1e-3, 0.7, grid.r_max):
            assert hardy_functional_u(u, N, eps) == hardy_functional_reference(u, N, eps)


def test_hardy_domain_error(grid2k):
    u = Field(values=np.zeros(grid2k.n), grid=grid2k)
    for eps in (grid2k.r_min / 10.0, 2.0 * grid2k.r_max):  # below and above the grid
        with pytest.raises(DomainError):
            hardy_functional_u(u, 3, eps)


# ---------------------------------------------------------------------------
# surface term


def test_surface_term_zero(grid2k):
    u = Field(values=np.zeros(grid2k.n), grid=grid2k)
    assert surface_term(u, 3, 1.0) == 0.0


def test_surface_term_limit_singular_exponential(grid8k):
    # u = r^{-1/2} e^{-r}: v(0) = 1, so the limit is 3 * (4 pi / 3) / 2 * ... = 2 pi.
    # v = e^{-r} has nonzero slope at the origin, which the t-linear
    # extrapolation resolves only to O(r_min / t^2); a few 1e-5 relative here.
    u = Field(values=grid8k.nodes**-0.5 * np.exp(-grid8k.nodes), grid=grid8k)
    assert abs(surface_term_limit(u, 3) - 2.0 * np.pi) / (2.0 * np.pi) < 1e-3


@pytest.mark.parametrize("N, c", [(3, 1.0), (3, 0.37), (4, 2.0)])
def test_surface_term_limit_formula(N, c):
    # eps -> 0 limit equals N(N-2)/2 * omega_N * v(0)^2 for transform images;
    # v quadratically flat at the origin makes the extrapolation sharp
    grid = build_grid(4096, 1e-6, 50.0)
    v = Field(values=c * np.exp(-grid.nodes**2), grid=grid)
    u = to_u(v, N)
    target = 0.5 * N * (N - 2) * unit_ball_volume(N) * c**2
    assert abs(surface_term_limit(u, N) - target) / target < 1e-6


def test_surface_term_domain_error(grid2k):
    u = Field(values=np.ones(grid2k.n), grid=grid2k)
    with pytest.raises(DomainError):
        surface_term(u, 3, grid2k.r_max * 2.0)


# ---------------------------------------------------------------------------
# nonlinear term


def test_nonlinear_zero(grid2k, params33):
    assert RadialOperator(grid2k, params33).nonlinear(np.zeros(grid2k.n)) == 0.0


def test_nonlinear_gaussian_against_quad_oracle(grid8k, params33):
    # (1/3) * 4 pi * int r^{1/2} e^{-3 r^2 / 2} dr; the radial integral has
    # the closed form Gamma(3/4) / (2 (3/2)^{3/4}), cross-checked with quad
    from math import gamma as gamma_fn

    closed = gamma_fn(0.75) / (2.0 * 1.5**0.75)
    oracle, err = quad(lambda r: r**0.5 * np.exp(-1.5 * r**2), 0.0, np.inf)
    assert abs(oracle - closed) < 1e-7
    expected = (4.0 * np.pi / 3.0) * closed
    v = np.exp(-grid8k.nodes**2 / 2.0)
    assert abs(RadialOperator(grid8k, params33).nonlinear(v) - expected) / expected < 1e-6


def test_nonlinear_homogeneity(grid2k, params33):
    op = RadialOperator(grid2k, params33)
    v = log_bump(grid2k, 0.5).values
    base = op.nonlinear(v)
    scaled = op.nonlinear(2.5 * v)
    assert abs(scaled - 2.5**3 * base) / scaled < 1e-13


# ---------------------------------------------------------------------------
# energy report and multiplier


def energy_report(v: Field, params: Params):
    return _energy_report(RadialOperator(v.grid, params), v.values)


def multiplier(rep, q: float) -> float:
    """The integrated identity lambda = (q F - D) / M of an energy report."""
    return (q * rep.nonlinear - rep.dirichlet_mu) / rep.mass_mu


def test_energy_report_zero_field(grid2k, params33):
    rep = energy_report(Field(values=np.zeros(grid2k.n), grid=grid2k), params33)
    assert rep.E == rep.J == rep.dirichlet_mu == rep.mass_mu == rep.nonlinear == 0.0


def test_energy_report_gaussian(grid8k, params33):
    # dirichlet = 2 pi, mass = 2 pi  =>  E = pi - F,  J = E + pi
    v = Field(values=np.exp(-grid8k.nodes**2 / 2.0), grid=grid8k)
    rep = energy_report(v, params33)
    f_val = RadialOperator(grid8k, params33).nonlinear(v.values)
    assert abs(rep.mass_mu - 2.0 * np.pi) < 1e-6
    assert abs(rep.E - (np.pi - f_val)) < 1e-5
    assert abs(rep.J - (rep.E + np.pi)) < 1e-6


def test_energy_report_identity_exact(grid2k, params33):
    v = log_bump(grid2k, 1.3, width=0.7, amp=0.8)
    rep = energy_report(v, params33)
    assert rep.J - rep.E - 0.5 * rep.mass_mu == 0.0


def test_lagrange_multiplier_sign_without_nonlinearity(grid2k):
    # g == 0 switches the q-term off: lambda = -dirichlet/mass <= 0
    p = Params(N=3, q=3.0, weight=np.zeros_like)
    v = log_bump(grid2k, 0.5)
    lam = multiplier(energy_report(v, p), p.q)
    expected = -weighted_dirichlet(v, 3) / integrate_mu(np.abs(v.values) ** 2, grid2k, 3)
    assert lam <= 0.0
    assert abs(lam - expected) < 1e-12 * abs(expected)


def test_lagrange_multiplier_scaling_algebra(grid2k, params33):
    # q = 3: lambda(c v) = (c q F(v) - D(v)) / M(v)
    v = log_bump(grid2k, 0.5)
    c = 1.9
    rep = energy_report(v, params33)
    expected = (c * params33.q * rep.nonlinear - rep.dirichlet_mu) / rep.mass_mu
    lam_scaled = multiplier(energy_report(v.with_values(c * v.values), params33), params33.q)
    assert abs(lam_scaled - expected) < 1e-12 * max(1.0, abs(expected))


@pytest.mark.parametrize("N", [2, 3.5])
def test_weighted_dirichlet_rejects_invalid_dimension(N):
    grid = build_grid(64, 1e-3, 10.0)
    with pytest.raises(ParameterError):
        weighted_dirichlet(Field(values=np.exp(-grid.nodes**2), grid=grid), N)
