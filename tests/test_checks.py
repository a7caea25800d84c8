import weakref

import numpy as np
import pytest

from hardywaves import (
    Field,
    ParameterError,
    Params,
    WeightSpec,
    build_grid,
    check_ckn,
    check_hardy,
    check_ihs,
    check_weight_condition,
    hardy_functional_u,
    kelvin_verify,
    to_u,
    weighted_dirichlet,
)
from hardywaves import checks
from hardywaves.checks import _ckn_ratio, random_fields
from hardywaves.operators import RadialOperator
from oracle import bump_fields_reference


# ---------------------------------------------------------------------------
# Hardy


def test_hardy_check_nonnegative_and_identity(grid8k):
    report = check_hardy(200, seed=42, N=3, grid=grid8k)
    assert report["passed"] is True  # min_hardy_functional >= -1e-8
    assert report["max_identity_mismatch"] < 1e-6
    assert "violating_sample" not in report


def test_hardy_check_names_the_first_sample_at_the_minimum(grid2k, monkeypatch):
    # samples 1 and 3 tie at the least value, below -1e-8: the report names 1
    values = iter([0.5, -0.25, 0.1, -0.25, 0.3])
    monkeypatch.setattr(checks, "hardy_functional_u", lambda u, N, eps: next(values))
    report = check_hardy(5, seed=7, N=3, grid=grid2k)
    assert report["passed"] is False and report["min_hardy_functional"] == -0.25
    assert report["violating_sample"] == list(random_fields(grid2k, 5, 7))[1][0]


def test_ihs_check_names_the_first_sample_at_the_minimum(grid2k, monkeypatch):
    # a zero energy norm gives samples 1 and 3 the nonpositive ratio 0
    masses = iter([1.0, 0.0, 2.0, 0.0, 1.0])
    monkeypatch.setattr(checks, "weighted_dirichlet", lambda v, N: 0.0)
    monkeypatch.setattr(checks, "integrate_mu", lambda f, grid, N: next(masses))
    report = check_ihs(5, seed=7, N=3, grid=grid2k)
    assert report["passed"] is False and report["min_ratio"] == 0.0
    assert report["violating_sample"] == list(random_fields(grid2k, 5, 7))[1][0]


def test_hardy_strictly_positive_for_bump(grid8k):
    x = grid8k.log_nodes
    v = Field(values=0.7 * np.exp(-(((x - 0.2) / 0.5) ** 2)), grid=grid8k)
    assert hardy_functional_u(to_u(v, 3), 3, grid8k.r_min) > 0.1


def test_hardy_plateau_edge_energy(grid8k):
    # constant plateau with smooth edges: I(u) equals the edge Dirichlet
    # energy of v, still nonnegative
    x = grid8k.log_nodes
    plateau = 0.25 * (1.0 + np.tanh((x - np.log(0.01)) / 0.4)) * (
        1.0 - np.tanh((x - np.log(5.0)) / 0.4)
    )
    v = Field(values=plateau, grid=grid8k)
    hardy = hardy_functional_u(to_u(v, 3), 3, grid8k.r_min)
    wd = weighted_dirichlet(v, 3)
    assert hardy > 0.0
    assert abs(hardy - wd) / wd < 1e-6


# ---------------------------------------------------------------------------
# interpolation inequality


def test_ckn_gaussian_ratio_finite(grid8k, params33):
    v = Field(values=np.exp(-grid8k.nodes**2 / 2.0), grid=grid8k)
    ratio = _ckn_ratio(RadialOperator(grid8k, params33), v.values)
    assert np.isfinite(ratio) and ratio > 0.0


def test_ckn_gaussian_ratio_component_oracle(grid8k, params33):
    # rebuild the ratio from the three closed-form component integrals:
    # LHS = 4 pi Gamma(3/4) / (2 (3/2)^{3/4}), D = M = 2 pi
    from math import gamma as gamma_fn

    v = Field(values=np.exp(-grid8k.nodes**2 / 2.0), grid=grid8k)
    lhs = 4.0 * np.pi * gamma_fn(0.75) / (2.0 * 1.5**0.75)
    expected = lhs / ((2 * np.pi) ** 0.75 * (2 * np.pi) ** 0.75)
    ratio = _ckn_ratio(RadialOperator(grid8k, params33), v.values)
    assert abs(ratio - expected) / expected < 1e-5


def test_ckn_scaling_invariance(grid8k, params33):
    v = Field(values=np.exp(-grid8k.nodes**2 / 2.0), grid=grid8k)
    op = RadialOperator(grid8k, params33)
    base = _ckn_ratio(op, v.values)
    scaled = _ckn_ratio(op, 2.7 * v.values)
    assert abs(scaled - base) / base < 1e-12


@pytest.mark.parametrize("s", [0.5, 2.0])
def test_ckn_dilation_invariance(grid8k, params33, s):
    op = RadialOperator(grid8k, params33)
    base = _ckn_ratio(op, np.exp(-grid8k.nodes**2 / 2.0))
    dilated = _ckn_ratio(op, np.exp(-((s * grid8k.nodes) ** 2) / 2.0))
    assert abs(dilated - base) / base < 1e-2


def test_ckn_report_and_q_range(grid8k, params33):
    report = check_ckn(40, seed=3, params=params33, grid=grid8k)
    assert report["passed"] is True  # empirical_constant finite
    assert 0.0 < report["min_ratio"] <= report["empirical_constant"]
    with pytest.raises(ParameterError):
        Params(N=3, q=6.5)  # outside 2 < q < 2N/(N-2)


def test_checks_reduce_what_a_loop_over_the_samples_sees(grid2k, params33):
    # the reference: a plain loop over the ensemble and min/max of its values
    fields = [v for _, v in random_fields(grid2k, 20, 3)]
    hardy = [hardy_functional_u(to_u(v, 3), 3, grid2k.r_min) for v in fields]
    op = RadialOperator(grid2k, params33)
    ratios = [_ckn_ratio(op, v.values) for v in fields]
    assert check_hardy(20, seed=3, N=3, grid=grid2k)["min_hardy_functional"] == min(hardy)
    ckn = check_ckn(20, seed=3, params=params33, grid=grid2k)
    assert (ckn["min_ratio"], ckn["empirical_constant"]) == (min(ratios), max(ratios))


# ---------------------------------------------------------------------------
# weight condition


@pytest.mark.parametrize(
    "omega_zero, omega_inf, N, q, expected",
    [
        (0.0, -2.0, 3, 3.0, True),   # threshold -3/2: passes both ends
        (0.0, 0.0, 3, 3.0, False),   # fails at infinity
        (-1.4, -2.0, 3, 3.0, True),
        (-1.6, -2.0, 3, 3.0, False),  # fails at zero
        (0.0, -3.0, 3, 2.0, True),   # q = 2 sanity: omega0 > -2, omega_inf < -2
        (0.0, -1.0, 3, 2.0, False),
    ],
)
def test_weight_condition_truth_table(omega_zero, omega_inf, N, q, expected):
    spec = WeightSpec(omega_zero, omega_inf)
    report = check_weight_condition(spec, N, q)
    assert report["passed"] is expected
    assert report["admissible"] is expected
    assert report["threshold"] == -N + q * (N - 2) / 2.0


def test_weight_condition_integrability_implies_admissible():
    # Remark-style sufficient condition: g in L^1 and L^{2*/(2*-q)}
    spec = WeightSpec(-1.0, -4.0)
    report = check_weight_condition(spec, 3, 3.0)
    assert report["integrable_sufficient"] is True
    assert report["admissible"] is True
    not_l1 = check_weight_condition(WeightSpec(0.0, -2.0), 3, 3.0)
    assert not_l1["integrable_sufficient"] is False  # admissible but not integrable


def test_weight_condition_q_range():
    spec = WeightSpec(0.0, -2.0)
    with pytest.raises(ParameterError):
        check_weight_condition(spec, 3, 0.5)
    with pytest.raises(ParameterError):
        check_weight_condition(spec, 3, 6.0)


def test_weight_spec_validation():
    for omega_zero, omega_inf in [(np.nan, -2.0), (0.0, np.nan), (np.inf, -2.0), (0.0, -np.inf)]:
        with pytest.raises(ParameterError, match="finite"):
            WeightSpec(omega_zero, omega_inf)


def test_weight_spec_evaluation_extends_power_laws():
    # g(r) = r^w0 (1 + r)^(winf - w0) behaves like r^w0 at 0 and r^winf at infinity
    spec = WeightSpec(1.0, -2.0)
    small, large = np.array([1e-12, 1e-9]), np.array([1e9, 1e12])
    np.testing.assert_allclose(spec(small) / small**1.0, 1.0, rtol=1e-8)
    np.testing.assert_allclose(spec(large) / large**-2.0, 1.0, rtol=1e-8)


# ---------------------------------------------------------------------------
# improved Sobolev bound


@pytest.mark.parametrize("h_kind", ["piecewise-quadratic", "log-weight"])
def test_ihs_positive_ratio(grid8k, h_kind):
    report = check_ihs(40, seed=9, N=3, h_kind=h_kind, grid=grid8k)
    assert report["passed"] is True  # min_ratio > 0
    assert np.isfinite(report["min_ratio"])


def test_ihs_unknown_kind(grid8k):
    with pytest.raises(ParameterError):
        check_ihs(4, seed=0, N=3, h_kind="flat", grid=grid8k)


def test_ihs_weight_tames_critical_singularity():
    # phi ~ r^{-1/2} near the origin: the plain 2*-integral grows without
    # bound as r_min decreases, while the h = r^2 weighted one stays put
    def integrals(r_min):
        grid = build_grid(4096, r_min, 50.0)
        x = grid.log_nodes
        v = Field(values=0.5 * (1.0 - np.tanh((x - np.log(0.3)) / 0.4)), grid=grid)
        phi = to_u(v, 3).values
        h_vals = np.where(grid.nodes < 1.0, grid.nodes**2, 1.0)
        base = grid.quadrature(np.abs(v.values) ** 6 / grid.nodes**2)
        weighted = grid.quadrature(h_vals * np.abs(v.values) ** 6 / grid.nodes**2)
        assert phi.shape == v.values.shape
        return base, weighted

    coarse_plain, coarse_weighted = integrals(1e-6)
    fine_plain, fine_weighted = integrals(1e-9)
    assert fine_plain / coarse_plain > 1.3  # log-divergent under refinement
    assert abs(fine_weighted - coarse_weighted) / coarse_weighted < 0.05


# ---------------------------------------------------------------------------
# reproducibility


def test_reports_reproducible(grid8k, params33):
    a = check_hardy(25, seed=7, N=3, grid=grid8k)
    b = check_hardy(25, seed=7, N=3, grid=grid8k)
    assert a == b
    c = check_ckn(10, seed=7, params=params33, grid=grid8k)
    d = check_ckn(10, seed=7, params=params33, grid=grid8k)
    assert c == d


def test_random_fields_supported_away_from_boundaries(grid8k):
    # the generator's width cap keeps boundary values small enough that the
    # telescoped boundary flux stays orders below the 1e-6 identity budget
    for _, field in random_fields(grid8k, 10, seed=1):
        assert abs(field.values[0]) < 1e-6
        assert abs(field.values[-1]) < 1e-6


# grids whose bumps reach far into exp's underflow range: the default one,
# a wide one and a coarse one
BUMP_GRIDS = [(8192, 1e-6, 50.0), (4096, 1e-5, 1e5), (512, 1e-4, 30.0)]


@pytest.mark.parametrize("shape", BUMP_GRIDS)
def test_random_fields_do_not_underflow(shape):
    grid = build_grid(*shape)
    with np.errstate(under="raise"):
        for seed in range(4):
            for _ in random_fields(grid, 10, seed):
                pass


@pytest.mark.parametrize("shape", BUMP_GRIDS)
def test_random_fields_match_full_grid_sums(shape):
    # windowing drops only terms below e^2 tiny, which can round a sum only
    # where it is itself below about 2^53 e^2 tiny
    grid = build_grid(*shape)
    for seed in range(20):
        reference = bump_fields_reference(grid, 50, seed)
        for (_, field), ref in zip(random_fields(grid, 50, seed), reference, strict=True):
            large = np.abs(ref) >= 1e-290
            assert np.array_equal(field.values[large], ref[large])
            assert np.max(np.abs(field.values - ref), initial=0.0) <= 1e-306


def test_grid_factors_die_with_their_grid():
    grid = build_grid(512, 1e-4, 30.0)
    check_hardy(3, 0, 3, grid)
    check_ihs(3, 0, 4, grid)
    kelvin_verify(grid, 5, 3, 0)
    ref = weakref.ref(grid)
    del grid
    assert ref() is None


@pytest.mark.parametrize("count", [0, -3])
def test_random_fields_rejects_empty_sample(grid8k, count):
    with pytest.raises(ParameterError, match="sample count"):
        next(random_fields(grid8k, count, seed=1))


@pytest.mark.parametrize("check", [
    lambda grid, N: check_hardy(2, 0, N, grid),
    lambda grid, N: check_ihs(2, 0, N, grid),
    lambda grid, N: check_weight_condition(WeightSpec(0.0, -2.0), N, 3.0),
    lambda grid, N: kelvin_verify(grid, N, 2, 0),
], ids=["hardy", "ihs", "weight", "kelvin-verify"])
@pytest.mark.parametrize("N", [2, 3.5])
def test_checks_reject_bad_dimension(grid2k, check, N):
    # N = 2 used to divide by zero in ihs and weight, and kelvin_verify reported on it
    with pytest.raises(ParameterError, match="dimension N"):
        check(grid2k, N)
