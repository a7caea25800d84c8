"""Property-based numerical verification of the inequalities and the weight
admissibility condition.

Random test fields are sums of 3-8 Gaussian bumps in log r with log-uniform
centers in [10 r_min, r_max/10], widths 0.25-0.6 (log units), random signs
and amplitudes; the narrow width cap keeps samples supported away from both
grid boundaries so that boundary flux terms stay below the check tolerances.
Each bump is evaluated only at the nodes where it is at least e^2 times the
smallest normal double, and counts as 0 elsewhere: no term underflows.
All checks are reproducible from (seed, grid, parameters) exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energies import hardy_functional_u, weighted_dirichlet
from .errors import ParameterError
from .operators import RadialOperator
from .radial import (
    Field,
    Params,
    RadialGrid,
    check_dimension,
    critical_exponent,
    integrate_mu,
    to_u,
    unit_ball_volume,
)

__all__ = [
    "WeightSpec",
    "random_fields",
    "check_hardy",
    "check_ckn",
    "check_weight_condition",
    "check_ihs",
]


@dataclass(frozen=True)
class WeightSpec:
    """Radial weight g(r) = r^{omega_zero} (1 + r)^{omega_inf - omega_zero}: it
    behaves like r^{omega_zero} at 0 and like r^{omega_inf} at infinity."""

    omega_zero: float
    omega_inf: float

    def __post_init__(self):
        if not (math.isfinite(self.omega_zero) and math.isfinite(self.omega_inf)):
            raise ParameterError(
                f"weight exponents must be finite, got {self.omega_zero}, {self.omega_inf}"
            )

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return r**self.omega_zero * (1.0 + r) ** (self.omega_inf - self.omega_zero)


def _report(infos: list, least_of: np.ndarray | None = None, **payload) -> dict:
    """A check's FORMATS.md payload: ``payload`` plus ``n_samples`` and, when
    the check failed on the per-sample values ``least_of``, ``violating_sample``:
    the first sample at their least value."""
    payload["n_samples"] = len(infos)
    if least_of is not None and not payload["passed"]:
        payload["violating_sample"] = infos[int(np.argmin(least_of))]
    return payload


def _bumps(grid: RadialGrid, count: int, seed: int, support: tuple[float, float] | None):
    """Yield (sample_info, bumps) for count >= 1 draws of the standard bump
    ensemble, each bump a (center, width, sign, amplitude) in log r."""
    if count < 1:
        raise ParameterError(f"sample count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    if support is None:
        support = (10.0 * grid.r_min, grid.r_max / 10.0)
    if support[0] > support[1]:
        # the ratio r_max / r_min at which this support would be nonempty
        bound = grid.r_max / grid.r_min * support[0] / support[1]
        raise ParameterError(
            f"empty sample support {support}: needs r_max / r_min >= {bound:.4g}"
        )
    lo, hi = np.log(support[0]), np.log(support[1])
    for k in range(count):
        n_bumps = int(rng.integers(3, 9))
        centers = rng.uniform(lo, hi, size=n_bumps)
        widths = rng.uniform(0.25, 0.6, size=n_bumps)
        signs = np.where(rng.random(n_bumps) < 0.5, -1.0, 1.0)
        amps = rng.uniform(0.5, 1.5, size=n_bumps)
        info = {"index": k, "n_bumps": n_bumps, "centers": centers.tolist()}
        yield info, zip(centers, widths, signs, amps)


def random_fields(
    grid: RadialGrid,
    count: int,
    seed: int,
    support: tuple[float, float] | None = None,
):
    """Yield (sample_info, Field) for count >= 1 fields of the standard bump ensemble;
    ``sample_info["index"]`` numbers them from 0."""
    x = grid.log_nodes
    # half-width, in widths, of the window where a bump is at least e^2 tiny
    reach = math.sqrt(-math.log(np.finfo(float).tiny) - 2.0)
    for info, bumps in _bumps(grid, count, seed, support):
        values = np.zeros(grid.n)
        for c, wdt, s, a in bumps:
            # s a exp >= e^2 tiny / 2 on the window, so no lane underflows;
            # outside it the bump is taken as 0
            i, j = np.searchsorted(x, (c - reach * wdt, c + reach * wdt))
            values[i:j] += s * a * np.exp(-(((x[i:j] - c) / wdt) ** 2))
        yield info, Field(values=values, grid=grid)


def _sampled(grid: RadialGrid, count: int, seed: int, measure, support=None):
    """Walk the bump ensemble once: the sample infos and an array holding
    ``measure(v)`` of each sample field v, one entry per sample along its
    last axis (a measure that returns k numbers gives k rows)."""
    infos, values = [], []
    for info, v in random_fields(grid, count, seed, support):
        infos.append(info)
        values.append(measure(v))
    return infos, np.array(values).T


def check_hardy(
    sample_count: int,
    seed: int,
    N: int,
    grid: RadialGrid,
) -> dict:
    """Sampled discrete Hardy inequality with its optimal constant.

    For transform images I(u) equals the weighted Dirichlet energy of v, so
    min_hardy_functional is the smallest I(u) found (passed when >= -1e-8)
    and max_identity_mismatch the worst relative identity mismatch.
    """

    def hardy_and_mismatch(v: Field) -> tuple[float, float]:
        hardy = hardy_functional_u(to_u(v, N), N, eps=grid.r_min)
        dirichlet = weighted_dirichlet(v, N)
        return hardy, abs(hardy - dirichlet) / dirichlet if dirichlet > 0.0 else 0.0

    infos, (hardy, mismatch) = _sampled(grid, sample_count, seed, hardy_and_mismatch)
    least = float(hardy.min())
    return _report(infos, hardy, min_hardy_functional=least,
                   max_identity_mismatch=float(mismatch.max()), passed=least >= -1e-8)


def _ckn_ratio(op: RadialOperator, v: np.ndarray) -> float:
    N, q = op.params.N, op.params.q
    e_dir = N * (q - 2.0) / 4.0
    e_mass = (2.0 * q - N * (q - 2.0)) / 4.0
    return q * op.nonlinear(v) / (op.dirichlet(v) ** e_dir * op.mass(v) ** e_mass)


def check_ckn(
    sample_count: int,
    seed: int,
    params: Params,
    grid: RadialGrid,
) -> dict:
    """Weighted interpolation inequality: empirical constant over samples of

        int |x|^{-q(N-2)/2} |v|^q dx  /  D^{N(q-2)/4} M^{(2q - N(q-2))/4} .

    Both sides are q-homogeneous and dilation-balanced, so the ratio is
    scale-free; empirical_constant is the maximum (passed when finite; its
    refinement stability is judged across grids) and min_ratio the minimum.
    """
    # the inequality has g == 1
    op = RadialOperator(grid, Params(N=params.N, q=params.q, gamma=params.gamma))
    infos, ratios = _sampled(grid, sample_count, seed, lambda v: _ckn_ratio(op, v.values))
    worst = float(ratios.max())
    return _report(infos, empirical_constant=worst, min_ratio=float(ratios.min()),
                   passed=math.isfinite(worst))


def check_weight_condition(spec: WeightSpec, N: int, q: float) -> dict:
    """Admissibility of the weight exponents (passed when both hold):

        omega_zero > -N + q(N-2)/2   and   omega_inf < -N + q(N-2)/2 .

    Also evaluates the sufficient integrability condition
    g in L^1 intersect L^{2*/(2*-q)} (decided from the exponents; the two
    quadratures of g on 512 log-spaced radii in [1e-8, 1e8] are reported for
    reference).  Accepts the wide exponent window 1 <= q < 2N/(N-2) of the
    compactness statement, which includes the q = 2 sanity case.
    """
    N = check_dimension(N)
    if not (1.0 <= q < critical_exponent(N)):
        raise ParameterError(f"weight condition applies for 1 <= q < 2N/(N-2), got q={q}")
    threshold = -N + q * (N - 2) / 2.0
    p_star = critical_exponent(N) / (critical_exponent(N) - q)
    r = np.exp(np.linspace(np.log(1e-8), np.log(1e8), 512))
    g = spec(r)
    log_r = np.log(r)
    l1 = N * unit_ball_volume(N) * float(np.trapezoid(g * r**N, log_r))
    lq = N * unit_ball_volume(N) * float(np.trapezoid(g**p_star * r**N, log_r))
    # g in L^1 iff omega_zero > -N and omega_inf < -N; in L^{p*} iff the
    # p*-scaled exponents clear the same bars
    in_l1 = spec.omega_zero > -N and spec.omega_inf < -N
    in_lq = spec.omega_zero * p_star > -N and spec.omega_inf * p_star < -N
    admissible_zero = bool(spec.omega_zero > threshold)
    admissible_inf = bool(spec.omega_inf < threshold)
    admissible = admissible_zero and admissible_inf
    return dict(
        threshold=threshold,
        admissible_zero=admissible_zero,
        admissible_inf=admissible_inf,
        admissible=admissible,
        l1_quadrature=l1,
        lq_quadrature=lq,
        integrable_sufficient=bool(in_l1 and in_lq),
        passed=admissible,
        n_samples=0,  # the weight draws no samples
    )


def _ihs_weight(kind: str, r: np.ndarray, N: int, ball_radius: float) -> np.ndarray:
    if kind == "piecewise-quadratic":
        return np.where(r < 1.0, r**2, 1.0)
    if kind == "log-weight":
        h = np.zeros_like(r)
        inside = r < ball_radius
        h[inside] = (-np.log(r[inside] / ball_radius)) ** (-2.0 * (N - 1) / (N - 2))
        return h
    raise ParameterError(f"unknown h_kind {kind!r}; use 'piecewise-quadratic' or 'log-weight'")


def check_ihs(
    sample_count: int,
    seed: int,
    N: int,
    grid: RadialGrid,
    h_kind: str = "piecewise-quadratic",
) -> dict:
    """Improved Sobolev bound in the energy norm:

        ||phi||_H  >=  c * ( int h |phi|^{2*} dx )^{(N-2)/N} .

    min_ratio (and empirical_constant, the same value) is the empirical lower
    constant c over radial samples; the printed inequality carries no
    explicit constant, so the check passes when c is strictly positive (its
    refinement stability is judged across grids).  For the log-weight kind,
    samples are confined to the ball where h is defined.
    """
    N = check_dimension(N)
    two_star = critical_exponent(N)
    ball_radius = grid.r_max / 10.0
    support = None
    if h_kind == "log-weight":
        support = (10.0 * grid.r_min, ball_radius / np.e**2)
    h_vals = _ihs_weight(h_kind, grid.nodes, N, ball_radius)
    r2 = grid.nodes**2
    sphere = N * unit_ball_volume(N)

    def ratio(v: Field) -> float:
        h_norm = np.sqrt(weighted_dirichlet(v, N) + integrate_mu(np.abs(v.values) ** 2, grid, N))
        # int h |phi|^{2*} dx reduces to sum w h |v|^{2*} r^{-2} against r dr
        rhs_int = sphere * grid.quadrature(h_vals * np.abs(v.values) ** two_star / r2)
        # a sample outside the support of h bounds nothing
        return h_norm / rhs_int ** ((N - 2.0) / N) if rhs_int > 0.0 else np.inf

    infos, ratios = _sampled(grid, sample_count, seed, ratio, support)
    least = float(ratios.min())
    return _report(infos, ratios, min_ratio=least, empirical_constant=least, passed=least > 0.0)
