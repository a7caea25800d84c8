"""Property-based numerical verification of the inequalities and the weight
admissibility condition.

Random test fields are sums of 3-8 Gaussian bumps in log r with log-uniform
centers in [10 r_min, r_max/10], widths 0.25-0.6 (log units), random signs
and amplitudes; the narrow width cap keeps samples supported away from both
grid boundaries so that boundary flux terms stay below the check tolerances.
All checks are reproducible from (seed, grid, parameters) exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energies import hardy_functional_u, weighted_dirichlet
from .errors import ParameterError
from .operators import RadialOperator
from .radial import (
    Field,
    Params,
    RadialGrid,
    critical_exponent,
    integrate_mu,
    to_u,
    unit_ball_volume,
)

__all__ = [
    "WeightSpec",
    "InequalityReport",
    "WeightConditionReport",
    "random_fields",
    "check_hardy",
    "check_ckn",
    "check_weight_condition",
    "check_ihs",
]


@dataclass(frozen=True)
class WeightSpec:
    """Radial weight g with prescribed power behavior at 0 and infinity.

    ``profile`` tabulates g on ``radii``; evaluation interpolates log-log
    between table nodes and extends by the exact power laws outside.  The
    tabulation must match the declared exponents (validated by log-log
    slope fits on the table ends); an identically-zero profile is accepted
    as the trivial weight.
    """

    omega_zero: float
    omega_inf: float
    radii: np.ndarray
    profile: np.ndarray

    def __post_init__(self):
        radii = np.asarray(self.radii, dtype=float)
        profile = np.asarray(self.profile, dtype=float)
        if radii.ndim != 1 or radii.shape != profile.shape or radii.size < 8:
            raise ParameterError("weight tabulation needs matching 1-d arrays, >= 8 points")
        if not np.all(np.diff(radii) > 0.0) or not np.all(radii > 0.0):
            raise ParameterError("weight radii must be positive and increasing")
        if np.any(profile < 0.0):
            raise ParameterError("weight profile must be nonnegative")
        if np.any(profile > 0.0):
            self._check_slope(radii, profile, 0, self.omega_zero, "omega_zero")
            self._check_slope(radii, profile, -1, self.omega_inf, "omega_inf")
        for name, arr in (("radii", radii), ("profile", profile)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @staticmethod
    def _check_slope(radii, profile, end, declared, name, npts=4, tol=0.35):
        sl = slice(0, npts) if end == 0 else slice(-npts, None)
        seg_r, seg_g = radii[sl], profile[sl]
        if np.any(seg_g <= 0.0):
            return  # compactly supported end: any decay exponent is consistent
        slope = np.polyfit(np.log(seg_r), np.log(seg_g), 1)[0]
        if abs(slope - declared) > tol:
            raise ParameterError(
                f"tabulated weight behaves like r^{slope:.3f} but {name}={declared}"
            )

    @classmethod
    def from_exponents(
        cls,
        omega_zero: float,
        omega_inf: float,
        r_min: float = 1e-8,
        r_max: float = 1e8,
        n: int = 512,
    ) -> "WeightSpec":
        """Canonical profile g(r) = r^{w0} (1 + r)^{winf - w0}."""
        radii = np.exp(np.linspace(np.log(r_min), np.log(r_max), n))
        profile = radii**omega_zero * (1.0 + radii) ** (omega_inf - omega_zero)
        return cls(omega_zero=omega_zero, omega_inf=omega_inf, radii=radii, profile=profile)

    def __eq__(self, other) -> bool:
        # by value: the generated field-tuple comparison cannot compare arrays
        if not isinstance(other, WeightSpec):
            return NotImplemented
        return (
            self.omega_zero == other.omega_zero
            and self.omega_inf == other.omega_inf
            and np.array_equal(self.radii, other.radii)
            and np.array_equal(self.profile, other.profile)
        )

    def __call__(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if not np.any(self.profile > 0.0):
            return np.zeros_like(r)
        log_r = np.log(self.radii)
        log_g = np.log(self.profile)
        out = np.exp(np.interp(np.log(r), log_r, log_g))
        below = r < self.radii[0]
        above = r > self.radii[-1]
        out[below] = self.profile[0] * (r[below] / self.radii[0]) ** self.omega_zero
        out[above] = self.profile[-1] * (r[above] / self.radii[-1]) ** self.omega_inf
        return out


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one sampled inequality check."""

    n_samples: int
    min_ratio: float
    empirical_constant: float
    violating_sample: dict | None = None


@dataclass(frozen=True)
class WeightConditionReport:
    """Two verdicts on a weight: the exponent window and the integrability
    sufficient condition."""

    threshold: float
    admissible_zero: bool
    admissible_inf: bool
    l1_quadrature: float
    lq_quadrature: float
    integrable_sufficient: bool

    @property
    def admissible(self) -> bool:
        return self.admissible_zero and self.admissible_inf

    def __bool__(self) -> bool:
        return self.admissible


def random_fields(
    grid: RadialGrid,
    count: int,
    seed: int,
    support: tuple[float, float] | None = None,
):
    """Yield (index, sample_info, Field) for the standard bump ensemble."""
    rng = np.random.default_rng(seed)
    if support is None:
        support = (10.0 * grid.r_min, grid.r_max / 10.0)
    if support[0] > support[1]:
        raise ParameterError(f"empty sample support {support}: needs r_max / r_min >= 100")
    lo, hi = np.log(support[0]), np.log(support[1])
    x = grid.log_nodes
    for k in range(count):
        n_bumps = int(rng.integers(3, 9))
        centers = rng.uniform(lo, hi, size=n_bumps)
        widths = rng.uniform(0.25, 0.6, size=n_bumps)
        signs = np.where(rng.random(n_bumps) < 0.5, -1.0, 1.0)
        amps = rng.uniform(0.5, 1.5, size=n_bumps)
        values = np.zeros(grid.n)
        for c, wdt, s, a in zip(centers, widths, signs, amps):
            values += s * a * np.exp(-(((x - c) / wdt) ** 2))
        info = {"index": k, "n_bumps": n_bumps, "centers": centers.tolist()}
        yield k, info, Field(values=values, grid=grid)


def check_hardy(
    sample_count: int,
    seed: int,
    N: int,
    grid: RadialGrid,
) -> InequalityReport:
    """Sampled discrete Hardy inequality with its optimal constant.

    For transform images I(u) equals the weighted Dirichlet energy of v, so
    min_ratio records the smallest I(u) found (PASS when >= -1e-8) and
    empirical_constant the worst relative identity mismatch.
    """
    min_i = np.inf
    worst_mismatch = 0.0
    violating = None
    for _, info, v in random_fields(grid, sample_count, seed):
        u = to_u(v, N)
        hardy = hardy_functional_u(u, N, eps=grid.r_min)
        dirichlet = weighted_dirichlet(v, N)
        if dirichlet > 0.0:
            worst_mismatch = max(worst_mismatch, abs(hardy - dirichlet) / dirichlet)
        if hardy < min_i:
            min_i = hardy
            if hardy < -1e-8:
                violating = info
    return InequalityReport(
        n_samples=sample_count,
        min_ratio=float(min_i),
        empirical_constant=float(worst_mismatch),
        violating_sample=violating,
    )


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
) -> InequalityReport:
    """Weighted interpolation inequality: empirical constant over samples of

        int |x|^{-q(N-2)/2} |v|^q dx  /  D^{N(q-2)/4} M^{(2q - N(q-2))/4} .

    Both sides are q-homogeneous and dilation-balanced, so the ratio is
    scale-free; PASS when the maximum is finite and refinement-stable.
    """
    # the inequality has g == 1
    op = RadialOperator(grid, Params(N=params.N, q=params.q, gamma=params.gamma))
    worst = 0.0
    least = np.inf
    for _, _, v in random_fields(grid, sample_count, seed):
        ratio = _ckn_ratio(op, v.values)
        worst = max(worst, ratio)
        least = min(least, ratio)
    return InequalityReport(
        n_samples=sample_count,
        min_ratio=float(least),
        empirical_constant=float(worst),
    )


def check_weight_condition(spec: WeightSpec, N: int, q: float) -> WeightConditionReport:
    """Admissibility of the weight exponents:

        omega_zero > -N + q(N-2)/2   and   omega_inf < -N + q(N-2)/2 .

    Also evaluates the sufficient integrability condition
    g in L^1 intersect L^{2*/(2*-q)} (decided from the exponents; the two
    quadratures of the tabulated profile are reported for reference).
    Accepts the wide exponent window 1 <= q < 2N/(N-2) of the compactness
    statement, which includes the q = 2 sanity case.
    """
    if not (1.0 <= q < critical_exponent(N)):
        raise ParameterError(f"weight condition applies for 1 <= q < 2N/(N-2), got q={q}")
    threshold = -N + q * (N - 2) / 2.0
    p_star = critical_exponent(N) / (critical_exponent(N) - q)
    r, g = spec.radii, spec.profile
    log_r = np.log(r)
    l1 = N * unit_ball_volume(N) * float(np.trapezoid(g * r**N, log_r))
    lq = N * unit_ball_volume(N) * float(np.trapezoid(g**p_star * r**N, log_r))
    # g in L^1 iff omega_zero > -N and omega_inf < -N; in L^{p*} iff the
    # p*-scaled exponents clear the same bars
    in_l1 = spec.omega_zero > -N and spec.omega_inf < -N
    in_lq = spec.omega_zero * p_star > -N and spec.omega_inf * p_star < -N
    integrable = in_l1 and in_lq
    return WeightConditionReport(
        threshold=threshold,
        admissible_zero=spec.omega_zero > threshold,
        admissible_inf=spec.omega_inf < threshold,
        l1_quadrature=l1,
        lq_quadrature=lq,
        integrable_sufficient=integrable,
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
) -> InequalityReport:
    """Improved Sobolev bound in the energy norm:

        ||phi||_H  >=  c * ( int h |phi|^{2*} dx )^{(N-2)/N} .

    min_ratio is the empirical lower constant c over radial samples; the
    printed inequality carries no explicit constant, so the check asserts
    only that c is strictly positive and refinement-stable.  For the
    log-weight kind, samples are confined to the ball where h is defined.
    """
    two_star = critical_exponent(N)
    ball_radius = grid.r_max / 10.0
    support = None
    if h_kind == "log-weight":
        support = (10.0 * grid.r_min, ball_radius / np.e**2)
    h_vals = _ihs_weight(h_kind, grid.nodes, N, ball_radius)
    sphere = N * unit_ball_volume(N)

    least = np.inf
    violating = None
    for _, info, v in random_fields(grid, sample_count, seed, support=support):
        h_norm = np.sqrt(
            weighted_dirichlet(v, N) + integrate_mu(np.abs(v.values) ** 2, grid, N)
        )
        # int h |phi|^{2*} dx reduces to sum w h |v|^{2*} r^{-2} against r dr
        rhs_int = sphere * grid.quadrature(h_vals * np.abs(v.values) ** two_star / grid.nodes**2)
        if rhs_int <= 0.0:
            continue
        ratio = h_norm / rhs_int ** ((N - 2.0) / N)
        if ratio < least:
            least = ratio
            if ratio <= 0.0:
                violating = info
    return InequalityReport(
        n_samples=sample_count,
        min_ratio=float(least),
        empirical_constant=float(least),
        violating_sample=violating,
    )
