"""Radial grids, weighted quadrature, and the singularity-removing transform.

All radial profiles live on a cell-free nodal grid 0 < r_1 < ... < r_n.  The
working measure is r dr (the two-dimensional radial reduction of
|x|^{-(N-2)} dx); full N-dimensional integrals carry the unit-sphere factor
N * omega_N, with omega_N the volume of the unit N-ball.

The transform ``u = r^{-(N-2)/2} v`` maps the weighted problem onto the plain
2D radial one and back; it is applied pointwise on the nodes, so the round
trip is exact to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParameterError, ShapeError

__all__ = [
    "Params",
    "RadialGrid",
    "Field",
    "unit_ball_volume",
    "build_grid",
    "to_u",
    "to_v",
    "integrate_mu",
]


def unit_ball_volume(N: int) -> float:
    """Volume of the unit ball in R^N (sphere area is then N * omega_N);
    Gamma(N/2 + 1) overflows a double from N = 342 on."""
    try:
        return math.pi ** (N / 2.0) / math.gamma(N / 2.0 + 1.0)
    except OverflowError:
        raise ParameterError(f"the unit-ball volume overflows a double for N={N}") from None


def check_dimension(N) -> int:
    """N as an int, once it is checked to be an integer >= 3."""
    if int(N) != N or N < 3:
        raise ParameterError(f"dimension N must be an integer >= 3, got {N}")
    return int(N)


def critical_exponent(N: int) -> float:
    """Critical Sobolev exponent 2N/(N-2)."""
    return 2.0 * N / (N - 2.0)


@dataclass(frozen=True)
class Params:
    """Problem parameters: dimension, nonlinearity exponent, prescribed mass.

    The admissible exponent window depends on use: time evolution and
    stability require the subcritical range 2 < q < 2 + 4/N, while the
    inequality checkers accept 2 < q < 2N/(N-2).  Validation here enforces
    the wide window; callers that need the strict one test ``subcritical``.
    """

    N: int
    q: float
    gamma: float = 1.0
    weight: "object | None" = None  # any callable g(r) >= 0, e.g. a WeightSpec; None for g == 1

    def __post_init__(self):
        object.__setattr__(self, "N", check_dimension(self.N))
        qmax = critical_exponent(self.N)
        if not (2.0 < self.q < qmax):
            raise ParameterError(
                f"exponent q={self.q} outside admissible range (2, {qmax}) for N={self.N}"
            )
        if not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise ParameterError(f"mass gamma must be positive, got {self.gamma}")

    @property
    def subcritical(self) -> bool:
        """True in the mass-subcritical window 2 < q < 2 + 4/N."""
        return self.q < 2.0 + 4.0 / self.N

    def require_subcritical(self, context: str = "this operation") -> None:
        if not self.subcritical:
            raise ParameterError(
                f"{context} requires 2 < q < 2 + 4/N = {2.0 + 4.0 / self.N:.6g}; got q={self.q}"
            )


# eq=False on the array-holding records: ``==`` is identity and never raises,
# and values compare with np.array_equal
@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Radii r = e^x on log-nodes x equally spaced by h, with quadrature
    weights for r dr derived from them.

    ``weights`` are not passed: they are the half-end trapezoid rule in
    log r, t r^2 with t = h halved at both ends, applied to the transformed
    integrand f(e^x) e^{2x}, so that ``sum(weights * f(nodes))``
    approximates ``int f(r) r dr`` at second order, with positive weights.
    ``log_nodes`` is kept alongside ``nodes`` because several operations
    (stencils, reciprocal grids) are exact in the log coordinate; the
    stiffness 1/h holds only on equally spaced log-nodes, so unequal ones
    are rejected.
    """

    nodes: np.ndarray
    log_nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        log_nodes = np.asarray(self.log_nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2 or nodes.shape != log_nodes.shape:
            raise ShapeError("nodes and log_nodes must be 1-d arrays of one length >= 2")
        if not np.all(nodes > 0.0) or not np.all(np.diff(nodes) > 0.0):
            raise ParameterError("grid nodes must be positive and strictly increasing")
        # step spread in units of eps max|x|; linspace rounding keeps build_grid's below 2
        steps = np.diff(log_nodes)
        spread = np.ptp(steps) / (np.finfo(float).eps * np.max(np.abs(log_nodes)))
        if not (steps.min() > 0.0 and spread <= 16.0):
            raise ParameterError("log-nodes must be increasing and equally spaced")
        t = np.full(nodes.size, log_nodes[1] - log_nodes[0])
        t[0] *= 0.5
        t[-1] *= 0.5
        with np.errstate(over="ignore"):
            weights = t * nodes**2
        if not (np.all(np.isfinite(weights)) and weights.min() >= np.finfo(float).tiny):
            raise ParameterError("grid quadrature weights t r^2 must be finite normal doubles")
        for name, arr in (("nodes", nodes), ("log_nodes", log_nodes), ("weights", weights)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_memo", {})

    def _cached(self, key, make):
        """``make()``, evaluated on the first call with ``key`` and kept for
        the life of this grid, with its arrays made read-only: the grid-only
        factors that per-sample forms would otherwise rebuild."""
        if key not in self._memo:
            value = make()
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray):
                    arr.setflags(write=False)
            self._memo[key] = value
        return self._memo[key]

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    @property
    def r_min(self) -> float:
        return float(self.nodes[0])

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1])

    @property
    def log_step(self) -> float:
        """The spacing h of the log-nodes."""
        return float(self.log_nodes[1] - self.log_nodes[0])

    def quadrature(self, samples: np.ndarray) -> float:
        """Approximate ``int f(r) r dr`` from nodal samples of f."""
        samples = np.asarray(samples)
        if samples.shape != self.nodes.shape:
            raise ShapeError(
                f"samples have length {samples.shape}, grid has {self.nodes.shape}"
            )
        return float(np.real(np.sum(self.weights * samples)))


def build_grid(n: int, r_min: float, r_max: float) -> RadialGrid:
    """Build a radial grid with ``n`` nodes on [r_min, r_max], uniform in
    log r, which resolves the power-law region near the origin."""
    if n < 16:
        raise ParameterError(f"need at least 16 nodes, got {n}")
    if not (0.0 < r_min < r_max) or not math.isfinite(r_max):
        raise ParameterError(f"invalid radial bounds ({r_min}, {r_max})")
    x = np.linspace(math.log(r_min), math.log(r_max), n)
    r = np.exp(x)
    # exact endpoints; exp/log round trips are only ulp-accurate
    r[0], r[-1] = r_min, r_max
    return RadialGrid(nodes=r, log_nodes=x)


@dataclass(frozen=True, eq=False)
class Field:
    """Nodal samples of a radial profile, tied to its grid."""

    values: np.ndarray
    grid: RadialGrid

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 1 or values.shape[0] != self.grid.n:
            raise ShapeError(
                f"field has {values.shape} values for a grid of {self.grid.n} nodes"
            )
        if not np.all(np.isfinite(values)):
            raise ParameterError("field values must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def with_values(self, values: np.ndarray) -> "Field":
        return Field(values=values, grid=self.grid)

    @classmethod
    def _checked(cls, values: np.ndarray, grid: RadialGrid) -> "Field":
        """A field on finite ``values`` of the grid's length that their maker
        writes no more: made read-only, not copied or checked again."""
        field = object.__new__(cls)
        values.setflags(write=False)
        object.__setattr__(field, "values", values)
        object.__setattr__(field, "grid", grid)
        return field


def _transform_factor(grid: RadialGrid, N: int) -> np.ndarray:
    return grid._cached(("transform", N), lambda: grid.nodes ** (-(N - 2) / 2.0))


def to_u(v: Field, N: int) -> Field:
    """Apply the transform: u(r) = r^{-(N-2)/2} v(r), pointwise on nodes."""
    return v.with_values(v.values * _transform_factor(v.grid, N))


def to_v(u: Field, N: int) -> Field:
    """Invert the transform: v(r) = r^{(N-2)/2} u(r); to_v(to_u(v)) == v."""
    return u.with_values(u.values / _transform_factor(u.grid, N))


def check_origin_nodes(grid: RadialGrid) -> None:
    """Raise DomainError unless the three smallest nodes, which
    origin_intercept fits, lie below r = 1, where the origin coordinate is
    defined."""
    if np.any(grid.nodes[:3] >= 1.0):
        raise DomainError("origin extrapolation needs three grid nodes below r = 1")


def origin_intercept(samples, grid: RadialGrid, N: int) -> float:
    """Value at r = 0 of the least-squares line through samples at the three
    smallest nodes, which must lie below r = 1, in the origin coordinate
    t = (-log r)^{-1/(N-2)}: strictly increasing in r, with t -> 0 as r -> 0."""
    check_origin_nodes(grid)
    t = (-np.log(grid.nodes[:3])) ** (-1.0 / (N - 2))
    design = np.vstack([np.ones_like(t), t]).T
    coef, *_ = np.linalg.lstsq(design, samples, rcond=None)
    return float(coef[0])


def integrate_mu(samples, grid: RadialGrid, N: int) -> float:
    """Integral against the weighted measure: N omega_N * int f(r) r dr.

    For f = |v|^2 this is the mu-mass of v, equal to the plain L^2 mass of
    u = to_u(v).
    """
    return N * unit_ball_volume(N) * grid.quadrature(samples)
