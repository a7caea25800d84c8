"""Kelvin-transformed dual problem: inversion r -> 1/r, the W-norm with its
Hardy energy at infinity, and equivalence checks against the direct side.

The dual side is the direct problem on the reciprocal grid: the W-norm uses
the direct side's Hardy cell form and surface term, and the transform of a
field w is a pure index reversal plus nodal scaling (no interpolation) onto
``reciprocal_grid(w.grid)``.  Reciprocal grids negate the log-nodes, so a
double reciprocal reproduces the original node array bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import _require_finite_cells, _sampled
from .energies import hardy_cells, hardy_functional_u, surface_term, surface_term_limit
from .radial import Field, RadialGrid, check_dimension, integrate_mu, to_u, to_v, unit_ball_volume

__all__ = [
    "reciprocal_grid",
    "kelvin_transform",
    "WNormReport",
    "w_norm",
    "lambda_infinity",
    "kelvin_verify",
]


def reciprocal_grid(grid: RadialGrid) -> RadialGrid:
    """Grid with nodes 1/r (ascending), exact in the log coordinate; formed
    once per grid."""

    def make() -> RadialGrid:
        x = -grid.log_nodes[::-1]
        return RadialGrid(nodes=np.exp(x), log_nodes=x)

    return grid._cached("reciprocal", make)


def kelvin_transform(w: Field, N: int) -> Field:
    """psi(y) = |x|^{N-2} w(x) at y = x/|x|^2, on the reciprocal grid."""
    grid = w.grid
    scale = grid._cached(("kelvin scale", N), lambda: np.exp((N - 2) * grid.log_nodes))
    return Field(values=(w.values * scale)[::-1], grid=reciprocal_grid(grid))


@dataclass(frozen=True)
class WNormReport:
    """Squared W-norm with the truncated-limit diagnostics at the tail."""

    value: float
    hardy: float
    weighted_mass: float
    tail_radii: tuple
    tail_hardy: tuple       # I over the ball of each tail radius
    tail_surface: tuple     # surface term at each tail radius (enters with +)


def w_norm(w: Field, N: int) -> WNormReport:
    """Squared dual-space norm: I(w) + int |x|^{-4} |w|^2 dx.

    The Hardy part is taken over the grid domain without the zero-extension
    tail cell: dual fields may carry the critical r^{-(N-2)/2} tail at
    infinity, for which the defining object is the truncated limit
    I_{<=R} + Lambda_R.  The report carries that pair at the three largest
    radii; the surface term enters additively, mirroring the subtraction on
    the direct side.
    """
    grid = w.grid
    sphere = N * unit_ball_volume(N)
    cells = hardy_cells(grid, w.values, N)[:-1]

    def hardy_inside(radius: float) -> float:
        return sphere * float(np.sum(cells[grid.nodes[1:] <= radius]))

    hardy = hardy_inside(grid.r_max)
    weight = grid._cached(("w-norm weight", N), lambda: grid.nodes ** (N - 6))
    weighted_mass = sphere * grid.quadrature(weight * np.abs(w.values) ** 2)
    radii = grid.nodes[-3:]
    return WNormReport(
        value=hardy + weighted_mass,
        hardy=hardy,
        weighted_mass=weighted_mass,
        tail_radii=tuple(float(r) for r in radii),
        tail_hardy=tuple(hardy_inside(r) for r in radii),
        tail_surface=tuple(surface_term(w, N, r) for r in radii),
    )


def lambda_infinity(w: Field, N: int) -> float:
    """Limit of the surface term at infinity.

    Node for node, the surface term of w at radius R equals the surface term
    of psi = K(w) at radius 1/R, so the limit is extrapolated on the image
    side with the same origin-coordinate model as the direct problem.
    """
    return surface_term_limit(kelvin_transform(w, N), N)


def kelvin_verify(grid: RadialGrid, N: int, samples: int, seed: int) -> dict:
    """Numerical checks used by tests and the CLI: involution error and
    W-vs-H norm agreement on random fields w = to_u(bump sample), which
    carry the critical r^{-(N-2)/2} factor.  Passed when both relative
    errors are small: involution < 1e-12 (node-exact), norms < 1e-6."""
    N = check_dimension(N)

    def errors(bumps: Field) -> tuple[float, float]:
        w = to_u(bumps, N)
        psi = kelvin_transform(w, N)
        back = kelvin_transform(psi, N)
        scale = float(np.max(np.abs(w.values))) or 1.0
        wn = w_norm(w, N).value
        psi_mass = integrate_mu(np.abs(to_v(psi, N).values) ** 2, psi.grid, N)
        hn = hardy_functional_u(psi, N, eps=psi.grid.r_min) + psi_mass
        return (float(np.max(np.abs(back.values - w.values))) / scale,
                abs(wn - hn) / max(abs(hn), 1e-300))

    _require_finite_cells(grid, N, kelvin=True)
    _, (involution, mismatch) = _sampled(grid, samples, seed, errors)
    worst_inv, worst_iso = float(involution.max()), float(mismatch.max())
    return {
        "samples": samples,
        "max_involution_error": worst_inv,
        "max_norm_mismatch": worst_iso,
        "passed": bool(worst_inv < 1e-12 and worst_iso < 1e-6),
    }
