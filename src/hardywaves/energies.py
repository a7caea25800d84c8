"""Energies, norms, and the singular surface term, in u- and v-form.

Conventions: v-form integrals use the reduced measure N omega_N r dr;
u-form integrals use the full radial measure N omega_N r^{N-1} dr.  The
Dirichlet form treats fields as reflected below r_min (v'(0) = 0 ghost) and
extended by zero beyond r_max, matching the propagator's boundary
conditions.

The exterior Hardy functional is evaluated with cell-midpoint differences in
log r.  For transform images u = r^{-(N-2)/2} v the singular prefactors then
cancel cell by cell, which keeps the discrete Hardy identity
I(u) = weighted_dirichlet(v) accurate to O(h^2) with a small constant
(about ((N-2)/2)^2 h^2 / 4 in relative terms).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError
from .operators import RadialOperator, cell_stiffness, dirichlet_form
from .radial import Field, Params, check_dimension, origin_intercept, unit_ball_volume

__all__ = [
    "EnergyReport",
    "weighted_dirichlet",
    "hardy_functional_u",
    "surface_term",
    "surface_term_limit",
    "nonlinear_term",
    "energy_J",
    "lagrange_multiplier",
]


@dataclass(frozen=True)
class EnergyReport:
    """Scalar energies of one field: E, J, and their ingredients."""

    dirichlet_mu: float
    mass_mu: float
    nonlinear: float
    E: float
    J: float
    h_norm_sq: float

    def __post_init__(self):
        if min(self.dirichlet_mu, self.mass_mu, self.nonlinear) < 0.0:
            raise DegenerateInputError("energy components must be nonnegative")


def weighted_dirichlet(v: Field, N: int) -> float:
    """Weighted Dirichlet energy: int |x|^{-(N-2)} |grad v|^2 dx.

    Piecewise-linear (cell) form in the native coordinate, including the
    zero-extension tail cell beyond r_max; exact for fields piecewise linear
    in that coordinate.
    """
    N = check_dimension(N)
    return N * unit_ball_volume(N) * dirichlet_form(cell_stiffness(v.grid), v.values)


def hardy_cells(u: Field, N: int) -> np.ndarray:
    """Per-cell Hardy integrand of u with cell-midpoint differences in log r,
    without the sphere factor: cell i spans nodes i and i+1."""
    x = u.grid.log_nodes
    h = np.diff(x)
    vals = u.values
    alpha2 = ((N - 2) / 2.0) ** 2
    x_mid = 0.5 * (x[:-1] + x[1:])
    du = np.diff(vals) / h
    u_mid = 0.5 * (vals[:-1] + vals[1:])
    return (np.abs(du) ** 2 - alpha2 * np.abs(u_mid) ** 2) * np.exp((N - 2) * x_mid) * h


def hardy_functional_u(u: Field, N: int, eps: float) -> float:
    """Exterior Hardy functional of u restricted to r >= eps:

        int_{r>=eps} |u'|^2 r^{N-1} dr - ((N-2)/2)^2 int_{r>=eps} u^2 r^{N-3} dr,

    times the sphere factor, with cell-midpoint differences in log r and a
    zero-extension tail cell at r_max.
    """
    grid = u.grid
    if eps < grid.r_min:
        raise DomainError(f"eps={eps} below the grid's r_min={grid.r_min}")
    total = float(np.sum(hardy_cells(u, N)[grid.nodes[:-1] >= eps]))
    # zero ghost cell beyond r_max, same width as the last cell
    x = grid.log_nodes
    vals = u.values
    alpha2 = ((N - 2) / 2.0) ** 2
    ht = x[-1] - x[-2]
    xt = x[-1] + 0.5 * ht
    total += (np.abs(vals[-1] / ht) ** 2 - alpha2 * np.abs(0.5 * vals[-1]) ** 2) * np.exp(
        (N - 2) * xt
    ) * ht
    return N * unit_ball_volume(N) * total


def surface_term(u: Field, N: int, eps: float) -> float:
    """Hardy surface energy at radius eps:

        (N-2)/2 * eps^{-1} * int_{|x|=eps} |u|^2 dS
      = (N-2)/2 * N omega_N * eps^{N-2} * |u(eps)|^2,

    with u(eps) interpolated linearly in log r between nodes.
    """
    grid = u.grid
    if not (grid.r_min <= eps <= grid.r_max):
        raise DomainError(f"eps={eps} outside grid range [{grid.r_min}, {grid.r_max}]")
    u_eps = np.interp(np.log(eps), grid.log_nodes, np.real(u.values)) + 1j * np.interp(
        np.log(eps), grid.log_nodes, np.imag(u.values)
    )
    return (
        0.5 * (N - 2) * N * unit_ball_volume(N) * eps ** (N - 2) * float(np.abs(u_eps) ** 2)
    )


def surface_term_limit(u: Field, N: int) -> float:
    """eps -> 0 limit of the surface term, extrapolated from the three
    smallest nodes.

    The extrapolation is linear in the origin coordinate
    t = (-log eps)^{-1/(N-2)}, in which transform images of profiles regular
    at the origin are smooth; requires r_min < 1.
    """
    grid = u.grid
    return origin_intercept(np.array([surface_term(u, N, e) for e in grid.nodes[:3]]), grid, N)


def nonlinear_term(v: Field, params: Params) -> float:
    """q-homogeneous term F: (1/q) int |x|^{-q(N-2)/2} g |v|^q dx.

    Equals (1/q) int g |u|^q dx for u = to_u(v); homogeneous of degree q.
    """
    return RadialOperator(v.grid, params).nonlinear(v.values)


def energy_J(v: Field, params: Params) -> EnergyReport:
    """Full energy report: E = dirichlet/2 - F and J = E + mass/2."""
    return _energy_report(RadialOperator(v.grid, params), v.values)


def _energy_report(op: RadialOperator, v: np.ndarray) -> EnergyReport:
    """``energy_J`` of the nodal values v on an assembled operator."""
    dirichlet = op.dirichlet(v)
    mass = op.mass(v)
    nonlinear = op.nonlinear(v)
    energy = 0.5 * dirichlet - nonlinear
    return EnergyReport(
        dirichlet_mu=dirichlet,
        mass_mu=mass,
        nonlinear=nonlinear,
        E=energy,
        J=energy + 0.5 * mass,
        h_norm_sq=dirichlet + mass,
    )


def lagrange_multiplier(v: Field, params: Params) -> float:
    """Multiplier of the stationary equation, from the integrated identity:

        lambda = (q F(v) - dirichlet_mu(v)) / mass_mu(v).
    """
    report = energy_J(v, params)
    if report.mass_mu <= 0.0:
        raise DegenerateInputError("lagrange multiplier undefined for zero-mass field")
    return (params.q * report.nonlinear - report.dirichlet_mu) / report.mass_mu
