"""Discrete radial operators shared by the energy functionals, the ground
state solver, and the propagator.

The operator r^{-1} (r v')' is discretised by piecewise-linear elements in
x = log r and symmetrised in the r dr inner product: stiffness K
(tridiagonal, positive semidefinite) and lumped mass M = diag(quadrature
weights).  The boundary conditions are a reflecting ghost at the origin end
(v'(0) = 0) and a zero ghost cell beyond r_max (v(r_max+) = 0), so the
Dirichlet quadratic form reads

    v^T K v = (1/h) (sum_cells |v_{i+1} - v_i|^2 + |v_n|^2) .

Since r dr |v'|^2 = dx |dv/dx|^2, the one coefficient 1/h, with h the log
step, makes the form exact for fields piecewise linear in log r.

Second differences are assembled as differences of first differences: for
smooth nodal data the first differences are exact (Sterbenz), which keeps
the rounding floor of the strong residual far below the 1e-8 tolerances
used downstream.

A Crank-Nicolson stage is solved for its midpoint against M v, so it never
forms K v, whose rounding an explicit right-hand side M v - i dt/2 K v
would carry into the stage.  ``cayley_factors`` factors the stage matrix
M + i dt/2 (K - M diag(potential)) once, and ``solve_cayley``
back-substitutes a right-hand side through those factors in place, in the
caller's row; the caller keeps the factors and the rows (``evolve`` keeps
them on the evolution state).

The mass, Dirichlet and nonlinear forms of a complex field are dot
products of squared moduli, |v|^2 = Re(v)^2 + Im(v)^2, where ``np.abs``
would take a hypot per value; a real field keeps the abs forms, so every
real result (ground states, checks, Kelvin runs) has the same bits.

The four tridiagonal LAPACK routines (dptsv, dgtsv, zgttrf, zgttrs) come
from scipy's compiled f2py module ``scipy/linalg/_flapack``, loaded from
its file under its own module name.  Importing the ``scipy.linalg`` package
instead would take half of a short process's start-up, for routines that are
the very same objects: a later ``import scipy.linalg`` shares the module.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
from pathlib import Path

import numpy as np
from numpy.linalg import LinAlgError

from .errors import ShapeError
from .radial import Field, Params, RadialGrid, unit_ball_volume

__all__ = ["RadialOperator"]


def _load_flapack():
    """scipy's ``scipy.linalg._flapack`` extension module, loaded from its file
    without importing the ``scipy.linalg`` package."""
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    paths = [Path(scipy_spec.origin).parent / "linalg" / f"_flapack{suffix}"
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    for path in paths:
        if path.is_file():
            spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"scipy's LAPACK module not found; looked for {', '.join(map(str, paths))}")


# tridiagonal LAPACK routines, called directly: ptsv for the SPD solve, gtsv
# for Newton's indefinite solve, and gttrf/gttrs to factor the Cayley
# matrix once and back-substitute through it
_flapack = _load_flapack()
_DPTSV, _DGTSV = _flapack.dptsv, _flapack.dgtsv
_ZGTTRF, _ZGTTRS = _flapack.zgttrf, _flapack.zgttrs


def dirichlet_form(stiffness: float, v: np.ndarray) -> float:
    """(1/h) (sum_i |v_{i+1} - v_i|^2 + |v_n|^2), without the sphere factor,
    for ``stiffness`` = 1/h; the last term is the zero ghost cell beyond
    r_max.  For complex v the sum is one dot product of the differences."""
    if np.iscomplexobj(v):
        diff = v[1:] - v[:-1]
        return stiffness * float(np.vdot(diff, diff).real + v[-1].real ** 2 + v[-1].imag ** 2)
    return float(np.sum(stiffness * np.abs(np.diff(v)) ** 2) + stiffness * np.abs(v[-1]) ** 2)


class RadialOperator:
    """Assembled K, M and nonlinear weight for one (grid, params) pair."""

    def __init__(self, grid: RadialGrid, params: Params):
        self.grid = grid
        self.params = params
        self.sphere = params.N * unit_ball_volume(params.N)
        self.mass_diag = grid.weights
        self.stiffness = 1.0 / grid.log_step
        self.k_lower = np.full(grid.n - 1, -self.stiffness)  # off-diagonal of K
        self.k_diag = np.full(grid.n, 2.0 * self.stiffness)
        self.k_diag[0] = self.stiffness
        # the nonlinear weight r^{-(q-2)(N-2)/2} g(r): finite because r_min > 0,
        # and locally integrable against r dr for q below the critical exponent
        base = grid.nodes ** (-(params.q - 2.0) * (params.N - 2.0) / 2.0)
        self.w_sing = base if params.weight is None else base * params.weight(grid.nodes)
        self.mass_w = self.mass_diag * self.w_sing

    # -- basic bilinear/quadratic forms (all carry the N omega_N factor) ----

    def mass(self, v: np.ndarray) -> float:
        if np.iscomplexobj(v):
            return self.sphere * float(np.vdot(v, self.mass_diag * v).real)
        return self.sphere * float(np.sum(self.mass_diag * np.abs(v) ** 2))

    def mass_inner(self, a: np.ndarray, b: np.ndarray) -> complex:
        return self.sphere * complex(np.sum(self.mass_diag * a * np.conj(b)))

    def dirichlet(self, v: np.ndarray) -> float:
        return self.sphere * dirichlet_form(self.stiffness, v)

    def h_norm_sq(self, v: np.ndarray) -> float:
        return self.dirichlet(v) + self.mass(v)

    def nonlinear(self, v: np.ndarray) -> float:
        q = self.params.q
        if np.iscomplexobj(v):  # sum M w |v|^{q-2} |v|^2
            squared = np.square(v.real) + np.square(v.imag)
            power = squared ** (0.5 * q - 1.0)
            return self.sphere / q * float(np.dot(self.mass_w * power, squared))
        return self.sphere / q * float(np.sum(self.mass_w * np.abs(v) ** q))

    def potential(
        self, v: np.ndarray, out: np.ndarray | None = None, weight: np.ndarray | None = None
    ) -> np.ndarray:
        """The nonlinear potential w |v|^{q-2}, into the real row ``out`` if
        given; a ``weight`` row takes the place of w."""
        out = np.abs(v, out=out)
        if self.params.q != 3.0:  # |v|^1 is |v|
            np.power(out, self.params.q - 2.0, out=out)
        return np.multiply(self.w_sing if weight is None else weight, out, out=out)

    # -- operator application ------------------------------------------------

    def stiffness_apply(self, v: np.ndarray) -> np.ndarray:
        """K v, assembled from exact first differences."""
        dv = np.diff(v)
        flux = self.stiffness * dv
        out = np.empty_like(v)
        out[0] = -flux[0]
        out[1:-1] = flux[:-1] - flux[1:]
        out[-1] = flux[-1] + self.stiffness * v[-1]
        return out

    # -- banded solves ---------------------------------------------------------

    def solve_spd(self, rhs: np.ndarray, dt: float) -> np.ndarray:
        """Solve (M + dt K) x = rhs, SPD tridiagonal."""
        d = self.mass_diag + dt * self.k_diag
        _, _, x, info = _DPTSV(d, dt * self.k_lower, rhs, 1, 1)
        if info != 0:
            raise LinAlgError(f"SPD tridiagonal solve failed (dptsv info={info})")
        return x

    def solve_tridiag(self, diag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve (K + diag(M * diag)) x = rhs with general (possibly indefinite) diag."""
        # gtsv overwrites its inputs: only the fresh diagonal is passed as is
        d = self.k_diag + self.mass_diag * diag
        _, _, _, x, info = _DGTSV(self.k_lower, d, self.k_lower, rhs, 0, 1, 0, 0)
        if info != 0:
            raise LinAlgError(f"tridiagonal solve failed (dgtsv info={info})")
        return x

    def cayley_factors(self, dt: float, potential: np.ndarray | None = None) -> tuple:
        """gttrf factors of the stage matrix M + i dt/2 B for ``solve_cayley``,
        B = K - M diag(potential), or K for ``potential=None``.  A real
        potential makes B real symmetric, and the stage
        (M + i dt/2 B) v+ = (M - i dt/2 B) v exactly unitary in the discrete
        r dr inner product up to the solver roundoff."""
        # dt/2 K - dt/2 M P, in this order: on the orbit, rounding it as
        # dt/2 (K - M P) triples the first midpoint update at n = 8192
        half_b = 0.5 * dt * self.k_diag
        if potential is not None:
            half_b -= 0.5 * dt * self.mass_diag * potential
        lower = 0.5j * dt * self.k_lower
        *factors, info = _ZGTTRF(lower, self.mass_diag + 1j * half_b, lower)
        if info != 0:
            raise LinAlgError(f"Cayley matrix factorization failed (zgttrf info={info})")
        return tuple(factors)

    def solve_cayley(self, factors: tuple, rhs: np.ndarray) -> np.ndarray:
        """Solve (M + i dt/2 B) y = rhs through its ``cayley_factors`` in
        place: ``rhs``, a writable contiguous complex row, is overwritten by
        y and returned.  The two stage matrices sum to 2M, so with ``rhs`` =
        M v the solution is the stage's midpoint y and v+ = 2 y - v."""
        # f2py would solve a copy of any other row, and writes a read-only one
        if not (rhs.dtype == complex and rhs.flags.c_contiguous and rhs.flags.writeable):
            raise ValueError("the right-hand side must be a writable contiguous complex row")
        y, info = _ZGTTRS(*factors, rhs, "N", 1)  # no transpose, overwrite_b
        if info != 0:
            raise LinAlgError(f"Cayley stage solve failed (zgttrs info={info})")
        return y

    # -- helpers ---------------------------------------------------------------

    def check_field(self, v: Field) -> np.ndarray:
        if v.grid is not self.grid and not np.array_equal(v.grid.nodes, self.grid.nodes):
            raise ShapeError("field lives on a different grid than the operator")
        return v.values

