"""Discrete radial operators shared by the energy functionals, the ground
state solver, and the propagator.

The operator r^{-1} (r v')' is discretised by piecewise-linear elements in
the grid's native coordinate and symmetrised in the r dr inner product:
stiffness K (tridiagonal, positive semidefinite) and lumped mass
M = diag(quadrature weights).  The boundary conditions are a reflecting
ghost at the origin end (v'(0) = 0) and a zero ghost cell beyond r_max
(v(r_max+) = 0), so the Dirichlet quadratic form reads

    v^T K v = sum_cells s_i |v_{i+1} - v_i|^2 + s_n |v_n|^2 .

Per-cell coefficients s_i = [int_cell (r / dr/dxi) dxi] / (dxi)^2 make the
form exact for fields piecewise linear in the native coordinate; on a log
grid s_i = 1/h.

Second differences are assembled as differences of first differences: for
smooth nodal data the first differences are exact (Sterbenz), which keeps
the rounding floor of the strong residual far below the 1e-8 tolerances
used downstream.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs, solve_banded

from .errors import ShapeError
from .radial import Field, Params, RadialGrid, unit_ball_volume

__all__ = ["RadialOperator", "cell_stiffness", "singular_weight"]

# tridiagonal LAPACK routines, called directly: ptsv for the SPD solve, and
# for the Cayley stage gtsv with a potential, gttrf/gttrs to factor the fixed
# matrix once
_DPTSV, = get_lapack_funcs(("ptsv",), dtype=np.float64)
_ZGTSV, _ZGTTRF, _ZGTTRS = get_lapack_funcs(("gtsv", "gttrf", "gttrs"), dtype=np.complex128)


def cell_stiffness(grid: RadialGrid) -> np.ndarray:
    """Per-cell stiffness coefficients s_i (length n: n-1 cells + ghost tail).

    s_i multiplies |v_{i+1} - v_i|^2 in the Dirichlet form; the last entry
    belongs to the zero ghost cell beyond r_max and multiplies |v_n|^2.
    """
    if grid.grading == "log":
        h = grid.log_step
        return np.full(grid.n, 1.0 / h)
    # any other grading: int_cell r dr / dr^2 = (r_{i+1}^2 - r_i^2) / (2 dr^2)
    r = grid.nodes
    dr = np.diff(r)
    s = np.empty(grid.n)
    s[:-1] = (r[1:] ** 2 - r[:-1] ** 2) / (2.0 * dr**2)
    tail = dr[-1]
    s[-1] = ((r[-1] + tail) ** 2 - r[-1] ** 2) / (2.0 * tail**2)
    return s


def dirichlet_form(s: np.ndarray, v: np.ndarray) -> float:
    """sum_i s_i |v_{i+1} - v_i|^2 + s_n |v_n|^2, without the sphere factor."""
    return float(np.sum(s[:-1] * np.abs(np.diff(v)) ** 2) + s[-1] * np.abs(v[-1]) ** 2)


def singular_weight(grid: RadialGrid, params: Params) -> np.ndarray:
    """Nodal samples of the nonlinear weight r^{-(q-2)(N-2)/2} g(r).

    Finite because r_min > 0; locally integrable against r dr for q below
    the critical exponent, so quadratures converge under refinement.
    """
    base = grid.nodes ** (-(params.q - 2.0) * (params.N - 2.0) / 2.0)
    return base * params.weight_values(grid.nodes)


class RadialOperator:
    """Assembled K, M and nonlinear weight for one (grid, params) pair."""

    def __init__(self, grid: RadialGrid, params: Params):
        self.grid = grid
        self.params = params
        self.sphere = params.N * unit_ball_volume(params.N)
        self.mass_diag = grid.weights
        self.s = cell_stiffness(grid)
        self.k_lower = -self.s[:-1]  # off-diagonal of K
        self.k_diag = np.empty(grid.n)
        self.k_diag[0] = self.s[0]
        self.k_diag[1:] = self.s[:-1] + self.s[1:]
        self.w_sing = singular_weight(grid, params)
        self._cayley_lu = None  # (dt, gttrf factors of M + i dt/2 K)

    # -- basic bilinear/quadratic forms (all carry the N omega_N factor) ----

    def mass(self, v: np.ndarray) -> float:
        return self.sphere * float(np.sum(self.mass_diag * np.abs(v) ** 2))

    def mass_inner(self, a: np.ndarray, b: np.ndarray) -> complex:
        return self.sphere * complex(np.sum(self.mass_diag * a * np.conj(b)))

    def dirichlet(self, v: np.ndarray) -> float:
        return self.sphere * dirichlet_form(self.s, v)

    def dirichlet_inner(self, a: np.ndarray, b: np.ndarray) -> complex:
        da, db = np.diff(a), np.diff(b)
        return self.sphere * complex(
            np.sum(self.s[:-1] * da * np.conj(db)) + self.s[-1] * a[-1] * np.conj(b[-1])
        )

    def h_inner(self, a: np.ndarray, b: np.ndarray) -> complex:
        """Energy-space inner product: Dirichlet part + weighted mass part."""
        return self.dirichlet_inner(a, b) + self.mass_inner(a, b)

    def h_norm_sq(self, v: np.ndarray) -> float:
        return self.dirichlet(v) + self.mass(v)

    def nonlinear(self, v: np.ndarray) -> float:
        q = self.params.q
        return self.sphere / q * float(np.sum(self.mass_diag * self.w_sing * np.abs(v) ** q))

    def energy(self, v: np.ndarray) -> float:
        return 0.5 * self.dirichlet(v) - self.nonlinear(v)

    # -- operator application ------------------------------------------------

    def stiffness_apply(self, v: np.ndarray) -> np.ndarray:
        """K v, assembled from exact first differences."""
        dv = np.diff(v)
        flux = self.s[:-1] * dv
        out = np.empty_like(v)
        out[0] = -flux[0]
        out[1:-1] = flux[:-1] - flux[1:]
        out[-1] = flux[-1] + self.s[-1] * v[-1]
        return out

    def laplacian_like(self, v: np.ndarray) -> np.ndarray:
        """-(1/r)(r v')' in discrete form: (M^{-1} K) v."""
        return self.stiffness_apply(v) / self.mass_diag

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
        n = self.grid.n
        dtype = np.result_type(diag, rhs)
        ab = np.zeros((3, n), dtype=dtype)
        ab[0, 1:] = self.k_lower
        ab[1] = self.k_diag + self.mass_diag * diag
        ab[2, :-1] = self.k_lower
        return solve_banded((1, 1), ab, rhs)

    def cayley_rhs(self, v: np.ndarray, dt: float) -> np.ndarray:
        """Potential-free part of the Cayley right-hand side: M v - i dt/2 K v."""
        return self.mass_diag * v - 0.5j * dt * self.stiffness_apply(v)

    def solve_cayley(
        self,
        potential: np.ndarray | None,
        v: np.ndarray,
        dt: float,
        rhs: np.ndarray | None = None,
    ) -> np.ndarray:
        """One Crank-Nicolson stage: (M + i dt/2 B) v+ = (M - i dt/2 B) v,
        B = K - M diag(potential).

        ``rhs`` is ``cayley_rhs(v, dt)``, passed in when several stages share
        v; only the potential term of the right-hand side is added here.
        ``potential=None`` is the stage without potential: its fixed matrix
        M + i dt/2 K is factored once per dt and kept on the operator, so a
        call only back-substitutes.

        B is real symmetric, so the stage is exactly unitary in the discrete
        r dr inner product up to the linear-solver roundoff.
        """
        half = 0.5j * dt
        if rhs is None:
            rhs = self.cayley_rhs(v, dt)
        if potential is None:
            x, info = _ZGTTRS(*self._cayley_factors(dt), rhs)
            if info != 0:
                raise LinAlgError(f"Cayley stage solve failed (zgttrs info={info})")
            return x
        rhs = rhs + half * self.mass_diag * potential * v
        off = half * self.k_lower
        diag = self.mass_diag + half * (self.k_diag - self.mass_diag * potential)
        _, _, _, x, info = _ZGTSV(off, diag, off.copy(), rhs, 1, 1, 1, 1)
        if info != 0:
            raise LinAlgError(f"Cayley stage solve failed (zgtsv info={info})")
        return x

    def _cayley_factors(self, dt: float) -> tuple:
        """gttrf factors of M + i dt/2 K, computed on the first call per dt."""
        if self._cayley_lu is None or self._cayley_lu[0] != dt:
            half = 0.5j * dt
            off = half * self.k_lower
            *factors, info = _ZGTTRF(off, self.mass_diag + half * self.k_diag, off)
            if info != 0:
                raise LinAlgError(f"Cayley matrix factorization failed (zgttrf info={info})")
            self._cayley_lu = (dt, tuple(factors))
        return self._cayley_lu[1]

    # -- helpers ---------------------------------------------------------------

    def check_field(self, v: Field) -> np.ndarray:
        if v.grid is not self.grid and not np.array_equal(v.grid.nodes, self.grid.nodes):
            raise ShapeError("field lives on a different grid than the operator")
        return v.values
