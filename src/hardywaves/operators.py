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
would carry into the stage.

Beside the Cayley cache (the bands of M + i dt/2 K and their factors for
one dt), an operator holds a stage workspace: one block of n-point rows
that the stages with a potential and the nonlinear step around them write
into, namely M v, the extrapolated midpoint, the potential, the stage
diagonal and its product scratch, and the update with its M-weighted copy.
Allocated per step, they would be a dozen 128 KiB temporaries at n = 8192,
glibc's default mmap threshold, whose pages the kernel would fault in again
on every step.  The workspace is made on the first stage with a
potential, so an operator that only serves the ground-state solver or a
checker never holds it, and no returned array is part of it.  Because of
the cache and the workspace, an operator is not for concurrent use.

The five tridiagonal LAPACK routines (dptsv, dgtsv, zgtsv, zgttrf, zgttrs)
come from scipy's compiled f2py module ``scipy/linalg/_flapack``, loaded from
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
# for Newton's indefinite solve and the Cayley stage with a potential, and
# gttrf/gttrs to factor the fixed Cayley matrix once
_flapack = _load_flapack()
_DPTSV, _DGTSV = _flapack.dptsv, _flapack.dgtsv
_ZGTSV, _ZGTTRF, _ZGTTRS = _flapack.zgtsv, _flapack.zgttrf, _flapack.zgttrs


def dirichlet_form(stiffness: float, v: np.ndarray) -> float:
    """(1/h) (sum_i |v_{i+1} - v_i|^2 + |v_n|^2), without the sphere factor,
    for ``stiffness`` = 1/h; the last term is the zero ghost cell beyond
    r_max."""
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
        self._cayley = None  # (dt, Cayley bands, gttrf factors of M + i dt/2 K)
        self._work = None  # stage workspace, made by _stage_work

    # -- basic bilinear/quadratic forms (all carry the N omega_N factor) ----

    def mass(self, v: np.ndarray) -> float:
        return self.sphere * float(np.sum(self.mass_diag * np.abs(v) ** 2))

    def mass_inner(self, a: np.ndarray, b: np.ndarray) -> complex:
        return self.sphere * complex(np.sum(self.mass_diag * a * np.conj(b)))

    def dirichlet(self, v: np.ndarray) -> float:
        return self.sphere * dirichlet_form(self.stiffness, v)

    def dirichlet_inner(self, a: np.ndarray, b: np.ndarray) -> complex:
        da, db = np.diff(a), np.diff(b)
        return self.sphere * complex(
            np.sum(self.stiffness * da * np.conj(db)) + self.stiffness * a[-1] * np.conj(b[-1])
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

    def solve_cayley(self, potential: np.ndarray | None, mv: np.ndarray, dt: float) -> np.ndarray:
        """One Crank-Nicolson stage in midpoint form: the midpoint y of
        (M + i dt/2 B) v+ = (M - i dt/2 B) v, B = K - M diag(potential).

        The two matrices sum to 2M, so the stage is the solve
        (M + i dt/2 B) y = M v, with ``mv`` = M v, and v+ = 2 y - v.  The
        potential must be real: then B is real symmetric and the stage is
        exactly unitary in the discrete r dr inner product up to the
        linear-solver roundoff.  ``mv`` is left unchanged, so stages that
        share v share it.  ``potential=None`` is the stage without
        potential: the fixed matrix M + i dt/2 K is factored once per dt and
        kept on the operator, so a call only back-substitutes.
        """
        lower, k_half, m_half, factors = self._cayley_bands(dt)
        if potential is None:
            y, info = _ZGTTRS(*factors, mv)
            if info != 0:
                raise LinAlgError(f"Cayley stage solve failed (zgttrs info={info})")
            return y
        work = self._stage_work()
        diag = work.diag
        diag.real = self.mass_diag
        np.multiply(m_half, potential, out=work.product)
        np.subtract(k_half, work.product, out=diag.imag)
        # gtsv overwrites its inputs: only the work diagonal, rebuilt on
        # every call, is passed as is; y is a copy of mv
        _, _, _, y, info = _ZGTSV(lower, diag, lower, mv, 0, 1, 0, 0)
        if info != 0:
            raise LinAlgError(f"Cayley stage solve failed (zgtsv info={info})")
        return y

    def _cayley_bands(self, dt: float) -> tuple:
        """i dt/2 k_lower, dt/2 k_diag, dt/2 mass_diag and the gttrf factors
        of M + i dt/2 K, computed on the first call per dt."""
        if self._cayley is None or self._cayley[0] != dt:
            lower = 0.5j * dt * self.k_lower
            k_half = 0.5 * dt * self.k_diag
            *factors, info = _ZGTTRF(lower, self.mass_diag + 1j * k_half, lower)
            if info != 0:
                raise LinAlgError(f"Cayley matrix factorization failed (zgttrf info={info})")
            self._cayley = (dt, lower, k_half, 0.5 * dt * self.mass_diag, tuple(factors))
        return self._cayley[1:]

    def _stage_work(self) -> "_StageWork":
        """The stage workspace, made on the first call and then reused."""
        if self._work is None:
            self._work = _StageWork(self.grid.n)
        return self._work

    # -- helpers ---------------------------------------------------------------

    def check_field(self, v: Field) -> np.ndarray:
        if v.grid is not self.grid and not np.array_equal(v.grid.nodes, self.grid.nodes):
            raise ShapeError("field lives on a different grid than the operator")
        return v.values


class _StageWork:
    """The stage workspace, rows of one block: ``evolve._cn_step`` writes
    ``mv``, ``midpoint``, ``potential``, ``diff`` (an update of the midpoint)
    and ``m_diff`` (M diff), and ``solve_cayley`` writes ``diag`` and
    ``product``."""

    def __init__(self, n: int):
        block = np.empty((6, n), dtype=complex)
        self.mv, self.midpoint, self.diff, self.m_diff, self.diag = block[:5]
        self.potential, self.product = block[5].view(float).reshape(2, n)
