"""Test-side reference minimiser, strong residual and Cayley stage.

``oracle_minimize`` is an independent check on the ground-state flow: it
shares no code with ``hardywaves.groundstate`` and reads the discrete
problem only through the operator's public forms and solves.
``cayley_reference`` solves one Crank-Nicolson stage in extended precision
from the operator's bands alone, without its LAPACK solves.
"""

from dataclasses import dataclass

import numpy as np

from hardywaves import Params, ParameterError, RadialGrid
from hardywaves.operators import RadialOperator


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Best candidate of the restarts: nodal values, J, mu-mass, residual."""

    v: np.ndarray
    J: float
    mass: float
    residual: float


def _nonlinearity(op: RadialOperator, v: np.ndarray) -> np.ndarray:
    """N(v) = r^{-(q-2)(N-2)/2} g |v|^{q-2} v at the nodes."""
    return op.w_sing * np.abs(v) ** (op.params.q - 2) * v


def strong_residual(op: RadialOperator, v: np.ndarray, lam: float) -> float:
    """Weighted L^2 norm of the strong residual of the stationary equation:

        -(1/r)(r v')' + lambda v - r^{-(q-2)(N-2)/2} g |v|^{q-2} v,

    measured in the r dr norm with the sphere factor.
    """
    res = op.stiffness_apply(v) / op.mass_diag + lam * v - _nonlinearity(op, v)
    return float(np.sqrt(op.sphere * np.sum(op.mass_diag * res**2)))


def integrated_multiplier(op: RadialOperator, v: np.ndarray) -> float:
    """lambda = (q F(v) - dirichlet(v)) / mass(v), the integrated identity."""
    return (op.params.q * op.nonlinear(v) - op.dirichlet(v)) / op.mass(v)


def _energy_J(op: RadialOperator, v: np.ndarray) -> float:
    return (0.5 * op.dirichlet(v) - op.nonlinear(v)) + 0.5 * op.mass(v)


def oracle_minimize(
    params: Params,
    grid: RadialGrid,
    restarts: int = 8,
    budget: int = 4000,
    seed: int = 0,
) -> OracleResult:
    """Best-of-restarts projected gradient descent with Armijo line search,
    from random positive bump fields.

    Preconditioned by the energy-space metric (K + M); deterministic for a
    fixed seed.  Restricted to small grids; ties between restarts break by
    lowest J, then lowest residual.  Returns the best candidate whether or
    not it meets any residual tolerance.
    """
    if grid.n > 512:
        raise ParameterError("oracle_minimize is restricted to grids with n <= 512")
    op = RadialOperator(grid, params)
    gamma = params.gamma
    rng = np.random.default_rng(seed)
    x = grid.log_nodes
    lo, hi = x[0] + np.log(10.0), x[-1] - np.log(10.0)

    def renormalize(v):
        return v * np.sqrt(gamma / op.mass(v))

    best = None  # (J, residual, v)
    for _ in range(restarts):
        v = np.zeros(grid.n)
        for _ in range(int(rng.integers(2, 6))):
            center = rng.uniform(lo, hi)
            width = rng.uniform(0.4, 1.2)
            v += rng.uniform(0.3, 1.0) * np.exp(-(((x - center) / width) ** 2))
        v = renormalize(np.abs(v) + 1e-3)
        j_val = _energy_J(op, v)
        alpha = 1.0
        for _ in range(max(budget, 0)):
            # gradient of J itself, K v + M (v - N(v)): its mass term has lambda = 1
            grad = op.stiffness_apply(v) + op.mass_diag * (v - _nonlinearity(op, v))
            mv = op.mass_diag * v
            pg = op.solve_spd(grad, 1.0)  # (M + K)^{-1} grad
            pmv = op.solve_spd(mv, 1.0)
            theta = float(np.sum(mv * pg) / np.sum(mv * pmv))
            direction = pg - theta * pmv  # tangent to the mass sphere
            if float(np.sum(grad * direction)) <= 1e-30:
                break
            moved = False
            while alpha > 1e-16:
                v_try = v - alpha * direction
                if op.mass(v_try) > 0.0:
                    v_try = renormalize(v_try)
                    j_try = _energy_J(op, v_try)
                    if j_try <= j_val - 1e-15:
                        moved = True
                        break
                alpha *= 0.5
            if not moved:
                break
            v, j_val = v_try, j_try
            alpha = min(alpha * 1.5, 1e4)
        rn = strong_residual(op, v, integrated_multiplier(op, v))
        if best is None or (j_val, rn) < (best[0], best[1]):
            best = (j_val, rn, v)

    j_best, rn_best, v_best = best
    return OracleResult(v=v_best, J=j_best, mass=op.mass(v_best), residual=rn_best)


def cayley_reference(op, potential, v, dt):
    """v+ of the exact stage (M + i dt/2 B) v+ = (M - i dt/2 B) v with
    B = K - M diag(potential), K v from first differences, by a Thomas
    solve in extended precision; M > 0 keeps it pivot-free."""
    ld = np.longdouble
    half = np.clongdouble(0.5j) * ld(dt)
    m, p, x = op.mass_diag.astype(ld), potential.astype(ld), v.astype(np.clongdouble)
    flux = ld(op.stiffness) * np.diff(x, append=0.0)  # zero ghost beyond r_max
    kv = -np.diff(flux, prepend=0.0)  # reflecting ghost at the origin end
    rhs = m * x - half * (kv - m * p * x)
    off = half * op.k_lower.astype(ld)
    diag = m + half * (op.k_diag.astype(ld) - m * p)
    n = op.grid.n
    c = np.empty(n - 1, dtype=np.clongdouble)
    for i in range(n):
        if i:
            diag[i] -= off[i - 1] * c[i - 1]
            rhs[i] -= off[i - 1] * rhs[i - 1]
        if i < n - 1:
            c[i] = off[i] / diag[i]
        rhs[i] /= diag[i]
    for i in range(n - 2, -1, -1):
        rhs[i] -= c[i] * rhs[i + 1]
    return rhs
