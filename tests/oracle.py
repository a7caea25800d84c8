"""Test-side reference minimiser, strong residual and Cayley stage.

``oracle_minimize`` is an independent check on the ground-state flow: it
shares no code with ``hardywaves.groundstate`` and reads the discrete
problem only through the operator's public forms and solves.
``cayley_reference`` solves one Crank-Nicolson stage in extended precision
from the operator's bands alone, without its LAPACK solves.
``h_inner`` is the two-part energy inner product, from which
``orbit_distance_reference`` takes the orbit distance's phase.
``newton_fixed_lambda`` solves the stationary equation at a fixed
multiplier, so it also reaches standing waves with nodes, which the
library's ground-state solver rightly never returns.
``bump_fields_reference`` sums each bump of the sample ensemble over the
whole grid, against which ``checks.random_fields`` sums it on a window.
``hardy_cells_reference`` forms the Hardy cells of the grid's n - 1
interior cells alone, and ``hardy_functional_reference`` adds the
zero-extension cell beyond r_max from its own two-node log grid.
``forms_reference`` is the operator's mass, Dirichlet and nonlinear forms
through ``np.abs``, which the operator keeps for real fields only.
"""

from dataclasses import dataclass

import numpy as np

from hardywaves import Field, Params, ParameterError, RadialGrid, unit_ball_volume
from hardywaves.checks import _bumps
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


def h_inner(op: RadialOperator, a: np.ndarray, b: np.ndarray) -> complex:
    """Energy-space inner product <a, b>_H: the Dirichlet part, cell
    differences plus the zero ghost beyond r_max, plus the mass part."""
    da, db = np.diff(a), np.diff(b)
    dirichlet = op.sphere * complex(
        np.sum(op.stiffness * da * np.conj(db)) + op.stiffness * a[-1] * np.conj(b[-1])
    )
    return dirichlet + op.mass_inner(a, b)


def orbit_distance_reference(op: RadialOperator, v: np.ndarray, wave: np.ndarray) -> float:
    """Energy-norm distance from v to the phase orbit of the wave, with the
    optimal phase arg <v, wave>_H from ``h_inner`` (Dirichlet part plus
    mass part) and the norm of the explicit difference."""
    inner = h_inner(op, v, wave)
    phase = np.exp(1j * np.angle(inner)) if inner != 0.0 else 1.0
    return float(np.sqrt(op.h_norm_sq(v - phase * wave)))


def newton_fixed_lambda(op: RadialOperator, v: np.ndarray, lam: float) -> tuple[np.ndarray, int]:
    """Damped Newton on K v + M (lam v - N(v)) = 0 at the fixed multiplier
    lam, through ``op.solve_tridiag``; each step halves until the residual's
    dual norm, sqrt(N omega_N g . (M + K)^{-1} g), decreases.  Returns the
    solution and its step count once that norm is below 1e-9, within 50
    steps."""
    q, tol, max_steps = op.params.q, 1e-9, 50

    def residual(v):
        g = op.stiffness_apply(v) + op.mass_diag * (lam * v - _nonlinearity(op, v))
        return g, float(np.sqrt(op.sphere * np.dot(g, op.solve_spd(g, 1.0))))

    g, norm = residual(v)
    for steps in range(max_steps + 1):
        if norm < tol:
            return v, steps
        step = op.solve_tridiag(lam - (q - 1.0) * op.w_sing * np.abs(v) ** (q - 2.0), g)
        damping = 1.0
        while True:
            v_try = v - damping * step
            g_try, norm_try = residual(v_try)
            if norm_try < norm or damping < 1e-8:
                break
            damping *= 0.5
        v, g, norm = v_try, g_try, norm_try
    raise AssertionError(f"Newton did not reach dual residual {tol} in {max_steps} steps")


def bump_fields_reference(grid: RadialGrid, count: int, seed: int, support=None):
    """The nodal values of the ensemble's fields, each bump evaluated and
    added at every node of the grid."""
    x = grid.log_nodes
    for _, bumps in _bumps(grid, count, seed, support):
        values = np.zeros(grid.n)
        for c, wdt, s, a in bumps:
            values += s * a * np.exp(-(((x - c) / wdt) ** 2))
        yield values


def hardy_cells_reference(x: np.ndarray, vals: np.ndarray, N: int) -> np.ndarray:
    """Per-cell Hardy integrand of vals on the cells between consecutive
    log-nodes x, without the sphere factor."""
    x_mid = 0.5 * (x[:-1] + x[1:])
    h, weight = np.diff(x), np.exp((N - 2) * x_mid)
    du = np.diff(vals) / h
    u_mid = 0.5 * (vals[:-1] + vals[1:])
    return (np.abs(du) ** 2 - ((N - 2) / 2.0) ** 2 * np.abs(u_mid) ** 2) * weight * h


def hardy_functional_reference(u: Field, N: int, eps: float) -> float:
    """The exterior Hardy functional: the interior cells at r >= eps plus a
    zero ghost node one log step beyond r_max."""
    x = u.grid.log_nodes
    cells = hardy_cells_reference(x, u.values, N)
    total = float(np.sum(cells[u.grid.nodes[:-1] >= eps]))
    x_ghost = np.array([x[-1], x[-1] + (x[-1] - x[-2])])
    ghost = hardy_cells_reference(x_ghost, np.array([u.values[-1], 0.0]), N)
    return N * unit_ball_volume(N) * (total + ghost[0])


def forms_reference(op: RadialOperator, v: np.ndarray) -> tuple[float, float, float]:
    """(mass, dirichlet, nonlinear) of the nodal values v, each a sum of
    |.|-powers from ``np.abs``, with the zero ghost beyond r_max."""
    q = op.params.q
    mass = op.sphere * float(np.sum(op.mass_diag * np.abs(v) ** 2))
    cells = np.sum(op.stiffness * np.abs(np.diff(v)) ** 2) + op.stiffness * np.abs(v[-1]) ** 2
    nonlinear = op.sphere / q * float(np.sum(op.mass_diag * op.w_sing * np.abs(v) ** q))
    return mass, op.sphere * float(cells), nonlinear
