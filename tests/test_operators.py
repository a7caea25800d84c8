import numpy as np
import pytest
from scipy.linalg import solve_banded

from hardywaves import build_grid
from hardywaves.operators import RadialOperator


def cayley_reference(op, potential, v, dt):
    """(M + i dt/2 B) x = (M - i dt/2 B) v with B = K - M diag(potential),
    K v from first differences and the banded LAPACK driver."""
    half = 0.5j * dt
    flux = op.s * np.diff(v, append=0.0)  # zero ghost beyond r_max
    kv = -np.diff(flux, prepend=0.0)  # reflecting ghost at the origin end
    rhs = op.mass_diag * v - half * kv + half * op.mass_diag * potential * v
    ab = np.zeros((3, op.grid.n), dtype=complex)
    ab[0, 1:] = half * op.k_lower
    ab[1] = op.mass_diag + half * (op.k_diag - op.mass_diag * potential)
    ab[2, :-1] = half * op.k_lower
    return solve_banded((1, 1), ab, rhs)


@pytest.mark.parametrize("precomputed_rhs", [False, True])
@pytest.mark.parametrize("grading", ["log", "uniform"])
def test_solve_cayley_matches_banded_reference(grading, precomputed_rhs, params33):
    op = RadialOperator(build_grid(2048, 1e-6, 50.0, grading), params33)
    n = op.grid.n
    rng = np.random.default_rng(11)
    for dt in (1e-3, 2e-2):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        potential = 10.0 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        rhs = op.cayley_rhs(v, dt) if precomputed_rhs else None
        x = op.solve_cayley(potential, v, dt, rhs)
        ref = cayley_reference(op, potential, v, dt)
        assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))
