import numpy as np
import pytest
from scipy.linalg import LinAlgError, solve_banded, solveh_banded

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


# ids keep the names of the log-grid cases from when the grid kind was a
# parameter
@pytest.mark.parametrize("with_potential, precomputed_rhs", [
    pytest.param(True, False, id="log-False"),
    pytest.param(True, True, id="log-True"),
    pytest.param(False, False, id="log-no-potential"),
])
def test_solve_cayley_matches_banded_reference(with_potential, precomputed_rhs, params33):
    # without a potential solve_cayley back-substitutes with cached factors
    # of the fixed matrix; alternating dt checks that they follow dt
    op = RadialOperator(build_grid(2048, 1e-6, 50.0), params33)
    n = op.grid.n
    rng = np.random.default_rng(11)
    for dt in (1e-3, 2e-2, 1e-3):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        potential = 10.0 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        rhs = op.cayley_rhs(v, dt) if precomputed_rhs else None
        if with_potential:
            x = op.solve_cayley(potential, v, dt, rhs)
            ref = cayley_reference(op, potential, v, dt)
        else:
            x = op.solve_cayley(None, v, dt, rhs)
            ref = cayley_reference(op, np.zeros(n), v, dt)
        assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))


# the id keeps the name of the log-grid case from when the grid kind was a
# parameter
@pytest.mark.parametrize("r_min", [pytest.param(1e-6, id="log")])
def test_solve_spd_matches_banded_reference(r_min, params33):
    # solveh_banded sends a two-row band to ptsv as well: the direct call
    # must give the same bits
    op = RadialOperator(build_grid(2048, r_min, 50.0), params33)
    n = op.grid.n
    rng = np.random.default_rng(5)
    for dt in (1e-3, 0.7, 1.0):
        rhs = rng.standard_normal(n)
        kept = rhs.copy()
        ab = np.zeros((2, n))
        ab[0, 1:] = dt * op.k_lower
        ab[1] = op.mass_diag + dt * op.k_diag
        ref = solveh_banded(ab, rhs)
        x = op.solve_spd(rhs, dt)
        assert np.array_equal(x, ref)
        assert np.array_equal(rhs, kept)  # the right-hand side is left alone


def test_solve_spd_raises_on_indefinite_matrix(params33):
    op = RadialOperator(build_grid(256, 1e-4, 30.0), params33)
    with pytest.raises(LinAlgError):
        op.solve_spd(np.ones(op.grid.n), -1.0)


def test_solve_tridiag_matches_dense_reference(params33):
    # Newton's Jacobian solve: (K + diag(M * diag)) x = rhs with an
    # indefinite diag and the two right-hand-side columns of the bordered step
    rng = np.random.default_rng(3)
    op = RadialOperator(build_grid(257, 1e-3, 30.0), params33)
    diag = rng.uniform(-3.0, 3.0, op.grid.n) * op.k_diag / op.mass_diag
    rhs = rng.standard_normal((op.grid.n, 2))
    kept = rhs.copy()
    dense = np.diag(op.k_diag + op.mass_diag * diag)
    dense += np.diag(op.k_lower, 1) + np.diag(op.k_lower, -1)
    assert np.min(np.diag(dense)) < 0.0 < np.max(np.diag(dense))
    ref = np.linalg.solve(dense, rhs)
    x = op.solve_tridiag(diag, rhs)
    assert x.shape == (op.grid.n, 2)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(rhs, kept)
    # singular: a tridiagonal matrix with zero diagonal and odd order; on
    # the log grid of 17 nodes from r = 1 to 17 the diagonal cancels exactly
    op = RadialOperator(build_grid(17, 1.0, 17.0), params33)
    diag = -op.k_diag / op.mass_diag
    assert not np.any(op.k_diag + op.mass_diag * diag)
    with pytest.raises(LinAlgError):
        op.solve_tridiag(diag, np.ones((op.grid.n, 2)))
