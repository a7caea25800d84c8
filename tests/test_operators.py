import importlib.machinery
import importlib.util
from dataclasses import replace

import numpy as np
import pytest
from numpy.linalg import LinAlgError
from scipy.linalg import get_lapack_funcs, solveh_banded

from hardywaves import Params, build_grid, operators
from hardywaves.operators import RadialOperator
from oracle import cayley_reference, h_inner


# ids keep the names of the log-grid cases from when the grid kind was a
# parameter; the middle case passed a shared right-hand side, as repeated
# stages now share M v
@pytest.mark.parametrize("with_potential, shared_mv", [
    pytest.param(True, False, id="log-False"),
    pytest.param(True, True, id="log-True"),
    pytest.param(False, False, id="log-no-potential"),
])
def test_solve_cayley_matches_banded_reference(with_potential, shared_mv, params33):
    # solve_cayley through cayley_factors returns the midpoint y of the
    # stage, v+ = 2 y - v, to the rounding of one complex solve.  On white
    # noise over 240 seeds it is at most 1.2e-15 off in the M-norm and
    # 9.6e-13 of max|v+| at any node, where an explicit right-hand side
    # M v - i dt/2 K v is up to 1.7e-14 and 1.5e-11 off (median 7e-16 and
    # 2.1e-12).  The M-norm weights r^2 span 15 decades, so the max-norm
    # bound is what holds the nodes near the origin.  The potential is real,
    # as B must be real symmetric.
    op = RadialOperator(build_grid(2048, 1e-6, 50.0), params33)
    n = op.grid.n
    rng = np.random.default_rng(11)
    for dt in (1e-3, 2e-2, 1e-3):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        potential = 10.0 * rng.standard_normal(n) if with_potential else np.zeros(n)
        mv = op.mass_diag * v
        kept = mv.copy()
        if shared_mv:
            # an earlier stage on the same M v must leave it as it was, and
            # its result, which is fresh, must survive the later stage
            earlier = op.solve_cayley(op.cayley_factors(dt, 10.0 * rng.standard_normal(n)), mv)
            kept_earlier = earlier.copy()
        factors = op.cayley_factors(dt, potential if with_potential else None)
        x = 2.0 * op.solve_cayley(factors, mv) - v
        ref = cayley_reference(op, potential, v, dt)
        assert np.array_equal(mv, kept)
        if shared_mv:
            assert np.array_equal(earlier, kept_earlier)
        assert np.sqrt(op.mass(x - ref)) <= 2e-15 * np.sqrt(op.mass(ref))
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


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


def test_stiffness_is_one_coefficient(params33):
    # K carries the one coefficient 1/h: its bands are exact multiples of
    # it, and K v, the Dirichlet form and the oracle's energy inner product
    # all agree with the dense matrix assembled from those bands (plus M)
    op = RadialOperator(build_grid(257, 1e-3, 30.0), params33)
    n = op.grid.n
    assert op.stiffness == 1.0 / op.grid.log_step
    assert op.k_diag[0] == op.stiffness
    assert np.all(op.k_diag[1:] == 2.0 * op.stiffness)
    assert np.all(op.k_lower == -op.stiffness)
    dense = np.diag(op.k_diag) + np.diag(op.k_lower, 1) + np.diag(op.k_lower, -1)
    rng = np.random.default_rng(13)
    v = rng.standard_normal(n)
    kv = dense @ v
    assert np.max(np.abs(op.stiffness_apply(v) - kv)) <= 1e-13 * np.max(np.abs(kv))
    assert abs(op.dirichlet(v) - op.sphere * (v @ kv)) <= 1e-13 * op.dirichlet(v)
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ref = op.sphere * np.vdot(b, dense @ a + op.mass_diag * a)
    scale = np.sqrt(op.h_norm_sq(a) * op.h_norm_sq(b))
    assert abs(h_inner(op, a, b) - ref) <= 1e-13 * scale


def test_potential_is_the_weighted_power():
    # P(v) = r^{-(q-2)(N-2)/2} g(r) |v|^{q-2}, for real and complex fields,
    # written into ``out`` when one is given, and 0 for g == 0
    grid = build_grid(257, 1e-3, 30.0)
    params = Params(N=5, q=2.4, weight=lambda r: 1.0 / (1.0 + r))
    op = RadialOperator(grid, params)
    rng = np.random.default_rng(29)
    real = rng.standard_normal(grid.n)
    for v in (real, real + 1j * rng.standard_normal(grid.n)):
        ref = grid.nodes ** (-0.6) / (1.0 + grid.nodes) * np.abs(v) ** 0.4
        assert np.allclose(op.potential(v), ref, rtol=1e-14, atol=0.0)
        out = np.empty(grid.n)
        assert op.potential(v, out=out) is out
        assert np.array_equal(out, op.potential(v))
    free = RadialOperator(grid, replace(params, weight=np.zeros_like))
    assert not np.any(free.potential(real))


def _tridiagonal_systems(rng, n, nrhs, singular):
    """An SPD real system, a general real and a general complex one, each
    with ``nrhs`` right-hand sides; ``singular`` zeroes the diagonals, which
    makes every matrix singular for odd n."""
    def draw(size, dtype=float):
        x = rng.standard_normal(size)
        return x + 1j * rng.standard_normal(size) if dtype is complex else x

    scale = 0.0 if singular else 1.0
    spd = (scale * (4.0 + np.abs(draw(n))), draw(n - 1))
    real = (draw(n - 1), scale * draw(n), draw(n - 1))
    cplx = (draw(n - 1, complex), scale * draw(n, complex), draw(n - 1, complex))
    rhs = draw((n, nrhs)) if nrhs > 1 else draw(n)
    rhs_c = draw((n, nrhs), complex) if nrhs > 1 else draw(n, complex)
    return spd, real, cplx, rhs, rhs_c


def _lapack_outcomes(routines, systems):
    """Each routine's outputs, or the type and message of what it raised:
    scipy's wrappers reject n = 1, and n = 2 for gttrf and gttrs."""
    ptsv, dgtsv, zgttrf, zgttrs = routines
    spd, real, cplx, rhs, rhs_c = systems
    calls = [lambda: ptsv(*spd, rhs), lambda: dgtsv(*real, rhs),
             lambda: zgttrf(*cplx), lambda: zgttrs(*zgttrf(*cplx)[:-1], rhs_c)]
    outcomes = []
    for call in calls:
        try:
            outcomes.append([np.asarray(out) for out in call()])
        except ValueError as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


@pytest.mark.parametrize("n, nrhs, singular", [
    *((n, nrhs, False) for n in (1, 2, 17, 8192) for nrhs in (1, 2)),
    (17, 1, True), (17, 2, True),
])
def test_loaded_lapack_matches_scipy_linalg_bit_for_bit(n, nrhs, singular):
    # the four routines loaded from scipy's compiled module give, output by
    # output, the bits that scipy.linalg's own lookup gives; two right-hand
    # sides are the Newton polish's bordered step
    ours = (operators._DPTSV, operators._DGTSV, operators._ZGTTRF, operators._ZGTTRS)
    theirs = (*get_lapack_funcs(("ptsv", "gtsv"), dtype=np.float64),
              *get_lapack_funcs(("gttrf", "gttrs"), dtype=np.complex128))
    systems = _tridiagonal_systems(np.random.default_rng([n, nrhs, singular]), n, nrhs, singular)
    got, want = _lapack_outcomes(ours, systems), _lapack_outcomes(theirs, systems)
    for a_out, b_out in zip(got, want):
        if isinstance(b_out, tuple):  # rejected by the wrapper, on both sides alike
            assert n <= 2 and a_out == b_out
            continue
        assert len(a_out) == len(b_out)
        for a, b in zip(a_out, b_out):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(np.ascontiguousarray(a).view(np.uint8),
                                  np.ascontiguousarray(b).view(np.uint8))
    if n > 2:
        infos = [out[-1] for out in got[:3]]  # ptsv, dgtsv, zgttrf
        assert all(infos) if singular else not any(infos)


def test_lapack_loader_names_the_file_it_missed(monkeypatch, tmp_path):
    (tmp_path / "linalg").mkdir()
    spec = importlib.machinery.ModuleSpec("scipy", None, origin=str(tmp_path / "__init__.py"))
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
    with pytest.raises(ImportError) as raised:
        operators._load_flapack()
    assert str(tmp_path / "linalg" / "_flapack") in str(raised.value)
