import numpy as np
import pytest

from hardywaves import Params, build_grid, normalized_gradient_flow


@pytest.fixture(scope="session")
def grid2k():
    return build_grid(2048, 1e-6, 50.0)


@pytest.fixture(scope="session")
def grid8k():
    return build_grid(8192, 1e-6, 50.0)


@pytest.fixture(scope="session")
def params33():
    return Params(N=3, q=3.0, gamma=1.0)


@pytest.fixture(scope="session")
def wave2k(params33, grid2k):
    """Standing wave at (N=3, q=3, gamma=1) on the 2048-node default-range grid."""
    return normalized_gradient_flow(params33, grid2k, tol=1e-7)


@pytest.fixture(scope="session")
def wave8k(params33, grid8k):
    """Standing wave at (N=3, q=3, gamma=1) on the 8192-node default grid.

    The float64 residual floor on this grid sits near 8e-7, so the wave is
    solved just above it.
    """
    return normalized_gradient_flow(params33, grid8k, tol=2e-6)


def gaussian_field(grid):
    from hardywaves import Field

    return Field(values=np.exp(-grid.nodes**2 / 2.0), grid=grid)
