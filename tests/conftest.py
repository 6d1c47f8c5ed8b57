"""Session-scoped fixtures for the expensive shared objects.

The exactness bundle takes the exact plan for band limit 8,
exact_sizes(8) = (17, 18, 34), so degree-8 inputs are integrated without
discretization error in products of four band-limited factors and squared
pair kernels alike, on the ball route and the literal routes.
"""

import numpy as np
import pytest

from sharpsphere import (
    build_ball_grid,
    build_basis,
    build_sphere_grid,
    default_form_grids,
    exact_sizes,
    lambda_closed_form,
    make_workspace,
)


@pytest.fixture(scope="session")
def grid17():
    return build_sphere_grid(17)


@pytest.fixture(scope="session")
def grid32():
    return build_sphere_grid(32)


@pytest.fixture(scope="session")
def ball_default(grid32):
    return build_ball_grid(48, grid32)


@pytest.fixture(scope="session")
def exact_grids():
    n_t, n_r, n_c = exact_sizes(8)
    return default_form_grids(n_t=n_t, n_c=n_c, n_r=n_r)


@pytest.fixture(scope="session")
def basis16_17(grid17):
    # degree 16 holds |f_sharp|^2 exactly for band limit 8; exactness 33 >= 32
    return build_basis(16, grid17)


@pytest.fixture(scope="session")
def ws8():
    return make_workspace(8)


@pytest.fixture(scope="session")
def lam8():
    return lambda_closed_form(8)


@pytest.fixture(scope="session")
def lam16():
    return lambda_closed_form(16)
