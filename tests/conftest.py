"""Shared fixtures: the two reference models with assembled operators.

The Gaussian pair at t = 0.7 on [-8, 8] with n = 401 nodes and m = 257
momentum nodes is the closed-form oracle configuration; the quartic well
(a = 1, b = 0.5) on [-3.5, 3.5] at t = 0.08 keeps t * lambda_max inside the
invertibility regime with negligible domain truncation.
"""

import numpy as np
import pytest

from hmctransfer import (
    anharmonic_pair,
    assemble_adjoint,
    assemble_transfer,
    build_grid,
    default_flow_spec,
    eigen_spectrum,
    iterate,
    standard_gaussian_pair,
)


@pytest.fixture(scope="session")
def gauss_model():
    return standard_gaussian_pair(dim=1, halfwidth=8.0)


@pytest.fixture(scope="session")
def gauss_grid(gauss_model):
    return build_grid(gauss_model, 401)


@pytest.fixture(scope="session")
def gauss_spec(gauss_model):
    return default_flow_spec(gauss_model, 0.7)


@pytest.fixture(scope="session")
def gauss_T(gauss_grid, gauss_model, gauss_spec):
    return assemble_transfer(gauss_grid, gauss_model, gauss_spec, 257)


@pytest.fixture(scope="session")
def gauss_Tadj(gauss_grid, gauss_model, gauss_spec):
    return assemble_adjoint(gauss_grid, gauss_model, gauss_spec, 257)


@pytest.fixture(scope="session")
def gauss_kernel(gauss_grid, gauss_model, gauss_spec):
    # the Nystrom matrix of the kernel tabulated on 1025 probes, as kernel-norm builds it
    return assemble_transfer(gauss_grid, gauss_model, gauss_spec, 1025)


@pytest.fixture(scope="session")
def gauss_report(gauss_T, gauss_grid):
    return eigen_spectrum(gauss_T, gauss_grid, k=64)


@pytest.fixture(scope="session")
def anh_model():
    return anharmonic_pair(1.0, 0.5, halfwidth=3.5)


@pytest.fixture(scope="session")
def anh_grid(anh_model):
    return build_grid(anh_model, 401)


@pytest.fixture(scope="session")
def anh_spec(anh_model):
    return default_flow_spec(anh_model, 0.08)


@pytest.fixture(scope="session")
def anh_T(anh_grid, anh_model, anh_spec):
    return assemble_transfer(anh_grid, anh_model, anh_spec, 257)


@pytest.fixture(scope="session")
def anh_report(anh_T, anh_grid):
    return eigen_spectrum(anh_T, anh_grid, k=16)


@pytest.fixture(scope="session")
def anh_trace(anh_T, anh_grid):
    q = anh_grid.nodes[:, 0]
    bump = np.exp(-0.5 * (q - 0.8) ** 2 / 0.16)
    return iterate(anh_T, bump, n_max=12000, tol=1e-7)
