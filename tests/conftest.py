"""Shared fixtures: the two reference models with assembled operators.

The Gaussian pair at t = 0.7 on [-8, 8] with n = 401 nodes and m = 257
momentum nodes is the closed-form oracle configuration; the quartic well
(a = 1, b = 0.5) on [-3.5, 3.5] at t = 0.08 keeps t * lambda_max inside the
invertibility regime with negligible domain truncation.  ``random_density``
draws the smooth random densities that the tests feed the operator, and
``spectrum_vectors`` reads the two vectors ``eigen_spectrum`` computes.
"""

import numpy as np
import pytest

from hmctransfer import (
    DensityGrid,
    FlowSpec,
    anharmonic_pair,
    assemble_transfer,
    build_grid,
    default_flow_spec,
    eigen_spectrum,
    gaussian_potential,
    iterate,
    standard_gaussian_pair,
)
from hmctransfer import kernel_spectral
from hmctransfer.distributions import ModelPair
from hmctransfer.dynamics import flow_batch
from hmctransfer.operator import weighted_inner


@pytest.fixture(scope="session")
def gauss_model():
    return standard_gaussian_pair(halfwidth=8.0)


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
def gauss_kernel(gauss_grid, gauss_model, gauss_spec):
    # the Nystrom matrix of the kernel tabulated on 1025 probes, as kernel-norm builds it
    return assemble_transfer(gauss_grid, gauss_model, gauss_spec, 1025)


@pytest.fixture(scope="session")
def gauss_report(gauss_T):
    return eigen_spectrum(gauss_T, k=64)


@pytest.fixture(scope="session")
def gauss_T_400(gauss_model, gauss_spec):
    # the centred Gaussian on an even number of nodes, so no middle node
    return assemble_transfer(build_grid(gauss_model, 400), gauss_model, gauss_spec, 257)


@pytest.fixture(scope="session")
def offset_T():
    # the Gaussian of mean 0.6, not even, so T is not its own mirror image;
    # momentum precision 1.7 at t = 0.6 is the unit law at t = sqrt(1.7) 0.6
    model = ModelPair(gaussian_potential(0.6, 2.5), 6.0)
    spec = FlowSpec(time=np.sqrt(1.7) * 0.6, method="exact_gaussian")
    return assemble_transfer(build_grid(model, 201), model, spec, 257)


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
def anh_report(anh_T):
    return eigen_spectrum(anh_T, k=16)


@pytest.fixture(scope="session")
def anh_trace(anh_T, anh_grid):
    q = anh_grid.x
    bump = np.exp(-0.5 * (q - 0.8) ** 2 / 0.16)
    return iterate(anh_T, bump, n_max=12000, tol=1e-7)


@pytest.fixture(scope="session")
def flip_roundtrip():
    """error(model, spec, q, p): the largest distance of H(tau H(q, p)) from tau (q, p),
    tau the momentum flip, over the states (q, p).  A time-reversible flow with the even
    N(0, 1) momentum law makes it zero up to roundoff, and that makes T its own adjoint."""
    def error(model, spec, q, p):
        Q, P = flow_batch(q, p, model, spec)
        back_q, back_p = flow_batch(Q, -P, model, spec)
        return float(max(np.max(np.abs(back_q - q)), np.max(np.abs(back_p + p))))
    return error


@pytest.fixture
def spectrum_vectors(monkeypatch):
    """run(T, k) -> (report, lead, second): ``eigen_spectrum(T, k)`` with its
    leading and second vectors on the whole grid, the second read as it is
    weighed against f for ``second_mass``."""
    seen = []

    def spy(a, b, grid):
        seen.append(a)
        return weighted_inner(a, b, grid)

    monkeypatch.setattr(kernel_spectral, "weighted_inner", spy)

    def run(T, k):
        seen.clear()
        report = eigen_spectrum(T, k)
        assert len(seen) == 2
        return report, report.leading_vector, seen[1]
    return run


def random_density(grid: DensityGrid, rng: np.random.Generator):
    """Smooth random density: a mixture of 3 to 6 Gaussians well inside the box.

    The number of components is drawn from ``rng`` first.  With L the
    target's half-width ``grid.halfwidth``, centers are uniform in
    [-L/4, L/4] and widths uniform in [L/16, 9L/80] (11.6 to 22.5 grid cells
    at n = 401 on the Gaussian and quartic fixtures), so every center lies at
    least 6.6 widths inside [-L, L].  The density is positive, so
    its image under the nonnegative Nystrom matrix is too.
    """
    L = grid.halfwidth
    components = int(rng.integers(3, 7))
    centers = rng.uniform(-0.25 * L, 0.25 * L, size=components)
    sigmas = rng.uniform(0.0625 * L, 0.1125 * L, size=components)
    weights = rng.uniform(0.2, 1.0, size=components)
    vals = np.zeros(grid.n)
    for c, s, w in zip(centers, sigmas, weights):
        vals += w * np.exp(-0.5 * (grid.x - c) ** 2 / s**2)
    return vals
