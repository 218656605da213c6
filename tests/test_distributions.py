import dataclasses

import numpy as np
import pytest
from scipy.stats import qmc

from hmctransfer import (
    ModelPair,
    anharmonic_pair,
    anharmonic_potential,
    density_value,
    gaussian_potential,
    standard_gaussian_pair,
)
from hmctransfer.distributions import log_density_mass


def catalog():
    corr = np.array([[2.0, 0.5], [0.5, 1.0]])
    return [
        ("std_gauss_1d", gaussian_potential(0.0, 1.0), 8.0),
        ("gauss_2d", gaussian_potential(np.zeros(2), corr), 6.0),
        ("anharmonic_soft", anharmonic_potential(1.0, 0.5, 3.5), 3.5),
        ("anharmonic_hard", anharmonic_potential(1.0, 1.0, 2.0), 2.0),
    ]


def test_gaussian_centered_standard():
    pot = gaussian_potential(0.0, 1.0)
    x = np.zeros(1)
    assert pot.value(x) == 0.0
    assert pot.grad(x) == pytest.approx(0.0)
    assert pot.hess(x) == pytest.approx(np.eye(1))
    assert pot.lambda_lo == pot.lambda_hi == 1.0


def test_gaussian_scalar_quadratic():
    pot = gaussian_potential(0.0, 4.0)
    x = np.array([1.0])
    assert pot.value(x) == pytest.approx(2.0)
    assert pot.grad(x)[0] == pytest.approx(4.0)
    assert pot.lambda_lo == pot.lambda_hi == 4.0


def test_gaussian_offset_diagonal():
    pot = gaussian_potential(np.array([1.0, 0.0]), np.diag([1.0, 2.0]))
    x = np.zeros(2)
    assert pot.value(x) == pytest.approx(0.5)
    assert pot.grad(x) == pytest.approx(np.array([-1.0, 0.0]))


def test_gaussian_rejects_bad_precision():
    with pytest.raises(ValueError, match="positive definite"):
        gaussian_potential(np.zeros(2), np.diag([1.0, -1.0]))
    with pytest.raises(ValueError, match="symmetric"):
        gaussian_potential(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
    # non-finite values are named by argument, the first word the CLI maps to a config field
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^mean must be finite"):
            gaussian_potential(bad, 1.0)
        with pytest.raises(ValueError, match="^precision must be finite"):
            gaussian_potential(np.zeros(2), np.array([[1.0, bad], [bad, 1.0]]))


def test_anharmonic_reduces_to_gaussian_when_quartic_off():
    quartic = anharmonic_potential(1.0, 0.0, 4.0)
    gauss = gaussian_potential(0.0, 1.0)
    xs = np.linspace(-3.5, 3.5, 17)[:, None]
    assert quartic.value(xs) == pytest.approx(gauss.value(xs))
    assert quartic.grad(xs) == pytest.approx(gauss.grad(xs))
    assert quartic.hess(xs) == pytest.approx(gauss.hess(xs))
    assert quartic.lambda_lo == quartic.lambda_hi == 1.0


def test_anharmonic_values():
    pot = anharmonic_potential(1.0, 1.0, 2.0)
    x = np.array([1.0])
    assert pot.value(x) == pytest.approx(0.75)
    assert pot.hess(x)[0, 0] == pytest.approx(4.0)
    assert pot.lambda_hi == pytest.approx(13.0)
    origin = np.array([0.0])
    assert pot.grad(origin)[0] == 0.0
    assert pot.hess(origin)[0, 0] == pytest.approx(1.0) == pytest.approx(pot.lambda_lo)


def test_anharmonic_rejects_bad_parameters():
    with pytest.raises(ValueError):
        anharmonic_potential(0.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        anharmonic_potential(1.0, -0.1, 2.0)
    with pytest.raises(ValueError):
        anharmonic_potential(1.0, 1.0, 0.0)
    for bad in (np.nan, np.inf, -np.inf):
        for name, args in [("a", (bad, 1.0, 2.0)), ("b", (1.0, bad, 2.0)),
                           ("halfwidth", (1.0, 1.0, bad))]:
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                anharmonic_potential(*args)


def test_density_values():
    gauss = gaussian_potential(0.0, 1.0)
    assert density_value(gauss, np.zeros(1)) == pytest.approx(1.0)
    assert density_value(gauss, np.array([1.0])) == pytest.approx(np.exp(-0.5))
    quartic = anharmonic_potential(1.0, 1.0, 2.0)
    assert density_value(quartic, np.array([1.0])) == pytest.approx(np.exp(-0.75))


def test_density_value_rejects_nonfinite():
    gauss = gaussian_potential(0.0, 1.0)
    with pytest.raises(ValueError):
        density_value(gauss, np.array([np.nan]))


@pytest.mark.parametrize("name,pot,halfwidth", catalog())
def test_hessian_spectrum_within_declared_bounds(name, pot, halfwidth):
    pts = qmc.Halton(d=pot.dim, seed=7).random(1000) * 2 * halfwidth - halfwidth
    hess = pot.hess(pts)
    assert np.max(np.abs(hess - np.swapaxes(hess, -1, -2))) < 1e-12
    eigs = np.linalg.eigvalsh(hess)
    assert eigs.min() >= pot.lambda_lo * (1 - 1e-9)
    assert eigs.max() <= pot.lambda_hi * (1 + 1e-9)


@pytest.mark.parametrize("name,pot,halfwidth", catalog())
def test_gradient_matches_finite_differences(name, pot, halfwidth):
    rng = np.random.default_rng(3)
    step = 1e-5
    for _ in range(25):
        x = rng.uniform(-0.8 * halfwidth, 0.8 * halfwidth, size=pot.dim)
        grad = pot.grad(x)
        fd = np.zeros(pot.dim)
        for axis in range(pot.dim):
            e = np.zeros(pot.dim)
            e[axis] = step
            fd[axis] = (pot.value(x + e) - pot.value(x - e)) / (2 * step)
        assert np.max(np.abs(fd - grad)) < 1e-6 * max(1.0, np.max(np.abs(grad)))


@pytest.mark.parametrize("name,pot,halfwidth", catalog())
def test_hessian_matches_finite_differences(name, pot, halfwidth):
    rng = np.random.default_rng(4)
    step = 1e-5
    for _ in range(10):
        x = rng.uniform(-0.8 * halfwidth, 0.8 * halfwidth, size=pot.dim)
        hess = pot.hess(x)
        fd = np.zeros((pot.dim, pot.dim))
        for axis in range(pot.dim):
            e = np.zeros(pot.dim)
            e[axis] = step
            fd[:, axis] = (pot.grad(x + e) - pot.grad(x - e)) / (2 * step)
        assert np.max(np.abs(fd - hess)) < 1e-4 * max(1.0, np.max(np.abs(hess)))


@pytest.mark.parametrize("name,pot,halfwidth", catalog())
def test_log_concavity_along_segments(name, pot, halfwidth):
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.uniform(-halfwidth, halfwidth, size=pot.dim)
        y = rng.uniform(-halfwidth, halfwidth, size=pot.dim)
        mid = pot.value(0.5 * (x + y))
        assert mid <= 0.5 * pot.value(x) + 0.5 * pot.value(y) + 1e-12


def test_model_pair_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        ModelPair(
            target=gaussian_potential(np.zeros(2), np.eye(2)),
            auxiliary=gaussian_potential(0.0, 1.0),
            domain_halfwidth=4.0,
        )


def test_model_pair_rejects_false_evenness_claim():
    with pytest.raises(ValueError, match="even"):
        ModelPair(
            target=gaussian_potential(0.0, 1.0),
            auxiliary=gaussian_potential(1.0, 1.0),
            domain_halfwidth=4.0,
            auxiliary_even=True,
        )


@pytest.mark.parametrize("halfwidth", [np.nan, np.inf, 0.0, -1.0])
def test_model_pair_rejects_a_bad_halfwidth(halfwidth):
    with pytest.raises(ValueError, match="domain_halfwidth must be finite and positive"):
        ModelPair(
            target=gaussian_potential(0.0, 1.0),
            auxiliary=gaussian_potential(0.0, 1.0),
            domain_halfwidth=halfwidth,
        )


def test_model_pair_bounds_cover_both_potentials():
    model = anharmonic_pair(2.0, 0.5, 3.0)
    assert model.lambda_min == 1.0  # auxiliary standard normal
    assert model.lambda_max == pytest.approx(2.0 + 1.5 * 9.0)
    assert not model.is_gaussian
    assert standard_gaussian_pair().is_gaussian


def test_auxiliary_mass_gaussian_closed_form():
    model = standard_gaussian_pair()
    assert model.auxiliary_log_mass() == pytest.approx(0.5 * np.log(2 * np.pi))
    scaled = gaussian_potential(0.0, 4.0)
    assert log_density_mass(scaled) == pytest.approx(0.5 * np.log(2 * np.pi / 4.0))


def test_numeric_mass_matches_closed_form():
    # quartic with b = 0 integrates like the Gaussian it reduces to
    pot = anharmonic_potential(1.0, 0.0, 6.0)
    assert log_density_mass(pot) == pytest.approx(0.5 * np.log(2 * np.pi), abs=1e-10)


@pytest.mark.parametrize("pot", [
    gaussian_potential(0.6, 2.5),
    anharmonic_potential(1.0, 0.5, 3.5),
], ids=["gauss-1d", "anharmonic"])
def test_scalar_evaluators_match_array_forms(pot):
    value_1d, grad_1d = pot.scalar
    xs = np.random.default_rng(4).uniform(-4.0, 4.0, 1000)
    grads = np.array([grad_1d(float(x)) for x in xs])
    values = np.array([value_1d(float(x)) for x in xs])
    assert type(grad_1d(0.3)) is float and type(value_1d(0.3)) is float
    assert np.array_equal(grads, pot.grad(xs[:, None])[:, 0])
    array_values = pot.value(xs[:, None])
    assert np.all(np.abs(values - array_values) <= np.spacing(np.abs(array_values)))


def test_anharmonic_hess_is_the_curvature_bit_for_bit():
    a, b = 1.0, 0.5
    pot = anharmonic_potential(a, b, 3.5)
    xs = np.random.default_rng(4).uniform(-4.0, 4.0, 1000)
    expected = a + 3.0 * b * (xs * xs)
    # the square is exact either way: x * x and x ** 2 round alike
    assert np.array_equal(expected, a + 3.0 * b * xs**2)
    batch = pot.hess(xs[:, None])
    assert batch.shape == (1000, 1, 1)
    assert np.array_equal(batch[:, 0, 0], expected)
    singles = [pot.hess(np.array([x])) for x in xs]
    assert all(h.shape == (1, 1) for h in singles)
    assert np.array_equal(np.array(singles)[:, 0, 0], expected)


def test_scalar_evaluators_are_one_dimensional_only():
    assert gaussian_potential(np.zeros(2), np.eye(2)).scalar is None
    pot = gaussian_potential(0.0, 1.0)
    with pytest.raises(ValueError, match="1-d"):
        dataclasses.replace(pot, dim=2)
