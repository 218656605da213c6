import math

import numpy as np
import pytest
from scipy.stats import qmc

from hmctransfer import (
    Potential,
    anharmonic_potential,
    density_value,
    gaussian_potential,
)
from hmctransfer.distributions import kinetic_energy


def catalog():
    pots = [
        ("std_gauss_1d", gaussian_potential(0.0, 1.0, 8.0)),
        ("gauss_offset", gaussian_potential(0.6, 2.5, 6.0)),
        ("anharmonic_soft", anharmonic_potential(1.0, 0.5, 3.5)),
        ("anharmonic_hard", anharmonic_potential(1.0, 1.0, 2.0)),
    ]
    return [pytest.param(name, pot, id=f"{name}-pot{i}-{pot.halfwidth}")
            for i, (name, pot) in enumerate(pots)]


def test_gaussian_centered_standard():
    pot = gaussian_potential(0.0, 1.0, 8.0)
    assert pot.value(0.0) == 0.0
    assert pot.grad(0.0) == 0.0
    assert pot.hess(0.0) == 1.0
    assert pot.lambda_lo == pot.lambda_hi == 1.0


def test_gaussian_scalar_quadratic():
    pot = gaussian_potential(0.0, 4.0, 8.0)
    x = np.array([1.0])
    assert pot.value(x) == pytest.approx(2.0)
    assert pot.grad(x)[0] == pytest.approx(4.0)
    assert pot.lambda_lo == pot.lambda_hi == 4.0


def test_gaussian_offset_diagonal():
    pot = gaussian_potential(1.0, 2.0, 8.0)
    assert pot.value(0.0) == pytest.approx(1.0)
    assert pot.grad(0.0) == pytest.approx(-2.0)


def test_gaussian_rejects_bad_precision():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="^precision must be positive"):
            gaussian_potential(0.0, bad, 8.0)
    # non-finite values are named by argument, the first word the CLI maps to a config field
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^mean must be finite"):
            gaussian_potential(bad, 1.0, 8.0)
        with pytest.raises(ValueError, match="^precision must be finite"):
            gaussian_potential(0.0, bad, 8.0)


def test_gaussian_refuses_non_scalar_arguments():
    # a potential is 1-d by construction: a vector mean or a matrix precision, even
    # of one entry, is refused by the argument's name
    for args, name in [((np.zeros(2), 1.0, 8.0), "mean"), (([0.0], 1.0, 8.0), "mean"),
                       ((0.0, np.eye(2), 8.0), "precision"), ((0.0, np.eye(1), 8.0), "precision")]:
        with pytest.raises(ValueError, match=f"^{name} must be a number"):
            gaussian_potential(*args)


def test_anharmonic_reduces_to_gaussian_when_quartic_off():
    quartic = anharmonic_potential(1.0, 0.0, 4.0)
    gauss = gaussian_potential(0.0, 1.0, 8.0)
    xs = np.linspace(-3.5, 3.5, 17)
    assert quartic.value(xs) == pytest.approx(gauss.value(xs))
    assert quartic.grad(xs) == pytest.approx(gauss.grad(xs))
    assert quartic.hess(xs) == pytest.approx(gauss.hess(xs))
    assert quartic.lambda_lo == quartic.lambda_hi == 1.0


def test_anharmonic_values():
    pot = anharmonic_potential(1.0, 1.0, 2.0)
    assert pot.value(1.0) == pytest.approx(0.75)
    assert pot.hess(1.0) == pytest.approx(4.0)
    assert pot.lambda_hi == pytest.approx(13.0)
    assert pot.grad(0.0) == 0.0
    assert pot.hess(0.0) == pytest.approx(1.0) == pytest.approx(pot.lambda_lo)


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
    gauss = gaussian_potential(0.0, 1.0, 8.0)
    assert density_value(gauss, np.zeros(1)) == pytest.approx(1.0)
    assert density_value(gauss, np.array([1.0])) == pytest.approx(np.exp(-0.5))
    quartic = anharmonic_potential(1.0, 1.0, 2.0)
    assert density_value(quartic, np.array([1.0])) == pytest.approx(np.exp(-0.75))


def test_density_value_rejects_nonfinite():
    gauss = gaussian_potential(0.0, 1.0, 8.0)
    with pytest.raises(ValueError):
        density_value(gauss, np.array([np.nan]))


@pytest.mark.parametrize("name,pot", catalog())
def test_even_potentials_are_even_bit_for_bit(name, pot):
    halfwidth = pot.halfwidth
    # the parity the kernel tabulation uses: U even and U' odd to the bit
    assert pot.is_even == (name != "gauss_offset")
    x = np.random.default_rng(4).uniform(-halfwidth, halfwidth, 1000)
    if pot.is_even:
        assert np.array_equal(pot.value(-x), pot.value(x))
        assert np.array_equal(pot.grad(-x), -pot.grad(x))
    custom = Potential(pot.value, pot.grad, pot.hess, pot.lambda_lo, pot.lambda_hi, halfwidth)
    assert not custom.is_even


@pytest.mark.parametrize("name,pot", catalog())
def test_hessian_spectrum_within_declared_bounds(name, pot):
    halfwidth = pot.halfwidth
    pts = qmc.Halton(d=1, seed=7).random(1000)[:, 0] * 2 * halfwidth - halfwidth
    curvature = pot.hess(pts)
    assert curvature.min() >= pot.lambda_lo * (1 - 1e-9)
    assert curvature.max() <= pot.lambda_hi * (1 + 1e-9)


@pytest.mark.parametrize("name,pot", catalog())
def test_gradient_matches_finite_differences(name, pot):
    halfwidth = pot.halfwidth
    rng = np.random.default_rng(3)
    step = 1e-5
    for _ in range(25):
        x = rng.uniform(-0.8 * halfwidth, 0.8 * halfwidth)
        grad = pot.grad(x)
        fd = (pot.value(x + step) - pot.value(x - step)) / (2 * step)
        assert abs(fd - grad) < 1e-6 * max(1.0, abs(grad))


@pytest.mark.parametrize("name,pot", catalog())
def test_hessian_matches_finite_differences(name, pot):
    halfwidth = pot.halfwidth
    rng = np.random.default_rng(4)
    step = 1e-5
    for _ in range(10):
        x = rng.uniform(-0.8 * halfwidth, 0.8 * halfwidth)
        hess = pot.hess(x)
        fd = (pot.grad(x + step) - pot.grad(x - step)) / (2 * step)
        assert abs(fd - hess) < 1e-4 * max(1.0, abs(hess))


@pytest.mark.parametrize("name,pot", catalog())
def test_log_concavity_along_segments(name, pot):
    halfwidth = pot.halfwidth
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.uniform(-halfwidth, halfwidth)
        y = rng.uniform(-halfwidth, halfwidth)
        mid = pot.value(0.5 * (x + y))
        assert mid <= 0.5 * pot.value(x) + 0.5 * pot.value(y) + 1e-12


@pytest.mark.parametrize("halfwidth", [np.nan, np.inf, 0.0, -1.0])
def test_model_pair_rejects_a_bad_halfwidth(halfwidth):
    # the box is checked once, by Potential, so both factories and a hand-built
    # potential refuse it by the argument's name
    pot = gaussian_potential(0.0, 1.0, 8.0)
    for build in (lambda: gaussian_potential(0.0, 1.0, halfwidth),
                  lambda: anharmonic_potential(1.0, 0.5, halfwidth),
                  lambda: Potential(pot.value, pot.grad, pot.hess, 1.0, 1.0, halfwidth)):
        with pytest.raises(ValueError, match="^halfwidth must be finite and positive"):
            build()


def test_model_pair_bounds_cover_both_potentials():
    # the curvature bounds of H's Hessian diag(U'', 1), the 1 of the N(0, 1) momentum law
    for model, bounds in [(gaussian_potential(0.0, 0.25, 8.0), (0.25, 1.0)),
                          (gaussian_potential(0.0, 1.0, 8.0), (1.0, 1.0)),
                          (gaussian_potential(0.0, 4.0, 8.0), (1.0, 4.0)),
                          (anharmonic_potential(2.0, 0.5, 3.0), (1.0, 15.5)),
                          (anharmonic_potential(1, 0.5, 5.0), (1.0, 38.5))]:
        assert (model.lambda_min, model.lambda_max) == bounds
        assert model.dim == 1
    assert not model.is_gaussian
    assert gaussian_potential(0.0, 1.0, 8.0).is_gaussian


def test_kinetic_energy_is_the_standard_gaussian_potential_bit_for_bit():
    # the momentum potential the flow, the chain and the kernel share is the
    # N(0, 1) potential, signed zeros and underflow included
    standard = gaussian_potential(0.0, 1.0, 8.0).value
    ps = np.array([0.0, -0.0, 1e-300, -1e-300, 0.7, -0.7, 1e3, -1e3])
    assert np.array_equal(kinetic_energy(ps), standard(ps))
    assert np.array_equal(np.signbit(kinetic_energy(ps)), np.signbit(standard(ps)))
    for p in ps.tolist():
        energy, expected = kinetic_energy(p), standard(p)
        assert isinstance(energy, float)
        assert energy == expected and math.copysign(1.0, energy) == math.copysign(1.0, expected)


@pytest.mark.parametrize("pot", [
    gaussian_potential(0.6, 2.5, 6.0),
    anharmonic_potential(1.0, 0.5, 3.5),
], ids=["gauss-1d", "anharmonic"])
def test_scalar_evaluators_match_array_forms(pot):
    # each evaluator is one elementwise expression: a call on a Python float gives
    # the bits of the same entry of a call on an (N,) array, and any shape maps
    # to itself
    xs = np.random.default_rng(4).uniform(-4.0, 4.0, 1000)
    for evaluate in (pot.value, pot.grad, pot.hess):
        batch = evaluate(xs)
        assert batch.shape == xs.shape
        singles = [evaluate(x) for x in xs.tolist()]
        assert all(isinstance(v, float) for v in singles)
        assert np.array_equal(np.array(singles), batch)
        assert np.array_equal(evaluate(xs.reshape(20, 50)), batch.reshape(20, 50))


def test_anharmonic_hess_is_the_curvature_bit_for_bit():
    a, b = 1.0, 0.5
    pot = anharmonic_potential(a, b, 3.5)
    xs = np.random.default_rng(4).uniform(-4.0, 4.0, 1000)
    expected = a + 3.0 * b * (xs * xs)
    # the square is exact either way: x * x and x ** 2 round alike
    assert np.array_equal(expected, a + 3.0 * b * xs**2)
    assert np.array_equal(pot.hess(xs), expected)
