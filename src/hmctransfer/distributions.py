"""Catalog of uniformly strongly log-concave 1-d models.

A model is its potential, the negative log-density up to an additive
constant, on a position box [-L, L].  Every potential carries hand-coded
gradient and curvature evaluators together with the bounds
``lambda_lo <= hess <= lambda_hi`` valid on its box.  Densities stay
unnormalized throughout; the additive constant is fixed so the potential
vanishes at its minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Potential",
    "gaussian_potential",
    "anharmonic_potential",
    "density_value",
    "kinetic_energy",
]

ArrayLike = np.ndarray


@dataclass(frozen=True)
class Potential:
    """One Hamiltonian model: the target potential U on the box [-halfwidth, halfwidth].

    ``value``, ``grad`` and ``hess`` are each one elementwise expression: they
    take a Python float or an ndarray of any shape and return the same kind of
    object, a float or an array of that shape, so a float call gives the bits
    of the matching entry of an array call.  ``hess`` returns the curvature
    U''(x), which ``lambda_lo <= U'' <= lambda_hi`` bounds on the box; every
    grid computation lives on it.

    The Hamiltonian is H(q, p) = U(q) + ``kinetic_energy(p)``: the momentum
    law is N(0, 1), the law the chain refreshes momenta from.  Its evenness
    makes the transfer operator self-adjoint.  A momentum law N(0, 1/v) only
    sets the unit of time, T(v, t) = T(1, sqrt(v) t): to model precision v,
    run this model at flow time sqrt(v) t.
    """

    value: Callable[[ArrayLike], ArrayLike]
    grad: Callable[[ArrayLike], ArrayLike]
    hess: Callable[[ArrayLike], ArrayLike]
    lambda_lo: float
    lambda_hi: float
    halfwidth: float
    kind: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.halfwidth) and self.halfwidth > 0):
            raise ValueError(f"halfwidth must be finite and positive, got {self.halfwidth}")
        if not (0.0 < self.lambda_lo <= self.lambda_hi):
            raise ValueError(
                f"need 0 < lambda_lo <= lambda_hi, got ({self.lambda_lo}, {self.lambda_hi})"
            )

    @property
    def dim(self) -> int:
        """The dimension, always 1 (``bench/tracer.py`` reads it)."""
        return 1

    @property
    def lambda_min(self) -> float:
        """Smallest curvature bound of H's Hessian diag(U'', 1)."""
        return min(self.lambda_lo, 1.0)

    @property
    def lambda_max(self) -> float:
        """Largest curvature bound of H's Hessian diag(U'', 1)."""
        return max(self.lambda_hi, 1.0)

    @property
    def is_gaussian(self) -> bool:
        return self.kind == "gaussian"

    @property
    def is_even(self) -> bool:
        """U(-x) = U(x) and U'(-x) = -U'(x) bit for bit, IEEE negation being exact:
        the quartic well, and the Gaussian of mean 0.0.  A ``custom`` potential is
        never taken to be even, whatever its functions compute."""
        return self.kind == "anharmonic" or (self.is_gaussian and self.params["mean"] == 0.0)


def kinetic_energy(p):
    """The momentum potential p^2 / 2 of the N(0, 1) momentum law, elementwise on a
    float or an array: bit for bit ``gaussian_potential(0.0, 1.0, L).value(p)``."""
    return 0.5 * (p * p)


def gaussian_potential(mean: float, precision: float, halfwidth: float) -> Potential:
    """Quadratic potential (x - m) P (x - m) / 2 of a 1-d Gaussian density.

    ``mean`` must be a finite number and ``precision`` a finite positive one.
    A ``ValueError`` message begins with the name of the argument at fault.
    Both concavity bounds are P.
    """
    for name, arg in (("mean", mean), ("precision", precision)):
        if np.ndim(arg) != 0:
            raise ValueError(f"{name} must be a number, got an array of shape {np.shape(arg)}")
    m, prec = float(mean), float(precision)
    if not math.isfinite(m):
        raise ValueError(f"mean must be finite, got {m}")
    if not math.isfinite(prec):
        raise ValueError(f"precision must be finite, got {prec}")
    if prec <= 0:
        raise ValueError(f"precision must be positive, got {prec}")

    def value(x):
        dx = x - m
        return 0.5 * (dx * prec * dx)

    def grad(x):
        return (x - m) * prec

    def hess(x):
        return prec * np.ones_like(x)

    return Potential(
        value=value,
        grad=grad,
        hess=hess,
        lambda_lo=prec,
        lambda_hi=prec,
        halfwidth=float(halfwidth),
        kind="gaussian",
        params={"mean": m, "precision": prec},
    )


def anharmonic_potential(a: float, b: float, halfwidth: float) -> Potential:
    """1-d quartic well a x^2/2 + b x^4/4.

    The curvature a + 3 b x^2 is unbounded globally, so the upper concavity
    bound is declared on the box ``[-halfwidth, halfwidth]``.  A ``ValueError``
    message begins with the name of the argument at fault.
    """
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"a must be finite and positive, got {a}")
    if not (math.isfinite(b) and b >= 0):
        raise ValueError(f"b must be finite and non-negative, got {b}")

    def value(x):
        x2 = x * x
        return x2 * (0.5 * a + 0.25 * b * x2)

    def grad(x):
        return x * (a + b * (x * x))

    def hess(x):
        return a + 3.0 * b * (x * x)

    return Potential(
        value=value,
        grad=grad,
        hess=hess,
        lambda_lo=float(a),
        lambda_hi=float(a + 3.0 * b * halfwidth**2),
        halfwidth=float(halfwidth),
        kind="anharmonic",
        params={"a": float(a), "b": float(b), "halfwidth": float(halfwidth)},
    )


def density_value(pot: Potential, x) -> ArrayLike:
    """Unnormalized density exp(-U(x)).

    Underflows to zero for very large potential values; that is accepted
    behaviour on truncated domains.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("density_value requires finite input points")
    return np.exp(-pot.value(x))
