"""Catalog of uniformly strongly log-concave densities.

A density is represented by its potential, the negative log-density up to an
additive constant.  Every potential carries hand-coded gradient and Hessian
evaluators together with spectral bounds ``lambda_lo <= spec(hess) <= lambda_hi``
valid on the declared domain.  Densities stay unnormalized throughout; the
additive constant is fixed so the potential vanishes at its minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "Potential",
    "ModelPair",
    "gaussian_potential",
    "anharmonic_potential",
    "density_value",
    "log_density_mass",
    "standard_gaussian_pair",
    "anharmonic_pair",
]

ArrayLike = np.ndarray


@dataclass(frozen=True)
class Potential:
    """Negative log-density with gradient, Hessian and concavity bounds.

    Evaluators accept points of shape ``(d,)`` or batches ``(N, d)``.
    ``value`` returns a scalar or ``(N,)``, ``grad`` matches the input shape,
    ``hess`` returns ``(d, d)`` or ``(N, d, d)``.

    ``scalar`` is the pair ``(value, grad)`` on Python floats for a 1-d
    potential, ``None`` otherwise.  The factories write each 1-d formula once,
    as an expression valid for a float and an ndarray alike; ``value`` and
    ``grad`` apply that same expression after reshaping their input, so both
    forms agree bit for bit.
    """

    dim: int
    value: Callable[[ArrayLike], ArrayLike]
    grad: Callable[[ArrayLike], ArrayLike]
    hess: Callable[[ArrayLike], ArrayLike]
    lambda_lo: float
    lambda_hi: float
    kind: str = "custom"
    params: dict = field(default_factory=dict)
    scalar: tuple[Callable[[float], float], Callable[[float], float]] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        if self.scalar is not None and self.dim != 1:
            raise ValueError(f"scalar evaluators need a 1-d potential, got dim {self.dim}")
        if not (0.0 < self.lambda_lo <= self.lambda_hi):
            raise ValueError(
                f"need 0 < lambda_lo <= lambda_hi, got ({self.lambda_lo}, {self.lambda_hi})"
            )

    @property
    def is_gaussian(self) -> bool:
        return self.kind == "gaussian"


@dataclass(frozen=True)
class ModelPair:
    """Target/auxiliary potential pair defining one Hamiltonian model.

    ``domain_halfwidth`` is the position-domain truncation: all grid
    computations live on ``[-L, L]^d``.  ``auxiliary_even`` asserts the
    momentum density is invariant under ``p -> -p``, the hypothesis behind
    self-adjointness of the transfer operator.
    """

    target: Potential
    auxiliary: Potential
    domain_halfwidth: float
    auxiliary_even: bool = True

    def __post_init__(self):
        if self.target.dim != self.auxiliary.dim:
            raise ValueError(
                f"dimension mismatch: target {self.target.dim}, auxiliary {self.auxiliary.dim}"
            )
        if not (math.isfinite(self.domain_halfwidth) and self.domain_halfwidth > 0):
            raise ValueError(
                f"domain_halfwidth must be finite and positive, got {self.domain_halfwidth}"
            )
        if self.auxiliary_even:
            probe = np.linspace(0.3, 2.1, 4)[:, None] * np.ones(self.dim)
            asym = np.max(np.abs(self.auxiliary.value(probe) - self.auxiliary.value(-probe)))
            if asym > 1e-12:
                raise ValueError(f"auxiliary marked even but V(p)-V(-p) reaches {asym:.3e}")

    @property
    def dim(self) -> int:
        return self.target.dim

    @property
    def lambda_min(self) -> float:
        """Smallest concavity bound over both potentials."""
        return min(self.target.lambda_lo, self.auxiliary.lambda_lo)

    @property
    def lambda_max(self) -> float:
        """Largest concavity bound over both potentials."""
        return max(self.target.lambda_hi, self.auxiliary.lambda_hi)

    @property
    def is_gaussian(self) -> bool:
        return self.target.is_gaussian and self.auxiliary.is_gaussian

    def auxiliary_log_mass(self) -> float:
        """log of the auxiliary density's total mass, used to normalize it."""
        return log_density_mass(self.auxiliary)


def _as_points(x, dim):
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    if x.shape[-1] != dim:
        raise ValueError(f"expected points with last axis {dim}, got shape {x.shape}")
    return x


def _array_forms(value, grad):
    """Array evaluators of a 1-d potential from its float/ndarray expressions."""
    return (lambda x: value(_as_points(x, 1)[..., 0]), lambda x: grad(_as_points(x, 1)))


def gaussian_potential(mean, precision) -> Potential:
    """Quadratic potential (x-m)' P (x-m) / 2 of a Gaussian density.

    ``mean`` must be finite and ``precision`` finite, symmetric and positive
    definite; a scalar is accepted as the 1-d case.  A ``ValueError`` message
    begins with the name of the argument at fault.  The concavity bounds are
    the extreme eigenvalues of P.
    """
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    precision = np.atleast_2d(np.asarray(precision, dtype=float))
    if not np.all(np.isfinite(mean)):
        raise ValueError(f"mean must be finite, got {mean.tolist()}")
    # checked before the symmetry test, where inf - inf would be NaN
    if not np.all(np.isfinite(precision)):
        raise ValueError(f"precision must be finite, got {precision.tolist()}")
    d = mean.shape[0]
    if precision.shape != (d, d):
        raise ValueError(f"precision shape {precision.shape} incompatible with dim {d}")
    asym = np.max(np.abs(precision - precision.T))
    if asym > 1e-12 * max(1.0, np.max(np.abs(precision))):
        raise ValueError(f"precision not symmetric, max asymmetry {asym:.3e}")
    eigvals = np.linalg.eigvalsh(precision)
    if eigvals[0] <= 0:
        raise ValueError(f"precision not positive definite, smallest eigenvalue {eigvals[0]:.6e}")

    if d == 1:
        m, prec = float(mean[0]), float(precision[0, 0])

        def value_1d(x):
            dx = x - m
            return 0.5 * (dx * prec * dx)

        def grad_1d(x):
            return (x - m) * prec

        scalar = (value_1d, grad_1d)
        value, grad = _array_forms(value_1d, grad_1d)
    else:
        scalar = None

        def value(x):
            x = _as_points(x, d)
            dx = x - mean
            return 0.5 * np.einsum("...i,ij,...j->...", dx, precision, dx)

        def grad(x):
            x = _as_points(x, d)
            return (x - mean) @ precision.T

    def hess(x):
        x = _as_points(x, d)
        if x.ndim == 1:
            return precision.copy()
        return np.broadcast_to(precision, x.shape[:-1] + (d, d)).copy()

    return Potential(
        dim=d,
        value=value,
        grad=grad,
        hess=hess,
        lambda_lo=float(eigvals[0]),
        lambda_hi=float(eigvals[-1]),
        kind="gaussian",
        params={"mean": mean, "precision": precision},
        scalar=scalar,
    )


def anharmonic_potential(a: float, b: float, halfwidth: float) -> Potential:
    """1-d quartic well a x^2/2 + b x^4/4.

    The curvature a + 3 b x^2 is unbounded globally, so the upper concavity
    bound is declared on the truncated domain ``[-halfwidth, halfwidth]`` and
    every grid computation must stay inside it.  A ``ValueError`` message
    begins with the name of the argument at fault.
    """
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"a must be finite and positive, got {a}")
    if not (math.isfinite(b) and b >= 0):
        raise ValueError(f"b must be finite and non-negative, got {b}")
    if not (math.isfinite(halfwidth) and halfwidth > 0):
        raise ValueError(f"halfwidth must be finite and positive, got {halfwidth}")

    def value_1d(x):
        x2 = x * x
        return x2 * (0.5 * a + 0.25 * b * x2)

    def grad_1d(x):
        return x * (a + b * (x * x))

    value, grad = _array_forms(value_1d, grad_1d)

    def hess(x):
        x = _as_points(x, 1)
        return (a + 3.0 * b * (x * x)).reshape(x.shape[:-1] + (1, 1))

    return Potential(
        dim=1,
        value=value,
        grad=grad,
        hess=hess,
        lambda_lo=float(a),
        lambda_hi=float(a + 3.0 * b * halfwidth**2),
        kind="anharmonic",
        params={"a": float(a), "b": float(b), "halfwidth": float(halfwidth)},
        scalar=(value_1d, grad_1d),
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


def log_density_mass(pot: Potential) -> float:
    """log integral of exp(-U).

    Closed form for Gaussian potentials; otherwise (1-d only) a 4097-node
    trapezoid rule over [-a, a] with lambda_lo a^2 / 2 = 45: the lower
    concavity bound exp(-U) <= exp(-lambda_lo x^2 / 2) puts the mass outside
    that box far below 1e-16 of the total.
    """
    if pot.is_gaussian:
        sign, logdet = np.linalg.slogdet(pot.params["precision"])
        return 0.5 * pot.dim * math.log(2.0 * math.pi) - 0.5 * logdet
    if pot.dim != 1:
        raise NotImplementedError("numeric mass only implemented for 1-d potentials")
    halfwidth = math.sqrt(2.0 * 45.0 / pot.lambda_lo)
    x = np.linspace(-halfwidth, halfwidth, 4097)[:, None]
    vals = np.exp(-pot.value(x))
    return math.log(np.sum((x[1, 0] - x[0, 0]) * (vals[1:] + vals[:-1]) / 2.0))


def standard_gaussian_pair(dim: int = 1, halfwidth: float = 8.0) -> ModelPair:
    """Standard Gaussian target and momentum distribution in ``dim`` dimensions."""
    return ModelPair(
        target=gaussian_potential(np.zeros(dim), np.eye(dim)),
        auxiliary=gaussian_potential(np.zeros(dim), np.eye(dim)),
        domain_halfwidth=halfwidth,
        auxiliary_even=True,
    )


def anharmonic_pair(a: float, b: float, halfwidth: float) -> ModelPair:
    """Quartic-well target with a standard Gaussian momentum distribution."""
    return ModelPair(
        target=anharmonic_potential(a, b, halfwidth),
        auxiliary=gaussian_potential(np.zeros(1), np.eye(1)),
        domain_halfwidth=halfwidth,
        auxiliary_even=True,
    )
