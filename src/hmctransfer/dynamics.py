"""Hamiltonian flow H_t : (q, p) -> (Q, P) and its inverse.

Two backends: a closed-form map for Gaussian pairs (the linear Hamiltonian
system solved exactly through a matrix exponential) and velocity-Verlet
leapfrog for everything else.  Leapfrog is symplectic and time-reversible, so
the invariance properties the operator theory needs hold exactly for the
discrete map, not just approximately.  No Metropolis correction is applied
anywhere; integration error is measured by the tests instead of hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import ModelPair

__all__ = [
    "PhaseState",
    "FlowSpec",
    "default_flow_spec",
    "total_energy",
    "flow",
    "inverse_flow",
    "flow_batch",
    "momentum_flip_conjugacy_residual",
]


@dataclass(frozen=True)
class PhaseState:
    """A point (q, p) in position-momentum space."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q, dtype=float))
        p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if q.shape != p.shape or q.ndim != 1:
            raise ValueError(f"q and p must be 1-d arrays of equal length, got {q.shape}, {p.shape}")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise ValueError("phase-space coordinates must be finite")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def dim(self) -> int:
        return self.q.shape[0]


@dataclass(frozen=True)
class FlowSpec:
    """Integration time, substep count and backend for one flow map."""

    time: float
    steps: int = 1
    method: str = "leapfrog"

    def __post_init__(self):
        if self.time <= 0:
            raise ValueError(f"flow time must be positive, got {self.time}")
        if self.steps < 1:
            raise ValueError(f"substep count must be positive, got {self.steps}")
        if self.method not in ("exact_gaussian", "leapfrog"):
            raise ValueError(f"unknown flow method {self.method!r}")


def default_flow_spec(model: ModelPair, time: float, method: str | None = None) -> FlowSpec:
    """Pick the backend and a stable substep count for the model.

    Gaussian pairs get the exact map.  Leapfrog substeps obey
    t/steps <= 0.01 * min(1, 1/sqrt(lambda_max)), a hundredth of the fastest
    harmonic period scale.
    """
    if method is None:
        method = "exact_gaussian" if model.is_gaussian else "leapfrog"
    if method == "exact_gaussian":
        return FlowSpec(time=time, steps=1, method=method)
    h_max = 0.01 * min(1.0, 1.0 / math.sqrt(model.lambda_max))
    return FlowSpec(time=time, steps=max(1, math.ceil(time / h_max)), method="leapfrog")


def total_energy(state: PhaseState, model: ModelPair) -> float:
    """Hamiltonian U(q) + V(p)."""
    return float(model.target.value(state.q) + model.auxiliary.value(state.p))


def exact_gaussian_matrix(model: ModelPair, time: float) -> np.ndarray:
    """2d x 2d propagator of the linear Hamiltonian system for Gaussian pairs.

    With target precision A and auxiliary precision B the system is
    (Q-mu, P)' = [[0, B], [-A, 0]] (Q-mu, P); the matrix exponential solves it.
    """
    if not model.is_gaussian:
        raise ValueError("exact flow requested for a non-Gaussian model")
    # imported here: scipy.linalg takes longer to import than the package itself,
    # and leapfrog runs never need it
    from scipy.linalg import expm

    aux_mean = model.auxiliary.params["mean"]
    if np.any(aux_mean != 0.0):
        raise ValueError("exact flow assumes a centered auxiliary Gaussian")
    d = model.dim
    gen = np.zeros((2 * d, 2 * d))
    gen[:d, d:] = model.auxiliary.params["precision"]
    gen[d:, :d] = -model.target.params["precision"]
    return expm(time * gen)


def _leapfrog(q, p, grad_u, grad_v, tau: float, steps: int):
    """Velocity-Verlet (kick-drift-kick): ``steps`` steps of size ``tau``.

    Plain arithmetic on whatever q and p are: batched arrays (..., d) with the
    array gradients (``flow_batch``), or Python floats with the scalar
    gradients of a 1-d pair (the HMC chain), so both run the same integrator.
    """
    # the closing kick's gradient opens the next step
    gq = grad_u(q)
    for _ in range(steps):
        p = p - 0.5 * tau * gq
        q = q + tau * grad_v(p)
        gq = grad_u(q)
        p = p - 0.5 * tau * gq
    return q, p


def flow_batch(qs, ps, model: ModelPair, spec: FlowSpec, inverse: bool = False):
    """Map many phase points at once; shapes (..., d) -> (..., d)."""
    qs = np.asarray(qs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    if spec.method == "exact_gaussian":
        mat = exact_gaussian_matrix(model, -spec.time if inverse else spec.time)
        d = model.dim
        mu = model.target.params["mean"]
        dq = qs - mu
        Q = dq @ mat[:d, :d].T + ps @ mat[:d, d:].T + mu
        P = dq @ mat[d:, :d].T + ps @ mat[d:, d:].T
        return Q, P
    # reversing the time step inverts kick-drift-kick exactly, so
    # inverse(flow(s)) == s up to roundoff
    time = -spec.time if inverse else spec.time
    return _leapfrog(qs, ps, model.target.grad, model.auxiliary.grad, time / spec.steps, spec.steps)


def flow(state: PhaseState, model: ModelPair, spec: FlowSpec) -> PhaseState:
    """One application of the Hamiltonian map H_t."""
    Q, P = flow_batch(state.q, state.p, model, spec)
    return PhaseState(q=Q, p=P)


def inverse_flow(state: PhaseState, model: ModelPair, spec: FlowSpec) -> PhaseState:
    """The inverse map H_t^{-1}, realized by time reversal of the same backend."""
    Q, P = flow_batch(state.q, state.p, model, spec, inverse=True)
    return PhaseState(q=Q, p=P)


def momentum_flip_conjugacy_residual(model: ModelPair, spec: FlowSpec, states) -> float:
    """Max deviation of tau . H^{-1} . tau from H over the given states.

    tau flips the momentum sign.  A zero residual certifies the conjugacy that
    makes the transfer operator self-adjoint for even auxiliary densities.
    """
    if not model.auxiliary_even:
        raise ValueError("momentum-flip conjugacy requires an even auxiliary density")
    worst = 0.0
    for s in states:
        fwd = flow(s, model, spec)
        back = inverse_flow(PhaseState(q=s.q, p=-s.p), model, spec)
        flipped = PhaseState(q=back.q, p=-back.p)
        dev = max(np.max(np.abs(flipped.q - fwd.q)), np.max(np.abs(flipped.p - fwd.p)))
        worst = max(worst, float(dev))
    return worst
