"""Hamiltonian flow H_t : (q, p) -> (Q, P) and its inverse.

Two backends: a closed-form map for Gaussian pairs (the linear Hamiltonian
system solved exactly in cos/sinc form, the package's one exact-Gaussian
propagator) and velocity-Verlet leapfrog for everything else.  Leapfrog is
symplectic and time-reversible, so the invariance properties the operator
theory needs hold exactly for the discrete map, not just approximately.  No
Metropolis correction is applied anywhere; integration error is measured by
the tests instead of hidden.

``flow_batch`` runs leapfrog over the points in cache-sized blocks, with
in-place kicks and drifts on arrays it made itself: no input array and no
array a gradient returns is ever written, and the result is bit-identical to
one kick-drift-kick pass over all points with a new array per update.
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

# points per leapfrog block: 256 KiB per (N, 1) array, so a block's half a
# dozen live arrays (q, p, kick, gradient and product temporaries) fit a
# 4 MiB per-core L2 cache
BLOCK_POINTS = 32768


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
        if not (math.isfinite(self.time) and self.time > 0):
            raise ValueError(f"flow time must be finite and positive, got {self.time}")
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


def spd_sqrt(mat) -> np.ndarray:
    """Symmetric positive definite square root via spectral decomposition."""
    mat = np.asarray(mat, dtype=float)
    scale = max(1.0, float(np.max(np.abs(mat))))
    if np.max(np.abs(mat - mat.T)) > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    vals, vecs = np.linalg.eigh(mat)
    if vals[0] <= 0:
        raise ValueError(f"matrix not positive definite, offending eigenvalue {vals[0]:.6e}")
    root = (vecs * np.sqrt(vals)) @ vecs.T
    return 0.5 * (root + root.T)


def _linear_propagator(u, v, time: float) -> np.ndarray:
    """2d x 2d solution map of (Q, P)' = (V P, -U Q) for spd U, V, any sign of time.

    With A = sqrt(VU), B = sqrt(UV): [[cos(tA), V sin(tB) B^-1], [-U sin(tA) A^-1,
    cos(tB)]], all blocks from one eigendecomposition sqrt(U) V sqrt(U) = E diag(w^2) E^T.
    """
    v = np.asarray(v, dtype=float)
    su = spd_sqrt(u)
    su_inv = np.linalg.inv(su)
    vals, vecs = np.linalg.eigh(su @ v @ su)
    if vals[0] <= 0:
        raise ValueError(f"V not positive definite through the transform: {vals[0]:.6e}")
    w = np.sqrt(vals)
    cos_w = (vecs * np.cos(time * w)) @ vecs.T
    sin_w = (vecs * (np.sin(time * w) / w)) @ vecs.T
    return np.block([[su_inv @ cos_w @ su, v @ su @ sin_w @ su_inv],
                     [-su @ sin_w @ su, su @ cos_w @ su_inv]])


def exact_gaussian_matrix(model: ModelPair, time: float) -> np.ndarray:
    """2d x 2d propagator of the linear Hamiltonian system for Gaussian pairs.

    With target precision A and auxiliary precision B the system is
    (Q-mu, P)' = [[0, B], [-A, 0]] (Q-mu, P).  Negative time gives the
    inverse flow.
    """
    if not model.is_gaussian:
        raise ValueError("exact flow requested for a non-Gaussian model")
    if np.any(model.auxiliary.params["mean"] != 0.0):
        raise ValueError("exact flow assumes a centered auxiliary Gaussian")
    precisions = model.target.params["precision"], model.auxiliary.params["precision"]
    return _linear_propagator(*precisions, time)


def _leapfrog(q, p, grad_u, grad_v, tau: float, steps: int):
    """Velocity-Verlet (kick-drift-kick): ``steps`` steps of size ``tau``.

    Plain arithmetic on whatever q and p are, so three callers run the same
    integrator: ``flow_batch`` on (N, d) blocks with the array gradients,
    ``cli.hmc_chain`` on Python floats with the scalar gradients of a 1-d pair,
    and ``tangent.tangent_batch`` on lifted (N, d, 1 + 2d) arrays whose
    gradients also apply the chain rule to the derivative columns.

    Each kick ``half * grad_u(q)`` is computed once and subtracted twice at a
    step boundary, the closing kick of one step and the opening kick of the
    next, so the sums round as in p - 0.5 tau g - 0.5 tau g.  The first kick
    and the first drift make new arrays; the later updates are in place, on
    these arrays only: the caller's q and p and every array a gradient returns
    are never written.  On floats the augmented assignments just rebind.
    """
    half = 0.5 * tau
    kick = half * grad_u(q)
    p = p - kick
    q = q + tau * grad_v(p)
    for _ in range(1, steps):
        kick = half * grad_u(q)
        p -= kick
        p -= kick
        q += tau * grad_v(p)
    p -= half * grad_u(q)
    return q, p


def flow_batch(qs, ps, model: ModelPair, spec: FlowSpec, inverse: bool = False):
    """Map many phase points at once; shapes (..., d) -> (..., d).

    Leapfrog walks the points, flattened to (N, d), in blocks of
    ``BLOCK_POINTS`` and integrates each block over all steps before the next
    one: a block's q, p, kick and gradient temporaries then stay in a core's
    L2 cache across the steps, where one pass over all points would stream
    every step through memory.  Each point is integrated on its own, so the
    blocks give the same bits as a single pass.
    """
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
    tau = time / spec.steps
    shape = np.broadcast_shapes(qs.shape, ps.shape)
    q = np.broadcast_to(qs, shape).reshape(-1, shape[-1])
    p = np.broadcast_to(ps, shape).reshape(-1, shape[-1])
    Q, P = np.empty(q.shape), np.empty(p.shape)
    for lo in range(0, len(q), BLOCK_POINTS):
        block = slice(lo, lo + BLOCK_POINTS)
        Q[block], P[block] = _leapfrog(q[block], p[block], model.target.grad,
                                       model.auxiliary.grad, tau, spec.steps)
    return Q.reshape(shape), P.reshape(shape)


def flow(state: PhaseState, model: ModelPair, spec: FlowSpec) -> PhaseState:
    """One application of the Hamiltonian map H_t."""
    Q, P = flow_batch(state.q, state.p, model, spec)
    return PhaseState(q=Q, p=P)


def inverse_flow(state: PhaseState, model: ModelPair, spec: FlowSpec) -> PhaseState:
    """The inverse map H_t^{-1}, realized by time reversal of the same backend."""
    Q, P = flow_batch(state.q, state.p, model, spec, inverse=True)
    return PhaseState(q=Q, p=P)


def momentum_flip_conjugacy_residual(model: ModelPair, spec: FlowSpec, q, p) -> float:
    """Max deviation of tau . H^{-1} . tau from H over the states (q, p), shape (N, d).

    tau flips the momentum sign.  A zero residual certifies the conjugacy that
    makes the transfer operator self-adjoint for even auxiliary densities.
    The states are flowed by one forward and one inverse sweep; an empty
    batch gives 0.0.
    """
    if not model.auxiliary_even:
        raise ValueError("momentum-flip conjugacy requires an even auxiliary density")
    q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
    if q.size == 0:
        return 0.0
    Q, P = flow_batch(q, p, model, spec)
    back_q, back_p = flow_batch(q, -p, model, spec, inverse=True)
    return float(max(np.max(np.abs(back_q - Q)), np.max(np.abs(back_p + P))))
