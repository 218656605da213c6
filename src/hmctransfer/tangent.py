"""Variational flow of the derivative blocks d(Q,P)/d(q,p).

The blocks evolve under the generator [[0, V''], [-U'', 0]] with identity
initial condition.  One backend, following the flow's own: for leapfrog the
chain rule through the substeps, the exact derivative of the discrete map
that ``flow_batch`` applies; for Gaussian pairs the exact-Gaussian propagator
of ``dynamics``, the same matrix at every state.

Also provides the regime bounds on the Jacobian factors' product
D_q * D_p = 1/|det dQ/dp| * 1/|det dP/dq|, valid for t * lambda_max < pi/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import ModelPair
from .dynamics import FlowSpec, exact_gaussian_matrix, flow_batch, spd_sqrt

__all__ = [
    "TangentBlocks",
    "sinc",
    "tangent_batch",
    "spd_sqrt",
    "determinant_bounds",
]


def sinc(x):
    """sin(x)/x with a 3-term series below |x| < 1e-4 to avoid cancellation."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    out = np.where(small, 1.0 - x**2 / 6.0 + x**4 / 120.0, np.sin(safe) / safe)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class TangentBlocks:
    """The four d x d blocks of the flow derivative."""

    dQdq: np.ndarray
    dQdp: np.ndarray
    dPdq: np.ndarray
    dPdp: np.ndarray

    def matrix(self) -> np.ndarray:
        """Full 2d x 2d Jacobian."""
        top = np.hstack([self.dQdq, self.dQdp])
        bot = np.hstack([self.dPdq, self.dPdp])
        return np.vstack([top, bot])

    def det(self) -> float:
        """Determinant of the full Jacobian; 1 for a symplectic map."""
        return float(np.linalg.det(self.matrix()))


def tangent_batch(qs, ps, model: ModelPair, spec: FlowSpec):
    """Co-integrate flow and variational equation for a batch of states.

    Returns (Q, P, (dQdq, dQdp, dPdq, dPdp)) with leading batch axis.  For
    leapfrog the blocks are the exact chain-rule derivatives of the discrete
    map.
    """
    q = np.atleast_2d(np.array(qs, dtype=float))
    p = np.atleast_2d(np.array(ps, dtype=float))
    n, d = q.shape

    if spec.method == "exact_gaussian":
        Q, P = flow_batch(q, p, model, spec)
        mat = exact_gaussian_matrix(model, spec.time)
        blocks = tuple(np.broadcast_to(b, (n, d, d)).copy()
                       for b in (mat[:d, :d], mat[:d, d:], mat[d:, :d], mat[d:, d:]))
        return Q, P, blocks

    tau = spec.time / spec.steps
    eye = np.broadcast_to(np.eye(d), (n, d, d))
    dQdq, dQdp, dPdq, dPdp = eye.copy(), np.zeros((n, d, d)), np.zeros((n, d, d)), eye.copy()
    # the end-of-step gradient and Hessian are the next step's starting ones
    gq = model.target.grad(q)
    hq = model.target.hess(q)
    for _ in range(spec.steps):
        p -= 0.5 * tau * gq
        kick = 0.5 * tau * hq
        dPdq -= kick @ dQdq
        dPdp -= kick @ dQdp

        drift = tau * model.auxiliary.hess(p)
        q += tau * model.auxiliary.grad(p)
        dQdq += drift @ dPdq
        dQdp += drift @ dPdp

        gq = model.target.grad(q)
        hq = model.target.hess(q)
        p -= 0.5 * tau * gq
        kick = 0.5 * tau * hq
        dPdq -= kick @ dQdq
        dPdp -= kick @ dQdp
    return q, p, (dQdq, dQdp, dPdq, dPdp)


def determinant_bounds(model: ModelPair, time: float):
    """Regime bounds (lower, upper) on the product D_q * D_p.

    Valid for 0 < t * lambda_max < pi/2:
    lower = (t lambda_max)^(-2d), upper = (t sinc(t lambda_min))^(-2d).
    """
    lam = model.lambda_min
    big = model.lambda_max
    if time <= 0:
        raise ValueError("time must be positive")
    if time * big >= math.pi / 2:
        raise ValueError(
            f"t * lambda_max = {time * big:.6f} outside the regime (need < pi/2 = {math.pi / 2:.6f})"
        )
    d = model.dim
    lower = (time * big) ** (-2 * d)
    upper = (time * float(sinc(time * lam))) ** (-2 * d)
    return lower, upper
