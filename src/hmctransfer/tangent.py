"""Jacobian J = d(Q,P)/d(q,p) of the flow map, carried by the flow's own integrator.

Leapfrog is a partitioned Runge-Kutta method, so the derivative of its discrete
map is leapfrog applied to the variational equation.  ``tangent_batch`` lifts
each point to an array whose column 0 is the point and whose columns 1..2d are
its derivatives along (q0, p0), and runs ``dynamics._leapfrog`` on it with
gradients that carry the chain rule, z -> [grad U(z0), hess U(z0) z1..2d]:
Q and P are ``flow_batch``'s, bit for bit, and J comes out of the same kicks
and drifts.  For Gaussian pairs J is the exact-Gaussian propagator of
``dynamics``, the same matrix at every state.

Also provides the regime bounds on the Jacobian factors' product
D_q * D_p = 1/|det dQ/dp| * 1/|det dP/dq|, valid for t * lambda_max < pi/2.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import ModelPair
from .dynamics import FlowSpec, _leapfrog, exact_gaussian_matrix, flow_batch

__all__ = [
    "sinc",
    "tangent_batch",
    "determinant_bounds",
]


def sinc(x):
    """sin(x)/x with a 3-term series below |x| < 1e-4 to avoid cancellation."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    safe = np.where(small, 1.0, x)
    out = np.where(small, 1.0 - x**2 / 6.0 + x**4 / 120.0, np.sin(safe) / safe)
    return out if out.ndim else float(out)


def _lifted(potential):
    """z -> [grad(z0), hess(z0) z1..2d]: the gradient of ``potential`` on lifted arrays
    z of shape (n, d, 1 + 2d), with its chain rule on the derivative columns."""
    def grad(z):
        x = z[..., 0]
        return np.concatenate([potential.grad(x)[..., None], potential.hess(x) @ z[..., 1:]], -1)
    return grad


def tangent_batch(qs, ps, model: ModelPair, spec: FlowSpec):
    """Flow a batch of states and differentiate the map.

    Returns (Q, P, J), with Q and P of shape (n, d) and the Jacobian
    J = d(Q,P)/d(q,p) of shape (n, 2d, 2d).  For leapfrog J is the exact
    derivative of the discrete map that ``flow_batch`` applies.
    """
    q = np.atleast_2d(np.asarray(qs, dtype=float))
    p = np.atleast_2d(np.asarray(ps, dtype=float))
    n, d = q.shape
    if spec.method == "exact_gaussian":
        Q, P = flow_batch(q, p, model, spec)
        return Q, P, np.tile(exact_gaussian_matrix(model, spec.time), (n, 1, 1))

    def lift(x, k):  # x with d(x)/d(q0, p0) = [I, 0] (k = 0) or [0, I] (k = d)
        return np.concatenate([x[..., None], np.tile(np.eye(d, 2 * d, k), (n, 1, 1))], -1)

    Q, P = _leapfrog(lift(q, 0), lift(p, d), _lifted(model.target), _lifted(model.auxiliary),
                     spec.time / spec.steps, spec.steps)
    return Q[..., 0], P[..., 0], np.concatenate([Q[..., 1:], P[..., 1:]], axis=1)


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
