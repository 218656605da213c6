"""Hamiltonian flow H_t : (q, p) -> (Q, P), its Jacobian, the HMC chain and
the regime bounds on the flow time.

Phase space is (q, p) with q and p scalars, so a batch of phase points is a
pair of arrays of one shape.  One integrator, velocity-Verlet leapfrog
(``_leapfrog``), has three callers: ``flow_batch`` maps many phase points at
once, ``tangent_batch`` carries the Jacobian through the same kicks and
drifts, and ``hmc_chain`` runs a Metropolis-corrected chain on Python floats.
Leapfrog is symplectic and time-reversible, so the invariance properties the
operator theory needs hold exactly for the discrete map, not just
approximately.  Gaussian pairs also have a closed-form map, the linear
Hamiltonian system solved exactly as the rotation [[c, s], [-u s, c]] with
c = cos(omega t) and s = sin(omega t) / omega (``exact_gaussian_matrix``, the
package's one exact-Gaussian propagator).  No Metropolis correction is
applied to the flow itself; integration error is measured by the tests
instead of hidden.

``flow_batch`` runs leapfrog over the points in cache-sized blocks, with
in-place kicks and drifts on arrays it made itself: no input array and no
array a gradient returns is ever written, and the result is bit-identical to
one kick-drift-kick pass over all points with a new array per update.

The Jacobian J = d(Q,P)/d(q,p): leapfrog is a partitioned Runge-Kutta method,
so the derivative of its discrete map is leapfrog applied to the variational
equation.  ``tangent_batch`` lifts each coordinate to an (N, 3) array whose
column 0 is the point and whose columns 1 and 2 are its derivatives along
(q0, p0), and integrates it with gradients that carry the chain rule,
z -> [U'(z0), U''(z0) z1, U''(z0) z2]: Q and P are ``flow_batch``'s, bit for
bit.  For Gaussian pairs J is the exact-Gaussian propagator, the same 2 x 2
matrix at every state.

The regime bounds on t * lambda_max are stated here once each:
``check_conjugate_bound`` refuses t * lambda_max >= pi, where conjugate points
first appear for constant curvature, and ``determinant_bounds`` bounds
D_q * D_p = 1/|dQ/dp| * 1/|dP/dq| for t * lambda_max < pi/2 and
refuses outside that range.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .distributions import ModelPair, kinetic_energy

__all__ = [
    "FlowSpec",
    "default_flow_spec",
    "flow_batch",
    "tangent_batch",
    "hmc_chain",
    "check_conjugate_bound",
    "determinant_bounds",
]

# points per leapfrog block: 256 KiB per (N,) array, so a block's half a
# dozen live arrays (q, p, kick, gradient and product temporaries) fit a
# 4 MiB per-core L2 cache
BLOCK_POINTS = 32768


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


def exact_gaussian_matrix(model: ModelPair, time: float) -> np.ndarray:
    """2 x 2 propagator of the linear Hamiltonian system for Gaussian pairs.

    With target precision u and unit momentum precision the system is
    (Q - mu, P)' = [[0, 1], [-u, 0]] (Q - mu, P), whose solution map is
    [[c, s], [-u s, c]] with omega = sqrt(u), c = cos(omega t) and
    s = sin(omega t) / omega.
    """
    if not model.is_gaussian:
        raise ValueError("exact flow requested for a non-Gaussian model")
    u = model.target.params["precision"]
    omega = math.sqrt(u)
    c, s = np.cos(time * omega), np.sin(time * omega) / omega
    return np.array([[c, s], [-u * s, c]])


def _leapfrog(q, p, grad_u, tau: float, steps: int):
    """Velocity-Verlet (kick-drift-kick): ``steps`` steps of size ``tau``.

    Plain arithmetic on whatever q and p are, so this module's three callers
    run the same integrator: ``flow_batch`` on (N,) blocks, ``tangent_batch``
    on lifted (N, 3) arrays whose gradients also apply the chain rule to the
    derivative columns, and ``hmc_chain`` on Python floats, each with the
    target's elementwise gradient.  The momentum law is N(0, 1), so a drift
    moves q by tau p, on the derivative columns too.

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
    q = q + tau * p
    for _ in range(1, steps):
        kick = half * grad_u(q)
        p -= kick
        p -= kick
        q += tau * p
    p -= half * grad_u(q)
    return q, p


def flow_batch(qs, ps, model: ModelPair, spec: FlowSpec):
    """Map many phase points at once: q and p of any shapes that broadcast
    together, to (Q, P) of the broadcast shape.

    Leapfrog walks the points, flattened to (N,), in blocks of
    ``BLOCK_POINTS`` and integrates each block over all steps before the next
    one: a block's q, p, kick and gradient temporaries then stay in a core's
    L2 cache across the steps, where one pass over all points would stream
    every step through memory.  Each point is integrated on its own, so the
    blocks give the same bits as a single pass.
    """
    qs = np.asarray(qs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    if spec.method == "exact_gaussian":
        (a, b), (c, d) = exact_gaussian_matrix(model, spec.time).tolist()
        mu = model.target.params["mean"]
        dq = qs - mu
        return dq * a + ps * b + mu, dq * c + ps * d
    tau = spec.time / spec.steps
    shape = np.broadcast_shapes(qs.shape, ps.shape)
    q = np.broadcast_to(qs, shape).reshape(-1)
    p = np.broadcast_to(ps, shape).reshape(-1)
    Q, P = np.empty(len(q)), np.empty(len(p))
    for lo in range(0, len(q), BLOCK_POINTS):
        block = slice(lo, lo + BLOCK_POINTS)
        Q[block], P[block] = _leapfrog(q[block], p[block], model.target.grad, tau, spec.steps)
    return Q.reshape(shape), P.reshape(shape)


def _lifted(potential):
    """z -> [U'(z0), U''(z0) z1, U''(z0) z2]: the gradient of ``potential`` on lifted
    (N, 3) arrays z, with its chain rule on the derivative columns."""
    def grad(z):
        x = z[:, 0]
        curvature = potential.hess(x)
        return np.column_stack([potential.grad(x), curvature * z[:, 1], curvature * z[:, 2]])
    return grad


def tangent_batch(qs, ps, model: ModelPair, spec: FlowSpec):
    """Flow a batch of states and differentiate the map.

    Takes q and p of shape (N,) and returns (Q, P, J), Q and P of shape (N,)
    and the Jacobian J = d(Q,P)/d(q,p) of shape (N, 2, 2).  For leapfrog J is
    the exact derivative of the discrete map that ``flow_batch`` applies.
    """
    q = np.asarray(qs, dtype=float)
    p = np.asarray(ps, dtype=float)
    if spec.method == "exact_gaussian":
        Q, P = flow_batch(q, p, model, spec)
        return Q, P, np.tile(exact_gaussian_matrix(model, spec.time), (len(q), 1, 1))
    ones, zeros = np.ones(len(q)), np.zeros(len(q))
    # each coordinate with its derivatives along (q0, p0): [1, 0] for q, [0, 1] for p
    Q, P = _leapfrog(np.column_stack([q, ones, zeros]), np.column_stack([p, zeros, ones]),
                     _lifted(model.target), spec.time / spec.steps, spec.steps)
    return Q[:, 0], P[:, 0], np.stack([Q[:, 1:], P[:, 1:]], axis=1)


def hmc_chain(model: ModelPair, spec: FlowSpec, draws: int, rng: random.Random):
    """Plain HMC chain: momentum refresh, flow, Metropolis correction.

    Returns (positions of shape (draws,), acceptance_rate).  ``rng`` is the
    standard library's ``random.Random``: each draw takes its N(0, 1) momentum
    from ``rng.gauss(0.0, 1.0)`` and, on the Metropolis path, its uniform from
    1 - ``rng.random()``, which lies in (0, 1], so its log is finite.  The
    exact Gaussian flow conserves energy exactly, so every proposal is
    accepted and the chain reduces to the linear recursion q <- a q + b p on
    Python floats.  Leapfrog draws run on Python floats through the target's
    elementwise evaluators, ``kinetic_energy`` and ``_leapfrog``, the
    integrator ``flow_batch`` uses, so each draw is bit-identical to one
    ``flow_batch`` call on a (1,) array.
    """
    if draws == 0:
        return np.zeros(0), float("nan")
    if spec.method == "exact_gaussian":
        a, b = exact_gaussian_matrix(model, spec.time)[0].tolist()
        mu = model.target.params["mean"]
        q, centered = 0.0, np.empty(draws)
        for i in range(draws):
            centered[i] = q = a * q + b * rng.gauss(0.0, 1.0)
        return centered + mu, 1.0
    value_u, grad_u = model.target.value, model.target.grad
    tau = spec.time / spec.steps
    q = model.target.params["mean"] if model.target.is_gaussian else 0.0
    out = np.empty(draws)
    accepted = 0
    for i in range(draws):
        p = rng.gauss(0.0, 1.0)
        e0 = value_u(q) + kinetic_energy(p)
        Q, P = _leapfrog(q, p, grad_u, tau, spec.steps)
        e1 = value_u(Q) + kinetic_energy(P)
        if math.log(1.0 - rng.random()) < e0 - e1:
            q = Q
            accepted += 1
        out[i] = q
    return out, accepted / draws


def check_conjugate_bound(model: ModelPair, spec: FlowSpec):
    """Refuse t * lambda_max >= pi, where conjugate points first appear for
    constant curvature; the operator itself stays well defined up to there."""
    t_lam = spec.time * model.lambda_max
    if t_lam >= math.pi:
        raise ValueError(f"t * lambda_max = {t_lam:.6f} beyond the conjugate-point bound (< pi)")


def determinant_bounds(model: ModelPair, time: float):
    """Regime bounds (lower, upper) on the product D_q * D_p.

    Valid for 0 < t * lambda_max < pi/2:
    lower = (t lambda_max)^-2, upper = (sin(t lambda_min) / lambda_min)^-2.
    """
    lam = model.lambda_min
    big = model.lambda_max
    if time <= 0:
        raise ValueError("time must be positive")
    if time * big >= math.pi / 2:
        raise ValueError(
            f"t * lambda_max = {time * big:.6f} outside the regime (need < pi/2 = {math.pi / 2:.6f})"
        )
    lower = (time * big) ** -2
    x = time * lam  # positive, since t > 0 and lambda_min > 0
    upper = (time * (math.sin(x) / x)) ** -2
    return lower, upper
