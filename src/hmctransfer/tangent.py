"""Variational flow of the derivative blocks d(Q,P)/d(q,p).

The blocks evolve under the generator [[0, V''], [-U'', 0]] with identity
initial condition.  Two backends are kept deliberately:

* chain rule through the leapfrog substeps, the exact derivative of the
  discrete map that ``flow_batch`` applies, and
* the closed-form block exponential in cos/sinc of sqrt(VU), sqrt(UV) built
  from running-average Hessians, exact when the Hessians are constant
  (Gaussian models) and a diagnostic approximation otherwise; it is the
  exact-Gaussian propagator of ``dynamics`` applied to the averages.

Also provides the Jacobian factors D_q = 1/|det dQ/dp|, D_p = 1/|det dP/dq|
and the regime bounds on their product valid for t * lambda_max < pi/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import ModelPair
from .dynamics import (FlowSpec, PhaseState, _linear_propagator, exact_gaussian_matrix, flow_batch,
                       spd_sqrt)

__all__ = [
    "TangentBlocks",
    "RunningAverages",
    "SingularJacobianError",
    "sinc",
    "integrate_tangent",
    "tangent_batch",
    "spd_sqrt",
    "block_exponential",
    "jacobian_determinants",
    "determinant_bounds",
]


class SingularJacobianError(ValueError):
    """A derivative block is numerically singular (conjugate point reached)."""


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


@dataclass(frozen=True)
class RunningAverages:
    """Time averages (1/t) int_0^t of the Hessians along a trajectory."""

    Ubar: np.ndarray
    Vbar: np.ndarray
    time: float


def tangent_batch(qs, ps, model: ModelPair, spec: FlowSpec):
    """Co-integrate flow and variational equation for a batch of states.

    Returns (Q, P, (dQdq, dQdp, dPdq, dPdp), Ubar, Vbar) with leading batch
    axis.  For leapfrog the blocks are the exact chain-rule derivatives of the
    discrete map; the averages use the trapezoid rule over substep Hessians,
    matching the integrator's order.
    """
    q = np.atleast_2d(np.array(qs, dtype=float))
    p = np.atleast_2d(np.array(ps, dtype=float))
    n, d = q.shape

    if spec.method == "exact_gaussian":
        Q, P = flow_batch(q, p, model, spec)
        mat = exact_gaussian_matrix(model, spec.time)
        blocks = tuple(np.broadcast_to(b, (n, d, d)).copy()
                       for b in (mat[:d, :d], mat[:d, d:], mat[d:, :d], mat[d:, d:]))
        Ubar = np.broadcast_to(model.target.params["precision"], (n, d, d)).copy()
        Vbar = np.broadcast_to(model.auxiliary.params["precision"], (n, d, d)).copy()
        return Q, P, blocks, Ubar, Vbar

    tau = spec.time / spec.steps
    eye = np.broadcast_to(np.eye(d), (n, d, d))
    dQdq, dQdp, dPdq, dPdp = eye.copy(), np.zeros((n, d, d)), np.zeros((n, d, d)), eye.copy()
    # the end-of-step gradient and Hessian are the next step's starting ones
    gq = model.target.grad(q)
    hq = model.target.hess(q)
    u_sum = 0.5 * hq
    v_sum = 0.5 * model.auxiliary.hess(p)
    for step in range(spec.steps):
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

        last = step == spec.steps - 1
        u_sum += (0.5 if last else 1.0) * hq
        v_sum += (0.5 if last else 1.0) * model.auxiliary.hess(p)
    return q, p, (dQdq, dQdp, dPdq, dPdp), u_sum / spec.steps, v_sum / spec.steps


def integrate_tangent(state: PhaseState, model: ModelPair, spec: FlowSpec):
    """Flow one state together with its tangent blocks and running averages."""
    Q, P, blocks, Ubar, Vbar = tangent_batch(state.q[None, :], state.p[None, :], model, spec)
    out_state = PhaseState(q=Q[0], p=P[0])
    out_blocks = TangentBlocks(*(b[0] for b in blocks))
    return out_state, out_blocks, RunningAverages(Ubar=Ubar[0], Vbar=Vbar[0], time=spec.time)


def block_exponential(averages: RunningAverages) -> TangentBlocks:
    """Closed-form solution blocks from the running-average Hessians.

    With A = sqrt(Vbar Ubar), B = sqrt(Ubar Vbar) and t the averaging time:
    [[cos(tA), t Vbar sinc(tB)], [-t Ubar sinc(tA), cos(tB)]], the
    exact-Gaussian propagator for the constant Hessians Ubar and Vbar.
    """
    mat = _linear_propagator(averages.Ubar, averages.Vbar, averages.time)
    d = mat.shape[0] // 2
    return TangentBlocks(mat[:d, :d], mat[:d, d:], mat[d:, :d], mat[d:, d:])


def jacobian_determinants(blocks: TangentBlocks):
    """(D_q, D_p) = (1/|det dQ/dp|, 1/|det dP/dq|).

    Raises SingularJacobianError when a block determinant vanishes, which
    signals an integration time at or beyond a conjugate point.
    """
    det_qp = float(np.linalg.det(blocks.dQdp))
    det_pq = float(np.linalg.det(blocks.dPdq))
    if abs(det_qp) < 1e-14:
        raise SingularJacobianError(f"dQdp block singular, |det| = {abs(det_qp):.3e}")
    if abs(det_pq) < 1e-14:
        raise SingularJacobianError(f"dPdq block singular, |det| = {abs(det_pq):.3e}")
    return 1.0 / abs(det_qp), 1.0 / abs(det_pq)


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
