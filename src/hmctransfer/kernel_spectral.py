"""Explicit kernel K(q, Q), Hilbert-Schmidt norm, spectra and rate certificates.

The operator acts as (T h)(q) = <h, K(q, .)> in the f-weighted inner product
with K(q, Q) = f(Q) g(P_q(Q)) D_q(Q): the target at the arrival point, the
normalized auxiliary density at the conjugate momentum, and the Jacobian
factor D_q = |dp/dQ| of the momentum-to-position change of variables.  Rows
are tabulated by flowing a dense momentum probe from each node and splining
(P, p) over Q along the monotone image curve: P is the spline's value and D_q
the slope of p, so neither Q -> p is inverted nor a tangent flowed; one
batched spline solve covers the curves of all rows, read knot-major, the
layout its sweep walks contiguously.  Through the inverse flow the same
tabulation gives the adjoint's kernel, and ``KernelField.transfer`` the
Nystrom matrix that ``assemble_transfer`` returns.

A finite Hilbert-Schmidt norm makes the operator compact and certifies the
spectral gap; the norm is computed both as a position-space double quadrature
and through the momentum-space formula int g(p) g(P) D_q dq dp, and the two
must agree.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .distributions import ModelPair
from .dynamics import FlowSpec, flow_batch
from .operator import (
    DensityGrid,
    TransferMatrix,
    _truncation,
    build_momentum_rule,
    check_conjugate_bound,
    spline_coefficients,
    to_weighted_symmetric,
    weighted_inner,
    weighted_norm,
    weighted_symmetry_residual,
)

__all__ = [
    "KernelField",
    "SpectralReport",
    "RateCertificate",
    "assemble_kernel",
    "hs_norm",
    "eigen_spectrum",
    "certify_rate",
]


@dataclass(frozen=True)
class KernelField:
    """Kernel values on the grid with both Hilbert-Schmidt norm estimates."""

    values: np.ndarray
    hs_norm_sq: float
    hs_norm_sq_momentum: float
    meta: dict = field(default_factory=dict)

    def transfer(self, grid: DensityGrid) -> TransferMatrix:
        """Nystrom matrix T_ij = K(q_i, x_j) w_j / f_j of the kernel on the grid's rule.

        The trapezoid error falls as exp(-2 pi^2 s^2) in the kernel width s
        in cells: in the Gaussian rate and mass 1e-12 at s = 2, 5e-9 at 1,
        1e-2 at 0.5 (n = 401).  Below one cell this raises ``ValueError``.
        """
        width = self.meta["kernel_width_cells"]
        if not width >= 1:
            raise ValueError(f"kernel_width_cells = {width:.3g} < 1: the grid cannot resolve "
                             f"the kernel; refine the grid or lengthen the flow")
        return TransferMatrix(entries=self.values * (grid.weights / grid.target_values),
                              grid=grid, meta=dict(self.meta))


def assemble_kernel(
    grid: DensityGrid,
    model: ModelPair,
    spec: FlowSpec,
    momentum_nodes: int = 1025,
    *,
    inverse: bool = False,
) -> KernelField:
    """Tabulate K(q_i, Q_j) = f(Q_j) g(P) |dp/dQ| from one flow of momentum probes.

    Valid in the invertibility regime t * lambda_max < pi/2, where
    p -> Q(q, p) is strictly monotone for every node: Q must rise strictly
    along every probe and dp/dQ stay positive, else ``ValueError``.  Arrival
    points outside the probed image curve carry kernel value zero (the
    auxiliary density is already negligible there).  With ``inverse`` the
    probes flow through the inverse map, along which Q falls with p: they are
    read in reverse order, so Q rises, and -p is splined, so its slope is
    |dp/dQ|, giving the adjoint's kernel.  ``meta`` records the probe images'
    domain truncation and ``kernel_width_cells``, the min over rows of
    |Q(q_i, sigma) - Q(q_i, -sigma)| / 2h, sigma the auxiliary standard
    deviation and h the grid spacing.

    Memory: the flow's P is copied into the spline's curves (P, p) and
    released before the solve.  The peak is inside the solve, which holds Q,
    the curves (twice Q's size) and its own buffers; at large n the values at
    the (row, node) pairs, a few arrays of one double per pair updated in
    place, take over.
    """
    if grid.dim != 1:
        raise NotImplementedError("kernel tabulation is implemented for 1-d grids")
    if momentum_nodes < 4:
        raise ValueError(f"need at least 4 kernel momentum nodes, got {momentum_nodes}")
    check_conjugate_bound(model, spec)
    n, m = grid.n, momentum_nodes
    x = grid.axes[0]
    rule = build_momentum_rule(model, m)
    order = slice(None, None, -1 if inverse else 1)
    probes, probe_weights = rule.nodes[order, 0], rule.weights[order]
    sigma = math.sqrt(float(rule.weights @ rule.nodes[:, 0] ** 2))

    # one sweep: the probes momentum-major, so Q and P come out knot-major for
    # the spline, then the +-sigma width probes
    Q, P = flow_batch(np.tile(grid.nodes, (m + 2, 1)),
                      np.repeat(np.append(probes, [sigma, -sigma]), n)[:, None], model, spec,
                      inverse=inverse)
    Q = Q.reshape(m + 2, n)
    width = float(np.min(np.abs(Q[m] - Q[m + 1])) / (2 * (x[1] - x[0])))
    Q = Q[:m].T
    if not np.all(np.diff(Q, axis=1) > 0):
        raise ValueError("momentum-to-position map not strictly monotone on a probe")
    # the curves (P, +-p) stacked knot-major, passed as a (row, knot, 2) view
    p = np.broadcast_to((-probes if inverse else probes)[:, None], (m, n))
    curves = np.stack([P[:m * n].reshape(m, n), p], axis=-1).transpose(1, 0, 2)
    del P, p
    slopes = spline_coefficients(Q, curves)
    if not np.all(slopes[:, :, 1] > 0):
        raise ValueError("dp/dQ lost positivity along a probe; conjugate point reached")

    log_norm = model.auxiliary_log_mass()

    def gbar(p):
        return np.exp(-model.auxiliary.value(np.asarray(p).reshape(-1, 1)) - log_norm)

    # restrict to image points inside the box: the change of variables maps
    # the position-space double integral over box x box exactly onto
    # {(q, p): Q(q, p) inside the box}
    w = grid.weights
    f = grid.target_values
    gP = gbar(curves[:, :, 0].reshape(-1)).reshape(n, -1)
    in_box = (Q >= x[0]) & (Q <= x[-1])
    hs_mom = float(np.einsum("i,k,ik->", w, probe_weights, in_box * gP * slopes[:, :, 1]))
    truncation = _truncation(grid, in_box, (probe_weights / gbar(probes)) * gP)
    del gP, in_box

    # below[i, j] counts the images Q[i, k] <= x[j]: node j on row i's curve lies
    # in piece below - 1, the last piece closed on the right
    below = np.cumsum(np.bincount((np.searchsorted(x, Q) + (n + 1) * np.arange(n)[:, None]).ravel(),
                                  minlength=n * (n + 1)).reshape(n, n + 1)[:, :n], axis=1)
    rows, cols = np.nonzero((below > 0) & (x[None, :] <= Q[:, -1:]))
    piece = np.minimum(below[rows, cols] - 1, m - 2)
    del below
    at, nxt = (rows, piece), (rows, piece + 1)
    h = Q[nxt] - Q[at]
    s = x[cols] - Q[at]
    del Q
    P_at = _spline_piece(curves[:, :, 0], slopes[:, :, 0], at, nxt, h, s)
    D_at = _spline_piece(curves[:, :, 1], slopes[:, :, 1], at, nxt, h, s, slope=True)
    del curves, slopes, at, nxt, piece, h, s
    if not np.all(D_at > 0):
        raise ValueError("dp/dQ lost positivity between probes; conjugate point reached")
    K = np.zeros((n, n))
    K[rows, cols] = f[cols] * gbar(P_at) * D_at

    # the double integral runs over the whole truncated domain; K/f stays
    # bounded (it is g(P) D_q), so no density floor is needed here
    hs_pos = float(np.einsum("i,j,ij->", w / f, w, K * (K / f[None, :])))

    return KernelField(
        values=K,
        hs_norm_sq=hs_pos,
        hs_norm_sq_momentum=hs_mom,
        meta={
            "inverse": inverse,
            "gaussian_model": model.is_gaussian,
            "time": spec.time,
            "method": spec.method,
            "steps": spec.steps,
            "momentum_nodes": momentum_nodes,
            "momentum_halfwidth": float(rule.nodes[-1, 0]),
            "kernel_width_cells": width,
            **truncation,
        },
    )


def _spline_piece(y, slopes, at, nxt, h, s, slope=False):
    """Value, or with ``slope`` the slope, at offset s into the pieces from knots ``at`` to
    ``nxt``, h apart, in CubicSpline's form ((c0 s + c1) s + s0) s + y0, built in place."""
    s0 = slopes[at]
    c1 = y[nxt]
    c1 -= y[at]
    c1 /= h  # the secant slope
    c0 = slopes[nxt]
    c0 += s0
    c0 -= 2 * c1
    c0 /= h
    c1 -= s0
    c1 /= h
    c1 -= c0
    c0 /= h
    if slope:  # (3 c0 s + 2 c1) s + s0
        c0 *= 3
        c1 *= 2
    c0 *= s
    c0 += c1
    c0 *= s
    c0 += s0
    if not slope:
        c0 *= s
        c0 += y[at]
    return c0


def hs_norm(field: KernelField, grid: DensityGrid) -> float:
    """Squared Hilbert-Schmidt norm of the kernel.

    Returns the position-space double quadrature after checking it against
    the momentum-space formula; disagreement beyond 1e-3 relative, or an
    estimate that is not finite, is reported as a consistency failure.
    """
    a, b = field.hs_norm_sq, field.hs_norm_sq_momentum
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"Hilbert-Schmidt estimates not finite: position {a} vs momentum {b}")
    rel = abs(a - b) / max(abs(a), 1e-300)
    if rel > 1e-3:
        raise ValueError(
            f"Hilbert-Schmidt estimates disagree: position {a:.6e} vs momentum {b:.6e} "
            f"({rel:.2e} relative)"
        )
    if rel > 1e-4:
        warnings.warn(f"Hilbert-Schmidt estimates agree only to {rel:.2e} relative")
    return a


@dataclass(frozen=True)
class SpectralReport:
    """Leading spectrum of the discretized operator with gap diagnostics."""

    eigenvalues: np.ndarray
    leading_vector: np.ndarray
    gap: float
    rate_bound: float
    multiplicity_check: bool
    second_mass: float
    symmetry_residual: float
    gap_caveat: bool

    @property
    def sum_squares(self) -> float:
        return float(np.sum(self.eigenvalues**2))


def eigen_spectrum(T: TransferMatrix, grid: DensityGrid, k: int) -> SpectralReport:
    """Top-k eigenvalues through the weighted-similarity symmetric form.

    For an even auxiliary density the operator is self-adjoint in the
    weighted inner product, so its spectrum is real and the second eigenvalue
    is the convergence rate.  That is a precondition here: a functional
    residual of 1e-6 or more, or NaN, raises instead of returning a spectrum.
    """
    if k < 2:
        raise ValueError(f"top-k spectrum needs k >= 2 for the gap, got k = {k}")
    residual = weighted_symmetry_residual(T)
    if not residual < 1e-6:  # a NaN residual fails too
        raise ValueError(f"operator not self-adjoint (residual {residual:.3e})")

    A, mask, scale = to_weighted_symmetric(T)
    sym = 0.5 * (A + A.T)
    vals, vecs = np.linalg.eigh(sym)
    order = np.argsort(-np.abs(vals))
    k = min(k, len(vals))
    eigenvalues = vals[order[:k]]

    lead = np.zeros(grid.n)
    lead[mask] = vecs[:, order[0]] / scale
    if weighted_inner(lead, grid.target_values, grid) < 0:
        lead = -lead
    lead = lead / weighted_norm(lead, grid)

    second = np.zeros(grid.n)
    second[mask] = vecs[:, order[1]] / scale
    second_mass = abs(weighted_inner(second, grid.target_values, grid)) / (
        weighted_norm(second, grid) * weighted_norm(grid.target_values, grid)
    )
    simple = second_mass < 1e-6
    if not simple:
        warnings.warn(
            f"leading eigenvalue may not be simple: second eigenvector carries "
            f"relative mass {second_mass:.3e} (coverage broken by discretization?)"
        )
    return SpectralReport(
        eigenvalues=eigenvalues,
        leading_vector=lead,
        gap=float(1.0 - abs(eigenvalues[1])),
        rate_bound=float(abs(eigenvalues[1])),
        multiplicity_check=bool(simple),
        second_mass=float(second_mass),
        symmetry_residual=float(residual),
        gap_caveat=not bool(T.meta.get("gaussian_model", False)),
    )


@dataclass(frozen=True)
class RateCertificate:
    """Least-squares geometric-rate fit against the spectral prediction."""

    rho_emp: float
    rho_spec: float
    mismatch: float
    r_squared: float
    window: tuple
    n_points: int
    passed: bool
    trivially_converged: bool
    residuals: np.ndarray

    def to_dict(self) -> dict:
        return {
            "rho_emp": self.rho_emp,
            "rho_spec": self.rho_spec,
            "mismatch": self.mismatch,
            "r_squared": self.r_squared,
            "window": list(self.window),
            "n_points": self.n_points,
            "passed": self.passed,
            "trivially_converged": self.trivially_converged,
        }


def _log_fit(ns, log_e):
    slope, intercept = np.polyfit(ns, log_e, 1)
    pred = slope * ns + intercept
    ss_res = float(np.sum((log_e - pred) ** 2))
    ss_tot = float(np.sum((log_e - np.mean(log_e)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, r2, log_e - pred


def certify_rate(report: SpectralReport, trace, rtol: float = 0.02) -> RateCertificate:
    """Fit log error against iteration count over the geometric regime.

    The window drops the first three iterations and anything at the numerical
    floor, then trims the leading transient adaptively until the fitted slope
    stabilizes: with a small spectral gap the higher modes pollute far more
    than three steps, and the trim isolates the asymptotic rate.
    """
    errors = np.asarray(trace.errors, dtype=float)
    steps = np.asarray(trace.steps, dtype=float)
    # the discretization limits how far the error can fall; fitting into the
    # saturated plateau would flatten the slope, so cut a decade above it
    floor = max(1e-12, 10.0 * float(np.min(errors)))
    keep = (steps >= 3) & (errors > floor)
    rho_spec = report.rate_bound
    if np.count_nonzero(keep) < 10:
        trivially = bool(errors[0] < max(trace.tol, 1e-9))
        return RateCertificate(
            rho_emp=float("nan"),
            rho_spec=rho_spec,
            mismatch=float("nan"),
            r_squared=float("nan"),
            window=(0, 0),
            n_points=int(np.count_nonzero(keep)),
            passed=trivially,
            trivially_converged=trivially,
            residuals=np.zeros(0),
        )
    ns = steps[keep]
    log_e = np.log(errors[keep])
    while ns.size >= 15:
        cut = ns.size // 5
        s_full, _, _, _ = _log_fit(ns, log_e)
        s_tail, _, _, _ = _log_fit(ns[cut:], log_e[cut:])
        if abs(s_tail - s_full) <= 1e-3 * abs(s_tail):
            break
        ns, log_e = ns[cut:], log_e[cut:]
    slope, _, r2, resid = _log_fit(ns, log_e)
    rho_emp = float(np.exp(slope))
    mismatch = abs(rho_emp - rho_spec) / rho_spec
    return RateCertificate(
        rho_emp=rho_emp,
        rho_spec=rho_spec,
        mismatch=float(mismatch),
        r_squared=float(r2),
        window=(int(ns[0]), int(ns[-1])),
        n_points=int(ns.size),
        passed=bool(r2 >= 0.99 and mismatch < rtol),
        trivially_converged=False,
        residuals=resid,
    )
