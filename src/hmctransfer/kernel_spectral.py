"""Explicit kernel K(q, Q), Hilbert-Schmidt norm, spectra and rate certificates.

The operator acts as (T h)(q) = <h, K(q, .)> in the f-weighted inner product
with K(q, Q) = f(Q) g(P_q(Q)) D_q(Q): the target at the arrival point, the
normalized auxiliary density at the conjugate momentum, and the Jacobian
factor from the momentum-to-position change of variables.  Rows are tabulated
by flowing a dense momentum probe from each node and interpolating P and
dQ/dp along the monotone image curve, so the map Q -> p is never inverted
numerically; one batched spline solve covers the curves of all rows.  The
probes are flowed momentum-major, so the curves reach the solve knot-major in
memory, the layout its sweep along the knots walks contiguously.  Through the
inverse flow the same tabulation gives the adjoint's kernel, and
``KernelField.transfer`` the Nystrom matrix that ``assemble_transfer`` returns.

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
from .tangent import tangent_batch

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
    """Tabulate K(q_i, Q_j) from flow plus tangent data along momentum probes.

    Valid in the invertibility regime t * lambda_max < pi/2, where dQ/dp
    stays positive and p -> Q(q, p) is strictly monotone for every node.
    Arrival points outside the probed image curve carry kernel value zero
    (the auxiliary density is already negligible there).  With ``inverse``
    the probes flow through the inverse map, along which Q falls with p: they
    are read in reverse order, so Q rises, and |dQ/dp| enters D_q, giving
    the adjoint's kernel.  ``meta`` records the probe images' domain
    truncation and ``kernel_width_cells``, the min over rows of
    |Q(q_i, sigma) - Q(q_i, -sigma)| / 2h, sigma the auxiliary standard
    deviation and h the grid spacing.

    Memory: of the tangent data only Q, P and dQ/dp are kept, each
    (n, momentum_nodes); P and dQ/dp are released once stacked into the
    spline's curves.  The peak is inside the spline solve, which holds Q,
    the curves (twice Q's size) and its own buffers; at large n the values
    at the (row, node) pairs, a few arrays of 2 doubles per pair, take over.
    """
    if grid.dim != 1:
        raise NotImplementedError("kernel tabulation is implemented for 1-d grids")
    if momentum_nodes < 4:
        raise ValueError(f"need at least 4 kernel momentum nodes, got {momentum_nodes}")
    check_conjugate_bound(model, spec)
    n = grid.n
    x = grid.axes[0]
    rule = build_momentum_rule(model, momentum_nodes)
    order = slice(None, None, -1 if inverse else 1)
    probes, probe_weights = rule.nodes[order], rule.weights[order]

    # probes flow momentum-major, so Q, P and dQ/dp come out knot-major: their
    # (row, knot) transposed views are the layout the spline sweep walks
    flowed = tangent_batch(np.tile(grid.nodes, (momentum_nodes, 1)), np.repeat(probes, n, axis=0),
                           model, spec, p_column_only=True, **({"inverse": True} if inverse else {}))
    Q, P, dQdp = (a.reshape(momentum_nodes, n).T for a in (flowed[0], flowed[1], flowed[2][1]))
    del flowed  # dP/dp and the Hessian averages are not used
    dQdp = -dQdp if inverse else dQdp
    if np.any(dQdp <= 0):
        raise ValueError("dQ/dp lost positivity along a probe; conjugate point reached")
    if np.any(np.diff(Q, axis=1) <= 0):
        raise ValueError("momentum-to-position map not strictly monotone on a probe")

    log_norm = model.auxiliary_log_mass()

    def gbar(p):
        return np.exp(-model.auxiliary.value(np.asarray(p).reshape(-1, 1)) - log_norm)

    # restrict to image points inside the box: the change of variables maps
    # the position-space double integral over box x box exactly onto
    # {(q, p): Q(q, p) inside the box}
    w = grid.weights
    f = grid.target_values
    gP = gbar(P.reshape(-1)).reshape(n, -1)
    in_box = (Q >= x[0]) & (Q <= x[-1])
    hs_mom = float(np.einsum("i,k,ik->", w, probe_weights, in_box * gP / dQdp))
    truncation = _truncation(grid, in_box, (probe_weights / gbar(probes)) * gP)
    del gP, in_box

    sigma = math.sqrt(float(rule.weights @ rule.nodes[:, 0] ** 2))
    ends, _ = flow_batch(np.tile(grid.nodes, (2, 1)), np.repeat([[sigma], [-sigma]], n, axis=0),
                         model, spec, inverse=inverse)
    width = float(np.min(np.abs(ends[:n, 0] - ends[n:, 0])) / (2 * (x[1] - x[0])))

    # below[i, j] counts the images Q[i, k] <= x[j]: node j on row i's curve lies
    # in piece below - 1, the last piece closed on the right
    below = np.cumsum(np.bincount((np.searchsorted(x, Q) + (n + 1) * np.arange(n)[:, None]).ravel(),
                                  minlength=n * (n + 1)).reshape(n, n + 1)[:, :n], axis=1)
    rows, cols = np.nonzero((below > 0) & (x[None, :] <= Q[:, -1:]))
    piece = np.minimum(below[rows, cols] - 1, momentum_nodes - 2)
    del below
    # the interpolated values stacked knot-major, passed as a (row, knot, 2) view
    curves = np.stack([P.T, dQdp.T], axis=-1).transpose(1, 0, 2)
    del P, dQdp
    vals = spline_coefficients(Q, curves, (rows, piece, x[cols] - Q[rows, piece]))
    del curves, piece, Q
    K = np.zeros((n, n))
    K[rows, cols] = f[cols] * gbar(vals[:, 0]) / vals[:, 1]

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
