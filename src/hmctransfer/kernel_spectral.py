"""Hilbert-Schmidt norm, spectra and rate certificates of the transfer operator.

In 1-d ``assemble_transfer`` returns the Nystrom matrix T_ij = K_ij w_j / f_j
of the explicit kernel K(q, Q) = f(Q) g(P_q(Q)) |dp/dQ|, so (T h)(q) =
<h, K(q, .)> in the f-weighted inner product.  A finite Hilbert-Schmidt norm
makes the operator compact and certifies the spectral gap; ``hs_norm`` takes
it as a position-space double quadrature of the matrix and checks it against
the momentum-space formula int g(p) g(P) D_q dq dp that the tabulation
records.  ``eigen_spectrum`` diagonalizes the operator in its weighted
symmetric frame, and ``certify_rate`` fits the iteration's geometric rate
against the second eigenvalue.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .operator import (
    TransferMatrix,
    to_weighted_symmetric,
    weighted_inner,
    weighted_norm,
    weighted_symmetry_residual,
)

__all__ = [
    "SpectralReport",
    "RateCertificate",
    "hs_norm",
    "eigen_spectrum",
    "certify_rate",
]


def hs_norm(T: TransferMatrix) -> float:
    """Squared Hilbert-Schmidt norm of the operator.

    The position-space double quadrature sum (w_i / f_i) (f_j / w_j) T_ij^2
    over all nodes, the kernel's int int K^2 / (f f) of the Nystrom matrix;
    K / f stays bounded (it is g(P) D_q), so no density floor is needed.  It
    is returned after checking it against the momentum-space estimate
    ``T.meta["hs_norm_sq_momentum"]``, which only the 1-d kernel tabulation
    records; without it this raises ``ValueError``.  Disagreement beyond 1e-3
    relative, or an estimate that is not finite, is reported as a consistency
    failure.
    """
    b = T.meta.get("hs_norm_sq_momentum")
    if b is None:
        raise ValueError("hs_norm needs hs_norm_sq_momentum, which only the 1-d kernel "
                         f"tabulation records; this operator is {T.grid.dim}-d")
    r = T.grid.weights / T.grid.target_values
    a = float(np.einsum("i,j,ij,ij->", r, 1 / r, T.entries, T.entries))
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


def eigen_spectrum(T: TransferMatrix, k: int) -> SpectralReport:
    """Top-k eigenvalues of T through the weighted-similarity symmetric form on ``T.grid``.

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

    grid = T.grid
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


def _log_fit(ns, log_e):
    slope, intercept = np.polyfit(ns, log_e, 1)
    pred = slope * ns + intercept
    ss_res = float(np.sum((log_e - pred) ** 2))
    ss_tot = float(np.sum((log_e - np.mean(log_e)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, r2


def certify_rate(report: SpectralReport, trace) -> RateCertificate:
    """Fit log error against iteration count over the geometric regime.

    The window drops the first three iterations and anything at the numerical
    floor, then trims the leading transient adaptively until the fitted slope
    stabilizes: with a small spectral gap the higher modes pollute far more
    than three steps, and the trim isolates the asymptotic rate.  The
    certificate passes when the fit has r^2 >= 0.99 and the fitted rate is
    within 2 % of the second eigenvalue's modulus; with fewer than ten points
    in the window it passes only if the iteration started converged.
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
        )
    ns = steps[keep]
    log_e = np.log(errors[keep])
    while ns.size >= 15:
        cut = ns.size // 5
        s_full, _ = _log_fit(ns, log_e)
        s_tail, _ = _log_fit(ns[cut:], log_e[cut:])
        if abs(s_tail - s_full) <= 1e-3 * abs(s_tail):
            break
        ns, log_e = ns[cut:], log_e[cut:]
    slope, r2 = _log_fit(ns, log_e)
    rho_emp = float(np.exp(slope))
    mismatch = abs(rho_emp - rho_spec) / rho_spec
    return RateCertificate(
        rho_emp=rho_emp,
        rho_spec=rho_spec,
        mismatch=float(mismatch),
        r_squared=float(r2),
        window=(int(ns[0]), int(ns[-1])),
        n_points=int(ns.size),
        passed=bool(r2 >= 0.99 and mismatch < 0.02),
        trivially_converged=False,
    )
