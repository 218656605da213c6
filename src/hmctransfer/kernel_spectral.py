"""Hilbert-Schmidt norm, spectra and rate certificates of the transfer operator.

``assemble_transfer`` returns the Nystrom matrix T_ij = K_ij w_j / f_j of
the explicit kernel K(q, Q) = f(Q) g(P_q(Q)) |dp/dQ|, so (T h)(q) =
<h, K(q, .)> in the f-weighted inner product.  A finite Hilbert-Schmidt norm
makes the operator compact and certifies the spectral gap; ``hs_norm`` takes
it as a position-space double quadrature of the matrix and checks it against
the momentum-space formula int g(p) g(P) D_q dq dp that the tabulation
records.  ``eigen_spectrum`` takes the eigenvalues of the operator's weighted
symmetric frame, block by block on its even and odd halves when the target
is even, and only the two eigenvectors it reports, the leading and the
second, by inverse iteration on their block; ``certify_rate`` fits the
iteration's geometric rate against the second eigenvalue.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .operator import (
    TransferMatrix,
    parity_blocks,
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
    K / f stays bounded (it is g(P) D_q), so every node counts.  It is
    returned after checking it against the momentum-space estimate
    ``T.meta["hs_norm_sq_momentum"]`` that the kernel tabulation records.
    Disagreement beyond 1e-3 relative, or an estimate that is not finite, is
    reported as a consistency failure.
    """
    b = T.meta["hs_norm_sq_momentum"]
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

    The centred-Gaussian momentum law makes the operator self-adjoint in the
    weighted inner product, so its spectrum is real and the second eigenvalue
    is the convergence rate.  That is a precondition here: a functional
    residual of 1e-6 or more, or NaN, raises instead of returning a spectrum.

    The eigenvalues are taken on the ``parity_blocks`` of T: for an even
    target, whose T is its own mirror image, ``eigvalsh`` runs on the even and
    the odd block, each of half the size, and their eigenvalues are merged by
    |mu|; any other T is one block.  On the quartic at n = 401 the leading
    eigenvalue 1 is even and mu_1 = 0.99460879 odd.  The merged top 64 agree
    with ``eigvalsh`` of the whole symmetric form within 2.4e-15 on the
    quartic and 1.2e-15 on the centred Gaussian at n = 401 and 400.

    No eigenvector matrix is formed.  The leading and the second vector come
    from shifted inverse iteration on the block S_b that owns their
    eigenvalue mu: two solves of (S_b - sigma I) u' = u, sigma = mu +
    1e-12 max(1, |mu|), from u a vector of ones, normalized after each.  The
    start is not f's direction, so a double top eigenvalue still shows (see
    below).  When the second vector lies on the leading one's block, each of
    its solves is orthogonalized against the leading one, so a shared
    eigenvalue gives two orthogonal vectors of its eigenspace.  The unit
    block coordinates u are rebuilt on the whole grid as u / s (s^2 = w / f),
    of unit weighted norm, sum u^2.  Against ``eigh`` of the whole symmetric
    form both vectors agree within 2.3e-14 of their largest entry on the
    quartic and 2.9e-15 on the Gaussians at n = 400 and 401 and the
    mean-0.6 Gaussian.  ``eigvalsh`` and two solves per vector take less
    time than ``eigh``, which forms every eigenvector.  The blocks are this
    call's own arrays: they are symmetrized and shifted in place.

    ``second_mass`` is measured on the rebuilt second vector: for an even
    target it is odd, and its mass is rounding (7.7e-17 on the quartic),
    unless the top eigenvalue is not simple.
    """
    if k < 2:
        raise ValueError(f"top-k spectrum needs k >= 2 for the gap, got k = {k}")
    residual = weighted_symmetry_residual(T)
    if not residual < 1e-6:  # a NaN residual fails too
        raise ValueError(f"operator not self-adjoint (residual {residual:.3e})")

    grid = T.grid
    frame = parity_blocks(T)
    # symmetrized in place: numpy buffers the overlap with the transpose
    blocks = frame.blocks
    for S in blocks:
        S += S.T
        S *= 0.5
    diagonals = [S.diagonal().copy() for S in blocks]
    vals = [np.linalg.eigvalsh(S) for S in blocks]
    starts = np.cumsum([0] + [len(v) for v in vals])
    vals = np.concatenate(vals)
    order = np.argsort(-np.abs(vals), kind="stable")
    k = min(k, len(vals))
    eigenvalues = vals[order[:k]]

    def vector(i, deflate=None):
        """Eigenvector i of the merged list as (b, u): its block and unit
        coordinates there, from two solves (S_b - sigma I) u' = u, sigma just off
        mu_i, from u all ones; each solve is orthogonalized against the unit
        coordinates of ``deflate`` = (b, v) when they lie on the same block."""
        b = int(np.searchsorted(starts, i, side="right")) - 1
        mu, S = vals[i], blocks[b]
        S.flat[::len(S) + 1] = diagonals[b] - (mu + 1e-12 * max(1.0, abs(mu)))
        u = np.ones(len(S))
        for _ in range(2):
            u = np.linalg.solve(S, u)
            if deflate is not None and deflate[0] == b:
                u -= (deflate[1] @ u) * deflate[1]
            u /= np.linalg.norm(u)
        return b, u

    def whole(b, u):
        """The coordinates u on block b as a vector on the whole grid, u / s."""
        parts = [np.zeros(len(S)) for S in blocks]
        parts[b] = u
        return frame.join(parts) / grid.scale

    first = vector(order[0])
    lead = whole(*first)
    if weighted_inner(lead, grid.target_values, grid) < 0:
        lead = -lead

    # measured, not taken as 0 from the parity of the vector: for an even target
    # the second eigenvector is odd, and its mass is then rounding
    second = whole(*vector(order[1], deflate=first))
    second_mass = (abs(weighted_inner(second, grid.target_values, grid))
                   / weighted_norm(grid.target_values, grid))
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
    """Least-squares geometric-rate fit against the spectral prediction.

    ``mismatch`` is |log rho_emp - log rho_spec| / |log rho_spec|, the relative
    error of the fitted spectral gap; NaN when no rate is fitted or rho_spec
    lies outside (0, 1)."""

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
    certificate passes when the fit has r^2 >= 0.99 and the fitted log rate is
    within 1 % of log |mu_1|, mu_1 the second eigenvalue.  The error decays as
    |mu_1|^k and log |mu_1| = -gap + O(gap^2), so this is a 1 % target on the
    spectral gap; a 2 % tolerance on the rate itself accepts gaps from 0 to
    4.7 times the true one at |mu_1| = 0.9946.  An operator that mixes in a
    few steps leaves fewer than three points above the floor; then no rate is
    fitted, and the certificate passes, marked ``trivially_converged``, if and
    only if the iteration converged.
    """
    errors = np.asarray(trace.errors, dtype=float)
    steps = np.asarray(trace.steps, dtype=float)
    # the discretization limits how far the error can fall; fitting into the
    # saturated plateau would flatten the slope, so cut a decade above it
    floor = max(1e-12, 10.0 * float(np.min(errors)))
    keep = (steps >= 3) & (errors > floor)
    rho_spec = report.rate_bound
    if np.count_nonzero(keep) < 3:
        trivially = bool(trace.converged)
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
    log_spec = math.log(rho_spec) if 0.0 < rho_spec < 1.0 else math.nan
    mismatch = abs(slope - log_spec) / abs(log_spec)
    return RateCertificate(
        rho_emp=float(np.exp(slope)),
        rho_spec=rho_spec,
        mismatch=float(mismatch),
        r_squared=float(r2),
        window=(int(ns[0]), int(ns[-1])),
        n_points=int(ns.size),
        passed=bool(r2 >= 0.99 and mismatch < 1e-2),
        trivially_converged=False,
    )
