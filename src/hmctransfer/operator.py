"""Discretized density space and the transfer operator.

The position domain [-L, L] of a 1-d model carries a trapezoid grid; densities
are vectors of node values and the Hilbert structure is the f-weighted inner
product sum w a b / f.  One operator application spreads a density over
momenta with the momentum density g, flows every phase point, and integrates
the momenta back out:

    (T h)(q) = int h(Q(q, p)) g(P(q, p)) dp,   g the N(0, 1) density.

Substituting Q for p turns this into (T h)(q) = int h(Q) K(q, Q) / f(Q) dQ
with the explicit kernel K(q, Q) = f(Q) g(P_q(Q)) D_q(Q): the target at the
arrival point, the momentum density at the conjugate momentum, and the
Jacobian factor D_q = |dp/dQ| of the change of variables.  The kernel is
tabulated from one flow of a dense momentum probe per node, splining (P, p)
over Q along each monotone image curve: P is the spline's value and D_q the
slope of p.  The +-1 width probes and the two end probes of all rows are
flowed first, in a sweep of their own, and a kernel narrower than a grid cell
is refused before any curve is splined.  Each row's curve is independent of
the others', so the rows are then tabulated in blocks of at most
``ROW_BLOCK_POINTS`` phase points and as many (row, node) pairs, one flow and
one batched spline solve per block, into a T allocated before the first; the
tabulation's working memory scales with the block instead of with all n m
probe points.  The matrix is the
kernel's Nystrom discretization on the grid's trapezoid rule,
T_ij = K(q_i, x_j) w_j / f_j (Atkinson, The Numerical Solution of Integral
Equations of the Second Kind, 1997, ch. 4): nonnegative entries, and the
symmetry of K(q, Q) / sqrt(f(q) f(Q)) carried node by node into the
symmetric frame.  The rule converges exponentially for the smooth kernel
rows (Trefethen and Weideman, SIAM Review 56, 2014) once the kernel spans a
grid cell; a narrower one is refused.  The tabulation also records the
momentum-space Hilbert-Schmidt estimate that ``kernel_spectral.hs_norm``
checks.

The momentum law is N(0, 1) (``ModelPair``), so its density is even: the
momentum flip conjugates the flow to its inverse and makes T its own adjoint.

An even target (``Potential.is_even``) gives a second identity.  Then the
flow commutes with (q, p) -> (-q, -p), and leapfrog and the exact Gaussian
map keep that symmetry bit for bit, IEEE negation being exact.  The grid
nodes and the momentum probes are exactly antisymmetric, so row n - 1 - i's
probe curve is row i's, negated and reversed, and K(-q, -Q) = K(q, Q) gives
T[n - 1 - i, n - 1 - j] = T[i, j].  The tabulation then flows, splines and
evaluates only rows 0 ... ceil(n / 2) - 1 and writes the other rows as their
mirror images; for odd n the middle row is made palindromic.  Any other
target has all n rows tabulated.

``iterate`` runs the fixed-point iteration h -> T h.  A run that goes past n
steps (n the grid size) with budget left to pay for forming powers of T
switches to block mode, B = ``BLOCK_STEPS``: the B latest iterates advance
together by one product with the B-th power, which reads the matrix once per
B steps instead of once per step.  Block mode runs in the weighted symmetric
frame, on the ``parity_blocks`` of T: for an even target T commutes with the
reflection of the grid, so the frame splits into an even and an odd block of
half the size each, and a product with both costs half of one with T.  The
stop rules are replayed per step, so a blocked run ends at the step the
one-matvec loop ends at, with norms and errors equal to that loop's up to
rounding.  ``kernel_spectral.eigen_spectrum`` diagonalizes the same two
blocks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .distributions import ModelPair, density_value, kinetic_energy
from .dynamics import BLOCK_POINTS, FlowSpec, check_conjugate_bound, flow_batch

__all__ = [
    "DensityGrid",
    "MomentumRule",
    "TransferMatrix",
    "IterationTrace",
    "build_grid",
    "mass",
    "weighted_inner",
    "weighted_norm",
    "build_momentum_rule",
    "spline_coefficients",
    "spline_pieces",
    "assemble_transfer",
    "probe_densities",
    "weighted_symmetry_residual",
    "to_weighted_symmetric",
    "ParityBlocks",
    "parity_blocks",
    "iterate",
]


@dataclass(frozen=True)
class DensityGrid:
    """Trapezoid nodes ``x`` (n,) on [-L, L], their weights and the target
    density at them; every node takes part in the weighted norms."""

    x: np.ndarray
    weights: np.ndarray
    target_values: np.ndarray

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def halfwidth(self) -> float:
        """Largest |x| where f > 1e-12 max f: ``probe_densities`` scale with
        the region that holds the target, not with the whole box."""
        f = self.target_values
        return float(np.max(np.abs(self.x[f > 1e-12 * float(np.max(f))])))

    @property
    def scale(self) -> np.ndarray:
        """sqrt(w / f): multiplying by it carries the f-weighted inner product
        to the plain one of the symmetric frame."""
        return np.sqrt(self.weights / self.target_values)


def _trapezoid_axis(halfwidth: float, n: int):
    """Trapezoid nodes on [-L, L], exactly antisymmetric (x[n - 1 - i] = -x[i], the
    middle node of odd n 0.0), and their weights.  ``linspace`` alone misses -x[i]
    by up to a few ulps of L; 0.5 (x - x[::-1]) is antisymmetric by construction and
    keeps both ends."""
    x = np.linspace(-halfwidth, halfwidth, n)
    x = 0.5 * (x - x[::-1])
    w = np.full(n, x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return x, w


def build_grid(model: ModelPair, n_per_axis: int) -> DensityGrid:
    """Trapezoid grid over [-L, L] with the target tabulated on it.

    The nodes are exactly antisymmetric, x[n - 1 - i] = -x[i] bit for bit with
    x[0] = -L and x[-1] = L, and the weights symmetric, so an even target's
    values are symmetric too; ``assemble_transfer`` relies on it.  A target
    that underflows at a node, so that w / f is not finite there, raises
    ``ValueError``: every weighted norm divides by f, and T's columns are
    scaled by w / f.
    """
    if n_per_axis < 16:
        raise ValueError(f"need at least 16 nodes per axis, got {n_per_axis}")
    L = model.domain_halfwidth
    x, w = _trapezoid_axis(L, n_per_axis)
    f = density_value(model.target, x)
    # an f of 0, or one so small that w / f overflows
    with np.errstate(divide="ignore", over="ignore"):
        lost = np.count_nonzero(~np.isfinite(w / f))
    if lost:
        raise ValueError(f"the target density underflows at {lost} of {n_per_axis} nodes, "
                         f"where w / f is not finite: narrow the box")

    fine_x, fine_w = _trapezoid_axis(L, 2 * n_per_axis - 1)
    ref = float(fine_w @ density_value(model.target, fine_x))
    got = float(w @ f)
    if abs(got - ref) > 1e-3 * abs(ref):
        warnings.warn(
            f"grid too coarse: integral of f deviates from refined reference by "
            f"{abs(got - ref) / abs(ref):.2e} relative"
        )
    return DensityGrid(x=x, weights=w, target_values=f)


def mass(h, grid: DensityGrid) -> float:
    """Total mass sum w h over all nodes."""
    return float(grid.weights @ np.asarray(h, dtype=float))


def weighted_inner(a, b, grid: DensityGrid) -> float:
    """f-weighted inner product sum w a b / f over all nodes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.sum(grid.weights * a * b / grid.target_values))


def weighted_norm(h, grid: DensityGrid) -> float:
    return math.sqrt(weighted_inner(h, h, grid))


@dataclass(frozen=True)
class MomentumRule:
    """Quadrature nodes p_k (m,) and weights for integrals against the
    N(0, 1) momentum density; weights sum to one, so a constant integrand is
    integrated exactly."""

    nodes: np.ndarray
    weights: np.ndarray


# Momentum probe box half-width, in standard deviations of the N(0, 1) momentum
# law; its two tails hold erfc(PROBE_SDS / sqrt(2)) = 4.9e-13 of the mass.  It is
# 4229 steps of 14/8192: the box that a search of the cumulative trapezoid of
# exp(-p^2 / 2) on 8193 points returned wherever its arithmetic was exact, so no
# benchmark T moves.
PROBE_SDS = 7.227294921875


def build_momentum_rule(m: int) -> MomentumRule:
    """Momentum quadrature matched to the N(0, 1) momentum density.

    A trapezoid rule on [-``PROBE_SDS``, ``PROBE_SDS``], weighted by
    exp(-``kinetic_energy``): the probes along which ``assemble_transfer``
    flows each node to tabulate the kernel, splining P and p over the image
    curve, so m counts knots of that spline and must be at least 4.
    """
    if m < 4:
        raise ValueError(f"need at least 4 kernel momentum nodes, got {m}")
    pts, wt = _trapezoid_axis(PROBE_SDS, m)
    wt = wt * np.exp(-kinetic_energy(pts))
    wt = wt / wt.sum()
    return MomentumRule(nodes=pts, weights=wt)


def spline_coefficients(x: np.ndarray, curves) -> np.ndarray:
    """Knot slopes (B, N, R) of the not-a-knot cubic splines through the R curves y(x).

    x is (B, N), N >= 4, and ``curves`` a sequence of R arrays (B, N), each of
    any layout and possibly a broadcast view.  One forward and one backward
    sweep along N solve the tridiagonal system for the knot slopes of all B
    rows (de Boor, A Practical Guide to Splines, ch. IV), without pivoting:
    the matrix is diagonally dominant after the first elimination.  With the
    knot values the slopes fix every piece as a cubic Hermite interpolant, so
    callers evaluate only the pieces, values or derivatives they need.

    The sweep steps along the knot axis, so its buffers are laid out knot
    axis first in memory, as (B, N) and (B, N, R) views of (N, B) and
    (N, B, R) blocks: each step then reads and writes B contiguous values,
    and the slopes come back as such a view.  Every operation is elementwise,
    so the slopes do not depend on the layout of x or the curves.

    Memory: besides the slopes, which the sweep computes in place from the
    right-hand side, the solve makes two (B, N) arrays.  The knot spacings dx
    are one; the off-diagonal bands are read as its rows, upper[i] = dx[i - 1]
    and lower[i] = dx[i], with the two not-a-knot end entries kept aside.
    The right-hand side is filled one curve at a time through one (B, N - 1)
    secant buffer, released before the diagonal, the other, is made.
    """
    n = x.shape[1]
    if n < 4:
        raise ValueError(f"not-a-knot spline needs at least 4 knots, got {n}")
    rows = x.shape[0]
    dx = np.subtract(x[:, 1:], x[:, :-1], out=np.empty((n - 1, rows)).T)
    # not-a-knot: the cubic coefficient is continuous at the second and last-but-one knot
    head = x[:, 2] - x[:, 0]
    tail = x[:, -1] - x[:, -3]

    # tridiagonal rows: lower[i] * s[i - 1] + diag[i] * s[i] + upper[i] * s[i + 1] = b[i]
    b = np.empty((n, rows, len(curves))).transpose(1, 0, 2)
    secant = np.empty((n - 1, rows)).T
    first = (dx[:, 0] + 2 * head) * dx[:, 1]
    last = (2 * tail + dx[:, -1]) * dx[:, -2]
    for r, y in enumerate(curves):
        np.subtract(y[:, 1:], y[:, :-1], out=secant)
        secant /= dx
        b[:, 0, r] = (first * secant[:, 0] + dx[:, 0] ** 2 * secant[:, 1]) / head
        b[:, -1, r] = (dx[:, -1] ** 2 * secant[:, -2] + last * secant[:, -1]) / tail
        # b[i] = 3 (dx[i] secant[i - 1] + dx[i - 1] secant[i]) in place, without temporaries:
        # products commute, so it rounds as the out-of-place expression
        inner = b[:, 1:-1, r]
        np.multiply(dx[:, 1:], secant[:, :-1], out=inner)
        secant[:, 1:] *= dx[:, :-1]
        inner += secant[:, 1:]
        inner *= 3
    del secant
    diag = np.empty((n, rows))
    np.add(dx.T[:-1], dx.T[1:], out=diag[1:-1])
    diag[1:-1] *= 2
    diag[0], diag[-1] = dx.T[1], dx.T[-2]
    # the sweep steps through knot-major rows, one contiguous row per knot, into
    # two reused buffers: the same products and differences as
    # b[:, i] -= fact[:, None] * b[:, i - 1] and diag[:, i] -= fact * upper[:, i - 1],
    # b first, since the diag product overwrites fact
    # the off-diagonal bands as rows of dx: upper[0] = head and lower[n - 1] = tail.
    # Bands, diag and b are lists of per-knot (B, 1) and (B, R) views, made once: a
    # list index costs less than an array slice, and the knot loop runs once per
    # row block of the kernel tabulation
    upper = [head[:, None], *dx.T[:-1, :, None]]
    lower = [*dx.T[:, :, None], tail[:, None]]
    b_k, d_k = list(b.transpose(1, 0, 2)), list(diag[:, :, None])
    fact, prod = np.empty((rows, 1)), np.empty(b_k[0].shape)
    for i in range(1, n):
        np.divide(lower[i], d_k[i - 1], out=fact)
        b_k[i] -= np.multiply(fact, b_k[i - 1], out=prod)
        d_k[i] -= np.multiply(fact, upper[i - 1], out=fact)
    b_k[-1] /= d_k[-1]
    for i in range(n - 2, -1, -1):
        b_k[i] -= np.multiply(upper[i], b_k[i + 1], out=prod)
        b_k[i] /= d_k[i]
    return b


@dataclass
class TransferMatrix:
    """Dense matrix realization of the transfer operator on a grid."""

    entries: np.ndarray
    grid: DensityGrid
    meta: dict = field(default_factory=dict)

    def apply(self, h) -> np.ndarray:
        return self.entries @ np.asarray(h, dtype=float)


def _truncation(grid: DensityGrid, frac_outside: float, escaped: np.ndarray) -> dict:
    """Domain truncation for an operator's meta: ``frac_outside``, the share of
    flow images outside the box, and ``leaked_mass``, the f x g measure of
    {q in the box, Q(q, p) outside it} relative to the box's f-mass,
    sum_i w_i f_i escaped_i / sum_i w_i f_i, with escaped_i node i's probe
    weights summed over its images outside the box.  The flow conserves
    f(q) g(p), so this is the mass T loses from f, 1 - mass(T f) / mass(f), up
    to the flow's energy error; a leak above 1e-6, the fixed-point bound, is
    warned about.  The share alone tells little: the quartic's probes span the
    momentum law's tails, so 3% of its images leave the box with 4e-13 of the
    mass."""
    f = grid.target_values
    leaked = float((grid.weights * f) @ escaped) / float(grid.weights @ f)
    if leaked > 1e-6:
        warnings.warn(
            f"domain truncation: {100 * frac_outside:.3f}% of flow images leave the box, "
            f"leaked relative mass {leaked:.3e}"
        )
    return {"frac_outside": frac_outside, "leaked_mass": leaked}


# phase points per block of kernel rows: smaller blocks run the spline's knot
# loop too often, larger ones set the tabulation's peak with their own arrays
ROW_BLOCK_POINTS = 4 * BLOCK_POINTS


def assemble_transfer(
    grid: DensityGrid,
    model: ModelPair,
    spec: FlowSpec,
    momentum_nodes: int,
) -> TransferMatrix:
    """Assemble the transfer operator: the ``TransferMatrix`` of the Nystrom
    matrix T_ij = K(q_i, x_j) w_j / f_j, from one flow of ``momentum_nodes``
    probes per node.

    Valid in the invertibility regime: past the conjugate-point bound it
    raises ``ValueError`` before any flow.  p -> Q(q, p) must be strictly
    monotone for every node: Q must rise strictly along every probe and dp/dQ
    stay positive, else ``ValueError``.  Arrival points outside the probed
    image curve carry kernel value zero (the momentum density is already
    negligible there).

    ``meta`` records the flow, the probe count, the probe images' domain
    truncation, the momentum-space Hilbert-Schmidt estimate
    ``hs_norm_sq_momentum`` and ``kernel_width_cells``, the min over rows of
    |Q(q_i, 1) - Q(q_i, -1)| / 2h, the probes at one standard deviation of
    the N(0, 1) momentum law, and h the grid spacing.  The trapezoid error
    falls as exp(-2 pi^2 s^2) in the kernel width s in cells: in the Gaussian
    rate and mass 1e-12 at s = 2, 5e-9 at 1, 1e-2 at 0.5 (n = 401).  Below one
    cell this raises ``ValueError`` before any spline is solved.

    Rows: for an even target (``model.target.is_even``) the flow commutes
    with (q, p) -> (-q, -p) bit for bit, and the grid nodes and the probes
    are exactly antisymmetric, so K(-q, -Q) = K(q, Q) gives
    T[n - 1 - i, n - 1 - j] = T[i, j].  Only rows 0 ... ceil(n / 2) - 1 are
    then flowed, splined and evaluated; row n - 1 - i is written as row i
    reversed, and for odd n the middle row, its own mirror image, keeps its
    left half and is made palindromic.  The per-row Hilbert-Schmidt and escape
    sums and in-box counts are reflected the same way.  Any other target has
    all n rows tabulated; ``meta["tabulated_rows"]`` records ceil(n / 2) or n.
    Against a full tabulation of the same functions the entries agree to
    rounding (quartic n = 401: 6.2e-16 of max |T|), and ``frac_outside`` and
    ``kernel_width_cells`` are equal: the +-1 width sweep still flows
    every row.

    Memory: after the width sweep, each row's probe curve is flowed, splined,
    checked and evaluated on its own, so the tabulated rows pass through in
    blocks of at most ``ROW_BLOCK_POINTS // max(m, span)`` rows (at least
    one), of balanced sizes, and each block's arrays are freed before the
    next: the working set scales with the block, not with n m, and every entry
    of T keeps its bits.  The span is the most nodes any row's curve covers,
    counted between the images of the end probes +-``PROBE_SDS``, which the
    width sweep flows too, so a block holds at most ``ROW_BLOCK_POINTS`` probe
    points and as many (row, node) pairs.  The quartic's kernel spans at most
    67 nodes at n = 401, fewer than its probes, and its blocks are those of
    the probe bound alone; the centred Gaussian's at n = 801, t = 0.7 spans
    466, and its 401 tabulated rows at m = 257 pass in two blocks of 201 and
    200 instead of one, 24.6 -> 15.4 MiB traced, T unchanged bit for bit.
    Within a block the spline reads P as a view of the flow's output and p as
    a broadcast of the probes, so no curve is copied; the solve, then the
    (row, node) pairs, set the peak.  A block leaves only its per-row
    Hilbert-Schmidt and escape sums and its values at the pairs, scattered
    into T, and K is scaled into T in place.  T is allocated, zeroed, before
    the first block.  ``tracemalloc`` counts it from that moment, so the
    traced peak is higher than with T allocated after the first block's
    arrays are freed (quartic n = 401: 2.79 -> 4.02 MiB at m = 257; Gaussian
    n = 801, m = 257 in one block: 19.7 -> 24.6 MiB).  The process's resident
    memory counts T's pages only as the blocks write them, and there the two
    orders read the same: the CLI's peak RSS on the quartic at n = 401, T allocated after
    the first block -> before it, was 41.29 -> 41.32 MiB (kernel-norm),
    41.95 -> 42.04 (operator) and 41.91 -> 41.89 (sampler-check), medians of
    8 runs each on a 2-core Linux machine with NumPy 2.4.6.  Balanced blocks
    matter there: kernel-norm's 201 tabulated rows at m = 1025 as blocks of
    127 and 74 instead of 101 and 100 read 41.90 MiB.
    """
    check_conjugate_bound(model, spec)
    n, m = grid.n, momentum_nodes
    x, w, f = grid.x, grid.weights, grid.target_values
    rule = build_momentum_rule(m)
    log_norm = 0.5 * math.log(2.0 * math.pi)

    def gbar(p):
        return np.exp(-kinetic_energy(p) - log_norm)

    # the +-1 width probes of every row, one standard deviation, flowed and gated
    # before any block, so a kernel too narrow for the grid is refused before any
    # spline is solved; with them the end probes, whose images bound each row's
    # span of nodes
    ends = flow_batch(np.tile(x, 4), np.repeat([1.0, -1.0, *rule.nodes[[-1, 0]]], n),
                      model, spec)[0].reshape(4, n)
    width = float(np.min(np.abs(ends[0] - ends[1])) / (2 * (x[1] - x[0])))
    if not width >= 1:
        raise ValueError(f"kernel_width_cells = {width:.3g} < 1: the grid cannot "
                         f"resolve the kernel; refine the grid or lengthen the flow")
    span = int(np.max(np.searchsorted(x, ends[2], "right") - np.searchsorted(x, ends[3])))

    T = np.zeros((n, n))
    # an even target's row n - 1 - i mirrors row i: only the first ceil(n / 2) are tabulated
    even = model.target.is_even
    tabulated = n - n // 2 if even else n
    hs_rows, escaped, inside = np.empty(n), np.empty(n), np.empty(n, dtype=np.int64)
    # blocks of balanced sizes, each of at most ROW_BLOCK_POINTS probe points and
    # as many (row, node) pairs
    blocks = -(-tabulated // max(1, ROW_BLOCK_POINTS // max(m, span)))
    step, sub = -(-tabulated // blocks), max(1, BLOCK_POINTS // m)
    for lo in range(0, tabulated, step):
        r = min(step, tabulated - lo)
        block = slice(lo, lo + r)
        # the block's probes momentum-major, so Q and P come out knot-major for the spline
        Q, P = flow_batch(np.tile(x[block], m), np.repeat(rule.nodes, r), model, spec)
        Q = Q.reshape(m, r).T
        if not np.all(np.diff(Q, axis=1) > 0):
            raise ValueError("momentum-to-position map not strictly monotone on a probe")
        # the curves P and p over (row, knot), as views
        P = P.reshape(m, r).T
        p = np.broadcast_to(rule.nodes, (r, m))
        slopes = spline_coefficients(Q, (P, p))
        if not np.all(slopes[:, :, 1] > 0):
            raise ValueError("dp/dQ lost positivity along a probe; conjugate point reached")

        # restrict to image points inside the box: the change of variables maps
        # the position-space double integral over box x box exactly onto
        # {(q, p): Q(q, p) inside the box}
        in_box = (Q >= x[0]) & (Q <= x[-1])
        # g(P) in sub-blocks, so gbar's temporaries stay flow-block-sized
        hs = np.empty((r, m))
        for i in range(0, r, sub):
            hs[i:i + sub] = gbar(P[i:i + sub])
        hs *= in_box
        hs *= slopes[:, :, 1]
        hs_rows[block] = hs @ rule.weights
        del hs
        escaped[block] = ~in_box @ rule.weights
        inside[block] = np.count_nonzero(in_box, axis=1)
        del in_box

        # below[i, j] counts the images Q[i, k] <= x[j]: node j on row i's curve lies
        # in piece below - 1, the last piece closed on the right
        counts = np.bincount((np.searchsorted(x, Q) + (n + 1) * np.arange(r)[:, None]).ravel(),
                             minlength=r * (n + 1)).reshape(r, n + 1)
        below = np.cumsum(counts, axis=1, out=counts)[:, :n]
        rows, cols = np.nonzero((below > 0) & (x[None, :] <= Q[:, -1:]))
        piece = np.minimum(below[rows, cols] - 1, m - 2)
        del counts, below
        at, nxt = (rows, piece), (rows, piece + 1)
        h = Q[nxt] - Q[at]
        s = x[cols] - Q[at]
        del Q
        P_at = _spline_piece(P, slopes[:, :, 0], at, nxt, h, s)
        D_at = _spline_piece(p, slopes[:, :, 1], at, nxt, h, s, slope=True)
        del P, p, slopes, at, nxt, piece, h, s
        if not np.all(D_at > 0):
            raise ValueError("dp/dQ lost positivity between probes; conjugate point reached")
        T[lo + rows, cols] = f[cols] * gbar(P_at) * D_at
        del rows, cols, P_at, D_at
    if even:
        # the mirror images of the tabulated rows; the middle row of odd n is its own
        half = n // 2
        T[n - half:] = T[half - 1::-1, ::-1]
        if n % 2:
            T[half, half + 1:] = T[half, half - 1::-1]
        for per_row in (hs_rows, escaped, inside):
            per_row[n - half:] = per_row[half - 1::-1]
    T *= w / f
    meta = {"gaussian_model": model.is_gaussian, "method": spec.method,
            "time": spec.time, "steps": spec.steps, "momentum_nodes": m,
            "momentum_halfwidth": float(rule.nodes[-1]), "kernel_width_cells": width,
            "tabulated_rows": tabulated, "hs_norm_sq_momentum": float(w @ hs_rows),
            **_truncation(grid, 1.0 - int(inside.sum()) / (n * m), escaped)}
    return TransferMatrix(entries=T, grid=grid, meta=meta)


def spline_pieces(y, slopes, at, nxt, h):
    """Power-form coefficients (c0, c1, s0, y0) of the cubic pieces from knots ``at``
    to ``nxt`` (any matching indices), h apart, of the spline with knot values y and
    slopes ``slopes``: CubicSpline's form ((c0 s + c1) s + s0) s + y0 at offset s."""
    s0 = slopes[at]
    rise = (y[nxt] - y[at]) / h  # the secant slope
    c0 = (slopes[nxt] + s0 - 2 * rise) / h
    c1 = (rise - s0) / h - c0
    return c0 / h, c1, s0, y[at]


def _spline_piece(y, slopes, at, nxt, h, s, slope=False):
    """Value, or with ``slope`` the slope, at offset s into the pieces ``at`` to ``nxt``.
    A call of its own, so one evaluation's coefficients are freed before the next:
    inlined, they raised the Gaussian n = 801, m = 257 traced peak from 30.2 to 37.1 MiB."""
    c0, c1, s0, y0 = spline_pieces(y, slopes, at, nxt, h)
    if slope:
        return (3 * c0 * s + 2 * c1) * s + s0
    return ((c0 * s + c1) * s + s0) * s + y0


def to_weighted_symmetric(T: TransferMatrix) -> np.ndarray:
    """Similarity transform to the ordinary-symmetric form.

    Conjugation by diag(sqrt(w/f)) turns self-adjointness in the f-weighted
    inner product into matrix symmetry.  Returns the conjugated matrix.
    """
    scale = T.grid.scale
    return (scale[:, None] / scale[None, :]) * T.entries


_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class ParityBlocks:
    """The weighted symmetric frame A = S T S^-1, S = diag(sqrt(w / f)), of a
    transfer matrix as diagonal blocks, and the change to their coordinates.

    A T that equals its mirror image, T[n - 1 - i, n - 1 - j] = T[i, j], on a
    grid with sqrt(w / f) symmetric gives an A that commutes with the
    reflection J, so A is block diagonal in the orthonormal basis of the even
    vectors (e_i + e_{n-1-i}) / sqrt 2, i < n // 2, and for odd n e_mid, and
    the odd vectors (e_i - e_{n-1-i}) / sqrt 2 (Fassler and Stiefel, Group
    Theoretical Methods and Their Applications, 1992).  ``blocks`` is
    then (E, O), of sizes ceil(n / 2) and n // 2: E[i, j] = A[i, j] +
    A[i, n - 1 - j] with the middle row and column of odd n divided by
    sqrt 2, and O[i, j] = A[i, j] - A[i, n - 1 - j].  Any other T is the one
    block A, and ``split`` and ``join`` pass vectors through.
    """

    blocks: tuple

    def split(self, v) -> list:
        """The coordinates of symmetric-frame vectors v (..., n), one array
        (..., size) per block."""
        if len(self.blocks) == 1:
            return [v]
        half = len(self.blocks[1])
        head, tail = v[..., :half], v[..., :-half - 1:-1]
        even = np.empty(v.shape[:-1] + (len(self.blocks[0]),))
        even[..., :half] = (head + tail) * _SQRT_HALF
        even[..., half:] = v[..., half:-half]
        return [even, (head - tail) * _SQRT_HALF]

    def join(self, parts) -> np.ndarray:
        """The symmetric-frame vectors (..., n) of the coordinates ``parts``."""
        if len(self.blocks) == 1:
            return parts[0]
        even, odd = parts
        half = odd.shape[-1]
        v = np.empty(odd.shape[:-1] + (even.shape[-1] + half,))
        v[..., :half] = (even[..., :half] + odd) * _SQRT_HALF
        v[..., :-half - 1:-1] = (even[..., :half] - odd) * _SQRT_HALF
        v[..., half:-half] = even[..., half:]
        return v


def parity_blocks(T: TransferMatrix) -> ParityBlocks:
    """T's weighted symmetric frame as ``ParityBlocks``: two blocks when
    ``T.entries`` equals ``T.entries[::-1, ::-1]`` bit for bit and
    ``T.grid.scale`` is symmetric, as for an even target on its antisymmetric
    grid, else one.

    The two blocks are read from the first ceil(n / 2) rows of T, since the
    symmetric scale gives A[i, j] + A[i, n - 1 - j] = (T[i, j] + T[i, n - 1 - j])
    s_i / s_j; A itself is never formed.  Each block is a quarter of A, so a
    product with both costs half of one with A, and a factorization a quarter.
    """
    entries, scale = T.entries, T.grid.scale
    if not (np.array_equal(entries, entries[::-1, ::-1]) and np.array_equal(scale, scale[::-1])):
        return ParityBlocks((to_weighted_symmetric(T),))
    half = len(scale) // 2
    size = len(scale) - half
    mirror = entries[:size, ::-1]  # mirror[i, j] = T[i, n - 1 - j]
    even = entries[:size, :size] + mirror[:, :size]
    odd = entries[:half, :half] - mirror[:half, :half]
    # the middle row and column of odd n: e_mid against the pairs, counted twice above
    even[half:] *= _SQRT_HALF
    even[:, half:] *= _SQRT_HALF
    # s_i / s_j times each block as plain expressions: scaled in place instead,
    # the sampler-check CLI's peak RSS on the quartic read 41.4 MiB, not 40.3
    # (medians of 12 runs each, 2-core Linux machine)
    return ParityBlocks(tuple((scale[:len(b), None] / scale[None, :len(b)]) * b
                              for b in (even, odd)))


def probe_densities(grid: DensityGrid) -> np.ndarray:
    """The (24, n) test densities of every functional check of T: Gaussian bumps
    of peak 1 at the 8 centres linspace(-0.3 L, 0.3 L, 8), each at the widths
    L / 16, L / 10 and 9 L / 80, L = ``grid.halfwidth`` (11.6 to 22.5 grid
    cells at n = 401 on the Gaussian and quartic fixtures).  The centres cover
    [-L / 4, L / 4] and the widths [L / 16, 9 L / 80], the range of the smooth
    random mixtures the tests draw; every check is scale-free, so the peak
    height does not matter."""
    L = grid.halfwidth
    centers = np.linspace(-0.3 * L, 0.3 * L, 8)
    sigmas = np.array([0.0625, 0.1, 0.1125]) * L
    return np.exp(-0.5 * (grid.x - np.repeat(centers, 3)[:, None]) ** 2
                  / np.tile(sigmas, 8)[:, None] ** 2)


def weighted_symmetry_residual(T: TransferMatrix) -> float:
    """Self-adjointness residual of the operator in the weighted inner product.

    Measured functionally on the ``probe_densities`` P, max over pairs of
    |<T a, b> - <a, T b>| / (||a|| ||b||), the deviation the Hilbert-space
    argument actually uses: one product TP = P T^t and one weighted Gram
    matrix G = TP diag(w / f) P^t give every pair at once as |G - G^t|.
    NaN when any pair's deviation is NaN.
    """
    grid = T.grid
    probes = probe_densities(grid)
    weighted = probes * (grid.weights / grid.target_values)
    gram = (probes @ T.entries.T) @ weighted.T
    norms = np.sqrt(np.einsum("ij,ij->i", probes, weighted))
    # np.max, unlike max, does not skip a NaN
    return float(np.max(np.abs(gram - gram.T) / np.outer(norms, norms)))


# Steps per block-mode product X <- A^B X.  A power of two: A^B takes
# log2(B) squarings.  With the two parity blocks, the 12000-step quartic
# iterate at n = 401 took 66, 58 and 51 ms at B = 32, 64 and 128 (medians of 6
# fresh processes, 2-core Linux machine, NumPy 2.4.6 on OpenBLAS 0.3.31).
BLOCK_STEPS = 128


@dataclass(frozen=True)
class IterationTrace:
    """Per-step norms and errors of the fixed-point iteration h -> T h."""

    steps: np.ndarray
    norms: np.ndarray
    errors: np.ndarray
    alpha: float
    tol: float
    converged: bool
    anomaly: bool
    final: np.ndarray


def iterate(T: TransferMatrix, h0, n_max: int, tol: float) -> IterationTrace:
    """Iterate the operator, tracking ||T^n h|| and the error to alpha f.

    alpha = mass(h0) / mass(f) identifies the limit density.  The norm column
    realizes the monotone limit V(h) = lim ||T^n h||^2.  The run stops once
    the error is below ``tol``, at step ``n_max``, or with an anomaly (broken
    discretization) when the error has risen ten steps in a row and exceeds
    three times the best error so far.  An h0 whose mass is zero or not
    finite raises ``ValueError``: its limit alpha f would be zero or
    undefined, and a zero h0 would read as converged at step 0.  A signed h0
    of negative mass is accepted; its limit alpha f is well defined.

    Each step is one matvec until the run has taken n steps, n the grid size.
    If it has not stopped by then and the budget left, n_max - n, is at least
    log2(B) n steps, whose matvecs with T cost as many flops as log2(B)
    squarings of T (B = ``BLOCK_STEPS``; the blocks' squarings cost less), the
    run switches to block mode in the weighted symmetric frame y = sqrt(w / f) h, on the ``parity_blocks`` of T:
    two blocks of half the size when T is its own mirror image (an even
    target), else one.  The B latest iterates X = [y_k, ..., y_{k+B-1}], in
    the blocks' coordinates, advance together as X <- A^B X block by block,
    one product that reads each block once for B steps; the first X is y_n
    and the B - 1 matvecs with the blocks after it.  Norms and errors are
    plain 2-norms summed over the blocks, computed for a whole X at once, and
    the stop rules are then replayed step by step, so the trace ends at the
    step the one-matvec loop ends at.  Up to step n the trace is bitwise that
    loop's; after it, the blocks round differently from T's matvecs, and
    norms and errors agree with the loop's to rounding (quartic at n = 401,
    12000 steps: norms within 9.6e-15 relative, errors within 2.8e-16 of
    norms[0], ``final`` within 1.1e-14 of its largest entry).  ``final`` is
    the iterate at the last step, an array of its own.
    """
    grid = T.grid
    h = np.asarray(h0, dtype=float).copy()
    h_mass = mass(h, grid)
    if not (math.isfinite(h_mass) and h_mass != 0):
        raise ValueError(f"initial density must have finite nonzero mass, got {h_mass}")
    alpha = h_mass / mass(grid.target_values, grid)
    # weighted norms as plain 2-norms in the symmetric frame s = sqrt(w / f)
    scale = grid.scale
    limit = scale * (alpha * grid.target_values)

    def norm(v):
        return math.sqrt(v @ v)

    sh = scale * h
    norms = [norm(sh)]
    errors = [norm(sh - limit)]
    anomaly = False
    rising = 0
    best = errors[0]

    def running() -> bool:
        return not anomaly and errors[-1] >= tol and len(errors) <= n_max

    def record(norm_n: float, error_n: float):
        nonlocal anomaly, rising, best
        norms.append(norm_n)
        errors.append(error_n)
        rising = rising + 1 if error_n > errors[-2] else 0
        best = min(best, error_n)
        # wobble at the discretization floor is expected; sustained growth
        # well above the best error seen means a broken discretization
        anomaly = rising >= 10 and error_n > 3.0 * best

    start = grid.n
    squarings = BLOCK_STEPS.bit_length() - 1
    blocked = n_max - start >= squarings * start
    n = 0
    while running() and n < (start if blocked else n_max):
        h = T.entries @ h
        n += 1
        sh = scale * h
        record(norm(sh), norm(sh - limit))
    if blocked and running():
        frame = parity_blocks(T)
        targets = frame.split(limit)
        # X = [y_k, ..., y_{k+B-1}] in the blocks' coordinates, one (B, size) array
        # per block; the first holds y_n and the B - 1 matvecs after it
        X = [np.empty((BLOCK_STEPS, len(part))) for part in targets]
        for x, part in zip(X, frame.split(sh)):
            x[0] = part
        for j in range(1, BLOCK_STEPS):
            for x, block in zip(X, frame.blocks):
                np.matmul(block, x[j - 1], out=x[j])

        def replay(first: int) -> int:
            """Record rows first ... B - 1 of X until the run stops; the last row recorded."""
            sq = sum(np.einsum("ij,ij->i", x, x) for x in X)
            dev = sum(np.einsum("ij,ij->i", d, d) for d in (x - t for x, t in zip(X, targets)))
            for j, (norm_j, error_j) in enumerate(zip(np.sqrt(sq).tolist()[first:],
                                                     np.sqrt(dev).tolist()[first:]), first):
                record(norm_j, error_j)
                if not running():
                    return j
            return BLOCK_STEPS - 1

        last = replay(1)
        if running():
            powers = [np.linalg.matrix_power(block, BLOCK_STEPS) for block in frame.blocks]
            # products alternate between two buffers; a fresh array per block
            # raised the CLI's peak RSS by ~0.7 MiB at n = 401
            spare = [np.empty_like(x) for x in X]
            while running():
                for x, y, power in zip(X, spare, powers):
                    np.matmul(x, power.T, out=y)
                X, spare = spare, X
                last = replay(0)
        h = frame.join([x[last] for x in X]) / scale
    return IterationTrace(
        steps=np.arange(len(errors)),
        norms=np.array(norms),
        errors=np.array(errors),
        alpha=alpha,
        tol=tol,
        converged=bool(errors[-1] < tol),
        anomaly=anomaly,
        final=h,
    )
