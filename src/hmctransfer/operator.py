"""Discretized density space and the transfer operator.

The position domain [-L, L]^d carries a trapezoid tensor grid; densities are
vectors of node values and the Hilbert structure is the f-weighted inner
product sum w a b / f.  One operator application spreads a density over
momenta with the auxiliary density, flows every phase point, and integrates
the momenta back out:

    (T h)(q) = int h(Q(q, p)) g(P(q, p)) dp,   g normalized to unit mass.

In 1-d, p -> Q changes this into (T h)(q) = int h(Q) K(q, Q) / f(Q) dQ with
the explicit kernel K(q, Q) = f(Q) g(P_q(Q)) D_q(Q): the target at the
arrival point, the auxiliary density at the conjugate momentum, and the
Jacobian factor D_q = |dp/dQ| of the change of variables.  The kernel is
tabulated from one flow of a dense momentum probe per node, splining (P, p)
over Q along each monotone image curve: P is the spline's value and D_q the
slope of p, one batched spline solve for all rows.  The matrix is the
kernel's Nystrom discretization on the grid's trapezoid rule,
T_ij = K(q_i, x_j) w_j / f_j (Atkinson, The Numerical Solution of Integral
Equations of the Second Kind, 1997, ch. 4): nonnegative entries, and the
symmetry of K(q, Q) / sqrt(f(q) f(Q)) carried node by node into the
symmetric frame.  The rule converges exponentially for the smooth kernel
rows (Trefethen and Weideman, SIAM Review 56, 2014) once the kernel spans a
grid cell; a narrower one is refused.  The tabulation also records the
momentum-space Hilbert-Schmidt estimate that ``kernel_spectral.hs_norm``
checks.

``assemble_adjoint`` tabulates the kernel along the inverse flow.  For an
even auxiliary density the momentum flip conjugates the inverse flow to the
forward one, so the adjoint is T itself, bit for bit: the CLI, whose
auxiliary is always a zero-mean Gaussian, takes T* = T and records the
conjugacy residual instead, and ``assemble_adjoint`` stays as the tests'
reference for that identity.

In d >= 2 the matrix is assembled by momentum quadrature per position node:
the flow images' weights are scattered onto the corners of their grid cells
with ``np.bincount``, a multilinear interpolation of h(Q).

``iterate`` runs the fixed-point iteration h -> T h.  A run that goes past n
steps (n the grid size) with budget left to pay for forming T^B switches to
block mode, B = ``BLOCK_STEPS``: the B latest iterates advance together by
one product with T^B, which reads the matrix once per B steps instead of once
per step.  The stop rules are replayed per step, so a blocked run ends at the
step the one-matvec loop ends at, with norms and errors equal to that loop's
up to rounding.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .distributions import ModelPair, density_value
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
    "assemble_transfer",
    "assemble_adjoint",
    "weighted_symmetry_residual",
    "to_weighted_symmetric",
    "iterate",
    "random_density",
]


@dataclass(frozen=True)
class DensityGrid:
    """Quadrature nodes, weights and target values on the truncated domain."""

    axes: tuple
    nodes: np.ndarray
    weights: np.ndarray
    target_values: np.ndarray
    floor: float

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    @property
    def shape(self) -> tuple:
        return tuple(len(ax) for ax in self.axes)

    @property
    def halfwidth(self) -> float:
        """Largest |coordinate| of a retained node: the probe and random densities
        scale with the region the weighted norms see, not with the whole box."""
        return float(np.max(np.abs(self.nodes[self.retained])))

    @property
    def retained(self) -> np.ndarray:
        """Mask of nodes kept in weighted norms: target density above floor."""
        return self.target_values > self.floor

    def inside(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of points lying in the closed box."""
        ok = np.ones(points.shape[:-1], dtype=bool)
        for axis, ax in enumerate(self.axes):
            ok &= (points[..., axis] >= ax[0]) & (points[..., axis] <= ax[-1])
        return ok


def _trapezoid_axis(halfwidth: float, n: int):
    x = np.linspace(-halfwidth, halfwidth, n)
    w = np.full(n, x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return x, w


def _tensor_grid(axes, axis_weights):
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.ravel() for m in mesh], axis=-1)
    w = axis_weights[0]
    for extra in axis_weights[1:]:
        w = np.multiply.outer(w, extra)
    return nodes, w.ravel()


def build_grid(model: ModelPair, n_per_axis: int) -> DensityGrid:
    """Trapezoid tensor grid over [-L, L]^d with the target tabulated on it."""
    if n_per_axis < 16:
        raise ValueError(f"need at least 16 nodes per axis, got {n_per_axis}")
    L = model.domain_halfwidth
    d = model.dim
    pairs = [_trapezoid_axis(L, n_per_axis) for _ in range(d)]
    axes = tuple(p[0] for p in pairs)
    nodes, w = _tensor_grid(axes, [p[1] for p in pairs])
    f = density_value(model.target, nodes)

    fine_pairs = [_trapezoid_axis(L, 2 * n_per_axis - 1) for _ in range(d)]
    fine_nodes, fine_w = _tensor_grid(
        tuple(p[0] for p in fine_pairs), [p[1] for p in fine_pairs]
    )
    ref = float(fine_w @ density_value(model.target, fine_nodes))
    got = float(w @ f)
    if abs(got - ref) > 1e-3 * abs(ref):
        warnings.warn(
            f"grid too coarse: integral of f deviates from refined reference by "
            f"{abs(got - ref) / abs(ref):.2e} relative"
        )
    return DensityGrid(
        axes=axes,
        nodes=nodes,
        weights=w,
        target_values=f,
        floor=1e-12 * float(np.max(f)),
    )


def mass(h, grid: DensityGrid) -> float:
    """Total mass sum w h over all nodes."""
    return float(grid.weights @ np.asarray(h, dtype=float))


def weighted_inner(a, b, grid: DensityGrid) -> float:
    """f-weighted inner product sum w a b / f over retained nodes."""
    m = grid.retained
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.sum(grid.weights[m] * a[m] * b[m] / grid.target_values[m]))


def weighted_norm(h, grid: DensityGrid) -> float:
    return math.sqrt(max(weighted_inner(h, h, grid), 0.0))


@dataclass(frozen=True)
class MomentumRule:
    """Quadrature nodes p_k and weights for integrals against the normalized
    auxiliary density; weights sum to one, so a constant integrand is
    integrated exactly."""

    nodes: np.ndarray
    weights: np.ndarray


def _auxiliary_halfwidth(model: ModelPair) -> float:
    """Half-width covering all but 1e-12 of the auxiliary mass (1-d)."""
    probe = np.linspace(0.0, 14.0 / math.sqrt(model.auxiliary.lambda_lo), 8193)
    g = np.exp(-model.auxiliary.value(probe[:, None]))
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(probe))])
    total = cum[-1]
    idx = int(np.searchsorted(cum, (1.0 - 0.5e-12) * total))
    return float(probe[min(idx + 1, len(probe) - 1)])


def build_momentum_rule(model: ModelPair, m: int) -> MomentumRule:
    """Momentum quadrature matched to the auxiliary density.

    In 1-d a trapezoid rule on a box covering 1 - 1e-12 of the auxiliary
    mass: the probes along which ``assemble_transfer`` flows each node to
    tabulate the kernel, splining P and p over the image curve, so m counts
    knots of that spline and the Nystrom matrix needs m >= 4.  In d >= 2 a
    tensor Gauss-Hermite rule matched to the Gaussian auxiliary, whose few
    nodes per axis keep the m^d images of the multilinear deposit affordable.
    """
    if m < 2:
        raise ValueError("need at least 2 momentum nodes")
    d = model.dim
    if d == 1:
        pts, wt = _trapezoid_axis(_auxiliary_halfwidth(model), m)
        pts = pts[:, None]
        wt = wt * np.exp(-model.auxiliary.value(pts))
    else:
        if not model.auxiliary.is_gaussian:
            raise ValueError("gauss_hermite rule requires a Gaussian auxiliary density")
        x, w = np.polynomial.hermite.hermgauss(m)
        z = math.sqrt(2.0) * x
        w = w / math.sqrt(math.pi)
        vals, vecs = np.linalg.eigh(model.auxiliary.params["precision"])
        # map standard-normal nodes through the covariance square root
        transform = (vecs / np.sqrt(vals)) @ vecs.T
        mesh = np.meshgrid(*[z] * d, indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=-1) @ transform.T
        wt = w
        for _ in range(d - 1):
            wt = np.multiply.outer(wt, w)
        wt = wt.ravel()
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
    # the off-diagonal bands as rows of dx: upper[0] = head and lower[n - 1] = tail
    upper, lower = [head, *dx.T[:-1]], [*dx.T, tail]
    b_k = b.transpose(1, 0, 2)
    fact, prod = np.empty(rows), np.empty(b_k.shape[1:])
    for i in range(1, n):
        np.divide(lower[i], diag[i - 1], out=fact)
        b_k[i] -= np.multiply(fact[:, None], b_k[i - 1], out=prod)
        diag[i] -= np.multiply(fact, upper[i - 1], out=fact)
    b_k[-1] /= diag[-1, :, None]
    for i in range(n - 2, -1, -1):
        b_k[i] -= np.multiply(upper[i][:, None], b_k[i + 1], out=prod)
        b_k[i] /= diag[i, :, None]
    return b


@dataclass
class TransferMatrix:
    """Dense matrix realization of the transfer operator on a grid."""

    entries: np.ndarray
    grid: DensityGrid
    meta: dict = field(default_factory=dict)

    def apply(self, h) -> np.ndarray:
        return self.entries @ np.asarray(h, dtype=float)


def _truncation(grid: DensityGrid, inside: np.ndarray, G: np.ndarray) -> dict:
    """Share of flow images outside the box and the relative mass they carry out
    (image k of node i weighs G[i, k], its probe weight times g(P) / g(p)), for
    an operator's meta; a mass above 1e-6, the fixed-point bound, is warned
    about.  The share alone tells little: the quartic's probes span the
    auxiliary's tails, so 3% of its images leave the box with 2e-11 of the
    mass.  G is overwritten: its entries inside the box are zeroed in place."""
    frac_outside = 1.0 - float(np.count_nonzero(inside)) / inside.size
    f = grid.target_values
    G *= ~inside
    leaked = float((grid.weights * f) @ G.sum(axis=1)) / float(grid.weights @ f)
    if leaked > 1e-6:
        warnings.warn(
            f"domain truncation: {100 * frac_outside:.3f}% of flow images leave the box, "
            f"leaked relative mass {leaked:.3e}"
        )
    return {"frac_outside": frac_outside, "leaked_mass": leaked}


def _assemble(grid, model, spec, momentum_nodes, inverse):
    check_conjugate_bound(model, spec)
    build = _nystrom if grid.dim == 1 else _multilinear
    entries, meta = build(grid, model, spec, momentum_nodes, inverse)
    meta = {"inverse": inverse, "gaussian_model": model.is_gaussian, "method": spec.method,
            "time": spec.time, "steps": spec.steps, "momentum_nodes": momentum_nodes, **meta}
    return TransferMatrix(entries=entries, grid=grid, meta=meta)


def _multilinear(grid, model, spec, momentum_nodes, inverse):
    """Deposit matrix of a ``momentum_nodes``-per-axis momentum quadrature (d >= 2) and its
    meta: each image's weight is scattered onto the corners of its grid cell."""
    rule = build_momentum_rule(model, momentum_nodes)
    n, m, d = grid.n, len(rule.weights), grid.dim
    Q, P = flow_batch(np.repeat(grid.nodes, m, axis=0), np.tile(rule.nodes, (n, 1)), model, spec,
                      inverse=inverse)
    G = np.exp(np.log(rule.weights) + model.auxiliary.value(rule.nodes)
               - model.auxiliary.value(P).reshape(n, m))
    inside = grid.inside(Q)
    g = G.reshape(-1) * inside
    meta = {**_truncation(grid, inside.reshape(n, m), G), "deposit": "multilinear"}

    idx, frac = [], []
    for axis, ax in enumerate(grid.axes):
        pos = np.clip(np.searchsorted(ax, Q[:, axis]) - 1, 0, len(ax) - 2)
        idx.append(pos)
        frac.append((Q[:, axis] - ax[pos]) / (ax[pos + 1] - ax[pos]))
    strides = [int(np.prod(grid.shape[a + 1:])) for a in range(d)]
    rows = np.repeat(np.arange(n), m) * n
    out = np.zeros(n * n)
    for corner in range(2 ** d):
        w, col = g, rows
        for axis in range(d):
            bit = (corner >> axis) & 1
            w = w * (frac[axis] if bit else 1.0 - frac[axis])
            col = col + (idx[axis] + bit) * strides[axis]
        out += np.bincount(col, weights=w, minlength=out.size)
    return out.reshape(n, n), meta


def _nystrom(grid, model, spec, momentum_nodes, inverse):
    """Nystrom matrix T_ij = K(q_i, x_j) w_j / f_j (1-d) from one flow of
    ``momentum_nodes`` probes per node, and its meta.

    Valid in the invertibility regime, where p -> Q(q, p) is strictly
    monotone for every node: Q must rise strictly along every probe and dp/dQ
    stay positive, else ``ValueError``.  Arrival points outside the probed
    image curve carry kernel value zero (the auxiliary density is already
    negligible there).  With ``inverse`` the probes flow through the inverse
    map, along which Q falls with p: they are read in reverse order, so Q
    rises, and -p is splined, so its slope is |dp/dQ|, giving the adjoint's
    kernel.

    ``meta`` records the probe images' domain truncation, the momentum-space
    Hilbert-Schmidt estimate ``hs_norm_sq_momentum`` and ``kernel_width_cells``,
    the min over rows of |Q(q_i, sigma) - Q(q_i, -sigma)| / 2h, sigma the
    auxiliary standard deviation and h the grid spacing.  The trapezoid error falls as
    exp(-2 pi^2 s^2) in the kernel width s in cells: in the Gaussian rate and
    mass 1e-12 at s = 2, 5e-9 at 1, 1e-2 at 0.5 (n = 401).  Below one cell
    this raises ``ValueError`` before the spline is solved.

    Memory: the spline reads P as a view of the flow's own output and p as a
    broadcast of the probes, so no curve is copied.  The peak is inside the
    solve, which holds Q, P, the knot spacings, the two-curve right-hand side
    and the diagonal; g(P) is then filled into one (n, m) buffer in row
    blocks, and the Hilbert-Schmidt and truncation products are formed in
    place, the first in one more buffer, the second in g(P)'s.  At large n the
    values at the (row, node) pairs, a few arrays of one double per pair
    updated in place, take over; K is scaled into T in place.
    """
    if momentum_nodes < 4:
        raise ValueError(f"need at least 4 kernel momentum nodes, got {momentum_nodes}")
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
    if not width >= 1:
        raise ValueError(f"kernel_width_cells = {width:.3g} < 1: the grid cannot resolve "
                         f"the kernel; refine the grid or lengthen the flow")
    Q = Q[:m].T
    if not np.all(np.diff(Q, axis=1) > 0):
        raise ValueError("momentum-to-position map not strictly monotone on a probe")
    # the curves P and +-p over (row, knot), as views
    P = P[:m * n].reshape(m, n).T
    p = np.broadcast_to(-probes if inverse else probes, (n, m))
    slopes = spline_coefficients(Q, (P, p))
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
    # g(P) in row blocks, so gbar's temporaries stay block-sized
    gP = np.empty((n, m))
    step = max(1, BLOCK_POINTS // m)
    for lo in range(0, n, step):
        gP[lo:lo + step] = gbar(P[lo:lo + step]).reshape(-1, m)
    in_box = (Q >= x[0]) & (Q <= x[-1])
    hs = np.multiply(in_box, gP)
    hs *= slopes[:, :, 1]
    hs_mom = float(np.einsum("i,k,ik->", w, probe_weights, hs))
    del hs
    # G = probe weight * g(P) / g(p) in place: products commute, so it rounds
    # as the out-of-place product
    gP *= probe_weights / gbar(probes)
    truncation = _truncation(grid, in_box, gP)
    del gP, in_box

    # below[i, j] counts the images Q[i, k] <= x[j]: node j on row i's curve lies
    # in piece below - 1, the last piece closed on the right
    counts = np.bincount((np.searchsorted(x, Q) + (n + 1) * np.arange(n)[:, None]).ravel(),
                         minlength=n * (n + 1)).reshape(n, n + 1)
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
    T = np.zeros((n, n))
    T[rows, cols] = f[cols] * gbar(P_at) * D_at
    T *= w / f
    return T, {"momentum_halfwidth": float(rule.nodes[-1, 0]), "kernel_width_cells": width,
               "hs_norm_sq_momentum": hs_mom, **truncation}


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


def assemble_transfer(
    grid: DensityGrid,
    model: ModelPair,
    spec: FlowSpec,
    momentum_nodes: int,
) -> TransferMatrix:
    """Assemble the transfer operator: in 1-d the Nystrom matrix of the
    kernel tabulated on ``momentum_nodes`` probes, in d >= 2 the multilinear
    deposit of a ``momentum_nodes``-per-axis momentum quadrature."""
    return _assemble(grid, model, spec, momentum_nodes, inverse=False)


def assemble_adjoint(
    grid: DensityGrid,
    model: ModelPair,
    spec: FlowSpec,
    momentum_nodes: int,
) -> TransferMatrix:
    """Assemble the adjoint operator: same construction through the inverse flow."""
    return _assemble(grid, model, spec, momentum_nodes, inverse=True)


def to_weighted_symmetric(T: TransferMatrix):
    """Similarity transform to the ordinary-symmetric form.

    Conjugation by diag(sqrt(w/f)) turns self-adjointness in the f-weighted
    inner product into matrix symmetry.  Nodes below the density floor are
    dropped.  Returns (symmetric matrix, retained-node mask, scaling vector).
    """
    grid = T.grid
    m = grid.retained
    scale = np.sqrt(grid.weights[m] / grid.target_values[m])
    sub = T.entries[np.ix_(m, m)]
    return (scale[:, None] / scale[None, :]) * sub, m, scale


def _probe_densities(grid: DensityGrid):
    """Fixed family of 8 smooth unit-mass bumps spanning the resolved domain."""
    L = grid.halfwidth
    centers = np.linspace(-0.3 * L, 0.3 * L, 8)
    sigma = 0.1 * L
    probes = []
    for c in centers:
        sq = np.sum((grid.nodes - c) ** 2, axis=-1)
        h = np.exp(-0.5 * sq / sigma**2)
        probes.append(h / mass(h, grid))
    return probes


def weighted_symmetry_residual(T: TransferMatrix) -> float:
    """Self-adjointness residual of the operator in the weighted inner product.

    Measured functionally, max over smooth probe pairs of
    |<T a, b> - <a, T b>| / (||a|| ||b||), the deviation the Hilbert-space
    argument actually uses.  NaN when any pair's deviation is NaN.
    """
    grid = T.grid
    probes = _probe_densities(grid)
    norms = [weighted_norm(p, grid) for p in probes]
    images = [T.apply(p) for p in probes]
    gaps = []
    for i in range(len(probes)):
        for j in range(i + 1, len(probes)):
            lhs = weighted_inner(images[i], probes[j], grid)
            rhs = weighted_inner(probes[i], images[j], grid)
            gaps.append(abs(lhs - rhs) / (norms[i] * norms[j]))
    # np.max, unlike max, does not skip a NaN
    return float(np.max(gaps))


# Steps per block-mode product X <- T^B X.  A power of two: T^B takes
# log2(B) squarings.
BLOCK_STEPS = 32


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
    log2(B) n steps, whose matvecs cost as many flops as the log2(B) squarings
    that form T^B (B = ``BLOCK_STEPS``), the run switches to block mode after
    B - 1 more matvecs: the B latest iterates X = [h_k, ..., h_{k+B-1}]
    advance together as X <- T^B X, one product that reads the matrix once
    for B steps.  The norms and errors of a block are computed at once, and
    the stop rules are then replayed step by step, so the trace ends at the
    step the one-matvec loop ends at.  Up to step n + B - 1 the trace is
    bitwise that loop's; after it, T^B X rounds differently from B matvecs,
    and norms and errors agree with the loop's to rounding (about 1e-13
    relative over 12000 steps at n = 401).  ``final`` is the iterate at the
    last step, an array of its own.
    """
    grid = T.grid
    h = np.asarray(h0, dtype=float).copy()
    h_mass = mass(h, grid)
    if not (math.isfinite(h_mass) and h_mass != 0):
        raise ValueError(f"initial density must have finite nonzero mass, got {h_mass}")
    alpha = h_mass / mass(grid.target_values, grid)
    # weighted norms as plain 2-norms in the symmetric frame s = sqrt(w / f)
    keep = grid.retained
    scale = np.sqrt(grid.weights[keep] / grid.target_values[keep])
    limit = scale * (alpha * grid.target_values[keep])

    def norm(v):
        return math.sqrt(v @ v)

    sh = scale * h[keep]
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
    if blocked:
        block = np.empty((BLOCK_STEPS, grid.n))
    warm = start + BLOCK_STEPS - 1 if blocked else n_max
    n = 0
    while running() and n < warm:
        h = T.entries @ h
        n += 1
        sh = scale * h[keep]
        record(norm(sh), norm(sh - limit))
        if blocked and n >= start:
            block[n - start] = h
    if blocked and running():
        power = T.entries
        for _ in range(squarings):
            power = power @ power
        # products alternate between two buffers; a fresh array per block
        # raised the CLI's peak RSS by ~0.7 MiB at n = 401
        spare = np.empty_like(block)
        while running():
            np.matmul(block, power.T, out=spare)
            block, spare = spare, block
            s = block[:, keep] * scale
            d = s - limit
            block_norms = np.sqrt(np.einsum("ij,ij->i", s, s)).tolist()
            block_errors = np.sqrt(np.einsum("ij,ij->i", d, d)).tolist()
            for j in range(BLOCK_STEPS):
                record(block_norms[j], block_errors[j])
                if not running():
                    break
        h = block[j].copy()
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


def random_density(grid: DensityGrid, rng: np.random.Generator):
    """Smooth random density: a mixture of 3 to 6 Gaussians well inside the box.

    The number of components is drawn from ``rng`` first.  Centers stay within
    a quarter of the half-width and widths are a few grid cells wide, so tails
    vanish long before the domain boundary.  The density is positive, so its
    image under the nonnegative Nystrom matrix is too.
    """
    L = grid.halfwidth
    d = grid.dim
    components = int(rng.integers(3, 7))
    centers = rng.uniform(-0.25 * L, 0.25 * L, size=(components, d))
    sigmas = rng.uniform(0.0625 * L, 0.1125 * L, size=components)
    weights = rng.uniform(0.2, 1.0, size=components)
    vals = np.zeros(grid.n)
    for c, s, w in zip(centers, sigmas, weights):
        sq = np.sum((grid.nodes - c) ** 2, axis=-1)
        vals += w * np.exp(-0.5 * sq / s**2)
    return vals
