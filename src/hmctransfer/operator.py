"""Discretized density space and the transfer operator.

The position domain [-L, L]^d carries a trapezoid tensor grid; densities are
vectors of node values and the Hilbert structure is the f-weighted inner
product sum w a b / f.  One operator application spreads a density over
momenta with the auxiliary density, flows every phase point, and integrates
the momenta back out:

    (T h)(q) = int h(Q(q, p)) g(P(q, p)) dp,   g normalized to unit mass.

The matrix is assembled by momentum quadrature per position node, with the
value h(Q) obtained by cubic-spline interpolation on the grid (linear in
d >= 2), ``spline_coefficients`` being the package's one spline routine.
Both deposits scatter local weights of the flow images with ``np.bincount``.
In 1-d the weights are the monomials of each image's offset within its spline
piece, and one product W @ c with the spline coefficients c of the identity
turns them into matrix rows.  Each spline value is also averaged along the
image curve p -> Q(q, p) under a fixed polynomial-reproducing filter scaled to
the image spacing: a knot correction added to that point-value deposit, which
keeps the momentum sum from aliasing the spline's knot jumps into grid-scale
modes of negative eigenvalue.

Two algebraically equivalent forms are kept: ``direct`` deposits g(P)
evaluated along the flow, ``likelihood`` transports the ratio h/f and
re-weights by f, which avoids the division at deposit time.  For the exact
flow they differ only by the O(h^4) spline interpolation error in the grid
spacing h, which does not depend on the momentum node count; under leapfrog
the difference measures the energy-conservation error.

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
from .dynamics import FlowSpec, flow_batch

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
    warnings: tuple = ()

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
        return float(self.axes[0][-1])

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

    notes = []
    fine_pairs = [_trapezoid_axis(L, 2 * n_per_axis - 1) for _ in range(d)]
    fine_nodes, fine_w = _tensor_grid(
        tuple(p[0] for p in fine_pairs), [p[1] for p in fine_pairs]
    )
    ref = float(fine_w @ density_value(model.target, fine_nodes))
    got = float(w @ f)
    if abs(got - ref) > 1e-3 * abs(ref):
        msg = (
            f"grid too coarse: integral of f deviates from refined reference by "
            f"{abs(got - ref) / abs(ref):.2e} relative"
        )
        warnings.warn(msg)
        notes.append(msg)
    return DensityGrid(
        axes=axes,
        nodes=nodes,
        weights=w,
        target_values=f,
        floor=1e-12 * float(np.max(f)),
        warnings=tuple(notes),
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
    auxiliary density; weights sum to one, so the constant likelihood is
    reproduced exactly."""

    nodes: np.ndarray
    weights: np.ndarray


def _auxiliary_halfwidth(model: ModelPair, tail: float = 1e-12) -> float:
    """Half-width covering all but ``tail`` of the auxiliary mass (1-d)."""
    probe = np.linspace(0.0, 14.0 / math.sqrt(model.auxiliary.lambda_lo), 8193)
    g = np.exp(-model.auxiliary.value(probe[:, None]))
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(probe))])
    total = cum[-1]
    idx = int(np.searchsorted(cum, (1.0 - 0.5 * tail) * total))
    return float(probe[min(idx + 1, len(probe) - 1)])


def build_momentum_rule(model: ModelPair, m: int) -> MomentumRule:
    """Momentum quadrature matched to the auxiliary density.

    In 1-d a trapezoid rule on a box covering 1 - 1e-12 of the auxiliary
    mass.  Its evenly spaced nodes give images Q(q, p_k) evenly spaced along
    each flow curve, the spacing the filtered cubic deposit is scaled to; how
    many images fall in a deposit cell depends on m, the grid and the flow;
    the 1-d deposit records the fewest and flags fewer than one.  In d >= 2 a
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


def spline_coefficients(x: np.ndarray, y: np.ndarray, pieces=None) -> np.ndarray:
    """Not-a-knot cubic spline through y(x) for x of shape (B, N), N >= 4, and y (B, N, R).

    One forward and one backward sweep along N solve the tridiagonal system for
    the knot slopes of all B curves (de Boor, A Practical Guide to Splines,
    ch. IV), without pivoting: the matrix is diagonally dominant after the
    first elimination.  Returns scipy's ``CubicSpline(...).c`` layout, c[r]
    multiplying s^(3 - r), s the offset from the left knot: every piece,
    (4, B, N - 1, R), or piece k of curve ``rows`` for ``pieces=(rows, k)``.

    The sweep steps along the knot axis, so its buffers are laid out knot
    axis first in memory, as (B, N) and (B, N, R) views of (N, B) and
    (N, B, R) blocks: each step then reads and writes B contiguous values.
    Inputs of any layout are accepted; x and y given the same way, as
    transposed views of knot-major arrays, keep the differences and slopes
    knot-major too.  Every operation is elementwise, so the coefficients do
    not depend on the layout.

    Memory: the right-hand side b is filled in place before the matrix, so
    the slopes (B, N - 1, R) are released before the three (B, N) bands
    exist, and the knot spacings once the bands are set; no (B, N, R)
    temporary is made.  The sweep's peak holds the spacings, b and the bands.
    The coefficients follow with a few temporaries of one coefficient's size;
    they are the peak when the output outgrows the sweep's buffers (every
    piece of a wide R, or many requested pieces).
    """
    n = x.shape[1]
    if n < 4:
        raise ValueError(f"not-a-knot spline needs at least 4 knots, got {n}")
    dx = np.diff(x, axis=1)
    dxr = dx[..., None]
    slope = np.diff(y, axis=1) / dxr

    # tridiagonal rows: lower[i] * s[i - 1] + diag[i] * s[i] + upper[i] * s[i + 1] = b[i];
    # b comes first, so the slopes are gone before the matrix exists
    b = np.empty((n, y.shape[0], y.shape[2])).transpose(1, 0, 2)
    # not-a-knot: the cubic coefficient is continuous at the second and last-but-one knot
    head = (x[:, 2] - x[:, 0])[:, None]
    b[:, 0] = ((dxr[:, 0] + 2 * head) * dxr[:, 1] * slope[:, 0] + dxr[:, 0] ** 2 * slope[:, 1]) / head
    tail = (x[:, -1] - x[:, -3])[:, None]
    b[:, -1] = (dxr[:, -1] ** 2 * slope[:, -2]
                + (2 * tail + dxr[:, -1]) * dxr[:, -2] * slope[:, -1]) / tail
    # b[i] = 3 (dx[i] slope[i - 1] + dx[i - 1] slope[i]) in place, without temporaries:
    # products commute, so it rounds as the out-of-place expression
    inner = b[:, 1:-1]
    np.multiply(dxr[:, 1:], slope[:, :-1], out=inner)
    slope[:, 1:] *= dxr[:, :-1]
    inner += slope[:, 1:]
    inner *= 3
    del slope
    diag, upper, lower = np.empty((3, n, x.shape[0])).transpose(0, 2, 1)
    np.add(dx[:, :-1], dx[:, 1:], out=diag[:, 1:-1])
    diag[:, 1:-1] *= 2
    upper[:, 1:-1] = dx[:, :-1]
    lower[:, 1:-1] = dx[:, 1:]
    diag[:, 0], upper[:, 0] = dx[:, 1], head[:, 0]
    diag[:, -1], lower[:, -1] = dx[:, -2], tail[:, 0]
    del dx, dxr
    for i in range(1, n):
        fact = lower[:, i] / diag[:, i - 1]
        diag[:, i] -= fact * upper[:, i - 1]
        b[:, i] -= fact[:, None] * b[:, i - 1]
    b[:, -1] /= diag[:, -1, None]
    for i in range(n - 2, -1, -1):
        b[:, i] -= upper[:, i, None] * b[:, i + 1]
        b[:, i] /= diag[:, i, None]
    del diag, upper, lower

    if pieces is None:
        left, right = np.s_[:, :-1], np.s_[:, 1:]
    else:
        rows, k = pieces
        left, right = (rows, k), (rows, k + 1)
    h = (x[right] - x[left])[..., None]
    rise = (y[right] - y[left]) / h
    s0 = b[left]
    t = (s0 + b[right] - 2 * rise) / h
    return np.stack((t / h, (rise - s0) / h - t, s0, y[left]))


@dataclass
class TransferMatrix:
    """Dense matrix realization of the transfer operator on a grid."""

    entries: np.ndarray
    grid: DensityGrid
    meta: dict = field(default_factory=dict)

    def apply(self, h) -> np.ndarray:
        return self.entries @ np.asarray(h, dtype=float)


# Image filter K = sum_l a_l Lambda_{l delta}: unit-mass hats of half-width
# l * delta.  The weights cancel the second and fourth moments, so K reproduces
# polynomials of degree <= 5, and every hat vanishes at multiples of 2 pi / delta.
_FILTER_WEIGHTS = ((1, 1.5), (2, -0.6), (3, 0.1))
_FILTER_REACH = _FILTER_WEIGHTS[-1][0]  # support half-width in units of delta


def _filter_excess(u: np.ndarray, p: int, closed: bool = False) -> np.ndarray:
    """psi_p(u) = (K * x_+^p)(u) - u_+^p for the filter at unit spacing.

    Each hat acts as a second difference of F_p(x) = x_+^(p+2) / ((p+1)(p+2)),
    the second antiderivative of x_+^p.  psi_p vanishes for |u| >= 3.
    ``closed`` counts u = 0 into the step u_+^0, as at the left box edge,
    where the point value includes the knot.
    """
    def F(x):
        return np.maximum(x, 0.0) ** (p + 2) / ((p + 1) * (p + 2))

    out = -2.0 * F(u) * sum(a / l**2 for l, a in _FILTER_WEIGHTS)
    for l, a in _FILTER_WEIGHTS:
        out += a * (F(u + l) + F(u - l)) / l**2
    step = u >= 0 if closed else u > 0
    return out - step * np.maximum(u, 0.0) ** p


def _deposit_matrix_cubic(grid: DensityGrid, Q: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Accumulate T_ij = sum_k G[i, k] (K * c_j)(Q[i, k]) with cubic-spline cardinals c_j.

    The cardinals are read once as spline coefficients of the identity:
    c[r, piece, j] multiplies s^(3 - r) on ``piece``, with s the offset from
    its left knot.  The point deposit sum_k G[i, k] c_j(Q[i, k]) is then
    W @ c, where W[i, (r, piece)] sums G[i, k] s^(3 - r) over the in-box
    images of row i in that piece; images outside the grid contribute
    nothing (truncated mass).

    Point values sampled at the image spacing delta, which need not resolve a
    grid cell, alias the third-derivative jumps of c_j at the knots into
    grid-scale modes.  Each point value is therefore replaced by its average
    under the filter K, scaled to the local image spacing delta (the central
    difference of Q along the momentum nodes, one-sided at the ends).  On a
    single cubic piece the average equals the point value, so the filtered
    deposit is the point deposit plus a knot correction Psi @ J:

    - J[(kappa, p), j] is the coefficient of (x - x_kappa)_+^p in c_j: the
      jump of the cubic coefficient (p = 3) at every knot, and at the box
      edges, where c_j drops to zero, the Taylor coefficients (p < 3) of its
      first and last pieces;
    - Psi[i, (kappa, p)] = sum_k G[i, k] delta^p psi_p((Q[i, k] - x_kappa) / delta),
      nonzero only for knots within 3 delta of an image.

    Returns the matrix and the resolution h / max(delta) over the in-box
    images: the fewest images per grid cell along any flow curve.

    Memory: W, shaped (rows, 4, pieces), takes one (rows, pieces) scatter per
    power into its slice W[:, r] and is released after W @ c; c is released
    once J is built, and the in-box image arrays after the scatter.  The peak
    is the solve for c or the point deposit, which holds c, W, the output and
    the in-box arrays; the knot loop after it holds the output, J, Psi and
    the arrays of the images within reach of a knot.
    """
    x = grid.axes[0]
    n = grid.n
    n_rows, m = G.shape
    h = x[1] - x[0]
    c = spline_coefficients(x[None], np.eye(n)[None])[:, 0]
    q = Q.reshape(-1)
    g = G.reshape(-1)
    rows = np.repeat(np.arange(n_rows), m)

    # point deposit: local monomials G s^(3 - r) of the in-box images, one
    # scatter per power into W[:, r], times the coefficient map
    inside = (q >= x[0]) & (q <= x[-1])
    q_in, local = q[inside], g[inside]
    piece = np.clip(np.searchsorted(x, q_in, "right") - 1, 0, n - 2)
    s = q_in - x[piece]
    slot = rows[inside] * (n - 1) + piece
    del q_in, piece
    W = np.empty((n_rows, 4, n - 1))
    for r in range(3, -1, -1):
        W[:, r] = np.bincount(slot, weights=local, minlength=n_rows * (n - 1)).reshape(n_rows, -1)
        local = local * s
    out = W.reshape(n_rows, -1) @ c.reshape(-1, n)
    del W, local, s, slot

    # knot coefficients: cubic jumps at every knot, then the lower Taylor
    # coefficients (p = 0, 1, 2) entering at the left edge and leaving at the right
    edges = [(0, p) for p in range(3)] + [(n - 1, p) for p in range(3)]
    J = np.vstack([np.diff(c[0], axis=0, prepend=0.0, append=0.0)]
                  + [c[3 - p, 0] for p in range(3)]
                  + [-sum(math.comb(r, p) * h ** (r - p) * c[3 - r, -1] for r in range(p, 4))
                     for p in range(3)])
    del c

    delta = np.abs(np.gradient(Q, axis=1)).reshape(-1)
    widest = float(np.max(delta[inside], initial=0.0))
    per_cell = float(h / widest) if widest > 0 else math.inf
    reach = _FILTER_REACH * delta
    lo = np.clip(np.ceil((q - reach - x[0]) / h), 0, n).astype(int)
    hi = np.clip(np.floor((q + reach - x[0]) / h), -1, n - 1).astype(int)
    live = (delta > 0) & (hi >= lo)
    del inside, reach
    q, g, rows, delta, lo, hi = (a[live] for a in (q, g, rows, delta, lo, hi))
    width = len(J)
    Psi = np.zeros(n_rows * width)
    for offset in range(int(np.max(hi - lo, initial=-1)) + 1):
        knot = lo + offset
        sel = knot <= hi
        u = (q[sel] - x[knot[sel]]) / delta[sel]
        w = g[sel] * delta[sel] ** 3 * _filter_excess(u, 3)
        Psi += np.bincount(rows[sel] * width + knot[sel], weights=w, minlength=Psi.size)
    for col, (knot, p) in enumerate(edges, start=n):
        sel = (lo <= knot) & (knot <= hi)
        u = (q[sel] - x[knot]) / delta[sel]
        w = g[sel] * delta[sel] ** p * _filter_excess(u, p, closed=knot == 0)
        Psi += np.bincount(rows[sel] * width + col, weights=w, minlength=Psi.size)
    return out + Psi.reshape(n_rows, width) @ J, per_cell


def _deposit_matrix_linear(grid: DensityGrid, points: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Multilinear scatter deposit for d >= 2 grids."""
    n_rows, m = G.shape
    d = grid.dim
    flat = points.reshape(-1, d)
    idx, frac = [], []
    for axis, ax in enumerate(grid.axes):
        pos = np.clip(np.searchsorted(ax, flat[:, axis]) - 1, 0, len(ax) - 2)
        idx.append(pos)
        frac.append((flat[:, axis] - ax[pos]) / (ax[pos + 1] - ax[pos]))
    strides = [int(np.prod(grid.shape[a + 1:])) for a in range(d)]
    g = G.reshape(-1) * grid.inside(flat)
    rows = np.repeat(np.arange(n_rows), m) * grid.n
    out = np.zeros(n_rows * grid.n)
    for corner in range(2 ** d):
        w, col = g, rows
        for axis in range(d):
            bit = (corner >> axis) & 1
            w = w * (frac[axis] if bit else 1.0 - frac[axis])
            col = col + (idx[axis] + bit) * strides[axis]
        out += np.bincount(col, weights=w, minlength=out.size)
    return out.reshape(n_rows, grid.n)


def _flow_factor_grid(grid, model, spec, rule, inverse):
    """Flow all (node, momentum) pairs; return Q, P of shape (n, m, d)."""
    n, m = grid.n, rule.nodes.shape[0]
    q_rep = np.repeat(grid.nodes, m, axis=0)
    p_rep = np.tile(rule.nodes, (n, 1))
    Q, P = flow_batch(q_rep, p_rep, model, spec, inverse=inverse)
    return Q.reshape(n, m, -1), P.reshape(n, m, -1)


def _assemble(grid, model, spec, momentum_nodes, form, inverse):
    if form not in ("direct", "likelihood"):
        raise ValueError(f"unknown assembly form {form!r}")
    # conjugate points first appear at t * sqrt(lambda_max) >= pi for constant
    # curvature; the operator itself stays well defined up to there
    t_lam = spec.time * model.lambda_max
    if t_lam >= math.pi:
        raise ValueError(
            f"t * lambda_max = {t_lam:.6f} beyond the conjugate-point bound (< pi)"
        )
    rule = build_momentum_rule(model, momentum_nodes)
    Q, P = _flow_factor_grid(grid, model, spec, rule, inverse)
    n, m, d = Q.shape

    log_w = np.log(rule.weights)[None, :]
    if form == "direct":
        v_at_nodes = model.auxiliary.value(rule.nodes)
        v_at_images = model.auxiliary.value(P.reshape(-1, d)).reshape(n, m)
        G = np.exp(log_w + v_at_nodes[None, :] - v_at_images)
    else:
        G = np.exp(np.broadcast_to(log_w, (n, m)).copy())

    inside = grid.inside(Q)
    frac_outside = 1.0 - float(np.count_nonzero(inside)) / inside.size
    f = grid.target_values
    total_f = float(grid.weights @ f)
    leak_w = G * ~inside
    leaked = float((grid.weights * f) @ leak_w.sum(axis=1)) / total_f
    notes = []
    if frac_outside > 1e-3:
        msg = (
            f"domain truncation: {100 * frac_outside:.3f}% of flow images leave the box, "
            f"leaked relative mass {leaked:.3e}"
        )
        warnings.warn(msg)
        notes.append(msg)

    del P, inside, leak_w  # the deposit reads Q and G alone
    if d == 1:
        T, per_cell = _deposit_matrix_cubic(grid, Q[..., 0], G)
        if per_cell < 1:
            msg = (
                f"under-resolved deposit: {per_cell:.3f} flow images per grid cell on the "
                f"sparsest curve (< 1); raise momentum_nodes"
            )
            warnings.warn(msg)
            notes.append(msg)
    else:
        T = _deposit_matrix_linear(grid, Q, G)
    if form == "likelihood":
        T = (f[:, None] / f[None, :]) * T

    meta = {
        "form": form,
        "inverse": inverse,
        "gaussian_model": model.is_gaussian,
        "method": spec.method,
        "time": spec.time,
        "steps": spec.steps,
        "momentum_nodes": momentum_nodes,
        "frac_outside": frac_outside,
        "leaked_mass": leaked,
        "notes": tuple(notes),
        "deposit": "cubic_spline" if d == 1 else "multilinear",
    }
    if d == 1:
        meta["images_per_cell_min"] = per_cell
    return TransferMatrix(entries=T, grid=grid, meta=meta)


def assemble_transfer(
    grid: DensityGrid,
    model: ModelPair,
    spec: FlowSpec,
    momentum_nodes: int,
    form: str = "direct",
) -> TransferMatrix:
    """Assemble the transfer operator by momentum quadrature of the flow."""
    return _assemble(grid, model, spec, momentum_nodes, form, inverse=False)


def assemble_adjoint(
    grid: DensityGrid,
    model: ModelPair,
    spec: FlowSpec,
    momentum_nodes: int,
    form: str = "direct",
) -> TransferMatrix:
    """Assemble the adjoint operator: same construction through the inverse flow."""
    return _assemble(grid, model, spec, momentum_nodes, form, inverse=True)


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


def _probe_densities(grid: DensityGrid, count: int = 8):
    """Fixed family of smooth unit-mass bumps spanning the resolved domain."""
    L = grid.halfwidth
    centers = np.linspace(-0.3 * L, 0.3 * L, count)
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


def random_density(grid: DensityGrid, rng: np.random.Generator, components: int | None = None):
    """Smooth random density: a small Gaussian mixture well inside the box.

    Centers stay within a quarter of the half-width and widths are a few grid
    cells wide, so tails vanish long before the domain boundary and the
    interpolated deposit stays positive.
    """
    L = grid.halfwidth
    d = grid.dim
    if components is None:
        components = int(rng.integers(3, 7))
    centers = rng.uniform(-0.25 * L, 0.25 * L, size=(components, d))
    sigmas = rng.uniform(0.0625 * L, 0.1125 * L, size=components)
    weights = rng.uniform(0.2, 1.0, size=components)
    vals = np.zeros(grid.n)
    for c, s, w in zip(centers, sigmas, weights):
        sq = np.sum((grid.nodes - c) ** 2, axis=-1)
        vals += w * np.exp(-0.5 * sq / s**2)
    return vals
