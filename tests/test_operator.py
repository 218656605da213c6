import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from hmctransfer import (
    FlowSpec,
    anharmonic_pair,
    assemble_adjoint,
    assemble_transfer,
    build_grid,
    default_flow_spec,
    gaussian_potential,
    iterate,
    mass,
    random_density,
    standard_gaussian_pair,
    weighted_inner,
    weighted_norm,
    weighted_symmetry_residual,
)
from hmctransfer.cli import main
from hmctransfer.distributions import ModelPair
from hmctransfer.dynamics import flow_batch
from hmctransfer.operator import (
    BLOCK_STEPS,
    IterationTrace,
    TransferMatrix,
    build_momentum_rule,
    spline_coefficients,
    to_weighted_symmetric,
)

SQRT_2PI = np.sqrt(2.0 * np.pi)


def test_grid_integrates_gaussian_mass(gauss_grid):
    total = gauss_grid.weights @ gauss_grid.target_values
    assert total == pytest.approx(SQRT_2PI, rel=1e-8)


def test_grid_minimum_size():
    model = standard_gaussian_pair(halfwidth=6.0)
    grid = build_grid(model, 16)
    assert grid.n == 16
    with pytest.raises(ValueError):
        build_grid(model, 15)


def test_grid_tensor_2d():
    model = standard_gaussian_pair(dim=2, halfwidth=6.0)
    grid = build_grid(model, 64)
    assert grid.n == 4096
    assert grid.shape == (64, 64)
    # weights are the tensor product of the axis rules
    _, wx = np.linspace(-6, 6, 64, retstep=True)
    assert grid.weights.sum() == pytest.approx(12.0**2)
    assert grid.weights[0] == pytest.approx((wx / 2) ** 2)


def test_grid_warns_when_too_coarse():
    # a sharp target needs more than 16 nodes on [-8, 8]
    model = ModelPair(
        target=gaussian_potential(0.0, 100.0),
        auxiliary=gaussian_potential(0.0, 1.0),
        domain_halfwidth=8.0,
    )
    with pytest.warns(UserWarning, match="coarse"):
        build_grid(model, 16)


def test_weighted_inner_of_target_is_its_mass(gauss_grid):
    f = gauss_grid.target_values
    assert weighted_inner(f, f, gauss_grid) == pytest.approx(SQRT_2PI, rel=1e-8)


def test_weighted_inner_against_mass_identity(gauss_grid):
    rng = np.random.default_rng(8)
    f = gauss_grid.target_values
    for _ in range(20):
        h = random_density(gauss_grid, rng)
        assert abs(weighted_inner(h, f, gauss_grid) - mass(h, gauss_grid)) < 1e-10 * mass(h, gauss_grid)


def test_cauchy_schwarz(gauss_grid):
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = random_density(gauss_grid, rng)
        b = random_density(gauss_grid, rng)
        lhs = abs(weighted_inner(a, b, gauss_grid))
        rhs = weighted_norm(a, gauss_grid) * weighted_norm(b, gauss_grid)
        assert lhs <= rhs * (1 + 1e-12)


def test_momentum_rules(gauss_model):
    # the rule follows from the dimension: trapezoid in 1-d, tensor Gauss-Hermite in 2-d
    for model in (gauss_model, standard_gaussian_pair(dim=2, halfwidth=6.0)):
        rule = build_momentum_rule(model, 9)
        assert rule.nodes.shape == (9**model.dim, model.dim)
        steps = np.diff(rule.nodes[:9, -1])
        assert np.allclose(steps, steps[0]) == (model.dim == 1)
        assert rule.weights.sum() == pytest.approx(1.0)
        assert np.all(rule.weights > 0)
    with pytest.raises(ValueError):
        build_momentum_rule(gauss_model, 1)


def test_trapezoid_rule_covers_auxiliary_mass(gauss_model):
    rule = build_momentum_rule(gauss_model, 257)
    half = float(np.max(np.abs(rule.nodes)))
    from scipy.stats import norm

    assert 2.0 * norm.sf(half) < 1e-11


def test_fixed_point(gauss_T, gauss_grid):
    f = gauss_grid.target_values
    err = weighted_norm(gauss_T.apply(f) - f, gauss_grid) / weighted_norm(f, gauss_grid)
    assert err < 1e-6


def test_mass_conservation(gauss_T, gauss_grid):
    rng = np.random.default_rng(123)
    for _ in range(20):
        h = random_density(gauss_grid, rng)
        m0 = mass(h, gauss_grid)
        assert abs(mass(gauss_T.apply(h), gauss_grid) - m0) < 1e-7 * m0


def test_norm_contraction(gauss_T, gauss_grid):
    rng = np.random.default_rng(124)
    f = gauss_grid.target_values
    alpha_f = mass(f, gauss_grid)
    for _ in range(20):
        h = random_density(gauss_grid, rng)
        assert weighted_norm(gauss_T.apply(h), gauss_grid) <= weighted_norm(h, gauss_grid) * (1 + 1e-10)
        h0 = h - (mass(h, gauss_grid) / alpha_f) * f
        factor = weighted_norm(gauss_T.apply(h0), gauss_grid) / weighted_norm(h0, gauss_grid)
        assert factor <= 0.99
    # equality direction: the target itself only loses truncated mass
    assert weighted_norm(gauss_T.apply(f), gauss_grid) <= weighted_norm(f, gauss_grid) * (1 + 1e-10)


def test_positivity(gauss_T, gauss_grid, anh_T):
    # Nystrom entries K w / f are nonnegative, so positive densities stay positive
    assert np.min(gauss_T.entries) >= 0
    assert np.min(anh_T.entries) >= 0
    rng = np.random.default_rng(125)
    for _ in range(20):
        h = random_density(gauss_grid, rng)
        assert np.min(gauss_T.apply(h)) >= -1e-12 * np.max(np.abs(h))


def test_adjoint_duality(gauss_T, gauss_Tadj, gauss_grid):
    rng = np.random.default_rng(126)
    for _ in range(20):
        h = random_density(gauss_grid, rng)
        k = random_density(gauss_grid, rng)
        lhs = weighted_inner(gauss_T.apply(h), k, gauss_grid)
        rhs = weighted_inner(h, gauss_Tadj.apply(k), gauss_grid)
        assert abs(lhs - rhs) <= 1e-7 * weighted_norm(h, gauss_grid) * weighted_norm(k, gauss_grid)


def test_adjoint_equals_transfer_for_even_auxiliary(gauss_T, gauss_Tadj, anh_grid, anh_model, anh_spec,
                                                   anh_T):
    # the inverse flow at -p is the forward flow at p with P negated, on both
    # backends, and the rule is symmetric: the adjoint's kernel is T's, bit for bit
    assert gauss_Tadj.meta["inverse"] and not gauss_T.meta["inverse"]
    assert np.array_equal(gauss_T.entries, gauss_Tadj.entries)
    assert np.array_equal(anh_T.entries, assemble_adjoint(anh_grid, anh_model, anh_spec, 257).entries)


def test_self_adjointness_residual(gauss_T):
    assert weighted_symmetry_residual(gauss_T) < 1e-7


def test_short_time_operator_is_refused_by_kernel_width(gauss_grid, gauss_model):
    # at t = 1e-12 the kernel is a spike far narrower than a grid cell
    spec = FlowSpec(time=1e-12, steps=1, method="exact_gaussian")
    for assemble in (assemble_transfer, assemble_adjoint):
        with pytest.raises(ValueError, match="kernel_width_cells = 2.5e-11 < 1"):
            assemble(gauss_grid, gauss_model, spec, 257)


def test_non_monotone_momentum_map_is_refused(tmp_path, capsys):
    # t * lambda_max = 3 < pi passes the conjugate-point check, but two leapfrog
    # steps of 1.5 make p -> Q decreasing: dQ/dp = 1.5 - 1.5 * 1.25 = -0.375
    model = standard_gaussian_pair()
    spec = FlowSpec(3.0, steps=2, method="leapfrog")
    grid = build_grid(model, 101)
    for assemble in (assemble_transfer, assemble_adjoint):
        with pytest.raises(ValueError, match="lost positivity|not strictly monotone"):
            assemble(grid, model, spec, 65)
    cfg = tmp_path / "decreasing.ini"
    cfg.write_text("[model]\nfamily = gaussian\n[flow]\ntime = 3.0\nmethod = leapfrog\nsteps = 2\n"
                   "[grid]\nn_per_axis = 101\nmomentum_nodes = 65\n[experiment]\nkind = operator\n")
    assert main(["operator", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "lost positivity" in err or "not strictly monotone" in err


def test_iterate_fixed_point_terminates_immediately(gauss_T, gauss_grid):
    trace = iterate(gauss_T, gauss_grid.target_values, n_max=50, tol=1e-6)
    assert trace.steps[-1] == 0
    assert trace.errors[0] < 1e-6
    assert trace.converged


def test_iterate_error_ratio_approaches_second_eigenvalue(gauss_T, gauss_grid):
    q = gauss_grid.nodes[:, 0]
    bump = np.exp(-0.5 * (q - 1.3) ** 2 / 0.49)
    trace = iterate(gauss_T, bump, n_max=60, tol=1e-12)
    ratios = trace.errors[1:] / trace.errors[:-1]
    assert abs(ratios[20] - np.cos(0.7)) < 0.02 * np.cos(0.7)
    assert np.all(np.diff(trace.norms) <= 1e-12)
    assert not trace.anomaly


def test_iterate_flags_divergence(gauss_T, gauss_grid):
    bad = TransferMatrix(entries=1.5 * gauss_T.entries, grid=gauss_grid, meta=dict(gauss_T.meta))
    q = gauss_grid.nodes[:, 0]
    bump = np.exp(-0.5 * (q - 1.3) ** 2 / 0.49)
    trace = iterate(bad, bump, n_max=200, tol=1e-12)
    assert trace.anomaly


def test_iterate_does_not_flag_wobble_at_the_floor(anh_trace):
    # the quartic error stalls above tol and wobbles at its floor, rising ten
    # steps in a row many times, but never to three times its best value
    assert anh_trace.steps[-1] == 12000
    assert not anh_trace.anomaly
    rises = np.diff(anh_trace.errors) > 0
    assert np.lib.stride_tricks.sliding_window_view(rises, 10).all(axis=1).any()


def _reference_iterate(T, h0, n_max, tol):
    """One matvec h <- T.entries @ h per step, under iterate's stop rules."""
    grid = T.grid
    keep = grid.retained
    scale = np.sqrt(grid.weights[keep] / grid.target_values[keep])
    h = np.asarray(h0, dtype=float).copy()
    alpha = mass(h, grid) / mass(grid.target_values, grid)
    limit = scale * (alpha * grid.target_values[keep])

    def norm(v):
        return math.sqrt(v @ v)

    norms, errors = [norm(scale * h[keep])], [norm(scale * h[keep] - limit)]
    rising, best, anomaly = 0, errors[0], False
    while errors[-1] >= tol and len(errors) - 1 < n_max:
        h = T.entries @ h
        sh = scale * h[keep]
        norms.append(norm(sh))
        errors.append(norm(sh - limit))
        rising = rising + 1 if errors[-1] > errors[-2] else 0
        best = min(best, errors[-1])
        if rising >= 10 and errors[-1] > 3.0 * best:
            anomaly = True
            break
    return IterationTrace(steps=np.arange(len(errors)), norms=np.array(norms),
                          errors=np.array(errors), alpha=alpha, tol=tol,
                          converged=bool(errors[-1] < tol), anomaly=anomaly, final=h)


def _assert_same_run(trace, ref, slack=1.0):
    """Same stop, bitwise before block mode, rounding-level agreement after it.

    ``slack`` widens the error and ``final`` bounds for operators that
    amplify rounding.
    """
    n = trace.final.size
    assert trace.steps[-1] == ref.steps[-1]
    assert np.array_equal(trace.steps, ref.steps)
    assert (trace.converged, trace.anomaly, trace.alpha) == (ref.converged, ref.anomaly, ref.alpha)
    assert np.array_equal(trace.norms[:n + 1], ref.norms[:n + 1])
    assert np.array_equal(trace.errors[:n + 1], ref.errors[:n + 1])
    assert np.all(np.abs(trace.norms - ref.norms) <= 1e-12 * ref.norms)
    assert np.all(np.abs(trace.errors - ref.errors) <= slack * 1e-14 * ref.norms[0])
    assert np.max(np.abs(trace.final - ref.final)) <= slack * 1e-12 * np.max(np.abs(ref.final))
    assert trace.final.flags.owndata


def test_iterate_block_mode_matches_matvec_loop_on_quartic(anh_T, anh_grid, anh_trace):
    # 12000 steps at n = 401: block mode from step 401 + BLOCK_STEPS on
    bump = np.exp(-0.5 * (anh_grid.nodes[:, 0] - 0.8) ** 2 / 0.16)
    _assert_same_run(anh_trace, _reference_iterate(anh_T, bump, 12000, 1e-7))


@pytest.mark.parametrize("h0, n_max, tol", [
    ("bump", 12000, 1e-7), ("bump", 60, 1e-12), ("random", 25, 1e-14), ("target", 50, 1e-6),
])
def test_iterate_short_runs_are_the_matvec_loop(gauss_T, gauss_grid, h0, n_max, tol):
    # runs that stop before n steps never reach block mode: every field bitwise
    q = gauss_grid.nodes[:, 0]
    start = {"bump": np.exp(-0.5 * (q - 1.3) ** 2 / 0.49),
             "random": random_density(gauss_grid, np.random.default_rng(2)),
             "target": gauss_grid.target_values}[h0]
    trace = iterate(gauss_T, start, n_max, tol)
    ref = _reference_iterate(gauss_T, start, n_max, tol)
    assert trace.steps[-1] < gauss_grid.n
    for name in IterationTrace.__dataclass_fields__:
        assert np.array_equal(getattr(trace, name), getattr(ref, name)), name


def _synthetic_transfer(eigenvalues, coefficients):
    """T = S^-1 A S on a 20-node grid, A symmetric with eigenvalue 1 on sqrt(w f).

    S = diag(sqrt(w / f)) maps to the symmetric frame, so T f = f and T keeps
    mass; the listed eigenvalues get the listed coefficients in h0, the other
    modes decay at |mu| <= 0.3 from coefficients <= 0.1.
    """
    grid = build_grid(standard_gaussian_pair(halfwidth=5.0), 20)
    assert grid.retained.all()
    n = grid.n
    rng = np.random.default_rng(0)
    u0 = np.sqrt(grid.weights * grid.target_values)
    U, _ = np.linalg.qr(np.column_stack([u0, rng.normal(size=(n, n - 1))]))
    rest = n - 1 - len(eigenvalues)
    mu = np.concatenate([[1.0], eigenvalues, 0.3 * rng.uniform(-1, 1, rest)])
    c = np.concatenate([[1.0], coefficients, 0.1 * rng.uniform(-1, 1, rest)])
    s = np.sqrt(grid.weights / grid.target_values)
    A = (U * mu) @ U.T
    return TransferMatrix(entries=A * s[None, :] / s[:, None], grid=grid), (U @ c) / s


def _assert_stops_inside_a_block(trace, ref, n, slack=1.0):
    # block mode reached, and the stop falls strictly inside a block
    _assert_same_run(trace, ref, slack)
    stop = int(trace.steps[-1])
    assert stop > n + BLOCK_STEPS
    assert 0 < (stop - n) % BLOCK_STEPS < BLOCK_STEPS - 1
    assert trace.final.base is None


def test_iterate_block_mode_stops_at_tol_inside_a_block():
    T, h0 = _synthetic_transfer([0.9], [1.0])
    n = T.grid.n
    errors = _reference_iterate(T, h0, 400, 0.0).errors
    k = n + 2 * BLOCK_STEPS - 13
    tol = math.sqrt(errors[k - 1] * errors[k])  # crossed between steps k - 1 and k
    trace = iterate(T, h0, 400, tol)
    ref = _reference_iterate(T, h0, 400, tol)
    assert ref.steps[-1] == k and ref.converged
    _assert_stops_inside_a_block(trace, ref, n)


def test_iterate_block_mode_stops_at_an_anomaly_inside_a_block():
    # a mode growing at 1.1 from 1e-8 overtakes the one decaying at 0.95 near
    # step 120 and trips the anomaly rule at step 141.  Seeded far above
    # rounding, so both loops trip at the same step; seeded at 0 it grows from
    # rounding alone, which the two loops do differently.  The growth also
    # amplifies their rounding differences, to 1.3e-12 of norms[0] in the errors.
    T, h0 = _synthetic_transfer([0.95, 1.1], [1.0, 1e-8])
    trace = iterate(T, h0, 1000, 1e-300)
    ref = _reference_iterate(T, h0, 1000, 1e-300)
    assert ref.anomaly and ref.steps[-1] == 141
    _assert_stops_inside_a_block(trace, ref, T.grid.n, slack=1e3)


def test_iterate_block_mode_stops_at_n_max_inside_a_block():
    T, h0 = _synthetic_transfer([0.9], [1.0])
    n_max = 150
    assert n_max % BLOCK_STEPS
    trace = iterate(T, h0, n_max, 1e-300)
    ref = _reference_iterate(T, h0, n_max, 1e-300)
    assert ref.steps[-1] == n_max and not ref.converged and not ref.anomaly
    _assert_stops_inside_a_block(trace, ref, T.grid.n)


def test_random_density_positive_and_reproducible(gauss_grid):
    a = random_density(gauss_grid, np.random.default_rng(5))
    b = random_density(gauss_grid, np.random.default_rng(5))
    assert np.array_equal(a, b)
    assert np.all(a >= 0)
    assert mass(a, gauss_grid) > 0


def test_assembly_validation(gauss_grid, gauss_model):
    spec = FlowSpec(time=3.2, steps=1, method="exact_gaussian")
    with pytest.raises(ValueError, match="conjugate"):
        assemble_transfer(gauss_grid, gauss_model, spec, 65)
    good = FlowSpec(time=0.7, steps=1, method="exact_gaussian")
    with pytest.raises(ValueError, match="at least 4"):
        assemble_transfer(gauss_grid, gauss_model, good, 3)


def test_domain_truncation_warning(anh_grid, anh_model, anh_spec):
    # a narrow box loses visible mass through the boundary
    model = standard_gaussian_pair(halfwidth=3.0)
    grid = build_grid(model, 64)
    spec = FlowSpec(time=0.7, steps=1, method="exact_gaussian")
    with pytest.warns(UserWarning, match="truncation"):
        T = assemble_transfer(grid, model, spec, 65)
    assert T.meta["leaked_mass"] > 1e-4
    # the quartic's probes reach into the auxiliary's tails: a few percent of
    # their images leave the box, carrying no mass that matters, and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        T = assemble_transfer(anh_grid, anh_model, anh_spec, 257)
    assert T.meta["frac_outside"] > 1e-3 and T.meta["leaked_mass"] < 1e-6


def test_two_dimensional_smoke():
    model = standard_gaussian_pair(dim=2, halfwidth=6.0)
    grid = build_grid(model, 24)
    spec = default_flow_spec(model, 0.5)
    # the outer Gauss-Hermite nodes (|p| = 6.36) carry 18% of the images out of the
    # 6-sigma box: a true leak of 3.2e-6 relative mass
    with pytest.warns(UserWarning, match="domain truncation"):
        T = assemble_transfer(grid, model, spec, 15)
    assert T.meta["deposit"] == "multilinear"
    rng = np.random.default_rng(1)
    h = random_density(grid, rng)
    assert abs(mass(T.apply(h), grid) - mass(h, grid)) < 0.05 * mass(h, grid)
    f = grid.target_values
    assert weighted_norm(T.apply(f) - f, grid) < 0.05 * weighted_norm(f, grid)


@pytest.mark.parametrize("fill", [0.0, np.nan, np.inf])
def test_iterate_rejects_an_initial_density_without_finite_mass(gauss_T, gauss_grid, fill):
    # a zero h0 has limit 0 and error 0 at step 0: it would read as converged
    with pytest.raises(ValueError, match="finite nonzero mass"):
        iterate(gauss_T, np.full(gauss_grid.n, fill), 50, 1e-6)


@pytest.mark.parametrize("n, time", [(201, 0.7), (401, 0.7), (801, 0.7), (401, 0.05), (401, 0.035)])
def test_transfer_records_and_gates_the_kernel_width(gauss_model, n, time):
    # the exact flow maps p = +-sigma to Q = q cos t +- sigma sin t, so the
    # kernel spans sigma sin t / h cells, sigma = 1 to the rule's accuracy:
    # 8.05, 16.1, 32.2, 1.25 and 0.875.  The Nystrom matrix is refused below one
    grid = build_grid(gauss_model, n)
    spec = FlowSpec(time=time, steps=1, method="exact_gaussian")
    width = np.sin(time) / (grid.axes[0][1] - grid.axes[0][0])
    if width < 1:
        with pytest.raises(ValueError, match=f"kernel_width_cells = {width:.3g} < 1"):
            assemble_transfer(grid, gauss_model, spec, 257)
        return
    T = assemble_transfer(grid, gauss_model, spec, 257)
    assert T.meta["kernel_width_cells"] == pytest.approx(width, rel=1e-10)
    h = random_density(grid, np.random.default_rng(3))
    assert abs(mass(T.apply(h), grid) - mass(h, grid)) < 1e-7 * mass(h, grid)


def test_iterate_norms_are_weighted_norms(gauss_T, gauss_grid):
    h0 = random_density(gauss_grid, np.random.default_rng(2))
    trace = iterate(gauss_T, h0, 25, 1e-14)
    limit = trace.alpha * gauss_grid.target_values
    assert trace.norms[-1] == pytest.approx(weighted_norm(trace.final, gauss_grid), rel=1e-13)
    assert trace.errors[-1] == pytest.approx(
        weighted_norm(trace.final - limit, gauss_grid), rel=1e-10)
    assert trace.norms[0] == pytest.approx(weighted_norm(h0, gauss_grid), rel=1e-13)


@pytest.mark.parametrize("n", [16, 401, 1601])
def test_spline_coefficients_match_scipy_on_identity(n):
    # cardinal splines: the spline of the identity on a uniform grid
    x = np.linspace(-3.5, 3.5, n)
    slopes = spline_coefficients(x[None], np.eye(n)[None].transpose(2, 0, 1))[0]
    ref = CubicSpline(x, np.eye(n))(x, 1)
    assert np.max(np.abs(slopes - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("knots", [4, 5, 9, 200])
def test_spline_coefficients_match_scipy_on_batched_rows(knots):
    rng = np.random.default_rng(knots)
    x = np.cumsum(rng.uniform(0.05, 1.0, (6, knots)), axis=1) - 2.0
    y = rng.normal(size=(6, knots, 3))
    slopes = spline_coefficients(x, y.transpose(2, 0, 1))
    # the same curves as transposed views of knot-major arrays
    x_view = np.ascontiguousarray(x.T).T
    y_view = np.ascontiguousarray(y.transpose(1, 0, 2)).transpose(1, 0, 2)
    assert np.array_equal(spline_coefficients(x_view, y_view.transpose(2, 0, 1)), slopes)
    for b in range(6):
        spline = CubicSpline(x[b], y[b])
        # the left-knot slopes are scipy's linear coefficients, the last its end slope
        scale = np.max(np.abs(spline.c[2]), axis=0)
        assert np.all(np.abs(slopes[b, :-1] - spline.c[2]) <= 1e-14 * scale)
        assert np.all(np.abs(slopes[b, -1] - spline(x[b, -1], 1)) <= 1e-14 * scale)
    with pytest.raises(ValueError, match="4 knots"):
        spline_coefficients(x[:, :3], y[:, :3].transpose(2, 0, 1))


def test_spline_coefficients_take_curves_of_any_layout():
    # the kernel's curves: P a transposed view of the knot-major flow output, p one
    # broadcast row of probes; the solve copies neither
    rows, knots = 401, 1025
    rng = np.random.default_rng(7)
    x = np.ascontiguousarray(np.cumsum(rng.uniform(0.05, 1.0, (rows, knots)), axis=1).T).T
    y = np.ascontiguousarray(rng.normal(size=(rows, knots)).T).T
    p = np.broadcast_to(np.linspace(-4.0, 4.0, knots), (rows, knots))
    tracemalloc.start()
    try:
        slopes = spline_coefficients(x, (y, p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(slopes, spline_coefficients(np.array(x), (np.array(y), np.array(p))))
    for b in range(0, rows, 80):
        for r, curve in enumerate((y, p)):
            spline = CubicSpline(x[b], curve[b])
            scale = np.max(np.abs(spline.c[2]))
            assert np.all(np.abs(slopes[b, :-1, r] - spline.c[2]) <= 1e-14 * scale)
            assert abs(slopes[b, -1, r] - spline(x[b, -1], 1)) <= 1e-14 * scale
    # the slopes (two arrays of B * N doubles), the knot spacings and one more
    # band: 4.08 arrays traced; a stacked right-hand side and three bands read 6.00
    assert peak <= 4.5 * 8 * rows * knots


def test_quartic_transfer_assembly_peak_memory(anh_grid, anh_model, anh_spec):
    # the spline reads the flowed curves as views and every array is released
    # after its last use: 5.18 MiB traced at n = 401 / m = 257; stacked curve
    # copies and spline bands read 7.09, the filtered cubic deposit this matrix
    # replaced 16.95
    tracemalloc.start()
    try:
        assemble_transfer(anh_grid, anh_model, anh_spec, 257)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 2**20


def test_gaussian_transfer_assembly_peak_memory(gauss_model, gauss_spec):
    # n = 801 / m = 257: 33.9 MiB traced, set by the (row, node) pairs of the
    # wide kernel; stacked curve copies read 35.5, the stacked spline
    # coefficients 74.2, evaluating the pieces out of place 48.8
    grid = build_grid(gauss_model, 801)
    tracemalloc.start()
    try:
        assemble_transfer(grid, gauss_model, gauss_spec, 257)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 38 * 2**20


@pytest.mark.parametrize("n, m", [(201, 1025), (401, 513)])
def test_quartic_transfer_assembly_peak_scales_with_the_flow(anh_model, anh_spec, n, m):
    # the flow output is n (m + 2) doubles per coordinate; Q, P, the knot
    # spacings, the two-curve right-hand side and the diagonal set the peak at
    # 6.2 such arrays at both sizes; stacked curve copies and three bands read 9.0
    grid = build_grid(anh_model, n)
    tracemalloc.start()
    try:
        assemble_transfer(grid, anh_model, anh_spec, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * 8 * n * (m + 2)


def test_quartic_nystrom_spectrum(anh_T, anh_report):
    # the rate and a symmetric frame free of the filtered deposit's spurious
    # negative eigenvalue (-3.45e-3 at the box edge)
    assert abs(anh_report.rate_bound - 0.994608792) <= 1e-8
    A, _, _ = to_weighted_symmetric(anh_T)
    assert np.linalg.eigvalsh(0.5 * (A + A.T)).min() >= -1e-8
