import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from conftest import elliptic_flow, random_density
from hmctransfer import (
    FlowSpec,
    assemble_transfer,
    build_grid,
    eigen_spectrum,
    gaussian_potential,
    iterate,
    mass,
    weighted_inner,
    weighted_norm,
    weighted_symmetry_residual,
)
from hmctransfer import operator
from hmctransfer.cli import main
from hmctransfer.operator import (
    BLOCK_STEPS,
    IterationTrace,
    TransferMatrix,
    build_momentum_rule,
    probe_densities,
    spline_coefficients,
    to_weighted_symmetric,
)

SQRT_2PI = np.sqrt(2.0 * np.pi)


def test_grid_integrates_gaussian_mass(gauss_grid):
    total = gauss_grid.weights @ gauss_grid.target_values
    assert total == pytest.approx(SQRT_2PI, rel=1e-8)


def test_grid_minimum_size():
    model = gaussian_potential(0.0, 1.0, 6.0)
    grid = build_grid(model, 16)
    assert grid.n == 16
    with pytest.raises(ValueError):
        build_grid(model, 15)


@pytest.mark.parametrize("halfwidth", [40.0, 38.4])
def test_underflowing_target_is_refused_before_any_flow(halfwidth):
    # the standard Gaussian on n = 801 nodes is 0 at the 28 outermost nodes of
    # [-40, 40], and so small at 18 more, and at the 14 outermost of [-38.4, 38.4],
    # that w / f overflows: either way the weighted norms and T's columns there
    # would be NaN, so the grid itself is refused
    lost = {40.0: 46, 38.4: 14}[halfwidth]
    with pytest.raises(ValueError, match=f"the target density underflows at {lost} of 801 nodes"):
        build_grid(gaussian_potential(0.0, 1.0, halfwidth), 801)


def test_too_narrow_kernel_is_refused_after_the_width_sweep(monkeypatch, gauss_model, gauss_grid):
    # at t = 1e-12 the kernel spans about 1e-10 cells: the 4n width and end
    # probes are the only points flowed before the refusal, not a row block's n m
    sweeps = []
    flow_batch = operator.flow_batch

    def counting(*args, **kwargs):
        sweeps.append(len(args[0]))
        return flow_batch(*args, **kwargs)

    monkeypatch.setattr(operator, "flow_batch", counting)
    spec = FlowSpec(time=1e-12, method="exact_gaussian")
    with pytest.raises(ValueError, match="kernel_width_cells = .* < 1"):
        assemble_transfer(gauss_grid, gauss_model, spec, 257)
    assert sweeps == [4 * 401]


@pytest.mark.parametrize("n", [16, 20, 64, 121, 401, 1601])
def test_grid_nodes_are_exactly_antisymmetric(n):
    # linspace alone misses -x[i] by 4.4e-16 to 7.1e-15 on 28 of these 30 boxes
    for L in (3.0, 3.5, 8.0, 14.0, 30.0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the coarse grids
            grid = build_grid(gaussian_potential(0.0, 1.0, L), n)
        x = grid.x
        assert np.array_equal(x, -x[::-1])
        assert x[0] == -L and x[-1] == L
        assert np.array_equal(grid.weights, grid.weights[::-1])
        assert np.array_equal(grid.target_values, grid.target_values[::-1])


def test_grid_warns_when_too_coarse():
    # a sharp target needs more than 16 nodes on [-3, 3]; on [-8, 8] it would
    # underflow at the outer nodes, which build_grid refuses
    model = gaussian_potential(0.0, 100.0, 3.0)
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


def test_momentum_rules():
    # a trapezoid rule: equally spaced probes, positive weights of unit sum
    rule = build_momentum_rule(9)
    assert rule.nodes.shape == (9,)
    steps = np.diff(rule.nodes)
    assert np.allclose(steps, steps[0])
    assert rule.weights.sum() == pytest.approx(1.0)
    assert np.all(rule.weights > 0)
    with pytest.raises(ValueError):
        build_momentum_rule(1)


@pytest.mark.parametrize("precision", [0.3, 1.0, 1.7, 4.0])
def test_trapezoid_rule_covers_auxiliary_mass(precision):
    # the box is PROBE_SDS standard deviations of the N(0, 1) momentum law, symmetric
    # about p = 0 bit for bit, and its tails hold less than 1e-12 of the mass; read
    # in p = z / sqrt(v), the same rule covers the N(0, 1 / v) law of a momentum
    # precision v, whose flow is the unit law's at time sqrt(v) t
    from scipy.stats import norm

    rule = build_momentum_rule(257)
    assert rule.nodes[-1] == operator.PROBE_SDS
    assert np.array_equal(rule.nodes, -rule.nodes[::-1])
    assert rule.weights.sum() == pytest.approx(1.0, rel=1e-14)
    assert 2.0 * norm.sf(operator.PROBE_SDS) < 1e-12
    p = rule.nodes / math.sqrt(precision)
    assert p[-1] == pytest.approx(operator.PROBE_SDS / math.sqrt(precision), rel=1e-15)
    assert 2.0 * norm.sf(p[-1], scale=1.0 / math.sqrt(precision)) < 1e-12
    assert np.dot(rule.weights, p * p) == pytest.approx(1.0 / precision, rel=1e-10)


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


def test_adjoint_duality(gauss_T, gauss_grid):
    # the adjoint is T itself (test_adjoint_equals_transfer_for_even_auxiliary)
    rng = np.random.default_rng(126)
    for _ in range(20):
        h = random_density(gauss_grid, rng)
        k = random_density(gauss_grid, rng)
        lhs = weighted_inner(gauss_T.apply(h), k, gauss_grid)
        rhs = weighted_inner(h, gauss_T.apply(k), gauss_grid)
        assert abs(lhs - rhs) <= 1e-7 * weighted_norm(h, gauss_grid) * weighted_norm(k, gauss_grid)


def test_adjoint_equals_transfer_for_even_auxiliary(gauss_grid, gauss_model, gauss_spec, anh_grid,
                                                   anh_model, anh_spec, flip_roundtrip):
    # the adjoint's kernel is T's tabulated along the inverse flow.  Two facts make
    # it T's own on both backends: at every (node, probe) pair the flow from the
    # flipped image returns the flipped start, up to roundoff, and the probes and
    # their weights are symmetric about p = 0, bit for bit
    for grid, model, spec in [(gauss_grid, gauss_model, gauss_spec),
                              (anh_grid, anh_model, anh_spec)]:
        for m in (257, 1025):
            rule = build_momentum_rule(m)
            assert np.array_equal(rule.nodes[::-1], -rule.nodes)
            assert np.array_equal(rule.weights[::-1], rule.weights)
            q, p = np.repeat(grid.x, m), np.tile(rule.nodes, grid.n)
            assert flip_roundtrip(model, spec, q, p) <= 1e-13


def test_even_target_transfer_is_mirror_symmetric(anh_T, anh_grid, anh_model, anh_spec, gauss_T,
                                                  gauss_kernel, gauss_model, gauss_spec):
    # T[n - 1 - i, n - 1 - j] = T[i, j] bitwise, the middle row of odd n a palindrome
    even_n = build_grid(gauss_model, 400)
    for T in (anh_T, assemble_transfer(anh_grid, anh_model, anh_spec, 1025), gauss_T,
              gauss_kernel, assemble_transfer(even_n, gauss_model, gauss_spec, 257)):
        n = T.grid.n
        assert T.meta["tabulated_rows"] == n - n // 2
        assert np.array_equal(T.entries[::-1, ::-1], T.entries)


@pytest.mark.parametrize("m", [257, 1025])
def test_half_tabulation_matches_the_full_one(anh_grid, anh_model, anh_spec, m):
    # the quartic's functions and bounds under kind "custom", which is never taken to be even
    half = assemble_transfer(anh_grid, anh_model, anh_spec, m)
    model = dataclasses.replace(anh_model, kind="custom")
    assert not model.is_even
    full = assemble_transfer(anh_grid, model, anh_spec, m)
    assert (half.meta["tabulated_rows"], full.meta["tabulated_rows"]) == (201, 401)
    assert np.max(np.abs(half.entries - full.entries)) <= 1e-14 * np.max(np.abs(full.entries))
    for key in ("frac_outside", "kernel_width_cells"):
        assert half.meta[key] == full.meta[key], key
    for key in ("hs_norm_sq_momentum", "leaked_mass"):
        assert half.meta[key] == pytest.approx(full.meta[key], rel=1e-13), key


def test_self_adjointness_residual(gauss_T):
    assert weighted_symmetry_residual(gauss_T) < 1e-7


def test_probe_family_holds_the_eight_residual_bumps(anh_grid):
    # the family keeps the eight width-L/10 bumps the residual used alone, bit for
    # bit, so its gate can only get stricter; each centre also gets L/16 and 9L/80
    probes = probe_densities(anh_grid)
    L = anh_grid.halfwidth
    assert probes.shape == (24, anh_grid.n)
    for c, row in zip(np.linspace(-0.3 * L, 0.3 * L, 8), probes[1::3]):
        assert np.array_equal(row, np.exp(-0.5 * (anh_grid.x - c) ** 2 / (0.1 * L) ** 2))
    peaks = anh_grid.x[np.argmax(probes, axis=1)]
    assert np.max(np.abs(peaks)) <= 0.3 * L + anh_grid.x[1] - anh_grid.x[0]


def _duality_gap(T, h, k):
    """|<T h, k> - <h, T k>| / (||h|| ||k||) in the weighted inner product."""
    grid = T.grid
    gap = weighted_inner(T.apply(h), k, grid) - weighted_inner(h, T.apply(k), grid)
    return abs(gap) / (weighted_norm(h, grid) * weighted_norm(k, grid))


def test_symmetry_residual_is_the_pairwise_maximum(anh_T, anh_grid):
    # the one Gram matrix gives the maximum of the pairwise duality gaps, each a
    # difference of two normalised inner products of at most 1 summed over n nodes
    probes = probe_densities(anh_grid)
    gaps = [_duality_gap(anh_T, a, b) for i, a in enumerate(probes) for b in probes[i + 1:]]
    assert abs(weighted_symmetry_residual(anh_T) - max(gaps)) <= anh_grid.n * np.finfo(float).eps


@pytest.mark.parametrize("name", ["gauss", "anh"])
def test_probe_family_bounds_random_densities(request, name):
    # the deterministic family finds at least the largest mass error and
    # self-adjointness residual that 100 and 20 pairs of random densities find
    grid, T = (request.getfixturevalue(f"{name}_{part}") for part in ("grid", "T"))

    def mass_error(h):
        return abs(mass(T.apply(h), grid) - mass(h, grid)) / mass(h, grid)

    rng = np.random.default_rng(0)
    random_mass = max(mass_error(random_density(grid, rng)) for _ in range(100))
    random_duality = max(_duality_gap(T, random_density(grid, rng), random_density(grid, rng))
                         for _ in range(20))
    assert max(mass_error(h) for h in probe_densities(grid)) >= random_mass
    assert weighted_symmetry_residual(T) >= random_duality


def test_short_time_operator_is_refused_by_kernel_width(gauss_grid, gauss_model):
    # at t = 1e-12 the kernel is a spike far narrower than a grid cell
    spec = FlowSpec(time=1e-12, steps=1, method="exact_gaussian")
    with pytest.raises(ValueError, match="kernel_width_cells = 2.5e-11 < 1"):
        assemble_transfer(gauss_grid, gauss_model, spec, 257)


def test_non_monotone_momentum_map_is_refused(tmp_path, capsys):
    # t * lambda_max = 3 < pi passes the conjugate-point check, but two leapfrog
    # steps of 1.5 make p -> Q decreasing: dQ/dp = 1.5 - 1.5 * 1.25 = -0.375
    model = gaussian_potential(0.0, 1.0, 8.0)
    spec = FlowSpec(3.0, steps=2, method="leapfrog")
    grid = build_grid(model, 101)
    with pytest.raises(ValueError, match="lost positivity|not strictly monotone"):
        assemble_transfer(grid, model, spec, 65)
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
    q = gauss_grid.x
    bump = np.exp(-0.5 * (q - 1.3) ** 2 / 0.49)
    trace = iterate(gauss_T, bump, n_max=60, tol=1e-12)
    ratios = trace.errors[1:] / trace.errors[:-1]
    assert abs(ratios[20] - np.cos(0.7)) < 0.02 * np.cos(0.7)
    assert np.all(np.diff(trace.norms) <= 1e-12)
    assert not trace.anomaly


def test_iterate_flags_divergence(gauss_T, gauss_grid):
    bad = TransferMatrix(entries=1.5 * gauss_T.entries, grid=gauss_grid, meta=dict(gauss_T.meta))
    q = gauss_grid.x
    bump = np.exp(-0.5 * (q - 1.3) ** 2 / 0.49)
    trace = iterate(bad, bump, n_max=200, tol=1e-12)
    assert trace.anomaly
    # the error rises from step 0: the rule counts ten rises after it, as the matvec loop does
    _assert_same_run(trace, _reference_iterate(bad, bump, 200, 1e-12))


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
    scale = np.sqrt(grid.weights / grid.target_values)
    h = np.asarray(h0, dtype=float).copy()
    alpha = mass(h, grid) / mass(grid.target_values, grid)
    limit = scale * (alpha * grid.target_values)

    def norm(v):
        return math.sqrt(v @ v)

    norms, errors = [norm(scale * h)], [norm(scale * h - limit)]
    rising, best, anomaly = 0, errors[0], False
    while errors[-1] >= tol and len(errors) - 1 < n_max:
        h = T.entries @ h
        sh = scale * h
        norms.append(norm(sh))
        errors.append(norm(sh - limit))
        rising = rising + 1 if errors[-1] > errors[-2] else 0
        best = min(best, errors[-1])
        if rising >= 10 and errors[-1] > 3.0 * best:
            anomaly = True
            break
    return IterationTrace(steps=np.arange(len(errors)), norms=np.array(norms),
                          errors=np.array(errors), alpha=alpha,
                          converged=bool(errors[-1] < tol), anomaly=anomaly, final=h)


def _assert_same_run(trace, ref, slack=1.0):
    """Same stop, and rounding-level agreement with the matvec loop at every step.

    ``slack`` widens the error and ``final`` bounds for operators that
    amplify rounding.
    """
    assert trace.steps[-1] == ref.steps[-1]
    assert np.array_equal(trace.steps, ref.steps)
    assert (trace.converged, trace.anomaly, trace.alpha) == (ref.converged, ref.anomaly, ref.alpha)
    assert np.all(np.abs(trace.norms - ref.norms) <= 1e-12 * ref.norms)
    assert np.all(np.abs(trace.errors - ref.errors) <= slack * 1e-14 * ref.norms[0])
    assert np.max(np.abs(trace.final - ref.final)) <= slack * 1e-12 * np.max(np.abs(ref.final))
    assert trace.final.flags.owndata


def _counted_iterate(monkeypatch, T, h0, n_max, tol):
    """``iterate``, the number of parity blocks it ran on, 0 when it took none,
    and the number of powers it formed; it must take the blocks of T at most once."""
    frames, powers = [], []
    parity_blocks, matrix_power = operator.parity_blocks, np.linalg.matrix_power

    def record(T):
        frames.append(parity_blocks(T))
        return frames[-1]

    def count(a, k):
        powers.append(k)
        return matrix_power(a, k)

    with monkeypatch.context() as patch:
        patch.setattr(operator, "parity_blocks", record)
        patch.setattr(np.linalg, "matrix_power", count)
        trace = iterate(T, h0, n_max, tol)
    assert len(frames) <= 1
    assert set(powers) <= {BLOCK_STEPS}
    return trace, len(frames[0].blocks) if frames else 0, len(powers)


def test_iterate_block_mode_matches_matvec_loop_on_quartic(anh_T, anh_grid, anh_trace):
    # 12000 steps at n = 401: the products with the blocks' powers from step BLOCK_STEPS on
    bump = np.exp(-0.5 * (anh_grid.x - 0.8) ** 2 / 0.16)
    _assert_same_run(anh_trace, _reference_iterate(anh_T, bump, 12000, 1e-7))


@pytest.mark.parametrize("h0, n_max, tol", [
    ("bump", 12000, 1e-7), ("bump", 60, 1e-12), ("random", 25, 1e-14), ("target", 50, 1e-6),
    ("bump", 0, 1e-12),
])
def test_iterate_short_runs_are_the_matvec_loop(monkeypatch, gauss_T, gauss_grid, h0, n_max, tol):
    # runs that stop inside the first chunk take the blocks once and form no
    # power; the target converges at step 0, and n_max = 0 stops there, before
    # the blocks are taken
    q = gauss_grid.x
    start = {"bump": np.exp(-0.5 * (q - 1.3) ** 2 / 0.49),
             "random": random_density(gauss_grid, np.random.default_rng(2)),
             "target": gauss_grid.target_values}[h0]
    trace, blocks, powers = _counted_iterate(monkeypatch, gauss_T, start, n_max, tol)
    assert trace.steps[-1] < BLOCK_STEPS and powers == 0
    assert blocks == (0 if h0 == "target" or n_max == 0 else 2)
    _assert_same_run(trace, _reference_iterate(gauss_T, start, n_max, tol))


def _synthetic_transfer(eigenvalues, coefficients, mirror=False):
    """T = S^-1 A S on a 20-node grid, A symmetric with eigenvalue 1 on sqrt(w f).

    S = diag(sqrt(w / f)) maps to the symmetric frame, so T f = f and T keeps
    mass; the listed eigenvalues get the listed coefficients in h0, the other
    modes decay at |mu| <= 0.3 from coefficients <= 0.1.  With ``mirror`` the
    eigenvectors after sqrt(w f) are alternately odd and even, the first
    listed one odd, and A is averaged with its mirror image, so T equals
    T[::-1, ::-1] bit for bit: the two-block path of ``iterate``.
    """
    grid = build_grid(gaussian_potential(0.0, 1.0, 5.0), 20)
    n = grid.n
    rng = np.random.default_rng(0)
    u0 = np.sqrt(grid.weights * grid.target_values)
    R = rng.normal(size=(n, n - 1))
    if mirror:
        R = 0.5 * (R + np.where(np.arange(n - 1) % 2, 1.0, -1.0) * R[::-1])
    U, _ = np.linalg.qr(np.column_stack([u0, R]))
    rest = n - 1 - len(eigenvalues)
    mu = np.concatenate([[1.0], eigenvalues, 0.3 * rng.uniform(-1, 1, rest)])
    c = np.concatenate([[1.0], coefficients, 0.1 * rng.uniform(-1, 1, rest)])
    s = np.sqrt(grid.weights / grid.target_values)
    A = (U * mu) @ U.T
    if mirror:
        A = 0.5 * (A + A[::-1, ::-1])
    return TransferMatrix(entries=A * s[None, :] / s[:, None], grid=grid), (U @ c) / s


def _assert_stops_inside_a_chunk(trace, ref, slack=1.0):
    # the stop falls strictly inside a chunk after the first
    _assert_same_run(trace, ref, slack)
    stop = int(trace.steps[-1])
    assert stop > BLOCK_STEPS
    assert 0 < stop % BLOCK_STEPS < BLOCK_STEPS - 1
    assert trace.final.base is None


def test_iterate_block_mode_stops_at_tol_inside_a_block(monkeypatch):
    for mirror in (False, True):
        T, h0 = _synthetic_transfer([0.9], [1.0], mirror)
        errors = _reference_iterate(T, h0, 400, 0.0).errors
        k = 2 * BLOCK_STEPS - 13
        tol = math.sqrt(errors[k - 1] * errors[k])  # crossed between steps k - 1 and k
        trace, blocks, powers = _counted_iterate(monkeypatch, T, h0, 400, tol)
        ref = _reference_iterate(T, h0, 400, tol)
        assert ref.steps[-1] == k and ref.converged
        assert (blocks, powers) == (1 + mirror, 1 + mirror)
        _assert_stops_inside_a_chunk(trace, ref)


def test_iterate_block_mode_stops_at_the_edges_of_the_first_blocks():
    # the first chunk is y_0 and the B - 1 matvecs with the parity blocks after
    # it, the second the first product with their B-th powers: stops at the
    # first and last rows of each, and in the third, end the run where the
    # matvec loop ends it
    for mirror in (False, True):
        T, h0 = _synthetic_transfer([0.9], [1.0], mirror)
        errors = _reference_iterate(T, h0, 400, 0.0).errors
        for k in (1, BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1, 2 * BLOCK_STEPS + 1):
            tol = math.sqrt(errors[k - 1] * errors[k])
            trace, ref = iterate(T, h0, 400, tol), _reference_iterate(T, h0, 400, tol)
            assert ref.steps[-1] == k
            _assert_same_run(trace, ref)


def test_iterate_block_mode_stops_at_an_anomaly_inside_a_block(monkeypatch):
    # a mode growing at 1.05 from 1e-11 overtakes the one decaying at 0.9 near
    # step 165 and trips the anomaly rule at step 194.  Seeded far above
    # rounding, so both loops trip at the same step; seeded at 0 it grows from
    # rounding alone, which the two loops do differently.  The growth also
    # amplifies their rounding differences, to 3.3e-12 of norms[0] in the errors.
    for mirror in (False, True):
        T, h0 = _synthetic_transfer([0.9, 1.05], [1.0, 1e-11], mirror)
        trace, blocks, powers = _counted_iterate(monkeypatch, T, h0, 1000, 1e-300)
        ref = _reference_iterate(T, h0, 1000, 1e-300)
        assert ref.anomaly and ref.steps[-1] == 194
        assert (blocks, powers) == (1 + mirror, 1 + mirror)
        _assert_stops_inside_a_chunk(trace, ref, slack=1e3)


def test_iterate_block_mode_stops_at_n_max_inside_a_block(monkeypatch):
    # 200 - (B - 1) = 73 steps left after the first chunk: as many matvecs cost
    # less than forming the powers of the one block of 20, and more than
    # forming those of the two blocks of 10 (7 squarings each)
    for mirror in (False, True):
        T, h0 = _synthetic_transfer([0.9], [1.0], mirror)
        n_max = 200
        trace, blocks, powers = _counted_iterate(monkeypatch, T, h0, n_max, 1e-300)
        ref = _reference_iterate(T, h0, n_max, 1e-300)
        assert ref.steps[-1] == n_max and not ref.converged and not ref.anomaly
        assert (blocks, powers) == (1 + mirror, 2 * mirror)
        _assert_stops_inside_a_chunk(trace, ref)


def test_iterate_runs_matvec_chunks_on_a_short_budget(monkeypatch, gauss_T, gauss_grid):
    # 300 - (B - 1) = 173 steps left after the first chunk, fewer than the
    # 7 x 201 whose matvecs cost what the powers of a block of 201 do: chunks
    # two and three are matvecs, and no power is formed
    bump = np.exp(-0.5 * (gauss_grid.x - 1.3) ** 2 / 0.49)
    trace, blocks, powers = _counted_iterate(monkeypatch, gauss_T, bump, 300, 1e-300)
    ref = _reference_iterate(gauss_T, bump, 300, 1e-300)
    assert ref.steps[-1] == 300 and (blocks, powers) == (2, 0)
    _assert_stops_inside_a_chunk(trace, ref)


@pytest.mark.parametrize("name", ["anh_T", "gauss_T", "gauss_T_400"])
def test_parity_blocks_act_as_the_symmetric_frame(request, name):
    # an even target's T is its own mirror image: two blocks of sizes
    # ceil(n / 2) and n // 2 whose action, in and out of their coordinates, is A's
    T = request.getfixturevalue(name)
    n = T.grid.n
    frame = operator.parity_blocks(T)
    assert [len(block) for block in frame.blocks] == [n - n // 2, n // 2]
    V = np.random.default_rng(3).normal(size=(6, n))
    for v in (V, V[0]):
        assert np.max(np.abs(frame.join(frame.split(v)) - v)) <= 1e-15 * np.max(np.abs(v))
    AV = frame.join([part @ block.T for part, block in zip(frame.split(V), frame.blocks)])
    ref = V @ to_weighted_symmetric(T).T
    assert np.all(np.linalg.norm(AV - ref, axis=1) <= 1e-14 * np.linalg.norm(ref, axis=1))


def test_parity_blocks_take_one_block_unless_t_is_its_mirror(offset_T, anh_T, anh_grid):
    # the Gaussian of mean 0.6, a synthetic T, and the quartic's T on a grid whose
    # sqrt(w / f) is not symmetric: each is the one block A, and split and join
    # pass vectors through
    tilted = operator.DensityGrid(x=anh_grid.x, weights=anh_grid.weights,
                                  target_values=anh_grid.target_values * (1 + 1e-3 * anh_grid.x))
    for T in (offset_T, _synthetic_transfer([0.9], [1.0])[0],
              TransferMatrix(entries=anh_T.entries, grid=tilted)):
        frame = operator.parity_blocks(T)
        assert len(frame.blocks) == 1
        assert np.array_equal(frame.blocks[0], to_weighted_symmetric(T))
        v = np.ones(T.grid.n)
        assert frame.split(v)[0] is v and frame.join([v]) is v


@pytest.mark.parametrize("mirror", [False, True], ids=["one-block", "two-block"])
def test_second_mass_is_measured_on_both_paths(mirror, spectrum_vectors):
    # the second listed eigenvalue, 1.0, has an even eigenvector, so the top
    # eigenvalue is double on the even side.  The leading and second vectors
    # then share a block and an eigenvalue, and inverse iteration from a vector
    # of ones, not from f, lands both in that eigenspace; the second, deflated
    # against the leading one, carries mass, which only a measured second_mass reports
    T, _ = _synthetic_transfer([0.5, 1.0], [0.0, 0.0], mirror)
    assert len(operator.parity_blocks(T).blocks) == 1 + mirror
    with pytest.warns(UserWarning, match="may not be simple"):
        report, lead, second = spectrum_vectors(T, 4)
    assert not report.multiplicity_check and report.second_mass > 1e-3
    assert abs(operator.weighted_inner(lead, second, T.grid)) <= 1e-12
    # a simple top eigenvalue: the odd 0.9 mode second, its mass rounding
    report = eigen_spectrum(_synthetic_transfer([0.9], [1.0], mirror)[0], 4)
    assert report.multiplicity_check and report.second_mass < 1e-14
    assert abs(report.eigenvalues[1] - 0.9) <= 1e-14


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
    model = gaussian_potential(0.0, 1.0, 3.0)
    grid = build_grid(model, 64)
    spec = FlowSpec(time=0.7, steps=1, method="exact_gaussian")
    with pytest.warns(UserWarning, match="truncation"):
        T = assemble_transfer(grid, model, spec, 65)
    assert T.meta["leaked_mass"] > 1e-4
    # the quartic's probes reach into the momentum law's tails: a few percent of
    # their images leave the box, carrying no mass that matters, and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        T = assemble_transfer(anh_grid, anh_model, anh_spec, 257)
    assert T.meta["frac_outside"] > 1e-3 and T.meta["leaked_mass"] < 1e-6


def test_leaked_mass_is_the_mass_the_operator_loses(anh_T, anh_grid):
    # the f x g measure of the images leaving the box is the mass T loses from f, up
    # to the leapfrog's energy error: 4.07e-13 against 9.13e-13.  Weighting each
    # image by its probe weight times g(P) / g(p) read 2.07e-11
    f = anh_grid.target_values
    loss = 1.0 - mass(anh_T.apply(f), anh_grid) / mass(f, anh_grid)
    assert loss / 10 <= anh_T.meta["leaked_mass"] <= 10 * loss


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
    width = np.sin(time) / (grid.x[1] - grid.x[0])
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
    # after its last use: 4.02 MiB traced at n = 401 / m = 257, the 201
    # tabulated rows of the even quartic in one block with T's 1.23 held through
    # it; T allocated after the block read 2.79, all 401 rows tabulated 6.41
    tracemalloc.start()
    try:
        assemble_transfer(anh_grid, anh_model, anh_spec, 257)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7 * 2**20


def test_gaussian_transfer_assembly_peak_memory(gauss_model, gauss_spec):
    # n = 801 / m = 257: the wide kernel spans up to 466 nodes a row, so its
    # (row, node) pairs, not its 257 probes, bound the blocks, and the centred
    # Gaussian's 401 tabulated rows pass in two blocks of 201 and 200: 15.4 MiB
    # traced, T's 4.9 included.  Blocks bounded by their probes alone took the
    # 401 rows in one, 24.6 MiB, set by the pairs and the spline pieces' temporaries
    grid = build_grid(gauss_model, 801)
    tracemalloc.start()
    try:
        assemble_transfer(grid, gauss_model, gauss_spec, 257)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


@pytest.mark.parametrize("quartic", [True, False], ids=["quartic-401", "gaussian-201"])
def test_row_blocks_keep_every_entry(monkeypatch, quartic, anh_model, anh_spec):
    # m = 1025, at most 127 rows a block, in blocks of balanced sizes: the even
    # quartic at n = 401 tabulates its 201 rows in blocks of 101 and 100, and the
    # exact flow of the Gaussian of mean 0.6, not even, all 201 of its rows in
    # blocks of 101 and 100.  Every row is tabulated on its own, so one block of
    # all rows gives the same bits
    if quartic:
        model, spec, n = anh_model, anh_spec, 401
    else:
        # momentum precision 1.7 at t = 0.6 is the unit law at t = sqrt(1.7) 0.6
        model = gaussian_potential(0.6, 2.5, 6.0)
        spec, n = FlowSpec(time=np.sqrt(1.7) * 0.6, method="exact_gaussian"), 201
    grid = build_grid(model, n)

    a = assemble_transfer(grid, model, spec, 1025)
    assert operator.ROW_BLOCK_POINTS // 1025 < a.meta["tabulated_rows"] == 201
    monkeypatch.setattr(operator, "ROW_BLOCK_POINTS", n * 1025)
    b = assemble_transfer(grid, model, spec, 1025)
    assert np.array_equal(a.entries, b.entries)
    hs_a, hs_b = a.meta.pop("hs_norm_sq_momentum"), b.meta.pop("hs_norm_sq_momentum")
    assert abs(hs_a - hs_b) <= 1e-13 * hs_b
    assert a.meta == b.meta


@pytest.mark.parametrize("n, m", [(201, 1025), (401, 513)])
def test_quartic_transfer_assembly_peak_scales_with_the_flow(anh_model, anh_spec, n, m):
    # the unit is n (m + 2) doubles, the probe and width-probe points per
    # coordinate.  The even quartic's ceil(n / 2) tabulated rows take one block
    # at both sizes, whose Q, P, knot spacings, two-curve right-hand side and
    # diagonal, with T allocated before them, set the peak at 3.6 and 4.0 such
    # arrays (3.4 and 3.2 with T allocated after the block).  All n rows
    # tabulated, in two blocks, read 4.3 and 4.8
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
    A = to_weighted_symmetric(anh_T)
    assert np.linalg.eigvalsh(0.5 * (A + A.T)).min() >= -1e-8


# mu_1 of the quartic fixture's operator at t = 0.08, Richardson-extrapolated in
# tau^2 from leapfrog's, to 13 decimals
QUARTIC_MU1 = 0.9946088002636


def _exact_quartic_T(monkeypatch, model, spec, n, m):
    """The quartic's operator with its exact flow, on n nodes and m probes."""
    monkeypatch.setattr(operator, "flow_batch", elliptic_flow)
    return assemble_transfer(build_grid(model, n), model, spec, m)


def test_exact_quartic_flow_meets_the_extrapolated_rate(monkeypatch, anh_model, anh_spec):
    # the operator with no integrator at all: mu_1 at n = 401, m = 257 lies within its
    # change under refining n and m, plus the reference's rounding to 13 decimals
    coarse, fine = (eigen_spectrum(_exact_quartic_T(monkeypatch, anh_model, anh_spec, n, m),
                                   k=4).rate_bound for n, m in ((401, 257), (801, 1025)))
    refinement = abs(coarse - fine)
    assert refinement <= 1e-12
    assert abs(coarse - QUARTIC_MU1) <= refinement + 5e-14


def test_exact_quartic_operator_residuals(monkeypatch, anh_model, anh_spec):
    # leapfrog's tau^2 bias puts the self-adjointness and fixed-point residuals at
    # 3.5e-8 and 6.5e-8 at 36 steps; the exact flow leaves rounding.  The fixed point
    # is measured on |x| < L - 0.5, since the box edge cuts the kernel rows next to it
    T = _exact_quartic_T(monkeypatch, anh_model, anh_spec, 401, 257)
    assert weighted_symmetry_residual(T) <= 1e-11
    grid = T.grid
    inner = np.abs(grid.x) < grid.halfwidth - 0.5
    f, w = grid.target_values[inner], grid.weights[inner]
    r = (T.apply(grid.target_values) - grid.target_values)[inner]
    assert math.sqrt(np.sum(w * r * r / f) / np.sum(w * f)) <= 1e-11
