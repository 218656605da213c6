import tracemalloc

import numpy as np
import pytest

from hmctransfer import (
    FlowSpec,
    IterationTrace,
    anharmonic_pair,
    assemble_adjoint,
    assemble_transfer,
    build_grid,
    certify_rate,
    default_flow_spec,
    determinant_bounds,
    eigen_spectrum,
    hs_norm,
    iterate,
    mass,
    random_density,
    standard_gaussian_pair,
    weighted_norm,
)
from hmctransfer import operator, tangent
from hmctransfer.dynamics import flow_batch
from hmctransfer.operator import TransferMatrix, build_momentum_rule, weighted_symmetry_residual
from hmctransfer.tangent import tangent_batch


def kernel(T):
    """K(q_i, x_j) = T_ij f_j / w_j: the kernel table behind a 1-d Nystrom matrix."""
    return T.entries * (T.grid.target_values / T.grid.weights)


def mehler_kernel(grid, t):
    """Hand-derived closed form for the standard Gaussian pair:
    K(q, Q) = f(q) N(q cos t, sin^2 t)(Q)."""
    c, s = np.cos(t), np.sin(t)
    q = grid.nodes[:, 0]
    f = grid.target_values
    return f[:, None] * np.exp(-0.5 * (q[None, :] - q[:, None] * c) ** 2 / s**2) / (
        np.sqrt(2 * np.pi) * s
    )


def test_kernel_matches_closed_form(gauss_kernel, gauss_grid):
    closed = mehler_kernel(gauss_grid, 0.7)
    sel = closed > 1e-9 * closed.max()
    rel = np.max(np.abs(kernel(gauss_kernel)[sel] - closed[sel]) / closed[sel])
    assert rel < 1e-6


def test_kernel_row_integrals_reproduce_target(gauss_kernel, gauss_grid):
    # applying the operator to the target itself integrates each kernel row
    f = gauss_grid.target_values
    row = gauss_kernel.apply(f)
    assert weighted_norm(row - f, gauss_grid) < 1e-7 * weighted_norm(f, gauss_grid)
    interior = np.abs(gauss_grid.nodes[:, 0]) <= 5.0
    assert np.max(np.abs(row[interior] - f[interior]) / f[interior]) < 1e-7


def test_kernel_symmetric_for_even_auxiliary(gauss_kernel):
    K = kernel(gauss_kernel)
    sel = K > 1e-9 * K.max()
    sym = np.abs(K - K.T)
    assert np.max(sym[sel] / K[sel]) < 1e-6


def test_kernel_nonnegative(gauss_kernel):
    assert np.min(gauss_kernel.entries) >= 0.0


def test_hs_norm_oracle(gauss_kernel, gauss_grid):
    oracle = 1.0 / np.sin(0.7) ** 2
    value = hs_norm(gauss_kernel)
    assert abs(value - oracle) < 1e-3 * oracle
    assert abs(value - gauss_kernel.meta["hs_norm_sq_momentum"]) < 1e-4 * value


def test_hs_norm_bounded_by_determinant_cap(gauss_kernel, gauss_model):
    _, upper = determinant_bounds(gauss_model, 0.7)
    assert hs_norm(gauss_kernel) <= upper * (1 + 1e-6)


def test_hs_norm_near_quarter_period(gauss_grid, gauss_model):
    # the operator approaches the rank-one projection onto the target
    spec = FlowSpec(time=np.pi / 2, steps=1, method="exact_gaussian")
    assert abs(hs_norm(assemble_transfer(gauss_grid, gauss_model, spec, 1025)) - 1.0) < 1e-6
    T = assemble_transfer(gauss_grid, gauss_model, spec, 257)
    report = eigen_spectrum(T, gauss_grid, k=6)
    assert abs(report.eigenvalues[1]) < 1e-3


def test_hs_consistency_failure_detected(gauss_kernel, gauss_grid):
    meta = {**gauss_kernel.meta, "hs_norm_sq_momentum": hs_norm(gauss_kernel) * 1.01}
    broken = TransferMatrix(entries=gauss_kernel.entries, grid=gauss_grid, meta=meta)
    with pytest.raises(ValueError, match="disagree"):
        hs_norm(broken)


def test_kernel_regime_validation(gauss_grid, gauss_model):
    spec = FlowSpec(time=3.2, steps=1, method="exact_gaussian")
    with pytest.raises(ValueError, match="conjugate"):
        assemble_transfer(gauss_grid, gauss_model, spec, 1025)


def test_spectrum_matches_mehler_eigenvalues(gauss_report):
    mehler = np.cos(0.7) ** np.arange(6)
    assert np.max(np.abs(gauss_report.eigenvalues[:6] - mehler)) < 1e-3
    assert gauss_report.rate_bound == pytest.approx(np.cos(0.7), abs=1e-3)
    assert gauss_report.gap == pytest.approx(1 - np.cos(0.7), abs=1e-3)


def test_spectrum_invariants(gauss_report):
    mu = gauss_report.eigenvalues
    assert abs(mu[0] - 1.0) < 1e-4
    assert np.max(np.abs(mu)) <= 1.0 + 1e-6
    assert mu.min() >= -1e-6  # Gaussian case: nonnegative spectrum
    assert gauss_report.multiplicity_check
    assert gauss_report.second_mass < 1e-6
    assert not gauss_report.gap_caveat
    assert gauss_report.symmetry_residual < 1e-6


def test_spectrum_nonnegative_on_coarser_grid(gauss_model, gauss_spec):
    # the nonnegative Mehler spectrum away from the fixture resolution: at
    # n = 201, m = 257 point-sampled spline cardinals gave an eigenvalue of -3.5e-5
    grid = build_grid(gauss_model, 201)
    T = assemble_transfer(grid, gauss_model, gauss_spec, 257)
    mu = eigen_spectrum(T, grid, k=64).eigenvalues
    assert abs(mu[0] - 1.0) < 1e-4
    assert mu.min() >= -1e-6


def test_leading_vector_proportional_to_target(gauss_report, gauss_grid):
    f = gauss_grid.target_values
    fn = f / weighted_norm(f, gauss_grid)
    assert weighted_norm(gauss_report.leading_vector - fn, gauss_grid) < 1e-4


def test_hilbert_schmidt_identity(gauss_report, gauss_kernel):
    # sum mu^2 of the Nystrom matrix is the position-space HS quadrature of the
    # same table, so it is held to the closed form and the momentum-space estimate
    total = gauss_report.sum_squares
    oracle = 1.0 / np.sin(0.7) ** 2
    assert abs(total - oracle) < 1e-3 * oracle
    hs_momentum = gauss_kernel.meta["hs_norm_sq_momentum"]
    assert abs(total - hs_momentum) < 1e-3 * hs_momentum
    # tail beyond the computed modes is negligible
    assert gauss_report.eigenvalues[-1] ** 2 < 1e-6


def test_spectrum_refuses_non_self_adjoint_operator(gauss_T, gauss_grid):
    corrupt = TransferMatrix(
        entries=gauss_T.entries + 1e-3 * np.triu(np.abs(gauss_T.entries)),
        grid=gauss_grid,
        meta=dict(gauss_T.meta),
    )
    with pytest.raises(ValueError, match="self-adjoint"):
        eigen_spectrum(corrupt, gauss_grid, k=4)


def test_spectrum_rejects_k_below_two(gauss_T, gauss_grid):
    with pytest.raises(ValueError, match="k >= 2"):
        eigen_spectrum(gauss_T, gauss_grid, k=1)


def test_certificate_gaussian_rate(gauss_report, gauss_T, gauss_grid):
    q = gauss_grid.nodes[:, 0]
    bump = np.exp(-0.5 * (q - 1.3) ** 2 / 0.49)
    trace = iterate(gauss_T, bump, n_max=400, tol=1e-12)
    cert = certify_rate(gauss_report, trace)
    assert cert.passed
    assert abs(cert.rho_emp - np.cos(0.7)) < 0.02 * np.cos(0.7)
    assert cert.r_squared > 0.99


def test_certificate_trivial_for_fixed_point_start(gauss_report, gauss_T, gauss_grid):
    trace = iterate(gauss_T, gauss_grid.target_values, n_max=50, tol=1e-6)
    cert = certify_rate(gauss_report, trace)
    assert cert.trivially_converged
    assert cert.passed


def test_certificate_rejects_non_geometric_decay(gauss_report):
    n = np.arange(60)
    errors = np.exp(-0.1 * n) * (1.0 + 0.5 * (-1.0) ** n)
    trace = IterationTrace(
        steps=n,
        norms=errors,
        errors=errors,
        alpha=1.0,
        tol=1e-12,
        converged=False,
        anomaly=False,
        final=np.zeros(3),
    )
    cert = certify_rate(gauss_report, trace)
    assert not cert.passed
    assert cert.r_squared < 0.99


def test_certificate_anharmonic_internal_consistency(anh_report, anh_trace):
    cert = certify_rate(anh_report, anh_trace)
    assert cert.passed
    assert cert.mismatch < 0.02
    assert anh_report.gap_caveat  # no closed form: flag the discretization caveat


def test_anharmonic_kernel_consistency(anh_grid, anh_model, anh_spec, anh_T):
    T = assemble_transfer(anh_grid, anh_model, anh_spec, 1025)
    value = hs_norm(T)
    assert abs(value - T.meta["hs_norm_sq_momentum"]) < 1e-4 * value
    rng = np.random.default_rng(31)
    h = random_density(anh_grid, rng)
    # 257 probes against 1025: the kernel is converged in the probe count
    gap = np.max(np.abs(anh_T.apply(h) - T.apply(h)))
    assert gap < 1e-6 * np.max(np.abs(h))
    _, upper = determinant_bounds(anh_model, anh_spec.time)
    assert value <= upper * (1 + 1e-6)


def _kernel_per_row_reference(grid, model, spec, m):
    """K(q_i, x_j) = f g(P) dp/dQ with one scipy CubicSpline of (P, p) over Q per row."""
    from scipy.interpolate import CubicSpline

    n, x, f = grid.n, grid.axes[0], grid.target_values
    rule = build_momentum_rule(model, m)
    Q, P = flow_batch(np.repeat(grid.nodes, m, axis=0), np.tile(rule.nodes, (n, 1)), model, spec)
    Q, P = Q.reshape(n, m), P.reshape(n, m)
    K = np.zeros((n, n))
    for i in range(n):
        on = (x >= Q[i, 0]) & (x <= Q[i, -1])
        spline = CubicSpline(Q[i], np.column_stack([P[i], rule.nodes[:, 0]]))
        g = np.exp(-model.auxiliary.value(spline(x[on])[:, :1]) - model.auxiliary_log_mass())
        K[i, on] = f[on] * g * spline(x[on], 1)[:, 1]
    return K


def _variational_kernel_reference(grid, model, spec, m):
    """K(q_i, x_j) = f g(P) / dQ/dp with dQ/dp from the tangent flow, splined per row."""
    from scipy.interpolate import CubicSpline

    n, x, f = grid.n, grid.axes[0], grid.target_values
    rule = build_momentum_rule(model, m)
    Q, P, blocks, _, _ = tangent_batch(np.repeat(grid.nodes, m, axis=0), np.tile(rule.nodes, (n, 1)),
                                       model, spec)
    Q, P, dQdp = Q.reshape(n, m), P.reshape(n, m), blocks[1].reshape(n, m)
    K = np.zeros((n, n))
    for i in range(n):
        on = (x >= Q[i, 0]) & (x <= Q[i, -1])
        vals = CubicSpline(Q[i], np.column_stack([P[i], dQdp[i]]))(x[on])
        g = np.exp(-model.auxiliary.value(vals[:, :1]) - model.auxiliary_log_mass())
        K[i, on] = f[on] * g / vals[:, 1]
    return K


def _reference_cases(gauss_kernel, gauss_grid, gauss_model, gauss_spec):
    quartic = anharmonic_pair(1.0, 0.5, halfwidth=3.5)
    grid = build_grid(quartic, 201)
    spec = default_flow_spec(quartic, 0.08)
    return [(kernel(gauss_kernel), gauss_grid, gauss_model, gauss_spec, 1025),
            (kernel(assemble_transfer(grid, quartic, spec, 257)), grid, quartic, spec, 257)]


def test_kernel_matches_per_row_spline_reference(gauss_kernel, gauss_grid, gauss_model, gauss_spec):
    for K, grid, model, spec, m in _reference_cases(gauss_kernel, gauss_grid, gauss_model, gauss_spec):
        ref = _kernel_per_row_reference(grid, model, spec, m)
        assert np.max(np.abs(K - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_kernel_matches_variational_route(gauss_kernel, gauss_grid, gauss_model, gauss_spec):
    # the same kernel with D_q = 1 / (dQ/dp) taken from the tangent flow instead
    # of the slope of the p spline: the two agree to the spline's accuracy
    for K, grid, model, spec, m in _reference_cases(gauss_kernel, gauss_grid, gauss_model, gauss_spec):
        ref = _variational_kernel_reference(grid, model, spec, m)
        assert np.max(np.abs(K - ref)) <= 1e-11 * np.max(np.abs(K))


def test_kernel_tabulation_is_one_flow_sweep(monkeypatch):
    # probes and width probes flow together, and no tangent flow is run
    def refuse(*args, **kwargs):
        raise AssertionError("the kernel ran the tangent flow")

    sweeps = []

    def counting(*args, **kwargs):
        sweeps.append(len(args[0]))
        return flow_batch(*args, **kwargs)

    monkeypatch.setattr(tangent, "tangent_batch", refuse)
    monkeypatch.setattr(operator, "flow_batch", counting)
    model = anharmonic_pair(1.0, 0.5, 3.5)
    grid, spec = build_grid(model, 201), default_flow_spec(model, 0.08)
    for assemble in (assemble_transfer, assemble_adjoint):
        sweeps.clear()
        assemble(grid, model, spec, 65)
        assert sweeps == [201 * (65 + 2)]


def test_kernel_needs_four_momentum_nodes(gauss_grid, gauss_model, gauss_spec):
    with pytest.raises(ValueError, match="at least 4"):
        assemble_transfer(gauss_grid, gauss_model, gauss_spec, 3)


def test_quartic_kernel_tabulation_peak_memory(anh_grid, anh_model, anh_spec):
    # the spline reads the flowed curves through transposed views, not copies,
    # and every array is released after its last use: 28.3 MiB traced at
    # n = 401 / 1025; holding them all to the return read 70.85 MiB
    tracemalloc.start()
    try:
        assemble_transfer(anh_grid, anh_model, anh_spec, 1025)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 31 * 2**20


def test_hs_norm_refuses_non_finite_estimates(gauss_kernel, gauss_grid):
    # NaN compares false against the agreement bound, so finiteness is checked first;
    # the position estimate turns NaN or inf through one entry of the matrix
    hs = hs_norm(gauss_kernel)
    for entry, b in [(None, np.nan), (np.nan, hs), (np.inf, np.inf)]:
        entries = gauss_kernel.entries.copy()
        if entry is not None:
            entries[200, 200] = entry
        meta = {**gauss_kernel.meta, "hs_norm_sq_momentum": b}
        with pytest.raises(ValueError, match="not finite"):
            hs_norm(TransferMatrix(entries=entries, grid=gauss_grid, meta=meta))


def test_hs_norm_refuses_an_operator_without_the_momentum_estimate():
    # the d >= 2 deposit records no momentum-space estimate to check against
    model = standard_gaussian_pair(dim=2, halfwidth=6.0)
    grid = build_grid(model, 24)
    T = assemble_transfer(grid, model, default_flow_spec(model, 0.7), 4)
    with pytest.raises(ValueError, match="hs_norm_sq_momentum.*1-d"):
        hs_norm(T)


def test_spectrum_refuses_a_nan_operator(gauss_T, gauss_grid):
    broken = TransferMatrix(entries=np.full_like(gauss_T.entries, np.nan), grid=gauss_grid,
                            meta=dict(gauss_T.meta))
    assert np.isnan(weighted_symmetry_residual(broken))
    with pytest.raises(ValueError, match="self-adjoint"):
        eigen_spectrum(broken, gauss_grid, k=4)
