import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_density
from hmctransfer import (
    FlowSpec,
    IterationTrace,
    anharmonic_pair,
    assemble_transfer,
    build_grid,
    certify_rate,
    default_flow_spec,
    determinant_bounds,
    eigen_spectrum,
    gaussian_potential,
    hs_norm,
    iterate,
    standard_gaussian_pair,
    weighted_norm,
)
from hmctransfer import dynamics, operator
from hmctransfer.distributions import ModelPair, kinetic_energy
from hmctransfer.dynamics import flow_batch, tangent_batch
from hmctransfer.operator import (
    TransferMatrix,
    build_momentum_rule,
    to_weighted_symmetric,
    weighted_symmetry_residual,
)


def kernel(T):
    """K(q_i, x_j) = T_ij f_j / w_j: the kernel table behind a 1-d Nystrom matrix."""
    return T.entries * (T.grid.target_values / T.grid.weights)


def mehler_kernel(grid, t):
    """Hand-derived closed form for the standard Gaussian pair:
    K(q, Q) = f(q) N(q cos t, sin^2 t)(Q)."""
    c, s = np.cos(t), np.sin(t)
    q = grid.x
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
    interior = np.abs(gauss_grid.x) <= 5.0
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
    report = eigen_spectrum(T, k=6)
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
    # 2.5e-9 on the top six and 4.5e-13 on the rate at this box, L = 8
    mehler = np.cos(0.7) ** np.arange(6)
    assert np.max(np.abs(gauss_report.eigenvalues[:6] - mehler)) < 1e-8
    assert gauss_report.rate_bound == pytest.approx(np.cos(0.7), abs=1e-10)
    assert gauss_report.gap == pytest.approx(1 - np.cos(0.7), abs=1e-10)


def test_mehler_and_hilbert_schmidt_oracles_on_a_wide_box():
    # at L = 14 the box no longer limits the HS identity, and with every node in the
    # symmetric frame the spectrum meets cos(t)^k to rounding: measured 4.9e-13 on the
    # top six, 5.2e-11 on the top sixteen and 1.8e-12 relative on the HS norm
    model = standard_gaussian_pair(halfwidth=14.0)
    grid = build_grid(model, 401)
    spec = default_flow_spec(model, 0.7)
    assert spec.method == "exact_gaussian"
    mu = eigen_spectrum(assemble_transfer(grid, model, spec, 257), k=16).eigenvalues
    err = np.abs(mu - np.cos(0.7) ** np.arange(16))
    assert err[:6].max() <= 1e-10
    assert err.max() <= 1e-9
    oracle = 1.0 / np.sin(0.7) ** 2
    assert abs(hs_norm(assemble_transfer(grid, model, spec, 1025)) - oracle) <= 1e-9 * oracle


@pytest.mark.parametrize("time, halfwidth, n", [(0.3, 30.0, 1601), (1.2, 14.0, 401),
                                               (np.pi / 2, 14.0, 401), (2.0, 14.0, 401),
                                               (2.6, 30.0, 1601)])
def test_mehler_and_hilbert_schmidt_oracles_across_the_half_period(time, halfwidth, n):
    # the oracles hold on both sides of t = pi/2, where cos(t) < 0 and the spectrum
    # alternates in sign; a short flow needs the wider box and finer grid.  Measured
    # 1.3e-12 on the top six and 1.6e-10 relative on the HS norm
    model = standard_gaussian_pair(halfwidth=halfwidth)
    grid = build_grid(model, n)
    spec = default_flow_spec(model, time)
    assert spec.method == "exact_gaussian"
    mu = eigen_spectrum(assemble_transfer(grid, model, spec, 257), k=6).eigenvalues
    assert np.max(np.abs(mu - np.cos(time) ** np.arange(6))) <= 1e-10
    oracle = 1.0 / np.sin(time) ** 2
    assert abs(hs_norm(assemble_transfer(grid, model, spec, 1025)) - oracle) <= 1e-9 * oracle


def test_leapfrog_spectrum_matches_its_closed_form():
    # leapfrog on the standard Gaussian is the linear map of the exact flow at the
    # shadow frequency: N steps of tau take (1, 0) to Q = a = cos(N arccos(1 - tau^2 / 2)),
    # and the operator's eigenvalues are a^k.  Measured 5.3e-13 on Q and 1.1e-12 on the
    # top eight.  eigvals, not eigen_spectrum: the latter's 1e-6 self-adjointness gate
    # refuses these operators
    model = standard_gaussian_pair(halfwidth=12.0)
    grid = build_grid(model, 401)
    for steps in (35, 70, 140):
        spec = FlowSpec(time=0.7, steps=steps, method="leapfrog")
        tau = spec.time / steps
        a = math.cos(steps * math.acos(1.0 - tau**2 / 2))
        Q, _ = flow_batch(np.array([1.0]), np.array([0.0]), model, spec)
        assert abs(Q[0] - a) <= 1e-11
        mu = np.linalg.eigvals(assemble_transfer(grid, model, spec, 257).entries)
        mu = mu[np.argsort(-np.abs(mu))][:8]
        assert np.max(np.abs(mu.imag)) <= 1e-12
        assert np.max(np.abs(mu.real - a ** np.arange(8))) <= 1e-10


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
    mu = eigen_spectrum(T, k=64).eigenvalues
    assert abs(mu[0] - 1.0) < 1e-4
    assert mu.min() >= -1e-6


@pytest.mark.parametrize("name", ["anh_T", "gauss_T", "gauss_T_400", "offset_T"])
def test_spectrum_matches_the_full_symmetric_frame(request, name):
    # the parity blocks of an even target's T, merged by |mu|, against eigvalsh of
    # the whole symmetric frame; the mean-0.6 Gaussian runs as one block
    T = request.getfixturevalue(name)
    A = to_weighted_symmetric(T)
    ref = np.linalg.eigvalsh(0.5 * (A + A.T))
    ref = ref[np.argsort(-np.abs(ref))][:64]
    assert np.max(np.abs(eigen_spectrum(T, 64).eigenvalues - ref)) <= 1e-13


@pytest.mark.parametrize("name", ["anh_T", "gauss_T", "gauss_T_400", "offset_T"])
def test_spectrum_vectors_match_the_full_symmetric_frame(monkeypatch, request, spectrum_vectors,
                                                         name):
    # the leading and second vectors by inverse iteration on their block, against
    # eigh of the whole symmetric frame; eigen_spectrum itself never calls eigh,
    # on the two blocks of an even target or on the one of the mean-0.6 Gaussian
    T = request.getfixturevalue(name)
    A = to_weighted_symmetric(T)
    vals, vecs = np.linalg.eigh(0.5 * (A + A.T))
    refs = (vecs[:, np.argsort(-np.abs(vals), kind="stable")[:2]] / T.grid.scale[:, None]).T

    def refuse(*args, **kwargs):
        raise AssertionError("eigen_spectrum called eigh")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert len(operator.parity_blocks(T).blocks) == (1 if name == "offset_T" else 2)
    _, lead, second = spectrum_vectors(T, 64)
    for v, ref in zip((lead, second), refs):
        ref = ref * np.sign(ref @ v)
        assert np.max(np.abs(v - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_leading_vector_has_unit_weighted_norm(gauss_report, gauss_grid, anh_report, anh_grid):
    # unit block vectors carried out of the symmetric frame need no re-normalising
    for report, grid in [(gauss_report, gauss_grid), (anh_report, anh_grid)]:
        assert abs(weighted_norm(report.leading_vector, grid) - 1.0) <= 1e-14


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
        eigen_spectrum(corrupt, k=4)


def test_spectrum_rejects_k_below_two(gauss_T):
    with pytest.raises(ValueError, match="k >= 2"):
        eigen_spectrum(gauss_T, k=1)


def test_certificate_gaussian_rate(gauss_report, gauss_T, gauss_grid):
    q = gauss_grid.x
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

    n, x, f = grid.n, grid.x, grid.target_values
    rule = build_momentum_rule(m)
    Q, P = flow_batch(np.repeat(x, m), np.tile(rule.nodes, n), model, spec)
    Q, P = Q.reshape(n, m), P.reshape(n, m)
    K = np.zeros((n, n))
    for i in range(n):
        on = (x >= Q[i, 0]) & (x <= Q[i, -1])
        spline = CubicSpline(Q[i], np.column_stack([P[i], rule.nodes]))
        g = np.exp(-kinetic_energy(spline(x[on])[:, 0]) - 0.5 * np.log(2 * np.pi))
        K[i, on] = f[on] * g * spline(x[on], 1)[:, 1]
    return K


def _variational_kernel_reference(grid, model, spec, m):
    """K(q_i, x_j) = f g(P) / dQ/dp with dQ/dp from the tangent flow, splined per row."""
    from scipy.interpolate import CubicSpline

    n, x, f = grid.n, grid.x, grid.target_values
    rule = build_momentum_rule(m)
    Q, P, J = tangent_batch(np.repeat(x, m), np.tile(rule.nodes, n), model, spec)
    Q, P, dQdp = Q.reshape(n, m), P.reshape(n, m), J[:, 0, 1].reshape(n, m)
    K = np.zeros((n, n))
    for i in range(n):
        on = (x >= Q[i, 0]) & (x <= Q[i, -1])
        vals = CubicSpline(Q[i], np.column_stack([P[i], dQdp[i]]))(x[on])
        g = np.exp(-kinetic_energy(vals[:, 0]) - 0.5 * np.log(2 * np.pi))
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
    # the 4n width and end probes flow first, then the probes of the tabulated
    # rows once each in one row block, and no tangent flow is run.  The even
    # quartic's rows n - 1 - i mirror rows i, so 101 of its 201 rows are flowed;
    # the Gaussian of mean 0.6 is not even, and all its rows are.  The centred
    # Gaussian at n = 801 spans up to 466 nodes a row, more than its 257 probes,
    # so its 401 rows take two blocks of at most 131072 // 466 = 281 rows
    def refuse(*args, **kwargs):
        raise AssertionError("the kernel ran the tangent flow")

    sweeps = []

    def counting(*args, **kwargs):
        sweeps.append(len(args[0]))
        return flow_batch(*args, **kwargs)

    monkeypatch.setattr(dynamics, "tangent_batch", refuse)
    monkeypatch.setattr(operator, "flow_batch", counting)
    quartic = anharmonic_pair(1.0, 0.5, 3.5)
    offset = ModelPair(gaussian_potential(0.6, 2.5), 6.0)
    # momentum precision 1.7 at t = 0.6 is the unit law at t = sqrt(1.7) 0.6
    for model, spec, rows in [(quartic, default_flow_spec(quartic, 0.08), 101),
                              (offset, default_flow_spec(offset, np.sqrt(1.7) * 0.6), 201)]:
        sweeps.clear()
        T = assemble_transfer(build_grid(model, 201), model, spec, 65)
        assert sweeps == [4 * 201, rows * 65]
        assert T.meta["tabulated_rows"] == rows
    centred = standard_gaussian_pair(halfwidth=8.0)
    sweeps.clear()
    assemble_transfer(build_grid(centred, 801), centred, default_flow_spec(centred, 0.7), 257)
    assert sweeps == [4 * 801, 201 * 257, 200 * 257]


def test_kernel_needs_four_momentum_nodes(gauss_grid, gauss_model, gauss_spec):
    with pytest.raises(ValueError, match="at least 4"):
        assemble_transfer(gauss_grid, gauss_model, gauss_spec, 3)


def test_quartic_kernel_tabulation_peak_memory(anh_grid, anh_model, anh_spec):
    # the even quartic's 201 tabulated rows pass in two blocks of 101 and 100,
    # each block's arrays released before the next: 6.54 MiB traced at
    # n = 401 / 1025, T's 1.23 included.  The 201 rows in one pass read 11.24
    # MiB, and all 401 rows tabulated in blocks of 127, 127, 127 and 20 7.76
    tracemalloc.start()
    try:
        assemble_transfer(anh_grid, anh_model, anh_spec, 1025)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20


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


def test_spectrum_refuses_a_nan_operator(gauss_T, gauss_grid):
    broken = TransferMatrix(entries=np.full_like(gauss_T.entries, np.nan), grid=gauss_grid,
                            meta=dict(gauss_T.meta))
    assert np.isnan(weighted_symmetry_residual(broken))
    with pytest.raises(ValueError, match="self-adjoint"):
        eigen_spectrum(broken, k=4)
