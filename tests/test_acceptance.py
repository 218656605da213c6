"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line with the measured number so the run
doubles as a report.  Reference configuration: standard Gaussian model on
[-8, 8] with n = 401, m = 257, t = 0.7 (closed-form oracles), and the quartic
well a = 1, b = 0.5 for the model without closed forms.
"""

import json

import numpy as np

from conftest import random_density
from hmctransfer import (
    anharmonic_potential,
    certify_rate,
    default_flow_spec,
    determinant_bounds,
    hs_norm,
    iterate,
    mass,
    weighted_inner,
    weighted_norm,
    weighted_symmetry_residual,
)
from hmctransfer.cli import main
from hmctransfer.distributions import gaussian_potential
from hmctransfer.dynamics import FlowSpec, flow_batch, tangent_batch

COS07 = np.cos(0.7)


def blocks_at(q, p, model, spec):
    """The flow Jacobian d(Q,P)/d(q,p) at one phase state (q, p), each of shape (1,)."""
    _, _, J = tangent_batch(q, p, model, spec)
    return J[0]


def report(num, name, value, bound, ok):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num:2d} ({name}): measured {value:.6g}, bound {bound:.6g}"
    print(line)
    assert ok, line


def test_criterion_01_fixed_point(gauss_T, gauss_grid):
    f = gauss_grid.target_values
    err = weighted_norm(gauss_T.apply(f) - f, gauss_grid) / weighted_norm(f, gauss_grid)
    report(1, "fixed point", err, 1e-6, err < 1e-6)


def test_criterion_02_mass_conservation(gauss_T, gauss_grid):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        h = random_density(gauss_grid, rng)
        m0 = mass(h, gauss_grid)
        worst = max(worst, abs(mass(gauss_T.apply(h), gauss_grid) - m0) / m0)
    report(2, "mass conservation", worst, 1e-7, worst < 1e-7)


def test_criterion_03_norm_contraction(gauss_T, gauss_grid):
    rng = np.random.default_rng(2025)
    f = gauss_grid.target_values
    mf = mass(f, gauss_grid)
    worst_excess = 0.0
    worst_factor = 0.0
    for _ in range(100):
        h = random_density(gauss_grid, rng)
        worst_excess = max(
            worst_excess,
            weighted_norm(gauss_T.apply(h), gauss_grid) / weighted_norm(h, gauss_grid) - 1.0,
        )
        h0 = h - (mass(h, gauss_grid) / mf) * f
        worst_factor = max(
            worst_factor,
            weighted_norm(gauss_T.apply(h0), gauss_grid) / weighted_norm(h0, gauss_grid),
        )
    ok = worst_excess <= 1e-10 and worst_factor <= 0.99
    report(3, "norm contraction", max(worst_excess, worst_factor - 0.99), 1e-10, ok)


def test_criterion_04_self_adjointness(gauss_T, gauss_grid):
    # the adjoint is T itself for the even momentum law (the flip-conjugacy tests),
    # so duality <T h, k> = <h, T k> is self-adjointness on random densities
    sym = weighted_symmetry_residual(gauss_T)
    rng = np.random.default_rng(2026)
    dual = 0.0
    for _ in range(20):
        h = random_density(gauss_grid, rng)
        k = random_density(gauss_grid, rng)
        gap = abs(
            weighted_inner(gauss_T.apply(h), k, gauss_grid)
            - weighted_inner(h, gauss_T.apply(k), gauss_grid)
        )
        dual = max(dual, gap / (weighted_norm(h, gauss_grid) * weighted_norm(k, gauss_grid)))
    ok = sym < 1e-7 and dual < 1e-7
    report(4, "self-adjointness", max(sym, dual), 1e-7, ok)


def test_criterion_05_spectral_oracle(gauss_report, gauss_grid):
    mehler = COS07 ** np.arange(6)
    eig_err = float(np.max(np.abs(gauss_report.eigenvalues[:6] - mehler)))
    f = gauss_grid.target_values
    lead_err = weighted_norm(
        gauss_report.leading_vector - f / weighted_norm(f, gauss_grid), gauss_grid
    )
    ok = eig_err < 1e-3 and lead_err < 1e-4
    report(5, "spectral oracle", max(eig_err, lead_err), 1e-3, ok)


def test_criterion_06_hilbert_schmidt_identity(gauss_kernel, gauss_report):
    oracle = 1.0 / np.sin(0.7) ** 2
    hs_err = abs(hs_norm(gauss_kernel) - oracle) / oracle
    # sum mu^2 of the Nystrom matrix is the position-space quadrature of the same
    # kernel, so the identity is checked against the momentum-space estimate
    hs_momentum = gauss_kernel.meta["hs_norm_sq_momentum"]
    id_err = abs(gauss_report.sum_squares - hs_momentum) / hs_momentum
    ok = hs_err < 1e-3 and id_err < 1e-3
    report(6, "Hilbert-Schmidt identity", max(hs_err, id_err), 1e-3, ok)


def test_criterion_07_geometric_rate(gauss_report, gauss_T, gauss_grid, anh_report, anh_trace):
    q = gauss_grid.x
    bump = np.exp(-0.5 * (q - 1.3) ** 2 / 0.49)
    trace = iterate(gauss_T, bump, n_max=400, tol=1e-12)
    cert_g = certify_rate(gauss_report, trace)
    gauss_err = abs(cert_g.rho_emp - COS07) / COS07
    cert_a = certify_rate(anh_report, anh_trace)
    ok = cert_g.passed and gauss_err < 0.02 and cert_a.passed and cert_a.mismatch < 0.02
    report(7, "geometric rate", max(gauss_err, cert_a.mismatch), 0.02, ok)


def test_criterion_08_tangent_correctness(anh_model):
    spec = default_flow_spec(anh_model, 0.3)
    rng = np.random.default_rng(2027)
    eps = 1e-5
    worst = 0.0
    for _ in range(50):
        q, p = rng.uniform(-1.5, 1.5, 1), rng.normal(size=1)
        jac = blocks_at(q, p, anh_model, spec)
        fd = np.zeros((2, 2))
        for col, (dq, dp) in enumerate([(eps, 0.0), (0.0, eps)]):
            Qp, Pp = flow_batch(q + dq, p + dp, anh_model, spec)
            Qm, Pm = flow_batch(q - dq, p - dp, anh_model, spec)
            fd[0, col] = (Qp - Qm)[0] / (2 * eps)
            fd[1, col] = (Pp - Pm)[0] / (2 * eps)
        worst = max(worst, np.max(np.abs(jac - fd)) / np.max(np.abs(jac)))
    report(8, "tangent vs finite differences", worst, 1e-5, worst < 1e-5)


def test_criterion_09_closed_form_solution():
    # target precision 4, momentum precision 1: the blocks turn at omega = 2
    model = gaussian_potential(0.0, 4.0, 6.0)
    t = 0.4
    spec = FlowSpec(time=t, steps=1, method="exact_gaussian")
    J = blocks_at(np.array([0.4]), np.array([1.1]), model, spec)
    closed = np.array([[np.cos(2 * t), np.sin(2 * t) / 2],
                       [-2 * np.sin(2 * t), np.cos(2 * t)]])
    gap = float(np.max(np.abs(J - closed)))
    report(9, "closed form (constant Hessians)", gap, 1e-8, gap < 1e-8)


def test_criterion_10_determinant_bounds():
    model = anharmonic_potential(1.0, 0.5, 1.6)
    t = 0.3
    lower, upper = determinant_bounds(model, t)
    spec = default_flow_spec(model, t)
    rng = np.random.default_rng(2028)
    u_edge = model.value(1.6)
    qs, ps = [], []
    while len(qs) < 1000:
        q = rng.uniform(-1.6, 1.6, size=4000)
        p = rng.normal(size=4000)
        keep = model.value(q) + 0.5 * p**2 < 0.999 * u_edge
        qs.extend(q[keep])
        ps.extend(p[keep])
    _, _, J = tangent_batch(qs[:1000], ps[:1000], model, spec)
    prod = 1.0 / (np.abs(J[:, 0, 1]) * np.abs(J[:, 1, 0]))
    ok = prod.min() >= lower - 1e-9 and prod.max() <= upper + 1e-9
    report(10, "determinant bounds", prod.max(), upper, ok)


def test_criterion_11_volume_preservation(gauss_model, anh_model):
    rng = np.random.default_rng(2029)
    worst = 0.0
    gspec = FlowSpec(time=0.7, steps=1, method="exact_gaussian")
    aspec = default_flow_spec(anh_model, 0.3)
    for _ in range(50):
        gb = blocks_at(rng.uniform(-3, 3, 1), rng.normal(size=1), gauss_model, gspec)
        ab = blocks_at(rng.uniform(-2, 2, 1), rng.normal(size=1), anh_model, aspec)
        worst = max(worst, abs(np.linalg.det(gb) - 1.0), abs(np.linalg.det(ab) - 1.0))
    report(11, "volume preservation", worst, 1e-10, worst < 1e-10)


def test_criterion_12_momentum_flip_conjugacy(gauss_model, anh_model, flip_roundtrip):
    rng = np.random.default_rng(2030)
    gspec = FlowSpec(time=0.7, steps=1, method="exact_gaussian")
    aspec = default_flow_spec(anh_model, 0.3)
    res_exact = flip_roundtrip(gauss_model, gspec, rng.uniform(-3, 3, 100), rng.normal(size=100))
    res_leap = flip_roundtrip(anh_model, aspec, rng.uniform(-2, 2, 100), rng.normal(size=100))
    ok = res_exact < 1e-12 and res_leap < 1e-10
    report(12, "momentum-flip conjugacy", max(res_exact, res_leap), 1e-10, ok)


SAMPLER_CONFIG = """
[model]
family = gaussian
halfwidth = 8.0

[flow]
time = 0.7
method = exact_gaussian

[grid]
n_per_axis = 401
momentum_nodes = 257

[experiment]
kind = sampler-check
seed = 0
draws = 1000000
bins = 100
"""


def test_criterion_13_sampler_crosscheck(tmp_path):
    cfg = tmp_path / "sampler.ini"
    cfg.write_text(SAMPLER_CONFIG)
    out = tmp_path / "out"
    code = main(["sampler-check", "--config", str(cfg), "--out", str(out)])
    payload = json.loads((out / "sampler_report.json").read_text())
    sup = payload["sup_distance"]
    ok = code == 0 and sup < 0.01 and payload["acceptance_rate"] == 1.0
    report(13, "sampler cross-check", sup, 0.01, ok)
