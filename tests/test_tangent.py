import numpy as np
import pytest
from scipy.linalg import expm

from hmctransfer import (
    FlowSpec,
    anharmonic_potential,
    default_flow_spec,
    determinant_bounds,
    gaussian_potential,
)
from hmctransfer.dynamics import exact_gaussian_matrix, flow_batch, tangent_batch


def blocks_at(q, p, model, spec):
    """The flow Jacobian d(Q,P)/d(q,p) at one state (q, p)."""
    _, _, J = tangent_batch(np.atleast_1d(q), np.atleast_1d(p), model, spec)
    return J[0]


def jacobian_factors(J):
    """(D_q, D_p) = (1/|dQ/dp|, 1/|dP/dq|)."""
    return 1.0 / abs(J[0, 1]), 1.0 / abs(J[1, 0])


def test_gaussian_blocks_are_rotation():
    model = gaussian_potential(0.0, 1.0, 8.0)
    t = 0.9
    spec = FlowSpec(time=t, steps=1, method="exact_gaussian")
    J = blocks_at(0.7, -0.2, model, spec)
    assert J[0, 0] == pytest.approx(np.cos(t), abs=1e-12)
    assert J[0, 1] == pytest.approx(np.sin(t), abs=1e-12)
    assert J[1, 0] == pytest.approx(-np.sin(t), abs=1e-12)
    assert J[1, 1] == pytest.approx(np.cos(t), abs=1e-12)


def test_blocks_reduce_to_identity_at_short_time():
    model = anharmonic_potential(1.0, 0.5, 3.5)
    spec = FlowSpec(time=1e-12, steps=1, method="leapfrog")
    J = blocks_at(1.0, 0.5, model, spec)
    assert np.max(np.abs(J - np.eye(2))) < 1e-10


def test_tangent_blocks_match_finite_differences():
    model = anharmonic_potential(1.0, 0.5, 3.5)
    spec = default_flow_spec(model, 0.3)
    rng = np.random.default_rng(11)
    eps = 1e-5
    for _ in range(50):
        q, p = rng.uniform(-1.5, 1.5, 1), rng.normal(size=1)
        jac = blocks_at(q, p, model, spec)
        fd = np.zeros((2, 2))
        for col, (dq, dp) in enumerate([(eps, 0.0), (0.0, eps)]):
            Qp, Pp = flow_batch(q + dq, p + dp, model, spec)
            Qm, Pm = flow_batch(q - dq, p - dp, model, spec)
            fd[0, col] = (Qp - Qm)[0] / (2 * eps)
            fd[1, col] = (Pp - Pm)[0] / (2 * eps)
        assert np.max(np.abs(jac - fd)) < 1e-5 * np.max(np.abs(jac))


@pytest.mark.parametrize("t", [0.7, -0.7, np.pi / 2, 1.6])
def test_exact_gaussian_matrix_matches_matrix_exponential(t):
    # negative time is the inverse flow; the offset Gaussian runs at sqrt(1.7) t,
    # the flow of momentum precision 1.7 at time t
    for model, time in ((gaussian_potential(0.0, 1.0, 8.0), t),
                        (gaussian_potential(0.6, 2.5, 6.0), np.sqrt(1.7) * t)):
        u = model.params["precision"]
        ref = expm(time * np.array([[0.0, 1.0], [-u, 0.0]]))
        mat = exact_gaussian_matrix(model, time)
        assert np.max(np.abs(mat - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert np.linalg.det(mat) == pytest.approx(1.0, abs=1e-10)


def test_jacobian_determinants_rotation():
    model = gaussian_potential(0.0, 1.0, 8.0)
    spec = FlowSpec(time=0.7, steps=1, method="exact_gaussian")
    dq, dp = jacobian_factors(blocks_at(1.0, 0.0, model, spec))
    assert dq == pytest.approx(1.0 / np.sin(0.7))
    assert dp == pytest.approx(1.0 / np.sin(0.7))


def test_jacobian_determinants_scalar_closed_form():
    # target precision 4, momentum precision 1: omega = 2
    t = 0.4
    model = gaussian_potential(0.0, 4.0, 6.0)
    spec = FlowSpec(time=t, steps=1, method="exact_gaussian")
    dq, dp = jacobian_factors(blocks_at(0.3, -0.5, model, spec))
    assert dq == pytest.approx(2.0 / np.sin(2 * t))
    assert dp == pytest.approx(1.0 / (2.0 * np.sin(2 * t)))


def test_short_time_divergence_rate():
    model = gaussian_potential(0.0, 1.0, 8.0)
    t = 1e-3
    spec = FlowSpec(time=t, steps=1, method="exact_gaussian")
    dq, _ = jacobian_factors(blocks_at(0.3, 0.2, model, spec))
    assert abs(dq * t - 1.0) < 0.01


def test_determinant_bounds_values():
    model = gaussian_potential(0.0, 1.0, 8.0)
    lower, upper = determinant_bounds(model, 0.7)
    assert lower == pytest.approx(1.0 / 0.49)
    assert upper == pytest.approx(1.0 / np.sin(0.7) ** 2)


def test_determinant_bounds_regime_error():
    model = gaussian_potential(0.0, 1.0, 8.0)
    with pytest.raises(ValueError, match="regime"):
        determinant_bounds(model, np.pi / 2)


def test_gaussian_product_sits_at_the_upper_bound():
    model = gaussian_potential(0.0, 1.0, 8.0)
    t = 0.7
    spec = FlowSpec(time=t, steps=1, method="exact_gaussian")
    lower, upper = determinant_bounds(model, t)
    dq, dp = jacobian_factors(blocks_at(1.0, 1.0, model, spec))
    assert lower - 1e-9 <= dq * dp <= upper * (1 + 1e-9)
    assert dq * dp == pytest.approx(upper)


def test_anharmonic_product_inside_bounds():
    model = anharmonic_potential(1.0, 0.5, 1.6)
    t = 0.3
    lower, upper = determinant_bounds(model, t)
    spec = default_flow_spec(model, t)
    rng = np.random.default_rng(42)
    # keep total energy below the boundary potential so trajectories stay
    # inside the domain where the declared curvature bounds hold
    u_edge = model.value(1.6)
    qs, ps = [], []
    while len(qs) < 200:
        q = rng.uniform(-1.6, 1.6)
        p = rng.normal()
        if model.value(q) + 0.5 * p**2 < 0.999 * u_edge:
            qs.append(q)
            ps.append(p)
    _, _, J = tangent_batch(np.array(qs), np.array(ps), model, spec)
    prod = 1.0 / (np.abs(J[:, 0, 1]) * np.abs(J[:, 1, 0]))
    assert prod.min() >= lower - 1e-9
    assert prod.max() <= upper + 1e-9


def test_full_jacobian_determinant_is_one():
    rng = np.random.default_rng(9)
    quartic = anharmonic_potential(1.0, 0.5, 3.5)
    qspec = default_flow_spec(quartic, 0.3)
    for _ in range(20):
        J = blocks_at(rng.uniform(-2, 2, 1), rng.normal(size=1), quartic, qspec)
        assert abs(np.linalg.det(J) - 1.0) < 1e-12
    gauss = gaussian_potential(0.6, 2.5, 6.0)
    gspec = FlowSpec(time=np.sqrt(1.7) * 0.6, steps=1, method="exact_gaussian")
    for _ in range(10):
        J = blocks_at(rng.normal(), rng.normal(), gauss, gspec)
        assert abs(np.linalg.det(J) - 1.0) < 1e-10


def chain_rule_leapfrog(qs, ps, model, spec):
    """Kick-drift-kick over all points with a new array per update, each update of
    (q, p) followed by its chain rule on dq, dp = d(q, p)/d(q0, p0), shape (n, 2)."""
    n = len(qs)
    tau = spec.time / spec.steps
    half = 0.5 * tau
    q, p = qs, ps
    dq = np.tile([1.0, 0.0], (n, 1))
    dp = np.tile([0.0, 1.0], (n, 1))
    for _ in range(spec.steps):
        p = p - half * model.grad(q)
        dp = dp - half * (model.hess(q)[:, None] * dq)
        q = q + tau * p
        dq = dq + tau * dp
        p = p - half * model.grad(q)
        dp = dp - half * (model.hess(q)[:, None] * dq)
    return q, p, np.stack([dq, dp], axis=1)


def leapfrog_pairs():
    gauss = gaussian_potential(0.6, 2.5, 6.0)
    return [
        (anharmonic_potential(1.0, 0.5, 3.5), FlowSpec(time=0.08, steps=36, method="leapfrog")),
        (gauss, FlowSpec(time=np.sqrt(1.7) * 0.5, steps=7, method="leapfrog")),
    ]


@pytest.mark.parametrize("model, spec", leapfrog_pairs(), ids=["quartic", "gauss-leapfrog"])
def test_tangent_batch_is_the_flow_and_its_chain_rule_bit_for_bit(model, spec):
    # the lifted leapfrog gives flow_batch's points and, in every kick and drift,
    # the written-out chain rule: (tau / 2) (H . dq), not ((tau / 2) H) . dq
    n = 1000
    rng = np.random.default_rng(5)
    qs = rng.uniform(-2.0, 2.0, n)
    ps = rng.normal(size=n)
    Q, P, J = tangent_batch(qs, ps, model, spec)
    for got, ref in zip((Q, P), flow_batch(qs, ps, model, spec)):
        assert np.array_equal(got, ref)
    ref_q, ref_p, ref_J = chain_rule_leapfrog(qs, ps, model, spec)
    assert np.array_equal(Q, ref_q) and np.array_equal(P, ref_p)
    assert J.shape == (n, 2, 2)
    assert np.array_equal(J, ref_J)
