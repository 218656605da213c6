import numpy as np
import pytest

from hmctransfer import (
    FlowSpec,
    ModelPair,
    anharmonic_pair,
    default_flow_spec,
    gaussian_potential,
    standard_gaussian_pair,
)
from hmctransfer.distributions import kinetic_energy
from hmctransfer.dynamics import BLOCK_POINTS, flow_batch


def energy(q, p, model):
    """Hamiltonian U(q) + p^2 / 2 of one state, q and p of one entry each."""
    return (model.target.value(q) + kinetic_energy(p)).item()


def test_exact_flow_is_rotation():
    model = standard_gaussian_pair()
    spec = FlowSpec(time=np.pi / 2, steps=1, method="exact_gaussian")
    Q, P = flow_batch(np.array([1.0]), np.array([0.0]), model, spec)
    assert Q[0] == pytest.approx(0.0, abs=1e-12)
    assert P[0] == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("method", ["exact_gaussian", "leapfrog"])
def test_vanishing_time_returns_state(method):
    model = standard_gaussian_pair()
    spec = FlowSpec(time=1e-12, steps=1, method=method)
    q, p = np.array([1.3]), np.array([-0.4])
    Q, P = flow_batch(q, p, model, spec)
    assert max(abs(Q - q).max(), abs(P - p).max()) < 1e-10


def test_zero_time_rejected():
    with pytest.raises(ValueError):
        FlowSpec(time=0.0, steps=1, method="leapfrog")
    with pytest.raises(ValueError):
        FlowSpec(time=1.0, steps=0, method="leapfrog")
    with pytest.raises(ValueError):
        FlowSpec(time=1.0, steps=1, method="rk4")


@pytest.mark.parametrize("time", [np.nan, np.inf, -np.inf])
def test_non_finite_time_rejected(time):
    # NaN passes time <= 0, and an infinite time flows to NaN
    with pytest.raises(ValueError, match="finite and positive"):
        FlowSpec(time=time, steps=1, method="leapfrog")


def test_leapfrog_converges_to_exact_rotation():
    model = standard_gaussian_pair()
    q, p = np.array([1.0]), np.array([0.0])
    lf_q, lf_p = flow_batch(q, p, model, FlowSpec(time=0.7, steps=1000, method="leapfrog"))
    ex_q, ex_p = flow_batch(q, p, model, FlowSpec(time=0.7, steps=1, method="exact_gaussian"))
    assert max(abs(lf_q - ex_q).max(), abs(lf_p - ex_p).max()) < 1e-6


def test_exact_flow_requires_gaussian_model():
    model = anharmonic_pair(1.0, 0.5, 3.5)
    spec = FlowSpec(time=0.3, steps=1, method="exact_gaussian")
    with pytest.raises(ValueError, match="non-Gaussian"):
        flow_batch(np.array([1.0]), np.array([0.0]), model, spec)


def test_leapfrog_roundtrip_is_exact(flip_roundtrip):
    # flowing back from the flipped image returns the flipped start
    model = anharmonic_pair(1.0, 0.5, 3.5)
    spec = default_flow_spec(model, 0.3)
    rng = np.random.default_rng(0)
    qs = rng.uniform(-2.0, 2.0, size=(100, 1))
    ps = rng.normal(size=(100, 1))
    assert flip_roundtrip(model, spec, qs, ps) < 1e-10


def plain_leapfrog(qs, ps, model, spec):
    """Kick-drift-kick over all points in one pass, a new array per update."""
    tau = spec.time / spec.steps
    q, p = qs, ps
    gq = model.target.grad(q)
    for _ in range(spec.steps):
        p = p - 0.5 * tau * gq
        q = q + tau * p
        gq = model.target.grad(q)
        p = p - 0.5 * tau * gq
    return q, p


GAUSS_OFFSET = ModelPair(target=gaussian_potential(0.6, 2.5), domain_halfwidth=6.0)


@pytest.mark.parametrize("model, spec", [
    (anharmonic_pair(1.0, 0.5, 3.5), FlowSpec(time=0.08, steps=36, method="leapfrog")),
    # momentum precision 1.7 at t = 0.9 is the unit law at t = sqrt(1.7) 0.9
    (GAUSS_OFFSET, FlowSpec(time=np.sqrt(1.7) * 0.9, steps=7, method="leapfrog")),
], ids=["quartic-forward", "gauss-leapfrog-forward"])
def test_blocked_flow_batch_matches_plain_loop_bit_for_bit(model, spec):
    # a single point, more than two blocks with a ragged tail and a stacked batch
    rng = np.random.default_rng(4)
    for shape in [(), (2 * BLOCK_POINTS + 7,), (5, 7)]:
        qs = rng.uniform(-2.0, 2.0, size=shape)
        ps = rng.normal(size=shape)
        q0, p0 = qs.copy(), ps.copy()
        Q, P = flow_batch(qs, ps, model, spec)
        ref_q, ref_p = plain_leapfrog(q0, p0, model, spec)
        assert Q.shape == P.shape == shape
        assert np.array_equal(Q, ref_q) and np.array_equal(P, ref_p)
        # the in-place updates never reach the caller's arrays
        assert np.array_equal(qs, q0) and np.array_equal(ps, p0)


def test_total_energy_values():
    gauss = standard_gaussian_pair()
    assert energy(np.zeros(1), np.zeros(1), gauss) == 0.0
    assert energy(np.ones(1), np.ones(1), gauss) == pytest.approx(1.0)
    quartic = anharmonic_pair(1.0, 1.0, 2.0)
    assert energy(np.array([1.0]), np.array([0.0]), quartic) == pytest.approx(0.75)


def test_exact_flow_conserves_energy():
    model = standard_gaussian_pair()
    spec = FlowSpec(time=0.7, steps=1, method="exact_gaussian")
    rng = np.random.default_rng(1)
    for _ in range(50):
        q, p = rng.uniform(-3, 3, 1), rng.normal(size=1)
        Q, P = flow_batch(q, p, model, spec)
        assert abs(energy(Q, P, model) - energy(q, p, model)) < 1e-12


def test_leapfrog_energy_error_is_second_order():
    model = anharmonic_pair(1.0, 0.5, 3.5)
    q, p = np.array([1.1]), np.array([0.6])
    e0 = energy(q, p, model)

    def energy_error(steps):
        Q, P = flow_batch(q, p, model, FlowSpec(time=0.37, steps=steps, method="leapfrog"))
        return abs(energy(Q, P, model) - e0)

    ratio = energy_error(100) / energy_error(200)
    assert 3.5 <= ratio <= 4.5


def test_momentum_flip_conjugacy(flip_roundtrip):
    rng = np.random.default_rng(2)
    gauss = standard_gaussian_pair()
    gspec = default_flow_spec(gauss, 0.7)
    q, p = rng.uniform(-2, 2, (50, 1)), rng.normal(size=(50, 1))
    assert flip_roundtrip(gauss, gspec, q, p) < 1e-12

    quartic = anharmonic_pair(1.0, 0.5, 3.5)
    qspec = default_flow_spec(quartic, 0.3)
    q, p = rng.uniform(-2, 2, (50, 1)), rng.normal(size=(50, 1))
    assert flip_roundtrip(quartic, qspec, q, p) < 1e-10

    assert flip_roundtrip(gauss, gspec, np.zeros((1, 1)), np.zeros((1, 1))) == 0.0


@pytest.mark.parametrize("maker,time", [(standard_gaussian_pair, 0.7), (lambda: anharmonic_pair(1.0, 0.5, 3.5), 0.08)])
def test_position_image_monotone_in_momentum(maker, time):
    # one-step coverage: p -> Q(q, p) strictly increasing for fixed q
    model = maker()
    spec = default_flow_spec(model, time)
    ps = np.linspace(-6.0, 6.0, 201)[:, None]
    for q0 in (-2.0, -0.5, 0.0, 1.5):
        Q, _ = flow_batch(np.full((201, 1), q0), ps, model, spec)
        assert np.all(np.diff(Q[:, 0]) > 0)


def test_default_flow_spec_substep_rule():
    model = anharmonic_pair(1.0, 0.5, 3.5)
    spec = default_flow_spec(model, 0.08)
    assert spec.method == "leapfrog"
    assert spec.time / spec.steps <= 0.01 * min(1.0, 1.0 / np.sqrt(model.lambda_max))
    assert spec.steps == 36
    gauss = default_flow_spec(standard_gaussian_pair(), 0.7)
    assert gauss.method == "exact_gaussian"
