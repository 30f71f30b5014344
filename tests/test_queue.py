import math

import numpy as np
import pytest

from offloadlab import queueing
from offloadlab.queueing import (
    QueueModel,
    delays_from_uniform,
    mean_delay_ms,
    mean_position,
    position_from_uniform,
    queue_pmf,
    sample_delay,
    sample_delays,
    sample_position,
)


def test_pmf_small_case_exact():
    # rho=0.5, cap=2: weights 1, 0.5, 0.25 normalize to 4/7, 2/7, 1/7
    np.testing.assert_allclose(queue_pmf(0.5, 2), [4 / 7, 2 / 7, 1 / 7], rtol=1e-14)


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9, 0.97, 0.99, 0.999])
@pytest.mark.parametrize("cap", [1, 10, 100, 4000])
def test_pmf_sums_to_one(rho, cap):
    pmf = queue_pmf(rho, cap)
    assert pmf.shape == (cap + 1,)
    assert abs(pmf.sum() - 1.0) < 1e-9
    assert (pmf >= 0).all()


def test_pmf_rejects_bad_load():
    for rho in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            queue_pmf(rho, 10)


def test_mean_position_small_case():
    assert mean_position(0.5, 2) == pytest.approx(4 / 7, rel=1e-12)


def test_mean_delay_operating_points():
    # effectively untruncated at cap=4000: rho/(1-rho) slots of 1.5 ms each
    assert mean_delay_ms(QueueModel(0.9, 4000, 1.5)) == pytest.approx(15.0, rel=1e-6)
    assert mean_delay_ms(QueueModel(0.99, 4000, 1.5)) == pytest.approx(150.0, rel=1e-6)


def test_position_from_uniform_thresholds():
    # CDF at rho=0.5, cap=2 is 4/7, 6/7, 1
    assert position_from_uniform(0.5, 2, 0.0) == 0
    assert position_from_uniform(0.5, 2, 0.5) == 0
    assert position_from_uniform(0.5, 2, 0.58) == 1
    assert position_from_uniform(0.5, 2, 0.86) == 2
    assert position_from_uniform(0.5, 2, 0.999999) == 2
    with pytest.raises(ValueError):
        position_from_uniform(0.5, 2, 1.0)
    with pytest.raises(ValueError):
        position_from_uniform(0.5, 2, -0.01)


def test_positions_never_exceed_cap():
    model = QueueModel(0.99, 3, 1.5)
    rng = np.random.default_rng(0)
    xs = sample_delays(model, rng, 20000) / 1.5 - 1
    assert xs.min() >= 0
    assert xs.max() <= 3


def test_empirical_mean_matches_analytic():
    model = QueueModel(0.9, 4000, 1.5)
    rng = np.random.default_rng(1)
    xs = sample_delays(model, rng, 200000)
    want = mean_delay_ms(model)
    assert xs.mean() == pytest.approx(want, rel=0.02)


def test_delay_is_positions_plus_service(queue):
    rng1 = np.random.default_rng(7)
    rng2 = np.random.default_rng(7)
    for _ in range(50):
        c = sample_position(queue, rng1)
        d = sample_delay(queue, rng2)
        assert d == pytest.approx((c + 1) * queue.t_service_ms, rel=1e-12)


def test_vectorized_matches_scalar_stream(queue):
    vec = sample_delays(queue, np.random.default_rng(9), 40)
    rng = np.random.default_rng(9)
    seq = np.array([sample_delay(queue, rng) for _ in range(40)])
    np.testing.assert_array_equal(vec, seq)


def test_model_validation():
    with pytest.raises(ValueError):
        QueueModel(rho=1.0)
    with pytest.raises(ValueError):
        QueueModel(cap=0)
    with pytest.raises(ValueError):
        QueueModel(t_service_ms=0.0)


def _slot_edge_draws(model):
    """Uniforms at and one ulp around the CDF steps, where a log rounded one
    ulp apart would move a draw into the neighbouring slot, and the scalar
    delays of them."""
    rho = model.rho
    c = np.arange(0, 400, 7, dtype=float)
    steps = -np.expm1((c + 1) * np.log(rho)) / -np.expm1((model.cap + 1) * np.log(rho))
    u = np.concatenate([[0.0], steps, np.nextafter(steps, 0.0), np.nextafter(steps, 1.0)])
    u = u[u < 1.0]
    return u, [(position_from_uniform(rho, model.cap, x) + 1) * model.t_service_ms
               for x in u.tolist()]


@pytest.mark.parametrize("rho", [0.9, 0.97, 0.99])
def test_delays_from_uniform_match_scalar_at_slot_boundaries(rho):
    model = QueueModel(rho=rho)
    u, want = _slot_edge_draws(model)
    assert delays_from_uniform(model, u).tolist() == want


@pytest.mark.parametrize("direction", [np.inf, -np.inf], ids=["ulp_up", "ulp_down"])
@pytest.mark.parametrize("rho", [0.9, 0.97, 0.99])
def test_delays_from_uniform_survive_a_log_one_ulp_off(monkeypatch, rho, direction):
    # numpy's log may round one ulp apart from math.log, and on a host where
    # the two agree the slot-boundary check above never reaches the math.log
    # fallback; here every numpy log is one ulp off, and the delays at and
    # one ulp around the CDF steps still equal the scalar ones
    model = QueueModel(rho=rho)
    u, want = _slot_edge_draws(model)
    log = np.log
    monkeypatch.setattr(queueing.np, "log", lambda x: np.nextafter(log(x), direction))
    # the nudge alone moves some draw to a neighbouring slot
    w = 1.0 + u * math.expm1((model.cap + 1) * math.log(rho))
    nudged = np.clip(np.ceil(np.log(w) / math.log(rho)) - 1, 0, model.cap)
    assert ((nudged + 1) * model.t_service_ms).tolist() != want
    assert delays_from_uniform(model, u).tolist() == want
