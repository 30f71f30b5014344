import math

import numpy as np
import pytest

from offloadlab.channel import (
    ChannelModel,
    capacities_from_uniform,
    capacity_from_uniform,
    fit_rayleigh,
    read_rate_trace,
    sample_capacities,
    sample_capacity,
)
from offloadlab.queueing import QueueModel, delays_from_uniform, sample_delay


def test_fit_sigma_closed_form():
    # sigma_hat = sqrt(sum(x^2) / (2n)); frozen for [1,2,3]x2: sqrt(28/12)
    model = fit_rayleigh([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
    assert model.sigma == pytest.approx(math.sqrt(14.0 / 6.0), rel=1e-12)
    assert model.mean_mbps == pytest.approx(model.sigma * math.sqrt(math.pi / 2), rel=1e-12)


def test_fit_rejects_bad_samples():
    with pytest.raises(ValueError):
        fit_rayleigh([5.0])
    with pytest.raises(ValueError):
        fit_rayleigh([5.0, -1.0])
    with pytest.raises(ValueError):
        fit_rayleigh([5.0, float("nan")])
    with pytest.raises(ValueError):
        fit_rayleigh([])


def test_model_validation():
    with pytest.raises(ValueError):
        ChannelModel(sigma=0.0)
    with pytest.raises(ValueError):
        ChannelModel(sigma=8.0, floor_mbps=-1.0)


def test_capacity_from_uniform_inverse_cdf():
    m = ChannelModel(sigma=8.0, floor_mbps=0.1)
    # u = exp(-2) puts the draw exactly at 2*sigma
    assert capacity_from_uniform(m, math.exp(-2.0)) == pytest.approx(16.0, rel=1e-12)
    # u = 1 is the distribution's zero, clamped up to the floor
    assert capacity_from_uniform(m, 1.0) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        capacity_from_uniform(m, 0.0)
    with pytest.raises(ValueError):
        capacity_from_uniform(m, 1.1)


def test_sampling_respects_floor():
    m = ChannelModel(sigma=0.05, floor_mbps=0.1)
    rng = np.random.default_rng(0)
    xs = sample_capacities(m, rng, 20000)
    assert xs.min() >= 0.1


def test_sample_mean_matches_rayleigh_mean():
    m = ChannelModel(sigma=8.0)
    rng = np.random.default_rng(1)
    xs = sample_capacities(m, rng, 100000)
    assert xs.mean() == pytest.approx(8.0 * math.sqrt(math.pi / 2), rel=0.02)


def test_vectorized_matches_scalar_stream():
    m = ChannelModel(sigma=8.0)
    vec = sample_capacities(m, np.random.default_rng(5), 50)
    rng = np.random.default_rng(5)
    seq = np.array([sample_capacity(m, rng) for _ in range(50)])
    np.testing.assert_allclose(vec, seq, rtol=0, atol=0)


def test_sampling_deterministic_per_seed():
    m = ChannelModel(sigma=8.0)
    a = sample_capacities(m, np.random.default_rng(3), 10)
    b = sample_capacities(m, np.random.default_rng(3), 10)
    c = sample_capacities(m, np.random.default_rng(4), 10)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_fit_recovers_sigma_from_own_samples():
    true = ChannelModel(sigma=8.0, floor_mbps=0.0001)
    xs = sample_capacities(true, np.random.default_rng(2), 20000)
    fitted = fit_rayleigh(xs)
    assert fitted.sigma == pytest.approx(8.0, rel=0.02)


def test_read_rate_trace(tmp_path):
    p = tmp_path / "rates.txt"
    p.write_text("# downlink log\n6.1\n\n7.3\n  5.2  \n")
    assert read_rate_trace(p) == [6.1, 7.3, 5.2]


def test_read_rate_trace_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("6.1\nabc\n")
    with pytest.raises(ValueError, match="line 2"):
        read_rate_trace(p)
    p.write_text("6.1\n-2.0\n")
    with pytest.raises(ValueError, match="line 2"):
        read_rate_trace(p)


@pytest.mark.parametrize("floor", [0.1, 0.0])
@pytest.mark.parametrize("rho", [0.9, 0.97, 0.99])
def test_split_uniform_stream_matches_alternating_scalar_draws(floor, rho):
    # the replay draws one rng.random(2m) per block: even slots are
    # capacities, odd slots queue delays, as OffloadEnv.step alternates them
    channel = ChannelModel(sigma=8.0, floor_mbps=floor)
    queue = QueueModel(rho=rho)
    m = 5000
    u = np.random.default_rng(13).random(2 * m)
    phi = capacities_from_uniform(channel, 1.0 - u[0::2])
    q = delays_from_uniform(queue, u[1::2])
    rng = np.random.default_rng(13)
    want_phi, want_q = [], []
    for _ in range(m):
        want_phi.append(sample_capacity(channel, rng))
        want_q.append(sample_delay(queue, rng))
    assert phi.tolist() == want_phi
    assert q.tolist() == want_q
