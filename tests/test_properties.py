"""Properties of the cost model, the queue's and the channel's inverse CDFs,
the reward table, the replay blocks and the checkpoint format over random
inputs."""

import math
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from offloadlab import env
from offloadlab.agent import QNetwork, load_checkpoint, save_checkpoint
from offloadlab.channel import ChannelModel, capacities_from_uniform, capacity_from_uniform
from offloadlab.cost import COMPOSITIONS, CostBreakdown, SystemParams, cost_table, total_cost
from offloadlab.env import REWARD_BASES, RewardParams, reward_table, reward_with_case
from offloadlab.queueing import QueueModel, delays_from_uniform, position_from_uniform, queue_pmf
from offloadlab.scenario import GeneratorParams, generate_synthetic

# few examples: the suite's time goes to training, not to these checks
SETTINGS = settings(max_examples=40, deadline=None, database=None)

capacities = st.floats(min_value=0.05, max_value=500.0)
delays = st.floats(min_value=0.0, max_value=300.0)
systems = st.builds(
    SystemParams,
    p_local_w=st.sampled_from([0.0, 7.046]),
    p_tx_w=st.sampled_from([0.0, 1.3]),
    p_idle_w=st.sampled_from([0.0, 0.9]),
    b_down_kbit=st.sampled_from([0.0, 4.0]),
    latency_composition=st.sampled_from(COMPOSITIONS),
)


def _totals(params, phi, q):
    costs = [total_cost(params, a, phi, phi, q) for a in params.action_set]
    return [cb.l_total_ms for cb in costs], [cb.e_total_j for cb in costs]


@SETTINGS
@given(systems, st.lists(st.tuples(capacities, delays), min_size=1, max_size=8))
def test_cost_table_equals_total_cost(params, draws):
    phi, q = zip(*draws)
    latency, energy = cost_table(params, list(phi), list(q))
    for row, (p, d) in enumerate(draws):
        assert (latency[row].tolist(), energy[row].tolist()) == _totals(params, p, d)


@SETTINGS
@given(systems, capacities, delays)
def test_overlapped_never_exceeds_additive(params, phi, q):
    overlapped = _totals(params.with_updates(latency_composition="overlapped"), phi, q)
    additive = _totals(params.with_updates(latency_composition="additive"), phi, q)
    for lo, hi in zip(overlapped, additive):
        assert all(a <= b for a, b in zip(lo, hi))


@SETTINGS
@given(systems, capacities, capacities, delays)
def test_costs_fall_as_capacity_grows(params, phi_a, phi_b, q):
    slow, fast = sorted((phi_a, phi_b))
    for lo, hi in zip(_totals(params, fast, q), _totals(params, slow, q)):
        assert all(a <= b for a, b in zip(lo, hi))


@SETTINGS
@given(systems, capacities, delays, delays)
def test_costs_grow_with_queue_delay(params, phi, q_a, q_b):
    short, long = sorted((q_a, q_b))
    for lo, hi in zip(_totals(params, phi, short), _totals(params, phi, long)):
        assert all(a <= b for a, b in zip(lo, hi))


@SETTINGS
@given(systems, capacities, capacities, delays)
def test_energy_terms_sum_to_the_total(params, phi_up, phi_down, q):
    # e_total is the left-to-right sum of its four terms, bit for bit, under
    # either composition; no term is negative, and offload_0 never idles
    for composition in COMPOSITIONS:
        p = params.with_updates(latency_composition=composition)
        for action in p.action_set:
            cb = total_cost(p, action, phi_up, phi_down, q)
            terms = (cb.e_local_j, cb.e_tx_j, cb.e_idle_j, cb.e_rx_j)
            assert cb.e_total_j == ((cb.e_local_j + cb.e_tx_j) + cb.e_idle_j) + cb.e_rx_j
            assert all(term >= 0.0 for term in terms)
            if action.i == 0:
                assert cb.e_idle_j == 0.0


loads = st.floats(min_value=0.01, max_value=0.995)
uniforms = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


@SETTINGS
@given(loads, st.integers(1, 2000), st.lists(uniforms, min_size=1, max_size=8),
       st.sampled_from([0.5, 1.5]))
def test_queue_inverse_cdf_stays_in_range_and_brackets_u(rho, cap, us, t_service_ms):
    # the position is the smallest c whose CDF reaches u: the cumulative pmf
    # at c is >= u and at c - 1 is < u, up to 1e-12 at the slot edges, where
    # the closed form and the summed pmf round differently
    cdf = np.cumsum(queue_pmf(rho, cap))
    positions = [position_from_uniform(rho, cap, u) for u in us]
    for u, c in zip(us, positions):
        assert 0 <= c <= cap
        assert cdf[c] >= u - 1e-12
        assert c == 0 or cdf[c - 1] < u + 1e-12
    model = QueueModel(rho=rho, cap=cap, t_service_ms=t_service_ms)
    assert delays_from_uniform(model, np.array(us)).tolist() == [
        (c + 1) * t_service_ms for c in positions]


channels = st.builds(ChannelModel, sigma=st.floats(min_value=0.01, max_value=100.0),
                     floor_mbps=st.sampled_from([0.0, 0.1, 5.0]))
# draws in (0, 1], subnormals included
capacity_uniforms = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
# 1.0 gives a zero capacity, and the smallest normal and its neighbours the
# largest ones, where the logarithm is most negative
EXTREME_UNIFORMS = [1.0, sys.float_info.min, math.nextafter(sys.float_info.min, 0.0),
                    math.nextafter(sys.float_info.min, 1.0), 5e-324]


@SETTINGS
@given(channels, st.lists(capacity_uniforms, min_size=1, max_size=8))
@example(ChannelModel(sigma=8.0, floor_mbps=0.0), EXTREME_UNIFORMS)
@example(ChannelModel(sigma=8.0, floor_mbps=0.1), EXTREME_UNIFORMS)
def test_capacities_from_uniform_equal_the_scalar_transform_bit_for_bit(channel, us):
    got = capacities_from_uniform(channel, np.array(us))
    want = np.array([capacity_from_uniform(channel, u) for u in us])
    assert got.tobytes() == want.tobytes()


# latencies on both sides of the default 68.12 ms deadline and exactly on it
latencies = st.sampled_from([40.0, 68.12, math.nextafter(68.12, math.inf), 95.0])
# energies near a shared base, a few ulps to 1e-12 relative apart, so the
# energy branch's tolerances decide which actions count as minimal
near_energies = st.tuples(
    st.sampled_from([0.0, 1e-16, 1e-3, 0.3, 5.0]),
    st.lists(st.tuples(st.integers(-20, 20), st.integers(-3, 3)), min_size=3, max_size=3),
).map(lambda spec: [max(0.0, spec[0] * (1.0 + k * 1e-13) + j * 4e-16) for k, j in spec[1]])
steps = st.tuples(st.sampled_from([0.5, 0.68, 0.9]), st.lists(latencies, min_size=3, max_size=3),
                  st.lists(latencies, min_size=3, max_size=3), near_energies)


def _cost(l_total_ms):
    return CostBreakdown(0.0, 0.0, 0.0, 0.0, l_total_ms, 0.0, 0.0, 0.0, 0.0, 0.0)


@SETTINGS
@given(st.lists(steps, min_size=1, max_size=6))
def test_reward_table_equals_reward_with_case(rows):
    params, rp = SystemParams(), RewardParams()
    map_full, latency, rank_latency, rank_energy = (np.array(col) for col in zip(*rows))
    table = reward_table(params, rp, map_full, latency, rank_latency, rank_energy)
    for r, (m, lat, rank_lat, rank_e) in enumerate(rows):
        feasible = [e for l, e in zip(rank_lat, rank_e) if l <= params.l_th_ms]
        for col, action in enumerate(params.action_set):
            want, _ = reward_with_case(params, rp, m, action, _cost(lat[col]), feasible, rank_e[col])
            assert table[r, col] == want


architectures = st.fixed_dictionaries({
    "k": st.integers(1, 6),
    "actions": st.sampled_from([(0, 4), (0, 2, 3), (0, 1, 2, 3, 4)]),
    "ctx_hidden": st.lists(st.integers(1, 6), max_size=2).map(tuple),
    "ctx_out": st.integers(1, 4),
    "state_hidden": st.lists(st.integers(1, 6), max_size=2).map(tuple),
    "phi_max": st.floats(min_value=1e-3, max_value=1e6),
    "q_norm": st.floats(min_value=1e-3, max_value=1e6),
})


@settings(max_examples=20, deadline=None, database=None)
@given(architectures, st.integers(0, 2**32 - 1))
def test_checkpoint_round_trip_is_bit_exact(arch, seed):
    rng = np.random.default_rng(seed)
    net = QNetwork(rng=rng, **arch)
    # values across the whole exponent range, subnormals and signed zeros included
    size = net.theta.size
    net.theta[:] = rng.normal(size=size) * 10.0 ** rng.integers(-320, 300, size)
    net.theta[rng.random(size) < 0.1] = -0.0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.ckpt"
        save_checkpoint(net, path)
        back = load_checkpoint(path)
    assert back.theta.tobytes() == net.theta.tobytes()
    assert (back.k, back.actions, back.ctx_out, back.phi_max, back.q_norm) == (
        net.k, net.actions, net.ctx_out, net.phi_max, net.q_norm)
    assert (back.ctx.sizes, back.head.sizes) == (net.ctx.sizes, net.head.sizes)


def _stitched_replay(trace, params, basis, seed, block_frames):
    """Every row of one replay, whatever the blocks: the draws with their
    cost tables (n + 1 rows) and the outcome tables (n rows)."""
    with mock.patch.object(env, "BLOCK_FRAMES", block_frames):
        blocks = list(env.replay_outcomes(trace, ChannelModel(sigma=8.0), QueueModel(rho=0.97),
                                          params, RewardParams(), basis, seed))
    assert [b[0] for b in blocks] == list(range(0, len(trace), block_frames))
    # each block opens on the row the previous one ended with
    draws = [np.concatenate([b[i][min(j, 1):] for j, b in enumerate(blocks)])
             for i in (1, 2, 3, 4)]
    tables = [np.concatenate([b[5][i] for b in blocks]) for i in range(4)]
    return draws + tables


@settings(max_examples=15, deadline=None, database=None)
@given(st.integers(1, 1100), st.integers(0, 2**31 - 1), st.sampled_from(COMPOSITIONS),
       st.sampled_from(REWARD_BASES))
@example(1030, 5, "additive", "realized")  # two blocks of 512 and a short one
def test_replay_rows_do_not_depend_on_where_blocks_split(n_frames, seed, composition, basis):
    trace = generate_synthetic(GeneratorParams(k=2), n_frames, seed=seed)
    params = SystemParams(latency_composition=composition)
    small, large = (_stitched_replay(trace, params, basis, seed, size) for size in (7, 512))
    for a, b in zip(small, large):
        assert a.shape[0] in (n_frames, n_frames + 1)
        np.testing.assert_array_equal(a, b)
