"""Properties of the cost model and the reward table over random inputs."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from offloadlab.cost import COMPOSITIONS, CostBreakdown, SystemParams, cost_table, total_cost
from offloadlab.env import RewardParams, reward_table, reward_with_case

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
