import math
import re

import numpy as np
import pytest

from offloadlab.cost import (
    Action,
    SystemParams,
    comm_cost,
    cost_table,
    energy_local,
    feasible_actions,
    latency_local,
    min_energy_columns,
    min_energy_feasible,
    total_cost,
)

A0, A2, A3 = Action(0), Action(2), Action(3)

# Hand-computed from the default constants and frozen:
#   l_local(i) = 4*3.78 + (4-i)*13.25         -> 68.12 / 41.62 / 28.37 ms
#   e_local(i) = l_local(i) * 7.046 mW        -> 479.97352 / 293.25452 / 199.89502 mJ
L_LOCAL = {0: 68.12, 2: 41.62, 3: 28.37}
E_LOCAL_J = {0: 0.47997352, 2: 0.29325452, 3: 0.19989502}


def test_action_name_and_parse():
    assert A2.name == "offload_2"
    assert Action.parse("offload_3") == A3
    assert Action.parse("0") == A0
    with pytest.raises(ValueError):
        Action.parse("offload_x")


def test_action_rejects_negative():
    with pytest.raises(ValueError):
        Action(-1)


def test_local_latency_constants(params):
    for i, want in L_LOCAL.items():
        assert latency_local(params, Action(i)) == pytest.approx(want, abs=1e-12)


def test_local_energy_constants(params):
    for i, want in E_LOCAL_J.items():
        assert energy_local(params, Action(i)) == pytest.approx(want, rel=1e-12)


def test_action_beyond_pipeline_count_rejected(params):
    with pytest.raises(ValueError):
        latency_local(params, Action(4))


def test_comm_cost_uplink_oracle(params):
    # 3 * 92.56 kbit at 8 Mbit/s = 34.71 ms up; 3 * 4 kbit at 8 -> 1.5 ms down
    l_tx, e_tx, l_rx, e_rx = comm_cost(params, A3, 8.0)
    assert l_tx == pytest.approx(34.71, abs=1e-12)
    assert e_tx == pytest.approx(34.71 * 1.3 / 1e3, rel=1e-12)
    assert l_rx == pytest.approx(1.5, abs=1e-12)
    assert e_rx == pytest.approx(1.5 * 1.3 / 1e3, rel=1e-12)
    l_tx2, _, _, _ = comm_cost(params, A2, 4.0)
    assert l_tx2 == pytest.approx(46.28, abs=1e-12)


def test_comm_cost_local_is_free(params):
    assert comm_cost(params, A0, 8.0) == (0.0, 0.0, 0.0, 0.0)


def test_comm_cost_rejects_nonpositive_rates(params):
    with pytest.raises(ValueError):
        comm_cost(params, A2, 0.0)
    with pytest.raises(ValueError):
        comm_cost(params, A2, 8.0, -1.0)


def test_total_cost_overlapped_oracle():
    # branch = 2*92.56/4.9 + 15, overlapped with encoders: 15.12 + branch
    p = SystemParams(b_down_kbit=0.0)
    cb = total_cost(p, A2, 4.9, server_delay_ms=15.0)
    assert cb.l_total_ms == pytest.approx(15.12 + 185.12 / 4.9 + 15.0, rel=1e-12)
    assert cb.l_total_ms == pytest.approx(67.8996, abs=1e-4)


def test_total_cost_overlapped_local_bound(params):
    # offload_2 at a generous channel: local tails dominate the offload branch
    cb = total_cost(params, A2, 1000.0, server_delay_ms=0.0)
    assert cb.l_total_ms == pytest.approx(L_LOCAL[2], abs=1e-9)


def test_total_cost_additive(params):
    p = params.with_updates(latency_composition="additive")
    cb = total_cost(p, A2, 8.0, server_delay_ms=15.0)
    assert cb.l_total_ms == pytest.approx(41.62 + 23.14 + 15.0 + 1.0, rel=1e-12)


def test_idle_energy_only_while_waiting(params):
    # overlapped offload_2 at phi=8, q=15: branch 39.14 ms vs 26.5 ms of tails
    p = params.with_updates(p_idle_w=1.0)
    cb = total_cost(p, A2, 8.0, server_delay_ms=15.0)
    assert cb.e_idle_j == pytest.approx((39.14 - 26.5) / 1e3, rel=1e-9)
    fast = total_cost(p, A2, 1000.0, server_delay_ms=0.0)
    assert fast.e_idle_j == 0.0
    local = total_cost(p, A0, 8.0, server_delay_ms=15.0)
    assert local.e_idle_j == 0.0


def test_energy_decomposition(params):
    cb = total_cost(params.with_updates(p_idle_w=0.5), A3, 6.0, 7.0, 12.0)
    assert cb.e_total_j == pytest.approx(
        cb.e_local_j + cb.e_tx_j + cb.e_idle_j + cb.e_rx_j, rel=1e-12
    )


def test_local_action_cost_is_channel_free(params):
    a = total_cost(params, A0, 2.0, server_delay_ms=500.0)
    b = total_cost(params, A0, 19.0, server_delay_ms=0.0)
    assert a == b
    assert a.l_total_ms == pytest.approx(68.12, abs=1e-12)
    assert a.l_server_ms == 0.0


def test_feasible_actions_at_spec_point(params):
    assert feasible_actions(params, 8.0, server_delay_ms=15.0) == [A0, A2, A3]
    assert feasible_actions(params, 2.0, server_delay_ms=15.0) == [A0]


def test_feasibility_monotone_in_phi(params):
    seen = set()
    for phi in [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0, 12.0]:
        now = set(feasible_actions(params, phi, server_delay_ms=15.0))
        assert seen <= now
        seen = now


def test_min_energy_feasible_crossover():
    # frozen from the deadline algebra at q=15 ms without a downlink payload:
    # offload_2 needs phi > 185.12/38, offload_3 needs phi > 277.68/38
    p = SystemParams(b_down_kbit=0.0)
    assert min_energy_feasible(p, 2.0, server_delay_ms=15.0) == A0
    assert min_energy_feasible(p, 5.0, server_delay_ms=15.0) == A2
    assert min_energy_feasible(p, 8.0, server_delay_ms=15.0) == A3


def test_min_energy_tie_breaks_to_smaller_offload():
    p = SystemParams(p_local_w=0.0, p_tx_w=0.0)
    assert min_energy_feasible(p, 8.0, server_delay_ms=15.0) == A0


def test_min_energy_falls_back_to_local(params):
    assert min_energy_feasible(params, 0.5, server_delay_ms=500.0) == A0


def test_with_updates_returns_new_instance(params):
    p2 = params.with_updates(b_down_kbit=0.0)
    assert p2.b_down_kbit == 0.0
    assert params.b_down_kbit == 4.0


@pytest.mark.parametrize(
    "kw",
    [
        {"l_encoder_ms": 0.0},
        {"l_tail_ms": -1.0},
        {"b_up_kbit": 0.0},
        {"p_local_w": -0.1},
        {"b_down_kbit": -1.0},
        {"map_th": 1.5},
        {"l_th_ms": 0.0},
        {"latency_composition": "parallel"},
        {"n_pipelines": 0},
    ],
)
def test_params_validation(kw):
    with pytest.raises(ValueError):
        SystemParams(**kw)


def test_zero_powers_and_zero_downlink_are_legal():
    p = SystemParams(p_local_w=0.0, p_tx_w=0.0, p_idle_w=0.0, b_down_kbit=0.0)
    assert total_cost(p, A3, 8.0).e_total_j == 0.0


def test_action_set_must_contain_local_and_full_offload():
    with pytest.raises(ValueError):
        SystemParams(action_set=(Action(2), Action(3)))
    with pytest.raises(ValueError):
        SystemParams(action_set=(Action(0), Action(2)))
    with pytest.raises(ValueError):
        SystemParams(action_set=(Action(0), Action(2), Action(2), Action(3)))


def test_offload_order_length_checked():
    with pytest.raises(ValueError):
        SystemParams(offload_order=("camera_left", "lidar"))


def test_total_cost_rejects_negative_server_delay(params):
    with pytest.raises(ValueError):
        total_cost(params, A2, 8.0, server_delay_ms=-1.0)


@pytest.mark.parametrize("composition", ["overlapped", "additive"])
@pytest.mark.parametrize("p_idle_w", [0.0, 0.9])
def test_cost_table_equals_total_cost_bit_for_bit(composition, p_idle_w):
    p = SystemParams(latency_composition=composition, p_idle_w=p_idle_w)
    rng = np.random.default_rng(7)
    # the capacity floor, tiny and huge capacities, q = 0 and queues long
    # enough that the overlapped vehicle idles, then random draws
    phi = np.concatenate([[0.1, 0.1, 1e-3, 2.0, 8.0, 1e4, 1e9, 0.1],
                          rng.uniform(0.1, 30.0, 300)])
    q = np.concatenate([[0.0, 15.0, 0.0, 0.0, 6000.0, 0.0, 1.5, 1e5],
                        rng.uniform(0.0, 120.0, 300)])
    latency, energy = cost_table(p, phi, q)
    assert latency.shape == energy.shape == (len(phi), len(p.action_set))
    for r, (phi_r, q_r) in enumerate(zip(phi.tolist(), q.tolist())):
        for c, action in enumerate(p.action_set):
            cb = total_cost(p, action, phi_r, phi_r, q_r)
            assert latency[r, c] == cb.l_total_ms
            assert energy[r, c] == cb.e_total_j
    # offload_0 is draw-independent
    assert np.all(latency[:, 0] == latency[0, 0]) and np.all(energy[:, 0] == energy[0, 0])


def test_cost_table_broadcasts_a_fixed_draw(params):
    grid = [2.0, 4.0, 8.0]
    by_scalar = cost_table(params, grid, 15.0)
    by_array = cost_table(params, grid, [15.0] * 3)
    for got, want in zip(by_scalar, by_array):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("phi,q", [(0.0, 1.0), (-2.0, 1.0), (8.0, -1.0), (0.0, -1.0)])
def test_cost_table_raises_total_cost_errors(params, phi, q):
    with pytest.raises(ValueError) as scalar:
        total_cost(params, A0, phi, phi, q)
    with pytest.raises(ValueError, match=re.escape(str(scalar.value))):
        cost_table(params, [8.0, phi], [1.0, q])


def test_min_energy_columns_match_min_energy_feasible(params):
    rng = np.random.default_rng(3)
    phi = rng.uniform(0.5, 20.0, 400)
    q = rng.uniform(0.0, 80.0, 400)
    cols = min_energy_columns(params, *cost_table(params, phi, q))
    want = [params.action_set.index(min_energy_feasible(params, f, f, d))
            for f, d in zip(phi.tolist(), q.tolist())]
    assert cols.tolist() == want
