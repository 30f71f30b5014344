import csv
import math

import numpy as np
import pytest
import reference

from offloadlab.agent import QNetwork
from offloadlab.channel import ChannelModel
from offloadlab.cost import Action, SystemParams, total_cost
from offloadlab.env import BLOCK_FRAMES, OffloadEnv
from offloadlab.metrics import (
    evaluate,
    eval_report_header,
    eval_report_row,
    sweep_channel,
    sweep_header,
    sweep_queue,
    write_eval_reports,
    write_sweep,
)
from offloadlab.policies import (
    FORWARD_ROWS,
    DrlPolicy,
    LocalPolicy,
    OraclePolicy,
    Policy,
    PolicyDecision,
    RAgnosticPolicy,
)
from offloadlab.queueing import QueueModel
from offloadlab.scenario import CHUNK_ROWS, GeneratorParams, generate_synthetic

A0, A2, A3 = Action(0), Action(2), Action(3)


def _eval(policy, trace, params=None, seeds=3, rho=0.9, **kw):
    return evaluate(
        policy,
        trace,
        ChannelModel(sigma=8.0),
        QueueModel(rho=rho),
        params if params is not None else SystemParams(),
        seeds=seeds,
        **kw,
    )


def test_local_policy_report_structure(small_trace):
    r = _eval(LocalPolicy(), small_trace)
    assert r.actions["offload_0"].freq_pct == 100.0
    assert r.actions["offload_2"].count == 0
    assert math.isnan(r.actions["offload_2"].amap_pct)
    assert r.energy_reduction_pct == pytest.approx(0.0, abs=1e-9)
    assert r.risky_pct == 0.0
    assert r.robust_pct == 100.0
    assert r.deadline_miss_pct == 0.0
    assert r.n_frames == len(small_trace)


def test_frequencies_sum_to_one_hundred(small_trace, params):
    for pol in (LocalPolicy(), RAgnosticPolicy(params), OraclePolicy(params)):
        r = _eval(pol, small_trace)
        total = sum(s.freq_pct for s in r.actions.values())
        assert total == pytest.approx(100.0, abs=0.01)


def test_risky_plus_robust_partition_offloads(small_trace, params):
    r = _eval(RAgnosticPolicy(params), small_trace)
    assert r.risky_pct + r.robust_pct == pytest.approx(100.0, abs=0.01)


def test_weighted_amap_recovers_trace_mean(small_trace, params):
    r = _eval(RAgnosticPolicy(params), small_trace)
    mix = sum(
        s.freq_pct / 100.0 * s.amap_pct for s in r.actions.values() if s.count > 0
    )
    want = np.mean(small_trace.map_full) * 100.0
    assert mix == pytest.approx(want, abs=1e-9)


def test_energy_accounting_reconciles_with_steps(small_trace, params):
    r = _eval(RAgnosticPolicy(params), small_trace, seeds=2, keep_steps=True)
    pooled = sum(s.e_total_j for s in r.steps)
    assert r.total_energy_j == pytest.approx(pooled / 2, abs=1e-9)


def test_oracle_never_offloads_hard_frames(small_trace, params):
    r = _eval(OraclePolicy(params), small_trace, seeds=5)
    assert r.risky_pct == 0.0


def test_evaluate_is_deterministic(small_trace, params):
    a = _eval(RAgnosticPolicy(params), small_trace, seeds=[0, 1])
    b = _eval(RAgnosticPolicy(params), small_trace, seeds=[0, 1])
    assert a == b


def test_seed_list_and_count_agree(small_trace, params):
    a = _eval(RAgnosticPolicy(params), small_trace, seeds=3)
    b = _eval(RAgnosticPolicy(params), small_trace, seeds=[0, 1, 2])
    assert a == b


@pytest.mark.parametrize("seeds", [0, -2, []])
def test_evaluate_needs_at_least_one_seed(small_trace, params, seeds):
    with pytest.raises(ValueError, match="^need at least one seed$"):
        _eval(RAgnosticPolicy(params), small_trace, seeds=seeds)


def test_energy_reduction_against_local_baseline(small_trace, params):
    r = _eval(RAgnosticPolicy(params), small_trace, seeds=2)
    e_local = total_cost(params, A0, 1.0, 1.0, 0.0).e_total_j * len(small_trace)
    want = (1.0 - r.total_energy_j / e_local) * 100.0
    assert r.energy_reduction_pct == pytest.approx(want, abs=1e-9)
    assert r.energy_reduction_pct > 0.0


def test_report_row_formatting(small_trace, params):
    header = eval_report_header(params)
    r = _eval(LocalPolicy(), small_trace, seeds=2)
    row = eval_report_row(r, params)
    assert len(row) == len(header)
    assert row[0] == "local"
    m = dict(zip(header, row))
    assert m["freq_pct_offload_0"] == "100.00"
    assert m["amap_pct_offload_2"] == "nan"
    assert m["risky_pct"] == "0.00"
    assert float(m["total_energy_j"]) == r.total_energy_j


def test_write_eval_reports_is_stable(tmp_path, small_trace, params):
    r = _eval(LocalPolicy(), small_trace, seeds=2)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_eval_reports([r], params, p1)
    write_eval_reports([r], params, p2)
    assert p1.read_bytes() == p2.read_bytes()
    rows = list(csv.DictReader(p1.read_text().splitlines()))
    assert rows[0]["policy"] == "local"


def _columns(params):
    # sweep tables hold one column per action, in action-set order
    return {action.name: j for j, action in enumerate(params.action_set)}


def test_sweep_channel_crossovers():
    # frozen from the deadline algebra: with q=15 ms and no downlink payload,
    # offload_2 turns feasible past 185.12/38 Mbps and offload_3 past 277.68/38
    p = SystemParams(b_down_kbit=0.0)
    col = _columns(p)
    grid = [2.0, 3.0, 4.0, 4.5, 5.0, 6.0, 7.0, 7.5, 8.0, 10.0, 12.0]
    table = sweep_channel(p, grid, fixed_q_ms=15.0)
    feas2 = dict(zip(table.swept_value.tolist(), table.feasible[:, col["offload_2"]].tolist()))
    feas3 = dict(zip(table.swept_value.tolist(), table.feasible[:, col["offload_3"]].tolist()))
    assert not feas2[4.5] and feas2[5.0]
    assert not feas3[7.0] and feas3[7.5]
    assert table.feasible[:, col["offload_0"]].all()


def test_sweep_energy_ordering(params):
    col = _columns(params)
    table = sweep_channel(params, [2 + 0.5 * i for i in range(21)], fixed_q_ms=15.0)
    energy = table.e_total_j
    for r in range(len(table)):
        assert (energy[r, col["offload_3"]] < energy[r, col["offload_2"]]
                < energy[r, col["offload_0"]])


def test_sweep_channel_latency_decreases_with_capacity(params):
    col = _columns(params)
    table = sweep_channel(params, [2.0, 4.0, 8.0, 16.0], fixed_q_ms=15.0)
    l2 = table.l_total_ms[:, col["offload_2"]].tolist()
    assert l2 == sorted(l2, reverse=True)
    assert all(v == pytest.approx(68.12) for v in table.l_total_ms[:, col["offload_0"]].tolist())


def test_sweep_queue_zero_matches_channel_row(params):
    qrow = sweep_queue(params, [0.0], fixed_phi_mbps=8.0)
    crow = sweep_channel(params, [8.0], fixed_q_ms=0.0)
    np.testing.assert_array_equal(qrow.l_total_ms[0], crow.l_total_ms[0])
    np.testing.assert_array_equal(qrow.e_total_j[0], crow.e_total_j[0])


def test_sweep_queue_additive_has_unit_slope(params):
    p = params.with_updates(latency_composition="additive")
    col = _columns(p)
    table = sweep_queue(p, [0.0, 10.0, 20.0], fixed_phi_mbps=8.0)
    latency = table.l_total_ms
    for a in ("offload_2", "offload_3"):
        deltas = [
            latency[i + 1, col[a]] - latency[i, col[a]] for i in range(len(table) - 1)
        ]
        assert deltas == pytest.approx([10.0, 10.0], rel=1e-12)
    assert latency[0, col["offload_0"]] == latency[2, col["offload_0"]]


def test_sweep_queue_large_delay_kills_offloads(params):
    col = _columns(params)
    feasible = sweep_queue(params, [500.0], fixed_phi_mbps=8.0).feasible[0]
    assert feasible[col["offload_0"]]
    assert not feasible[col["offload_2"]]
    assert not feasible[col["offload_3"]]


def test_write_sweep_format(tmp_path, params):
    table = sweep_channel(params, [2.0, 8.0], fixed_q_ms=15.0)
    path = tmp_path / "sweep.csv"
    write_sweep(table, params, "phi_mbps", path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(sweep_header(params, "phi_mbps"))
    first = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert first["phi_mbps"] == "2.0"
    assert first["feasible_offload_0"] == "1"
    assert first["feasible_offload_2"] == "0"


@pytest.mark.parametrize("n", [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 7])
def test_write_sweep_matches_the_per_cell_repr_at_chunk_edges(tmp_path, params, n):
    # grid values with long reprs, from capacities where every offload misses
    # the deadline to ones where all are feasible
    grid = np.linspace(0.5, 30.0, n) + 1e-9
    table = sweep_channel(params, grid, fixed_q_ms=15.0)
    assert not table.feasible[0].all() and table.feasible[:, 0].all()
    path = tmp_path / "sweep.csv"
    write_sweep(table, params, "phi_mbps", path)
    want = ",".join(sweep_header(params, "phi_mbps")) + "\n" + reference.format_sweep_rows(
        table, params)
    assert path.read_bytes() == want.encode("utf-8")


def test_write_sweep_rejects_a_table_of_another_action_set(tmp_path, params):
    table = sweep_channel(params, [2.0, 8.0], fixed_q_ms=15.0)
    four = params.with_updates(action_set=(Action(0), Action(1), Action(2), Action(3)))
    with pytest.raises(ValueError, match="action columns"):
        write_sweep(table, four, "phi_mbps", tmp_path / "sweep.csv")


def test_sweep_rejects_empty_grid(params):
    with pytest.raises(ValueError):
        sweep_channel(params, [], fixed_q_ms=15.0)
    with pytest.raises(ValueError):
        sweep_queue(params, [], fixed_phi_mbps=8.0)


class _ProbeThreshold(Policy):
    """Defines only decide(), so evaluate goes through the default decide_block."""

    name = "probe_threshold"

    def decide(self, state, frame_map_full):
        assert isinstance(state.phi_obs, float) and isinstance(state.q_obs, float)
        if state.phi_obs > 9.0 and frame_map_full > 0.5:
            return PolicyDecision(A3, "test")
        return PolicyDecision(A2 if state.q_obs < 10.0 else A0, "test")


def _net(actions, zero=False, near_tie=False):
    net = QNetwork(16, actions, ctx_hidden=(8,), ctx_out=4, state_hidden=(16,),
                   rng=np.random.default_rng(1))
    if zero:
        # every action ties exactly
        for p in net.parameters():
            p[:] = 0.0
    if near_tie:
        # the last two actions' values differ only by rounding, where a
        # batched forward can order them differently from a batch-1 one
        w, b = net.head.weights[-1], net.head.biases[-1]
        w[2], b[2] = w[1], b[1]
        w[2, 0] = np.nextafter(w[2, 0], np.inf)
    return net


def _policies(params):
    return {
        "local": LocalPolicy(),
        "ragnostic": RAgnosticPolicy(params),
        "oracle": OraclePolicy(params),
        "drl": DrlPolicy(_net(params.action_set)),
        "drl_tied": DrlPolicy(_net(params.action_set, zero=True)),
        "drl_near_tie": DrlPolicy(_net(params.action_set, near_tie=True)),
        "decide_only": _ProbeThreshold(),
        # policies priced under their own system parameters, not the replay's
        "ragnostic_own_params": RAgnosticPolicy(params.with_updates(l_th_ms=60.0)),
        "oracle_own_params": OraclePolicy(
            params.with_updates(action_set=(A0, A3), l_th_ms=60.0, map_th=0.6)),
    }


def _loop_report(policy, trace, channel, queue, params, seeds, reward_basis):
    """EvalReport from a plain OffloadEnv reset/step loop, pooled step by step."""
    env = OffloadEnv(trace, channel, queue, params, reward_basis=reward_basis)
    steps = []
    for seed in seeds:
        state = env.reset(seed=seed)
        while not env.done:
            map_full = float(trace.map_full[env.frame_index])
            result = env.step(policy.decide(state, map_full).action)
            steps.append((seed, result.frame_index, result.action, map_full,
                          result.realized_map, result.cost.e_total_j, result.deadline_met,
                          result.reward))
            state = result.next_state
    n = len(steps)
    actions = {}
    for action in params.action_set:
        chosen = [s for s in steps if s[2] == action]
        stats = {"count": len(chosen), "freq_pct": 100.0 * len(chosen) / n,
                 "amap_pct": math.nan, "realized_amap_pct": math.nan}
        if chosen:
            stats["amap_pct"] = 100.0 * float(np.mean([s[3] for s in chosen]))
            stats["realized_amap_pct"] = 100.0 * float(np.mean([s[4] for s in chosen]))
        actions[action.name] = stats
    offloading = [s for s in steps if s[2].i > 0]
    risky_pct = (100.0 * sum(s[3] < params.map_th for s in offloading) / len(offloading)
                 if offloading else 0.0)
    total_energy = sum(s[5] for s in steps) / len(seeds)
    e_local = total_cost(params, A0, 1.0, 1.0, 0.0).e_total_j * len(trace)
    return steps, {
        "n_seeds": len(seeds),
        "n_frames": len(trace),
        "actions": actions,
        "risky_pct": risky_pct,
        "robust_pct": 100.0 - risky_pct,
        "total_energy_j": total_energy,
        "energy_reduction_pct": 100.0 * (1.0 - total_energy / e_local),
        "deadline_miss_pct": 100.0 * sum(not s[6] for s in steps) / n,
        "mean_reward": float(np.mean([s[7] for s in steps])),
    }


def _same(a, b):
    return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


@pytest.fixture(scope="module", params=[1, FORWARD_ROWS, FORWARD_ROWS + 1, 1300, BLOCK_FRAMES,
                                        2 * BLOCK_FRAMES + 1])
def replay_trace(request):
    # one frame; one drl forward slice, a slice plus one row, and several
    # slices ending in a short one, all in one block; a full block; and three
    # blocks, the last of one frame, not a whole number of slices
    return generate_synthetic(GeneratorParams(), request.param, seed=request.param)


@pytest.mark.parametrize("reward_basis", ["observed", "realized"])
@pytest.mark.parametrize("policy_name",
                         ["local", "ragnostic", "oracle", "drl", "drl_tied", "drl_near_tie", "decide_only",
                          "ragnostic_own_params", "oracle_own_params"])
def test_evaluate_equals_env_loop_record_for_record(replay_trace, reward_basis, policy_name):
    params = SystemParams()
    trace = replay_trace
    channel, queue = ChannelModel(sigma=8.0), QueueModel(rho=0.97)
    policy = _policies(params)[policy_name]
    report = evaluate(policy, trace, channel, queue, params, seeds=[0, 1],
                      reward_basis=reward_basis, keep_steps=True)
    want_steps, want = _loop_report(policy, trace, channel, queue, params, [0, 1],
                                    reward_basis)
    got_steps = [(s.seed, s.frame_index, s.action, s.map_full, s.realized_map, s.e_total_j,
                  s.deadline_met, s.reward) for s in report.steps]
    assert got_steps == want_steps
    assert report.policy == policy.name
    for name, value in want.items():
        if name == "actions":
            for action_name, stats in value.items():
                got = report.actions[action_name]
                for field, v in stats.items():
                    assert _same(getattr(got, field), v), (action_name, field)
        else:
            assert getattr(report, name) == value, name


def test_evaluate_rejects_drl_action_outside_action_set_like_env_step(small_trace):
    params = SystemParams()
    trace = small_trace
    net = _net((A0, Action(1), A3), zero=True)
    net.head.biases[-1][:] = [0.0, 1.0, 0.0]
    policy = DrlPolicy(net)
    channel, queue = ChannelModel(sigma=8.0), QueueModel()
    env = OffloadEnv(trace, channel, queue, params)
    state = env.reset(seed=0)
    with pytest.raises(ValueError) as loop:
        env.step(policy.decide(state, float(trace.map_full[0])).action)
    with pytest.raises(ValueError) as table:
        evaluate(policy, trace, channel, queue, params, seeds=[0])
    assert str(table.value) == str(loop.value) == "offload_1 is not in the configured action set"
