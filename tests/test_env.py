import numpy as np
import pytest

import offloadlab.env as env_module
from offloadlab.channel import ChannelModel, sample_capacity
from offloadlab.cost import COMPOSITIONS, Action, CostBreakdown, SystemParams, total_cost
from offloadlab.env import (
    BLOCK_FRAMES,
    REWARD_BASES,
    OffloadEnv,
    RewardParams,
    replay_blocks,
    replay_outcomes,
    reward_with_case,
)
from offloadlab.queueing import QueueModel, sample_delay
from offloadlab.scenario import GeneratorParams, generate_synthetic, realized_map

A0, A2, A3 = Action(0), Action(2), Action(3)
RP = RewardParams()


def _cost(l_total, e_total=0.3):
    return CostBreakdown(
        l_local_ms=0.0,
        l_tx_ms=0.0,
        l_server_ms=0.0,
        l_rx_ms=0.0,
        l_total_ms=l_total,
        e_local_j=e_total,
        e_tx_j=0.0,
        e_idle_j=0.0,
        e_rx_j=0.0,
        e_total_j=e_total,
    )


def test_reward_case_table(params):
    # the four canonical outcomes with P=-2, threshold 0.68, 4 pipelines
    r, case = reward_with_case(params, RP, 0.50, A2, _cost(50.0), [0.3])
    assert (r, case) == (-1.0, "uncertainty")
    r, case = reward_with_case(params, RP, 0.50, A0, _cost(68.12), [0.3])
    assert (r, case) == (0.0, "uncertainty")
    r, case = reward_with_case(params, RP, 0.80, A3, _cost(70.0), [0.3])
    assert (r, case) == (-2.0, "deadline")
    r, case = reward_with_case(params, RP, 0.80, A3, _cost(50.0, 0.2), [0.2, 0.3, 0.48])
    assert (r, case) == (0.0, "energy")


def test_reward_energy_case_requires_minimum(params):
    r, case = reward_with_case(params, RP, 0.80, A2, _cost(50.0, 0.3), [0.2, 0.3])
    assert (r, case) == (-2.0, "energy")


def test_reward_full_offload_uncertainty_penalty(params):
    # P/(N-i) with i=3 pipelines offloaded is the whole penalty
    assert reward_with_case(params, RP, 0.40, A3, _cost(50.0), [0.3])[0] == -2.0


def test_reward_rank_energy_override(params):
    # the chosen action's energy may be ranked at a different draw than the
    # realized one; the override carries that value
    r = reward_with_case(params, RP, 0.80, A3, _cost(50.0, 0.9), [0.2, 0.3],
                         energy_for_rank_j=0.2)[0]
    assert r == 0.0


def test_reward_threshold_boundaries(params):
    rng = np.random.default_rng(0)
    none_th = params.with_updates(map_th=0.0)
    all_th = params.with_updates(map_th=1.0)
    for _ in range(300):
        m = rng.uniform(0.0, 0.999)
        a = [A0, A2, A3][rng.integers(3)]
        l = rng.uniform(30.0, 100.0)
        _, case = reward_with_case(none_th, RP, m, a, _cost(l), [0.3])
        assert case in ("deadline", "energy")
        _, case = reward_with_case(all_th, RP, m, a, _cost(l), [0.3])
        assert case == "uncertainty"


def test_reward_values_and_exclusivity_fuzz(params):
    rng = np.random.default_rng(1)
    allowed = {0.0, -1.0, -2.0}
    for _ in range(2000):
        m = rng.uniform(0.3, 1.0)
        a = [A0, A2, A3][rng.integers(3)]
        l = rng.uniform(30.0, 100.0)
        es = sorted(rng.uniform(0.1, 0.5, rng.integers(1, 4)))
        e = es[0] if rng.random() < 0.5 else es[-1]
        r, case = reward_with_case(params, RP, m, a, _cost(l, e), es)
        assert r in allowed
        # recompute the branch predicates independently
        if m < params.map_th:
            assert case == "uncertainty"
        elif l > params.l_th_ms:
            assert case == "deadline"
        else:
            assert case == "energy"


def test_reward_params_validation():
    with pytest.raises(ValueError):
        RewardParams(p_penalty=0.0)


def _env(trace, params=None, rho=0.9, basis="observed"):
    return OffloadEnv(
        trace,
        ChannelModel(sigma=8.0),
        QueueModel(rho=rho),
        params if params is not None else SystemParams(),
        reward_basis=basis,
    )


def test_reset_is_deterministic(small_trace):
    env = _env(small_trace)
    s1 = env.reset(seed=5)
    s2 = env.reset(seed=5)
    assert s1.phi_obs == s2.phi_obs and s1.q_obs == s2.q_obs
    s3 = env.reset(seed=6)
    assert s3.phi_obs != s1.phi_obs


def test_step_sequence_deterministic(small_trace):
    seq = []
    for _ in range(2):
        env = _env(small_trace)
        env.reset(seed=3)
        rows = []
        for t in range(40):
            res = env.step([A0, A2, A3][t % 3])
            rows.append((res.reward, res.cost.l_total_ms, res.next_state.phi_obs))
        seq.append(rows)
    assert seq[0] == seq[1]


@pytest.fixture
def short_blocks(monkeypatch):
    """Replay in 512-frame blocks, so a few hundred frames cross block edges;
    the per-frame scalar references would cost several times more on a trace
    of several BLOCK_FRAMES."""
    monkeypatch.setattr(env_module, "BLOCK_FRAMES", 512)
    return 512


@pytest.mark.parametrize("basis", REWARD_BASES)
def test_observations_lag_realized_draws(basis, short_blocks):
    # the draw an action experiences becomes the next decision's probe; a
    # 1300-frame episode crosses the replay's block edges at 512 and 1024,
    # and every step matches alternating scalar draws on the same seed
    trace = generate_synthetic(GeneratorParams(), 1300, seed=5)
    env = _env(trace, basis=basis)
    p = env.params
    state = env.reset(seed=9)
    rng = np.random.default_rng(9)
    assert state.phi_obs == sample_capacity(env.channel, rng)
    assert state.q_obs == sample_delay(env.queue, rng)
    while not env.done:
        action = p.action_set[env.frame_index % len(p.action_set)]
        res = env.step(action)
        phi = sample_capacity(env.channel, rng)
        q = sample_delay(env.queue, rng)
        assert res.cost.l_server_ms == (q if action.i > 0 else 0.0)
        assert res.cost == total_cost(p, action, phi, phi, q)
        assert res.next_state.phi_obs == phi
        assert res.next_state.q_obs == q
        rank_phi, rank_q = (phi, q) if basis == "realized" else (state.phi_obs, state.q_obs)
        rank = [total_cost(p, a, rank_phi, rank_phi, rank_q) for a in p.action_set]
        feasible = [cb.e_total_j for cb in rank if cb.l_total_ms <= p.l_th_ms]
        want = reward_with_case(p, RP, trace.map_full[res.frame_index], action, res.cost, feasible,
                                rank[p.action_set.index(action)].e_total_j)
        assert (res.reward, res.reward_case) == want
        state = res.next_state
    assert res.frame_index == len(trace) - 1


def test_replay_blocks_follow_the_scalar_stream_across_block_edges(params, channel, queue):
    # row r of the block at t0 is draw t0 + r of alternating scalar draws, and
    # each block opens on the row the previous block ended with
    # two full blocks and a short one, at the package's block size
    trace = generate_synthetic(GeneratorParams(), 2 * BLOCK_FRAMES + 276, seed=5)
    rng = np.random.default_rng(9)
    draws = [(sample_capacity(channel, rng), sample_delay(queue, rng))
             for _ in range(len(trace) + 1)]
    phi_want, q_want = (np.array(col) for col in zip(*draws))
    blocks = list(replay_blocks(trace, channel, queue, params, seed=9))
    assert [b[0] for b in blocks] == [0, BLOCK_FRAMES, 2 * BLOCK_FRAMES]
    for i, (t0, phi, q, latency, energy) in enumerate(blocks):
        m = min(BLOCK_FRAMES, len(trace) - t0)
        assert len(phi) == len(q) == len(latency) == len(energy) == m + 1
        np.testing.assert_array_equal(phi, phi_want[t0 : t0 + m + 1])
        np.testing.assert_array_equal(q, q_want[t0 : t0 + m + 1])
        if i > 0:
            assert (phi[0], q[0]) == (blocks[i - 1][1][-1], blocks[i - 1][2][-1])


# system parameters of the outcome-table check: idle power, a deadline no
# action meets on slow draws, and zero powers that tie every energy
OUTCOME_PARAMS = {
    "default": {},
    "idle_power": {"p_idle_w": 0.9},
    "no_feasible_rows": {"l_th_ms": 60.0},
    "tied_energies": {"p_local_w": 0.0, "p_tx_w": 0.0},
}


@pytest.mark.parametrize("basis", REWARD_BASES)
@pytest.mark.parametrize("composition", COMPOSITIONS)
@pytest.mark.parametrize("case", sorted(OUTCOME_PARAMS))
def test_outcome_tables_equal_the_scalar_references_cell_for_cell(basis, composition, case,
                                                                  short_blocks):
    # every action on every frame of a 600-frame replay (one block edge):
    # deadline, realized quality, energy and reward against total_cost,
    # realized_map and reward_with_case at the realized and the ranked draw
    p = SystemParams(latency_composition=composition, **OUTCOME_PARAMS[case])
    trace = generate_synthetic(GeneratorParams(), 600, seed=2)
    channel, queue = ChannelModel(sigma=8.0), QueueModel(rho=0.97)
    rows_without_feasible = rows_with_ties = 0
    for t0, phi, q, _, _, tables in replay_outcomes(trace, channel, queue, p, RP, basis, seed=1):
        phi, q = phi.tolist(), q.tolist()
        for r in range(len(phi) - 1):
            t = t0 + r
            k = r + 1 if basis == "realized" else r
            ranked = [total_cost(p, a, phi[k], phi[k], q[k]) for a in p.action_set]
            feasible = [cb.e_total_j for cb in ranked if cb.l_total_ms <= p.l_th_ms]
            rows_without_feasible += not feasible
            rows_with_ties += len(set(feasible)) < len(feasible)
            for col, action in enumerate(p.action_set):
                cost = total_cost(p, action, phi[r + 1], phi[r + 1], q[r + 1])
                met = cost.l_total_ms <= p.l_th_ms
                reward, _ = reward_with_case(p, RP, trace.map_full[t], action, cost, feasible,
                                             ranked[col].e_total_j)
                want = (met, realized_map(trace, t, action, met, p.offload_order),
                        cost.e_total_j, reward)
                assert tuple(table[r, col] for table in tables) == want, (t, action.name)
    assert t0 == short_blocks
    if case == "no_feasible_rows":
        assert rows_without_feasible
    if case == "tied_energies":
        assert rows_with_ties


def test_local_action_costs_are_seed_invariant(small_trace):
    results = []
    for seed in (0, 1, 2):
        env = _env(small_trace)
        env.reset(seed=seed)
        results.append([env.step(A0).cost for _ in range(30)])
    assert results[0] == results[1] == results[2]


def test_local_action_rewards_seed_invariant_when_uncertainty_dominates(small_trace):
    # with the threshold at 1.0 every frame lands in the uncertainty branch,
    # where offload_0 is free regardless of the channel and queue draws
    p = SystemParams(map_th=1.0)
    rows = []
    for seed in (0, 1):
        env = _env(small_trace, params=p)
        env.reset(seed=seed)
        rows.append([env.step(A0).reward for _ in range(len(small_trace))])
    assert rows[0] == rows[1]
    assert set(rows[0]) == {0.0}


def test_realized_map_depends_on_deadline(small_trace):
    env = _env(small_trace, rho=0.99)
    env.reset(seed=2)
    radar = small_trace.partial_keys.index("radar")
    saw_partial = saw_full = False
    for t in range(len(small_trace)):
        res = env.step(A3)
        t = res.frame_index
        if res.deadline_met:
            assert res.realized_map == small_trace.map_full[t]
            saw_full = True
        else:
            assert res.realized_map == small_trace.map_partial[t, radar]
            saw_partial = True
    assert saw_full and saw_partial


def test_reward_basis_changes_energy_ranking(small_trace):
    # an action can be energy-optimal at the probed draw but not at the
    # realized one; the two bases must disagree somewhere on a long roll
    p = SystemParams(map_th=0.0)  # keep every step in the energy branch
    rewards = {}
    for basis in ("observed", "realized"):
        env = _env(small_trace, params=p, basis=basis)
        env.reset(seed=4)
        rewards[basis] = [env.step(A3).reward for _ in range(len(small_trace))]
    assert rewards["observed"] != rewards["realized"]


def test_episode_termination(small_trace):
    env = _env(small_trace)
    env.reset(seed=0)
    for _ in range(len(small_trace)):
        assert not env.done
        env.step(A0)
    assert env.done
    with pytest.raises(RuntimeError):
        env.step(A0)


def test_single_frame_trace_terminates_after_one_step():
    trace = generate_synthetic(GeneratorParams(), 1, seed=0)
    env = _env(trace)
    env.reset(seed=0)
    res = env.step(A0)
    assert env.done
    assert res.frame_index == 0


def test_step_requires_reset(small_trace):
    env = _env(small_trace)
    with pytest.raises(RuntimeError):
        env.step(A0)


def test_step_rejects_unknown_action(small_trace):
    env = _env(small_trace)
    env.reset(seed=0)
    with pytest.raises(ValueError):
        env.step(Action(1))


def test_env_rejects_empty_or_mismatched_trace(small_trace):
    with pytest.raises(ValueError):
        OffloadEnv(
            generate_synthetic(GeneratorParams(), 5, seed=0, partial_counts=(2,)),
            ChannelModel(sigma=8.0),
            QueueModel(),
            SystemParams(),
        )


def test_env_rejects_bad_basis(small_trace):
    with pytest.raises(ValueError):
        _env(small_trace, basis="expected")


def test_reward_range_over_random_rollout(small_trace):
    env = _env(small_trace)
    env.reset(seed=8)
    rng = np.random.default_rng(8)
    for _ in range(len(small_trace)):
        res = env.step([A0, A2, A3][rng.integers(3)])
        assert -2.0 <= res.reward <= 0.0
        assert res.reward_case in ("uncertainty", "deadline", "energy")
