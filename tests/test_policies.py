import numpy as np
import pytest

from offloadlab.agent import QNetwork, act
from offloadlab.cost import Action, SystemParams
from offloadlab.env import State
from offloadlab.policies import DrlPolicy, LocalPolicy, OraclePolicy, RAgnosticPolicy, make_policy

A0, A2, A3 = Action(0), Action(2), Action(3)


def _obs(phi, q):
    return State(np.zeros(4), phi, q)


def test_local_policy_is_constant():
    d = LocalPolicy().decide(_obs(8.0, 15.0), 0.9)
    assert d.action == A0
    assert d.rationale_tag == "local_fixed"


def test_r_agnostic_follows_energy_minimum(params):
    pol = RAgnosticPolicy(params)
    assert pol.decide(_obs(8.0, 15.0), 0.9).action == A3
    assert pol.decide(_obs(2.0, 15.0), 0.9).action == A0
    assert pol.decide(_obs(5.5, 15.0), 0.9).action == A2


def test_r_agnostic_ignores_frame_content(params):
    # the decision depends on the probed draw only, not on the frame
    pol = RAgnosticPolicy(params)
    rng = np.random.default_rng(0)
    for _ in range(200):
        phi = rng.uniform(0.5, 20.0)
        q = rng.uniform(0.0, 80.0)
        hard, easy = State(rng.normal(size=4), phi, q), State(rng.normal(size=4), phi, q)
        assert pol.decide(hard, 0.1) == pol.decide(easy, 0.9)


def test_oracle_overrides_on_hard_frames(params):
    pol = OraclePolicy(params)
    d = pol.decide(_obs(10.0, 1.0), frame_map_full=0.50)
    assert d.action == A0
    assert d.rationale_tag == "robustness_override"
    assert pol.decide(_obs(10.0, 1.0), frame_map_full=0.90).action == A3
    assert pol.decide(_obs(2.0, 1.0), frame_map_full=0.90).action == A0


def test_oracle_threshold_is_strict(params):
    # exactly at the threshold counts as confident
    d = OraclePolicy(params).decide(_obs(10.0, 1.0), frame_map_full=params.map_th)
    assert d.rationale_tag != "robustness_override"


def test_oracle_equals_r_agnostic_at_zero_threshold():
    p = SystemParams(map_th=0.0)
    oracle, ragnostic = OraclePolicy(p), RAgnosticPolicy(p)
    rng = np.random.default_rng(1)
    for _ in range(300):
        s = _obs(rng.uniform(0.5, 20.0), rng.uniform(0.0, 80.0))
        m = rng.uniform(0.0, 1.0)
        assert oracle.decide(s, m).action == ragnostic.decide(s, m).action


def _greedy_net():
    net = QNetwork(4, (A0, A2, A3))
    for p in net.parameters():
        p[:] = 0.0
    net.head.biases[-1][:] = [0.0, 0.0, 2.0]
    return net


def test_drl_policy_is_greedy():
    net = _greedy_net()
    s = State(np.zeros(4), 8.0, 15.0)
    d = DrlPolicy(net).decide(s, 0.5)
    assert d.action == A3
    assert d.rationale_tag == "q_greedy"
    assert d.action == net.actions[act(net, s, 0.0)]


def test_policy_classes_share_decision_functions(params):
    s = State(np.zeros(4), 8.0, 15.0)
    assert LocalPolicy().decide(s, 0.5).action == A0
    assert RAgnosticPolicy(params).decide(s, 0.5).action == A3
    assert OraclePolicy(params).decide(s, 0.5).action == A0
    assert OraclePolicy(params).decide(s, 0.9).action == A3
    assert DrlPolicy(_greedy_net()).decide(s, 0.5).action == A3


def test_policy_names():
    assert LocalPolicy().name == "local"
    assert RAgnosticPolicy(SystemParams()).name == "ragnostic"
    assert OraclePolicy(SystemParams()).name == "oracle"
    assert DrlPolicy(_greedy_net()).name == "drl"


def test_all_decisions_stay_in_action_set(params):
    rng = np.random.default_rng(2)
    policies = [
        LocalPolicy(),
        RAgnosticPolicy(params),
        OraclePolicy(params),
        DrlPolicy(QNetwork(4, params.action_set, rng=np.random.default_rng(0))),
    ]
    for _ in range(200):
        s = State(rng.normal(size=4), rng.uniform(0.5, 20.0), rng.uniform(0.0, 80.0))
        m = rng.uniform(0.0, 1.0)
        for pol in policies:
            assert pol.decide(s, m).action in params.action_set


def test_make_policy(params):
    assert make_policy("local", params).name == "local"
    assert make_policy("oracle", params).name == "oracle"
    assert make_policy("drl", params, _greedy_net()).name == "drl"
    with pytest.raises(ValueError):
        make_policy("drl", params)
    with pytest.raises(ValueError):
        make_policy("greedy", params)
