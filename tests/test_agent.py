import numpy as np
import pytest

from offloadlab.agent import (
    QNetwork,
    ReplayBuffer,
    TrainConfig,
    TrainingDiverged,
    act,
    epsilon_at,
    load_checkpoint,
    save_checkpoint,
    train,
    train_step,
    write_training_log,
)
from offloadlab.channel import ChannelModel
from offloadlab.cost import SystemParams
from offloadlab.env import OffloadEnv, State
from offloadlab.queueing import QueueModel
from offloadlab.scenario import GeneratorParams, generate_synthetic

ACTIONS = (0, 2, 3)


def _state(k=4, phi=8.0, q=15.0, fill=0.5):
    return State(np.full(k, fill), phi, q)


def _zero_net(k=4):
    net = QNetwork(k, ACTIONS)
    for p in net.parameters():
        p[:] = 0.0
    return net


def test_epsilon_schedule():
    cfg = TrainConfig()
    assert epsilon_at(cfg, 0) == 1.0
    assert epsilon_at(cfg, 25000) == pytest.approx(0.525)
    assert epsilon_at(cfg, 50000) == 0.05
    assert epsilon_at(cfg, 10**9) == 0.05


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(gamma=1.0)
    with pytest.raises(ValueError):
        TrainConfig(eps_end=0.5, eps_start=0.1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=128, buffer_capacity=64)
    with pytest.raises(ValueError):
        TrainConfig(optimizer="rmsprop")


def test_qnetwork_output_width_and_determinism():
    net = QNetwork(4, ACTIONS, rng=np.random.default_rng(0))
    s = _state()
    q1 = net.forward_state(s)
    q2 = net.forward_state(s)
    assert q1.shape == (3,)
    np.testing.assert_array_equal(q1, q2)
    assert np.isfinite(q1).all()


def test_qnetwork_checks_feature_width():
    net = QNetwork(4, ACTIONS, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        net.forward_state(_state(k=3))


def test_qnetwork_observations_reach_the_head():
    net = QNetwork(4, ACTIONS, rng=np.random.default_rng(1))
    a = net.forward_state(_state(phi=4.0))
    b = net.forward_state(_state(phi=16.0))
    c = net.forward_state(_state(q=40.0))
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_act_greedy_and_tie_break():
    net = _zero_net()
    # all-equal Q values: the smaller offload count wins the tie
    assert act(net, _state(), epsilon=0.0) == 0
    net.head.biases[-1][:] = [0.0, 1.0, 0.5]
    assert act(net, _state(), epsilon=0.0) == 1


def test_act_greedy_needs_no_rng():
    net = _zero_net()
    assert act(net, _state(), 0.0, rng=None) == 0
    with pytest.raises(ValueError):
        act(net, _state(), 0.5, rng=None)


def test_act_exploration_is_uniform():
    net = _zero_net()
    net.head.biases[-1][:] = [0.0, 9.0, 0.0]
    rng = np.random.default_rng(0)
    counts = np.bincount([act(net, _state(), 1.0, rng) for _ in range(3000)], minlength=3)
    assert counts.min() > 3000 / 3 * 0.85


def _one_transition(s, action, reward, s_next, terminal):
    buf = ReplayBuffer(capacity=1, k=len(s.features))
    buf.push(s, action, reward, s_next, terminal)
    return buf.sample(np.random.default_rng(0), 1)


def test_ddqn_target_oracle():
    # the online net picks index 1 for the next state, the target net prices
    # it at 0.5: target 0 + 0.9 * 0.5 against the online value 1.0
    online = _zero_net()
    target = _zero_net()
    online.head.biases[-1][:] = [0.0, 1.0, 0.0]  # argmax at index 1
    target.head.biases[-1][:] = [9.0, 0.5, 9.0]
    batch = _one_transition(_state(), 1, 0.0, _state(), False)
    loss = train_step(online, target, batch, lr=1e-3, gamma=0.9)
    assert loss == pytest.approx((1.0 - 0.45) ** 2, rel=1e-12)


def test_ddqn_target_terminal_ignores_networks():
    online, target = _zero_net(), _zero_net()
    online.head.biases[-1][:] = [0.0, 5.0, 0.0]
    target.head.biases[-1][:] = [100.0, 100.0, 100.0]
    batch = _one_transition(_state(), 0, -2.0, _state(), True)
    assert train_step(online, target, batch, lr=1e-3, gamma=0.9) == 4.0


def test_ddqn_equal_nets_reduce_to_q_learning():
    rng = np.random.default_rng(3)
    online = QNetwork(4, ACTIONS, rng=rng)
    target = online.clone()
    s, s_next = _state(fill=0.7), _state(fill=0.3)
    want = 0.1 + 0.9 * online.forward_state(s_next).max()
    err = online.forward_state(s)[2] - want
    batch = _one_transition(s, 2, 0.1, s_next, False)
    loss = train_step(online, target, batch, lr=1e-3, gamma=0.9)
    assert loss == pytest.approx(err * err, rel=1e-12)


def test_replay_buffer_ring_and_sampling():
    buf = ReplayBuffer(capacity=8, k=4)
    assert len(buf) == 0
    with pytest.raises(ValueError):
        buf.sample(np.random.default_rng(0), 1)
    for t in range(11):
        buf.push(_state(fill=t), t % 3, -float(t), _state(fill=t + 1), t == 10)
    assert len(buf) == 8
    batch = buf.sample(np.random.default_rng(0), 6)
    assert batch["features"].shape == (6, 4)
    assert batch["next_features"].shape == (6, 4)
    # the first three pushes were overwritten by the ring
    assert batch["reward"].min() >= -10.0
    assert batch["reward"].max() <= -3.0
    assert set(batch["action"]) <= {0, 1, 2}


def test_replay_buffer_rejects_oversized_batch():
    buf = ReplayBuffer(capacity=8, k=4)
    buf.push(_state(), 0, 0.0, _state(), False)
    with pytest.raises(ValueError):
        buf.sample(np.random.default_rng(0), 2)


def _batch_from(net, n=4, k=4, reward=0.0, terminal=True):
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(n, k))
    return {
        "features": feats,
        "phi": np.full(n, 8.0),
        "q": np.full(n, 15.0),
        "action": np.zeros(n, dtype=int),
        "reward": np.full(n, reward),
        "next_features": feats,
        "next_phi": np.full(n, 8.0),
        "next_q": np.full(n, 15.0),
        "terminal": np.full(n, terminal),
    }


def test_train_step_zero_loss_leaves_weights_alone():
    online = _zero_net()
    target = _zero_net()
    # terminal transitions with zero reward: targets equal the zero predictions
    batch = _batch_from(online, reward=0.0, terminal=True)
    before = [p.copy() for p in online.parameters()]
    loss = train_step(online, target, batch, lr=0.1, gamma=0.9)
    assert loss == 0.0
    for b, p in zip(before, online.parameters()):
        np.testing.assert_array_equal(b, p)


def test_train_step_returns_pre_step_loss():
    online = _zero_net()
    target = _zero_net()
    batch = _batch_from(online, reward=-2.0, terminal=True)
    loss = train_step(online, target, batch, lr=0.01, gamma=0.9)
    # predictions all zero, targets all -2: MSE over taken actions is 4
    assert loss == pytest.approx(4.0, rel=1e-12)


def test_train_step_descends_on_repeated_batch():
    online = QNetwork(4, ACTIONS, rng=np.random.default_rng(5))
    target = online.clone()
    batch = _batch_from(online, reward=-1.0, terminal=True)
    losses = [train_step(online, target, batch, lr=0.05, gamma=0.9) for _ in range(60)]
    assert losses[-1] < losses[0] * 0.1


def _tiny_env_factory(n_frames=60, seed=0):
    trace = generate_synthetic(GeneratorParams(k=8), n_frames, seed=seed)
    params = SystemParams()

    def factory(episode):
        return OffloadEnv(trace, ChannelModel(sigma=8.0), QueueModel(), params)

    return factory


def _tiny_config(**kw):
    base = dict(
        episodes=2,
        batch_size=16,
        buffer_capacity=500,
        eps_decay_steps=80,
        target_sync=25,
        ctx_hidden=(8,),
        ctx_out=4,
        state_hidden=(16,),
        seed=1,
    )
    base.update(kw)
    return TrainConfig(**base)


def test_train_is_deterministic():
    factory = _tiny_env_factory()
    runs = []
    for _ in range(2):
        net, logs = train(factory, _tiny_config())
        runs.append((net, logs))
    p1 = runs[0][0].parameters()
    p2 = runs[1][0].parameters()
    for a, b in zip(p1, p2):
        np.testing.assert_array_equal(a, b)
    assert runs[0][1] == runs[1][1]


def test_train_logs_one_row_per_episode():
    net, logs = train(_tiny_env_factory(), _tiny_config(episodes=3))
    assert [lg.episode for lg in logs] == [0, 1, 2]
    assert all(np.isfinite(lg.mean_reward) and np.isfinite(lg.mean_loss) for lg in logs)
    assert logs[0].epsilon > logs[-1].epsilon


def test_train_calls_factory_per_episode():
    seen = []
    inner = _tiny_env_factory()

    def factory(episode):
        seen.append(episode)
        return inner(episode)

    train(factory, _tiny_config(episodes=3))
    assert seen == [0, 1, 2]


def test_divergence_detector_trips():
    cfg = _tiny_config(loss_ceiling=1e-12, loss_patience=3)
    with pytest.raises(TrainingDiverged):
        train(_tiny_env_factory(), cfg)


def test_write_training_log(tmp_path):
    _, logs = train(_tiny_env_factory(), _tiny_config())
    path = tmp_path / "log.csv"
    write_training_log(logs, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "episode,mean_reward,mean_loss,epsilon"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == logs[0].mean_reward


def test_checkpoint_round_trip(tmp_path):
    net = QNetwork(6, ACTIONS, ctx_hidden=(8,), ctx_out=4, state_hidden=(16,), rng=np.random.default_rng(2))
    path = tmp_path / "net.txt"
    save_checkpoint(net, path)
    back = load_checkpoint(path)
    assert back.actions == net.actions
    assert back.phi_max == net.phi_max
    s = State(np.linspace(-1, 1, 6), 7.5, 22.0)
    np.testing.assert_array_equal(back.forward_state(s), net.forward_state(s))
    # a fresh save of the loaded network is byte-identical
    path2 = tmp_path / "net2.txt"
    save_checkpoint(back, path2)
    assert path2.read_bytes() == path.read_bytes()


def test_checkpoint_rejects_corruption(tmp_path):
    net = QNetwork(3, ACTIONS, ctx_hidden=(4,), ctx_out=2, state_hidden=(8,), rng=np.random.default_rng(0))
    path = tmp_path / "net.txt"
    save_checkpoint(net, path)
    text = path.read_text()
    bad = tmp_path / "bad.txt"
    bad.write_text("not-a-checkpoint v9\n" + text.split("\n", 1)[1])
    with pytest.raises(ValueError):
        load_checkpoint(bad)
    bad.write_text(text[: len(text) // 2])
    with pytest.raises(ValueError):
        load_checkpoint(bad)


@pytest.mark.parametrize("lineno, what, cell", [
    (5, "phi_max", "inf"),
    (6, "q_norm", "nan"),
    (9, "weights", "nan"),
    (12, "biases", "-inf"),
])
def test_checkpoint_rejects_non_finite_values(tmp_path, lineno, what, cell):
    net = QNetwork(3, ACTIONS, ctx_hidden=(4,), ctx_out=2, state_hidden=(8,), rng=np.random.default_rng(0))
    path = tmp_path / "net.txt"
    save_checkpoint(net, path)
    lines = path.read_text().split("\n")
    cells = lines[lineno - 1].split(" ")
    cells[-1] = cell
    lines[lineno - 1] = " ".join(cells)
    path.write_text("\n".join(lines))
    with pytest.raises(ValueError, match=f"line {lineno}: {what} must be finite"):
        load_checkpoint(path)


def _shares_theta(net):
    views = net.parameters() + [net.ctx.theta, net.head.theta]
    return all(np.shares_memory(p, net.theta) for p in views)


def test_every_weight_and_bias_is_a_view_into_theta(tmp_path):
    net = QNetwork(6, ACTIONS, ctx_hidden=(8,), ctx_out=4, state_hidden=(16, 16),
                   rng=np.random.default_rng(2))
    # theta holds parameters() back to back: ctx then head, W row-major then b
    np.testing.assert_array_equal(net.theta, np.concatenate([p.ravel() for p in net.parameters()]))
    path = tmp_path / "net.txt"
    save_checkpoint(net, path)
    for other in (net, net.clone(), load_checkpoint(path)):
        assert _shares_theta(other)
        assert other.theta.flags.c_contiguous and other.grad.shape == other.theta.shape
        np.testing.assert_array_equal(other.theta, net.theta)
    clone = net.clone()
    assert not np.shares_memory(clone.theta, net.theta)
    clone.head.biases[-1][:] += 1.0
    assert clone.theta[-1] == net.theta[-1] + 1.0


def test_copy_from_checks_the_architecture():
    net = QNetwork(4, ACTIONS, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="architecture mismatch"):
        net.copy_from(QNetwork(4, ACTIONS, state_hidden=(64, 32)))


@pytest.mark.parametrize("seed", range(5))
def test_stacked_forward_equals_two_half_forwards(seed):
    # train_step prices current and next states in one 128-row online pass;
    # that is bit-exact only if a row's Q values do not depend on the others
    rng = np.random.default_rng(seed)
    net = QNetwork(16, ACTIONS, rng=rng)
    for p in net.parameters():
        p += rng.normal(0.0, 0.1, p.shape)
    features = rng.normal(size=(128, 16))
    phi = rng.uniform(0.1, 20.0, 128)
    q = rng.uniform(0.0, 80.0, 128)
    both = net.forward(features, phi, q)
    halves = [net.forward(features[s], phi[s], q[s]) for s in (slice(0, 64), slice(64, 128))]
    np.testing.assert_array_equal(both, np.concatenate(halves))


def test_failed_write_leaves_existing_output_intact(tmp_path):
    _, logs = train(_tiny_env_factory(), _tiny_config())
    path = tmp_path / "log.csv"
    write_training_log(logs, path)
    before = path.read_bytes()

    def failing_rows():
        yield logs[0]
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        write_training_log(failing_rows(), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["log.csv"]
