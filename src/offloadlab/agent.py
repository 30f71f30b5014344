"""Double-DQN agent over the offloading environment.

The Q-network is two dense stacks: a contextual encoder that compresses the
frame features into a short embedding, and a head that maps the embedding
plus the normalized channel/queue observations to one value per action.
Training follows the double estimator: the online network picks the argmax
for the next state, the slow-moving target network prices it.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .cost import Action
from .env import State
from .nn import MLP, Adam, param_count, sgd_step

CHECKPOINT_MAGIC = "offloadlab-qnet"
CHECKPOINT_VERSION = 1
# losses a TrainingDiverged message ends with
DIVERGED_LOSSES_SHOWN = 5


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True, slots=True)
class TrainConfig:
    gamma: float = 0.9
    lr: float = 1e-3
    batch_size: int = 64
    buffer_capacity: int = 100_000
    target_sync: int = 500
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay_steps: int = 50_000
    episodes: int = 6
    seed: int = 0
    ctx_hidden: tuple[int, ...] = (32,)
    ctx_out: int = 8
    state_hidden: tuple[int, ...] = (64, 64)
    phi_max_mbps: float = 20.0
    optimizer: str = "adam"
    loss_ceiling: float = 1000.0
    loss_patience: int = 200

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        for name in ("batch_size", "buffer_capacity", "target_sync", "eps_decay_steps",
                     "episodes", "ctx_out", "loss_patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.buffer_capacity < self.batch_size:
            raise ValueError("buffer_capacity must be at least batch_size")
        if not 0.0 <= self.eps_end <= self.eps_start <= 1.0:
            raise ValueError("need 0 <= eps_end <= eps_start <= 1")
        if self.phi_max_mbps <= 0 or self.loss_ceiling <= 0:
            raise ValueError("phi_max_mbps and loss_ceiling must be positive")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError("optimizer must be 'adam' or 'sgd'")
        if any(h < 1 for h in self.ctx_hidden) or any(h < 1 for h in self.state_hidden):
            raise ValueError("hidden sizes must be positive")
        object.__setattr__(self, "ctx_hidden", tuple(self.ctx_hidden))
        object.__setattr__(self, "state_hidden", tuple(self.state_hidden))


def epsilon_at(config: TrainConfig, step: int) -> float:
    if step >= config.eps_decay_steps:
        return config.eps_end
    frac = max(0.0, step / config.eps_decay_steps)
    return config.eps_start + (config.eps_end - config.eps_start) * frac


class QNetwork:
    def __init__(
        self,
        k: int,
        actions,
        ctx_hidden=(32,),
        ctx_out: int = 8,
        state_hidden=(64, 64),
        phi_max: float = 20.0,
        q_norm: float = 68.12,
        rng: np.random.Generator | None = None,
    ):
        if rng is None:
            rng = np.random.default_rng(0)
        actions = tuple(a if isinstance(a, Action) else Action(int(a)) for a in actions)
        if not actions:
            raise ValueError("need at least one action")
        if phi_max <= 0 or q_norm <= 0:
            raise ValueError("normalizers must be positive")
        self.k = int(k)
        self.actions = actions
        self.ctx_out = int(ctx_out)
        self.phi_max = float(phi_max)
        self.q_norm = float(q_norm)
        ctx_sizes = [self.k, *ctx_hidden, self.ctx_out]
        head_sizes = [self.ctx_out + 2, *state_hidden, len(actions)]
        # one flat parameter vector in ``parameters()`` order (ctx, then head)
        # and one gradient vector of the same layout; every layer is a view
        split = param_count(ctx_sizes)
        self.theta = np.empty(split + param_count(head_sizes))
        self.grad = np.zeros_like(self.theta)
        self.ctx = MLP(ctx_sizes, rng, out_relu=True,
                       theta=self.theta[:split], grad=self.grad[:split])
        self.head = MLP(head_sizes, rng, theta=self.theta[split:], grad=self.grad[split:])

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    def _stack(self, features, phi, q):
        f = np.atleast_2d(np.asarray(features, dtype=float))
        phi = np.atleast_1d(np.asarray(phi, dtype=float))
        q = np.atleast_1d(np.asarray(q, dtype=float))
        if f.shape[1] != self.k:
            raise ValueError(f"expected {self.k} features, got {f.shape[1]}")
        return f, phi / self.phi_max, q / self.q_norm

    def forward(self, features, phi, q) -> np.ndarray:
        """Action values, shape (batch, n_actions)."""
        f, nphi, nq = self._stack(features, phi, q)
        emb = self.ctx.forward(f)
        x = np.concatenate([emb, nphi[:, None], nq[:, None]], axis=1)
        return self.head.forward(x)

    def forward_state(self, state: State) -> np.ndarray:
        return self.forward(state.features, state.phi_obs, state.q_obs)[0]

    def forward_cache(self, features, phi, q):
        f, nphi, nq = self._stack(features, phi, q)
        emb, ctx_cache = self.ctx.forward_cache(f)
        x = np.concatenate([emb, nphi[:, None], nq[:, None]], axis=1)
        out, head_cache = self.head.forward_cache(x)
        return out, (ctx_cache, head_cache)

    def backward(self, cache, grad_out: np.ndarray) -> np.ndarray:
        """Parameter gradients, written into and returned as the flat ``grad``
        (the layout of ``theta``)."""
        ctx_cache, head_cache = cache
        _, _, gx = self.head.backward(head_cache, grad_out)
        self.ctx.backward(ctx_cache, gx[:, : self.ctx_out])
        return self.grad

    def parameters(self) -> list[np.ndarray]:
        return self.ctx.parameters() + self.head.parameters()

    def clone(self) -> "QNetwork":
        other = QNetwork(
            self.k,
            self.actions,
            ctx_hidden=self.ctx.sizes[1:-1],
            ctx_out=self.ctx_out,
            state_hidden=self.head.sizes[1:-1],
            phi_max=self.phi_max,
            q_norm=self.q_norm,
        )
        other.copy_from(self)
        return other

    def copy_from(self, other: "QNetwork") -> None:
        if (self.ctx.sizes, self.head.sizes) != (other.ctx.sizes, other.head.sizes):
            raise ValueError("architecture mismatch")
        self.theta[...] = other.theta


def act(net: QNetwork, state: State, epsilon: float, rng: np.random.Generator | None = None) -> int:
    """Epsilon-greedy action index. Greedy ties resolve to the smallest
    offload count because the action set is ordered by it."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    if epsilon > 0.0:
        if rng is None:
            raise ValueError("exploration requires an rng")
        if rng.random() < epsilon:
            return int(rng.integers(net.n_actions))
    return int(np.argmax(net.forward_state(state)))


class ReplayBuffer:
    """Fixed-capacity ring buffer over transitions."""

    def __init__(self, capacity: int, k: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.k = k
        self._n = 0
        self._head = 0
        self.features = np.zeros((capacity, k))
        self.phi = np.zeros(capacity)
        self.q = np.zeros(capacity)
        self.action = np.zeros(capacity, dtype=np.int64)
        self.reward = np.zeros(capacity)
        self.next_features = np.zeros((capacity, k))
        self.next_phi = np.zeros(capacity)
        self.next_q = np.zeros(capacity)
        self.terminal = np.zeros(capacity)

    def __len__(self) -> int:
        return self._n

    def push(self, state: State, action_index: int, reward: float,
             next_state: State, terminal: bool) -> None:
        i = self._head
        self.features[i] = state.features
        self.phi[i] = state.phi_obs
        self.q[i] = state.q_obs
        self.action[i] = action_index
        self.reward[i] = reward
        self.next_features[i] = next_state.features
        self.next_phi[i] = next_state.phi_obs
        self.next_q[i] = next_state.q_obs
        self.terminal[i] = 1.0 if terminal else 0.0
        self._head = (i + 1) % self.capacity
        self._n = min(self._n + 1, self.capacity)

    def sample(self, rng: np.random.Generator, batch_size: int) -> dict[str, np.ndarray]:
        if self._n < batch_size:
            raise ValueError(f"buffer holds {self._n} transitions, need {batch_size}")
        idx = rng.integers(self._n, size=batch_size)
        return {
            "features": self.features[idx],
            "phi": self.phi[idx],
            "q": self.q[idx],
            "action": self.action[idx],
            "reward": self.reward[idx],
            "next_features": self.next_features[idx],
            "next_phi": self.next_phi[idx],
            "next_q": self.next_q[idx],
            "terminal": self.terminal[idx],
        }


def _first_rows(cache, n: int):
    """The ``QNetwork.forward_cache`` cache of the first ``n`` batch rows, as views."""
    return tuple(
        tuple([a[:n] for a in arrays] for arrays in mlp_cache) for mlp_cache in cache
    )


def train_step(online: QNetwork, target: QNetwork, batch: dict, lr: float,
               gamma: float, optimizer: Adam | None = None) -> float:
    """One gradient step on the mean squared TD error of the taken actions.

    Plain gradient descent at ``lr`` unless an optimizer instance is given.
    Returns the pre-step loss.
    """
    n = len(batch["action"])
    rows = np.arange(n)
    # one online pass over the current states stacked on the next states
    q_online, cache = online.forward_cache(
        *(np.concatenate([batch[key], batch["next_" + key]]) for key in ("features", "phi", "q"))
    )
    q_pred, q_next_online = q_online[:n], q_online[n:]
    q_next_target = target.forward(batch["next_features"], batch["next_phi"], batch["next_q"])
    best = np.argmax(q_next_online, axis=1)
    targets = batch["reward"] + gamma * (1.0 - batch["terminal"]) * q_next_target[rows, best]
    taken = q_pred[rows, batch["action"]]
    diff = taken - targets
    loss = float(np.mean(diff * diff))
    grad_out = np.zeros_like(q_pred)
    grad_out[rows, batch["action"]] = 2.0 * diff / len(rows)
    # backpropagate through the current-state rows of the cache only
    grad = online.backward(_first_rows(cache, n), grad_out)
    if optimizer is not None:
        optimizer.step([online.theta], [grad])
    else:
        sgd_step([online.theta], [grad], lr)
    return loss


@dataclass(slots=True)
class EpisodeLog:
    episode: int
    mean_reward: float
    mean_loss: float
    epsilon: float


def train(env_factory, config: TrainConfig) -> tuple[QNetwork, list[EpisodeLog]]:
    """Run ``config.episodes`` episodes, one per ``env_factory(episode)`` call.

    The factory may return the same environment every time or rotate system
    conditions across episodes; train() only resets and steps it. Aborts with
    TrainingDiverged when the loss is non-finite or stays above
    ``loss_ceiling`` for ``loss_patience`` consecutive steps.
    """
    root = np.random.SeedSequence(config.seed)
    init_ss, act_ss, sample_ss, env_ss = root.spawn(4)
    env = env_factory(0)
    net = QNetwork(
        env.trace.k,
        env.params.action_set,
        ctx_hidden=config.ctx_hidden,
        ctx_out=config.ctx_out,
        state_hidden=config.state_hidden,
        phi_max=config.phi_max_mbps,
        q_norm=env.params.l_th_ms,
        rng=np.random.default_rng(init_ss),
    )
    target = net.clone()
    optimizer = Adam(config.lr) if config.optimizer == "adam" else None
    buffer = ReplayBuffer(config.buffer_capacity, net.k)
    act_rng = np.random.default_rng(act_ss)
    sample_rng = np.random.default_rng(sample_ss)
    env_seeds = np.random.default_rng(env_ss).integers(2**31, size=config.episodes)
    logs: list[EpisodeLog] = []
    step = 0
    high_loss_run = 0
    recent_losses: deque[float] = deque(maxlen=DIVERGED_LOSSES_SHOWN)
    for episode in range(config.episodes):
        if episode > 0:
            env = env_factory(episode)
        state = env.reset(seed=int(env_seeds[episode]))
        rewards: list[float] = []
        losses: list[float] = []
        while not env.done:
            a_idx = act(net, state, epsilon_at(config, step), act_rng)
            result = env.step(net.actions[a_idx])
            buffer.push(state, a_idx, result.reward, result.next_state, env.done)
            rewards.append(result.reward)
            if len(buffer) >= config.batch_size:
                loss = train_step(net, target, buffer.sample(sample_rng, config.batch_size),
                                  config.lr, config.gamma, optimizer)
                losses.append(loss)
                recent_losses.append(loss)
                if not math.isfinite(loss):
                    raise TrainingDiverged(
                        f"non-finite loss at step {step} (episode {episode}); "
                        f"last losses {list(recent_losses)!r}"
                    )
                if loss > config.loss_ceiling:
                    high_loss_run += 1
                    if high_loss_run >= config.loss_patience:
                        raise TrainingDiverged(
                            f"loss above {config.loss_ceiling} for "
                            f"{config.loss_patience} consecutive steps at step {step}; "
                            f"last losses {list(recent_losses)!r}"
                        )
                else:
                    high_loss_run = 0
            step += 1
            if step % config.target_sync == 0:
                target.copy_from(net)
            state = result.next_state
        logs.append(
            EpisodeLog(
                episode=episode,
                mean_reward=float(np.mean(rewards)),
                mean_loss=float(np.mean(losses)) if losses else float("nan"),
                epsilon=epsilon_at(config, step),
            )
        )
    return net, logs


def _write_atomic(path, write) -> None:
    """Run ``write(fh)`` on a temp file beside ``path``, then move it onto
    ``path``: a failed write leaves any existing file untouched."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_training_log(logs, path) -> None:
    def write(fh):
        fh.write("episode,mean_reward,mean_loss,epsilon\n")
        for row in logs:
            fh.write(f"{row.episode},{row.mean_reward!r},{row.mean_loss!r},{row.epsilon!r}\n")

    _write_atomic(path, write)


def save_checkpoint(net: QNetwork, path) -> None:
    """Versioned text checkpoint: header, then row-major weights per layer."""
    lines = [
        f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}",
        f"k {net.k}",
        f"ctx_out {net.ctx_out}",
        "actions " + ",".join(str(a.i) for a in net.actions),
        f"phi_max {net.phi_max!r}",
        f"q_norm {net.q_norm!r}",
    ]
    for name, mlp in (("ctx", net.ctx), ("head", net.head)):
        for li, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
            lines.append(f"layer {name} {li} {w.shape[0]} {w.shape[1]}")
            for row in w:
                lines.append(" ".join(repr(float(v)) for v in row))
            lines.append(" ".join(repr(float(v)) for v in b))
    lines.append("end")
    _write_atomic(path, lambda fh: fh.write("\n".join(lines) + "\n"))


def _cells(path, lineno: int, what: str, cells) -> np.ndarray:
    values = []
    for cell in cells:
        try:
            values.append(float(cell))
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: {what} must be numbers, got {cell!r}") from None
    return np.array(values)


def _marker_int(path, lineno: int, field: str, cell: str) -> int:
    try:
        value = int(cell)
    except ValueError:
        raise ValueError(
            f"{path}: line {lineno}: layer {field} must be an integer, got {cell!r}"
        ) from None
    if field != "index" and value < 1:
        raise ValueError(f"{path}: line {lineno}: layer {field} must be positive, got {value}")
    return value


def load_checkpoint(path) -> QNetwork:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines or lines[0] != f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}":
        raise ValueError(f"{path}: not a {CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION} checkpoint")
    header: dict[str, str] = {}
    header_line: dict[str, int] = {}
    pos = 1
    while pos < len(lines) and not lines[pos].startswith("layer "):
        key, _, value = lines[pos].partition(" ")
        header[key] = value
        header_line[key] = pos + 1
        pos += 1
    try:
        k = int(header["k"])
        ctx_out = int(header["ctx_out"])
        actions = tuple(Action(int(s)) for s in header["actions"].split(","))
        phi_max = float(header["phi_max"])
        q_norm = float(header["q_norm"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: malformed checkpoint header: {exc}") from None
    for key, value in (("phi_max", phi_max), ("q_norm", q_norm)):
        if not math.isfinite(value):
            raise ValueError(f"{path}: line {header_line[key]}: {key} must be finite")
    layers: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {"ctx": [], "head": []}
    while pos < len(lines) and lines[pos] != "end":
        parts = lines[pos].split()
        if len(parts) != 5 or parts[0] != "layer" or parts[1] not in layers:
            raise ValueError(f"{path}: line {pos + 1}: expected a layer marker")
        name = parts[1]
        li, rows, cols = (_marker_int(path, pos + 1, field, cell)
                          for field, cell in zip(("index", "rows", "cols"), parts[2:]))
        if li != len(layers[name]):
            raise ValueError(f"{path}: line {pos + 1}: layer {name} {li} out of order")
        pos += 1
        if pos + rows >= len(lines):
            raise ValueError(f"{path}: truncated layer {name} {li}")
        w = np.empty((rows, cols))
        for r in range(rows):
            vals = lines[pos + r].split()
            if len(vals) != cols:
                raise ValueError(
                    f"{path}: line {pos + r + 1}: expected {cols} weights, got {len(vals)}"
                )
            w[r] = _cells(path, pos + r + 1, "weights", vals)
            if not np.isfinite(w[r]).all():
                raise ValueError(f"{path}: line {pos + r + 1}: weights must be finite")
        pos += rows
        bvals = lines[pos].split()
        if len(bvals) != rows:
            raise ValueError(f"{path}: line {pos + 1}: expected {rows} biases, got {len(bvals)}")
        b = _cells(path, pos + 1, "biases", bvals)
        if not np.isfinite(b).all():
            raise ValueError(f"{path}: line {pos + 1}: biases must be finite")
        pos += 1
        layers[name].append((w, b))
    if pos >= len(lines) or lines[pos] != "end":
        raise ValueError(f"{path}: missing end marker")
    if not layers["ctx"] or not layers["head"]:
        raise ValueError(f"{path}: checkpoint lacks ctx or head layers")
    ctx_sizes = [layers["ctx"][0][0].shape[1]] + [w.shape[0] for w, _ in layers["ctx"]]
    head_sizes = [layers["head"][0][0].shape[1]] + [w.shape[0] for w, _ in layers["head"]]
    if ctx_sizes[0] != k or ctx_sizes[-1] != ctx_out:
        raise ValueError(f"{path}: contextual encoder shape disagrees with header")
    if head_sizes[0] != ctx_out + 2 or head_sizes[-1] != len(actions):
        raise ValueError(f"{path}: head shape disagrees with header")
    for name in ("ctx", "head"):
        for i in range(1, len(layers[name])):
            if layers[name][i][0].shape[1] != layers[name][i - 1][0].shape[0]:
                raise ValueError(f"{path}: layer {name} {i} input disagrees with previous output")
    net = QNetwork(
        k,
        actions,
        ctx_hidden=tuple(ctx_sizes[1:-1]),
        ctx_out=ctx_out,
        state_hidden=tuple(head_sizes[1:-1]),
        phi_max=phi_max,
        q_norm=q_norm,
    )
    for mlp, stored in ((net.ctx, layers["ctx"]), (net.head, layers["head"])):
        for (w, b), (sw, sb) in zip(zip(mlp.weights, mlp.biases), stored):
            w[...] = sw
            b[...] = sb
    return net
