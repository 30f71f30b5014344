"""Decision policies compared in the laboratory.

Every policy sees the same observations the agent would (frame features,
probed channel capacity, probed queue delay); the oracle additionally reads
the current frame's full-fusion quality, which no runtime policy could.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agent import QNetwork, act
from .cost import Action, SystemParams, cost_table, min_energy_columns, min_energy_feasible
from .env import State

TAG_LOCAL = "local_fixed"
TAG_ENERGY = "energy_min"
TAG_OVERRIDE = "robustness_override"
TAG_GREEDY = "q_greedy"


@dataclass(frozen=True, slots=True)
class PolicyDecision:
    action: Action
    rationale_tag: str


@dataclass(frozen=True, slots=True, eq=False)
class ObservationBlock:
    """What a policy observes on consecutive frames of one replay.

    Row ``t`` is one frame: its ``features[t]`` and ``map_full[t]`` (slices
    of the trace's arrays) with the probed draw ``phi_obs[t]``, ``q_obs[t]``;
    ``latency_ms`` and ``energy_j`` are the ``cost_table`` of those draws
    under ``params``, the replay's system parameters.
    """

    features: np.ndarray
    phi_obs: np.ndarray
    q_obs: np.ndarray
    map_full: np.ndarray
    params: SystemParams
    latency_ms: np.ndarray
    energy_j: np.ndarray

    def __len__(self) -> int:
        return len(self.features)

    def costs(self, params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
        """The cost table of the probed draws under ``params``."""
        if params == self.params:
            return self.latency_ms, self.energy_j
        return cost_table(params, self.phi_obs, self.q_obs)

    def column(self, action: Action) -> int:
        """Column of ``action`` in the replay's action set; raises as OffloadEnv.step."""
        try:
            return self.params.action_set.index(action)
        except ValueError:
            raise ValueError(f"{action.name} is not in the configured action set") from None

    def columns(self, actions, index: np.ndarray) -> np.ndarray:
        """Replay columns of ``actions[index[t]]``; the first frame whose
        action is outside the replay's action set raises as OffloadEnv.step."""
        own = self.params.action_set
        lookup = np.array([own.index(a) if a in own else -1 for a in actions], dtype=np.intp)
        cols = lookup[index]
        bad = np.flatnonzero(cols < 0)
        if bad.size:
            self.column(actions[index[bad[0]]])  # raises
        return cols


class Policy:
    """Uniform callable interface used by the evaluation harness."""

    name = "policy"

    def decide(self, state: State, frame_map_full: float) -> PolicyDecision:
        raise NotImplementedError

    def decide_block(self, block: ObservationBlock) -> np.ndarray:
        """Action-set columns chosen on every frame of ``block``.

        This default calls ``decide`` frame by frame. An override computes
        the same columns as arrays.
        """
        phi, q, map_full = block.phi_obs.tolist(), block.q_obs.tolist(), block.map_full.tolist()
        out = np.empty(len(block), dtype=np.intp)
        for t, features in enumerate(block.features):
            decision = self.decide(State(features, phi[t], q[t]), map_full[t])
            out[t] = block.column(decision.action)
        return out


class LocalPolicy(Policy):
    """Never offload."""

    name = "local"

    def decide(self, state, frame_map_full):
        return PolicyDecision(Action(0), TAG_LOCAL)

    def decide_block(self, block):
        return np.zeros(len(block), dtype=np.intp)


class RAgnosticPolicy(Policy):
    """Energy-greedy under the probed draw, blind to frame difficulty."""

    name = "ragnostic"

    def __init__(self, params: SystemParams):
        self.params = params

    def decide(self, state, frame_map_full):
        action = min_energy_feasible(self.params, state.phi_obs, state.phi_obs, state.q_obs)
        return PolicyDecision(action, TAG_ENERGY)

    def decide_block(self, block):
        best = min_energy_columns(self.params, *block.costs(self.params))
        return block.columns(self.params.action_set, best)


class OraclePolicy(Policy):
    """Energy-greedy, except it keeps low-confidence frames on the vehicle."""

    name = "oracle"

    def __init__(self, params: SystemParams):
        self.params = params

    def decide(self, state, frame_map_full):
        if frame_map_full < self.params.map_th:
            return PolicyDecision(Action(0), TAG_OVERRIDE)
        action = min_energy_feasible(self.params, state.phi_obs, state.phi_obs, state.q_obs)
        return PolicyDecision(action, TAG_ENERGY)

    def decide_block(self, block):
        best = min_energy_columns(self.params, *block.costs(self.params))
        best[block.map_full < self.params.map_th] = 0  # column 0 is offload_0
        return block.columns(self.params.action_set, best)


# rows per batched drl forward: a slice's activations stay small whatever the
# replay block size, and while env.BLOCK_FRAMES is a multiple of it, the
# slices, and so the Q-value bits a batch size may move, do not depend on it
FORWARD_ROWS = 512

# a batched forward may round a value apart from the batch-1 forward of
# act() (by ~1e-14 on the bundled nets); frames whose two best values lie
# closer than this relative gap are re-decided at batch 1
NEAR_TIE_REL = 1e-9


class DrlPolicy(Policy):
    """Greedy over the learned action values."""

    name = "drl"

    def __init__(self, net: QNetwork):
        self.net = net

    def decide(self, state, frame_map_full):
        return PolicyDecision(self.net.actions[act(self.net, state, 0.0)], TAG_GREEDY)

    def decide_block(self, block):
        values = np.concatenate([
            self.net.forward(block.features[s], block.phi_obs[s], block.q_obs[s])
            for s in (slice(t, t + FORWARD_ROWS) for t in range(0, len(block), FORWARD_ROWS))])
        best = np.argmax(values, axis=1)
        if self.net.n_actions > 1:
            top = np.sort(values, axis=1)
            gap = top[:, -1] - top[:, -2]
            phi, q = block.phi_obs.tolist(), block.q_obs.tolist()
            for t in np.flatnonzero(gap <= NEAR_TIE_REL * np.maximum(1.0, np.abs(top[:, -1]))):
                state = State(block.features[t], phi[t], q[t])
                best[t] = act(self.net, state, 0.0)
        return block.columns(self.net.actions, best)


def make_policy(name: str, params: SystemParams, net: QNetwork | None = None) -> Policy:
    if name == "local":
        return LocalPolicy()
    if name == "ragnostic":
        return RAgnosticPolicy(params)
    if name == "oracle":
        return OraclePolicy(params)
    if name == "drl":
        if net is None:
            raise ValueError("drl policy needs a trained network")
        return DrlPolicy(net)
    raise ValueError(f"unknown policy {name!r}; expected local, ragnostic, oracle, or drl")
