"""Frame-by-frame offloading decision process over a scenario trace.

The state exposes the current frame's features plus the channel capacity and
queue delay observed by probing the server on the previous frame; the draw
that the chosen action actually experiences is fresh. The reward is piecewise:

* uncertainty: on frames whose full-fusion quality falls below the
  robustness threshold, any offload is penalized in proportion to how much
  of the stack left the vehicle; staying local is free.
* deadline: on confident frames, missing the latency deadline costs the
  full penalty.
* energy: otherwise the action must be the energy-minimal deadline-feasible
  choice to earn zero; anything else costs the full penalty.

Exactly one branch fires per step; StepResult.reward_case names it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .channel import ChannelModel, capacities_from_uniform
from .cost import Action, CostBreakdown, SystemParams, cost_table, total_cost
from .queueing import QueueModel, delays_from_uniform
from .scenario import ScenarioTrace

REWARD_BASES = ("observed", "realized")
CASE_UNCERTAINTY = "uncertainty"
CASE_DEADLINE = "deadline"
CASE_ENERGY = "energy"
# the energy branch counts an action as minimal within these tolerances
RANK_REL_TOL = 1e-12
RANK_ABS_TOL = 1e-15
# frames per replay block: bounds the per-block draw, cost and outcome
# tables, so replay memory stays flat in the trace length; each block pays a
# fixed cost of some 80 numpy calls, so larger blocks replay faster (the drl
# forward runs in slices of policies.FORWARD_ROWS whatever this size)
BLOCK_FRAMES = 2048


@dataclass(frozen=True, slots=True)
class State:
    features: np.ndarray
    phi_obs: float
    q_obs: float


@dataclass(frozen=True, slots=True)
class RewardParams:
    p_penalty: float = -2.0

    def __post_init__(self):
        if not self.p_penalty < 0:
            raise ValueError("p_penalty must be negative")


@dataclass(slots=True)
class StepResult:
    next_state: State
    reward: float
    cost: CostBreakdown
    realized_map: float
    deadline_met: bool
    frame_index: int
    action: Action
    reward_case: str


def reward_with_case(
    params: SystemParams,
    reward_params: RewardParams,
    map_full: float,
    action: Action,
    cost: CostBreakdown,
    feasible_energies_j,
    energy_for_rank_j: float | None = None,
) -> tuple[float, str]:
    """Reward plus the name of the branch that produced it.

    ``feasible_energies_j`` holds the total energy of every deadline-feasible
    action at the draw the ranking is judged against; ``energy_for_rank_j``
    is the chosen action's energy at that same draw (defaults to the realized
    ``cost.e_total_j``).
    """
    p = reward_params.p_penalty
    if map_full < params.map_th:
        if action.i == 0:
            return 0.0, CASE_UNCERTAINTY
        return p / (params.n_pipelines - action.i), CASE_UNCERTAINTY
    if cost.l_total_ms > params.l_th_ms:
        return p, CASE_DEADLINE
    energies = list(feasible_energies_j)
    e = cost.e_total_j if energy_for_rank_j is None else energy_for_rank_j
    if energies and math.isclose(e, min(energies), rel_tol=RANK_REL_TOL, abs_tol=RANK_ABS_TOL):
        return 0.0, CASE_ENERGY
    return p, CASE_ENERGY


def reward_table(
    params: SystemParams,
    reward_params: RewardParams,
    map_full: np.ndarray,
    latency_ms: np.ndarray,
    rank_latency_ms: np.ndarray,
    rank_energy_j: np.ndarray,
) -> np.ndarray:
    """``reward_with_case`` rewards of every action on many steps, value for value.

    Row ``t`` is one step and column ``a`` the action ``params.action_set[a]``:
    ``latency_ms`` is the ``cost_table`` of the realized draw, and the
    ``rank_`` tables are those of the draw the energy branch ranks against.
    """
    p = reward_params.p_penalty
    n = params.n_pipelines
    uncertainty = np.array([0.0 if a.i == 0 else p / (n - a.i) for a in params.action_set])
    e = rank_energy_j
    # a fold over the few columns: min(axis=1) costs several times more
    e_min = reduce(np.minimum, np.where(rank_latency_ms <= params.l_th_ms, e, np.inf).T)[:, None]
    # not math.isclose(e, e_min, ...): cost_table energies are finite and
    # non-negative, and scaling by a positive tolerance is monotone, so one
    # max stands for its three comparisons; e_min is inf on a row where no
    # action meets the deadline
    far = np.abs(e - e_min) > np.maximum(RANK_REL_TOL * np.maximum(e, e_min), RANK_ABS_TOL)
    miss = (latency_ms > params.l_th_ms) | far | np.isinf(e_min)
    return np.where(map_full[:, None] < params.map_th, uncertainty, np.where(miss, p, 0.0))


def check_replay(trace: ScenarioTrace, params: SystemParams, reward_basis: str) -> None:
    """Reject a trace, action set or reward basis that no replay can run on."""
    if len(trace) == 0:
        raise ValueError("trace is empty")
    if reward_basis not in REWARD_BASES:
        raise ValueError(f"reward_basis must be one of {REWARD_BASES}")
    for action in params.action_set:
        if action.i:
            try:
                trace.partial_column(action.i, params.offload_order)
            except KeyError as exc:
                raise ValueError(f"{exc.args[0]}, needed by {action.name}") from None


def replay_blocks(trace: ScenarioTrace, channel: ChannelModel, queue: QueueModel,
                  params: SystemParams, seed: int):
    """The channel and queue draws of one replay of ``trace``, priced block by block.

    Yields ``(t0, phi, q, latency_ms, energy_j)`` for each block of up to
    ``BLOCK_FRAMES`` frames starting at frame ``t0``. Row ``r`` of a block is
    the draw frame ``t0 + r`` observes (the probe it decides on) and the draw
    frame ``t0 + r - 1`` realizes, so a block of ``m`` frames has ``m + 1``
    rows and its first row is the previous block's last. ``latency_ms`` and
    ``energy_j`` are the ``cost_table`` of the rows.

    The stream is that of alternating ``sample_capacity`` / ``sample_delay``
    calls on ``default_rng(seed)``, value for value: the reset probe takes
    ``rng.random(2)`` and each block one ``rng.random(2m)``, whose even slots
    give capacities through ``1 - u`` and whose odd slots give queue delays.
    """
    rng = np.random.default_rng(seed)
    u = rng.random(2)
    for t0 in range(0, len(trace), BLOCK_FRAMES):
        m = min(BLOCK_FRAMES, len(trace) - t0)
        u = np.concatenate([u[-2:], rng.random(2 * m)])
        phi = capacities_from_uniform(channel, 1.0 - u[0::2])
        q = delays_from_uniform(queue, u[1::2])
        yield t0, phi, q, *cost_table(params, phi, q)


def replay_outcomes(trace: ScenarioTrace, channel: ChannelModel, queue: QueueModel,
                    params: SystemParams, reward_params: RewardParams, reward_basis: str,
                    seed: int):
    """Each block of ``replay_blocks`` with every action's outcome on each frame.

    Yields ``(t0, phi, q, latency_ms, energy_j, outcomes)``, where
    ``outcomes`` holds four ``(m, A)`` tables, one row per frame and one
    column per action of the action set: deadline met, realized fusion
    quality, realized energy and reward. No action changes the next frame or
    draw, so every outcome is fixed before a policy acts. Frame ``t0 + r``
    realizes row ``r + 1``, and a late offload gets the reduced fusion of the
    pipelines that stayed local. The energy branch ranks actions on row
    ``r``, the probe the policy decided on, under the ``observed`` basis, and
    on row ``r + 1`` under ``realized``.
    """
    # each action's realized quality when it misses the deadline
    late_map = np.column_stack([
        trace.map_partial[:, trace.partial_column(a.i, params.offload_order)] if a.i
        else trace.map_full for a in params.action_set])
    rank = 1 if reward_basis == "realized" else 0
    for t0, phi, q, latency, energy in replay_blocks(trace, channel, queue, params, seed):
        t1 = t0 + len(phi) - 1
        map_full = trace.map_full[t0:t1]
        met = latency[1:] <= params.l_th_ms
        got = np.where(met, map_full[:, None], late_map[t0:t1])
        ranked = slice(rank, rank + t1 - t0)
        reward = reward_table(params, reward_params, map_full, latency[1:],
                              latency[ranked], energy[ranked])
        yield t0, phi, q, latency, energy, (met, got, energy[1:], reward)


class OffloadEnv:
    """Sequential decision process over one trace.

    Frame ``t`` observes row ``t`` of ``replay_blocks`` and realizes row
    ``t + 1``; ``step`` reads the chosen action's cell of the
    ``replay_outcomes`` tables (see there for ``reward_basis``).
    """

    def __init__(
        self,
        trace: ScenarioTrace,
        channel: ChannelModel,
        queue: QueueModel,
        params: SystemParams,
        reward_params: RewardParams | None = None,
        reward_basis: str = "observed",
    ):
        check_replay(trace, params, reward_basis)
        self.trace = trace
        self.channel = channel
        self.queue = queue
        self.params = params
        self.reward_params = reward_params if reward_params is not None else RewardParams()
        self.reward_basis = reward_basis
        self._blocks = None
        # the current block of replay_outcomes: its draws and outcome tables as lists
        self._t0, self._phi, self._q = 0, [], []
        self._met, self._map, self._reward = [], [], []
        self._state: State | None = None
        self._t = 0
        self._done = True

    @property
    def frame_index(self) -> int:
        return self._t

    @property
    def done(self) -> bool:
        return self._done

    @property
    def state(self) -> State:
        if self._state is None:
            raise RuntimeError("environment not reset")
        return self._state

    def _next_block(self) -> None:
        t0, phi, q, _, _, (met, got, _, reward) = next(self._blocks)
        self._t0 = t0
        self._phi, self._q = phi.tolist(), q.tolist()
        self._met, self._map, self._reward = met.tolist(), got.tolist(), reward.tolist()

    def reset(self, seed: int = 0) -> State:
        self._blocks = replay_outcomes(self.trace, self.channel, self.queue, self.params,
                                       self.reward_params, self.reward_basis, seed)
        self._next_block()
        self._t = 0
        self._done = False
        self._state = State(self.trace.features[0], self._phi[0], self._q[0])
        return self._state

    def step(self, action: Action) -> StepResult:
        if self._done:
            raise RuntimeError("episode finished or not started; call reset()")
        if action not in self.params.action_set:
            raise ValueError(f"{action.name} is not in the configured action set")
        row = self._t - self._t0
        if row == len(self._reward):  # the block's frames are used up
            self._next_block()
            row = 0
        t = self._t
        col = self.params.action_set.index(action)
        phi, q = self._phi[row + 1], self._q[row + 1]
        deadline_met = self._met[row][col]
        if self.trace.map_full[t] < self.params.map_th:
            case = CASE_UNCERTAINTY
        else:
            case = CASE_ENERGY if deadline_met else CASE_DEADLINE
        self._t = t + 1
        self._done = self._t >= len(self.trace)
        next_state = State(self.trace.features[min(self._t, len(self.trace) - 1)], phi, q)
        self._state = next_state
        return StepResult(
            next_state=next_state,
            reward=self._reward[row][col],
            cost=total_cost(self.params, action, phi, phi, q),
            realized_map=self._map[row][col],
            deadline_met=deadline_met,
            frame_index=t,
            action=action,
            reward_case=case,
        )
