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

import numpy as np

from .channel import ChannelModel, capacities_from_uniform
from .cost import Action, CostBreakdown, SystemParams, cost_table, total_cost
from .queueing import QueueModel, delays_from_uniform
from .scenario import ScenarioTrace, realized_map

REWARD_BASES = ("observed", "realized")
CASE_UNCERTAINTY = "uncertainty"
CASE_DEADLINE = "deadline"
CASE_ENERGY = "energy"
# the energy branch counts an action as minimal within these tolerances
RANK_REL_TOL = 1e-12
RANK_ABS_TOL = 1e-15
# frames per replay block: bounds the per-block tables and the batched drl
# forward, so replay memory stays flat in the trace length
BLOCK_FRAMES = 512


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
    columns: np.ndarray,
    latency_ms: np.ndarray,
    rank_latency_ms: np.ndarray,
    rank_energy_j: np.ndarray,
) -> np.ndarray:
    """``reward_with_case`` rewards of many steps at once, value for value.

    Row ``t`` is one step: ``columns[t]`` is the chosen action's column in
    ``params.action_set``, ``latency_ms`` the ``cost_table`` of the realized
    draw, and the ``rank_`` tables those of the draw the energy branch ranks
    against.
    """
    p = reward_params.p_penalty
    n = params.n_pipelines
    rows = np.arange(len(columns))
    uncertainty = np.array([0.0 if a.i == 0 else p / (n - a.i) for a in params.action_set])
    feasible = rank_latency_ms <= params.l_th_ms
    e = rank_energy_j[rows, columns]
    e_min = np.where(feasible, rank_energy_j, np.inf).min(axis=1)
    # math.isclose(e, e_min, ...) term by term
    diff = np.abs(e_min - e)
    close = (e == e_min) | (np.isfinite(e) & np.isfinite(e_min) & (
        (diff <= np.abs(RANK_REL_TOL * e_min)) | (diff <= np.abs(RANK_REL_TOL * e))
        | (diff <= RANK_ABS_TOL)))
    minimal = feasible.any(axis=1) & close
    missed = latency_ms[rows, columns] > params.l_th_ms
    return np.where(map_full < params.map_th, uncertainty[columns],
                    np.where(missed | ~minimal, p, 0.0))


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


class OffloadEnv:
    """Sequential decision process over one trace.

    The episode walks the rows of ``replay_blocks``: frame ``t`` observes row
    ``t`` and realizes row ``t + 1``. ``reward_basis`` selects the row against
    which the energy branch ranks actions: ``observed`` uses the probed
    (previous-frame) draw the policy decided on, ``realized`` uses the fresh
    draw the action experienced. The deadline branch always judges the
    realized execution.
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
        # offset of the ranked row from the frame's observed row
        self._rank_offset = 1 if reward_basis == "realized" else 0
        self._blocks = None
        # the current block of replay_blocks, as lists
        self._t0, self._phi, self._q, self._latency, self._energy = 0, [], [], [], []
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
        t0, phi, q, latency, energy = next(self._blocks)
        self._t0 = t0
        self._phi, self._q = phi.tolist(), q.tolist()
        self._latency, self._energy = latency.tolist(), energy.tolist()

    def reset(self, seed: int = 0) -> State:
        self._blocks = replay_blocks(self.trace, self.channel, self.queue, self.params, seed)
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
        if row == len(self._phi) - 1:  # the block's last row opens the next block
            self._next_block()
            row = 0
        t = self._t
        phi, q = self._phi[row + 1], self._q[row + 1]
        cost = total_cost(self.params, action, phi, phi, q)
        deadline_met = cost.l_total_ms <= self.params.l_th_ms
        r_map = realized_map(self.trace, t, action, deadline_met, self.params.offload_order)
        rank = row + self._rank_offset
        latency, energy = self._latency[rank], self._energy[rank]
        reward, case = reward_with_case(
            self.params,
            self.reward_params,
            self.trace.map_full[t],
            action,
            cost,
            [e for l, e in zip(latency, energy) if l <= self.params.l_th_ms],
            energy[self.params.action_set.index(action)],
        )
        self._t = t + 1
        self._done = self._t >= len(self.trace)
        next_state = State(self.trace.features[min(self._t, len(self.trace) - 1)], phi, q)
        self._state = next_state
        return StepResult(
            next_state=next_state,
            reward=reward,
            cost=cost,
            realized_map=r_map,
            deadline_met=deadline_met,
            frame_index=t,
            action=action,
            reward_case=case,
        )
