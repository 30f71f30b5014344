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

from .channel import ChannelModel, sample_capacity
from .cost import Action, CostBreakdown, SystemParams, total_cost
from .queueing import QueueModel, sample_delay
from .scenario import ScenarioTrace, local_subset_key, realized_map

REWARD_BASES = ("observed", "realized")
CASE_UNCERTAINTY = "uncertainty"
CASE_DEADLINE = "deadline"
CASE_ENERGY = "energy"
# the energy branch counts an action as minimal within these tolerances
RANK_REL_TOL = 1e-12
RANK_ABS_TOL = 1e-15


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


def compute_reward(
    params: SystemParams,
    reward_params: RewardParams,
    map_full: float,
    action: Action,
    cost: CostBreakdown,
    feasible_energies_j,
    energy_for_rank_j: float | None = None,
) -> float:
    return reward_with_case(
        params, reward_params, map_full, action, cost, feasible_energies_j, energy_for_rank_j
    )[0]


def check_replay(trace: ScenarioTrace, params: SystemParams, reward_basis: str) -> None:
    """Reject a trace, action set or reward basis that no replay can run on."""
    if len(trace) == 0:
        raise ValueError("trace is empty")
    if reward_basis not in REWARD_BASES:
        raise ValueError(f"reward_basis must be one of {REWARD_BASES}")
    for action in params.action_set:
        if action.i == 0:
            continue
        key = local_subset_key(action.i, params.offload_order)
        if key not in trace.partial_keys:
            raise ValueError(
                f"trace lacks reduced-fusion column map_{key} needed by {action.name}"
            )


class OffloadEnv:
    """Sequential decision process over one trace.

    ``reward_basis`` selects the draw against which the energy branch ranks
    actions: ``observed`` uses the probed (previous-frame) values the policy
    decided on, ``realized`` uses the fresh draw the action experienced.
    The deadline branch always judges the realized execution.
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
        self._rng: np.random.Generator | None = None
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

    def reset(self, seed: int = 0) -> State:
        self._rng = np.random.default_rng(seed)
        self._t = 0
        self._done = False
        phi0 = sample_capacity(self.channel, self._rng)
        q0 = sample_delay(self.queue, self._rng)
        self._state = State(self.trace.frames[0].features, phi0, q0)
        return self._state

    def _feasible_energies(self, phi: float, q: float) -> dict[Action, CostBreakdown]:
        out = {}
        for action in self.params.action_set:
            cb = total_cost(self.params, action, phi, phi, q)
            if cb.l_total_ms <= self.params.l_th_ms:
                out[action] = cb
        return out

    def step(self, action: Action) -> StepResult:
        if self._done or self._rng is None:
            raise RuntimeError("episode finished or not started; call reset()")
        if action not in self.params.action_set:
            raise ValueError(f"{action.name} is not in the configured action set")
        frame = self.trace.frames[self._t]
        state = self._state
        phi = sample_capacity(self.channel, self._rng)
        q = sample_delay(self.queue, self._rng)
        cost = total_cost(self.params, action, phi, phi, q)
        deadline_met = cost.l_total_ms <= self.params.l_th_ms
        r_map = realized_map(frame, action, deadline_met, self.params.offload_order)
        if self.reward_basis == "realized":
            feasible = self._feasible_energies(phi, q)
            rank_e = cost.e_total_j
        else:
            feasible = self._feasible_energies(state.phi_obs, state.q_obs)
            rank_e = total_cost(self.params, action, state.phi_obs, state.phi_obs, state.q_obs).e_total_j
        reward, case = reward_with_case(
            self.params,
            self.reward_params,
            frame.map_full,
            action,
            cost,
            [cb.e_total_j for cb in feasible.values()],
            rank_e,
        )
        frame_index = self._t
        self._t += 1
        self._done = self._t >= len(self.trace)
        next_features = self.trace.frames[min(self._t, len(self.trace) - 1)].features
        next_state = State(next_features, phi, q)
        self._state = next_state
        return StepResult(
            next_state=next_state,
            reward=reward,
            cost=cost,
            realized_map=r_map,
            deadline_met=deadline_met,
            frame_index=frame_index,
            action=action,
            reward_case=case,
        )
