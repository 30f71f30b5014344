"""Evaluation metrics, parameter sweeps, and their CSV emission.

Column order in every table is part of the contract; percentages are
written with 2 decimals, energies and rewards with full precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .atomic import write_atomic
from .channel import ChannelModel
from .cost import Action, SystemParams, cost_table, total_cost
from .env import RewardParams, check_replay, replay_outcomes
from .policies import ObservationBlock, Policy
from .queueing import QueueModel
from .scenario import CHUNK_ROWS, ScenarioTrace


@dataclass(slots=True)
class ActionStats:
    count: int = 0
    freq_pct: float = 0.0
    amap_pct: float = float("nan")
    realized_amap_pct: float = float("nan")


@dataclass(slots=True)
class StepRecord:
    seed: int
    frame_index: int
    action: Action
    map_full: float
    realized_map: float
    e_total_j: float
    deadline_met: bool
    reward: float


@dataclass(slots=True)
class EvalReport:
    policy: str
    n_seeds: int
    n_frames: int
    actions: dict[str, ActionStats]
    risky_pct: float
    robust_pct: float
    total_energy_j: float
    energy_reduction_pct: float
    deadline_miss_pct: float
    mean_reward: float
    steps: list[StepRecord] = field(default_factory=list, repr=False)


def _resolve_seeds(seeds) -> list[int]:
    out = list(range(seeds)) if isinstance(seeds, int) else [int(s) for s in seeds]
    if not out:
        raise ValueError("need at least one seed")
    return out


def evaluate(
    policy: Policy,
    trace: ScenarioTrace,
    channel: ChannelModel,
    queue: QueueModel,
    params: SystemParams,
    reward_params: RewardParams | None = None,
    seeds=5,
    reward_basis: str = "observed",
    keep_steps: bool = False,
) -> EvalReport:
    """Replay the trace once per seed and pool the per-step outcomes.

    A replay is open loop: no action changes the next state, which is the
    next frame plus a fresh channel and queue draw. So each seed is computed
    over the blocks of ``env.replay_outcomes``, the draws and outcome tables
    that ``OffloadEnv.reset``/``step`` read for the same seed: the policy
    picks a column per frame with ``decide_block``, and each step's outcome
    is that column of the tables. Every step record and report field equals
    that of an ``OffloadEnv`` reset/step loop, so reports and sweeps written
    from them are byte-identical.

    ``total_energy_j`` is the per-replay total (pooled energy divided by the
    seed count); ``energy_reduction_pct`` compares it against the all-local
    policy, whose per-frame cost is draw-independent, and is ``nan`` when
    that policy spends no energy (``p_local_w = 0``).
    """
    seed_list = _resolve_seeds(seeds)
    check_replay(trace, params, reward_basis)
    reward_params = reward_params if reward_params is not None else RewardParams()
    n = len(trace)
    blocks = []  # per block: the chosen columns, then each outcome table's picks
    for seed in seed_list:
        for t0, phi, q, latency, energy, outcomes in replay_outcomes(
                trace, channel, queue, params, reward_params, reward_basis, seed):
            t1 = t0 + len(phi) - 1
            # row t of a block is frame t's observed draw
            cols = policy.decide_block(ObservationBlock(
                trace.features[t0:t1], phi[:-1], q[:-1], trace.map_full[t0:t1], params,
                latency[:-1], energy[:-1]))
            picked = cols + len(params.action_set) * np.arange(len(cols))
            blocks.append((cols, *(table.take(picked) for table in outcomes)))
    chosen, met, realized_maps, energies, rewards = map(np.concatenate, zip(*blocks))
    pooled_map = np.tile(trace.map_full, len(seed_list))
    counts = np.bincount(chosen, minlength=len(params.action_set)).tolist()
    actions: dict[str, ActionStats] = {}
    for col, action in enumerate(params.action_set):
        stats = ActionStats(count=counts[col], freq_pct=100.0 * counts[col] / len(chosen))
        if counts[col]:
            mask = chosen == col
            stats.amap_pct = 100.0 * float(np.mean(pooled_map[mask]))
            stats.realized_amap_pct = 100.0 * float(np.mean(realized_maps[mask]))
        actions[action.name] = stats
    offloading = chosen > 0  # column 0 is offload_0
    n_offloading = int(np.count_nonzero(offloading))
    if n_offloading:
        risky = int(np.count_nonzero(offloading & (pooled_map < params.map_th)))
        risky_pct = 100.0 * risky / n_offloading
    else:
        risky_pct = 0.0
    # builtin sum over Python floats: the left-to-right order of the step loop
    total_energy = sum(energies.tolist()) / len(seed_list)
    e_local_frame = total_cost(params, Action(0), 1.0, 1.0, 0.0).e_total_j
    e_local_total = e_local_frame * len(trace)
    steps = []
    if keep_steps:
        columns = zip(chosen.tolist(), pooled_map.tolist(), realized_maps.tolist(),
                      energies.tolist(), met.tolist(), rewards.tolist())
        steps = [
            StepRecord(seed=seed_list[i // n], frame_index=i % n,
                       action=params.action_set[col], map_full=full,
                       realized_map=r_map, e_total_j=e, deadline_met=on_time, reward=r)
            for i, (col, full, r_map, e, on_time, r) in enumerate(columns)
        ]
    return EvalReport(
        policy=policy.name,
        n_seeds=len(seed_list),
        n_frames=len(trace),
        actions=actions,
        risky_pct=risky_pct,
        robust_pct=100.0 - risky_pct,
        total_energy_j=total_energy,
        energy_reduction_pct=(100.0 * (1.0 - total_energy / e_local_total)
                              if e_local_total > 0 else math.nan),
        deadline_miss_pct=100.0 * int(np.count_nonzero(~met)) / len(chosen),
        mean_reward=float(np.mean(rewards)),
        steps=steps,
    )


def eval_report_header(params: SystemParams) -> list[str]:
    cols = ["policy", "n_seeds", "n_frames"]
    for action in params.action_set:
        cols.append(f"freq_pct_{action.name}")
    for action in params.action_set:
        cols.append(f"amap_pct_{action.name}")
    for action in params.action_set:
        cols.append(f"realized_amap_pct_{action.name}")
    cols.extend(
        [
            "risky_pct",
            "robust_pct",
            "total_energy_j",
            "energy_reduction_pct",
            "deadline_miss_pct",
            "mean_reward",
        ]
    )
    return cols


def _fmt_pct(v: float) -> str:
    return "nan" if math.isnan(v) else f"{v:.2f}"


def eval_report_row(report: EvalReport, params: SystemParams) -> list[str]:
    row = [report.policy, str(report.n_seeds), str(report.n_frames)]
    stats = [report.actions[a.name] for a in params.action_set]
    row.extend(_fmt_pct(s.freq_pct) for s in stats)
    row.extend(_fmt_pct(s.amap_pct) for s in stats)
    row.extend(_fmt_pct(s.realized_amap_pct) for s in stats)
    row.append(_fmt_pct(report.risky_pct))
    row.append(_fmt_pct(report.robust_pct))
    row.append(repr(report.total_energy_j))
    row.append(_fmt_pct(report.energy_reduction_pct))
    row.append(_fmt_pct(report.deadline_miss_pct))
    row.append(repr(report.mean_reward))
    return row


def write_eval_reports(reports, params: SystemParams, path) -> None:
    def write(fh):
        fh.write(",".join(eval_report_header(params)) + "\n")
        for report in reports:
            fh.write(",".join(eval_report_row(report, params)) + "\n")

    write_atomic(path, write)


@dataclass(frozen=True, slots=True)
class SweepTable:
    """A cost sweep as columns: row ``r`` is grid point ``swept_value[r]``.

    ``l_total_ms`` and ``e_total_j`` are ``(n, A)`` tables from ``cost_table``
    with one column per action of ``params.action_set``, in its order, and
    ``feasible`` marks the cells whose latency meets ``l_th_ms``.
    """

    swept_value: np.ndarray
    l_total_ms: np.ndarray
    e_total_j: np.ndarray
    feasible: np.ndarray

    def __len__(self) -> int:
        return len(self.swept_value)


def _sweep_table(params: SystemParams, values, phi, q) -> SweepTable:
    if len(values) == 0:
        raise ValueError("empty sweep grid")
    latency, energy = cost_table(params, phi, q)
    return SweepTable(values, latency, energy, latency <= params.l_th_ms)


def sweep_channel(params: SystemParams, phi_grid, fixed_q_ms: float) -> SweepTable:
    """Deterministic cost table over uplink capacities at a fixed queue delay."""
    values = np.array(list(phi_grid), dtype=float)
    return _sweep_table(params, values, values, fixed_q_ms)


def sweep_queue(params: SystemParams, q_grid, fixed_phi_mbps: float) -> SweepTable:
    """Deterministic cost table over queue delays at a fixed capacity."""
    values = np.array(list(q_grid), dtype=float)
    return _sweep_table(params, values, fixed_phi_mbps, values)


def sweep_header(params: SystemParams, swept_name: str) -> list[str]:
    cols = [swept_name]
    for action in params.action_set:
        cols.extend(
            (
                f"l_total_ms_{action.name}",
                f"e_total_j_{action.name}",
                f"feasible_{action.name}",
            )
        )
    return cols


def write_sweep(table: SweepTable, params: SystemParams, swept_name: str, path) -> None:
    """Write a sweep as CSV: the swept value, then per action its latency,
    energy (both as ``repr``) and a 1/0 feasibility flag.

    Cells are formatted a column at a time over chunks of ``CHUNK_ROWS``
    rows, so the bytes do not depend on the chunking.
    """
    n_actions = len(params.action_set)
    if table.l_total_ms.shape[1] != n_actions:
        raise ValueError(f"sweep table has {table.l_total_ms.shape[1]} action columns, "
                         f"the action set {n_actions}")

    def write(fh):
        fh.write(",".join(sweep_header(params, swept_name)) + "\n")
        for a in range(0, len(table), CHUNK_ROWS):
            rows = slice(a, a + CHUNK_ROWS)
            columns = [map(repr, table.swept_value[rows].tolist())]
            for col in range(n_actions):
                columns.append(map(repr, table.l_total_ms[rows, col].tolist()))
                columns.append(map(repr, table.e_total_j[rows, col].tolist()))
                columns.append(["1" if f else "0" for f in table.feasible[rows, col].tolist()])
            fh.write("".join([",".join(cells) + "\n" for cells in zip(*columns)]))

    write_atomic(path, write)
