"""System parameters, action space, and the deterministic latency/energy cost model.

A perception stack runs ``n_pipelines`` sensor pipelines, each split into an
on-vehicle encoder and a tail network. Action ``offload_i`` ships the encoded
features of ``i`` pipelines to an edge server and keeps the remaining tails
local. Unit conventions used throughout the package:

* rates in kbit/ms (numerically equal to Mbit/s),
* durations in ms,
* energies in mJ while composing, reported in J on public fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

COMPOSITIONS = ("overlapped", "additive")


@dataclass(frozen=True, slots=True)
class Action:
    """Operating mode offload_i: the tails of i pipelines run on the server."""

    i: int

    def __post_init__(self):
        if not isinstance(self.i, int) or self.i < 0:
            raise ValueError(f"action index must be a non-negative integer, got {self.i!r}")

    @property
    def name(self) -> str:
        return f"offload_{self.i}"

    @classmethod
    def parse(cls, text: str) -> "Action":
        """Accept 'offload_2' or bare '2'."""
        raw = text.strip()
        if raw.startswith("offload_"):
            raw = raw[len("offload_"):]
        try:
            return cls(int(raw))
        except ValueError:
            raise ValueError(f"cannot parse action {text!r}") from None


@dataclass(frozen=True, slots=True)
class SystemParams:
    """Static description of the stack, the radio, and the robustness thresholds.

    ``offload_order`` lists the pipelines eligible for offloading by priority;
    under offload_i the first i entries go to the server. The always-local
    pipeline is excluded from the list, so its length is ``n_pipelines - 1``.
    """

    n_pipelines: int = 4
    l_encoder_ms: float = 3.78
    l_tail_ms: float = 13.25
    p_local_w: float = 7.046
    p_tx_w: float = 1.3
    p_idle_w: float = 0.0
    b_up_kbit: float = 92.56
    b_down_kbit: float = 4.0
    l_th_ms: float = 68.12
    map_th: float = 0.68
    action_set: tuple[Action, ...] = (Action(0), Action(2), Action(3))
    offload_order: tuple[str, ...] = ("camera_left", "camera_right", "lidar")
    latency_composition: str = "overlapped"

    def __post_init__(self):
        if not isinstance(self.n_pipelines, int) or self.n_pipelines < 1:
            raise ValueError("n_pipelines must be a positive integer")
        for name in ("l_encoder_ms", "l_tail_ms", "l_th_ms", "b_up_kbit"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        # zero is meaningful for powers (idle-free radios, what-if studies) and
        # for b_down (fire-and-forget offload), so only negatives are rejected
        for name in ("p_local_w", "p_tx_w", "p_idle_w", "b_down_kbit"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 <= self.map_th <= 1.0:
            raise ValueError("map_th must lie in [0, 1]")
        if self.latency_composition not in COMPOSITIONS:
            raise ValueError(f"latency_composition must be one of {COMPOSITIONS}")
        acts = tuple(self.action_set)
        if len(acts) == 0:
            raise ValueError("action_set must not be empty")
        idx = [a.i for a in acts]
        if len(set(idx)) != len(idx):
            raise ValueError("action_set contains duplicate actions")
        if idx != sorted(idx):
            raise ValueError("action_set must be sorted by offload count")
        if any(i >= self.n_pipelines for i in idx):
            raise ValueError("action offload count cannot reach n_pipelines")
        if 0 not in idx or (self.n_pipelines - 1) not in idx:
            raise ValueError("action_set must contain offload_0 and offload_{n-1}")
        if len(self.offload_order) != self.n_pipelines - 1:
            raise ValueError("offload_order must name n_pipelines - 1 pipelines")
        if len(set(self.offload_order)) != len(self.offload_order):
            raise ValueError("offload_order contains duplicate pipeline names")
        object.__setattr__(self, "action_set", acts)
        object.__setattr__(self, "offload_order", tuple(self.offload_order))

    def with_updates(self, **kw) -> "SystemParams":
        return replace(self, **kw)


@dataclass(frozen=True, slots=True)
class CostBreakdown:
    """Per-term latency/energy decomposition of one action at one draw."""

    l_local_ms: float
    l_tx_ms: float
    l_server_ms: float
    l_rx_ms: float
    l_total_ms: float
    e_local_j: float
    e_tx_j: float
    e_idle_j: float
    e_rx_j: float
    e_total_j: float


def _check_action(params: SystemParams, action: Action) -> None:
    if action.i >= params.n_pipelines:
        raise ValueError(
            f"{action.name} invalid for a {params.n_pipelines}-pipeline stack"
        )


def latency_local(params: SystemParams, action: Action) -> float:
    """On-vehicle compute latency in ms: all encoders plus the tails kept local."""
    _check_action(params, action)
    n, i = params.n_pipelines, action.i
    return n * params.l_encoder_ms + (n - i) * params.l_tail_ms


def energy_local(params: SystemParams, action: Action) -> float:
    """On-vehicle compute energy in J at the local processing power draw."""
    return latency_local(params, action) * params.p_local_w / 1e3


def comm_cost(
    params: SystemParams,
    action: Action,
    phi_up_mbps: float,
    phi_down_mbps: float | None = None,
) -> tuple[float, float, float, float]:
    """Uplink/downlink cost (l_tx_ms, e_tx_j, l_rx_ms, e_rx_j) for one action.

    Transfer sizes scale linearly with the offload count. The receive side is
    symmetric with ``b_down_kbit`` and ``phi_down_mbps``; the radio draws
    ``p_tx_w`` in both directions.
    """
    if phi_down_mbps is None:
        phi_down_mbps = phi_up_mbps
    if not (phi_up_mbps > 0 and phi_down_mbps > 0):
        raise ValueError("channel rates must be positive")
    i = action.i
    if i == 0:
        return 0.0, 0.0, 0.0, 0.0
    l_tx = i * params.b_up_kbit / phi_up_mbps
    l_rx = i * params.b_down_kbit / phi_down_mbps
    e_tx = l_tx * params.p_tx_w / 1e3
    e_rx = l_rx * params.p_tx_w / 1e3
    return l_tx, e_tx, l_rx, e_rx


def total_cost(
    params: SystemParams,
    action: Action,
    phi_up_mbps: float,
    phi_down_mbps: float | None = None,
    server_delay_ms: float = 0.0,
) -> CostBreakdown:
    """End-to-end latency and energy of one action at one channel/queue draw.

    Under ``additive`` composition every term serializes. Under ``overlapped``
    (the default) the offloaded branch runs concurrently with the local tails
    once all encoders have finished, so the total is the slower of the two
    branches and idle energy accrues only while the vehicle actually waits.
    """
    _check_action(params, action)
    if not server_delay_ms >= 0:
        raise ValueError("server delay must be non-negative")
    n, i = params.n_pipelines, action.i
    l_local = latency_local(params, action)
    e_local_mj = l_local * params.p_local_w
    l_tx, e_tx_j, l_rx, e_rx_j = comm_cost(params, action, phi_up_mbps, phi_down_mbps)
    l_server = server_delay_ms if i > 0 else 0.0
    branch = l_tx + l_server + l_rx
    if params.latency_composition == "additive":
        l_total = l_local + branch
        idle_ms = branch
    else:
        l_total = max(l_local, n * params.l_encoder_ms + branch)
        idle_ms = max(0.0, branch - (n - i) * params.l_tail_ms)
    if i == 0:
        idle_ms = 0.0
    e_idle_j = idle_ms * params.p_idle_w / 1e3
    e_local_j = e_local_mj / 1e3
    e_total = e_local_j + e_tx_j + e_idle_j + e_rx_j
    return CostBreakdown(
        l_local_ms=l_local,
        l_tx_ms=l_tx,
        l_server_ms=l_server,
        l_rx_ms=l_rx,
        l_total_ms=l_total,
        e_local_j=e_local_j,
        e_tx_j=e_tx_j,
        e_idle_j=e_idle_j,
        e_rx_j=e_rx_j,
        e_total_j=e_total,
    )


def cost_table(params: SystemParams, phi_mbps, server_delay_ms) -> tuple[np.ndarray, np.ndarray]:
    """``total_cost`` of every action at many draws at once, bit for bit.

    ``phi_mbps`` (uplink and downlink) and ``server_delay_ms`` are 1-D arrays
    or scalars that broadcast to ``m`` draws. Returns ``(latency_ms,
    energy_j)``, each of shape ``(m, len(params.action_set))`` with columns
    in action-set order, computed with the operations of ``total_cost`` in
    its order, and raises its errors for any bad draw.
    """
    phi, q = np.broadcast_arrays(np.atleast_1d(np.asarray(phi_mbps, dtype=float)),
                                 np.atleast_1d(np.asarray(server_delay_ms, dtype=float)))
    if not np.all(q >= 0):
        raise ValueError("server delay must be non-negative")
    if not np.all(phi > 0):
        raise ValueError("channel rates must be positive")
    n = params.n_pipelines
    latency = np.empty((phi.shape[0], len(params.action_set)))
    energy = np.empty_like(latency)
    for col, action in enumerate(params.action_set):
        i = action.i
        l_local = latency_local(params, action)
        e_local_j = l_local * params.p_local_w / 1e3
        if i == 0:
            # no radio, no server, no idle time: every other term is zero
            latency[:, col] = l_local
            energy[:, col] = e_local_j
            continue
        l_tx = i * params.b_up_kbit / phi
        l_rx = i * params.b_down_kbit / phi
        branch = l_tx + q + l_rx
        if params.latency_composition == "additive":
            latency[:, col] = l_local + branch
            idle_ms = branch
        else:
            latency[:, col] = np.maximum(l_local, n * params.l_encoder_ms + branch)
            idle_ms = np.maximum(0.0, branch - (n - i) * params.l_tail_ms)
        energy[:, col] = (e_local_j + l_tx * params.p_tx_w / 1e3
                          + idle_ms * params.p_idle_w / 1e3 + l_rx * params.p_tx_w / 1e3)
    return latency, energy


def min_energy_columns(params: SystemParams, latency_ms: np.ndarray,
                       energy_j: np.ndarray) -> np.ndarray:
    """``min_energy_feasible`` per row of a ``cost_table``, as action-set columns.

    ``argmin`` keeps the first of equal energies, the smaller offload count;
    a row with no feasible action gets column 0, which is offload_0.
    """
    return np.argmin(np.where(latency_ms > params.l_th_ms, np.inf, energy_j), axis=1)


def feasible_actions(
    params: SystemParams,
    phi_up_mbps: float,
    phi_down_mbps: float | None = None,
    server_delay_ms: float = 0.0,
) -> list[Action]:
    """Actions whose end-to-end latency meets the deadline at this draw."""
    out = []
    for action in params.action_set:
        cb = total_cost(params, action, phi_up_mbps, phi_down_mbps, server_delay_ms)
        if cb.l_total_ms <= params.l_th_ms:
            out.append(action)
    return out


def min_energy_feasible(
    params: SystemParams,
    phi_up_mbps: float,
    phi_down_mbps: float | None = None,
    server_delay_ms: float = 0.0,
) -> Action:
    """Deadline-feasible action with the lowest total energy.

    Ties break toward the smaller offload count. Falls back to offload_0 when
    nothing meets the deadline (the all-local mode always exists).
    """
    best: Action | None = None
    best_e = math.inf
    for action in params.action_set:
        cb = total_cost(params, action, phi_up_mbps, phi_down_mbps, server_delay_ms)
        if cb.l_total_ms > params.l_th_ms:
            continue
        if cb.e_total_j < best_e:
            best = action
            best_e = cb.e_total_j
    return best if best is not None else Action(0)
