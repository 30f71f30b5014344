"""Truncated-geometric model of the edge server queue.

The queue position c follows q_c = (1 - rho) rho^c / (1 - rho^(cap+1)) on
c = 0..cap; a task entering at position c waits (c + 1) service slots.
Sampling uses the closed-form inverse CDF, so the pmf vector is never
materialized on the sampling path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# slot counts within this relative distance of an integer are recomputed
# with math.log in delays_from_uniform; a one-ulp log error is ~1e-16
SLOT_EDGE_REL = 1e-9


@dataclass(frozen=True, slots=True)
class QueueModel:
    rho: float = 0.9
    cap: int = 4000
    t_service_ms: float = 1.5

    def __post_init__(self):
        _check_rho_cap(self.rho, self.cap)
        if not self.t_service_ms > 0:
            raise ValueError("t_service_ms must be positive")


def _check_rho_cap(rho: float, cap: int) -> None:
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    if not isinstance(cap, int) or cap < 1:
        raise ValueError(f"cap must be a positive integer, got {cap!r}")


def queue_pmf(rho: float, cap: int) -> np.ndarray:
    """Probability of each queue position 0..cap (length cap + 1, sums to 1)."""
    _check_rho_cap(rho, cap)
    c = np.arange(cap + 1, dtype=float)
    # 1 - rho^(cap+1) via expm1 keeps the normalizer exact for rho near 1
    denom = -math.expm1((cap + 1) * math.log(rho))
    return (1.0 - rho) * np.exp(c * math.log(rho)) / denom


def mean_position(rho: float, cap: int) -> float:
    """Analytic mean of the truncated-geometric position."""
    _check_rho_cap(rho, cap)
    tail = math.exp((cap + 1) * math.log(rho))
    return rho / (1.0 - rho) - (cap + 1) * tail / (1.0 - tail)


def mean_delay_ms(model: QueueModel) -> float:
    return (mean_position(model.rho, model.cap) + 1.0) * model.t_service_ms


def position_from_uniform(rho: float, cap: int, u: float) -> int:
    """Smallest c with CDF(c) >= u, in closed form."""
    _check_rho_cap(rho, cap)
    if not 0.0 <= u < 1.0:
        raise ValueError("u must lie in [0, 1)")
    # CDF(c) = (1 - rho^(c+1)) / (1 - rho^(cap+1))
    w = 1.0 + u * math.expm1((cap + 1) * math.log(rho))
    c = math.ceil(math.log(w) / math.log(rho)) - 1
    return min(max(c, 0), cap)


def sample_position(model: QueueModel, rng: np.random.Generator) -> int:
    return position_from_uniform(model.rho, model.cap, rng.random())


def sample_delay(model: QueueModel, rng: np.random.Generator) -> float:
    """One i.i.d. waiting time draw in ms: (position + 1) service slots."""
    return (sample_position(model, rng) + 1) * model.t_service_ms


def delays_from_uniform(model: QueueModel, u: np.ndarray) -> np.ndarray:
    """Delays of an array of draws in [0, 1), bit for bit as sample_delay.

    The slot count ``log(w) / log(rho)`` is taken with numpy's ``log``, which
    rounds a fraction of a percent of inputs one ulp apart from ``math.log``.
    Such an ulp moves the ratio by a few parts in 1e16, so it can change
    ``ceil()`` only where the ratio lies within rounding of an integer: the
    entries within ``SLOT_EDGE_REL`` of one are recomputed with ``math.log``,
    and every delay equals ``sample_delay``'s. Only the integer slot leaves
    this function, so the guard suffices here. ``capacities_from_uniform``
    keeps ``math.log`` on every draw: its float value reaches the cost
    tables, where a one-ulp difference would change output bits.
    """
    log_rho = math.log(model.rho)
    w = 1.0 + u * math.expm1((model.cap + 1) * log_rho)
    ratio = np.log(w) / log_rho
    edge = np.flatnonzero(
        np.abs(ratio - np.rint(ratio)) <= SLOT_EDGE_REL * np.maximum(1.0, np.abs(ratio)))
    if edge.size:
        ratio[edge] = [math.log(x) / log_rho for x in w[edge].tolist()]
    c = np.ceil(ratio) - 1
    c = np.clip(c, 0, model.cap)
    return (c + 1.0) * model.t_service_ms


def sample_delays(model: QueueModel, rng: np.random.Generator, n: int) -> np.ndarray:
    """Vectorized i.i.d. delay draws, equal to n sample_delay calls on the same rng."""
    return delays_from_uniform(model, rng.random(n))
