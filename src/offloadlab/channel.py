"""Rayleigh model of the uplink capacity, fitted to observed throughput traces."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, slots=True)
class ChannelModel:
    sigma: float
    floor_mbps: float = 0.1

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError("sigma must be positive and finite")
        if not self.floor_mbps >= 0:
            raise ValueError("floor_mbps must be non-negative")

    @property
    def mean_mbps(self) -> float:
        """Mean of the unclamped distribution, sigma * sqrt(pi / 2)."""
        return self.sigma * math.sqrt(math.pi / 2.0)


def fit_rayleigh(samples, floor_mbps: float = 0.1) -> ChannelModel:
    """Maximum-likelihood fit: sigma = sqrt(sum(x^2) / (2 n))."""
    xs = np.asarray(list(samples), dtype=float)
    if xs.size < 2:
        raise ValueError(f"need at least 2 samples to fit, got {xs.size}")
    if not np.all(np.isfinite(xs)) or np.any(xs <= 0):
        raise ValueError("capacity samples must be positive and finite")
    sigma = math.sqrt(float(np.sum(xs * xs)) / (2.0 * xs.size))
    return ChannelModel(sigma=sigma, floor_mbps=floor_mbps)


def capacity_from_uniform(model: ChannelModel, u: float) -> float:
    """Inverse-CDF transform of one uniform draw u in (0, 1], clamped at the floor."""
    if not 0.0 < u <= 1.0:
        raise ValueError("u must lie in (0, 1]")
    return max(model.floor_mbps, model.sigma * math.sqrt(-2.0 * math.log(u)))


def sample_capacity(model: ChannelModel, rng: np.random.Generator) -> float:
    """One i.i.d. capacity draw in Mbit/s."""
    return capacity_from_uniform(model, 1.0 - rng.random())


def capacities_from_uniform(model: ChannelModel, u: np.ndarray) -> np.ndarray:
    """capacity_from_uniform over an array of draws in (0, 1], bit for bit.

    The logarithm goes through ``math.log``: numpy's SIMD ``log`` rounds a
    fraction of a percent of inputs one ulp apart from it.
    """
    logs = np.fromiter(map(math.log, u.tolist()), dtype=float, count=len(u))
    raw = model.sigma * np.sqrt(-2.0 * logs)
    # max()'s choice, not np.maximum's: at u = 1 the raw capacity is -0.0,
    # which max(0.0, -0.0) drops for the floor and np.maximum would keep
    return np.where(raw > model.floor_mbps, raw, model.floor_mbps)


def sample_capacities(model: ChannelModel, rng: np.random.Generator, n: int) -> np.ndarray:
    """Vectorized i.i.d. draws, equal to n sample_capacity calls on the same rng."""
    return capacities_from_uniform(model, 1.0 - rng.random(n))


def read_rate_trace(path) -> list[float]:
    """Read a throughput trace: one positive Mbit/s value per line, '#' comments."""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                value = float(text)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: not a number: {text!r}") from None
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"{path}: line {lineno}: rate must be positive, got {value}")
            values.append(value)
    if not values:
        raise ValueError(f"{path}: no samples found")
    return values
