"""Scalar reference implementations that the package's array code is checked
against. Each keeps the per-item loop the array version replaced."""

import numpy as np

from offloadlab.scenario import (
    ALWAYS_LOCAL,
    DEFAULT_OFFLOAD_ORDER,
    GeneratorParams,
    ScenarioTrace,
    _embedding_slopes,
    local_subset_key,
)


def generate_synthetic(
    gen: GeneratorParams,
    n_frames: int,
    seed: int,
    partial_counts=(2, 3),
    offload_order=DEFAULT_OFFLOAD_ORDER,
    always_local: str = ALWAYS_LOCAL,
) -> ScenarioTrace:
    """The generator frame by frame: k + 2 scalar ``rng.normal`` calls per frame."""
    if n_frames < 1:
        raise ValueError("n_frames must be positive")
    rng = np.random.default_rng(seed)
    slopes = _embedding_slopes(gen.k)
    counts = sorted(set(partial_counts))
    partial_keys = tuple(local_subset_key(i, offload_order, always_local) for i in counts)
    features = np.empty((n_frames, gen.k))
    map_full = np.empty(n_frames)
    map_partial = np.empty((n_frames, len(counts)))
    z = min(max(gen.mu, 0.0), 1.0)
    for t in range(n_frames):
        m_noise = rng.normal(0.0, gen.map_noise) if gen.map_noise > 0 else 0.0
        f_noise = (
            rng.normal(0.0, gen.feature_noise, gen.k)
            if gen.feature_noise > 0
            else np.zeros(gen.k)
        )
        full = min(max(gen.base - gen.span * z + m_noise, 0.0), 1.0)
        map_full[t] = full
        for c, i in enumerate(counts):
            drop = i * (gen.deg_base + gen.deg_span * z)
            map_partial[t, c] = min(max(full - drop, 0.0), 1.0)
        features[t] = 0.5 + slopes * (z - 0.5) + f_noise
        eps = rng.normal(0.0, gen.z_noise) if gen.z_noise > 0 else 0.0
        z = min(max(gen.alpha * z + (1.0 - gen.alpha) * gen.mu + eps, 0.0), 1.0)
    meta = {
        "generator": "ar1-scene-difficulty",
        "seed": str(seed),
        "n_frames": str(n_frames),
    }
    return ScenarioTrace(features, map_full, map_partial, partial_keys, metadata=meta)


def format_trace_rows(trace) -> str:
    """The data rows of a trace CSV, one ``f"{v:.6f}"`` per cell."""
    rows = np.column_stack((trace.features, trace.map_full, trace.map_partial))
    return "".join(",".join([f"{v:.6f}" for v in row]) + "\n" for row in rows.tolist())


def format_sweep_rows(table, params) -> str:
    """The data rows of a sweep CSV, one ``repr`` per value cell."""
    lines = []
    for r, value in enumerate(table.swept_value.tolist()):
        cells = [repr(float(value))]
        for col in range(len(params.action_set)):
            cells.append(repr(float(table.l_total_ms[r, col])))
            cells.append(repr(float(table.e_total_j[r, col])))
            cells.append("1" if table.feasible[r, col] else "0")
        lines.append(",".join(cells) + "\n")
    return "".join(lines)
