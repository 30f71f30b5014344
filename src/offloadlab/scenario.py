"""Scenario traces: per-frame features and fusion-quality scores.

A trace row carries a feature vector summarizing the frame, the detection
quality of the fully fused stack (map_full), and the quality of each reduced
fusion that survives on-vehicle when an offload misses the deadline
(map_partial, keyed by the subset of pipelines that stayed local).

CSV layout: ``f0..f{k-1},map_full,map_<subset>,...`` with ``#`` comment lines
above the header. Scores are written with 6 decimals, which round-trips
losslessly through the loader.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ALWAYS_LOCAL = "radar"
DEFAULT_OFFLOAD_ORDER = ("camera_left", "camera_right", "lidar")


def local_subset_key(
    i: int,
    offload_order=DEFAULT_OFFLOAD_ORDER,
    always_local: str = ALWAYS_LOCAL,
) -> str:
    """Identifier of the pipelines that stay local under offload_i."""
    if not 0 <= i <= len(offload_order):
        raise ValueError(f"offload count {i} out of range for {offload_order}")
    return "_".join([always_local, *offload_order[i:]])


@dataclass(slots=True)
class FrameRecord:
    features: np.ndarray
    map_full: float
    map_partial: dict[str, float]


@dataclass(slots=True)
class ScenarioTrace:
    frames: list[FrameRecord]
    k: int
    partial_keys: tuple[str, ...]
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        want_keys = set(self.partial_keys)
        for t, frame in enumerate(self.frames):
            if frame.features.shape != (self.k,):
                raise ValueError(
                    f"frame {t}: expected {self.k} features, got shape {frame.features.shape}"
                )
            if not 0.0 <= frame.map_full <= 1.0:
                raise ValueError(f"frame {t}: map_full outside [0, 1]")
            if set(frame.map_partial) != want_keys:
                raise ValueError(
                    f"frame {t}: reduced-fusion keys {sorted(frame.map_partial)} "
                    f"do not match trace columns {sorted(want_keys)}"
                )

    def __len__(self) -> int:
        return len(self.frames)

    def map_full_values(self) -> np.ndarray:
        return np.array([f.map_full for f in self.frames])


@dataclass(frozen=True, slots=True)
class GeneratorParams:
    """Knobs of the synthetic scene-difficulty process.

    A latent complexity z follows an AR(1) recursion
    ``z' = alpha z + (1 - alpha) mu + eps`` clipped to [0, 1]; full-fusion
    quality is ``base - span * z`` plus observation noise, and the reduced
    fusions degrade further the fewer pipelines stay local and the harder
    the scene is. Features are a fixed affine embedding of z plus noise.
    """

    k: int = 16
    base: float = 0.85
    span: float = 0.5
    alpha: float = 0.95
    mu: float = 0.4
    z_noise: float = 0.05
    map_noise: float = 0.01
    feature_noise: float = 0.02
    deg_base: float = 0.02
    deg_span: float = 0.10

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError("k must be a positive integer")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        if self.span <= 0:
            raise ValueError("span must be positive")
        for name in ("base", "mu"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        for name in ("z_noise", "map_noise", "feature_noise", "deg_base", "deg_span"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def _embedding_slopes(k: int) -> np.ndarray:
    # fixed per-dimension slopes: alternating sign, magnitudes 0.6..1.0,
    # so the latent stays linearly decodable from any trace of the same width
    j = np.arange(k, dtype=float)
    sign = np.where(j % 2 == 0, 1.0, -1.0)
    return sign * (0.6 + 0.4 * j / max(k - 1, 1))


def generate_synthetic(
    gen: GeneratorParams,
    n_frames: int,
    seed: int,
    partial_counts=(2, 3),
    offload_order=DEFAULT_OFFLOAD_ORDER,
    always_local: str = ALWAYS_LOCAL,
) -> ScenarioTrace:
    """Deterministic synthetic trace for a given seed.

    ``partial_counts`` lists the offload counts that need a reduced-fusion
    score; by default the two-camera and cameras-plus-lidar offloads.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be positive")
    rng = np.random.default_rng(seed)
    slopes = _embedding_slopes(gen.k)
    keys = {i: local_subset_key(i, offload_order, always_local) for i in partial_counts}
    frames = []
    z = min(max(gen.mu, 0.0), 1.0)
    for _ in range(n_frames):
        m_noise = rng.normal(0.0, gen.map_noise) if gen.map_noise > 0 else 0.0
        f_noise = (
            rng.normal(0.0, gen.feature_noise, gen.k)
            if gen.feature_noise > 0
            else np.zeros(gen.k)
        )
        map_full = min(max(gen.base - gen.span * z + m_noise, 0.0), 1.0)
        partial = {}
        for i, key in keys.items():
            drop = i * (gen.deg_base + gen.deg_span * z)
            partial[key] = min(max(map_full - drop, 0.0), 1.0)
        features = 0.5 + slopes * (z - 0.5) + f_noise
        frames.append(FrameRecord(features=features, map_full=map_full, map_partial=partial))
        eps = rng.normal(0.0, gen.z_noise) if gen.z_noise > 0 else 0.0
        z = min(max(gen.alpha * z + (1.0 - gen.alpha) * gen.mu + eps, 0.0), 1.0)
    partial_keys = tuple(keys[i] for i in sorted(keys))
    meta = {
        "generator": "ar1-scene-difficulty",
        "seed": str(seed),
        "n_frames": str(n_frames),
    }
    return ScenarioTrace(frames=frames, k=gen.k, partial_keys=partial_keys, metadata=meta)


def save_trace(trace: ScenarioTrace, path) -> None:
    """Write a trace as UTF-8 CSV with metadata comment lines."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in trace.metadata.items():
            fh.write(f"# {key} = {value}\n")
        cols = [f"f{j}" for j in range(trace.k)]
        cols.append("map_full")
        cols.extend(f"map_{key}" for key in trace.partial_keys)
        fh.write(",".join(cols) + "\n")
        for frame in trace.frames:
            cells = [f"{v:.6f}" for v in frame.features]
            cells.append(f"{frame.map_full:.6f}")
            cells.extend(f"{frame.map_partial[key]:.6f}" for key in trace.partial_keys)
            fh.write(",".join(cells) + "\n")


def load_trace(path, expected_subsets=None) -> ScenarioTrace:
    """Parse and validate a trace CSV; errors carry 1-based line numbers."""
    metadata: dict[str, str] = {}
    header: list[str] | None = None
    frames: list[FrameRecord] = []
    k = 0
    partial_keys: tuple[str, ...] = ()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    metadata[key.strip()] = value.strip()
                continue
            cells = line.split(",")
            if header is None:
                header = [c.strip() for c in cells]
                k, partial_keys = _parse_header(path, lineno, header, expected_subsets)
                continue
            if len(cells) != len(header):
                raise ValueError(
                    f"{path}: line {lineno}: expected {len(header)} columns, got {len(cells)}"
                )
            try:
                values = [float(c) for c in cells]
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric cell") from None
            if not all(map(math.isfinite, values[:k])):
                j = next(j for j, v in enumerate(values) if not math.isfinite(v))
                raise ValueError(f"{path}: line {lineno}: f{j} must be finite")
            scores = values[k:]
            for col, v in zip(header[k:], scores):
                if not 0.0 <= v <= 1.0:
                    raise ValueError(
                        f"{path}: line {lineno}: {col} must lie in [0, 1], got {v}"
                    )
            frames.append(
                FrameRecord(
                    features=np.array(values[:k]),
                    map_full=scores[0],
                    map_partial=dict(zip(partial_keys, scores[1:])),
                )
            )
    if header is None:
        raise ValueError(f"{path}: no header row found")
    if not frames:
        raise ValueError(f"{path}: no data rows found")
    return ScenarioTrace(frames=frames, k=k, partial_keys=partial_keys, metadata=metadata)


def _parse_header(path, lineno, header, expected_subsets):
    k = 0
    while k < len(header) and header[k] == f"f{k}":
        k += 1
    if k == 0:
        raise ValueError(f"{path}: line {lineno}: header must start with f0..f{{k-1}}")
    rest = header[k:]
    if not rest or rest[0] != "map_full":
        raise ValueError(f"{path}: line {lineno}: expected map_full after f{k - 1}")
    subset_cols = rest[1:]
    if any(not c.startswith("map_") for c in subset_cols):
        raise ValueError(
            f"{path}: line {lineno}: trailing columns must be map_<subset>, got {subset_cols}"
        )
    keys = tuple(c[len("map_"):] for c in subset_cols)
    if expected_subsets is not None:
        expected = tuple(expected_subsets)
        if set(keys) != set(expected):
            want = ", ".join(f"map_{s}" for s in expected)
            raise ValueError(f"{path}: line {lineno}: expected subset columns [{want}], got {list(subset_cols)}")
    elif not keys:
        raise ValueError(
            f"{path}: line {lineno}: expected at least one map_<subset> column after map_full"
        )
    return k, keys


def realized_map(
    frame: FrameRecord,
    action,
    all_arrived: bool,
    offload_order=DEFAULT_OFFLOAD_ORDER,
    always_local: str = ALWAYS_LOCAL,
) -> float:
    """Detection quality the vehicle actually experiences on this frame.

    Full fusion when nothing was offloaded or every offloaded result arrived
    in time, otherwise the reduced fusion of the pipelines that stayed local.
    """
    if action.i == 0 or all_arrived:
        return frame.map_full
    key = local_subset_key(action.i, offload_order, always_local)
    try:
        return frame.map_partial[key]
    except KeyError:
        raise KeyError(
            f"trace has no reduced-fusion score for subset {key!r}; "
            f"available: {sorted(frame.map_partial)}"
        ) from None
