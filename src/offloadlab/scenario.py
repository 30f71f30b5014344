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

import operator
from array import array
from dataclasses import dataclass, field

import numpy as np

from .atomic import write_atomic

ALWAYS_LOCAL = "radar"
DEFAULT_OFFLOAD_ORDER = ("camera_left", "camera_right", "lidar")
# rows per chunk of the array passes and CSV writers over a table of frames or
# grid points: bounds their scratch memory whatever the table's length
CHUNK_ROWS = 1024


def local_subset_key(
    i: int,
    offload_order=DEFAULT_OFFLOAD_ORDER,
    always_local: str = ALWAYS_LOCAL,
) -> str:
    """Identifier of the pipelines that stay local under offload_i."""
    if not 0 <= i <= len(offload_order):
        raise ValueError(f"offload count {i} out of range for {offload_order}")
    return "_".join([always_local, *offload_order[i:]])


class TraceError(ValueError):
    """Invalid trace contents. ``row`` is the first bad frame, or None when
    the fault lies in the columns themselves."""

    def __init__(self, detail: str, row: int | None = None):
        super().__init__(detail if row is None else f"frame {row}: {detail}")
        self.detail = detail
        self.row = row


def _check_contents(features, map_full, map_partial, partial_keys) -> None:
    """The one validation of trace contents; raises TraceError on the first fault.

    Array shapes must agree and subset keys must be distinct. Features must be
    finite and every score must lie in [0, 1]; within the first bad frame,
    features are reported before scores, each in column order.
    """
    if features.ndim != 2:
        raise TraceError(f"features must be a 2-d array, got shape {features.shape}")
    n = len(features)
    if map_full.shape != (n,):
        raise TraceError(f"map_full has shape {map_full.shape}, expected ({n},)")
    if map_partial.shape != (n, len(partial_keys)):
        raise TraceError(
            f"map_partial has shape {map_partial.shape}, expected {(n, len(partial_keys))}"
        )
    for j, key in enumerate(partial_keys):
        if key in partial_keys[:j]:
            raise TraceError(f"duplicate subset column map_{key}")
    scores = np.column_stack((map_full, map_partial))
    bad_features = ~np.isfinite(features)
    bad_scores = ~((scores >= 0.0) & (scores <= 1.0))
    bad = bad_features.any(axis=1) | bad_scores.any(axis=1)
    if not bad.any():
        return
    t = int(np.argmax(bad))
    if bad_features[t].any():
        raise TraceError(f"f{int(np.argmax(bad_features[t]))} must be finite", t)
    j = int(np.argmax(bad_scores[t]))
    col = "map_full" if j == 0 else f"map_{partial_keys[j - 1]}"
    raise TraceError(f"{col} must lie in [0, 1], got {float(scores[t, j])}", t)


@dataclass(frozen=True, slots=True)
class FrameRecord:
    """One row of a trace, as ``ScenarioTrace.frames`` yields it."""

    features: np.ndarray
    map_full: float
    map_partial: dict[str, float]


class _FrameRows:
    """Read-only view of a trace as one ``FrameRecord`` per row."""

    __slots__ = ("_trace",)

    def __init__(self, trace: "ScenarioTrace"):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace)

    def __getitem__(self, t) -> FrameRecord:
        trace = self._trace
        t = range(len(trace))[operator.index(t)]
        features = trace.features[t]
        features.flags.writeable = False
        partial = dict(zip(trace.partial_keys, trace.map_partial[t].tolist()))
        return FrameRecord(features, float(trace.map_full[t]), partial)


@dataclass(slots=True, eq=False)
class ScenarioTrace:
    """A trace as frame-aligned arrays: row ``t`` of each array is frame ``t``.

    ``features`` is ``(n, k)``, ``map_full`` is ``(n,)``, and ``map_partial``
    is ``(n, len(partial_keys))`` with column ``j`` holding the reduced-fusion
    score of subset ``partial_keys[j]``. The arrays are stored as C-contiguous
    float64 and validated once, here.
    """

    features: np.ndarray
    map_full: np.ndarray
    map_partial: np.ndarray
    partial_keys: tuple[str, ...]
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.map_full = np.ascontiguousarray(self.map_full, dtype=np.float64)
        self.map_partial = np.ascontiguousarray(self.map_partial, dtype=np.float64)
        self.partial_keys = tuple(self.partial_keys)
        _check_contents(self.features, self.map_full, self.map_partial, self.partial_keys)

    def __len__(self) -> int:
        return len(self.map_full)

    @property
    def k(self) -> int:
        return self.features.shape[1]

    @property
    def frames(self) -> _FrameRows:
        return _FrameRows(self)

    def partial_column(
        self,
        i: int,
        offload_order=DEFAULT_OFFLOAD_ORDER,
        always_local: str = ALWAYS_LOCAL,
    ) -> int:
        """Column of ``map_partial`` that holds offload_i's reduced fusion."""
        key = local_subset_key(i, offload_order, always_local)
        try:
            return self.partial_keys.index(key)
        except ValueError:
            raise KeyError(
                f"trace has no reduced-fusion score for subset {key!r}; "
                f"available: {sorted(self.partial_keys)}"
            ) from None


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
        if not self.span > 0:
            raise ValueError("span must be positive")
        for name in ("base", "mu"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        for name in ("z_noise", "map_noise", "feature_noise", "deg_base", "deg_span"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative")


def _embedding_slopes(k: int) -> np.ndarray:
    # fixed per-dimension slopes: alternating sign, magnitudes 0.6..1.0,
    # so the latent stays linearly decodable from any trace of the same width
    j = np.arange(k, dtype=float)
    sign = np.where(j % 2 == 0, 1.0, -1.0)
    return sign * (0.6 + 0.4 * j / max(k - 1, 1))


def _latent_path(gen: GeneratorParams, eps: list[float]) -> np.ndarray:
    """The clipped AR(1) latent of each frame, given each frame's latent noise.

    The recursion is sequential, z[t] feeds z[t + 1], so it runs over Python
    floats.
    """
    z = np.empty(len(eps))
    drift = (1.0 - gen.alpha) * gen.mu
    z_t = min(max(gen.mu, 0.0), 1.0)
    for t, e in enumerate(eps):
        z[t] = z_t
        z_t = min(max(gen.alpha * z_t + drift + e, 0.0), 1.0)
    return z


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

    Every normal of the trace comes from one ``standard_normal`` call whose
    row ``t`` holds frame ``t``'s noises in per-frame draw order: the map
    noise, the ``k`` feature noises, then the latent noise, each only when
    its scale is positive. A draw times its scale is ``rng.normal(0.0,
    scale)`` bit for bit, and the array expressions below repeat the
    per-frame operations in their order, so a seed gives the same trace as
    a loop that draws frame by frame.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be positive")
    rng = np.random.default_rng(seed)
    k = gen.k
    slopes = _embedding_slopes(k)
    counts = sorted(set(partial_counts))
    partial_keys = tuple(local_subset_key(i, offload_order, always_local) for i in counts)
    scales = ([gen.map_noise] if gen.map_noise > 0 else []) + (
        [gen.feature_noise] * k if gen.feature_noise > 0 else []) + (
        [gen.z_noise] if gen.z_noise > 0 else [])
    draws = rng.standard_normal((n_frames, len(scales)))
    draws *= scales
    z = _latent_path(gen, draws[:, -1].tolist() if gen.z_noise > 0 else [0.0] * n_frames)
    map_full = gen.base - gen.span * z
    if gen.map_noise > 0:
        map_full += draws[:, 0]
    np.clip(map_full, 0.0, 1.0, out=map_full)
    map_partial = np.multiply.outer(gen.deg_base + gen.deg_span * z, np.array(counts, dtype=float))
    np.subtract(map_full[:, None], map_partial, out=map_partial)
    np.clip(map_partial, 0.0, 1.0, out=map_partial)
    # With feature noise the draw rows are at least k wide, so the features
    # are built chunk by chunk into the front of the draw buffer: a chunk's
    # noise is read before its rows are written, and later noise lies beyond
    # them. The buffer then shrinks in place to (n, k), so no second (n, k)
    # array is held.
    f_at = 1 if gen.map_noise > 0 else 0
    noise = draws[:, f_at : f_at + k] if gen.feature_noise > 0 else None
    out = draws.reshape(-1) if noise is not None else np.empty(n_frames * k)
    for a in range(0, n_frames, CHUNK_ROWS):
        rows = np.multiply.outer(z[a : a + CHUNK_ROWS] - 0.5, slopes)
        rows += 0.5
        if noise is not None:
            rows += noise[a : a + CHUNK_ROWS]
        out[a * k : a * k + rows.size] = rows.ravel()
    del rows, z  # scratch, freed before the trace is validated
    if noise is None:
        features = out.reshape(n_frames, k)
    else:
        del noise, out
        try:
            draws.resize((n_frames, k))
            features = draws
        except ValueError:
            # resize refuses while another reference to the buffer is alive,
            # as when a debugger holds this frame's locals: keep it whole
            features = draws.reshape(-1)[: n_frames * k].reshape(n_frames, k)
    meta = {
        "generator": "ar1-scene-difficulty",
        "seed": str(seed),
        "n_frames": str(n_frames),
    }
    return ScenarioTrace(features, map_full, map_partial, partial_keys, metadata=meta)


def save_trace(trace: ScenarioTrace, path) -> None:
    """Write a trace as UTF-8 CSV with metadata comment lines.

    Rows are formatted ``CHUNK_ROWS`` at a time with one ``%`` format per
    chunk; ``"%.6f" % v`` is ``f"{v:.6f}"``, so the bytes do not depend on
    the chunking.
    """

    def write(fh):
        for key, value in trace.metadata.items():
            fh.write(f"# {key} = {value}\n")
        cols = [f"f{j}" for j in range(trace.k)]
        cols.append("map_full")
        cols.extend(f"map_{key}" for key in trace.partial_keys)
        fh.write(",".join(cols) + "\n")
        row_format = ",".join(["%.6f"] * len(cols)) + "\n"
        for a in range(0, len(trace), CHUNK_ROWS):
            rows = slice(a, a + CHUNK_ROWS)
            chunk = np.column_stack((trace.features[rows], trace.map_full[rows],
                                     trace.map_partial[rows]))
            fh.write((row_format * len(chunk)) % tuple(chunk.ravel().tolist()))

    write_atomic(path, write)


def load_trace(path, expected_subsets=None) -> ScenarioTrace:
    """Parse a trace CSV; errors carry 1-based line numbers."""
    metadata: dict[str, str] = {}
    header: list[str] | None = None
    header_lineno = 0
    values = array("d")
    linenos = array("q")
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
                header_lineno = lineno
                k, partial_keys = _parse_header(path, lineno, header, expected_subsets)
                continue
            if len(cells) != len(header):
                raise ValueError(
                    f"{path}: line {lineno}: expected {len(header)} columns, got {len(cells)}"
                )
            try:
                values.extend(map(float, cells))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric cell") from None
            linenos.append(lineno)
    if header is None:
        raise ValueError(f"{path}: no header row found")
    if not linenos:
        raise ValueError(f"{path}: no data rows found")
    table = np.frombuffer(values, dtype=np.float64).reshape(len(linenos), len(header))
    try:
        return ScenarioTrace(table[:, :k], table[:, k], table[:, k + 1:], partial_keys, metadata)
    except TraceError as exc:
        bad_line = header_lineno if exc.row is None else linenos[exc.row]
        raise ValueError(f"{path}: line {bad_line}: {exc.detail}") from None


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
    trace: ScenarioTrace,
    t: int,
    action,
    all_arrived: bool,
    offload_order=DEFAULT_OFFLOAD_ORDER,
    always_local: str = ALWAYS_LOCAL,
) -> float:
    """Detection quality the vehicle actually experiences on frame ``t``.

    Full fusion when nothing was offloaded or every offloaded result arrived
    in time, otherwise the reduced fusion of the pipelines that stayed local.
    """
    if action.i == 0 or all_arrived:
        return float(trace.map_full[t])
    return float(trace.map_partial[t, trace.partial_column(action.i, offload_order, always_local)])
