import sys

import numpy as np
import pytest
import reference

from offloadlab.cost import Action
from offloadlab.scenario import (
    CHUNK_ROWS,
    GeneratorParams,
    ScenarioTrace,
    generate_synthetic,
    load_trace,
    local_subset_key,
    realized_map,
    save_trace,
)


def test_local_subset_keys():
    assert local_subset_key(2) == "radar_lidar"
    assert local_subset_key(3) == "radar"
    assert local_subset_key(1) == "radar_camera_right_lidar"


def test_generation_is_deterministic():
    gen = GeneratorParams()
    a = generate_synthetic(gen, 50, seed=3)
    b = generate_synthetic(gen, 50, seed=3)
    c = generate_synthetic(gen, 50, seed=4)
    for field in ("features", "map_full", "map_partial"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
    assert np.any(a.map_full != c.map_full)


def test_generated_scores_are_valid(small_trace):
    assert small_trace.k == 16
    assert small_trace.partial_keys == ("radar_lidar", "radar")
    full, (lidar, radar) = small_trace.map_full, small_trace.map_partial.T
    assert np.all((0.0 <= full) & (full <= 1.0))
    # reduced fusion never beats the full stack, and shrinks with the subset
    assert np.all(lidar <= full)
    assert np.all(radar <= lidar)


def test_trace_arrays_are_contiguous_float64(small_trace):
    assert small_trace.features.shape == (300, 16)
    assert small_trace.map_full.shape == (300,)
    assert small_trace.map_partial.shape == (300, 2)
    trace = ScenarioTrace(np.asfortranarray(np.ones((3, 2), dtype=np.float32)),
                          [1, 0, 1], np.zeros((3, 1), dtype=int), ["radar"])
    for a in (trace.features, trace.map_full, trace.map_partial):
        assert a.dtype == np.float64 and a.flags.c_contiguous
    assert trace.partial_keys == ("radar",)
    assert (len(trace), trace.k) == (3, 2)


def test_frames_is_a_read_only_row_view(small_trace):
    frames = small_trace.frames
    assert len(frames) == len(small_trace)
    frame = frames[-1]
    np.testing.assert_array_equal(frame.features, small_trace.features[-1])
    assert frame.map_full == small_trace.map_full[-1]
    assert frame.map_partial == dict(zip(small_trace.partial_keys,
                                         small_trace.map_partial[-1].tolist()))
    with pytest.raises(ValueError):
        frame.features[0] = 0.0
    with pytest.raises(IndexError):
        frames[len(small_trace)]
    with pytest.raises(TypeError):
        frames[0:2]
    assert sum(1 for _ in frames) == len(small_trace)


def test_difficulty_is_persistent(small_trace):
    m = small_trace.map_full
    lag1 = np.corrcoef(m[:-1], m[1:])[0, 1]
    assert lag1 > 0.8


def test_default_trace_difficulty_level(small_trace):
    m = small_trace.map_full
    assert 0.55 < m.mean() < 0.75


def test_generator_validation():
    with pytest.raises(ValueError):
        GeneratorParams(alpha=1.0)
    with pytest.raises(ValueError):
        GeneratorParams(span=0.0)
    with pytest.raises(ValueError):
        GeneratorParams(k=0)
    gen = GeneratorParams()
    with pytest.raises(ValueError):
        generate_synthetic(gen, 0, seed=1)


GENERATOR_CASES = [
    GeneratorParams(),
    GeneratorParams(k=1),
    GeneratorParams(k=5),
    GeneratorParams(map_noise=0.0),
    GeneratorParams(feature_noise=0.0),
    GeneratorParams(z_noise=0.0),
    GeneratorParams(alpha=0.0),
]


@pytest.mark.parametrize("gen", GENERATOR_CASES, ids=range(len(GENERATOR_CASES)))
@pytest.mark.parametrize("partial_counts", [(2, 3), (3,), (1, 2, 3)])
@pytest.mark.parametrize("n_frames", [1, 3000])
def test_generator_matches_the_per_frame_reference(gen, partial_counts, n_frames):
    # one draw per trace against k + 2 draws per frame: the same bytes, also
    # where a scale is 0 and its column is left out of the draw, and across
    # the chunks the features are built in
    for seed in (0, 5, 123):
        got = generate_synthetic(gen, n_frames, seed, partial_counts)
        want = reference.generate_synthetic(gen, n_frames, seed, partial_counts)
        assert got.partial_keys == want.partial_keys
        assert got.metadata == want.metadata
        for field in ("features", "map_full", "map_partial"):
            assert getattr(got, field).shape == getattr(want, field).shape
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


def test_generator_under_a_debugger_matches_the_reference():
    # a tracer that reads the frame's locals, as a debugger does at a stop,
    # holds references that stop the draw buffer from shrinking in place
    def tracer(frame, event, arg):
        if frame.f_code is generate_synthetic.__code__:
            frame.f_locals
            return tracer
        return None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        got = generate_synthetic(GeneratorParams(), 1500, seed=2)
    finally:
        sys.settrace(previous)
    want = reference.generate_synthetic(GeneratorParams(), 1500, seed=2)
    assert got.features.tobytes() == want.features.tobytes()


def _edge_trace(n: int) -> ScenarioTrace:
    # cells that stress the 6-decimal format: a negative zero, a negative
    # value that rounds to -0.000000, the half-ulp 5e-7 and exactly 1.0
    rng = np.random.default_rng(n)
    features = rng.normal(0.5, 2.0, (n, 3))
    scores = rng.uniform(0.0, 1.0, (n, 3))
    edges = [-0.0, -4e-7, 5e-7, 1.0]
    features.flat[: min(features.size, 4)] = edges[: features.size]
    features[-1] = [-0.0, -4e-7, 5e-7]
    scores[0, : 3] = [-0.0, 5e-7, 1.0]
    scores[-1] = [1.0, 0.0, 5e-7]
    return ScenarioTrace(features, scores[:, 0], scores[:, 1:], ("radar_lidar", "radar"),
                         metadata={"seed": str(n)})


@pytest.mark.parametrize("n", [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 7])
def test_save_trace_matches_the_per_cell_format_at_chunk_edges(tmp_path, n):
    trace = _edge_trace(n)
    path = tmp_path / "trace.csv"
    save_trace(trace, path)
    want = (f"# seed = {n}\nf0,f1,f2,map_full,map_radar_lidar,map_radar\n"
            + reference.format_trace_rows(trace))
    assert path.read_bytes() == want.encode("utf-8")
    assert "\n-0.000000,-0.000000,0.000000," in want


def test_save_load_round_trip(tmp_path, small_trace):
    path = tmp_path / "trace.csv"
    save_trace(small_trace, path)
    back = load_trace(path)
    assert len(back) == len(small_trace)
    assert back.k == small_trace.k
    assert back.partial_keys == small_trace.partial_keys
    for field in ("features", "map_full", "map_partial"):
        np.testing.assert_allclose(getattr(back, field), getattr(small_trace, field), atol=5e-7)
    # a second save of the loaded trace reproduces the file byte for byte
    path2 = tmp_path / "trace2.csv"
    save_trace(back, path2)
    assert path2.read_bytes() == path.read_bytes()


def test_metadata_survives_round_trip(tmp_path, small_trace):
    path = tmp_path / "trace.csv"
    save_trace(small_trace, path)
    back = load_trace(path)
    assert back.metadata.get("seed") == "11"
    assert back.metadata.get("n_frames") == "300"


def test_load_rejects_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,map_full\n0.1,0.2,0.5\n")
    with pytest.raises(ValueError, match="map_"):
        load_trace(path)


def test_load_rejects_out_of_range_scores(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,map_full,map_radar\n0.1,1.5,0.5\n")
    with pytest.raises(ValueError, match="line 2"):
        load_trace(path)


def test_load_names_the_file_line_of_a_bad_row(tmp_path):
    # blank and comment lines between rows still count toward the line number
    path = tmp_path / "bad.csv"
    path.write_text("# seed = 1\nf0,map_full,map_radar\n0.1,0.5,0.4\n\n# note\n0.1,0.5,1.7\n")
    want = r"bad.csv: line 6: map_radar must lie in \[0, 1\], got 1.7$"
    with pytest.raises(ValueError, match=want):
        load_trace(path)


@pytest.mark.parametrize("expected", [None, ("radar",)])
def test_load_rejects_duplicate_subset_columns(tmp_path, expected):
    path = tmp_path / "bad.csv"
    path.write_text("# seed = 1\nf0,map_full,map_radar,map_radar\n0.1,0.5,0.4,0.3\n")
    with pytest.raises(ValueError, match="line 2: duplicate subset column map_radar$"):
        load_trace(path, expected_subsets=expected)


def test_load_rejects_unparsable_field(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,map_full,map_radar\n0.1,x,0.5\n")
    with pytest.raises(ValueError, match="line 2"):
        load_trace(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite_features(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"f0,f1,map_full,map_radar\n0.1,0.2,0.5,0.4\n0.1,{cell},0.5,0.4\n")
    with pytest.raises(ValueError, match="line 3: f1 must be finite"):
        load_trace(path)


def test_load_can_require_subsets(tmp_path, small_trace):
    path = tmp_path / "trace.csv"
    save_trace(small_trace, path)
    load_trace(path, expected_subsets=("radar_lidar", "radar"))
    with pytest.raises(ValueError):
        load_trace(path, expected_subsets=("radar_camera_right_lidar",))


def _one_frame(partial_keys=("radar_lidar", "radar"), partial=(0.7, 0.5)):
    return ScenarioTrace(np.zeros((1, 2)), [0.9], [partial], partial_keys)


def test_realized_map_paths():
    trace = _one_frame()
    assert realized_map(trace, 0, Action(0), all_arrived=False) == 0.9
    assert realized_map(trace, 0, Action(3), all_arrived=True) == 0.9
    assert realized_map(trace, 0, Action(2), all_arrived=False) == 0.7
    assert realized_map(trace, 0, Action(3), all_arrived=False) == 0.5
    assert type(realized_map(trace, 0, Action(2), all_arrived=False)) is float


def test_realized_map_reports_missing_subset():
    trace = _one_frame(("radar",), (0.5,))
    with pytest.raises(KeyError, match="radar"):
        realized_map(trace, 0, Action(2), all_arrived=False)


def test_trace_requires_consistent_frames():
    with pytest.raises(ValueError, match=r"map_full has shape \(1,\), expected \(2,\)"):
        ScenarioTrace(np.zeros((2, 3)), [0.5], [[0.4], [0.4]], ("radar",))
    with pytest.raises(ValueError, match="map_partial has shape"):
        ScenarioTrace(np.zeros((2, 3)), [0.5, 0.5], [[0.4], [0.4]], ("radar", "radar_lidar"))
    with pytest.raises(ValueError, match="features must be a 2-d array"):
        ScenarioTrace(np.zeros(3), [0.5], [[0.4]], ("radar",))
    with pytest.raises(ValueError, match="duplicate subset column map_radar"):
        ScenarioTrace(np.zeros((1, 3)), [0.5], [[0.4, 0.4]], ("radar", "radar"))


@pytest.mark.parametrize("cell, field, value, message", [
    ((2, 1), "features", np.nan, "frame 2: f1 must be finite"),
    ((1, 0), "features", np.inf, "frame 1: f0 must be finite"),
    ((1, 0), "features", -np.inf, "frame 1: f0 must be finite"),
    ((3,), "map_full", -0.1, r"frame 3: map_full must lie in \[0, 1\], got -0.1"),
    ((2, 1), "map_partial", 1.7, r"frame 2: map_radar must lie in \[0, 1\], got 1.7"),
    ((2, 0), "map_partial", np.nan, r"frame 2: map_radar_lidar must lie in \[0, 1\], got nan"),
])
def test_trace_rejects_bad_contents_naming_the_frame(cell, field, value, message):
    arrays = {"features": np.zeros((5, 2)), "map_full": np.full(5, 0.8),
              "map_partial": np.full((5, 2), 0.6)}
    arrays[field][cell] = value
    arrays["map_full"][4] = 7.0  # a later bad frame is not the one reported
    with pytest.raises(ValueError, match=f"^{message}$"):
        ScenarioTrace(**arrays, partial_keys=("radar_lidar", "radar"))


def test_trace_reports_features_before_scores_within_a_frame():
    with pytest.raises(ValueError, match="^frame 0: f1 must be finite$"):
        ScenarioTrace([[0.0, np.nan]], [1.5], [[0.5]], ("radar",))
