import numpy as np
import pytest

from offloadlab.cost import Action
from offloadlab.scenario import (
    FrameRecord,
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
    for fa, fb in zip(a.frames, b.frames):
        assert fa.map_full == fb.map_full
        np.testing.assert_array_equal(fa.features, fb.features)
    assert any(fa.map_full != fc.map_full for fa, fc in zip(a.frames, c.frames))


def test_generated_scores_are_valid(small_trace):
    assert small_trace.k == 16
    assert small_trace.partial_keys == ("radar_lidar", "radar")
    for f in small_trace.frames:
        assert 0.0 <= f.map_full <= 1.0
        # reduced fusion never beats the full stack, and shrinks with the subset
        assert f.map_partial["radar_lidar"] <= f.map_full
        assert f.map_partial["radar"] <= f.map_partial["radar_lidar"]


def test_difficulty_is_persistent(small_trace):
    m = np.array(small_trace.map_full_values())
    lag1 = np.corrcoef(m[:-1], m[1:])[0, 1]
    assert lag1 > 0.8


def test_default_trace_difficulty_level(small_trace):
    m = np.array(small_trace.map_full_values())
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


def test_save_load_round_trip(tmp_path, small_trace):
    path = tmp_path / "trace.csv"
    save_trace(small_trace, path)
    back = load_trace(path)
    assert len(back) == len(small_trace)
    assert back.k == small_trace.k
    assert back.partial_keys == small_trace.partial_keys
    for fa, fb in zip(small_trace.frames, back.frames):
        assert fb.map_full == pytest.approx(fa.map_full, abs=5e-7)
        np.testing.assert_allclose(fb.features, fa.features, atol=5e-7)
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


def test_realized_map_paths():
    frame = FrameRecord(
        features=np.zeros(2),
        map_full=0.9,
        map_partial={"radar_lidar": 0.7, "radar": 0.5},
    )
    assert realized_map(frame, Action(0), all_arrived=False) == 0.9
    assert realized_map(frame, Action(3), all_arrived=True) == 0.9
    assert realized_map(frame, Action(2), all_arrived=False) == 0.7
    assert realized_map(frame, Action(3), all_arrived=False) == 0.5


def test_realized_map_reports_missing_subset():
    frame = FrameRecord(features=np.zeros(2), map_full=0.9, map_partial={"radar": 0.5})
    with pytest.raises(KeyError, match="radar"):
        realized_map(frame, Action(2), all_arrived=False)


def test_trace_requires_consistent_frames():
    f1 = FrameRecord(np.zeros(3), 0.5, {"radar": 0.4})
    f2 = FrameRecord(np.zeros(2), 0.5, {"radar": 0.4})
    with pytest.raises(ValueError):
        ScenarioTrace([f1, f2], k=3, partial_keys=("radar",))
