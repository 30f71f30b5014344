"""Tests of the benchmark's own code: span self time, tracing, output checks.

    python3 -m pytest -q bench/test_bench.py
"""

import copy
import json
import time

import pytest

import run
from run import Runner, import_package

import_package()

from offloadlab import cli, config, metrics, policies, scenario  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, self_times  # noqa: E402


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    # root [0, 10]; child a [1, 4] holding grandchild [2, 3]; child b [3.5, 6]
    # overlaps a, so together they cover [1, 6]; child c [8, 12] is clipped to 10
    parents = [-1, 0, 1, 0, 0]
    starts = [0.0, 1.0, 2.0, 3.5, 8.0]
    ends = [10.0, 4.0, 3.0, 6.0, 12.0]
    assert self_times(parents, starts, ends) == pytest.approx([3.0, 2.0, 1.0, 2.5, 4.0])


def _small_setup(n_frames):
    cfg = config.resolve_config()
    params = config.system_params(cfg)
    trace = scenario.generate_synthetic(
        config.generator_params(cfg), n_frames, 3, partial_counts=(2, 3),
        offload_order=params.offload_order)
    return cfg, params, trace


def test_traced_ragnostic_replay_counts_every_total_cost_call():
    n = 200
    cfg, params, trace = _small_setup(n)
    tracer = Tracer()
    tracer.install()
    try:
        metrics.evaluate(policies.RAgnosticPolicy(params), trace, config.channel_model(cfg),
                         config.queue_model(cfg), params, seeds=[0])
    finally:
        tracer.uninstall()
    out = tracer.summary(overhead_pct=0.0)
    # 3 in decide, 1 realized + 3 feasible + 1 rank in step, 1 all-local baseline
    assert out["cost.total_cost.calls"] == 8 * n + 1
    assert out["cost.min_energy_feasible.calls"] == n
    assert out["policies.RAgnosticPolicy.decide.calls"] == n
    assert out["env.OffloadEnv.step.calls"] == n
    assert out["metrics.evaluate.calls"] == 1
    assert round(out["cost.total_cost.distinct_share"], 3) == 0.5
    assert out["cost.total_cost.self_s"] > 0


def test_uninstall_restores_every_patched_name():
    from offloadlab import cost, env

    before = (cost.total_cost, env.total_cost, policies.min_energy_feasible,
              policies.RAgnosticPolicy.decide)
    tracer = Tracer()
    tracer.install()
    assert env.total_cost is not before[1]
    assert policies.min_energy_feasible is not before[2]
    tracer.uninstall()
    assert (cost.total_cost, env.total_cost, policies.min_energy_feasible,
            policies.RAgnosticPolicy.decide) == before


def test_traced_train_op_runs_one_train_step_per_step_once_buffer_holds_a_batch():
    frames, episodes = 50, 2
    cfg = config.resolve_config(None, {"train.episodes": str(episodes),
                                       "train.eps_decay_steps": "80"})
    _, _, trace = _small_setup(frames)
    tracer = Tracer()
    tracer.install()
    try:
        cli.train_on_trace(trace, cfg)
    finally:
        tracer.uninstall()
    out = tracer.summary(overhead_pct=0.0)
    steps = frames * episodes
    updates = steps - (cfg["train.batch_size"] - 1)
    assert out["agent.ReplayBuffer.push.calls"] == steps
    assert out["agent.act.calls"] == steps
    assert out["agent.train_step.calls"] == updates
    assert out["agent.ReplayBuffer.sample.calls"] == updates
    assert out["nn.Adam.step.calls"] == updates
    # two next-state forwards per update, at batch size
    assert out["agent.QNetwork.forward.batch.calls"] == 2 * updates
    assert out["agent.QNetwork.forward.b1.calls"] == round(
        out["agent.act.greedy_share"] * steps)
    assert 0.0 < out["agent.act.greedy_share"] < 1.0


class _SleepingWorkload:
    """Rounds of two ops that each sleep 10 ms."""

    TRACED_ROUNDS = 3

    def round(self, r):
        return [r, r]

    def run(self, key):
        time.sleep(0.01)
        return key

    def check(self, key, output):
        pass

    def items(self, key):
        return 1

    def key_name(self, key):
        return str(key)

    def kind(self, key):
        return "sleep"


class _CountingTracer:
    cost_calls = cost_distinct = 0

    def __init__(self):
        self.installs = 0

    def install(self):
        self.installs += 1

    def uninstall(self):
        pass


@pytest.mark.parametrize("seconds", [0.0, 0.2])
def test_traced_window_traces_the_same_rounds_whatever_its_length(seconds):
    tracer = _CountingTracer()
    timed = Runner(_SleepingWorkload()).window(seconds, tracer)
    assert sorted({op["op"] for op in timed if op["traced"]}) == ["1", "3", "5"]
    assert tracer.installs == 2 * 3
    assert sum(op["seconds"] for op in timed) >= seconds


def test_op_p50_is_a_median_of_per_kind_medians():
    ops = [{"kind": kind, "ref_seconds": ms / 1e3}
           for kind, ms in [("a", 1), ("a", 1), ("a", 1), ("a", 100), ("b", 10), ("c", 20)]]
    assert run.kind_median_ms(ops) == pytest.approx(10.0)


@pytest.fixture(scope="module")
def goldens():
    return workloads.load_goldens()


def _failed_after_one_op(workload, key):
    runner = Runner(workload)
    rec, output = runner.run_op(key)
    runner.check_op(rec, key, output)
    return runner.failed


def test_replay_op_matches_golden_and_reference(goldens, tmp_path):
    wl = workloads.Replay(0, tmp_path, goldens=goldens)
    wl.setup()
    key = wl.round(0)[0]
    assert _failed_after_one_op(wl, key) == 0
    ref, want = wl.reference(key), wl.goldens[wl.key_name(key)]
    assert ref.pop("counts") == want["counts"]
    assert ref == pytest.approx({k: v for k, v in want.items() if k != "counts"}, rel=1e-9)


@pytest.mark.parametrize("name, field", [("replay", "mean_reward"), ("train", "checkpoint")])
def test_wrong_golden_value_is_a_failed_op(goldens, tmp_path, name, field):
    bad = copy.deepcopy(goldens)
    wl = workloads.WORKLOADS[name](0, tmp_path, goldens=bad)
    wl.setup()
    key = wl.round(0)[0]
    target = wl.goldens[wl.key_name(key)] if name == "replay" else wl.goldens
    target[field] = target[field] + 1.0 if name == "replay" else "0" * 64
    assert _failed_after_one_op(wl, key) == 1


def test_reported_metrics_match_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == {name: run._layer_unit(name) for name in spans.per_layer_metric_names()}


def test_compare_labels_follow_the_bound_and_the_pair_rule():
    from compare import label

    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    assert label(parent, [v * 1.3 for v in parent], 0.25, "higher") == "improved"
    assert label(parent, [v * 1.3 for v in parent], 0.25, "lower") == "worse"
    assert label(parent, [v * 1.1 for v in parent], 0.25, "lower") == "unchanged"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert label(parent, noisy, 0.25, "lower") == "unresolved"
