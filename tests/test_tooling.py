"""Guards on the repository's tooling that the package's own tests would miss."""

import importlib
import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from offloadlab.agent import QNetwork
from offloadlab.channel import ChannelModel
from offloadlab.cost import SystemParams
from offloadlab.metrics import evaluate, sweep_channel, write_sweep
from offloadlab.policies import DrlPolicy
from offloadlab.queueing import QueueModel
from offloadlab.scenario import GeneratorParams, generate_synthetic, save_trace

SPANS_FILE = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves_in_the_package():
    # bench/spans.py patches these names by lookup: a renamed function or
    # method would break every traced benchmark run, so it fails here first
    spans = _load_spans()
    missing = []
    for module, attr in spans.SPANS:
        owner = importlib.import_module(f"{spans.PACKAGE}.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            # the tracer reads the class's own __dict__, so an inherited
            # method would not do
            target = vars(cls).get(meth) if cls is not None else None
        else:
            target = getattr(owner, attr, None)
        if not callable(target):
            missing.append(f"{module}.{attr}")
    assert not missing, f"bench/spans.py traces names the package lacks: {missing}"
    assert {module for module, _ in spans.SPANS} <= set(spans.LAYERS)


def _traced_peak_mib(run) -> float:
    run()  # warm-up: first calls import and cache numpy internals
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# Bounds on the traced peak of the chunked writers, below the 15.7 MiB and
# 10.4 MiB of the per-row writers they replaced: formatting a whole table at
# once, or building one object per sweep row, brings those peaks back.
@pytest.mark.parametrize("writer, bound_mib", [("save_trace", 3.0), ("sweep", 3.0)])
def test_writers_keep_a_bounded_traced_peak(tmp_path, writer, bound_mib):
    if writer == "save_trace":
        trace = generate_synthetic(GeneratorParams(), 20_000, seed=3)
        peak = _traced_peak_mib(lambda: save_trace(trace, tmp_path / "trace.csv"))
    else:
        params = SystemParams()
        grid = [2.0 + 0.001 * i for i in range(10_001)]
        peak = _traced_peak_mib(lambda: write_sweep(
            sweep_channel(params, grid, fixed_q_ms=15.0), params, "phi_mbps",
            tmp_path / "sweep.csv"))
    assert peak < bound_mib, f"{writer} traced peak {peak:.2f} MiB"


def test_drl_replay_keeps_a_bounded_traced_peak():
    # one drl evaluate of 10,000 frames peaks at 1.3 MiB with the forward run
    # in FORWARD_ROWS slices and at 3.0 MiB with one forward per replay block:
    # a larger BLOCK_FRAMES must not take the forward's activations with it
    params = SystemParams()
    trace = generate_synthetic(GeneratorParams(), 10_000, seed=0)
    net = QNetwork(trace.features.shape[1], params.action_set, rng=np.random.default_rng(0))
    peak = _traced_peak_mib(lambda: evaluate(DrlPolicy(net), trace, ChannelModel(sigma=8.0),
                                             QueueModel(), params, seeds=1))
    assert peak < 2.0, f"drl evaluate traced peak {peak:.2f} MiB"
