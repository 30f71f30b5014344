"""Outside-in span tracing of offloadlab's public entry points.

A ``Tracer`` wraps each entry point listed in ``SPANS`` from outside the
package: it replaces the function (or class attribute) in every loaded
``offloadlab`` module that holds it, because ``env``, ``metrics``, ``policies``
and ``cli`` import most of them by name, so patching the defining module alone
would miss their calls. Nothing in the package itself changes.

Spans are kept in memory as flat arrays (name, parent, start, end) and are
only summarised when the run ends. A span's self time is its duration minus
the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

PACKAGE = "offloadlab"
# (module, attribute path) of every traced entry point; a dotted path names a
# method on a class defined in that module.
SPANS: tuple[tuple[str, str], ...] = (
    ("scenario", "generate_synthetic"),
    ("scenario", "save_trace"),
    ("scenario", "load_trace"),
    ("scenario", "realized_map"),
    ("cost", "total_cost"),
    ("cost", "min_energy_feasible"),
    ("cost", "feasible_actions"),
    ("channel", "sample_capacity"),
    ("channel", "sample_capacities"),
    ("queueing", "sample_delay"),
    ("queueing", "sample_delays"),
    ("env", "OffloadEnv.reset"),
    ("env", "OffloadEnv.step"),
    ("env", "reward_with_case"),
    ("policies", "LocalPolicy.decide"),
    ("policies", "RAgnosticPolicy.decide"),
    ("policies", "OraclePolicy.decide"),
    ("policies", "DrlPolicy.decide"),
    ("agent", "train"),
    ("agent", "act"),
    ("agent", "train_step"),
    ("agent", "ReplayBuffer.push"),
    ("agent", "ReplayBuffer.sample"),
    ("agent", "QNetwork.forward"),
    ("agent", "QNetwork.forward_cache"),
    ("agent", "QNetwork.backward"),
    ("agent", "QNetwork.copy_from"),
    ("agent", "save_checkpoint"),
    ("agent", "load_checkpoint"),
    ("nn", "MLP.forward"),
    ("nn", "MLP.backward"),
    ("nn", "Adam.step"),
    ("metrics", "evaluate"),
    ("metrics", "sweep_channel"),
    ("metrics", "sweep_queue"),
    ("metrics", "write_sweep"),
    ("metrics", "write_eval_reports"),
    ("cli", "main"),
    ("cli", "write_manifest"),
    ("cli", "train_on_trace"),
    ("config", "resolve_config"),
)

# QNetwork.forward is reported as two spans, split by batch size, because the
# batch-1 forward (acting) and the batch forward (training targets) are
# different workloads with different costs.
FORWARD = "agent.QNetwork.forward"
FORWARD_B1 = FORWARD + ".b1"
FORWARD_BATCH = FORWARD + ".batch"
TOTAL_COST = "cost.total_cost"
ENV_STEP = "env.OffloadEnv.step"
ACT = "agent.act"

LAYERS = ("scenario", "cost", "channel", "queueing", "env", "policies", "agent",
          "nn", "metrics", "cli", "config")


def span_names() -> list[str]:
    """Every reported span name, in ``SPANS`` order."""
    out = []
    for module, attr in SPANS:
        name = f"{module}.{attr}"
        out.extend((FORWARD_B1, FORWARD_BATCH) if name == FORWARD else (name,))
    return out


def per_layer_metric_names() -> list[str]:
    """Names of every metric ``Tracer.summary`` reports, in a stable order."""
    names = []
    for span in span_names():
        names += [f"{span}.calls", f"{span}.self_s"]
    names += [f"{layer}.self_share" for layer in LAYERS]
    names += [f"{TOTAL_COST}.distinct_share", f"{ACT}.greedy_share", "trace.overhead_pct"]
    return names


def self_times(parents, starts, ends) -> array:
    """Per-span duration minus the union of its children's intervals.

    Children are clipped to their parent's interval. Spans must be listed in
    start order, which is the order a tracer records them in.
    """
    n = len(starts)
    # flat double arrays: a traced run holds millions of spans
    covered = array("d", bytes(8 * n))
    covered_until = array("d", starts)
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        s = max(starts[i], covered_until[p])
        e = min(ends[i], ends[p])
        if e > s:
            covered[p] += e - s
            covered_until[p] = e
    return array("d", (ends[i] - starts[i] - covered[i] for i in range(n)))


def _sites(obj) -> list[tuple[object, str]]:
    """(module, name) of every loaded offloadlab module binding ``obj``."""
    out = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in vars(mod).items():
            if value is obj:
                out.append((mod, attr))
    return out


class Tracer:
    """Records spans around offloadlab's entry points while installed."""

    def __init__(self):
        self.names: list[str] = span_names()
        self._nid = {name: i for i, name in enumerate(self.names)}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.wall_s = 0.0
        self._installed_at: float | None = None
        # distinct (action, phi, q) total_cost evaluations within one decision
        # window: a window closes when an OffloadEnv.step returns or an op ends
        self.cost_calls = 0
        self.cost_distinct = 0
        self._window: set = set()
        self._patches = self._plan()

    def _plan(self) -> list[tuple[object, str, object, object]]:
        # load every module first so that _sites sees all by-name imports
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS}
        patches = []
        for module, attr in SPANS:
            mod = mods[module]
            name = f"{module}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                patches.append((cls, meth, orig, self._wrap(orig, name)))
            else:
                orig = getattr(mod, attr)
                wrapper = self._wrap(orig, name)
                for site, site_attr in _sites(orig):
                    patches.append((site, site_attr, orig, wrapper))
        return patches

    def install(self) -> None:
        if self._installed_at is not None:
            raise RuntimeError("tracer already installed")
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._installed_at = time.perf_counter()

    def uninstall(self) -> None:
        if self._installed_at is None:
            raise RuntimeError("tracer not installed")
        self.wall_s += time.perf_counter() - self._installed_at
        self._installed_at = None
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)
        self._window.clear()

    def _wrap(self, fn, name: str):
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter
        window = self._window
        tracer = self

        if name == FORWARD:
            nid_b1, nid_batch = self._nid[FORWARD_B1], self._nid[FORWARD_BATCH]

            def pick(args, kwargs):
                features = args[1] if len(args) > 1 else kwargs["features"]
                shape = getattr(features, "shape", None)
                one = shape is None or len(shape) == 1 or shape[0] == 1
                return nid_b1 if one else nid_batch
        else:
            nid = self._nid[name]

            def pick(args, kwargs):
                return nid

        def on_call(args, kwargs):
            pass

        def on_return():
            pass

        if name == TOTAL_COST:
            def on_call(args, kwargs):
                key = args[1:] + tuple(sorted(kwargs.items()))
                tracer.cost_calls += 1
                if key not in window:
                    window.add(key)
                    tracer.cost_distinct += 1
        elif name == ENV_STEP:
            on_return = window.clear

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            on_call(args, kwargs)
            idx = len(starts)
            name_ids.append(pick(args, kwargs))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                on_return()

        return wrapper

    def summary(self, overhead_pct: float, time_scale: float = 1.0) -> dict[str, float]:
        """Per-span calls and self seconds (times ``time_scale``), per-layer
        self shares of the traced wall time, and ratios."""
        selfs = self_times(self.parents, self.starts, self.ends)
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for nid, s in zip(self.name_ids, selfs):
            calls[nid] += 1
            self_s[nid] += s
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = self_s[i] * time_scale
        for layer in LAYERS:
            layer_s = sum(s for name, s in zip(self.names, self_s)
                          if name.split(".", 1)[0] == layer)
            out[f"{layer}.self_share"] = layer_s / self.wall_s if self.wall_s > 0 else 0.0
        out[f"{TOTAL_COST}.distinct_share"] = (
            self.cost_distinct / self.cost_calls if self.cost_calls else 0.0)
        out[f"{ACT}.greedy_share"] = self.greedy_share()
        out["trace.overhead_pct"] = overhead_pct
        return out

    def greedy_share(self) -> float:
        """Share of ``act`` calls that ran a batch-1 forward (no exploration)."""
        act, fwd = self._nid[ACT], self._nid[FORWARD_B1]
        n_act = 0
        greedy = set()
        for i, nid in enumerate(self.name_ids):
            if nid == act:
                n_act += 1
            elif nid == fwd:
                p = self.parents[i]
                if p >= 0 and self.name_ids[p] == act:
                    greedy.add(p)
        return len(greedy) / n_act if n_act else 0.0
