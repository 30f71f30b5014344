"""The benchmark's three workloads and the checks on their outputs.

Each workload builds its inputs from the workload seed, runs one op at a time
through offloadlab's public functions, and checks every op's output outside
the timed region. A check raises ``CheckFailed``; the runner counts that, or
any exception from the op itself, as a failed op.

Modules are looked up at call time (``metrics.evaluate``, not a name bound at
import) so that a tracer installed on the package sees the benchmark's calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from offloadlab import agent, cli, config, env, metrics, policies, scenario

BENCH_DIR = Path(__file__).resolve().parent
CHECKPOINT = BENCH_DIR / "drl.ckpt"
GOLDENS = BENCH_DIR / "goldens.json"
# workload seeds whose outputs goldens.json pins; other seeds are checked
# against a reference computation instead
GOLDEN_SEEDS = tuple(range(10))
ENERGY_REL_TOL = 1e-9


class CheckFailed(Exception):
    """An op's output disagrees with its golden or reference value."""


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def load_goldens(path=GOLDENS) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _expect_equal(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, want {want!r}")


def _grid_size(grid: str) -> int:
    """Points of a ``start:stop:step`` grid whose span is a whole number of steps."""
    start, stop, step = (float(v) for v in grid.split(":"))
    return int(round((stop - start) / step)) + 1


def _partial_counts(params) -> tuple[int, ...]:
    return tuple(a.i for a in params.action_set if a.i > 0)


class Workload:
    """One kind of traffic: ``setup`` builds inputs, ``run`` is the timed op."""

    name = ""
    # rounds after which the op schedule repeats; goldens cover one period
    PERIOD = 1
    # rounds a traced run traces, whatever the host's speed, so that its span
    # counts and self times measure the same work in every run
    TRACED_ROUNDS = 4

    def __init__(self, seed: int, work_dir: Path, goldens: dict | None = None):
        self.seed = seed
        self.work_dir = Path(work_dir)
        all_goldens = load_goldens() if goldens is None else goldens
        self.goldens = all_goldens.get(self.name, {}).get(str(seed))

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, r: int) -> list:
        """Op keys of round ``r``; a run is a whole number of rounds."""
        raise NotImplementedError

    def run(self, key):
        raise NotImplementedError

    def items(self, key) -> int:
        raise NotImplementedError

    def check(self, key, output) -> None:
        raise NotImplementedError

    def record(self, key, output) -> dict:
        """Golden values of one op's output, as stored in goldens.json."""
        raise NotImplementedError

    def key_name(self, key) -> str:
        return str(key)

    def kind(self, key) -> str:
        """Ops of one kind do the same work; op_p50_ms is a median over kinds."""
        return self.key_name(key)


class Replay(Workload):
    """metrics.evaluate of one policy at one queue load and one replay seed."""

    name = "replay"
    POLICIES = ("local", "ragnostic", "oracle", "drl")
    LOADS = (0.9, 0.97, 0.99)
    REPLAY_SEEDS = 2
    PERIOD = REPLAY_SEEDS
    # one round already replays every policy at every load
    TRACED_ROUNDS = 1

    def setup(self) -> None:
        cfg = config.resolve_config()
        self.cfg = cfg
        self.params = config.system_params(cfg)
        self.reward_params = config.reward_params(cfg)
        self.channel = config.channel_model(cfg)
        self.queues = {rho: config.queue_model(cfg, rho=rho) for rho in self.LOADS}
        self.trace = scenario.generate_synthetic(
            config.generator_params(cfg), cfg["scenario.n_frames"], self.seed,
            partial_counts=_partial_counts(self.params),
            offload_order=self.params.offload_order)
        net = agent.load_checkpoint(CHECKPOINT)
        self.policies = {name: policies.make_policy(name, self.params, net)
                         for name in self.POLICIES}
        self._reference: dict = {}

    def round(self, r: int) -> list:
        replay_seed = 1000 * self.seed + r % self.REPLAY_SEEDS
        return [(policy, rho, replay_seed) for rho in self.LOADS for policy in self.POLICIES]

    def run(self, key):
        policy, rho, replay_seed = key
        return metrics.evaluate(
            self.policies[policy], self.trace, self.channel, self.queues[rho], self.params,
            reward_params=self.reward_params, seeds=[replay_seed],
            reward_basis=self.cfg["reward_basis"])

    def items(self, key) -> int:
        return len(self.trace)

    def key_name(self, key) -> str:
        policy, rho, replay_seed = key
        return f"{policy}/{rho}/{replay_seed}"

    def kind(self, key) -> str:
        policy, rho, _ = key
        return f"{policy}/{rho}"

    def record(self, key, report) -> dict:
        return {
            "counts": [report.actions[a.name].count for a in self.params.action_set],
            "mean_reward": report.mean_reward,
            "risky_pct": report.risky_pct,
            "deadline_miss_pct": report.deadline_miss_pct,
            "total_energy_j": report.total_energy_j,
        }

    def check(self, key, report) -> None:
        got = self.record(key, report)
        if self.goldens is not None:
            want = self.goldens.get(self.key_name(key))
            if want is None:
                raise CheckFailed(f"no golden for replay op {self.key_name(key)}")
        else:
            if key not in self._reference:
                self._reference[key] = self.reference(key)
            want = self._reference[key]
        for field in ("counts", "mean_reward", "risky_pct", "deadline_miss_pct"):
            _expect_equal(f"{self.key_name(key)} {field}", got[field], want[field])
        e_got, e_want = got["total_energy_j"], want["total_energy_j"]
        if not math.isclose(e_got, e_want, rel_tol=ENERGY_REL_TOL, abs_tol=0.0):
            raise CheckFailed(f"{self.key_name(key)} total_energy_j: got {e_got!r}, "
                              f"want {e_want!r} within {ENERGY_REL_TOL} relative")

    def reference(self, key) -> dict:
        """The op's outputs from a plain OffloadEnv reset/step loop."""
        policy_name, rho, replay_seed = key
        policy = self.policies[policy_name]
        sim = env.OffloadEnv(self.trace, self.channel, self.queues[rho], self.params,
                             reward_params=self.reward_params,
                             reward_basis=self.cfg["reward_basis"])
        counts = dict.fromkeys(self.params.action_set, 0)
        rewards, energies = [], []
        offloaded = risky = missed = 0
        state = sim.reset(seed=replay_seed)
        while not sim.done:
            frame = self.trace.frames[sim.frame_index]
            result = sim.step(policy.decide(state, frame.map_full).action)
            counts[result.action] += 1
            rewards.append(result.reward)
            energies.append(result.cost.e_total_j)
            missed += not result.deadline_met
            if result.action.i > 0:
                offloaded += 1
                risky += frame.map_full < self.params.map_th
            state = result.next_state
        n = len(rewards)
        return {
            "counts": [counts[a] for a in self.params.action_set],
            "mean_reward": float(np.mean(rewards)),
            "risky_pct": 100.0 * risky / offloaded if offloaded else 0.0,
            "deadline_miss_pct": 100.0 * missed / n,
            "total_energy_j": math.fsum(energies),
        }


class Train(Workload):
    """cli.train_on_trace with the default training config, scaled down.

    The trace length, the episode count and ``train.eps_decay_steps`` keep the
    default's proportions (decay over 5/6 of all steps), so every op explores
    first and ends greedy; three episodes cover the whole default load cycle.
    """

    name = "train"
    FRAMES = 400
    EPISODES = 3
    DECAY_STEPS = FRAMES * EPISODES * 5 // 6

    def setup(self) -> None:
        self.cfg = config.resolve_config(None, {
            "train.episodes": str(self.EPISODES),
            "train.eps_decay_steps": str(self.DECAY_STEPS),
        })
        self.work_dir.mkdir(parents=True, exist_ok=True)
        params = config.system_params(self.cfg)
        self.trace = scenario.generate_synthetic(
            config.generator_params(self.cfg), self.FRAMES, self.seed,
            partial_counts=_partial_counts(params), offload_order=params.offload_order)
        self._first: dict | None = None

    def round(self, r: int) -> list:
        return ["train"]

    def run(self, key):
        return cli.train_on_trace(self.trace, self.cfg)

    def items(self, key) -> int:
        return self.FRAMES * self.EPISODES

    def record(self, key, output) -> dict:
        net, logs = output
        ckpt = self.work_dir / "agent.ckpt"
        log = self.work_dir / "agent.log.csv"
        agent.save_checkpoint(net, ckpt)
        agent.write_training_log(logs, log)
        return {"checkpoint": sha256_file(ckpt), "log": sha256_file(log)}

    def check(self, key, output) -> None:
        net, logs = output
        _expect_equal("episodes logged", len(logs), self.EPISODES)
        eps_end = self.cfg["train.eps_end"]
        if not (logs[0].epsilon > eps_end and logs[-1].epsilon == eps_end):
            raise CheckFailed("op did not pass through both exploring and greedy phases")
        got = self.record(key, output)
        want = self.goldens if self.goldens is not None else self._first
        if want is None:
            self._first = want = got
        for field in ("checkpoint", "log"):
            _expect_equal(f"train {field} sha256", got[field], want[field])


class LabFiles(Workload):
    """One file round: generate, load_trace, then a channel and a queue sweep.

    Every step but load_trace goes through ``cli.main`` in-process and writes
    its sha256 manifest next to its output.
    """

    name = "lab_files"
    FRAMES = 20_000
    CHANNEL_GRID = "2:12:0.001"
    QUEUE_GRID = "0:200:0.02"

    def setup(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.paths = {name: self.work_dir / f"{name}.csv"
                      for name in ("trace", "sweep_channel", "sweep_queue")}
        self.grid_rows = {"sweep_channel": _grid_size(self.CHANNEL_GRID),
                          "sweep_queue": _grid_size(self.QUEUE_GRID)}
        self._first: dict | None = None

    def round(self, r: int) -> list:
        return ["files"]

    def run(self, key):
        p = self.paths
        with contextlib.redirect_stdout(io.StringIO()):
            self._cli("generate", "--out", p["trace"], "--seed", self.seed,
                      "--frames", self.FRAMES)
            loaded = scenario.load_trace(p["trace"])
            self._cli("sweep", "channel", "--grid", self.CHANNEL_GRID, "--out", p["sweep_channel"])
            self._cli("sweep", "queue", "--grid", self.QUEUE_GRID, "--out", p["sweep_queue"])
        return loaded

    @staticmethod
    def _cli(*argv) -> None:
        argv = [str(a) for a in argv]
        if cli.main(argv) != 0:
            raise RuntimeError(f"offloadlab {' '.join(argv[:2])} failed")

    def items(self, key) -> int:
        # trace rows written, the same rows parsed back, and every sweep row
        return 2 * self.FRAMES + sum(self.grid_rows.values())

    @staticmethod
    def trace_digest(trace) -> str:
        digest = hashlib.sha256()
        digest.update(np.stack([f.features for f in trace.frames]).tobytes())
        digest.update(np.array([[f.map_full, *(f.map_partial[k] for k in trace.partial_keys)]
                                for f in trace.frames]).tobytes())
        return digest.hexdigest()

    def record(self, key, loaded) -> dict:
        out = {name: sha256_file(path) for name, path in self.paths.items()}
        out["loaded"] = self.trace_digest(loaded)
        return out

    def check(self, key, loaded) -> None:
        got = self.record(key, loaded)
        _expect_equal("frames loaded", len(loaded), self.FRAMES)
        for name, rows in self.grid_rows.items():
            with open(self.paths[name], "rb") as fh:
                _expect_equal(f"{name} data rows", sum(1 for _ in fh) - 1, rows)
        for name, path in self.paths.items():
            with open(f"{path}.manifest.json", "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
            _expect_equal(f"{name} manifest sha256", manifest["outputs"].get(str(path)),
                          got[name])
        want = self.goldens if self.goldens is not None else self._first
        if want is None:
            # no golden: the first op must round-trip losslessly, later ops
            # must repeat it byte for byte
            again = self.work_dir / "roundtrip.csv"
            scenario.save_trace(loaded, again)
            _expect_equal("trace CSV round trip sha256", sha256_file(again), got["trace"])
            self._first = want = got
        for name in ("trace", "loaded", "sweep_channel", "sweep_queue"):
            _expect_equal(f"{name} sha256", got[name], want[name])


WORKLOADS = {cls.name: cls for cls in (Replay, Train, LabFiles)}
