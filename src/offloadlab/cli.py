"""Command-line interface: generate traces, fit the channel, train, evaluate, sweep.

Every file-producing run writes a ``<output>.manifest.json`` recording the
resolved configuration, the seeds, and the SHA-256 of each output, which is
enough to reproduce the run bit for bit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .agent import (
    TrainConfig,
    TrainingDiverged,
    load_checkpoint,
    save_checkpoint,
    train,
    write_training_log,
)
from .atomic import write_atomic
from .channel import fit_rayleigh, read_rate_trace
from .config import (
    ConfigError,
    channel_model,
    dump_config,
    generator_params,
    parse_config_file,
    parse_overrides,
    queue_model,
    resolve_config,
    reward_params,
    system_params,
    train_config,
)
from .env import OffloadEnv
from .metrics import evaluate, sweep_channel, sweep_queue, write_eval_reports, write_sweep
from .policies import make_policy
from .scenario import generate_synthetic, load_trace, save_trace


def _resolved_config(args) -> dict:
    file_values = parse_config_file(args.config) if args.config else None
    return resolve_config(file_values, parse_overrides(args.set))


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(primary_output, command: str, cfg: dict, seeds, outputs) -> str:
    manifest = {
        "version": __version__,
        "command": command,
        "config": {k: list(v) if isinstance(v, tuple) else v for k, v in sorted(cfg.items())},
        "seeds": list(seeds),
        "outputs": {str(p): _sha256(p) for p in outputs},
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    path = f"{primary_output}.manifest.json"
    write_atomic(path, lambda fh: fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n"))
    return path


def _parse_grid(text: str) -> list[float]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if not (step > 0 and 0 <= stop - start < float("inf")):
            raise ConfigError(f"bad grid range {text!r}")
        n = int(round((stop - start) / step)) + 1
        return [start + i * step for i in range(n) if start + i * step <= stop + 1e-12]
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse grid {text!r}") from None


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse seeds {text!r}") from None
    if not seeds:
        raise ConfigError("need at least one seed")
    return seeds


def training_env_factory(trace, cfg: dict):
    """Environment factory for train(): cycles the server load across
    episodes through ``train.rho_cycle`` so the agent sees every regime;
    a bad load fails here, before any episode runs."""
    params = system_params(cfg)
    rparams = reward_params(cfg)
    channel = channel_model(cfg)
    cycle = cfg["train.rho_cycle"]
    try:
        queues = [queue_model(cfg, rho=rho) for rho in cycle or (cfg["rho"],)]
    except ConfigError as exc:
        raise ConfigError(f"train.rho_cycle: {exc}" if cycle else str(exc)) from None

    def factory(episode: int) -> OffloadEnv:
        return OffloadEnv(
            trace,
            channel,
            queues[episode % len(queues)],
            params,
            reward_params=rparams,
            reward_basis=cfg["reward_basis"],
        )

    return factory


def train_on_trace(trace, cfg: dict):
    """Train with the resolved configuration; returns (net, episode logs)."""
    return train(training_env_factory(trace, cfg), train_config(cfg))


def cmd_generate(args) -> int:
    cfg = _resolved_config(args)
    gen = generator_params(cfg)
    seed = args.seed if args.seed is not None else cfg["scenario.seed"]
    n_frames = args.frames if args.frames is not None else cfg["scenario.n_frames"]
    params = system_params(cfg)
    counts = tuple(a.i for a in params.action_set if a.i > 0)
    trace = generate_synthetic(
        gen, n_frames, seed, partial_counts=counts, offload_order=params.offload_order
    )
    save_trace(trace, args.out)
    write_manifest(args.out, "generate", cfg, [seed], [args.out])
    print(f"wrote {n_frames} frames to {args.out}")
    return 0


def cmd_fit_channel(args) -> int:
    samples = read_rate_trace(args.trace)
    model = fit_rayleigh(samples, floor_mbps=args.floor)
    mean_obs = float(np.mean(samples))
    print(f"samples {len(samples)}")
    print(f"sigma {model.sigma!r}")
    print(f"mean_mbps {model.mean_mbps!r}")
    print(f"observed_mean_mbps {mean_obs!r}")
    return 0


def cmd_train(args) -> int:
    cfg = _resolved_config(args)
    trace = load_trace(args.trace)
    net, logs = train_on_trace(trace, cfg)
    save_checkpoint(net, args.out)
    log_path = args.log if args.log else f"{args.out}.log.csv"
    write_training_log(logs, log_path)
    write_manifest(args.out, "train", cfg, [cfg["train.seed"]], [args.out, log_path])
    print(f"trained {len(logs)} episodes; checkpoint {args.out}, log {log_path}")
    return 0


def _check_checkpoint_fits(path, net, trace, params) -> None:
    """Reject a network trained for another feature width, action set or deadline."""
    if net.k != trace.k:
        raise ConfigError(f"checkpoint {path} takes {net.k} features, the trace has {trace.k}")
    if net.actions != params.action_set:
        raise ConfigError(
            f"checkpoint {path} acts over {[a.name for a in net.actions]}, "
            f"the run's action_set is {[a.name for a in params.action_set]}"
        )
    if net.q_norm != params.l_th_ms:
        raise ConfigError(
            f"checkpoint {path} normalizes queue delay by {net.q_norm!r} ms, "
            f"the run's l_th_ms is {params.l_th_ms!r}"
        )


def cmd_eval(args) -> int:
    cfg = _resolved_config(args)
    trace = load_trace(args.trace)
    params = system_params(cfg)
    net = None
    if args.policy == "drl":
        if not args.checkpoint:
            raise ConfigError("--policy drl requires --checkpoint")
        net = load_checkpoint(args.checkpoint)
        _check_checkpoint_fits(args.checkpoint, net, trace, params)
    policy = make_policy(args.policy, params, net)
    seeds = _parse_seeds(args.seeds)
    report = evaluate(
        policy,
        trace,
        channel_model(cfg),
        queue_model(cfg),
        params,
        reward_params=reward_params(cfg),
        seeds=seeds,
        reward_basis=cfg["reward_basis"],
    )
    write_eval_reports([report], params, args.out)
    write_manifest(args.out, f"eval {args.policy}", cfg, seeds, [args.out])
    print(
        f"{args.policy}: risky {report.risky_pct:.2f}%, "
        f"energy reduction {report.energy_reduction_pct:.2f}%, report {args.out}"
    )
    return 0


def cmd_sweep(args) -> int:
    cfg = _resolved_config(args)
    params = system_params(cfg)
    grid = _parse_grid(args.grid)
    if args.kind == "channel":
        table = sweep_channel(params, grid, fixed_q_ms=args.fixed_q)
        write_sweep(table, params, "phi_mbps", args.out)
    else:
        table = sweep_queue(params, grid, fixed_phi_mbps=args.fixed_phi)
        write_sweep(table, params, "q_ms", args.out)
    write_manifest(args.out, f"sweep {args.kind}", cfg, [], [args.out])
    print(f"wrote {len(table)} rows to {args.out}")
    return 0


def cmd_dump_config(args) -> int:
    print(dump_config(_resolved_config(args)), end="")
    return 0


def _add_common(parser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one config key (repeatable; beats the file)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="offloadlab",
        description="Trace-driven offloading simulator and policy laboratory",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("generate", help="write a synthetic scenario trace CSV")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, help="generator seed (default scenario.seed)")
    p.add_argument("--frames", type=int, help="frame count (default scenario.n_frames)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("fit-channel", help="fit the capacity model to a throughput trace")
    p.add_argument("trace", help="text file, one Mbit/s sample per line")
    p.add_argument("--floor", type=float, default=0.1, help="capacity floor in Mbit/s")
    p.set_defaults(func=cmd_fit_channel)

    p = sub.add_parser("train", help="train the agent on a scenario trace")
    _add_common(p)
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--log", help="training log CSV (default <out>.log.csv)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate one policy over a trace")
    _add_common(p)
    p.add_argument("--trace", required=True)
    p.add_argument("--policy", required=True, choices=["local", "ragnostic", "oracle", "drl"])
    p.add_argument("--checkpoint", help="required for --policy drl")
    p.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated replay seeds")
    p.add_argument("--out", required=True, help="report CSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="deterministic cost tables over a parameter grid")
    _add_common(p)
    p.add_argument("kind", choices=["channel", "queue"])
    p.add_argument("--grid", required=True, help="comma list or start:stop:step")
    p.add_argument("--fixed-q", type=float, default=15.0, help="queue delay for channel sweeps")
    p.add_argument("--fixed-phi", type=float, default=8.0, help="capacity for queue sweeps")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("dump-config", help="print the resolved configuration")
    _add_common(p)
    p.set_defaults(func=cmd_dump_config)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, KeyError, OSError, TrainingDiverged) as exc:
        print(f"error: {args.cmd}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
