"""Record the golden outputs that the benchmark checks every op against.

    python3 bench/record_goldens.py [WORKLOAD ...]

Run from the repository root. Trains the fixed ``drl.ckpt`` first if it is
missing, then runs every distinct op of each named workload (default: all)
for each seed in ``workloads.GOLDEN_SEEDS`` and writes its entry in
``goldens.json``, keeping the other workloads' entries. Each op is first
checked the way a seed without goldens is (replay against the plain
OffloadEnv loop, files by a lossless round trip), so a golden never records
an output that already fails its reference.

Re-record only when a change is meant to alter results; a change that only
claims speed must reproduce these goldens.
"""

import json
import shutil
import sys
from pathlib import Path

from run import WORK_ROOT, import_package

# training config of the fixed drl checkpoint: the default trace and training
# config, shortened to two episodes with exploration decaying over 1.5 of them
CHECKPOINT_OVERRIDES = {"train.episodes": "2", "train.eps_decay_steps": "15000"}


def train_checkpoint(path: Path) -> None:
    from offloadlab import agent, cli, config, scenario

    cfg = config.resolve_config(None, CHECKPOINT_OVERRIDES)
    params = config.system_params(cfg)
    trace = scenario.generate_synthetic(
        config.generator_params(cfg), cfg["scenario.n_frames"], cfg["scenario.seed"],
        partial_counts=tuple(a.i for a in params.action_set if a.i > 0),
        offload_order=params.offload_order)
    net, _ = cli.train_on_trace(trace, cfg)
    agent.save_checkpoint(net, path)


def main(argv=None) -> int:
    import_package()
    from workloads import CHECKPOINT, GOLDEN_SEEDS, GOLDENS, WORKLOADS, load_goldens

    names = (sys.argv[1:] if argv is None else argv) or list(WORKLOADS)
    unknown = set(names) - set(WORKLOADS)
    if unknown:
        print(f"unknown workloads: {sorted(unknown)}", file=sys.stderr)
        return 2

    if not CHECKPOINT.exists():
        print(f"training {CHECKPOINT.name}", flush=True)
        train_checkpoint(CHECKPOINT)
    work_dir = WORK_ROOT / "goldens"
    goldens = load_goldens() if GOLDENS.exists() else {}
    try:
        for name in names:
            cls = WORKLOADS[name]
            goldens[name] = {}
            for seed in GOLDEN_SEEDS:
                wl = cls(seed, work_dir, goldens={})
                wl.setup()
                keys = list(dict.fromkeys(k for r in range(cls.PERIOD) for k in wl.round(r)))
                recorded = {}
                for key in keys:
                    output = wl.run(key)
                    wl.check(key, output)
                    recorded[wl.key_name(key)] = wl.record(key, output)
                goldens[name][str(seed)] = recorded if len(keys) > 1 else recorded.popitem()[1]
                print(f"{name} seed {seed}: {len(keys)} ops", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
