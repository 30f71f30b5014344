"""
Training a robust offloading agent
==================================

End-to-end workflow: generate a trace, train the value network on a short
schedule, then compare all four policies on the same evaluation draws.
The trained agent should offload far less blindly than the risk-agnostic
baseline while still saving meaningful energy over all-local processing.
"""

import numpy as np

from offloadlab import (
    channel_model,
    evaluate,
    generate_synthetic,
    generator_params,
    make_policy,
    parse_overrides,
    queue_model,
    resolve_config,
    reward_params,
    system_params,
)
from offloadlab.cli import train_on_trace


def main():
    cfg = resolve_config(None, parse_overrides([
        "scenario.n_frames=4000",
        "train.episodes=2",
        "train.eps_decay_steps=6000",
    ]))
    trace = generate_synthetic(generator_params(cfg), cfg["scenario.n_frames"],
                               cfg["scenario.seed"])

    # train against the trace's 70th quality percentile: a deliberately
    # demanding robustness threshold
    th = float(np.percentile(trace.map_full, 70))
    cfg = resolve_config(None, parse_overrides([
        "scenario.n_frames=4000",
        "train.episodes=2",
        "train.eps_decay_steps=6000",
        f"map_th={th!r}",
    ]))
    print(f"robustness threshold map_th={th:.4f}")
    print("training...")
    net, logs = train_on_trace(trace, cfg)
    print(f"  {len(logs)} episodes, final mean reward {logs[-1].mean_reward:.3f}")
    print()

    params = system_params(cfg)
    header = f"{'policy':10s} {'risky%':>8s} {'energy_red%':>12s} {'offload%':>9s}"
    print(header)
    for name in ("local", "ragnostic", "oracle", "drl"):
        policy = make_policy(name, params, net if name == "drl" else None)
        r = evaluate(policy, trace, channel_model(cfg), queue_model(cfg), params,
                     reward_params=reward_params(cfg), seeds=3,
                     reward_basis=cfg["reward_basis"])
        offload = 100.0 - r.actions["offload_0"].freq_pct
        print(f"{name:10s} {r.risky_pct:8.2f} {r.energy_reduction_pct:12.2f}"
              f" {offload:9.2f}")

    print()
    print("risky% counts offloaded frames whose full-stack quality sat below")
    print("the threshold; the oracle never does that by construction, and the")
    print("trained agent should land close to it")


if __name__ == "__main__":
    main()
