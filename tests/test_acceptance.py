"""Twelve end-to-end acceptance checks at their stated tolerances.

Each check prints one ``[criterion NN] label: PASS|FAIL`` line (replayed in
the terminal summary) and fails its test if the bar is missed. The two
training runs are module-scoped fixtures so the slower checks share them.
"""

import json

import numpy as np
import pytest

from _criteria import report
from offloadlab.channel import ChannelModel, fit_rayleigh, sample_capacities
from offloadlab.cli import main, train_on_trace
from offloadlab.config import (
    channel_model,
    generator_params,
    parse_overrides,
    queue_model,
    resolve_config,
    reward_params,
    system_params,
)
from offloadlab.cost import Action, SystemParams, energy_local, latency_local, total_cost
from offloadlab.env import OffloadEnv
from offloadlab.metrics import evaluate, sweep_channel
from offloadlab.policies import make_policy
from offloadlab.queueing import QueueModel, mean_delay_ms, queue_pmf, sample_delays
from offloadlab.scenario import generate_synthetic

A0, A2, A3 = Action(0), Action(2), Action(3)
POLICY_NAMES = ("local", "ragnostic", "oracle", "drl")


@pytest.fixture(scope="module")
def default_trace():
    cfg = resolve_config()
    return generate_synthetic(
        generator_params(cfg), cfg["scenario.n_frames"], cfg["scenario.seed"]
    )


def _percentile_threshold(trace, pct):
    return float(np.percentile(trace.map_full, pct))


@pytest.fixture(scope="module")
def trained_default(default_trace):
    # default training configuration, robustness threshold at the trace's
    # 70th percentile of full-fusion quality
    th = _percentile_threshold(default_trace, 70)
    cfg = resolve_config(None, parse_overrides([f"map_th={th!r}"]))
    net, logs = train_on_trace(default_trace, cfg)
    return net, cfg


@pytest.fixture(scope="module")
def trained_light(default_trace):
    # shorter schedule for the quality-separation check: threshold at the
    # 50th percentile, half the episodes, faster exploration decay
    th = _percentile_threshold(default_trace, 50)
    cfg = resolve_config(
        None,
        parse_overrides([f"map_th={th!r}", "train.episodes=3", "train.eps_decay_steps=20000"]),
    )
    net, logs = train_on_trace(default_trace, cfg)
    return net, cfg


def _evaluate(name, trace, cfg, net=None, rho=None, seeds=5):
    policy = make_policy(name, system_params(cfg), net)
    return evaluate(
        policy,
        trace,
        channel_model(cfg),
        queue_model(cfg, rho=rho),
        system_params(cfg),
        reward_params=reward_params(cfg),
        seeds=seeds,
        reward_basis=cfg["reward_basis"],
    )


def test_criterion_01_local_mode_cost_constants():
    p = SystemParams()
    lat = latency_local(p, A0)
    en = energy_local(p, A0)
    ok = abs(lat - 68.12) <= 0.01 and abs(en - 0.48) <= 0.01
    report(1, "local-mode cost constants", ok, f"latency {lat:.4f} ms, energy {en:.5f} J")


def _min_feasible_phi(params, action, q_ms):
    lo, hi = 0.25, 40.0
    assert total_cost(params, action, hi, server_delay_ms=q_ms).l_total_ms <= params.l_th_ms
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if total_cost(params, action, mid, server_delay_ms=q_ms).l_total_ms <= params.l_th_ms:
            hi = mid
        else:
            lo = mid
    return hi


def test_criterion_02_feasibility_crossover_capacities():
    p = SystemParams(b_down_kbit=0.0)
    phi2 = _min_feasible_phi(p, A2, 15.0)
    phi3 = _min_feasible_phi(p, A3, 15.0)
    ok = 4.0 < phi2 <= 5.0 and 7.0 < phi3 <= 7.5
    report(
        2,
        "feasibility crossover capacities",
        ok,
        f"offload_2 at {phi2:.4f} Mbit/s, offload_3 at {phi3:.4f} Mbit/s",
    )


def test_criterion_03_sweep_energy_ordering():
    p = SystemParams(b_down_kbit=0.0)
    grid = [2.0 + 0.5 * i for i in range(21)]
    table = sweep_channel(p, grid, fixed_q_ms=15.0)
    col = {action.name: j for j, action in enumerate(p.action_set)}
    energy = table.e_total_j
    ok = all(
        energy[r, col["offload_3"]] < energy[r, col["offload_2"]] < energy[r, col["offload_0"]]
        for r in range(len(table))
    )
    report(3, "sweep energy ordering", ok, f"{len(table)} grid points")


def test_criterion_04_queue_distribution_and_delay():
    worst = 0.0
    for rho in (0.1, 0.5, 0.9, 0.97, 0.99):
        for cap in (1, 10, 100, 4000):
            worst = max(worst, abs(queue_pmf(rho, cap).sum() - 1.0))
    model = QueueModel(0.9, 4000, 1.5)
    want = mean_delay_ms(model)
    xs = sample_delays(model, np.random.default_rng(0), 1_000_000)
    mean_err = abs(xs.mean() - want) / want
    delay_err = abs(want - 15.0) / 15.0
    ok = worst < 1e-9 and mean_err < 0.01 and delay_err < 0.02
    report(
        4,
        "queue distribution and delay",
        ok,
        f"pmf residual {worst:.1e}, sample mean off {mean_err:.4%}, delay {want:.4f} ms",
    )


def test_criterion_05_capacity_fit_recovery():
    true = ChannelModel(sigma=8.0)
    xs = sample_capacities(true, np.random.default_rng(0), 100_000)
    sigma = fit_rayleigh(xs).sigma
    err = abs(sigma - 8.0) / 8.0
    report(5, "capacity fit recovery", err < 0.02, f"sigma {sigma:.4f}, off {err:.4%}")


def test_criterion_06_reward_branch_table_and_exclusivity(default_trace):
    from offloadlab.env import RewardParams, reward_with_case
    from offloadlab.cost import CostBreakdown

    p = SystemParams()
    rp = RewardParams()

    def cost_of(l_total, e_total=0.3):
        return CostBreakdown(0, 0, 0, 0, l_total, e_total, 0, 0, 0, e_total)

    table_ok = (
        reward_with_case(p, rp, 0.50, A2, cost_of(50.0), [0.3]) == (-1.0, "uncertainty")
        and reward_with_case(p, rp, 0.50, A0, cost_of(68.12), [0.3]) == (0.0, "uncertainty")
        and reward_with_case(p, rp, 0.80, A3, cost_of(70.0), [0.3]) == (-2.0, "deadline")
        and reward_with_case(p, rp, 0.80, A3, cost_of(50.0, 0.2), [0.2, 0.3]) == (0.0, "energy")
    )

    env = OffloadEnv(default_trace, ChannelModel(sigma=8.0), QueueModel(), p)
    env.reset(seed=0)
    rng = np.random.default_rng(0)
    fuzz_ok = True
    for _ in range(10_000):
        if env.done:
            env.reset(seed=int(rng.integers(1 << 30)))
        map_full = default_trace.map_full[env.frame_index]
        res = env.step([A0, A2, A3][rng.integers(3)])
        if map_full < p.map_th:
            want = "uncertainty"
        elif res.cost.l_total_ms > p.l_th_ms:
            want = "deadline"
        else:
            want = "energy"
        if res.reward_case != want or res.reward not in (0.0, -1.0, -2.0):
            fuzz_ok = False
            break
    ok = table_ok and fuzz_ok
    report(6, "reward branch table and exclusivity", ok, "4 worked cases, 10000-step fuzz")


def test_criterion_07_backprop_gradient_check():
    from offloadlab.nn import MLP, numerical_gradients

    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        sizes = [
            int(rng.integers(1, 6)),
            int(rng.integers(2, 10)),
            int(rng.integers(2, 10)),
            int(rng.integers(1, 5)),
        ]
        net = MLP(sizes, rng)
        # random biases keep every pre-activation off the ReLU kink
        for b in net.biases:
            b[:] = rng.normal(0.0, 0.1, b.shape)
        x = rng.normal(size=(5, sizes[0]))
        t = rng.normal(size=(5, sizes[-1]))

        def loss_fn():
            d = net.forward(x) - t
            return float((d * d).mean())

        out, cache = net.forward_cache(x)
        grad_w, grad_b, _ = net.backward(cache, 2.0 * (out - t) / out.size)
        analytic = []
        for w, b in zip(grad_w, grad_b):
            analytic.extend([w, b])
        numeric = numerical_gradients(loss_fn, net.parameters(), eps=1e-6)
        for a, n in zip(analytic, numeric):
            err = np.linalg.norm(a - n) / (np.linalg.norm(a) + np.linalg.norm(n) + 1e-12)
            worst = max(worst, err)
    report(7, "backprop gradient check", worst < 1e-4, f"worst relative error {worst:.2e} over 20 nets")


def test_criterion_08_oracle_zero_risk(default_trace):
    cfg = resolve_config()
    r = _evaluate("oracle", default_trace, cfg, seeds=5)
    report(8, "oracle zero risk", r.risky_pct == 0.0, f"risky {r.risky_pct}%")


def test_criterion_09_robustness_and_energy_ordering(default_trace, trained_default):
    net, cfg = trained_default
    drl = _evaluate("drl", default_trace, cfg, net=net, seeds=5)
    rag = _evaluate("ragnostic", default_trace, cfg, seeds=5)
    risky_ok = drl.risky_pct <= 0.5 * rag.risky_pct
    energy_ok = 0.0 < drl.energy_reduction_pct < rag.energy_reduction_pct
    report(
        9,
        "robustness and energy ordering after training",
        risky_ok and energy_ok,
        f"risky {drl.risky_pct:.2f}% vs {rag.risky_pct:.2f}%, "
        f"energy reduction {drl.energy_reduction_pct:.2f}% vs {rag.energy_reduction_pct:.2f}%",
    )


def test_criterion_10_load_shift_toward_local(default_trace, trained_default):
    net, cfg = trained_default
    freqs = {}
    for name in POLICY_NAMES:
        freqs[name] = [
            _evaluate(name, default_trace, cfg, net=net if name == "drl" else None, rho=rho).actions[
                "offload_0"
            ].freq_pct
            for rho in (0.9, 0.97, 0.99)
        ]
    ok = all(a <= b for f in freqs.values() for a, b in zip(f, f[1:]))
    # the offloading policies must genuinely move, not just hold steady
    ok = ok and all(freqs[n][0] < freqs[n][-1] for n in ("ragnostic", "oracle", "drl"))
    detail = "; ".join(f"{n} {f[0]:.1f}->{f[1]:.1f}->{f[2]:.1f}%" for n, f in freqs.items())
    report(10, "load shift toward local processing", ok, detail)


def test_criterion_11_per_action_quality_separation(default_trace, trained_light):
    net, cfg = trained_light
    drl = _evaluate("drl", default_trace, cfg, net=net, seeds=5)
    rag = _evaluate("ragnostic", default_trace, cfg, seeds=5)
    a = {k: v.amap_pct for k, v in drl.actions.items()}
    sep_ok = a["offload_0"] < a["offload_2"] and a["offload_0"] < a["offload_3"]
    r = [v.amap_pct for v in rag.actions.values() if v.count > 0]
    band_ok = len(r) == 3 and max(r) - min(r) <= 3.0
    report(
        11,
        "per-action quality separation",
        sep_ok and band_ok,
        f"drl AMAP {a['offload_0']:.2f}/{a['offload_2']:.2f}/{a['offload_3']:.2f}%, "
        f"reference band {max(r) - min(r):.2f} points",
    )


def test_criterion_12_rerun_determinism(tmp_path, capsys):
    tiny = [
        "--set", "scenario.n_frames=150",
        "--set", "scenario.k=6",
        "--set", "train.episodes=1",
        "--set", "train.eps_decay_steps=80",
        "--set", "train.batch_size=16",
        "--set", "train.buffer_capacity=500",
        "--set", "train.ctx_hidden=8",
        "--set", "train.ctx_out=4",
        "--set", "train.state_hidden=16",
    ]
    trace = tmp_path / "trace.csv"
    assert main(["generate", "--out", str(trace), *tiny]) == 0

    def run_once(tag):
        ckpt = tmp_path / f"net_{tag}.txt"
        assert main(["train", "--trace", str(trace), "--out", str(ckpt), *tiny]) == 0
        rep = tmp_path / f"eval_{tag}.csv"
        assert (
            main(
                ["eval", "--trace", str(trace), "--policy", "drl", "--checkpoint", str(ckpt),
                 "--out", str(rep), *tiny]
            )
            == 0
        )
        manifest = json.loads((tmp_path / f"net_{tag}.txt.manifest.json").read_text())
        manifest.pop("timestamp")
        manifest["outputs"] = sorted(v for v in manifest["outputs"].values())
        return (
            ckpt.read_bytes(),
            (tmp_path / f"net_{tag}.txt.log.csv").read_bytes(),
            rep.read_bytes(),
            manifest,
        )

    first = run_once("a")
    second = run_once("b")
    capsys.readouterr()
    ok = first == second
    report(12, "rerun determinism", ok, "checkpoint, training log, and report byte-identical")
