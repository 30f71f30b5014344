"""Run the benchmark repeatedly and write one result file.

    python3 bench/collect.py --out bench/results/new.json

Run from the repository root. For each workload of ``BENCHMARK.json`` it
makes ``RUNS`` untraced runs on seeds 0..RUNS-1 and ``TRACED_RUNS`` traced
runs, each of ``run_seconds`` and in a fresh process, exactly as
``BENCHMARK.json``'s command would be run. The file
records every run, and for each end-to-end metric its median, quartiles and
spread (interquartile range over median) beside the bound BENCHMARK.json
fixes for it; traced runs add the per-layer medians. ``compare.py`` diffs two
such files.
"""

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH_DIR, ROOT, WORK_ROOT

RUN_TIMEOUT_S = 600
RUNS = 10
TRACED_RUNS = 1


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    WORK_ROOT.mkdir(exist_ok=True)
    out = WORK_ROOT / f"collect-{workload}-{seed}-{trace}.json"
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--out", str(out)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr[-2000:]}")
    with open(out, encoding="utf-8") as fh:
        record = json.load(fh)
    out.unlink()
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    run = {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "op_samples": record["op_samples"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "meta": record["meta"],
    }
    for key in ("setups", "op_kinds", "op_p90_ms", "wall_items_per_s", "wall_op_p50_ms", "traced_wall_s",
                "span_probe_s"):
        if key in record:
            run[key] = record[key]
    if trace:
        run["distinct_share_by_policy"] = _distinct_share_by_policy(record["ops"])
    return run


def _distinct_share_by_policy(ops) -> dict:
    """cost.total_cost distinct share of traced ops, grouped by the op name's
    first part (the policy, for replay ops)."""
    calls: dict[str, int] = {}
    distinct: dict[str, int] = {}
    for op in ops:
        if op["traced"] and op.get("total_cost_calls"):
            group = op["op"].split("/")[0]
            calls[group] = calls.get(group, 0) + op["total_cost_calls"]
            distinct[group] = distinct.get(group, 0) + op["total_cost_distinct"]
    return {group: distinct[group] / calls[group] for group in calls}


def summarize(runs, specs) -> dict:
    out = {}
    for spec in specs:
        values = [r["metrics"][spec["name"]] for r in runs]
        q1, med, q3 = quartiles(values)
        out[spec["name"]] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0,
                             "unit": spec["unit"], "better": spec["better"],
                             **({"bound": spec["bound"]} if "bound" in spec else {})}
    return out


def main(argv=None) -> int:
    bench = load_benchmark()
    seconds = bench["run_seconds"]
    parser = argparse.ArgumentParser(description="repeat benchmark runs into one result file")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    result = {"settings": {"runs": RUNS, "traced": TRACED_RUNS,
                           "seconds": seconds, "seeds": list(range(RUNS))},
              "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        runs = [one_run(name, seed, seconds, 0) for seed in range(RUNS)]
        traced = [one_run(name, seed, seconds, 1) for seed in range(TRACED_RUNS)]
        entry = {"runs": runs, "summary": summarize(runs, bench["end_to_end"]),
                 "traced_runs": traced}
        if traced:
            entry["per_layer"] = summarize(traced, bench["per_layer"])
        result["workloads"][name] = entry
        result.setdefault("meta", {k: v for k, v in runs[0]["meta"].items()
                                   if k not in ("workload", "seed", "trace")})
        print(f"{name}: {sum(r['failed'] for r in runs + traced)} failed ops "
              f"of {sum(r['attempted'] for r in runs + traced)}", flush=True)
        for metric, s in entry["summary"].items():
            flag = "" if metric == "setup_s" or s["spread"] < s["bound"] / 3 else "  WIDE"
            print(f"  {metric:12s} median {s['median']:12.6g} {s['unit']:4s} "
                  f"spread {s['spread']:.4f} bound {s['bound']}{flag}", flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
