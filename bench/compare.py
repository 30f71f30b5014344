"""Compare two result files written by collect.py, one row per workload and metric.

    python3 bench/compare.py PARENT.json CHANGE.json

Each pairing of end-to-end metric and workload is labelled, by the bounds in
``BENCHMARK.json``:

* improved: the change's median is better, the change wins at least nine
  tenths of the run pairs (runs are paired by seed; ties count for neither),
  and the medians differ by more than the parent's interquartile range;
* unresolved: either side's spread (interquartile range over median) is wider
  than the bound, unless every change run reads better than every parent run;
* worse: the change's median is worse than the parent's by more than the bound;
* unchanged: otherwise.

Per-layer medians of the traced runs follow: every call count that changed,
and every other metric that moved by more than 30%. The script reports and
does not gate: it exits 0 whatever the labels say.
"""

import json
import statistics
import sys

from collect import load_benchmark, quartiles

# between two result sets of the same code, self times of one traced run
# moved by up to 26% (more for spans run once in the set-up); call counts are
# exact
LAYER_REPORT_SHARE = 0.3


def label(parent, change, bound: float, better: str) -> str:
    sign = 1.0 if better == "higher" else -1.0

    def gain(old, new):
        return sign * (new - old)

    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(gain(p, c) > 0 for p, c in pairs)
    if gain(pmed, cmed) > 0 and wins >= 0.9 * len(pairs) and abs(cmed - pmed) > pq3 - pq1:
        return "improved"
    spread = max((pq3 - pq1) / pmed, (cq3 - cq1) / cmed)
    if spread > bound and not all(gain(p, c) > 0 for p in parent for c in change):
        return "unresolved"
    if -gain(pmed, cmed) > bound * pmed:
        return "worse"
    return "unchanged"


def _by_seed(runs, metric):
    return [r["metrics"][metric] for r in sorted(runs, key=lambda r: r["seed"])]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py PARENT.json CHANGE.json", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        parent = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        change = json.load(fh)
    bench = load_benchmark()
    print(f"{'workload':10s} {'metric':12s} {'parent':>12s} {'change':>12s} {'delta':>8s}  label")
    for name, p in parent["workloads"].items():
        c = change["workloads"].get(name)
        if c is None:
            print(f"{name:10s} missing from {argv[1]}")
            continue
        for spec in bench["end_to_end"]:
            metric = spec["name"]
            pv, cv = _by_seed(p["runs"], metric), _by_seed(c["runs"], metric)
            pmed, cmed = statistics.median(pv), statistics.median(cv)
            verdict = label(pv, cv, spec["bound"], spec["better"])
            print(f"{name:10s} {metric:12s} {pmed:12.6g} {cmed:12.6g} "
                  f"{100.0 * (cmed - pmed) / pmed:+7.2f}%  {verdict}")
    for name, p in parent["workloads"].items():
        c = change["workloads"].get(name)
        if not c or "per_layer" not in p or "per_layer" not in c:
            continue
        print(f"\n{name}: per-layer medians of traced runs, call counts that changed "
              f"and other metrics that moved by more than {100 * LAYER_REPORT_SHARE:.0f}%")
        for metric, ps in p["per_layer"].items():
            old, new = ps["median"], c["per_layer"].get(metric, {}).get("median", 0.0)
            exact = metric.endswith(".calls")
            if (exact and new != old) or (
                    not exact and abs(new - old) > LAYER_REPORT_SHARE * max(abs(old), abs(new))):
                print(f"  {metric:48s} {old:12.6g} {new:12.6g} {ps['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
