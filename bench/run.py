"""Benchmark of offloadlab: one workload, one seed, one run.

    python3 bench/run.py --workload replay --seed 0 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``. The run
builds its inputs from the seed, performs one untimed warm-up op, then times
whole rounds of ops until ``--seconds`` of op time have been measured, and
checks every op's output outside the timed region. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer span metrics of a traced run, which
traces the set-up and a fixed number of rounds (the workload's
``TRACED_ROUNDS``), each after an untraced round, so that its span counts
measure the same work on any host; the untraced rounds give the rate that
``trace.overhead_pct`` compares against. ``--out FILE`` also writes the whole
run record (metadata, every op) as JSON.

The host this runs on shares its cores, and its speed drifts by half or more
over minutes. Every timing is therefore also scaled to a reference host
speed: a fixed probe (interpreter, formatting and small numpy work) is timed
just before and after each op, and the op's time is multiplied by
``PROBE_REF_S`` over the probe's time. The end-to-end times and the spans'
self times are these reference-speed times; the raw wall-clock times stay in
the run record.

See README.md in this directory for the metrics and workloads.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# the benchmark drives one single-threaded process; pin BLAS before numpy loads
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
# setup_s is the median of this many set-ups: the run's own plus fresh
# processes that each import, build inputs and warm up, then exit
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 150
# probe time that defines the reference host speed, near the probe's time
# on an idle 2.1 GHz x86-64 core; each probe reading is a median of PROBE_REPEATS
PROBE_REF_S = 0.0025
PROBE_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_package():
    """Import offloadlab from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import offloadlab

    where = Path(offloadlab.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"offloadlab imported from {where}, not from {SRC}")
    return offloadlab


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def speed_probe() -> float:
    """Seconds of a fixed mix of interpreter, formatting and numpy work."""
    import numpy as np

    m = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
    t0 = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i
    for i in range(1000):
        f"{i * 0.5:.6f}"
    for _ in range(100):
        np.maximum(m @ m, 0.0)
    return time.perf_counter() - t0


def probe_s() -> float:
    """The host's current speed, as the median time of the probe."""
    return statistics.median(speed_probe() for _ in range(PROBE_REPEATS))


def at_reference_speed(seconds: float, probe: float) -> float:
    return seconds * PROBE_REF_S / probe


def pin_mmap_threshold() -> int | None:
    """Fix glibc's mmap threshold at its initial 128 KiB; returns it, or None
    where there is no glibc.

    glibc raises the threshold each time a large mapped block is freed, after
    which the training op's 100k-row replay buffer comes from the heap, and
    calloc has to zero, and so touch, all of it. Whether that happens depends
    on the allocation history, which made peak_rss_mb of the same run read
    41 MB or 68 MB. A fixed threshold keeps every large block mapped.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return None
    threshold = 128 * 1024
    libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    libc.mallopt.restype = ctypes.c_int
    m_mmap_threshold = -3
    return threshold if libc.mallopt(m_mmap_threshold, threshold) == 1 else None


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Runs and checks a workload's ops, counting attempts and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.ops: list[dict] = []

    def run_op(self, key, tracer=None, probed=True):
        """One op, timed; returns its record and output (None if it raised).
        With ``probed``, the host's speed is probed just before and after it."""
        rec = {"op": self.workload.key_name(key), "kind": self.workload.kind(key),
               "traced": tracer is not None}
        self.attempted += 1
        probe_before = probe_s() if probed else 0.0
        output = None
        if tracer is not None:
            calls0, distinct0 = tracer.cost_calls, tracer.cost_distinct
            tracer.install()
        t0 = time.perf_counter()
        try:
            output = self.workload.run(key)
        except Exception as exc:  # a failed op is counted, not fatal
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["seconds"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
            rec["total_cost_calls"] = tracer.cost_calls - calls0
            rec["total_cost_distinct"] = tracer.cost_distinct - distinct0
        if probed:
            set_probe(rec, (probe_before + probe_s()) / 2)
        return rec, output

    def check_op(self, rec: dict, key, output) -> None:
        """Check an op's output, untimed, and count it if it failed."""
        if "error" not in rec:
            try:
                self.workload.check(key, output)
            except Exception as exc:  # includes CheckFailed
                rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["ok"] = "error" not in rec
        rec["items"] = self.workload.items(key) if rec["ok"] else 0
        if not rec["ok"]:
            self.failed += 1
            self.errors.append(f"{rec['op']}: {rec['error']}")
        self.ops.append(rec)

    def window(self, seconds: float, tracer=None) -> list[dict]:
        """Whole rounds until ``seconds`` of op time. With a tracer, rounds
        1, 3, 5, ... are traced until the workload's ``TRACED_ROUNDS`` have
        been, even if that takes longer than ``seconds``."""
        to_trace = self.workload.TRACED_ROUNDS if tracer is not None else 0
        timed: list[dict] = []
        measured = 0.0
        r = 0
        while measured < seconds or to_trace > 0:
            traced = tracer if (to_trace > 0 and r % 2 == 1) else None
            to_trace -= traced is not None
            for key in self.workload.round(r):
                rec, output = self.run_op(key, traced)
                self.check_op(rec, key, output)
                del output
                timed.append(rec)
                measured += rec["seconds"]
            r += 1
        return timed


def set_probe(rec: dict, probe: float) -> None:
    rec["probe_s"] = probe
    rec["ref_seconds"] = at_reference_speed(rec["seconds"], probe)


def kind_median_ms(ops, key: str = "ref_seconds") -> float:
    """Median over op kinds of each kind's median latency.

    replay mixes 12 kinds of op whose latencies lie between 250 and 660 ms.
    The plain median of all its ops falls between two kinds, where it reads
    the slowest op of one and the fastest of the other. Over the same ten runs
    it spread 0.073 (interquartile range over median), against 0.042 for this
    median of medians. With one kind of op, as in train and lab_files, it is
    the plain median.
    """
    by_kind: dict[str, list[float]] = {}
    for op in ops:
        by_kind.setdefault(op["kind"], []).append(op[key] * 1e3)
    return statistics.median(statistics.median(v) for v in by_kind.values())


def rate(ops, key: str = "ref_seconds") -> float:
    """Items per second over the ops that succeeded."""
    seconds = sum(op[key] for op in ops if op["ok"])
    return sum(op["items"] for op in ops) / seconds if seconds > 0 else 0.0


def child_setups(args, n: int) -> list[dict]:
    """Set-up samples of ``n`` fresh processes running only the set-up."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def metadata(args, mmap_threshold) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "malloc_mmap_threshold": mmap_threshold,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="offloadlab benchmark, one run")
    parser.add_argument("--workload", required=True, choices=["replay", "train", "lab_files"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="op time to measure (whole rounds, so a run may measure more)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="also write the full run record to this JSON file")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, warm up, print the set-up time and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    mmap_threshold = pin_mmap_threshold()
    try:
        import_package()
    except ImportError as exc:
        print(f"error: cannot import offloadlab from {SRC}: {exc}", file=sys.stderr)
        return 2
    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        return _run(args, work_dir, mmap_threshold)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(args, work_dir, mmap_threshold) -> int:
    # both import offloadlab, so they load only after import_package
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, work_dir)
    runner = Runner(workload)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload.setup()
    warm_key = workload.round(0)[0]
    # unprobed, so that set-up time holds none of the benchmark's own probes
    warm_rec, warm_output = runner.run_op(warm_key, probed=False)
    setup = {"seconds": time.perf_counter() - T_START}
    if tracer is not None:
        tracer.uninstall()
    setup["probe_s"] = probe_s()
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    set_probe(warm_rec, setup["probe_s"])
    warm_rec["warmup"] = True
    runner.check_op(warm_rec, warm_key, warm_output)
    del warm_output

    gc.collect()
    timed = runner.window(args.seconds, tracer)
    record = {"meta": metadata(args, mmap_threshold), "ops": runner.ops}
    if tracer is None:
        setups = [setup] + child_setups(args, SETUP_REPEATS - 1)
        latencies = [op["ref_seconds"] * 1e3 for op in timed]
        values = {
            "setup_s": statistics.median(at_reference_speed(s["seconds"], s["probe_s"])
                                         for s in setups),
            "items_per_s": rate(timed),
            "op_p50_ms": kind_median_ms(timed),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        record.update(setups=setups, op_samples=len(timed),
                      op_kinds=len({op["kind"] for op in timed}),
                      op_p90_ms=percentile(latencies, 0.9),
                      wall_items_per_s=rate(timed, "seconds"),
                      wall_op_p50_ms=kind_median_ms(timed, "seconds"))
    else:
        plain = [op for op in timed if not op["traced"]]
        traced = [op for op in timed if op["traced"]]
        traced_rate = rate(traced)
        overhead_pct = 100.0 * (rate(plain) / traced_rate - 1.0) if traced_rate else 0.0
        # spans of the set-up and of the traced ops, at reference speed
        probe = statistics.median([setup["probe_s"]] + [op["probe_s"] for op in traced])
        summary = tracer.summary(overhead_pct, time_scale=PROBE_REF_S / probe)
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in summary.items()}
        record["traced_wall_s"] = tracer.wall_s
        record["span_probe_s"] = probe
        record["op_samples"] = {"untraced": len(plain), "traced": len(traced)}
    failed_pct = 100.0 * runner.failed / runner.attempted
    record.update(metrics=metrics, attempted=runner.attempted, failed=runner.failed,
                  failed_ops_pct=failed_pct, errors=runner.errors)

    for err in runner.errors[:10]:
        print(f"failed op: {err}", file=sys.stderr)
    for name, m in metrics.items():
        samples = f" (n={len(timed)}, {record['op_kinds']} kinds)" if name.startswith("op_p") else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{samples}")
    if tracer is None:
        # too few samples lie beyond the 90th percentile for it to be a gated metric
        print(f"op_p90_ms {record['op_p90_ms']:.6g} ms (n={len(timed)}, not gated)")
        print(f"wall-clock: items_per_s {record['wall_items_per_s']:.6g} 1/s, "
              f"op_p50_ms {record['wall_op_p50_ms']:.6g} ms")
    print(f"failed_ops_pct {failed_pct:.6g} % ({runner.failed} of {runner.attempted})")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    return "fraction"


if __name__ == "__main__":
    sys.exit(main())
