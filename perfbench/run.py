"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload rate --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout and imports wknn from ``src/``.
It prints every metric by name and unit, the environment record, and as
its last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones, scaled by the calibration loop of ``calib.py``; with
``--trace 1`` they are the per-layer ones from an extra traced pass
(README.md lists both and the workloads).
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# One compute thread per runner thread. Left to itself, OpenBLAS starts
# nproc threads that keep spinning after each call; they can land on the
# main thread's core and slow it and the calibration loop, as the scheduler
# happens to place them. Set before numpy is imported here and inherited by
# the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
WORKLOAD_NAMES = ("rate", "atom", "lp_small", "lp_mid")
SETUP_PROBES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description="wknn benchmark: one workload per process")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up probe, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup_seconds(args) -> list[tuple[float, float]]:
    """Set-up time of wknn in fresh interpreters (import plus one warm-up call),
    each with the calibration loop's reading taken right after it."""
    cmd = [sys.executable, str(HERE / "probe.py"), args.workload, str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    values = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        setup, loop = proc.stdout.split()[-2:]
        values.append((float(setup), float(loop)))
    return values


class Tally:
    """Reps, timed seconds and failures, per thread count; at threads=1 also
    the batch and rep times scaled by the calibration loop (calib.py)."""

    def __init__(self):
        self.seconds = {1: 0.0, 2: 0.0}
        self.reps = {1: 0, 2: 0}
        self.rep_seconds: dict = {}  # size class -> rep seconds
        self.batch_seconds = {1: [], 2: []}
        self.loop_seconds: list[float] = []
        self.scaled_batch_seconds: list[float] = []
        self.scaled_rep_seconds: dict = {}
        self.attempted = 0
        self.failed = 0
        self.batches = 0


def run_batch(wl, inp, threads, tally, rec=None):
    """Time one call of the workload, then check its outputs untimed."""
    from workloads import Outcome

    t0 = perf_counter()
    dt = None
    try:
        if rec is None:
            raw = wl.call(inp, threads)
        else:
            import spans

            with spans.traced(rec):
                raw = wl.call(inp, threads, rec)
        dt = perf_counter() - t0
        outcome = wl.collect(inp, threads, raw)
    except Exception:  # counted as failed reps; the run reports it and goes on
        traceback.print_exc()
        dt = perf_counter() - t0 if dt is None else dt
        outcome = Outcome(wl.reps_per_batch, wl.reps_per_batch, None)
    outcome.seconds = dt
    tally.seconds[threads] += dt
    tally.batch_seconds[threads].append(dt)
    tally.reps[threads] += outcome.reps
    tally.attempted += outcome.reps
    tally.failed += outcome.failed
    if threads == 1:
        add_reps(tally.rep_seconds, outcome)
    return outcome


def add_reps(by_class: dict, outcome, factor: float = 1.0) -> None:
    for size, secs in zip(outcome.rep_classes, outcome.rep_seconds):
        by_class.setdefault(size, []).append(secs * factor)


def rep_ms(by_class: dict) -> tuple[float, float]:
    """Per-rep times in ms: the geometric mean over size classes of each
    class's median, and the 90th percentile of all reps. A median over the
    pooled classes would sit on the step between two of them."""
    import numpy as np

    medians = [statistics.median(v) for v in by_class.values()]
    p50 = math.exp(statistics.fmean(math.log(v) for v in medians))
    p90 = float(np.percentile(list(itertools.chain(*by_class.values())), 90))
    return 1e3 * p50, 1e3 * p90


def compare(wl, a, b) -> int:
    return 0 if a.key is None or b.key is None else wl.compare(a, b)


def measure(wl, seconds: float, thread_counts: tuple, keep: int):
    """Timed batches until ``seconds`` pass; with two thread counts every batch
    runs at both, in alternating order, and their outputs must agree. The
    calibration loop runs before the first batch and after each one."""
    import calib

    tally = Tally()
    first = {}
    j = 0
    tally.loop_seconds.append(calib.loop_seconds())
    while j == 0 or sum(tally.seconds.values()) < seconds:
        inp = wl.batch(j)
        order = thread_counts if j % 2 == 0 else thread_counts[::-1]
        out = {threads: run_batch(wl, inp, threads, tally) for threads in order}
        tally.loop_seconds.append(calib.loop_seconds())
        factor = calib.scale(*tally.loop_seconds[-2:])
        tally.scaled_batch_seconds.append(out[1].seconds * factor)
        add_reps(tally.scaled_rep_seconds, out[1], factor)
        if len(out) == 2:
            tally.failed += compare(wl, out[1], out[2])
        if j < keep:
            first[j] = out[1]
        j += 1
    tally.batches = j
    return tally, first


def traced_pass(wl, first, tally, seed):
    """The first batches again at threads=1 with every entry point wrapped."""
    import spans

    rec = spans.Recorder()
    traced = Tally()
    untraced_s = 0.0
    for j in range(wl.traced_batches):
        outcome = run_batch(wl, wl.batch(j), 1, traced, rec)
        if j in first:
            traced.failed += compare(wl, first[j], outcome)
            untraced_s += first[j].seconds
    rec.write_jsonl(WORK / f"{wl.name}-seed{seed}.trace.jsonl")
    # Overhead compares the same batches traced and untraced.
    overhead = traced.seconds[1] / untraced_s - 1.0 if untraced_s else 0.0
    scaling = (tally.reps[2] / tally.seconds[2]) / (2.0 * tally.reps[1] / tally.seconds[1])
    return spans.layer_metrics(rec, traced.seconds[1], scaling, overhead), traced


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, tally) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": git_commit(),
        "batches": tally.batches, "reps_t1": tally.reps[1], "reps_t2": tally.reps[2],
        "batch_seconds_t1": tally.batch_seconds[1], "batch_seconds_t2": tally.batch_seconds[2],
        "loop_seconds": tally.loop_seconds,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wknn" / "__init__.py").is_file():
        print(f"error: no wknn sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    setups = setup_seconds(args) if args.trace == 0 else []

    import calib
    import workloads

    wl = workloads.make(args.workload, args.seed, WORK / args.workload, args.smoke)
    wl.warm_up(wl.first_input())
    # The untraced run times threads=1 only; the traced run also times
    # threads=2 for experiments.scaling_eff.
    thread_counts = (1, 2) if args.trace else (1,)
    tally, first = measure(wl, args.seconds, thread_counts,
                           wl.traced_batches if args.trace else 1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = wl.final_checks()
    tally.attempted += attempted
    tally.failed += failed
    if not args.trace:
        # Outputs must not depend on the thread count: batch 0 again, untimed.
        check = Tally()
        tally.failed += compare(wl, first[0], run_batch(wl, wl.batch(0), 2, check))
        tally.attempted += check.attempted
        tally.failed += check.failed

    record = environment(args, tally)
    if args.trace:
        metrics, traced = traced_pass(wl, first, tally, args.seed)
        tally.attempted += traced.attempted
        tally.failed += traced.failed
        record["reps_traced"] = traced.reps[1]
    else:
        # Timings are scaled by the calibration loop and taken as medians
        # over the run; the raw ones go to the record.
        p50, p90 = rep_ms(tally.scaled_rep_seconds)
        raw_p50, raw_p90 = rep_ms(tally.rep_seconds)
        times = list(itertools.chain(*tally.scaled_rep_seconds.values()))
        metrics = {
            "setup_s": (statistics.median(s * calib.REFERENCE_S / loop for s, loop in setups),
                        "s"),
            "reps_per_s": (wl.reps_per_batch / statistics.median(tally.scaled_batch_seconds),
                           "1/s"),
            "rep_ms_p50": (p50, "ms"),
            "rep_ms_p90": (p90, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        record.update(
            setup_probes=setups, rep_samples=len(times), size_classes=len(tally.rep_seconds),
            rep_samples_beyond_p90=sum(1e3 * t > p90 for t in times),
            raw={"setup_s": statistics.median(s for s, _ in setups),
                 "reps_per_s": wl.reps_per_batch / statistics.median(tally.batch_seconds[1]),
                 "rep_ms_p50": raw_p50, "rep_ms_p90": raw_p90},
            calib_reference_s=calib.REFERENCE_S,
            calib_loop_s_median=statistics.median(tally.loop_seconds))

    failed = min(tally.failed, tally.attempted)
    record.update(attempted=tally.attempted, failed=failed,
                  error_rate=failed / tally.attempted)
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    suffix = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / f"result-{suffix}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for name, value in record.get("raw", {}).items():
        print(f"{args.workload} raw {name} = {value:.6g}")
    print(f"{args.workload} error_rate = {record['error_rate']:.6g} ({failed}/{tally.attempted})")
    print("env " + json.dumps({k: v for k, v in record.items()
                               if k not in ("metrics", "loop_seconds")
                               and not k.startswith("batch_seconds")}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
