"""Set-up time of wknn for one workload, measured in a fresh interpreter.

    python3 perfbench/probe.py WORKLOAD SEED [--smoke]

Prints the seconds spent importing wknn and its CLI (numpy and scipy too)
plus one warm-up call on the workload's first input, then the seconds of
the calibration loop (``calib.py``) run right after. Making that input
is not counted. ``run.py`` starts this several times, scales each set-up
time by the loop reading and reports the median.
"""
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent


def main(argv) -> tuple[float, float]:
    sys.path.insert(0, str(HERE.parent / "src"))
    t0 = perf_counter()
    import wknn.cli  # noqa: F401

    t1 = perf_counter()
    import workloads

    wl = workloads.make(argv[0], int(argv[1]), HERE / "_work" / f"probe-{argv[0]}",
                        "--smoke" in argv[2:])
    inp = wl.first_input()
    t2 = perf_counter()
    wl.warm_up(inp)
    setup = (t1 - t0) + (perf_counter() - t2)
    import calib

    return setup, calib.loop_seconds()


if __name__ == "__main__":
    print(*map(repr, main(sys.argv[1:])))
