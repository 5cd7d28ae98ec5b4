"""Fast-engine speedup over the paper's Figure-11 grid.

Times the full miss-rate grid — every workload crossed with the four
write-through-era schemes (base, sc, tpi, hw) — under both engines and
reports the wall-clock ratio.  The committed ``BENCH_engine.json`` at the
repo root records this measurement at the paper size (the tentpole claim
is >= 3x there); CI re-runs the small grid with ``--min-speedup 2.0`` as
a regression gate.

Standalone::

    python benchmarks/bench_engine.py --size default --rounds 3 \
        --out BENCH_engine.json
    python benchmarks/bench_engine.py --size small --min-speedup 2.0

Under pytest the grid runs once as a recorded benchmark with a sanity
assertion only (the hard gate lives in the CI job, where rounds and host
are controlled).
"""

import argparse
import json
import platform
import sys
import time

from repro.common.config import default_machine
from repro.sim import prepare, simulate
from repro.workloads import build_workload, workload_names

SCHEMES = ("base", "sc", "tpi", "hw")
ENGINES = ("reference", "fast")


def time_grid(size: str, rounds: int = 3) -> dict:
    """Best-of-``rounds`` wall-clock per grid cell, per engine."""
    cells = {}
    totals = {engine: 0.0 for engine in ENGINES}
    for name in workload_names():
        program = build_workload(name, size=size)
        for engine in ENGINES:
            run = prepare(program, default_machine().with_(engine=engine))
            for scheme in SCHEMES:
                best = float("inf")
                for _ in range(rounds):
                    started = time.perf_counter()
                    simulate(run, scheme)
                    best = min(best, time.perf_counter() - started)
                cells[f"{name}/{scheme}/{engine}"] = round(best, 4)
                totals[engine] += best
    return {
        "grid": "fig11",
        "size": size,
        "rounds": rounds,
        "workloads": list(workload_names()),
        "schemes": list(SCHEMES),
        "cells": cells,
        "reference_s": round(totals["reference"], 3),
        "fast_s": round(totals["fast"], 3),
        "speedup": round(totals["reference"] / totals["fast"], 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", nargs="+", default=["default"],
                        choices=("small", "default", "large"),
                        help="workload size preset(s) to measure")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds per cell (best is kept)")
    parser.add_argument("--out", default=None,
                        help="write the report as JSON to this path")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit non-zero if any measured grid is slower")
    args = parser.parse_args(argv)

    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "grids": {},
    }
    failed = False
    for size in args.size:
        grid = time_grid(size, args.rounds)
        report["grids"][size] = grid
        print(f"fig11[{size}] reference={grid['reference_s']}s "
              f"fast={grid['fast_s']}s speedup={grid['speedup']}x")
        if args.min_speedup is not None and grid["speedup"] < args.min_speedup:
            print(f"FAIL: speedup {grid['speedup']}x is below the "
                  f"{args.min_speedup}x floor", file=sys.stderr)
            failed = True
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 1 if failed else 0


class TestEngineBench:
    def test_fig11_grid_speedup(self, benchmark, bench_size):
        size = "default" if bench_size == "paper" else "small"
        grid = benchmark.pedantic(time_grid, args=(size, 2),
                                  iterations=1, rounds=1)
        # Sanity only: the calibrated >= 2x / >= 3x gates run in the
        # dedicated CI benchmark job and BENCH_engine.json.
        assert grid["speedup"] > 1.0


if __name__ == "__main__":
    sys.exit(main())
