"""Trace-generation speedup from the columnar/vectorized front end.

Times trace generation (:func:`repro.trace.generate_columnar`) for every
Figure-11 workload with affine DOALL template expansion switched off
(every DOALL interpreted per iteration) and on, and reports the
wall-clock ratio.  The switch is flipped by patching
:meth:`repro.trace.vectorize.TemplateCache.get` in this process;
``src/repro`` has no setting for it.  The committed ``BENCH_frontend.json``
at the repo root records this measurement; CI re-runs the small grid
with ``--min-speedup 2.0`` as a regression gate.

Standalone::

    python benchmarks/bench_frontend.py --size small default --rounds 3 \
        --out BENCH_frontend.json
    python benchmarks/bench_frontend.py --size small --min-speedup 2.0

Under pytest the grid runs once as a recorded benchmark with a sanity
assertion only (the hard gate lives in the CI job, where rounds and host
are controlled).
"""

import argparse
import json
import platform
import sys
import time
from unittest import mock

from repro.common.config import default_machine
from repro.trace import generate_columnar
from repro.trace.vectorize import TemplateCache
from repro.workloads import build_workload, workload_names

FRONTENDS = ("interpreter", "columnar")


def interpret(program, machine):
    """``generate_columnar`` with template expansion switched off."""
    with mock.patch.object(TemplateCache, "get", lambda *args: None):
        return generate_columnar(program, machine)


_GENERATORS = {"interpreter": interpret, "columnar": generate_columnar}


def time_grid(size: str, rounds: int = 3) -> dict:
    """Best-of-``rounds`` trace-generation wall-clock per workload."""
    machine = default_machine()
    cells = {}
    totals = {frontend: 0.0 for frontend in FRONTENDS}
    expanded = {}
    for name in workload_names():
        program = build_workload(name, size=size)
        for frontend in FRONTENDS:
            generate = _GENERATORS[frontend]
            best = float("inf")
            for _ in range(rounds):
                started = time.perf_counter()
                trace = generate(program, machine)
                best = min(best, time.perf_counter() - started)
            cells[f"{name}/{frontend}"] = round(best, 4)
            totals[frontend] += best
            if frontend == "columnar":
                expanded[name] = (f"{trace.n_expanded_epochs}"
                                  f"/{len(trace.epochs)}")
    return {
        "grid": "fig11",
        "size": size,
        "rounds": rounds,
        "workloads": list(workload_names()),
        "cells": cells,
        "expanded_epochs": expanded,
        "interpreter_s": round(totals["interpreter"], 3),
        "columnar_s": round(totals["columnar"], 3),
        "speedup": round(totals["interpreter"] / totals["columnar"], 2),
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
        print(f"fig11[{size}] interpreter={grid['interpreter_s']}s "
              f"columnar={grid['columnar_s']}s speedup={grid['speedup']}x")
        if args.min_speedup is not None and grid["speedup"] < args.min_speedup:
            print(f"FAIL: speedup {grid['speedup']}x is below the "
                  f"{args.min_speedup}x floor", file=sys.stderr)
            failed = True
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 1 if failed else 0


class TestFrontendBench:
    def test_fig11_tracegen_speedup(self, benchmark, bench_size):
        size = "default" if bench_size == "paper" else "small"
        grid = benchmark.pedantic(time_grid, args=(size, 2),
                                  iterations=1, rounds=1)
        # Sanity only: the calibrated >= 2x gate runs in the dedicated CI
        # benchmark job and BENCH_frontend.json.
        assert grid["speedup"] > 1.0


if __name__ == "__main__":
    sys.exit(main())
