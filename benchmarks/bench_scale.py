"""Processor-axis scaling benchmark: 1024-16384 simulated processors.

Three measurements, all recorded in the committed ``BENCH_scale.json``:

* **scale points** — wall-clock and peak allocation for the extended
  fig23 scaling study (``fig23_scaling_x``: one small workload, fast
  engine, P = 1 .. 16384).  A scheme gives per-proc state only to the
  processors its trace runs tasks on, so the wide points must cost
  roughly what the saturation point costs — P=16384 is the smoke that
  the processor axis really is O(busy procs);
* **sparse vs dense** — the same prepared run simulated with state for
  the trace's processors (default) and with state for every processor
  of the machine (every cache-bank row, buffer and lease row), switched
  by patching the engines' ``SimContext`` in this process to drop the
  trace's processor set; ``src/repro`` has no setting for it.  CI gates
  the speedup at >= 5x at P=4096; the in-process figure is ~6x
  (``BENCH_scale.json``; docs/PERF.md, "Reading BENCH_scale.json");
* **storage curve** — the fig5-style analytic curve: coherence-state
  bits per memory line vs P for full-map, limited-pointer, LimitLESS,
  TPI, and Tardis (:func:`repro.overhead.figure5_curve`).

A parity leg re-checks byte-identical results between the reference and
fast engines at the processor counts the reference engine can reach
quickly (64 and 256).

Standalone::

    python benchmarks/bench_scale.py --rounds 3 --out BENCH_scale.json
    python benchmarks/bench_scale.py --min-speedup 5.0   # the CI gate

Under pytest the measurements run once with sanity assertions only (the
calibrated gate lives in the CI benchmark job).
"""

import argparse
import contextlib
import json
import platform
import resource
import sys
import time
import tracemalloc

import repro.sim.engine
from repro.coherence.api import SimContext
from repro.common.config import default_machine
from repro.experiments.fig23_scaling import (EXTENDED_PROCS,
                                             EXTENDED_WORKLOAD, run_extended)
from repro.overhead import figure5_curve
from repro.sim import prepare, simulate
from repro.workloads import build_workload

SCHEMES = ("tpi", "hw")
DENSE_PROCS = 4096
PARITY_PROCS = (64, 256)
CURVE_PROCS = (64, 256, 1024, 4096, 16384)


def _peak_rss_mb() -> float:
    """High-water resident set of this process, in MB (Linux: KB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_scale_points(size: str, rounds: int = 3) -> dict:
    """The extended fig23 study, with per-P wall-clock and peak alloc."""
    machine = default_machine().with_(engine="fast")
    program = build_workload(EXTENDED_WORKLOAD, size=size)
    points = {}
    for n_procs in EXTENDED_PROCS:
        best = float("inf")
        peak_mb = 0.0
        for _ in range(rounds):
            tracemalloc.start()
            started = time.perf_counter()
            run = prepare(program, machine.with_(n_procs=n_procs))
            for scheme in SCHEMES:
                simulate(run, scheme)
            best = min(best, time.perf_counter() - started)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            peak_mb = max(peak_mb, peak / (1 << 20))
        points[str(n_procs)] = {"wall_s": round(best, 4),
                                "peak_alloc_mb": round(peak_mb, 2)}
    table = run_extended(size=size)
    return {
        "workload": EXTENDED_WORKLOAD,
        "size": size,
        "schemes": list(SCHEMES),
        "points": points,
        "speedup_table": {"headers": table.headers,
                          "rows": [[row[0], row[1],
                                    *(round(v, 3) for v in row[2:])]
                                   for row in table.rows]},
        "peak_rss_mb": round(_peak_rss_mb(), 1),
    }


@contextlib.contextmanager
def state_for(mode: str):
    """Run the body with per-proc state for the trace's processors
    (``"sparse"``) or for every processor of the machine (``"dense"``)."""
    if mode == "sparse":
        yield
        return

    def every_proc(*args, procs=None, **kwargs):
        return SimContext(*args, **kwargs)

    repro.sim.engine.SimContext = every_proc
    try:
        yield
    finally:
        repro.sim.engine.SimContext = SimContext


def time_sparse_vs_dense(size: str, rounds: int = 3,
                         n_procs: int = DENSE_PROCS) -> dict:
    """Same prepared run, per-proc state for the trace's processors vs
    for every processor."""
    program = build_workload(EXTENDED_WORKLOAD, size=size)
    run = prepare(program,
                  default_machine().with_(n_procs=n_procs, engine="fast"))
    timings = {}
    for mode in ("sparse", "dense"):
        with state_for(mode):
            best = float("inf")
            for _ in range(rounds):
                started = time.perf_counter()
                for scheme in SCHEMES:
                    simulate(run, scheme)
                best = min(best, time.perf_counter() - started)
        timings[mode] = best
    return {
        "workload": EXTENDED_WORKLOAD,
        "size": size,
        "n_procs": n_procs,
        "schemes": list(SCHEMES),
        "sparse_s": round(timings["sparse"], 4),
        "dense_s": round(timings["dense"], 4),
        "speedup": round(timings["dense"] / timings["sparse"], 2),
    }


def check_parity(size: str) -> dict:
    """Reference vs fast snapshots at the counts the reference can reach."""
    import dataclasses

    program = build_workload(EXTENDED_WORKLOAD, size=size)

    def snap(result):
        return json.dumps(
            {"result": result.to_dict(),
             "epoch_records": [dataclasses.asdict(r)
                               for r in result.epoch_records]},
            sort_keys=True)

    checked = {}
    for n_procs in PARITY_PROCS:
        machine = default_machine().with_(n_procs=n_procs,
                                          record_epochs=True)
        for scheme in SCHEMES:
            snaps = {}
            for engine in ("reference", "fast"):
                run = prepare(program, machine.with_(engine=engine))
                snaps[engine] = snap(simulate(run, scheme))
            checked[f"P{n_procs}/{scheme}"] = \
                snaps["fast"] == snaps["reference"]
    return checked


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", default="small",
                        choices=("small", "default", "large"),
                        help="workload size preset to measure")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds per point (best is kept)")
    parser.add_argument("--out", default=None,
                        help="write the report as JSON to this path")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit non-zero if sparse state beats dense "
                             "state by less than this at P=4096")
    args = parser.parse_args(argv)

    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "scale": time_scale_points(args.size, args.rounds),
        "sparse_vs_dense": time_sparse_vs_dense(args.size, args.rounds),
        "parity": check_parity(args.size),
        "storage_curve": {
            "y_axis": "coherence-state bits per memory line "
                      "(cache SRAM amortized)",
            "points": figure5_curve(procs=CURVE_PROCS),
        },
    }
    scale = report["scale"]
    widest = scale["points"][str(EXTENDED_PROCS[-1])]
    print(f"scale[{args.size}] P={EXTENDED_PROCS[-1]}: "
          f"{widest['wall_s']}s, peak {widest['peak_alloc_mb']} MB "
          f"(rss {scale['peak_rss_mb']} MB)")
    dense = report["sparse_vs_dense"]
    print(f"sparse-vs-dense[P={dense['n_procs']}] "
          f"sparse={dense['sparse_s']}s dense={dense['dense_s']}s "
          f"speedup={dense['speedup']}x")
    failed = False
    if not all(report["parity"].values()):
        bad = [key for key, ok in report["parity"].items() if not ok]
        print(f"FAIL: engine parity broken at {bad}", file=sys.stderr)
        failed = True
    if args.min_speedup is not None and \
            dense["speedup"] < args.min_speedup:
        print(f"FAIL: sparse-state speedup {dense['speedup']}x is below "
              f"the {args.min_speedup}x floor", file=sys.stderr)
        failed = True
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 1 if failed else 0


class TestScaleBench:
    def test_wide_machine_points(self, benchmark, bench_size):
        size = "small"  # the processor axis, not the data axis
        scale = benchmark.pedantic(time_scale_points, args=(size, 1),
                                   iterations=1, rounds=1)
        widest = scale["points"][str(EXTENDED_PROCS[-1])]
        saturated = scale["points"]["256"]
        # A 16384-proc point must cost the same order as the saturation
        # point, not 64x more (sanity; the wall-clock budget is in CI).
        assert widest["wall_s"] < 20 * max(saturated["wall_s"], 0.01)

    def test_sparse_state_speedup(self, benchmark, bench_size):
        dense = benchmark.pedantic(time_sparse_vs_dense, args=("small", 1),
                                   iterations=1, rounds=1)
        # Sanity only: the calibrated >= 5x gate runs in the dedicated CI
        # benchmark job and BENCH_scale.json.
        assert dense["speedup"] > 1.0

    def test_parity_at_reachable_counts(self):
        assert all(check_parity("small").values())


if __name__ == "__main__":
    sys.exit(main())
