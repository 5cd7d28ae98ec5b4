"""Kernel ledger: what each batch kernel buys.

For every scheme with a batch kernel, times the fast engine over the six
workloads (front ends prepared outside the timing), best of
``--rounds``, at small and default size, with the kernel on and off.
Off, the scheme is taken out of ``repro.coherence.batch.KERNELS`` in
this process, so every epoch falls back to the heap; ``src/repro`` has
no setting for it.  Each row also counts the epochs each variant
batched.  Every round times both variants in turn, so drift on a
shared host hits them alike.  An off variant whose results differ from
the on variant's (a SHA-256 of every result's canonical ``to_dict()``
and epoch records) fails the run.

Standalone::

    python benchmarks/bench_kernels.py --rounds 3 --out BENCH_kernels.json

``--baseline OLD.json`` embeds an earlier run of this script (for
example one made with ``PYTHONPATH`` pointing at another checkout's
``src``) and fails if any result digest differs from it.  Under pytest
one scheme runs once at small size, with sanity assertions only.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import sys
import time
from unittest import mock

import numpy as np

from repro.coherence.batch import KERNELS
from repro.common.config import default_machine
from repro.sim import make_engine, prepare
from repro.workloads import build_workload, workload_names

SIZES = ("small", "default")
VARIANTS = ("on", "off")


def run_variant(runs, scheme: str, machine, variant: str):
    """Run ``scheme`` over every prepared run with its kernel ``variant``
    ("on" or "off"); returns the results and the epochs batched."""
    results, batched = [], 0
    with mock.patch.dict(KERNELS):
        if variant == "off":
            del KERNELS[scheme]
        for run in runs:
            engine = make_engine(run.trace, run.marking, machine, scheme)
            results.append(engine.run())
            batched += engine.batched_epochs
    return results, batched


def digest(results) -> str:
    """SHA-256 over the canonical rendering of every result."""
    h = hashlib.sha256()
    for result in results:
        h.update(json.dumps(
            {"result": result.to_dict(),
             "epochs": [dataclasses.astuple(r)
                        for r in result.epoch_records]},
            sort_keys=True, separators=(",", ":")).encode())
    return h.hexdigest()


def measure(size: str, schemes=tuple(KERNELS), rounds: int = 3):
    """Per scheme: best-of-``rounds`` seconds with the kernel on and off,
    the epochs each variant batched, and the results' digest."""
    machine = default_machine().with_(engine="fast", record_epochs=True)
    runs = [prepare(build_workload(name, size=size), machine)
            for name in workload_names()]
    out = {}
    for scheme in schemes:
        best = dict.fromkeys(VARIANTS, float("inf"))
        digests, batched = {}, {}
        for _ in range(rounds):
            for variant in VARIANTS:
                started = time.perf_counter()
                results, batched[variant] = run_variant(runs, scheme,
                                                        machine, variant)
                best[variant] = min(best[variant],
                                    time.perf_counter() - started)
                digests.setdefault(variant, digest(results))
        if digests["off"] != digests["on"]:
            raise ValueError(f"{size}/{scheme}: results change with the "
                             "kernel off")
        out[scheme] = {"on_s": round(best["on"], 4),
                       "kernel_off_s": round(best["off"], 4),
                       "batched_on": batched["on"],
                       "batched_off": batched["off"],
                       "digest": digests["on"]}
    out["total"] = {key: round(sum(row[key] for row in out.values()), 4)
                    for key in ("on_s", "kernel_off_s")}
    return out


def machine_stamp() -> dict:
    return {"machine": platform.machine(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__}


def compare(sizes: dict, baseline: dict) -> None:
    """Raises if any result digest differs from ``baseline``'s."""
    for size, rows in sizes.items():
        for scheme, row in rows.items():
            old = baseline["sizes"].get(size, {}).get(scheme)
            if old and old.get("digest") != row.get("digest"):
                raise ValueError(f"{size}/{scheme}: results differ from "
                                 "the baseline's")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds per variant (best is kept)")
    parser.add_argument("--baseline", default=None,
                        help="an earlier --out file to compare against")
    parser.add_argument("--baseline-label", default="baseline",
                        help="what the baseline measured, e.g. a commit")
    parser.add_argument("--label", default="this checkout",
                        help="what this run measures, e.g. a commit")
    parser.add_argument("--out", default=None,
                        help="write the report as JSON to this path")
    args = parser.parse_args(argv)

    try:
        sizes = {size: measure(size, rounds=args.rounds) for size in SIZES}
    except ValueError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    report = {**machine_stamp(), "rounds": args.rounds, "label": args.label,
              "sizes": sizes}
    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        try:
            compare(sizes, baseline)
        except ValueError as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            return 1
        report["baseline"] = {"label": args.baseline_label,
                              "sizes": baseline["sizes"]}
    print(f"{'size/scheme':20s} {'on':>8s} {'kernel off':>12s}")
    for size, rows in sizes.items():
        for scheme, row in rows.items():
            print(f"{size + '/' + scheme:20s} {row['on_s']:8.3f} "
                  f"{row['kernel_off_s']:12.3f}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


class TestKernelBench:
    def test_one_scheme_at_small_size(self, benchmark):
        rows = benchmark.pedantic(measure, args=("small", ("base",), 1),
                                  iterations=1, rounds=1)
        assert set(rows) == {"base", "total"}
        row = rows["base"]
        assert row["on_s"] > 0 and row["kernel_off_s"] > 0
        assert len(row["digest"]) == 64
        # Off must reach the engine: with no kernel no epoch batches.
        assert row["batched_on"] > 0
        assert row["batched_off"] == 0


if __name__ == "__main__":
    sys.exit(main())
