"""Model-checker benchmark: the TPI and Tardis checkers, config by config.

Times the five checker configs of the repository benchmark's
``modelcheck`` workload (``perfbench/worker.py``: three TPI, two Tardis)
and both mutation self-tests, best of ``--rounds``, and records each
one's states and transitions (a self-test's are summed over its
mutants' searches, with its caught and refuted mutants) beside a
machine stamp.  The counts are the golden check: a faster checker that
explores a different space is a different checker.

Standalone::

    python benchmarks/bench_modelcheck.py --rounds 3 --out BENCH_modelcheck.json

``--baseline OLD.json`` embeds an earlier run of this script (for
example one made with ``PYTHONPATH`` pointing at another checkout's
``src``) and records each entry's speedup over it, failing if any count
differs.  Under pytest one Tardis and one TPI config run once, with
sanity assertions only.
"""

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

from repro.analysis import (ModelConfig, TardisModelConfig, check_config,
                            protocol_self_test, tardis_check_config,
                            tardis_self_test)

# The ``modelcheck`` workload's grid, as in perfbench/worker.py.
TPI_CONFIGS = (
    ModelConfig(n_procs=2, n_lines=1, line_words=1, timetag_bits=2,
                max_epochs=10),
    ModelConfig(n_procs=3, n_lines=1, line_words=1, timetag_bits=2,
                max_epochs=9),
    ModelConfig(n_procs=2, n_lines=1, line_words=1, timetag_bits=3,
                max_epochs=17),
)
TARDIS_CONFIGS = (
    TardisModelConfig(n_procs=2, n_lines=1, line_words=1, timestamp_bits=2,
                      lease=1, max_ts=9),
    TardisModelConfig(n_procs=2, n_lines=1, line_words=1, timestamp_bits=3,
                      lease=2, max_ts=16),
)


def _grid_counts(result) -> dict:
    return {"states": result.states, "transitions": result.transitions,
            "violations": len(result.violations),
            "truncated": result.truncated}


def _self_test_counts(result) -> dict:
    return {"states": sum(m.states for m in result.mutations),
            "transitions": sum(m.transitions for m in result.mutations),
            "caught": result.caught, "seeded": result.seeded,
            "refuted": sum(1 for m in result.mutations
                           if m.refuted_by_production is True)}


def entries(tpi=TPI_CONFIGS, tardis=TARDIS_CONFIGS, self_tests=True):
    """``(name, thunk, counts)`` for every timed operation."""
    out = [(f"tpi/{c.label}", lambda c=c: check_config(c), _grid_counts)
           for c in tpi]
    out += [(f"tardis/{c.label}", lambda c=c: tardis_check_config(c),
             _grid_counts) for c in tardis]
    if self_tests:
        out += [("selftest/tpi", protocol_self_test, _self_test_counts),
                ("selftest/tardis", tardis_self_test, _self_test_counts)]
    return out


def measure(ops, rounds: int = 3) -> dict:
    """Best-of-``rounds`` seconds and the counts of each operation."""
    runs = {}
    for name, thunk, counts in ops:
        best = float("inf")
        for _ in range(rounds):
            started = time.perf_counter()
            result = thunk()
            best = min(best, time.perf_counter() - started)
        runs[name] = {"best_s": round(best, 4), **counts(result)}
    runs["total"] = {"best_s": round(sum(r["best_s"]
                                         for r in runs.values()), 4)}
    return runs


def machine_stamp() -> dict:
    return {"machine": platform.machine(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__}


def compare(runs: dict, baseline: dict) -> None:
    """Add each entry's speedup over ``baseline``; raises if any count
    differs."""
    for name, run in runs.items():
        old = baseline["runs"][name]
        for key in run.keys() - {"best_s", "speedup"}:
            if run[key] != old[key]:
                raise ValueError(f"{name}: {key} {run[key]} differs from "
                                 f"the baseline's {old[key]}")
        run["speedup"] = round(old["best_s"] / run["best_s"], 2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds per operation (best is kept)")
    parser.add_argument("--baseline", default=None,
                        help="an earlier --out file to compare against")
    parser.add_argument("--baseline-label", default="baseline",
                        help="what the baseline measured, e.g. a commit")
    parser.add_argument("--label", default="this checkout",
                        help="what this run measures, e.g. a commit")
    parser.add_argument("--out", default=None,
                        help="write the report as JSON to this path")
    args = parser.parse_args(argv)

    report = {**machine_stamp(), "rounds": args.rounds, "label": args.label,
              "runs": measure(entries(), args.rounds)}
    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        try:
            compare(report["runs"], baseline)
        except ValueError as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            return 1
        report["baseline"] = {"label": args.baseline_label,
                              "runs": baseline["runs"]}
    for name, run in report["runs"].items():
        speedup = f"  {run['speedup']}x" if "speedup" in run else ""
        print(f"{name:28s} {run['best_s']:8.3f} s{speedup}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


class TestModelcheckBench:
    def test_one_config_per_checker(self, benchmark):
        runs = benchmark.pedantic(
            measure, args=(entries(TPI_CONFIGS[:1], TARDIS_CONFIGS[:1],
                                   self_tests=False), 1),
            iterations=1, rounds=1)
        assert set(runs) == {f"tpi/{TPI_CONFIGS[0].label}",
                             f"tardis/{TARDIS_CONFIGS[0].label}", "total"}
        assert all(run["best_s"] > 0 for run in runs.values())
        tardis = runs[f"tardis/{TARDIS_CONFIGS[0].label}"]
        assert (tardis["states"], tardis["violations"]) == (6083, 0)


if __name__ == "__main__":
    sys.exit(main())
