"""Per-epoch cost of the fast engine: how planning and pre-apply scale.

Runs the small experiments other than ``fig21_cache`` once in-process,
with one fresh artifact cache (the pass perfbench's ``suite-cold``
workload times), and times every call of ``FastEngine._plan_epoch``
that batches an epoch and every ``FastEngine._preapply_epoch``.  A
least-squares fit over the calls splits their time into a fixed part,
a part per task and a part per event of the epoch::

    time ~ per_call + per_task * n_tasks + per_event * n_events

A per-task coefficient near zero means an epoch's cost is flat in its
task count.  The hooks are plain method wraps, so the script also
measures another checkout: point ``PYTHONPATH`` at its ``src``.

Standalone::

    python benchmarks/bench_epoch_cost.py [--experiments fig11_miss_rates ...]

Under pytest one experiment runs, with sanity assertions only.
"""

import argparse
import tempfile
import time

import numpy as np

from repro.experiments import EXPERIMENTS, run_experiment
from repro.runtime import ArtifactCache, Telemetry
from repro.sim.fastengine import FastEngine

SUITE = tuple(exp for exp in EXPERIMENTS if exp != "fig21_cache")


def measure(experiments=SUITE) -> dict:
    """``{"pass_s": ..., "plan": rows, "preapply": rows}``; a row is
    ``(seconds, n_tasks, n_events)`` of one call."""
    rows = {"plan": [], "preapply": []}
    plan, preapply = FastEngine._plan_epoch, FastEngine._preapply_epoch
    current = {}

    def timed_plan(self, epoch):
        started = time.perf_counter()
        hot = plan(self, epoch)
        if hot is not None:
            rows["plan"].append((time.perf_counter() - started,
                                 epoch.n_tasks, epoch.n_events))
        current["epoch"] = epoch
        return hot

    def timed_preapply(self, *args):
        started = time.perf_counter()
        cold = preapply(self, *args)
        epoch = current["epoch"]
        rows["preapply"].append((time.perf_counter() - started,
                                 epoch.n_tasks, epoch.n_events))
        return cold

    FastEngine._plan_epoch = timed_plan
    FastEngine._preapply_epoch = timed_preapply
    try:
        with tempfile.TemporaryDirectory() as root:
            cache, telemetry = ArtifactCache(root), Telemetry()
            started = time.perf_counter()
            for exp in experiments:
                run_experiment(exp, size="small", jobs=1, cache=cache,
                               telemetry=telemetry)
            rows["pass_s"] = time.perf_counter() - started
    finally:
        FastEngine._plan_epoch = plan
        FastEngine._preapply_epoch = preapply
    return rows


def fit(rows) -> dict:
    """Least-squares ``per_call``/``per_task``/``per_event`` (µs)."""
    a = np.asarray(rows, dtype=float).reshape(-1, 3)
    design = np.column_stack((np.ones(len(a)), a[:, 1], a[:, 2]))
    coef = np.linalg.lstsq(design, a[:, 0], rcond=None)[0] * 1e6
    return {"calls": len(a), "total_s": round(float(a[:, 0].sum()), 3),
            "per_call_us": round(float(coef[0]), 1),
            "per_task_us": round(float(coef[1]), 1),
            "per_event_us": round(float(coef[2]), 3)}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--experiments", nargs="+", default=list(SUITE))
    args = parser.parse_args(argv)
    rows = measure(args.experiments)
    print(f"pass {rows['pass_s']:.2f} s")
    fits = {name: fit(rows[name]) for name in ("plan", "preapply")}
    for name, coef in fits.items():
        print(name, coef)
    print(f"plan + preapply per task: "
          f"{sum(c['per_task_us'] for c in fits.values()):.1f} us")


def test_epoch_cost_fit():
    rows = measure(["fig11_miss_rates"])
    assert rows["plan"] and rows["preapply"]
    for name in ("plan", "preapply"):
        assert fit(rows[name])["calls"] == len(rows[name])


if __name__ == "__main__":
    main()
