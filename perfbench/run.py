"""The repository benchmark: four workloads, measured from outside.

Usage::

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 15 \\
        --trace 0

Workloads: ``suite-cold``, ``cache-geometry``, ``serve-warm`` and
``modelcheck`` (README.md in this directory says why each was chosen).
The script prints a machine stamp, one line per metric (name, value,
unit) and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics with tracing off.  ``--trace 1`` runs the workload
once untraced and once traced, checks that both give the same outputs,
and reports the per-layer metrics.  Every output is checked against the
digests in ``golden.json``; ``--write-golden`` regenerates that file.

The work runs in child processes (``worker.py`` for a pass of a
simulator workload, ``serve_child.py`` for the server), which import
``repro`` from this checkout's ``src``.  This script starts them, drives
the server's clients and aggregates what they report.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import serveload
from calibrate import scale, scaled
from checkout import OUT_DIR, ROOT
from tracer import layer_metrics, load, summarize

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
WORKLOADS = ("suite-cold", "cache-geometry", "serve-warm", "modelcheck")

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "requests_per_s": "1/s", "p50_ms": "ms",
    "p99_ms": "ms", "cold_fill_s": "s", "sim_events_per_s": "1/s",
    "peak_rss_mb": "MB", "model_err_pct": "%",
}
PER_LAYER = tuple(layer_metrics({})) + (
    "serve.transport_s", "mc_states_per_s", "failed_frac",
    "tracing.overhead_s", "tracing.spans")

SETUP_SAMPLES = 5
"""Set-ups measured per run of a simulator workload (median reported)."""
SERVE_SETUPS = 5
"""Server starts per ``serve-warm`` run (median reported)."""
CHILD_TIMEOUT = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong program output)."""


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def machine_stamp() -> Dict[str, object]:
    """What the numbers were measured on, taken before the run."""
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy,
        "numba": ("present" if importlib.util.find_spec("numba")
                  else "absent"),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def child_env() -> Dict[str, str]:
    """Environment for the children: no ``REPRO_*`` overrides from the
    caller, fixed hashing, and single-threaded numeric libraries so the
    clients and the server do not compete with BLAS threads."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


class Tally:
    """Operations attempted and failed over one run."""

    def __init__(self, golden: Dict[str, str]):
        self.golden = golden
        self.attempted = 0
        self.failures: List[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def note(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def check(self, op: str, digest: str) -> None:
        """Compare one operation's output digest with the golden one."""
        self.note(self.golden.get(op) == digest, f"{op}: {digest[:60]}")

    def check_ops(self, ops) -> None:
        for op in ops:
            self.check(op["op"], op["digest"])


# ------------------------------------------------------------- simulator


def run_worker(workload: str, size: str, trace: int = 0,
               setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--size", size, "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawn-t", repr(time.perf_counter())]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {workload} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def model_error(passes: List[dict], size: str, tally: Tally) -> float:
    """``model_err_pct``: from the pass when it ran ``tab_latency``,
    otherwise from one extra ``tab_latency`` run (checked as well)."""
    for result in passes:
        if "model_err_pct" in result:
            return result["model_err_pct"]
    accuracy = run_worker("accuracy", size)
    tally.check_ops(accuracy["ops"])
    return accuracy.get("model_err_pct", 0.0)


def end_to_end(m: dict, calibrated: bool) -> Dict[str, float]:
    """The end-to-end metrics from (host seconds, scale) pairs, in
    reference seconds when ``calibrated`` and host seconds otherwise.
    ``p99_ms`` is the median over passes of each pass's 99th percentile,
    so one stalled pass does not set it."""
    def times(pairs) -> List[float]:
        return [t * (f if calibrated else 1.0) for t, f in pairs]

    walls = times(m["walls"])
    passes = [times(pairs) for pairs in m["passes"]]
    latencies = [t for ops in passes for t in ops]
    return {
        "setup_s": statistics.median(times(m["setups"])),
        "wall_s": statistics.median(walls),
        "requests_per_s": len(latencies) / sum(walls),
        "p50_ms": 1e3 * percentile(latencies, 50),
        "p99_ms": 1e3 * statistics.median(percentile(ops, 99)
                                          for ops in passes),
        "cold_fill_s": statistics.median(times(m["fills"])),
        "sim_events_per_s": m["events"] / sum(walls),
        "peak_rss_mb": m["rss_mb"],
        "model_err_pct": m["model_err_pct"],
    }


def sim_measure(workload: str, seconds: float, size: str,
                tally: Tally) -> dict:
    """Whole passes for ``seconds``; every pass starts cold, so each is
    also a cold fill.  Each segment of an operation is scaled by the
    probes run just before and after it inside the pass."""
    passes: List[dict] = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        passes.append(run_worker(workload, size))
    setups = [(p["setup_s"], scale(p["probes"][0])) for p in passes]
    while len(setups) < SETUP_SAMPLES:
        extra = run_worker(workload, size, setup_only=True)
        setups.append((extra["setup_s"], scale(extra["probe"])))
    ops, walls = [], []
    for result in passes:
        tally.check_ops(result["ops"])
        raw = [op["latency_s"] for op in result["ops"]]
        segments = iter(scaled([s for op in result["ops"]
                                for s in op["segments"]], result["probes"]))
        ref = [sum(next(segments) for _ in op["segments"])
               for op in result["ops"]]
        ops.append([(t, r / t if t else 1.0) for t, r in zip(raw, ref)])
        walls.append((sum(raw), sum(ref) / sum(raw)))
    return {"setups": setups, "walls": walls, "fills": walls,
            "passes": ops,
            "events": sum(p["sim_events"] for p in passes),
            "rss_mb": max(p["rss_mb"] for p in passes),
            "model_err_pct": model_error(passes, size, tally)}


def sim_layers(workload: str, size: str, tally: Tally) -> Dict[str, float]:
    plain = run_worker(workload, size)
    traced = run_worker(workload, size, trace=1)
    tally.check_ops(plain["ops"])
    tally.check_ops(traced["ops"])
    tally.note([op["digest"] for op in plain["ops"]]
               == [op["digest"] for op in traced["ops"]],
               "traced and untraced outputs differ")
    layers = dict(traced["layers"])
    if workload in ("suite-cold", "cache-geometry"):
        tally.note(layers["sim.simulate_calls"] > 0
                   and layers["sim.simulate_s"] > 0,
                   "traced run recorded no simulations")
    # States per second of the grid checks alone: the self-tests' states
    # are not in ``mc_states``.
    grid_s = sum(op["latency_s"] for op in plain["ops"]
                 if op["op"].startswith(("modelcheck/tpi/",
                                         "modelcheck/tardis/")))
    layers["serve.transport_s"] = 0.0
    layers["mc_states_per_s"] = (plain.get("mc_states", 0) / grid_s
                                 if grid_s else 0.0)
    # Summed operation times: the untraced pass probes between
    # simulations and the traced one does not.
    layers["tracing.overhead_s"] = (
        sum(op["latency_s"] for op in traced["ops"])
        - sum(op["latency_s"] for op in plain["ops"]))
    layers["tracing.spans"] = traced["spans"]
    return layers


# ----------------------------------------------------------------- serve


def serve_measure(seconds: float, seed: int, size: str,
                  tally: Tally) -> dict:
    run = serveload.session(0, seconds, seed, tally, child_env(),
                            setups=SERVE_SETUPS)
    run["rss_mb"] = run["stats"]["rss_mb"]
    run["model_err_pct"] = model_error([], size, tally)
    return run


def serve_layers(seconds: float, seed: int, tally: Tally) -> Dict[str, float]:
    plain = serveload.session(0, seconds / 2, seed, tally, child_env())
    traced = serveload.session(1, seconds / 2, seed, tally, child_env())
    tally.note(plain["reference"] == traced["reference"],
               "traced and untraced responses differ")
    spans_file = traced["stats"].get("spans_file")
    if not spans_file:
        raise BenchError("traced server wrote no spans")
    summary = summarize(load(spans_file), *traced["window"])
    layers = layer_metrics(summary)
    tally.note(layers["sim.simulate_calls"] == 0,
               "warm requests ran the engine")
    answered = summary.get("serve.answer", {}).get("incl_s", 0.0)
    layers["mc_states_per_s"] = 0.0
    layers["serve.transport_s"] = (
        sum(t for ops in traced["passes"] for t, _ in ops) - answered)
    layers["tracing.overhead_s"] = (
        statistics.median(t for t, _ in traced["walls"])
        - statistics.median(t for t, _ in plain["walls"]))
    layers["tracing.spans"] = traced["stats"].get("spans", 0)
    return layers


# ------------------------------------------------------------------ main


def write_golden(path: Path) -> None:
    """Record the digest of every checked output of every workload."""
    digests: Dict[str, str] = {}
    for workload in ("suite-cold", "cache-geometry", "modelcheck"):
        for op in run_worker(workload, "full")["ops"]:
            if op["digest"].startswith("error:"):
                raise BenchError(f"{op['op']} failed: {op['digest']}")
            digests[op["op"]] = op["digest"]
    digests.update(serveload.golden_digests(child_env()))
    path.write_text(json.dumps(dict(sorted(digests.items())), indent=1)
                    + "\n")
    print(f"wrote {len(digests)} digests to {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="drives the serve-warm request mix; the "
                             "simulator workloads are fixed programs")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measure whole passes until this much time "
                             "has passed (at least one pass)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny: a three-experiment suite-cold or a "
                             "two-config modelcheck, for smoke tests")
    parser.add_argument("--golden", type=Path, default=GOLDEN,
                        help="digests to check outputs against")
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate the golden digests and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.write_golden:
        parser.error("--workload is required")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        if args.write_golden:
            write_golden(args.golden)
            return 0
        stamp = machine_stamp()
        print("perfbench machine " + json.dumps(stamp), flush=True)
        tally = Tally(json.loads(args.golden.read_text()))
        serve = args.workload == "serve-warm"
        host_metrics = None
        if args.trace:
            metrics = (serve_layers(args.seconds, args.seed, tally) if serve
                       else sim_layers(args.workload, args.size, tally))
            metrics["failed_frac"] = tally.failed / max(1, tally.attempted)
            names = PER_LAYER
        else:
            measured = (serve_measure(args.seconds, args.seed, args.size,
                                      tally) if serve
                        else sim_measure(args.workload, args.seconds,
                                         args.size, tally))
            metrics = end_to_end(measured, calibrated=True)
            host_metrics = end_to_end(measured, calibrated=False)
            names = tuple(END_TO_END)
    except (BenchError, serveload.ServeError, OSError,
            subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for failure in tally.failures[:20]:
        print(f"perfbench FAILED {failure}", file=sys.stderr)
    report = {name: {"value": float(metrics[name]), "unit": unit_of(name)}
              for name in names}
    for name, entry in report.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": report}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"machine": stamp, "args": {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "size": args.size}, "failures": tally.failures,
            "host_seconds_metrics": host_metrics, **result},
            indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
