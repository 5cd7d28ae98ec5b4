"""One measured pass of a simulator workload, in a fresh process.

``run.py`` starts this script once per pass, so every pass begins with
empty process-level state, the way ``repro experiment all`` does when a
user runs it.  The script puts the checkout's ``src`` first on the path,
times its own set-up from the moment the parent spawned it, runs the
pass, and prints one JSON object as its last line of output:

* ``setup_s`` — interpreter start, imports and workload construction;
* ``ops`` — each operation of the pass (an experiment, or a
  model-checker config or self-test), with its latency, its timed
  segments and the digest of its output for the golden check;
* ``probes`` — the speed probe taken before each operation, between the
  segments of a long one, and after the last (see ``calibrate.py``);
* ``sim_events``, ``rss_mb`` and, when measured, ``model_err_pct``;
* ``layers`` and ``spans`` — with ``--trace 1`` only.

Usage (normally only ``run.py`` calls it)::

    python3 perfbench/worker.py --workload suite-cold --spawn-t T
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import resource
import shutil
import sys
import tempfile
import time

from calibrate import probe
from checkout import OUT_DIR, import_repro
from tracer import (EXPERIMENT_IDS, Tracer, count_engine_results, install,
                    layer_metrics, summarize)

SUITE = tuple(exp for exp in EXPERIMENT_IDS if exp != "fig21_cache")
TINY_SUITE = ("fig5_storage", "fig8_params", "tab_latency")
SEGMENT_S = 1.0
"""Shortest segment an untraced operation is split into (see
:meth:`Pass.checkpoint`)."""

# The model-checking grid: a subset of the default TPI and Tardis grids
# that keeps one pass near eight seconds.  It keeps both protocols, 2 and
# 3 processors, both timetag widths and both self-tests; the 2-word and
# 2-line configs (33 s of the 41 s default grids) are left out.
TPI_CONFIGS = (
    dict(n_procs=2, n_lines=1, line_words=1, timetag_bits=2, max_epochs=10),
    dict(n_procs=3, n_lines=1, line_words=1, timetag_bits=2, max_epochs=9),
    dict(n_procs=2, n_lines=1, line_words=1, timetag_bits=3, max_epochs=17),
)
TARDIS_CONFIGS = (
    dict(n_procs=2, n_lines=1, line_words=1, timestamp_bits=2, lease=1,
         max_ts=9),
    dict(n_procs=2, n_lines=1, line_words=1, timestamp_bits=3, lease=2,
         max_ts=16),
)


def canonical_digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def model_error_pct(result) -> float:
    """Mean relative error of ``tab_latency`` against the paper's table."""
    from repro.experiments.tab_latency import PAPER_VALUES

    columns = {("tpi", 4): "TPI 16B", ("tpi", 16): "TPI 64B",
               ("hw", 4): "HW 16B", ("hw", 16): "HW 64B"}
    errors = [abs(result.cell(workload, columns[(scheme, line)]) - paper)
              / paper
              for (workload, scheme, line), paper in PAPER_VALUES.items()]
    return 100.0 * sum(errors) / len(errors)


class Pass:
    """Collects the operations of one pass."""

    def __init__(self, tracer: Tracer, traced: bool):
        self.tracer = tracer
        self.traced = traced
        self.ops = []
        self.probes = []
        self.extra = {}
        self._segments = None
        self._mark = 0.0

    def op(self, key: str, fn, digest):
        """Run one operation, time it and record its output digest.

        A speed probe runs before each operation (and once after the
        last, see ``main``), and :meth:`checkpoint` may split the
        operation into timed segments with a probe between them; the
        operation's latency is the sum of its segments, probes excluded.
        An operation that raises is recorded with an error digest, which
        the golden check counts as a failure; the pass goes on.
        """
        if self.traced:
            fn = self.tracer.span(key.replace("/", "."), fn)
        self.probes.append(probe())
        self._segments = []
        self._mark = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # reported as a failed operation
            result, text = None, f"error: {type(exc).__name__}: {exc}"
        else:
            text = digest(result)
        segments, self._segments = self._segments, None
        segments.append(time.perf_counter() - self._mark)
        self.ops.append({"op": key, "latency_s": sum(segments),
                         "segments": segments, "digest": text})
        return result

    def checkpoint(self) -> None:
        """Close the current segment and probe, once it has run
        ``SEGMENT_S``; called at the end of every simulation."""
        if self._segments is None:
            return
        now = time.perf_counter()
        if now - self._mark >= SEGMENT_S:
            self._segments.append(now - self._mark)
            self.probes.append(probe())
            self._mark = time.perf_counter()


def probe_between_simulations(run: Pass) -> None:
    """Let ``run`` split long operations at simulation ends.

    ``fig21_cache`` is one operation of about 25 s, and the machine's
    speed drifts within it; probes at its two ends alone scale it badly.
    """
    from repro.sim.engine import Engine

    finish = Engine.finish

    @functools.wraps(finish)
    def finished(self):
        result = finish(self)
        run.checkpoint()
        return result

    Engine.finish = finished


def run_experiments(run: Pass, ids, cache, telemetry) -> None:
    from repro.experiments import run_experiment

    for exp in ids:
        result = run.op(
            f"experiments/{exp}",
            lambda exp=exp: run_experiment(exp, size="small", jobs=1,
                                           cache=cache, telemetry=telemetry),
            lambda r: canonical_digest(r.to_dict()))
        if exp == "tab_latency" and result is not None:
            run.extra["model_err_pct"] = model_error_pct(result)


def run_modelcheck(run: Pass, tpi, tardis) -> None:
    from repro.analysis import (
        ModelConfig, TardisModelConfig, check_config, protocol_self_test,
        tardis_check_config, tardis_self_test)

    def grid_digest(result) -> str:
        return (f"states={result.states},transitions={result.transitions},"
                f"violations={len(result.violations)},"
                f"truncated={result.truncated}")

    def selftest_digest(result) -> str:
        refuted = sum(1 for m in result.mutations
                      if m.refuted_by_production is True)
        return f"caught={result.caught}/{result.seeded},refuted={refuted}"

    states = transitions = 0
    for protocol, config_cls, check, bounds in (
            ("tpi", ModelConfig, check_config, tpi),
            ("tardis", TardisModelConfig, tardis_check_config, tardis)):
        for kwargs in bounds:
            config = config_cls(**kwargs)
            result = run.op(f"modelcheck/{protocol}/{config.label}",
                            lambda c=config, f=check: f(c), grid_digest)
            if result is not None:
                states += result.states
                transitions += result.transitions
    run.op("modelcheck/selftest/tpi", protocol_self_test, selftest_digest)
    run.op("modelcheck/selftest/tardis", tardis_self_test, selftest_digest)
    run.extra["mc_states"] = states
    # A checker transition is one simulated protocol step (a read, write
    # or epoch advance of the abstract machine).
    run.extra["sim_events"] = transitions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite-cold", "cache-geometry", "modelcheck",
                                 "accuracy"))
    parser.add_argument("--spawn-t", type=float, required=True,
                        help="parent's time.perf_counter() at spawn")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    args = parser.parse_args(argv)
    if args.workload == "cache-geometry" and args.size == "tiny":
        parser.error("cache-geometry has no tiny size")

    import_repro()
    cache = telemetry = scratch = None
    if args.workload == "modelcheck":
        import repro.analysis.modelcheck  # noqa: F401
        import repro.analysis.modelcheck_tardis  # noqa: F401
    else:
        import repro.experiments  # noqa: F401
        from repro.runtime import ArtifactCache, Telemetry

        if args.workload == "suite-cold":
            (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
            scratch = tempfile.mkdtemp(prefix="cache-", dir=OUT_DIR / "tmp")
            cache, telemetry = ArtifactCache(scratch), Telemetry()
    setup_s = time.perf_counter() - args.spawn_t
    if args.setup_only:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s, "probe": probe()}))
        return 0

    tracer = Tracer()
    run = Pass(tracer, bool(args.trace))
    if args.trace:
        # No probes inside traced operations: they would land in the
        # self time of whatever span encloses ``Engine.finish``.
        install(tracer)
    else:
        count_engine_results(tracer)
        probe_between_simulations(run)
    tiny = args.size == "tiny"
    try:
        if args.workload == "suite-cold":
            run_experiments(run, TINY_SUITE if tiny else SUITE, cache,
                            telemetry)
        elif args.workload == "cache-geometry":
            run_experiments(run, ("fig21_cache",), None, None)
        elif args.workload == "accuracy":
            run_experiments(run, ("tab_latency",), None, None)
        else:
            run_modelcheck(run, TPI_CONFIGS[:1] if tiny else TPI_CONFIGS,
                           TARDIS_CONFIGS[:1] if tiny else TARDIS_CONFIGS)
        run.probes.append(probe())
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)

    summary = summarize(tracer.arrays())
    out = {"setup_s": setup_s, "ops": run.ops,
           "probes": run.probes,
           "sim_events": summary.get("sim.events", {}).get("value", 0.0),
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           / 1024.0,
           **run.extra}
    if args.trace:
        out["layers"] = layer_metrics(summary)
        out["spans"] = tracer.n_spans
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"spans-{args.workload}.npz")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
