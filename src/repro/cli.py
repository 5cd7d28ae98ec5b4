"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``list``
    Show available workloads, schemes, and experiments.
``show <workload>``
    Print the (marking-annotated) source listing of a workload.
``simulate <workload> [--scheme ...] [--procs N] [--size small|default]``
    Run one or more schemes over a workload and print result summaries.
``experiment <id>|all [--size small|paper] [--json PATH] [--chart COLUMN]``
    Regenerate a paper table/figure.
``sweep <workload> --axis name=v1,v2,... [--scheme ...]``
    Grid study over machine parameters (axes: line, size, k, procs, wbuf).
``lint <workload> [--scheme tpi|sc|tardis|snoop] [--mode inline|summary|none]``
    Verify the marking pass against the independent staleness oracle and
    the dynamic sanitizer; see docs/ANALYSIS.md.  The hardware schemes
    (``tardis``/``snoop``) have no marking: they run the sanitizer alone
    under the scheme's hardware freshness model.  Exit codes: 0 clean,
    1 findings (errors, or warnings with ``--strict``), 2 usage error.
    ``--modelcheck`` appends the protocol verification below.
``modelcheck [--scheme tpi|tardis] [--procs N --lines N --words N --k N ...]``
    Bounded-exhaustive verification of a protocol itself: enumerate
    every reachable state of tiny configurations and assert staleness
    safety, checking the exact rule functions the simulator executes
    (see docs/ANALYSIS.md).  ``--scheme tpi`` (default) verifies the
    1996 timetag protocol (``--epochs`` bounds the run; the default grid
    forces >= 2 counter wrap-arounds); ``--scheme tardis`` verifies the
    Tardis lease protocol (``--lease``/``--max-ts`` bound the run; the
    default grid reaches >= 2 timestamp rebases).  ``--self-test`` seeds
    known protocol bugs and requires 100% counterexample detection.
    Exit codes as for ``lint``.
``cache stats|clear``
    Inspect or empty the on-disk artifact cache.
``serve [--host H] [--port P] [--peers LIST]``
    Run the simulation-as-a-service HTTP server (``POST /simulate``,
    ``POST /sweep``, ``GET /jobs/<id>``, ``GET /healthz``,
    ``GET /stats``); see docs/SERVE.md.  Responses are byte-identical
    to the matching ``--json`` CLI output; identical in-flight requests
    are coalesced; warm requests are served straight from the (sharded,
    peer-aware) artifact cache.

``simulate``, ``experiment``, and ``sweep`` all execute through the
:mod:`repro.runtime` engine and share its flags: ``--jobs N`` fans
simulations out over N worker processes (0 = all cores), ``--cache-dir``
relocates the artifact cache (default ``~/.cache/repro`` or
``$REPRO_CACHE_DIR``), ``--no-cache`` disables it, ``--report PATH``
writes run telemetry (cache hits, per-job wall times, worker utilization,
per-phase compile/trace/engine timings) as JSON, and ``--json PATH``
writes the results themselves as JSON (``simulate`` adds a ``phases``
key alongside the per-scheme results when phase timings were recorded).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from repro.coherence import SCHEME_NAMES
from repro.common.config import ENGINE_NAMES, default_machine
from repro.common.errors import ReproError
from repro.compiler import mark_program
from repro.experiments import experiment_ids, run_experiment
from repro.ir.pprint import format_program
from repro.sim import simulate_all
from repro.workloads import build_workload, workload_names

#: ``repro modelcheck --scheme`` -> the protocol module it checks.
_MODELCHECKERS = {"tpi": "repro.analysis.modelcheck",
                  "tardis": "repro.analysis.modelcheck_tardis"}


def _add_runtime_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="worker processes (0 = all cores; default 1)")
    sub.add_argument("--engine", metavar="NAME",
                     help=f"simulation engine: {', '.join(ENGINE_NAMES)} "
                          "(default $REPRO_ENGINE or fast; the engines are "
                          "bit-identical, see docs/PERF.md)")
    sub.add_argument("--cache-dir", metavar="PATH",
                     help="artifact cache location (default ~/.cache/repro "
                          "or $REPRO_CACHE_DIR)")
    sub.add_argument("--no-cache", action="store_true",
                     help="do not read or write the artifact cache")
    sub.add_argument("--report", metavar="PATH",
                     help="write run telemetry (cache hits, wall times) as JSON")


class _Parser(argparse.ArgumentParser):
    """Usage errors are one line (exit 2), like every other CLI error;
    ``-h`` still prints the full usage."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="Choi & Yew (ISCA 1996) cache-coherence reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads, schemes, experiments")

    show = sub.add_parser("show", help="print a workload's marked listing")
    show.add_argument("workload", choices=workload_names())
    show.add_argument("--size", default="small", choices=("small", "default"))
    show.add_argument("--no-marking", action="store_true",
                      help="omit Time-Read annotations")

    simp = sub.add_parser("simulate", help="simulate schemes on a workload")
    simp.add_argument("workload", choices=workload_names())
    simp.add_argument("--scheme", action="append", choices=SCHEME_NAMES,
                      help="repeatable; default: base sc tpi hw")
    simp.add_argument("--procs", type=int, default=16)
    simp.add_argument("--size", default="default", choices=("small", "default"))
    simp.add_argument("--json", metavar="PATH",
                      help="also write the results as JSON")
    _add_runtime_args(simp)

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument("experiment", choices=[*experiment_ids(), "all"])
    exp.add_argument("--size", default="small", choices=("small", "paper"))
    exp.add_argument("--json", metavar="PATH",
                     help="also write the result table(s) as JSON")
    exp.add_argument("--chart", metavar="COLUMN",
                     help="also print an ASCII bar chart of one column")
    exp.add_argument("--plot", nargs="?", const="", metavar="PATH",
                     help="fig5_storage only: write the scaling curve as "
                          "SVG (default docs/fig5_storage.svg; matplotlib "
                          "when installed, a built-in emitter otherwise)")
    _add_runtime_args(exp)

    swp = sub.add_parser("sweep", help="grid study over machine parameters")
    swp.add_argument("workload", choices=workload_names())
    swp.add_argument("--axis", action="append", required=True,
                     metavar="NAME=V1,V2,...",
                     help="axes: line=<words>, size=<KB>, k=<bits>, "
                          "procs=<N>, wbuf (no values); repeatable")
    swp.add_argument("--scheme", action="append", choices=SCHEME_NAMES,
                     help="repeatable; default: tpi hw")
    swp.add_argument("--size", default="small",
                     choices=("small", "default", "large"))
    swp.add_argument("--json", metavar="PATH",
                     help="also write the sweep points as JSON")
    _add_runtime_args(swp)

    lint = sub.add_parser("lint", help="verify marking against the oracle")
    lint.add_argument("workload",
                      help="workload name (see `repro list`) or 'all'")
    lint.add_argument("--scheme", action="append", metavar="SCHEME",
                      help="map to check: tpi, sc — or a hardware scheme "
                           "to sanitize: tardis, snoop (repeatable; "
                           "default tpi+sc)")
    lint.add_argument("--mode", action="append", metavar="MODE",
                      help="interprocedural mode: inline, summary, none "
                           "(repeatable; default all three)")
    lint.add_argument("--size", default="small", choices=("small", "default"))
    lint.add_argument("--strict", action="store_true",
                      help="exit 1 on warnings too, not just errors")
    lint.add_argument("--no-sanitize", action="store_true",
                      help="skip the dynamic trace-replay cross-check")
    lint.add_argument("--self-test", action="store_true",
                      help="also run the mutation self-test (seed marking "
                           "defects; the lint must catch every one)")
    lint.add_argument("--json", metavar="PATH",
                      help="also write the report(s) as JSON")
    lint.add_argument("--modelcheck", action="store_true",
                      help="also run the bounded-exhaustive protocol "
                           "verification (default config grid)")
    lint.add_argument("--cache-dir", metavar="PATH",
                      help="artifact cache location (default ~/.cache/repro "
                           "or $REPRO_CACHE_DIR)")
    lint.add_argument("--no-cache", action="store_true",
                      help="do not read or write the artifact cache")

    mck = sub.add_parser("modelcheck",
                         help="bounded-exhaustive protocol verification "
                              "(TPI timetags or Tardis leases)")
    mck.add_argument("--scheme", choices=tuple(_MODELCHECKERS), default="tpi",
                     help="protocol to verify: the 1996 TPI timetags or "
                          "the Tardis lease protocol (default tpi)")
    mck.add_argument("--procs", type=int, metavar="N",
                     help="processors (2..4); with any bounds flag set, a "
                          "single config replaces the default grid")
    mck.add_argument("--lines", type=int, metavar="N",
                     help="cache lines / shared arrays (1..3)")
    mck.add_argument("--words", type=int, metavar="N",
                     help="words per line (1..4)")
    mck.add_argument("--k", type=int, metavar="BITS",
                     help="timetag/timestamp width in bits (tpi 1..4, "
                          "tardis 2..4)")
    mck.add_argument("--epochs", type=int, metavar="N",
                     help="tpi only: epoch bound (1..64; 2^k epochs = one "
                          "counter wrap; the default grid forces >= 2 wraps)")
    mck.add_argument("--lease", type=int, metavar="N",
                     help="tardis only: read-lease length in timestamp "
                          "units (1..2^(k-1)-1)")
    mck.add_argument("--max-ts", type=int, metavar="N", dest="max_ts",
                     help="tardis only: logical-time bound (1..64; the "
                          "default grid reaches >= 2 rebases per config)")
    mck.add_argument("--strict", action="store_true",
                     help="exit 1 on warnings too, not just errors")
    mck.add_argument("--self-test", action="store_true",
                     help="also seed known protocol bugs; every one must "
                          "produce a counterexample")
    mck.add_argument("--no-replay", action="store_true",
                     help="skip replaying counterexamples through the "
                          "production TpiScheme")
    mck.add_argument("--json", metavar="PATH",
                     help="also write the report as JSON")
    mck.add_argument("--cache-dir", metavar="PATH",
                     help="artifact cache location (default ~/.cache/repro "
                          "or $REPRO_CACHE_DIR)")
    mck.add_argument("--no-cache", action="store_true",
                     help="do not read or write the artifact cache")

    cch = sub.add_parser("cache", help="inspect or clear the artifact cache")
    cch.add_argument("action", choices=("stats", "clear"))
    cch.add_argument("--cache-dir", metavar="PATH",
                     help="cache location (default ~/.cache/repro "
                          "or $REPRO_CACHE_DIR)")

    srv = sub.add_parser("serve",
                         help="run the simulation-as-a-service HTTP server")
    srv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default 127.0.0.1)")
    srv.add_argument("--port", type=int, default=8089,
                     help="bind port (default 8089; 0 = ephemeral)")
    srv.add_argument("--dispatchers", type=int, default=2, metavar="N",
                     help="concurrent cold-request dispatches (default 2); "
                          "each dispatch may fan out over --jobs workers")
    srv.add_argument("--timeout", type=float, metavar="SECONDS",
                     help="per-job wall-clock bound inside the executor")
    srv.add_argument("--drain-timeout", type=float, default=30.0,
                     metavar="SECONDS",
                     help="how long shutdown waits for in-flight requests")
    srv.add_argument("--peers", metavar="LIST",
                     help="comma-separated peer cache roots (directories "
                          "and/or http://host:port serve endpoints) for "
                          "read-through; default $REPRO_CACHE_PEERS")
    _add_runtime_args(srv)
    return parser


def _apply_engine(args) -> None:
    """Validate ``--engine`` and export it to the runtime.

    The env var is how the choice reaches machine configs built deep
    inside experiments, and worker processes inherit it.  An unknown
    engine name is a one-line usage error (exit 2), not a traceback.
    """
    import os

    choice = getattr(args, "engine", None)
    if choice:
        if choice not in ENGINE_NAMES:
            raise ReproError(f"unknown engine {choice!r}; choose from "
                             f"{', '.join(ENGINE_NAMES)} (see docs/PERF.md)")
        os.environ["REPRO_ENGINE"] = choice


def _runtime_from_args(args):
    """Resolve the shared runtime flags into (jobs, cache, telemetry)."""
    from repro.runtime import ArtifactCache, Telemetry

    _apply_engine(args)
    cache = None if args.no_cache else ArtifactCache(args.cache_dir)
    return args.jobs, cache, Telemetry()


def _finish_run(args, telemetry) -> None:
    if args.report:
        telemetry.report().save(args.report)


def _cmd_list() -> int:
    print("workloads:  " + " ".join(workload_names()))
    print("schemes:    " + " ".join(SCHEME_NAMES))
    print("experiments:")
    for experiment in experiment_ids():
        print(f"  {experiment}")
    return 0


def _cmd_show(args) -> int:
    program = build_workload(args.workload, size=args.size)
    marking = None if args.no_marking else mark_program(program)
    print(format_program(program, marking))
    return 0


def _cmd_simulate(args) -> int:
    from repro.runtime import write_json

    schemes = args.scheme or ["base", "sc", "tpi", "hw"]
    machine = default_machine().with_(n_procs=args.procs)
    jobs, cache, telemetry = _runtime_from_args(args)
    results = simulate_all(build_workload(args.workload, size=args.size),
                           schemes, machine, jobs=jobs, cache=cache,
                           telemetry=telemetry)
    for scheme in schemes:
        print(results[scheme].summary())
        print()
    if args.json:
        from repro.serve.payloads import simulate_payload

        write_json(simulate_payload(results, telemetry), args.json)
    _finish_run(args, telemetry)
    return 0


def _cmd_experiment(args) -> int:
    from repro.runtime import write_json

    targets = experiment_ids() if args.experiment == "all" else [args.experiment]
    plot = getattr(args, "plot", None)
    if plot is not None and "fig5_storage" not in targets:
        raise ReproError("--plot is only supported for fig5_storage")
    jobs, cache, telemetry = _runtime_from_args(args)
    collected = []
    for experiment in targets:
        result = run_experiment(experiment, size=args.size, jobs=jobs,
                                cache=cache, telemetry=telemetry)
        print(result.render())
        if args.chart:
            print()
            print(result.render_bars(args.chart))
        print()
        collected.append(result.to_dict())
    if plot is not None:
        from repro.experiments import fig5_storage

        print(f"wrote {fig5_storage.plot(plot or fig5_storage.DEFAULT_PLOT_PATH)}")
    if args.json:
        write_json(collected if len(collected) > 1 else collected[0],
                   args.json)
    _finish_run(args, telemetry)
    return 0


def _cmd_sweep(args) -> int:
    from repro.runtime import write_json
    from repro.sim.sweep import sweep_from_specs

    try:
        sweep = sweep_from_specs(build_workload(args.workload, size=args.size),
                                 args.axis,
                                 schemes=tuple(args.scheme or ("tpi", "hw")))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None
    jobs, cache, telemetry = _runtime_from_args(args)
    points = sweep.run(jobs=jobs, cache=cache, telemetry=telemetry)
    label_names = [name for name, _ in sweep._axes]
    header = "  ".join(f"{n:>8}" for n in label_names)
    print(f"{header}  {'scheme':>7}  {'cycles':>9}  {'miss %':>7}  {'misslat':>8}")
    for point in points:
        labels = "  ".join(f"{point.labels[n]:>8}" for n in label_names)
        r = point.result
        print(f"{labels}  {point.scheme:>7}  {r.exec_cycles:>9}  "
              f"{100 * r.miss_rate:>7.2f}  {r.avg_miss_latency:>8.1f}")
    if args.json:
        from repro.serve.payloads import sweep_payload

        write_json(sweep_payload(points, telemetry), args.json)
    _finish_run(args, telemetry)
    return 0


def _write_json_output(payload, path: str) -> None:
    """``--json PATH`` writer: an unwritable path is a usage error.

    ``write_json`` opens the file lazily, so a bad directory, a
    permission problem, or a full disk would otherwise surface as an
    OSError traceback; users of ``--json`` deserve the same one-line
    exit-2 treatment as any other bad argument.
    """
    from repro.runtime import write_json

    try:
        write_json(payload, path)
    except OSError as exc:
        raise ReproError(
            f"cannot write --json output to {path!r}: "
            f"{exc.strerror or exc}") from None


def _cmd_lint(args) -> int:
    from repro.analysis import lint_workload, mutation_self_test
    from repro.analysis.diagnostics import EXIT_USAGE
    from repro.analysis.lint import _normalize_modes, _normalize_schemes
    from repro.runtime import ArtifactCache

    known = workload_names()
    names = list(known) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in known:
            print(f"error: unknown workload {name!r}; choose from "
                  f"{' '.join(known)}", file=sys.stderr)
            return EXIT_USAGE
    try:
        modes = _normalize_modes(args.mode)
        schemes = _normalize_schemes(args.scheme)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    cache = None if args.no_cache else ArtifactCache(args.cache_dir)
    payloads = []
    code = 0
    for name in names:
        report = lint_workload(name, size=args.size, modes=modes,
                               schemes=schemes,
                               sanitize=not args.no_sanitize, cache=cache)
        print(report.render())
        code = max(code, report.exit_code(strict=args.strict))
        payload = report.to_dict()
        if args.self_test:
            program = build_workload(name, size=args.size)
            payload["self_test"] = {}
            for mode in modes:
                result = mutation_self_test(program, mode=mode)
                print(result.summary())
                for mutation in result.missed:
                    print(f"  MISSED {mutation.kind} at site {mutation.site} "
                          f"(expected {mutation.expected_rule})")
                    code = max(code, 1)
                payload["self_test"][mode.value] = {
                    "seeded_errors": result.seeded_errors,
                    "caught_errors": result.caught_errors,
                    "missed": [m.site for m in result.missed],
                }
        payloads.append(payload)
        print()
    if args.modelcheck:
        from repro.analysis import modelcheck_report

        report = modelcheck_report(cache=cache)
        print(report.render())
        print()
        code = max(code, report.exit_code(strict=args.strict))
        payloads.append(report.to_dict())
    if args.json:
        _write_json_output(payloads if len(payloads) > 1 else payloads[0],
                           args.json)
    return code


def _cmd_modelcheck(args) -> int:
    import importlib

    from repro.analysis.diagnostics import EXIT_USAGE
    from repro.runtime import ArtifactCache

    protocols = {scheme: importlib.import_module(module).PROTOCOL
                 for scheme, module in _MODELCHECKERS.items()}
    protocol = protocols[args.scheme]
    for flag in sorted({flag for other in protocols.values()
                        for flag in other.cli_bounds}):
        if flag not in protocol.cli_bounds and getattr(args, flag) is not None:
            owners = "/".join(scheme for scheme, other in protocols.items()
                              if flag in other.cli_bounds)
            print(f"error: --{flag.replace('_', '-')} applies to --scheme "
                  f"{owners} only", file=sys.stderr)
            return EXIT_USAGE
    custom: Dict[str, int] = {field: getattr(args, flag)
                              for flag, field in protocol.cli_bounds.items()
                              if getattr(args, flag) is not None}
    try:
        configs = [protocol.config(**custom)] if custom else None
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    cache = None if args.no_cache else ArtifactCache(args.cache_dir)
    report = protocol.report(configs, replay=not args.no_replay, cache=cache)
    print(report.render())
    for line in report.meta.get("results", ()):
        print("  " + line)
    code = report.exit_code(strict=args.strict)
    payload = report.to_dict()
    if args.self_test:
        result = protocol.self_test(replay=not args.no_replay)
        print(result.summary())
        for mutation in result.mutations:
            if mutation.caught:
                note = ""
                if mutation.refuted_by_production is True:
                    note = ", production refuted the trace (as it must)"
                elif mutation.refuted_by_production is False:
                    note = ", but production CONFIRMED the trace"
                    code = max(code, 1)
                print(f"  caught {mutation.name} on {mutation.config_label}"
                      f"{note}")
            else:
                print(f"  MISSED {mutation.name} "
                      f"({mutation.states} states searched)")
                code = max(code, 1)
        payload["self_test"] = {
            "seeded": result.seeded,
            "caught": result.caught,
            "missed": [m.name for m in result.missed],
        }
    if args.json:
        _write_json_output(payload, args.json)
    return code


def _cmd_cache(args) -> int:
    from repro.runtime import ArtifactCache

    cache = ArtifactCache(args.cache_dir)
    if args.action == "stats":
        print(cache.stats().render())
    else:
        removed = cache.clear()
        print(f"removed {removed} cached artifact(s) from {cache.root}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.runtime import ShardedCache, Telemetry
    from repro.serve import ServeConfig, ServeServer, SimulationService

    _apply_engine(args)
    peers = (None if args.peers is None
             else [p.strip() for p in args.peers.split(",") if p.strip()])
    cache = None if args.no_cache else ShardedCache(args.cache_dir,
                                                    peers=peers)
    config = ServeConfig(jobs=args.jobs, dispatchers=args.dispatchers,
                         timeout=args.timeout)
    telemetry = Telemetry()
    service = SimulationService(cache=cache, config=config,
                                telemetry=telemetry)
    server = ServeServer(service, host=args.host, port=args.port,
                         drain_timeout=args.drain_timeout)

    async def run() -> None:
        try:
            await server.start()
        except OSError as exc:
            raise ReproError(
                f"cannot bind {args.host}:{args.port}: "
                f"{exc.strerror or exc}") from None
        peers_note = (f", peers {','.join(p.name for p in cache.peers)}"
                      if cache is not None and cache.peers else "")
        print(f"repro serve listening on http://{args.host}:{server.port} "
              f"(jobs={config.jobs}, dispatchers={config.dispatchers}, "
              f"cache={'off' if cache is None else cache.root}{peers_note})",
              flush=True)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.request_stop)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await server.serve_until_stopped()

    asyncio.run(run())
    _finish_run(args, telemetry)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "list": lambda: _cmd_list(),
        "show": lambda: _cmd_show(args),
        "simulate": lambda: _cmd_simulate(args),
        "experiment": lambda: _cmd_experiment(args),
        "sweep": lambda: _cmd_sweep(args),
        "lint": lambda: _cmd_lint(args),
        "modelcheck": lambda: _cmd_modelcheck(args),
        "cache": lambda: _cmd_cache(args),
        "serve": lambda: _cmd_serve(args),
    }
    try:
        return handlers[args.command]()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
