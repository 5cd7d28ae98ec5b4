"""Coherence lint: diff the production marking against the oracle.

``lint_program`` runs, for every requested :class:`InterprocMode`:

1. structural validation (collect-all mode of :mod:`repro.ir.validate`);
2. the production marking pass and the independent staleness oracle over
   the same epoch graph;
3. a per-site diff for each requested scheme map (``tpi`` / ``sc``):

   * oracle *definitely* stale + production ordinary read →
     ``TPI001``/``SC001`` **error** (soundness);
   * oracle provably fresh at every visit + production Time-Read →
     ``TPI002``/``SC002`` **warning** (precision);
   * oracle approximately may-stale + production ordinary read →
     ``ANA001`` note (cannot distinguish oracle imprecision from a bug);
   * strictness analogues ``TPI003`` (error) / ``TPI004`` (warning);

4. optionally the dynamic sanitizer (:mod:`repro.analysis.sanitizer`):
   every observed stale read at an unmarked site is a confirmed
   ``SAN001`` error, and static findings whose site was dynamically
   observed stale are annotated ``dynamic: confirmed``.

Hardware schemes (``tardis`` / ``snoop``) have no marking map to diff;
requesting them runs the sanitizer alone under the scheme's hardware
freshness model (lease expiry / commit-time invalidation).  Any stale
read the hardware model leaves uncovered is the same ``SAN001`` error,
and the observed stale-read count lands in ``meta["stale.<scheme>"]``.

``lint_workload`` adds the content-addressed artifact cache (kind
``lint``), so repeat lints of an unchanged workload are warm.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, Report, Severity
from repro.analysis.oracle import OracleAnalysis, analyze_staleness
from repro.common.config import MachineConfig, default_machine
from repro.compiler.epochs import build_epoch_graph
from repro.compiler.marking import (
    InterprocMode,
    Marking,
    MarkingOptions,
    RefMark,
    mark_program,
)
from repro.ir.program import Program

ALL_MODES: Tuple[InterprocMode, ...] = (
    InterprocMode.INLINE, InterprocMode.SUMMARY, InterprocMode.NONE)
ALL_SCHEMES: Tuple[str, ...] = ("tpi", "sc")

_RULESETS = {
    "tpi": ("TPI001", "TPI002"),
    "sc": ("SC001", "SC002"),
}


def diff_marking(marking: Marking, oracle: OracleAnalysis, scheme: str,
                 mode_label: str,
                 dynamic_stale: Optional[Set[int]] = None) -> List[Diagnostic]:
    """Per-site disagreements between one marking map and the oracle."""
    if scheme not in _RULESETS:
        raise ValueError(f"unknown scheme {scheme!r}; lint checks "
                         f"{'/'.join(sorted(_RULESETS))}")
    under_rule, over_rule = _RULESETS[scheme]
    diagnostics: List[Diagnostic] = []
    for site in sorted(oracle.verdicts):
        verdict = oracle.verdicts[site]
        info = oracle.sites.get(site)
        procedure = info.procedure if info else None
        text = info.text if info else f"site {site}"
        if scheme == "tpi":
            marked = marking.tpi_mark(site) is RefMark.TIME_READ
            may, definite = verdict.tpi_may, verdict.tpi_def
        else:
            marked = marking.sc_mark(site) is RefMark.TIME_READ
            may, definite = verdict.sc_may, verdict.sc_def
        detail = {"mode": mode_label, "scheme": scheme,
                  "visits": verdict.visits}
        tag = f" ({mode_label})"
        if dynamic_stale is not None and (definite or may):
            detail["dynamic"] = ("confirmed" if site in dynamic_stale
                                 else "not-observed")
        if definite and not marked:
            diagnostics.append(Diagnostic(
                under_rule,
                f"{text} may terminate a stale reference sequence but is "
                f"left an ordinary read{tag}",
                procedure=procedure, site=site, epoch=verdict.where or None,
                detail=detail))
        elif may and not marked:
            diagnostics.append(Diagnostic(
                "ANA001",
                f"{text} is approximately may-stale but unmarked; the "
                f"oracle could not enumerate it exactly{tag}",
                procedure=procedure, site=site, epoch=verdict.where or None,
                detail=detail))
        elif marked and not may and verdict.visits:
            diagnostics.append(Diagnostic(
                over_rule,
                f"{text} is provably fresh at every visit but is marked "
                f"{'Time-Read' if scheme == 'tpi' else 'bypassing'}{tag}",
                procedure=procedure, site=site, detail=detail))
        if scheme == "tpi" and marked:
            strict = marking.is_strict(site)
            if verdict.strict_def and not strict:
                diagnostics.append(Diagnostic(
                    "TPI003",
                    f"{text} has a possible same-epoch concurrent writer "
                    f"but its Time-Read is not strict{tag}",
                    procedure=procedure, site=site,
                    epoch=verdict.where or None, detail=detail))
            elif (strict and verdict.tpi_may and not verdict.strict_may
                  and verdict.visits):
                diagnostics.append(Diagnostic(
                    "TPI004",
                    f"{text} is marked strict but no same-epoch writer "
                    f"is possible{tag}",
                    procedure=procedure, site=site, detail=detail))
    return diagnostics


def _normalize_modes(modes: Optional[Iterable[object]]) -> Tuple[InterprocMode, ...]:
    if modes is None:
        return ALL_MODES
    resolved = []
    for mode in modes:
        if isinstance(mode, InterprocMode):
            resolved.append(mode)
        else:
            try:
                resolved.append(InterprocMode(str(mode)))
            except ValueError:
                raise ValueError(
                    f"unknown interprocedural mode {mode!r}; choose from "
                    f"{'/'.join(m.value for m in ALL_MODES)}") from None
    return tuple(resolved)


def _normalize_schemes(schemes: Optional[Iterable[str]]) -> Tuple[str, ...]:
    from repro.analysis.sanitizer import SANITIZER_SCHEMES

    if schemes is None:
        return ALL_SCHEMES
    resolved = tuple(schemes)
    for scheme in resolved:
        if scheme not in SANITIZER_SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}; lint checks "
                             f"{'/'.join(SANITIZER_SCHEMES)}")
    return resolved


def lint_program(program: Program, params: Optional[Dict[str, int]] = None,
                 *, modes: Optional[Sequence[object]] = None,
                 schemes: Optional[Sequence[str]] = None,
                 sanitize: bool = True,
                 machine: Optional[MachineConfig] = None,
                 subject: str = "") -> Report:
    """Lint one program: validation + oracle diff (+ dynamic sanitizer)."""
    modes = _normalize_modes(modes)
    schemes = _normalize_schemes(schemes)
    report = Report(subject=subject or program.name)
    report.meta["modes"] = ",".join(m.value for m in modes)
    report.meta["schemes"] = ",".join(schemes)

    from repro.ir.validate import program_diagnostics

    structural = program_diagnostics(program)
    report.extend(structural)
    if any(d.severity is Severity.ERROR for d in structural):
        report.meta["aborted"] = "structural errors"
        return report

    graph = build_epoch_graph(program, params)
    markings: Dict[InterprocMode, Marking] = {}
    oracles: Dict[InterprocMode, OracleAnalysis] = {}
    for mode in modes:
        opts = MarkingOptions(interproc=mode)
        markings[mode] = mark_program(program, params, opts, graph)
        oracles[mode] = analyze_staleness(program, params, opts, graph)

    trace = None
    if sanitize:
        from repro.trace.generate import generate_columnar

        trace = generate_columnar(program, machine or default_machine(),
                                  params)

    soft = tuple(s for s in schemes if s in _RULESETS)
    hardware = tuple(s for s in schemes if s not in _RULESETS)

    sites_checked = 0
    for mode in modes:
        oracle = oracles[mode]
        sites_checked = max(sites_checked, len(oracle.verdicts))
        for scheme in soft:
            dynamic_sites: Optional[Set[int]] = None
            if trace is not None:
                from repro.analysis.sanitizer import (
                    replay_stale_reads,
                    unmarked_stale_sites,
                )

                findings = replay_stale_reads(trace, markings[mode], scheme)
                dynamic_sites = {f.site for f in findings}
                for site, finding in sorted(
                        unmarked_stale_sites(findings).items()):
                    info = oracle.sites.get(site)
                    report.add(Diagnostic(
                        "SAN001",
                        f"{info.text if info else f'site {site}'} read a "
                        f"dynamically stale word (proc {finding.proc}, "
                        f"addr {finding.addr}) at an unmarked site "
                        f"({mode.value}/{scheme})",
                        procedure=info.procedure if info else None,
                        site=site, epoch=finding.epoch_label or None,
                        detail={"mode": mode.value, "scheme": scheme,
                                "epoch_index": finding.epoch}))
            report.extend(diff_marking(markings[mode], oracle, scheme,
                                       mode.value, dynamic_sites))
        if not oracle.fully_enumerated:
            report.meta[f"approx.{mode.value}"] = sum(
                oracle.stats.get(k, 0) for k in
                ("capped_loops", "capped_combos", "capped_sets"))

    # Hardware schemes have no marking to diff: the sanitizer replays
    # the trace under the scheme's own freshness model (mode-agnostic).
    if hardware and trace is not None:
        from repro.analysis.oracle import site_table
        from repro.analysis.sanitizer import (
            replay_stale_reads,
            unmarked_stale_sites,
        )

        any_marking = (markings[modes[0]] if modes
                       else Marking(tpi={}, sc={}, graph=graph))
        sites = site_table(program)
        for scheme in hardware:
            findings = replay_stale_reads(trace, any_marking, scheme)
            report.meta[f"stale.{scheme}"] = len(findings)
            for site, finding in sorted(
                    unmarked_stale_sites(findings).items()):
                info = sites.get(site)
                report.add(Diagnostic(
                    "SAN001",
                    f"{info.text if info else f'site {site}'} read a "
                    f"dynamically stale word (proc {finding.proc}, "
                    f"addr {finding.addr}) the {scheme} hardware model "
                    f"left uncovered",
                    procedure=info.procedure if info else None,
                    site=site, epoch=finding.epoch_label or None,
                    detail={"scheme": scheme,
                            "epoch_index": finding.epoch}))
    report.meta["sites"] = sites_checked
    return report


def lint_fingerprint(program: Program, *, modes: Tuple[InterprocMode, ...],
                     schemes: Tuple[str, ...], sanitize: bool,
                     machine: Optional[MachineConfig],
                     params: Optional[Dict[str, int]]) -> str:
    """Content key for a cached lint report."""
    from repro.runtime.cache import cache_salt
    from repro.runtime.jobs import canonical_json, program_digest

    payload = canonical_json({
        "salt": cache_salt(),
        "kind": "lint",
        "program": program_digest(program),
        "params": params or {},
        "modes": [m.value for m in modes],
        "schemes": list(schemes),
        "sanitize": sanitize,
        "machine": machine or default_machine(),
    })
    return hashlib.sha256(payload.encode()).hexdigest()


def lint_workload(name: str, size: str = "small",
                  *, modes: Optional[Sequence[object]] = None,
                  schemes: Optional[Sequence[str]] = None,
                  sanitize: bool = True,
                  machine: Optional[MachineConfig] = None,
                  cache=None) -> Report:
    """Lint a named workload, optionally through the artifact cache."""
    from repro.workloads import build_workload

    program = build_workload(name, size=size)
    modes = _normalize_modes(modes)
    schemes = _normalize_schemes(schemes)
    key = None
    if cache is not None:
        from repro.runtime.cache import KIND_LINT

        key = lint_fingerprint(program, modes=modes, schemes=schemes,
                               sanitize=sanitize, machine=machine,
                               params=None)
        cached = cache.load(KIND_LINT, key)
        if isinstance(cached, Report):
            cached.meta["cache"] = "hit"
            return cached
    report = lint_program(program, modes=modes, schemes=schemes,
                          sanitize=sanitize, machine=machine, subject=name)
    if cache is not None and key is not None:
        from repro.runtime.cache import KIND_LINT

        cache.store(KIND_LINT, key, report)
        report.meta["cache"] = "miss"
    return report
