"""Protocol-independent core of the bounded-exhaustive model checkers.

A protocol module (:mod:`repro.analysis.modelcheck` for TPI timetags,
:mod:`repro.analysis.modelcheck_tardis` for Tardis leases) describes one
protocol as guarded actions over an explicit abstract state: config,
rule table and mutants, initial state and ``_successors``, action
rendering, coverage check, and the mapping from actions to production
scheme calls.  This module owns the rest, once: the breadth-first
explorer, the production replay loop, the mutation self-test and the
cached report.

``successors(state)`` yields ``(action, next_state, breach, served)``.
``next_state`` is None when the action leaves the state unchanged (a
read hit); ``served`` marks a read served from a cached copy, the reads
the staleness invariant is checked on; ``breach`` is None or the
violation's protocol fields.  A counterexample trace is the minimal
action path to the breaching state plus the serving read itself, so its
last action is always the read that breached.
"""

from __future__ import annotations

import hashlib
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, ClassVar, Dict, Iterable, List, Mapping,
                    Optional, Sequence, Tuple)

from repro.analysis.diagnostics import Diagnostic, Report

# ------------------------------------------------------------ search results


@dataclass(frozen=True)
class Violation:
    """One staleness-safety counterexample.  Protocol subclasses add the
    breach fields (in ``_successors`` order) and the hooks below, plus
    ``describe()`` (the diagnostic message) and ``detail()`` (its
    machine-readable fields)."""

    config: Any
    trace: Tuple[Tuple, ...]  # state-changing actions, then the serving read

    def render_action(self, action: Tuple) -> str:
        raise NotImplementedError

    def breach(self) -> str:
        """The serving read and what it returned."""
        raise NotImplementedError

    def epoch_label(self) -> Optional[str]:
        return None

    def render(self) -> List[str]:
        """Human-readable trace, one action per line."""
        lines = [self.render_action(action) for action in self.trace[:-1]]
        lines.append(f"{self.breach()}  ** staleness-safety violation")
        return lines


@dataclass
class CheckResult:
    """Outcome of exhausting one bounded configuration."""

    config: Any
    rules: str
    states: int = 0
    transitions: int = 0
    reads_checked: int = 0
    violations: List[Violation] = field(default_factory=list)
    truncated: bool = False
    elapsed: float = 0.0

    # Subclasses set ``reads_noun`` (what ``reads_checked`` counts) and
    # define ``coverage_gap()``: why the bounds under-exercise the
    # protocol's recycling corner, or None.
    tool: ClassVar[str] = "modelcheck"
    reads_noun: ClassVar[str]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.truncated

    def coverage(self) -> str:
        """How far the run drove the protocol's recycling corner."""
        raise NotImplementedError

    def summary(self) -> str:
        verdict = ("OK" if self.ok else
                   f"{len(self.violations)} counterexample(s)"
                   + (", TRUNCATED" if self.truncated else ""))
        return (f"{self.tool} {self.config.label} [{self.rules}]: "
                f"{self.states} states, {self.transitions} transitions, "
                f"{self.reads_checked} {self.reads_noun} checked, "
                f"{self.coverage()} in {self.elapsed:.2f}s -> {verdict}")


# ------------------------------------------------------------ the enumerator


def _trace_to(parents, state) -> Tuple[Tuple, ...]:
    actions: List[Tuple] = []
    while True:
        link = parents[state]
        if link is None:
            break
        state, action = link
        actions.append(action)
    return tuple(reversed(actions))


def explore(result: CheckResult, init, successors: Callable,
            violation_cls: Callable[..., Violation], *, max_violations: int,
            max_states: int) -> Dict[Tuple, Optional[Tuple]]:
    """Exhaustively enumerate every state reachable from ``init``.

    Breadth-first, so the first counterexample found has a minimal
    action trace.  ``max_states`` is a runaway backstop far above any
    in-bounds configuration; hitting it marks the result ``truncated``
    (the exhaustiveness claim is void).  Fills ``result`` in place and
    returns the parent map, whose keys are the reached states.
    """
    start = time.perf_counter()
    config = result.config
    violations = result.violations
    parents: Dict[Tuple, Optional[Tuple]] = {init: None}
    frontier = deque([init])
    transitions = reads_checked = 0
    while frontier:
        if len(parents) > max_states:
            result.truncated = True
            break
        state = frontier.popleft()
        for action, nxt, breach, served in successors(state):
            transitions += 1
            if served:
                reads_checked += 1
            if breach is not None:
                violations.append(violation_cls(
                    config, _trace_to(parents, state) + (action,), *breach))
                if len(violations) >= max_violations:
                    frontier.clear()
                    break
                continue
            if nxt is not None and nxt not in parents:
                parents[nxt] = (state, action)
                frontier.append(nxt)
    result.states = len(parents)
    result.transitions = transitions
    result.reads_checked = reads_checked
    result.elapsed = time.perf_counter() - start
    return parents


# --------------------------------------------------- production-replay check


@dataclass(frozen=True)
class ReplayOutcome:
    """Production verdict on one model counterexample.

    ``confirmed``: the production shadow memory flagged the trace's
    final, serving read as stale, so the counterexample is a genuine
    protocol bug.  Otherwise production *refuted* it: expected for
    mutant rules, evidence of model drift for the production rules.
    """

    confirmed: bool
    final_kind: str
    mismatches: Tuple[str, ...]
    detail: str

    @property
    def refuted(self) -> bool:
        return not self.confirmed


def replay_rig(config, marking, **scheme_configs):
    """A production SimContext shaped like the model: one shared array
    ``A<line>`` per line and a cache that holds every line."""
    from repro.coherence.api import SimContext
    from repro.common.config import CacheConfig, MachineConfig
    from repro.ir import ProgramBuilder
    from repro.memsys.memory import ShadowMemory
    from repro.memsys.network import KruskalSnirNetwork
    from repro.trace.layout import MemoryLayout

    n_sets = 1 << (config.n_lines - 1).bit_length()  # holds every line
    machine = MachineConfig(
        n_procs=config.n_procs,
        cache=CacheConfig(size_bytes=n_sets * config.line_words * 4,
                          line_words=config.line_words),
        **scheme_configs)
    builder = ProgramBuilder("modelcheck-replay")
    for line in range(config.n_lines):
        builder.array(f"A{line}", (config.line_words,))
    with builder.procedure("main"):
        pass
    layout = MemoryLayout(builder.build(), config.n_procs, config.line_words)
    return SimContext(machine=machine, marking=marking,
                      shadow=ShadowMemory(layout.total_words),
                      network=KruskalSnirNetwork(machine), layout=layout)


def replay(trace: Sequence[Tuple], perform: Callable[[Tuple], Any],
           mismatch: Callable[[Tuple, Any], Optional[str]], *,
           missed: str) -> ReplayOutcome:
    """Drive a production scheme through a counterexample trace.

    ``perform`` applies one action and returns a read's access result
    (None otherwise).  The shadow memory's ``SimulationError`` on the
    final, serving read confirms the trace; ``mismatch`` checks each
    earlier read against the model; ``missed`` words a final non-hit.
    """
    from repro.common.errors import SimulationError
    from repro.common.stats import MissKind

    mismatches: List[str] = []
    final_kind, confirmed, detail = "none", False, ""
    last = len(trace) - 1
    for index, action in enumerate(trace):
        try:
            outcome = perform(action)
        except SimulationError as exc:
            final_kind = "stale-hit"
            if index == last:
                confirmed = True
                detail = f"production confirmed the stale read: {exc}"
            else:
                mismatches.append(
                    f"step {index}: production already stale ({exc})")
                detail = "production went stale before the final read"
            break
        if outcome is None:
            continue
        hit = outcome.kind is MissKind.HIT
        final_kind = "hit" if hit else outcome.kind.name.lower()
        if index == last:
            detail = ("production hit fresh data" if hit else
                      f"production {missed} ({final_kind})")
            continue
        problem = mismatch(action, outcome)
        if problem:
            mismatches.append(f"step {index}: {problem}")
    return ReplayOutcome(confirmed=confirmed, final_kind=final_kind,
                         mismatches=tuple(mismatches), detail=detail)


# ------------------------------------------------- protocol mutation gate


@dataclass(frozen=True)
class ProtocolMutation:
    """One seeded protocol bug and whether the checker caught it."""

    name: str
    caught: bool
    config_label: str
    states: int
    transitions: int
    refuted_by_production: Optional[bool]


@dataclass
class ProtocolSelfTest:
    """Outcome of a protocol mutation self-test."""

    mutations: List[ProtocolMutation] = field(default_factory=list)
    subject: str = "protocol"

    @property
    def seeded(self) -> int:
        return len(self.mutations)

    @property
    def caught(self) -> int:
        return sum(1 for m in self.mutations if m.caught)

    @property
    def missed(self) -> List[ProtocolMutation]:
        return [m for m in self.mutations if not m.caught]

    @property
    def detection_rate(self) -> float:
        return self.caught / self.seeded if self.seeded else 1.0

    def summary(self) -> str:
        return (f"{self.subject} mutation self-test: {self.caught}/"
                f"{self.seeded} seeded protocol bugs produced counterexamples")


def self_test(mutants: Iterable, configs: Sequence, check: Callable,
              replay_fn: Optional[Callable], *,
              subject: str) -> ProtocolSelfTest:
    """Seed each known protocol bug and require a counterexample whose
    replay (unless ``replay_fn`` is None) the unmutated production scheme
    must *refute*: the direction tests cannot fake."""
    result = ProtocolSelfTest(subject=subject)
    for mutant in mutants:
        label, states, transitions = "", 0, 0
        refuted: Optional[bool] = None
        for config in configs:
            found = check(config, mutant)
            states += found.states
            transitions += found.transitions
            if found.violations:
                label = config.label
                if replay_fn is not None:
                    refuted = replay_fn(found.violations[0]).refuted
                break
        result.mutations.append(ProtocolMutation(
            name=mutant.name, caught=bool(label), config_label=label,
            states=states, transitions=transitions,
            refuted_by_production=refuted))
    return result


# ----------------------------------------------------------- report plumbing


@dataclass(frozen=True)
class Protocol:
    """What the report, the cache key and the CLI need from a protocol:
    its (counterexample, drift, coverage, truncation) ``codes``, the
    result attributes whose grid minimum a report's meta records, the
    rule, scheme and protocol ``sources`` that key the cache (the drift
    verdicts replay through the scheme), and the map from
    ``repro modelcheck`` flags to config fields."""

    subject: str
    kind: str
    scheme: str
    codes: Tuple[str, str, str, str]
    coverage: Mapping[str, str]
    sources: Tuple[str, ...]
    config: type
    cli_bounds: Mapping[str, str]
    report: Callable[..., Report]
    self_test: Callable[..., ProtocolSelfTest]


def code_digest(sources: Iterable[str]) -> str:
    """Digest of the rule, scheme, protocol and core sources, mixed into the
    cache key so editing any of them invalidates cached reports."""
    digest = hashlib.sha256()
    for source in (*sources, __file__):
        digest.update(Path(source).read_bytes())
    return digest.hexdigest()


def fingerprint(protocol: Protocol, configs: Sequence, **bounds) -> str:
    """Content key for a cached report: the configs, the search bounds
    (``max_states``, ``max_violations``, ``replay``) and the code."""
    from repro.runtime.cache import cache_salt
    from repro.runtime.jobs import canonical_json

    payload = canonical_json({
        "salt": cache_salt(),
        "kind": protocol.kind,
        "code": code_digest(protocol.sources),
        "configs": [config.to_dict() for config in configs],
        "bounds": bounds,
    })
    return hashlib.sha256(payload.encode()).hexdigest()


def report(protocol: Protocol, configs: Sequence, rules, *, production: bool,
           check: Callable, replay_fn: Callable, max_violations: int,
           max_states: int, replay: bool, cache) -> Report:
    """Check every config and report the findings as lint diagnostics
    (see ``protocol.codes``).  Production-rule reports flow through the
    artifact cache under the ``modelcheck`` kind, keyed by
    :func:`fingerprint`; mutant-rule reports are never cached."""
    key = None
    if cache is not None and production:
        from repro.runtime.cache import KIND_MODELCHECK

        key = fingerprint(protocol, configs, max_violations=max_violations,
                          max_states=max_states, replay=replay)
        cached = cache.load(KIND_MODELCHECK, key)
        if isinstance(cached, Report):
            cached.meta["cache"] = "hit"
            return cached
    counterexample, drift, coverage, truncation = protocol.codes
    report = Report(subject=protocol.subject, tool="modelcheck")
    report.meta["rules"] = rules.name
    report.meta["configs"] = ",".join(config.label for config in configs)
    results: List[CheckResult] = []
    for config in configs:
        result = check(config, rules, max_violations=max_violations,
                       max_states=max_states)
        results.append(result)
        where = {"config": config.to_dict()}
        gap = result.coverage_gap()
        if gap is not None:
            report.add(Diagnostic(coverage, f"{config.label}: {gap}",
                                  detail=where))
        if result.truncated:
            report.add(Diagnostic(
                truncation,
                f"{config.label}: state backstop reached after "
                f"{result.states} states; enumeration is not exhaustive",
                detail=where))
        for violation in result.violations:
            detail: Dict[str, Any] = {"config": config.to_dict(),
                                      "trace": violation.render(),
                                      **violation.detail()}
            if replay:
                outcome = replay_fn(violation)
                detail["replay"] = ("confirmed" if outcome.confirmed
                                    else "refuted")
                detail["replay_detail"] = outcome.detail
                if outcome.refuted and production:
                    report.add(Diagnostic(
                        drift,
                        f"{config.label}: production {protocol.scheme} "
                        f"refuted the model counterexample "
                        f"({outcome.detail}); the abstract model has "
                        f"drifted from the implementation",
                        detail={"config": config.to_dict(),
                                "trace": violation.render()}))
            report.add(Diagnostic(
                counterexample, f"{config.label}: {violation.describe()}",
                epoch=violation.epoch_label(), detail=detail))
    for name in ("states", "transitions", "reads_checked"):
        report.meta[name] = sum(getattr(r, name) for r in results)
    report.meta["wraps"] = min(config.wraps for config in configs)
    for name, attr in protocol.coverage.items():
        report.meta[name] = min(getattr(r, attr) for r in results)
    report.meta["elapsed"] = round(sum(r.elapsed for r in results), 3)
    report.meta["results"] = [r.summary() for r in results]
    if key is not None:
        cache.store(KIND_MODELCHECK, key, report)
        report.meta["cache"] = "miss"
    return report
