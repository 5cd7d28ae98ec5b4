"""Reusable diagnostics: rules, findings, and renderable reports.

Every check in the analysis subsystem — the structural validator
(:mod:`repro.ir.validate`), the staleness oracle diff
(:mod:`repro.analysis.lint`), and the dynamic sanitizer
(:mod:`repro.analysis.sanitizer`) — reports its findings as
:class:`Diagnostic` values tagged with a :class:`Rule` from the shared
catalogue below, so one CLI (``repro lint``) can render, serialize, and
exit-code them uniformly.

Rule id conventions: ``VALxxx`` structural IR problems, ``TPIxxx`` /
``SCxxx`` marking-map disagreements, ``ANAxxx`` analysis-limit notes,
``SANxxx`` dynamic sanitizer findings, ``MCxxx`` bounded-exhaustive
protocol model-checking findings (:mod:`repro.analysis.modelcheck`).

Exit codes (:meth:`Report.exit_code`): 0 clean, 1 errors (or warnings
under ``--strict``), 2 usage errors (bad workload/scheme names — raised
before any Report exists).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True)
class Rule:
    """One named check with a default severity."""

    id: str
    severity: Severity
    title: str


_RULE_DEFS = (
    # Structural validation (repro.ir.validate).
    Rule("VAL001", Severity.ERROR, "entry procedure missing"),
    Rule("VAL002", Severity.ERROR, "call to undefined procedure"),
    Rule("VAL003", Severity.ERROR, "recursive call chain"),
    Rule("VAL004", Severity.ERROR, "reference to undeclared array"),
    Rule("VAL005", Severity.ERROR, "subscript count does not match rank"),
    Rule("VAL006", Severity.ERROR, "reference site id missing"),
    Rule("VAL007", Severity.ERROR, "reference site id reused"),
    Rule("VAL008", Severity.ERROR, "unbound symbol"),
    Rule("VAL009", Severity.ERROR, "nested DOALL"),
    Rule("VAL010", Severity.ERROR, "DOALL inside a critical section"),
    Rule("VAL011", Severity.ERROR, "loop index shadows an enclosing symbol"),
    Rule("VAL012", Severity.ERROR, "unknown node type"),
    # Oracle-vs-marking diffs (repro.analysis.lint).
    Rule("TPI001", Severity.ERROR, "under-marked read (TPI)"),
    Rule("TPI002", Severity.WARNING, "over-marked read (TPI)"),
    Rule("TPI003", Severity.ERROR, "under-strict Time-Read"),
    Rule("TPI004", Severity.WARNING, "over-strict Time-Read"),
    Rule("SC001", Severity.ERROR, "under-marked read (SC)"),
    Rule("SC002", Severity.WARNING, "over-marked read (SC)"),
    Rule("ANA001", Severity.INFO, "imprecisely analyzed site"),
    # Dynamic cross-check (repro.analysis.sanitizer).
    Rule("SAN001", Severity.ERROR, "dynamic stale read at unmarked site"),
    # Bounded-exhaustive protocol verification (repro.analysis.modelcheck).
    Rule("MC001", Severity.ERROR, "staleness-safety violation (model)"),
    Rule("MC002", Severity.ERROR, "model diverges from production TPI"),
    Rule("MC003", Severity.WARNING, "bounds force fewer than two wraps"),
    Rule("MC004", Severity.WARNING, "state enumeration truncated"),
    Rule("MC101", Severity.ERROR, "staleness-safety violation (tardis model)"),
    Rule("MC102", Severity.ERROR, "model diverges from production Tardis"),
    Rule("MC103", Severity.WARNING, "bounds force fewer than two rebases"),
    Rule("MC104", Severity.WARNING, "tardis state enumeration truncated"),
)

RULES: Dict[str, Rule] = {rule.id: rule for rule in _RULE_DEFS}


def rule(rule_id: str) -> Rule:
    """Look up a rule from the catalogue by id."""
    return RULES[rule_id]


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule violation at a program location.

    ``procedure``/``site``/``epoch`` locate the finding as precisely as the
    producing check can; any of them may be absent.  ``detail`` carries
    machine-readable context (the JSON rendering includes it verbatim).
    """

    rule_id: str
    message: str
    procedure: Optional[str] = None
    site: Optional[int] = None
    epoch: Optional[str] = None
    detail: Dict[str, Any] = field(default_factory=dict)
    severity_override: Optional[Severity] = None

    @property
    def rule(self) -> Rule:
        return RULES[self.rule_id]

    @property
    def severity(self) -> Severity:
        return self.severity_override or self.rule.severity

    def location(self) -> str:
        parts = []
        if self.procedure:
            parts.append(self.procedure)
        if self.site is not None:
            parts.append(f"site {self.site}")
        if self.epoch:
            parts.append(f"epoch {self.epoch}")
        return ":".join(parts)

    def format(self) -> str:
        where = self.location()
        prefix = f"{self.severity.value} {self.rule_id}"
        if where:
            prefix += f" [{where}]"
        return f"{prefix}: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "rule": self.rule_id,
            "severity": self.severity.value,
            "title": self.rule.title,
            "message": self.message,
        }
        if self.procedure is not None:
            payload["procedure"] = self.procedure
        if self.site is not None:
            payload["site"] = self.site
        if self.epoch is not None:
            payload["epoch"] = self.epoch
        if self.detail:
            payload["detail"] = dict(self.detail)
        return payload


_SEVERITY_ORDER = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}


@dataclass
class Report:
    """An ordered collection of diagnostics plus run metadata.

    ``tool`` names the producing check in the summary line ("lint" for
    the oracle diff, "modelcheck" for the protocol verifier, ...).
    """

    subject: str = ""
    diagnostics: List[Diagnostic] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)
    tool: str = "lint"

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def by_severity(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> List[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def has_errors(self) -> bool:
        return bool(self.errors)

    def counts(self) -> Dict[str, int]:
        counts = {s.value: 0 for s in Severity}
        for diagnostic in self.diagnostics:
            counts[diagnostic.severity.value] += 1
        return counts

    def exit_code(self, strict: bool = False) -> int:
        if self.has_errors:
            return EXIT_FINDINGS
        if strict and self.warnings:
            return EXIT_FINDINGS
        return EXIT_CLEAN

    def summary(self) -> str:
        counts = self.counts()
        parts = [f"{counts['error']} error(s)", f"{counts['warning']} warning(s)"]
        if counts["info"]:
            parts.append(f"{counts['info']} note(s)")
        head = (f"{self.tool} {self.subject}: " if self.subject
                else f"{self.tool}: ")
        text = head + ", ".join(parts)
        extras = [f"{k}={v}" for k, v in sorted(self.meta.items())
                  if k in ("sites", "modes", "schemes", "cache",
                           "states", "wraps", "rebases")]
        if extras:
            text += "  (" + ", ".join(extras) + ")"
        return text

    def render(self, show_info: bool = True) -> str:
        lines = [self.summary()]
        ordered = sorted(
            self.diagnostics,
            key=lambda d: (_SEVERITY_ORDER[d.severity],
                           d.rule_id, d.site if d.site is not None else -1))
        for diagnostic in ordered:
            if not show_info and diagnostic.severity is Severity.INFO:
                continue
            lines.append("  " + diagnostic.format())
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tool": self.tool,
            "subject": self.subject,
            "counts": self.counts(),
            "meta": dict(self.meta),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }
