"""Run telemetry: cache counters, per-job wall times, worker utilization.

A :class:`Telemetry` object rides along one executor run (or one runtime
session spanning several runs) and accumulates counters; workers report
their share back as plain dicts that the parent merges.  ``report()``
snapshots everything into a :class:`RunReport`, renderable as a text table
or JSON — the payload behind the CLI's ``--report PATH`` flag.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, IO, List, Union

from repro.common.stats import percentile

__all__ = ["JobRecord", "RunReport", "Telemetry", "percentile", "write_json"]


def write_json(payload: Any, path: Union[str, os.PathLike, IO[str]]) -> None:
    """Shared JSON serializer for CLI outputs (``--json``, ``--report``)."""
    text = json_text(payload)
    if hasattr(path, "write"):
        path.write(text)
        return
    with open(path, "w") as handle:
        handle.write(text)


def json_text(payload: Any) -> str:
    """The text :func:`write_json` writes: the one definition of the
    CLI's JSON format (two-space indent, insertion order, ``str`` for
    anything JSON cannot encode, trailing newline)."""
    return json.dumps(payload, indent=2, sort_keys=False, default=str) + "\n"


SERVE_LATENCY_CAP = 4096
"""Latency samples kept for the serve p50/p99 (a sliding window, so the
percentiles track steady state rather than all of history)."""


@dataclass
class JobRecord:
    """Outcome of one job: where it ran, how long, and from which source."""

    label: str
    scheme: str
    fingerprint: str
    wall_s: float = 0.0
    source: str = "computed"  # computed | cache | retried
    engine: str = ""  # which simulation engine produced the result
    worker: int = 0  # pid of the executing process (parent pid if serial)


@dataclass
class Telemetry:
    """Mutable counters accumulated over one or more executor runs."""

    prepare_hits: int = 0
    prepare_misses: int = 0
    result_hits: int = 0
    result_misses: int = 0
    traces_generated: int = 0
    traces_shared: int = 0
    """Jobs that rode a front end another job in the same run owned —
    every group member beyond its first (the fingerprint-split dedup)."""
    gang_width: int = 0
    """Largest number of distinct back-end configurations gang-primed
    over one shared trace (0 when no group was ganged)."""
    results_shared: int = 0
    """Jobs answered by another job's result in the same run: their
    fingerprints collided after scheme-dead config pruning (e.g. the hw
    column of a timetag sweep), so one simulation served them all."""
    retries: int = 0
    jobs_submitted: int = 0
    wall_time_s: float = 0.0
    n_workers: int = 1
    records: List[JobRecord] = field(default_factory=list)
    phase_s: Dict[str, float] = field(default_factory=dict)
    """Cumulative wall seconds per pipeline phase (``compile``,
    ``trace``, ``gang``, ``engine``), summed across workers — front-end
    vs config-axis priming vs engine cost per run at a glance."""
    serve_requests: int = 0
    """Requests answered by a :mod:`repro.serve` service sharing this
    telemetry (0 outside a serve deployment)."""
    serve_hits: int = 0
    """Serve requests answered entirely from the artifact cache —
    the worker pool was never touched."""
    serve_coalesced: int = 0
    """Serve requests that awaited an identical in-flight request
    instead of dispatching their own simulation."""
    serve_errors: int = 0
    serve_latency_s: List[float] = field(default_factory=list)
    """Recent per-request wall times (capped ring; see
    :data:`SERVE_LATENCY_CAP`) backing the ``/stats`` p50/p99."""

    # ------------------------------------------------------------ recording

    def merge_worker(self, stats: Dict[str, Any]) -> None:
        """Fold one worker's counter dict into the parent's totals."""
        self.prepare_hits += stats.get("prepare_hits", 0)
        self.prepare_misses += stats.get("prepare_misses", 0)
        self.traces_generated += stats.get("traces_generated", 0)
        self.gang_width = max(self.gang_width, stats.get("gang_width", 0))
        self.results_shared += stats.get("results_shared", 0)
        for phase, seconds in stats.get("phases", {}).items():
            self.note_phase(phase, seconds)
        for record in stats.get("records", ()):
            self.note_job(JobRecord(**record))

    def note_job(self, record: JobRecord) -> None:
        self.records.append(record)

    def note_request(self, latency_s: float, source: str) -> None:
        """Record one serve request (``source``: hit/coalesced/computed/
        error) and its wall time into the capped latency ring."""
        self.serve_requests += 1
        if source == "hit":
            self.serve_hits += 1
        elif source == "coalesced":
            self.serve_coalesced += 1
        elif source == "error":
            self.serve_errors += 1
        self.serve_latency_s.append(latency_s)
        if len(self.serve_latency_s) > SERVE_LATENCY_CAP:
            del self.serve_latency_s[:-SERVE_LATENCY_CAP]

    def note_phase(self, phase: str, seconds: float) -> None:
        self.phase_s[phase] = self.phase_s.get(phase, 0.0) + seconds

    # ------------------------------------------------------------- derived

    @property
    def cache_hit_rate(self) -> float:
        lookups = self.result_hits + self.result_misses
        return self.result_hits / lookups if lookups else 0.0

    @property
    def serve_hit_rate(self) -> float:
        """Fraction of serve requests that never reached the pool
        (cache hits plus coalesced waiters)."""
        if not self.serve_requests:
            return 0.0
        return (self.serve_hits + self.serve_coalesced) / self.serve_requests

    def serve_section(self) -> Dict[str, Any]:
        """The ``serve`` block of a run report / ``/stats`` payload."""
        return {
            "requests": self.serve_requests,
            "hits": self.serve_hits,
            "coalesced": self.serve_coalesced,
            "errors": self.serve_errors,
            "hit_rate": round(self.serve_hit_rate, 4),
            "p50_ms": round(1e3 * percentile(self.serve_latency_s, 50), 3),
            "p99_ms": round(1e3 * percentile(self.serve_latency_s, 99), 3),
        }

    def worker_utilization(self) -> Dict[int, float]:
        """Per-worker-pid busy seconds (from job wall times)."""
        busy: Dict[int, float] = {}
        for record in self.records:
            busy[record.worker] = busy.get(record.worker, 0.0) + record.wall_s
        return busy

    def report(self) -> "RunReport":
        return RunReport(telemetry=self)


@dataclass
class RunReport:
    """Snapshot of one run's telemetry, renderable as table or JSON."""

    telemetry: Telemetry

    def to_dict(self) -> Dict[str, Any]:
        t = self.telemetry
        return {
            "jobs": t.jobs_submitted,
            "workers": t.n_workers,
            "wall_time_s": round(t.wall_time_s, 6),
            "cache": {
                "result_hits": t.result_hits,
                "result_misses": t.result_misses,
                "prepare_hits": t.prepare_hits,
                "prepare_misses": t.prepare_misses,
                "hit_rate": round(t.cache_hit_rate, 4),
            },
            "traces_generated": t.traces_generated,
            "gang": {
                "traces_shared": t.traces_shared,
                "results_shared": t.results_shared,
                "width": t.gang_width,
            },
            "phases": {phase: round(seconds, 6)
                       for phase, seconds in sorted(t.phase_s.items())},
            **({"serve": t.serve_section()} if t.serve_requests else {}),
            "retries": t.retries,
            "worker_busy_s": {str(pid): round(busy, 6)
                              for pid, busy in sorted(t.worker_utilization().items())},
            "per_job": [asdict(record) for record in t.records],
        }

    def render(self) -> str:
        t = self.telemetry
        lines = [
            "== run report",
            f"jobs {t.jobs_submitted}  workers {t.n_workers}  "
            f"wall {t.wall_time_s:.2f}s  retries {t.retries}",
            f"cache: result {t.result_hits} hit / {t.result_misses} miss"
            f" ({100 * t.cache_hit_rate:.0f}%), "
            f"prepare {t.prepare_hits} hit / {t.prepare_misses} miss, "
            f"{t.traces_generated} trace(s) generated",
            f"gang: {t.traces_shared} job(s) shared a trace, "
            f"{t.results_shared} shared a result, width {t.gang_width}",
        ]
        if t.phase_s:
            lines.append("phases: " + "  ".join(
                f"{phase} {seconds:.3f}s"
                for phase, seconds in sorted(t.phase_s.items())))
        if t.serve_requests:
            serve = t.serve_section()
            lines.append(
                f"serve: {serve['requests']} request(s), "
                f"{serve['hits']} hit / {serve['coalesced']} coalesced "
                f"({100 * serve['hit_rate']:.0f}%), "
                f"p50 {serve['p50_ms']:.2f}ms p99 {serve['p99_ms']:.2f}ms, "
                f"{serve['errors']} error(s)")
        if t.records:
            width = max(len(r.label) for r in t.records)
            lines.append(f"{'job'.ljust(width)}  {'source':>8}  {'wall':>8}  worker")
            for record in t.records:
                lines.append(f"{record.label.ljust(width)}  "
                             f"{record.source:>8}  {record.wall_s:>7.3f}s  "
                             f"{record.worker}")
        return "\n".join(lines)

    def save(self, path: Union[str, os.PathLike]) -> None:
        write_json(self.to_dict(), path)
