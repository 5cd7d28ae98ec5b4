"""Dynamic stale-read sanitizer: replay a trace against a marking.

The static oracle (:mod:`repro.analysis.oracle`) reasons over may-execute
paths; this module checks the other direction.  It replays one concrete
generated trace (:class:`repro.trace.columnar.ColumnarTrace`) keeping, per
(processor, address), the epoch in which that processor's cached copy was
last known fresh, and flags every read that *observably* terminates a
stale reference sequence: another processor wrote the address in an epoch
strictly between the copy's epoch and the reading epoch.

Copy-freshness follows the scheme being checked:

* ``tpi`` — a Time-Read validates the word (fresh copy at the current
  epoch); an ordinary read of a fresh word also leaves a fresh copy.
* ``sc`` — a bypassing read does not allocate or validate, so the cached
  copy's age is unchanged by marked reads.
* ``tardis`` — hardware leases: the barrier joins every processor's
  timestamp past every committed write, so a read on a copy that missed
  a remote write always finds its lease expired and re-validates.  No
  site needs a mark; every stale read counts as covered.
* ``snoop`` — bus snooping: a committing write's invalidation destroys
  every remote copy, so no stale copy survives for a read to terminate;
  the replay must observe *zero* stale reads.

Writes in an epoch are committed at the epoch barrier, so same-epoch
communication (e.g. through critical sections) is never counted — only
definite cross-epoch staleness is, which a sound marking (or the
hardware, for the invalidation-free schemes) must cover.  Every flagged
read whose site the checked scheme left uncovered is a confirmed
soundness violation (rule ``SAN001``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.compiler.marking import Marking, RefMark
from repro.trace.columnar import KIND_READ, KIND_WRITE, ColumnarTrace

#: Schemes whose hardware maintains coherence: the sanitizer checks the
#: hardware's freshness model instead of a marking map.
HARDWARE_SCHEMES: Tuple[str, ...] = ("tardis", "snoop")

SANITIZER_SCHEMES: Tuple[str, ...] = ("tpi", "sc") + HARDWARE_SCHEMES


@dataclass(frozen=True)
class StaleRead:
    """One dynamically observed stale read."""

    epoch: int
    epoch_label: str
    proc: int
    addr: int
    site: int
    marked: bool  # was the site marked (Time-Read / bypass) for the scheme?


def replay_stale_reads(trace: ColumnarTrace, marking: Marking,
                       scheme: str = "tpi") -> List[StaleRead]:
    """All observably stale reads in a trace, flagged with whether the
    checked scheme's validation mechanism covered their site.

    For the software schemes that is the marking map; for the hardware
    schemes (:data:`HARDWARE_SCHEMES`) the marking is ignored — Tardis's
    barrier lease-join covers every read (``marked`` is always True),
    and snoop's commit-time invalidations remove remote copies so no
    stale read can be observed at all.
    """
    if scheme == "tpi":
        marks = marking.tpi
        marked_read_validates, invalidating = True, False
    elif scheme == "sc":
        marks = marking.sc
        marked_read_validates, invalidating = False, False
    elif scheme == "tardis":
        marks = None  # leases re-validate every read; no marks exist
        marked_read_validates, invalidating = True, False
    elif scheme == "snoop":
        marks = None  # invalidations destroy copies before any read
        marked_read_validates, invalidating = True, True
    else:
        raise ValueError(f"sanitizer checks one of "
                         f"{'/'.join(SANITIZER_SCHEMES)}, not {scheme!r}")

    copies: Dict[int, Dict[int, int]] = {}  # addr -> proc -> copy's epoch
    last_write: Dict[int, Dict[int, int]] = {}  # addr -> proc -> epoch
    findings: List[StaleRead] = []

    task_proc = trace.task_proc.tolist()
    task_off = trace.task_off.tolist()
    epoch_off = trace.epoch_off.tolist()
    kinds, addrs = trace.kind.tolist(), trace.addr.tolist()
    sites, shared = trace.site.tolist(), trace.shared.tolist()
    for index in range(trace.n_epochs):
        pending: List[Tuple[int, int]] = []  # (addr, proc) written this epoch
        for task in range(epoch_off[index], epoch_off[index + 1]):
            proc = task_proc[task]
            for i in range(task_off[task], task_off[task + 1]):
                if not shared[i]:
                    continue
                kind, addr = kinds[i], addrs[i]
                if kind == KIND_WRITE:
                    copies.setdefault(addr, {})[proc] = index
                    pending.append((addr, proc))
                    continue
                if kind != KIND_READ:
                    continue
                held = copies.get(addr, {}).get(proc)
                stale = held is not None and any(
                    writer != proc and written > held
                    for writer, written in last_write.get(addr, {}).items())
                marked = (True if marks is None
                          else marks.get(sites[i]) is RefMark.TIME_READ)
                if stale:
                    findings.append(StaleRead(
                        epoch=index, epoch_label=trace.epoch_label[index],
                        proc=proc, addr=addr, site=sites[i], marked=marked))
                if marked and not marked_read_validates:
                    continue  # SC bypass: cache copy untouched
                if not stale or marked:
                    copies.setdefault(addr, {})[proc] = index
                # An unmarked stale read hits on the old copy: its age is
                # unchanged (and the violation is already recorded).
        for addr, proc in pending:
            last_write.setdefault(addr, {})[proc] = index
            if invalidating:
                holders = copies.get(addr)
                if holders:
                    for other in [p for p in holders if p != proc]:
                        del holders[other]

    return findings


def unmarked_stale_sites(findings: List[StaleRead]) -> Dict[int, StaleRead]:
    """First violation per site among reads the marking left ordinary."""
    violations: Dict[int, StaleRead] = {}
    for finding in findings:
        if not finding.marked:
            violations.setdefault(finding.site, finding)
    return violations
