"""Gang simulation: many back-end configurations over one shared trace.

A *gang* is a set of (machine, scheme) members that differ only in
back-end fields — cache geometry, timetag width, write buffer, latencies —
and therefore share one :class:`~repro.trace.columnar.ColumnarTrace` (the
front-end fingerprint split in :mod:`repro.runtime.jobs` guarantees the
grouping).  Instead of each member redoing the trace-static analysis from
scratch, the gang:

* builds, for each epoch the fast engine would batch, the
  :class:`~repro.sim.fastengine._EpochBatch` analysis of every distinct
  member cache geometry up front (:func:`prime_group`), with the same
  get-or-build function the engine's planner uses, and publishes them
  on the shared epochs, where every member with that geometry — and
  every scheme — reuses them;
* runs the members **one engine at a time** (:func:`run_gang`), each
  replaying its hot (order-sensitive) events through the reference heap
  at identical ``(clock, proc, rank, idx)`` keys, exactly as a solo
  :class:`~repro.sim.fastengine.FastEngine` run would.

Per-config *protocol* state is never shared: each member's results must
stay byte-identical to running that config alone on either engine (the
parity contract enforced by tests/test_gang.py), and protocol
transitions depend on the member's own latencies and network feedback.
What the gang shares is everything trace-static.

Members used to be stepped in lockstep, one epoch across every engine
before the next.  That kept every member's protocol state and every
epoch's pre-apply windows alive at once: on ``fig21_cache`` at small
size it took peak RSS from 185 to 242 MB for no steady wall-time gain,
so members now run in turn and only the primed analyses are shared.

Fallbacks (each member silently degrades to a plain solo run):

* epochs the fast engine's planner refuses (:func:`~repro.sim.
  fastengine.batchable`: too small, sync, or two tasks on one
  processor) — those fall back per-event inside each member anyway;
* a gang of one (or of identical configs) — priming is skipped, the
  single member just runs.

There is no separate engine to select: the executor runs every group of
jobs sharing a front end through :func:`run_gang`, since the results
are identical by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.sim.engine import make_engine, resolve_engine
from repro.sim.fastengine import batchable, epoch_batch
from repro.sim.metrics import SimResult


@dataclass(frozen=True)
class GangMember:
    """One configuration riding the gang: a back-end machine and a scheme."""

    machine: Any
    scheme: str


def prime_group(trace, machines: Sequence[Any]) -> Dict[str, Any]:
    """Pre-build the shared per-geometry epoch analyses for a gang.

    Walks the columnar trace once, and for each epoch the fast engine
    would batch (:func:`~repro.sim.fastengine.batchable`, the planner's
    own test), builds every member geometry's analysis on
    ``epoch._batch`` (:func:`~repro.sim.fastengine.epoch_batch`) — the
    member engines then find every geometry already built.  Purely an
    optimization: results are byte-identical with or without priming.
    Returns a stats dict (``width``, ``geometries``, ``primed_epochs``,
    ``fallback``).
    """
    stats = {"width": len({_backend_token(m) for m in machines}),
             "geometries": 0, "primed_epochs": 0, "fallback": ""}
    if len(machines) < 2:
        stats["fallback"] = "gang-of-one"
        return stats
    geometries = list(dict.fromkeys(
        (m.cache.line_words, m.cache.n_sets) for m in machines))
    stats["geometries"] = len(geometries)
    for epoch in trace.epochs:
        if not batchable(epoch):
            continue
        todo = [g for g in geometries if g not in epoch._batch]
        if not todo:
            continue
        for geometry in todo:
            epoch_batch(epoch, geometry)
        stats["primed_epochs"] += 1
    return stats


def _backend_token(machine) -> str:
    """Canonical text of a machine's back-end half (gang-width dedup)."""
    from repro.runtime.jobs import canonical_json, split_machine

    _front, back = split_machine(machine)
    return canonical_json(back)


def distinct_backends(machines: Sequence[Any]) -> List[Any]:
    """The distinct back-end configurations among ``machines``, in order."""
    seen: Dict[str, Any] = {}
    for machine in machines:
        seen.setdefault(_backend_token(machine), machine)
    return list(seen.values())


def run_gang(prepared, members: Sequence[GangMember],
             stats: Optional[Dict[str, Any]] = None) -> List[SimResult]:
    """Simulate every gang member over one prepared front end.

    ``prepared`` is a :class:`~repro.sim.runner.PreparedRun`; all members
    must agree on the trace-relevant machine fields (they share its
    trace).  Members resolve their engines individually, so a
    ``"reference"`` member runs the untouched reference path while the
    rest share the primed analyses.  Results come back in member order,
    each byte-identical to a solo run of that (machine, scheme).

    The trace is primed once for the distinct fast-engine back ends,
    then each member runs to completion before the next starts.  With
    ``stats``, the priming time lands in ``phases["gang"]``, the widest
    primed gang in ``gang_width``, and each member's engine wall time in
    ``member_wall_s`` (member order).
    """
    members = list(members)
    gang = distinct_backends([m.machine for m in members
                              if resolve_engine(m.machine) != "reference"])
    if len(gang) >= 2:
        started = time.perf_counter()
        info = prime_group(prepared.trace, gang)
        if stats is not None:
            stats["gang_width"] = max(stats.get("gang_width", 0),
                                      info["width"])
            phases = stats.setdefault("phases", {})
            phases["gang"] = (phases.get("gang", 0.0)
                              + time.perf_counter() - started)
    results: List[SimResult] = []
    walls: List[float] = []
    for member in members:
        started = time.perf_counter()
        results.append(make_engine(prepared.trace, prepared.marking,
                                   member.machine, member.scheme).run())
        walls.append(time.perf_counter() - started)
    if stats is not None:
        stats["member_wall_s"] = walls
    return results


__all__ = ["GangMember", "distinct_backends", "prime_group", "run_gang"]
