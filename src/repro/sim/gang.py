"""Gang simulation: many back-end configurations over one shared trace.

A *gang* is a set of (machine, scheme) members that differ only in
back-end fields — cache geometry, timetag width, write buffer, latencies —
and therefore share one :class:`~repro.trace.columnar.ColumnarTrace` (the
front-end fingerprint split in :mod:`repro.runtime.jobs` guarantees the
grouping).  Instead of each member redoing the trace-static analysis from
scratch, the gang:

* stacks the member configurations into numpy parameter arrays
  (:class:`~repro.coherence.batch.GangParams`) and resolves every event
  address to ``(line, set, word)`` for *all* distinct cache geometries in
  one ``(configs x events)`` broadcast per epoch (:func:`prime_group`);
* publishes the resulting per-geometry :class:`~repro.sim.fastengine.
  _EpochBatch` analyses on the shared epochs, where every member with
  that geometry — and every scheme, and the epoch pre-apply windows built
  downstream — reuses them;
* runs the members **one engine at a time** (:func:`run_gang`), each
  replaying its hot (order-sensitive) events through the reference heap
  at identical ``(clock, proc, rank, idx)`` keys, exactly as a solo
  :class:`~repro.sim.fastengine.FastEngine` run would.

Per-config *protocol* state is never shared: each member's results must
stay byte-identical to running that config alone on either engine (the
parity contract enforced by tests/test_gang.py), and protocol
transitions depend on the member's own latencies and network feedback.
What the gang vectorizes is the config axis of everything trace-static.

Members used to be stepped in lockstep, one epoch across every engine
before the next.  That kept every member's protocol state and every
epoch's pre-apply windows alive at once: on ``fig21_cache`` at small
size it took peak RSS from 185 to 242 MB for no steady wall-time gain,
so members now run in turn and only the primed analyses are shared.

Fallbacks (each member silently degrades to a plain solo run):

* object (non-columnar) traces — nothing to broadcast over;
* sync epochs and epochs under the fast engine's batching floor — those
  fall back per-event inside each member anyway;
* a gang of one (or of identical configs) — priming is skipped, the
  single member just runs.

There is no separate engine to select: the executor runs every group of
jobs sharing a front end through :func:`run_gang`, since the results
are identical by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.coherence.batch import GangParams, resolve_geometries
from repro.sim.engine import make_engine, resolve_engine
from repro.sim.fastengine import (_MIN_TASK_EVENTS, _EpochBatch, _TaskArrays,
                                  _rows_cells)
from repro.sim.metrics import SimResult
from repro.trace.columnar import KIND_WRITE, ColumnarTrace


@dataclass(frozen=True)
class GangMember:
    """One configuration riding the gang: a back-end machine and a scheme."""

    machine: Any
    scheme: str


def _prime_epoch(epoch, todo: Sequence[Tuple[int, int]],
                 batches: Dict) -> None:
    """Build the epoch's analyses for every geometry in ``todo`` at once.

    The geometry resolution runs as one broadcast per task
    (``GangParams.resolve``); each row feeds a pre-resolved
    :class:`_TaskArrays`, so the per-geometry :class:`_EpochBatch` is
    exactly what a solo run would have built lazily.
    """
    per_geometry: Dict[Tuple[int, int], List[_TaskArrays]] = \
        {g: [] for g in todo}
    columns = epoch.task_columns()
    cells = _rows_cells(batches) or [[None] for _ in columns]
    for tc, cell in zip(columns, cells):
        rows = resolve_geometries(tc.addr, todo)
        is_write = tc.kind == KIND_WRITE
        for geometry in todo:
            per_geometry[geometry].append(_TaskArrays(
                tc.proc, tc.extra_work, tc.n, tc.addr, tc.site,
                tc.work, tc.shared, is_write, geometry[0], geometry[1],
                geometry=rows[geometry], rows_cell=cell))
    for geometry in todo:
        batches[geometry] = _EpochBatch(epoch, geometry[0], geometry[1],
                                        tasks=per_geometry[geometry])


def prime_group(trace, machines: Sequence[Any]) -> Dict[str, Any]:
    """Pre-build the shared per-geometry epoch analyses for a gang.

    Walks the columnar trace once, and for each epoch the fast engine
    would batch, resolves all member geometries in one broadcast and
    publishes the analyses on ``epoch._batch`` — the member engines (and
    their pre-apply windows) then find every geometry already resolved.
    Purely an optimization: results are byte-identical with or without
    priming.  Returns a stats dict (``width``, ``geometries``,
    ``primed_epochs``, ``fallback``).
    """
    stats = {"width": len({_backend_token(m) for m in machines}),
             "geometries": 0, "primed_epochs": 0, "fallback": ""}
    if not isinstance(trace, ColumnarTrace):
        stats["fallback"] = "object-trace"
        return stats
    if len(machines) < 2:
        stats["fallback"] = "gang-of-one"
        return stats
    params = GangParams(machines)
    stats["geometries"] = params.n_geometries
    for epoch in trace.epochs:
        if epoch.n_events < _MIN_TASK_EVENTS * max(1, epoch.n_tasks):
            continue
        if epoch.has_sync:
            continue
        batches = epoch._batch
        if not isinstance(batches, dict):
            batches = {}
            epoch._batch = batches
        todo = [g for g in params.geometries if g not in batches]
        if not todo:
            continue
        _prime_epoch(epoch, todo, batches)
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
