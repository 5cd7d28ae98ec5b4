"""The batched simulation engine.

The reference :class:`~repro.sim.engine.Engine` advances one event at a
time through a global heap so that cross-processor protocol interactions
happen in a deterministic timing-dependent order.  Most events need no
such ordering: within an epoch the network latencies are constant (rho
only moves at the barrier) and most lines are touched by a single
processor, so their accesses commute with everything another processor
does.  This engine exploits that:

* Each epoch's lines are split into **hot** — order-sensitive across
  processors under the scheme's :attr:`~repro.coherence.api.
  CoherenceScheme.batch_hot_rule` — and **cold** (everything else).  For
  an eviction-coupled scheme every line of a **hot set** is hot too: a
  cache set in which a replacement or a remote invalidation could
  couple processors (:meth:`FastEngine._hazard_sets`), hot for every
  task, so its state changes only in heap order.
* Hot events replay through exactly the reference heap discipline, with
  identical keys ``(clock, proc, rank, idx)``, so their global order — and
  therefore every directory transition, invalidation count, and
  classification — is bit-identical to the reference engine.
* Each task's cold events run eagerly between its hot events, in program
  order, as numpy-batched spans (:mod:`repro.coherence.batch`) when the
  scheme provides a kernel, or through the ordinary per-event scheme
  methods otherwise.  Either way each event runs the same state
  transitions as under the reference engine; only the interleaving
  *between* processors differs, exactly where it is provably
  unobservable.
* With a kernel, every event in a cache set that a task's own hot events
  use is hot for that task too, so each task's hot and cold events use
  disjoint sets of its processor's cache.  That lets the epoch
  **pre-apply** all its cold events, across every task, in one merged
  kernel window before dispatch (:meth:`FastEngine._preapply_epoch`).

Epochs the analysis cannot clear — synchronization (locks / critical
sections), or a scheme with no declared hot rule — fall back wholesale
to the reference ``_run_epoch``, as do epochs too small to pay for the
analysis, so correctness never depends on the batching being
profitable.  The hot-set rule serves every associativity: kernels index
cache state by slot (``set * K + way``), so a K-way cache batches like a
direct-mapped one.

Differential parity with the reference engine over every workload,
scheme, and a hypothesis-randomized program space is enforced by
tests/test_engine_parity.py; speedups are tracked in BENCH_engine.json
(see docs/PERF.md).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

import numpy as np

from repro.coherence.batch import _Cols
from repro.sim.engine import Engine
from repro.trace.columnar import KIND_WRITE, ColumnarEpoch
from repro.trace.events import EventKind


class _TaskArrays:
    """Columnar view of one task's events (geometry-resolved).

    Built straight from a :class:`~repro.trace.columnar.TaskColumns`
    slice (zero-copy) when the trace is columnar, or converted from an
    object :class:`~repro.trace.events.Task` otherwise.  ``rows`` builds
    the Python-int per-event tuples lazily — only the per-event paths
    (kernel boundaries, poisoned spans, kernel-less schemes) touch them;
    the batch kernels run on the arrays.  The tuples do not depend on the
    geometry, so every geometry view of one task shares one rows cell (a
    one-element list) and builds them at most once.
    """

    __slots__ = ("_rows", "_set_lines", "proc", "extra_work", "n", "addr",
                 "site", "work", "shared", "is_write", "line", "set_",
                 "word", "uniq_lines", "uniq_sets")

    def __init__(self, proc, extra_work, n, addr, site, work,
                 shared, is_write, line_words: int, n_sets: int):
        self.proc = proc
        self.extra_work = extra_work
        self._rows = [None]
        self._set_lines = None
        self.n = n
        self.addr = addr
        self.site = site
        self.work = work
        self.shared = shared
        self.is_write = is_write
        self.line = addr // line_words
        self.set_ = self.line % n_sets
        self.word = addr - self.line * line_words
        self.uniq_lines = np.unique(self.line)
        self.uniq_sets = np.unique(self.set_)

    @classmethod
    def from_task(cls, task, line_words: int, n_sets: int) -> "_TaskArrays":
        events = task.events
        n = len(events)
        return cls(
            task.proc, task.extra_work, n,
            np.fromiter((e.addr for e in events), np.int64, n),
            np.fromiter((e.site for e in events), np.int64, n),
            np.fromiter((e.work for e in events), np.int64, n),
            np.fromiter((e.shared for e in events), bool, n),
            np.fromiter((e.kind is EventKind.WRITE for e in events), bool, n),
            line_words, n_sets)

    @classmethod
    def from_columns(cls, tc, line_words: int, n_sets: int) -> "_TaskArrays":
        return cls(tc.proc, tc.extra_work, tc.n, tc.addr, tc.site,
                   tc.work, tc.shared, tc.kind == KIND_WRITE,
                   line_words, n_sets)

    @property
    def rows(self):
        """Per-event ``(is_write, addr, site, work, shared)`` tuples.

        Only non-sync epochs build _TaskArrays, so every event is a plain
        READ/WRITE outside any critical section.  Python-int fields keep
        the accounting identical to object traces.
        """
        cell = self._rows
        if cell[0] is None:
            cell[0] = list(zip(
                self.is_write.tolist(), self.addr.tolist(),
                self.site.tolist(), self.work.tolist(),
                self.shared.tolist()))
        return cell[0]

    @property
    def set_lines(self):
        """For the eviction pre-check: the task's sets, the task's
        distinct lines with each one's index into the sets, and each
        set's count of them."""
        if self._set_lines is None:
            sets = self.uniq_sets
            lines, first = np.unique(self.line, return_index=True)
            group = np.searchsorted(sets, self.set_[first])
            self._set_lines = (sets, group, lines,
                               np.bincount(group, minlength=len(sets)))
        return self._set_lines


class _EpochBatch:
    """Trace-static batching analysis of one epoch, cached on the epoch
    (``TraceEpoch._batch``, a dict keyed by cache geometry) and shared by
    every scheme — and every gang member with that geometry — simulated
    over the trace in-process.  Everything here depends only on the event
    stream and the cache geometry — never on runtime protocol state."""

    __slots__ = ("geometry", "has_sync", "tasks", "multi_lines",
                 "hot_written", "static_masks", "static_idx", "other_lines",
                 "plan_cache")

    def __init__(self, epoch, line_words: int, n_sets: int,
                 rows_cells=None):
        self.geometry = (line_words, n_sets)
        # The "directory" rule's hot partitions, keyed by the extra hot
        # lines (see ``FastEngine._plan_epoch``); shared across schemes
        # and repeated simulations.
        self.plan_cache = {}
        if isinstance(epoch, ColumnarEpoch):
            self.has_sync = epoch.has_sync
            if self.has_sync:
                self.tasks = []
                return
            self.tasks = [_TaskArrays.from_columns(tc, line_words, n_sets)
                          for tc in epoch.task_columns()]
        else:
            self.has_sync = any(
                e.kind is EventKind.LOCK or e.kind is EventKind.UNLOCK
                or e.in_critical
                for task in epoch.tasks for e in task.events)
            if self.has_sync:
                # Sync epochs always fall back; skip the columnar views.
                self.tasks = []
                return
            self.tasks = [_TaskArrays.from_task(task, line_words, n_sets)
                          for task in epoch.tasks]
        if rows_cells is not None:
            # Another geometry view of this epoch exists: share its rows.
            for ta, cell in zip(self.tasks, rows_cells):
                ta._rows = cell
        # Lines touched by two or more tasks this epoch.
        all_lines = (np.concatenate([ta.uniq_lines for ta in self.tasks])
                     if self.tasks else np.zeros(0, dtype=np.int64))
        uniq, counts = np.unique(all_lines, return_counts=True)
        multi = counts >= 2
        self.multi_lines = uniq[multi]
        written = [ta.line[ta.is_write] for ta in self.tasks]
        written_all = (np.unique(np.concatenate(written)) if written
                       else np.zeros(0, dtype=np.int64))
        # The "written" hot rule: multi-touched AND written this epoch.
        self.hot_written = np.intersect1d(self.multi_lines, written_all,
                                          assume_unique=True)
        self.static_masks = [np.isin(ta.line, self.hot_written)
                             for ta in self.tasks]
        self.static_idx = [np.flatnonzero(m) for m in self.static_masks]
        # For the eviction pre-check: lines any *other* task touches.
        # Another task touches a line iff two tasks do, or the line is
        # the epoch's but not this task's.
        self.other_lines = [uniq[multi | ~_among(uniq, ta.uniq_lines)]
                            if ta.n else uniq for ta in self.tasks]


def epoch_batch(epoch, geometry) -> _EpochBatch:
    """The epoch's :class:`_EpochBatch` for ``geometry`` (``(line_words,
    n_sets)``), built on first use.  One analysis per geometry is kept
    side by side on ``epoch._batch``, so gang members with different
    geometries never evict each other's work; every view shares the
    first one's per-task row cells."""
    batches = epoch._batch
    if not isinstance(batches, dict):
        batches = epoch._batch = {}
    batch = batches.get(geometry)
    if batch is None:
        cells = next(([ta._rows for ta in b.tasks]
                      for b in batches.values() if b.tasks), None)
        batch = batches[geometry] = _EpochBatch(epoch, *geometry,
                                                rows_cells=cells)
    return batch


def _among(values: np.ndarray, sorted_unique: np.ndarray) -> np.ndarray:
    """``np.isin(values, sorted_unique)`` for a sorted, duplicate-free
    array: a binary search instead of isin's sort, which dominates on
    the planner's small per-task arrays."""
    idx = np.searchsorted(sorted_unique, values)
    return sorted_unique.take(idx, mode="clip") == values


_NO_HOT = np.zeros(0, dtype=np.int64)

#: Minimum events per task for batching to pay for its numpy analysis.
#: Below this the per-epoch array set-up (unique/isin/intersect over a
#: handful of elements, times tasks, times schemes) costs more than the
#: per-event reference walk it replaces — flo52's many tiny epochs were
#: measurably *slower* batched (BENCH_engine.json pre-fix) while every
#: other workload sits comfortably above the floor.
_MIN_TASK_EVENTS = 32


class FastEngine(Engine):
    """Drop-in engine with batched cold spans; bit-identical results."""

    engine_name = "fast"

    def __init__(self, trace, marking, machine, scheme_name):
        super().__init__(trace, marking, machine, scheme_name)
        self._kernel = self.scheme.make_batch_kernel()
        self._cur_batch = None
        self.batched_epochs = 0
        self.fallback_epochs = 0

    # ------------------------------------------------------------ planning

    def _plan_epoch(self, epoch) -> Optional[List[np.ndarray]]:
        """Per-task hot-event index arrays, or ``None`` to fall back."""
        rule = self.scheme.batch_hot_rule
        if rule is None:
            return None
        if epoch.n_events < _MIN_TASK_EVENTS * max(1, epoch.n_tasks):
            return None
        cache_cfg = self.machine.cache
        batch = epoch_batch(epoch, (cache_cfg.line_words, cache_cfg.n_sets))
        self._cur_batch = batch
        if batch.has_sync:
            return None

        if rule == "none":
            return [_NO_HOT] * len(batch.tasks)
        if rule == "written":
            hot_masks = batch.static_masks
            hot_idx = batch.static_idx
        elif rule == "directory":
            hot_masks, hot_idx = self._directory_plan(batch)
        else:  # pragma: no cover - unknown rule: always safe to fall back
            return None

        if self.scheme.batch_evict_coupled:
            # Evictions mutate shared protocol state (directory entries,
            # sharer sets), so every install, eviction, LRU update and
            # remote invalidation in a set that might couple processors
            # must happen in the reference order.  Make each such set
            # *hot* for every task: the set index is a global function of
            # the line address, so no cold event touches a line of it and
            # its state, in every cache, changes only in heap order.
            flagged = self._hazard_sets(batch)
            if len(flagged):
                hot_idx = [np.flatnonzero(mask | _among(ta.set_, flagged))
                           for mask, ta in zip(hot_masks, batch.tasks)]
        if self._kernel is not None:
            # Pre-apply runs a task's cold events ahead of its own hot
            # ones: make them use disjoint sets of the task's cache by
            # making hot, for this task only, every event in a set its
            # hot events use.
            hot_idx = [np.flatnonzero(_among(ta.set_, np.unique(ta.set_[h])))
                       if len(h) else h
                       for h, ta in zip(hot_idx, batch.tasks)]
        return hot_idx

    def _directory_plan(self, batch):
        """``(hot_masks, hot_idx)`` under the "directory" rule: the
        written lines plus the scheme's order-sensitive ones."""
        extra = self.scheme.directory_hot_lines(batch.multi_lines)
        if not len(extra):
            return batch.static_masks, batch.static_idx
        extra = np.asarray(sorted(extra), dtype=np.int64)
        # Deterministic replay revisits the same directory states, so
        # identical extras recur across repeated simulations: key the
        # partition by their content.
        key = extra.tobytes()
        plan = batch.plan_cache.get(key)
        if plan is None:
            hot_masks = [mask | np.isin(ta.line, extra)
                         for mask, ta in zip(batch.static_masks,
                                             batch.tasks)]
            plan = batch.plan_cache[key] = (
                hot_masks, [np.flatnonzero(m) for m in hot_masks])
        return plan

    def _hazard_sets(self, batch) -> np.ndarray:
        """The eviction pre-check: the sorted cache set indices in which
        a batched replacement could couple processors.  Per set of each
        task's processor, the set *must evict* when its epoch-start
        residents plus the task's lines in it exceed the associativity
        K.  Flag the set if it

        1. must evict and holds an epoch-start resident another task
           touches (one of the task's misses could displace it);
        2. holds more than K of the task's distinct lines, one of them
           touched by another task (a miss could displace it after a
           heap-timed install);
        3. must evict with K > 1 and holds any line another task
           touches: a remote invalidation frees a way at heap time, and
           that timing decides which line a miss evicts.

        Clause 1 counts every event, hot or cold, so the check reads only
        the trace and the epoch-start tags: flagging a set cannot create
        risk in another.  In a set that need not evict, an invalidated
        way only moves way positions; set contents and LRU order stay
        the same."""
        K = self.machine.cache.associativity
        caches = self.scheme.caches
        flagged = []
        for rank, ta in enumerate(batch.tasks):
            other = batch.other_lines[rank]
            if not len(other):
                continue
            sets, group, lines, n_lines = ta.set_lines
            res = caches[ta.proc].tags[sets]  # epoch-start residents
            res_foreign = _among(res, other).any(axis=1)
            foreign = np.bincount(group, _among(lines, other),
                                  len(sets)) > 0
            if not (res_foreign.any() or foreign.any()):
                continue
            must = ((res >= 0).sum(axis=1) + n_lines
                    - _among(res, lines).sum(axis=1)) > K
            hazard = must & (res_foreign | foreign if K > 1 else res_foreign)
            hazard |= foreign & (n_lines > K)
            if hazard.any():
                flagged.append(sets[hazard])
        return np.unique(np.concatenate(flagged)) if flagged else _NO_HOT

    # ------------------------------------------------------------- epochs

    def _run_epoch(self, epoch, global_time: int) -> int:
        hot_idx = self._plan_epoch(epoch)
        if hot_idx is None:
            self.fallback_epochs += 1
            return super()._run_epoch(epoch, global_time)
        self.batched_epochs += 1
        return self._run_epoch_fast(epoch, global_time, hot_idx)

    def _run_epoch_fast(self, epoch, global_time: int,
                        hot_idx: List[np.ndarray]) -> int:
        machine = self.machine
        result = self.result
        breakdown = result.breakdown
        stalls = self.scheme.begin_epoch(epoch.index, epoch.parallel)
        self._epoch_words = 0
        reads_before = result.reads
        misses_before = result.read_misses
        batch = self._cur_batch
        preapplied = False
        if self._kernel is not None:
            self._kernel.begin_epoch()
            preapplied = self._preapply_epoch(batch, hot_idx)
        base = global_time + machine.epoch_setup_cycles
        clocks: Dict[int, int] = {}
        heap: List = []
        hot_pos = [0] * len(batch.tasks)
        for rank, ta in enumerate(batch.tasks):
            start = base + machine.task_dispatch_cycles * rank
            breakdown["dispatch"] += start - global_time
            stall = stalls.get(ta.proc, 0)
            breakdown["reset_stall"] += stall
            start += stall
            clocks[ta.proc] = start

        for rank, ta in enumerate(batch.tasks):
            if ta.n:
                self._advance(batch, rank, 0, clocks[ta.proc],
                              hot_idx, hot_pos, clocks, heap)

        # Hot events replay with the reference engine's exact heap keys,
        # so every cross-processor interaction happens in the same global
        # order the reference engine would produce.
        while heap:
            clock, proc, rank, idx = heapq.heappop(heap)
            ta = batch.tasks[rank]
            work = int(ta.work[idx])
            clock += work
            breakdown["busy"] += work
            if self._kernel is not None:
                clock += self._kernel.boundary(self, proc, ta, idx)
            else:
                is_write, addr, site, _work, shared = ta.rows[idx]
                clock += self._access(proc, is_write, addr, site, shared)
            hot_pos[rank] += 1
            self._advance(batch, rank, idx + 1, clock,
                          hot_idx, hot_pos, clocks, heap)

        if preapplied:
            self._kernel.clear_memo()
        return self._end_epoch(epoch, global_time, base, clocks,
                               reads_before, misses_before)

    # ---------------------------------------------------------- pre-apply

    def _preapply_epoch(self, batch, hot_idx) -> bool:
        """Try to run *all* of the epoch's cold events through one merged
        kernel scan before dispatch (full-batch kernels only).

        This moves each task's cold events ahead of every hot event, its
        own and other processors'.  It is sound because:

        * A task's cold events commute with its own hot events:
          ``_plan_epoch`` made them use disjoint sets of the processor's
          cache, and cache state and LRU stamps are per set.  Shadow
          words, directory entries, touched/seen bits and write-buffer
          entries are keyed by address, and the set index is a function
          of the address, so disjoint sets mean disjoint lines.
        * They commute with other processors' events by the argument that
          already lets cold spans run eagerly: a cold line is written by
          no other task, and the hot-set rule keeps every cross-processor
          replacement in heap order.
        * A line can be hot for one task and cold for another only when
          the per-task promotion made it so.  Then no task writes it this
          epoch (a multi-touched written line is hot for every task) and
          the scheme does not count it order-sensitive (it is not among
          the directory rule's extra lines), so all its accesses are
          reads, which commute.

        Counters are commutative sums and all latencies are
        epoch-latched, so the pre-applied cold state and per-task latency
        sums are exactly what interleaved execution would produce;
        :meth:`~repro.coherence.batch._BatchKernel.span` then replays them
        from memoized prefix sums.  When two tasks share a processor
        *and* the epoch has hot events, their events interleave in heap
        order rather than rank order, so a set one of them uses cold and
        the other uses at all forces a bail-out (without hot events the
        merged rank order is exactly the dispatch order)."""
        shared_proc = (any(len(h) for h in hot_idx) and
                       len({ta.proc for ta in batch.tasks}) < len(batch.tasks))
        proc_sets: Dict[int, tuple] = {}
        pieces = []
        for ta, h in zip(batch.tasks, hot_idx):
            sel = None
            if len(h):
                sel = np.ones(ta.n, dtype=bool)
                sel[h] = False
            if shared_proc:
                cold_sets = (ta.uniq_sets if sel is None
                             else np.unique(ta.set_[sel]))
                seen_cold, seen_all = proc_sets.get(ta.proc, (_NO_HOT,) * 2)
                if (np.isin(cold_sets, seen_all).any()
                        or np.isin(ta.uniq_sets, seen_cold).any()):
                    return False
                proc_sets[ta.proc] = (np.union1d(seen_cold, cold_sets),
                                      np.union1d(seen_all, ta.uniq_sets))
            if len(h) < ta.n:
                pieces.append((ta.proc, ta, sel))
        return bool(pieces) and self._kernel.preapply(self, pieces)

    # ------------------------------------------------------------ advance

    def _advance(self, batch, rank: int, start_idx: int, clock: int,
                 hot_idx, hot_pos, clocks, heap) -> None:
        """Run a task's cold events from ``start_idx`` up to its next hot
        event (pushed onto the heap) or to completion."""
        ta = batch.tasks[rank]
        hot = hot_idx[rank]
        position = hot_pos[rank]
        stop = int(hot[position]) if position < len(hot) else ta.n
        clock += self._run_cold(ta.proc, ta, start_idx, stop)
        if position < len(hot):
            heapq.heappush(heap, (clock, ta.proc, rank, stop))
        else:
            clock += ta.extra_work
            self.result.breakdown["busy"] += ta.extra_work
            clocks[ta.proc] = clock

    def _run_cold(self, proc: int, ta: _TaskArrays, lo: int, hi: int) -> int:
        if lo >= hi:
            return 0
        if self._kernel is not None:
            return self._kernel.span(self, proc, ta, lo, hi)
        elapsed = 0
        breakdown = self.result.breakdown
        access = self._access
        for is_write, addr, site, work, shared in ta.rows[lo:hi]:
            breakdown["busy"] += work
            elapsed += work + access(proc, is_write, addr, site, shared)
        return elapsed
