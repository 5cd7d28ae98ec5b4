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
  classification — is bit-identical to the reference engine.  A task
  whose next hot key is still the smallest runs on without a heap round
  trip (the heap would pop that key next anyway).
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
  kernel window before dispatch (:meth:`FastEngine._preapply_epoch`); a
  set where the staleness oracle might fire turns hot for its task.

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
    (hot events, poisoned spans, kernel-less schemes) touch them;
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
        if len({ta.proc for ta in batch.tasks}) < len(batch.tasks):
            # Tasks sharing a processor each start at their own dispatch
            # time, but ``_run_epoch_fast`` keeps one clock per processor.
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
        written lines plus each exclusive line that two or more tasks off
        its owner's processor touch.  With one such task the line is
        cold: all its accesses are reads (a multi-touched written line is
        already hot), the owner's hit in any order, the one outside
        reader pays the forward whenever its first read comes, and an
        eviction of the owner's copy is hot (clause 1 of
        :meth:`_hazard_sets`)."""
        lines, owners = self.scheme.directory_hot_lines(batch.multi_lines)
        if len(lines):
            outside = sum(_among(lines, ta.uniq_lines) & (owners != ta.proc)
                          for ta in batch.tasks)
            lines = lines[outside >= 2]
        if not len(lines):
            return batch.static_masks, batch.static_idx
        # Deterministic replay revisits the same directory states, so
        # identical hot lines recur across repeated simulations: key the
        # partition by their content.
        key = lines.tobytes()
        plan = batch.plan_cache.get(key)
        if plan is None:
            hot_masks = [mask | _among(ta.line, lines)
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
        cold = [None] * len(batch.tasks)
        if self._kernel is not None:
            self._kernel.begin_epoch()
            hot_idx = list(hot_idx)  # pre-apply may promote poisoned sets
            cold = self._preapply_epoch(batch, hot_idx) or cold
        base = global_time + machine.epoch_setup_cycles
        clocks: Dict[int, int] = {}
        tasks = batch.tasks
        for rank, ta in enumerate(tasks):
            start = base + machine.task_dispatch_cycles * rank
            breakdown["dispatch"] += start - global_time
            stall = stalls.get(ta.proc, 0)
            breakdown["reset_stall"] += stall
            start += stall
            clocks[ta.proc] = start

        hot = [h.tolist() for h in hot_idx]
        rows = [ta.rows if h else None for ta, h in zip(tasks, hot)]
        hot_pos = [0] * len(tasks)
        heap = [key for key in (
            self._advance(rank, ta, 0, clocks[ta.proc], hot[rank], 0,
                          clocks, cold[rank])
            for rank, ta in enumerate(tasks) if ta.n) if key is not None]
        heapq.heapify(heap)

        # Hot events replay with the reference engine's exact heap keys,
        # so every cross-processor interaction happens in the same global
        # order the reference engine would produce.  heappushpop runs a
        # task on at once while its next key is still the smallest.
        access = self._access
        busy = 0
        key = heapq.heappop(heap) if heap else None
        while key is not None:
            clock, proc, rank, idx = key
            is_write, addr, site, work, shared = rows[rank][idx]
            busy += work
            clock += work + access(proc, is_write, addr, site, shared)
            hot_pos[rank] += 1
            key = self._advance(rank, tasks[rank], idx + 1, clock,
                                hot[rank], hot_pos[rank], clocks, cold[rank])
            if key is not None:
                key = heapq.heappushpop(heap, key)
            elif heap:
                key = heapq.heappop(heap)
        breakdown["busy"] += busy
        return self._end_epoch(epoch, global_time, base, clocks,
                               reads_before, misses_before)

    # ---------------------------------------------------------- pre-apply

    def _preapply_epoch(self, batch, hot_idx) -> Optional[List[list]]:
        """Try to run *all* of the epoch's cold events through one merged
        kernel scan before dispatch (full-batch kernels only).  Returns
        per task its cold cycles before each hot event and after the
        last, or None: then the cold spans run in turn.

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
          a per-task promotion (of a set its hot events use, or of a
          poisoned set, below) made it so.  Then no task writes it this
          epoch (a multi-touched written line is hot for every task) and
          the scheme does not count it order-sensitive (it is not among
          the directory rule's hot lines), so all its accesses commute:
          reads, and at most one outside reader's owner forward.

        Counters are commutative sums and all latencies are
        epoch-latched, so the pre-applied cold state and per-task latency
        sums are exactly what interleaved execution would produce.

        A set where the staleness oracle might fire is poisoned: its
        events must run through the exact path.  The kernel then applies
        nothing and names the poisoned events; they turn hot for their
        task (in ``hot_idx``, in place), whole sets at a time, so the
        task's hot and cold events still use disjoint sets, and the rest
        of the epoch is tried again."""
        tasks = batch.tasks
        while True:
            ranks, pieces = [], []
            for rank, (ta, h) in enumerate(zip(tasks, hot_idx)):
                sel = None
                if len(h):
                    sel = np.ones(ta.n, dtype=bool)
                    sel[h] = False
                if len(h) < ta.n:
                    ranks.append(rank)
                    pieces.append((ta.proc, ta, sel))
            if not pieces:
                return None
            poisoned: List[np.ndarray] = []
            sums = self._kernel.preapply(self, pieces, poisoned)
            if sums:
                cold = [[0] * (len(h) + 1) for h in hot_idx]
                for rank, cs in zip(ranks, sums):
                    h = hot_idx[rank]
                    cold[rank] = (cs[np.append(h, tasks[rank].n)]
                                  - cs[np.append(0, h + 1)]).tolist()
                return cold
            for rank, idx in zip(ranks, poisoned):
                hot_idx[rank] = np.union1d(hot_idx[rank], idx)

    # ------------------------------------------------------------ advance

    def _advance(self, rank: int, ta: _TaskArrays, lo: int, clock: int,
                 hot: List[int], pos: int, clocks, cold) -> Optional[tuple]:
        """Run a task's cold events from ``lo`` up to its next hot event,
        ``hot[pos]`` (or take their pre-applied cycles, ``cold[pos]``),
        and return that event's heap key; at the task's end, record its
        finishing clock and return None."""
        stop = hot[pos] if pos < len(hot) else ta.n
        clock += (cold[pos] if cold is not None
                  else self._run_cold(ta.proc, ta, lo, stop))
        if pos < len(hot):
            return (clock, ta.proc, rank, stop)
        clock += ta.extra_work
        self.result.breakdown["busy"] += ta.extra_work
        clocks[ta.proc] = clock
        return None

    def _run_cold(self, proc: int, ta: _TaskArrays, lo: int, hi: int) -> int:
        if lo >= hi:
            return 0
        if self._kernel is not None:
            return self._kernel.span(self, proc, ta, lo, hi)
        return self._run_rows(proc, ta.rows[lo:hi])

    def _run_rows(self, proc: int, rows) -> int:
        """Run ``rows`` (:attr:`_TaskArrays.rows` tuples) in order through
        the exact per-event path, charging their work; returns the
        elapsed cycles."""
        elapsed = busy = 0
        access = self._access
        for is_write, addr, site, work, shared in rows:
            busy += work
            elapsed += work + access(proc, is_write, addr, site, shared)
        self.result.breakdown["busy"] += busy
        return elapsed
