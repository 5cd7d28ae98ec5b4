"""The batched simulation engine.

The reference :class:`~repro.sim.engine.Engine` advances one event at a
time through a global heap so that cross-processor protocol interactions
happen in a deterministic timing-dependent order.  Most events need no
such ordering: within an epoch the network latencies are constant (rho
only moves at the barrier) and most lines are touched by a single
processor, so their accesses commute with everything another processor
does.  This engine exploits that:

* An epoch batches only through the scheme's batch kernel
  (:func:`repro.coherence.batch.make_kernel`).  A configuration with no
  kernel (tardis; update on a K-way cache) falls back on every epoch.
* Each epoch's lines are split into **hot** — order-sensitive across
  processors under the kernel's :attr:`~repro.coherence.batch.
  _BatchKernel.hot_rule` — and **cold** (everything else).  For an
  eviction-coupled kernel every line of a **hot set** is hot too: a
  cache set in which a replacement or a remote invalidation could
  couple processors (:meth:`FastEngine._hazard_sets`), hot for every
  task, so its state changes only in heap order.
* Hot events replay through the reference engine's own heap loop
  (:meth:`~repro.sim.engine.Engine._run_epoch`), keyed ``(clock, proc,
  rank, idx)``, so their global order — and therefore every directory
  transition, invalidation count, and classification — is bit-identical
  to the reference engine.
* All of the epoch's cold events run as one numpy-batched window before
  dispatch (:mod:`repro.coherence.batch`).  Each event runs the same
  state transitions as under the reference engine; only the
  interleaving *between* processors differs, exactly where it is
  provably unobservable.
* Every event in a cache set that a task's own hot events use is hot
  for that task too, so each task's hot and cold events use disjoint
  sets of its processor's cache.  That is what lets the epoch
  **pre-apply** its cold events ahead of every hot one
  (:meth:`FastEngine._preapply_epoch`); a set where the staleness oracle
  might fire turns hot for its task.

Planning and pre-apply work on the epoch as a whole, never task by task:
an epoch's events are one contiguous slice of the trace in task order,
so the analysis (:class:`_EpochBatch`) holds that slice plus a per-event
task rank, the hot rules yield one mask over the epoch's events, and
pre-apply's window is the slice compressed by the cold mask.

Epochs the analysis cannot clear (:func:`batchable`) — synchronization
(locks / critical sections), two tasks on one processor, or too small to
pay for the analysis — fall back: the heap loop replays every event, as
under the reference engine.  The hot-set rule serves every
associativity: kernels index cache state by slot (``set * K + way``),
so a K-way cache batches like a direct-mapped one.

Differential parity with the reference engine over every workload,
scheme, and a hypothesis-randomized program space is enforced by
tests/test_engine_parity.py; speedups are tracked in BENCH_engine.json
(see docs/PERF.md).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.sim.engine import Engine
from repro.trace.columnar import KIND_WRITE

#: Minimum events per task for batching to pay for its numpy analysis.
#: Below this the per-epoch array set-up costs more than the per-event
#: reference walk it replaces — flo52's many tiny epochs were measurably
#: *slower* batched (BENCH_engine.json pre-fix) while every other
#: workload sits comfortably above the floor.
_MIN_TASK_EVENTS = 32


def batchable(epoch) -> bool:
    """Can the fast engine batch ``epoch`` (a columnar epoch)?  Not when
    it has under :data:`_MIN_TASK_EVENTS` events per task, has
    synchronization (locks / critical sections), or runs two tasks on
    one processor: each task starts at its own dispatch time, but the
    engine keeps one clock per processor.  The answer is
    trace-static and kept on the epoch: ``epoch._batch`` is False, or
    the dict of analyses :func:`epoch_batch` fills."""
    batches = epoch._batch
    if batches is None:
        procs = epoch.trace.task_proc[slice(*epoch._task_range)]
        ok = (epoch.n_events >= _MIN_TASK_EVENTS * max(1, len(procs))
              and not epoch.has_sync
              and len(np.unique(procs)) == len(procs))
        batches = epoch._batch = {} if ok else False
    return batches is not False


#: The geometry-free fields of :class:`_EpochBatch`, shared by every
#: geometry view of one epoch.
_TRACE_FIELDS = ("off", "procs", "rank", "addr", "site", "work",
                 "shared", "is_write")


class _EpochBatch:
    """Trace-static batching analysis of one batchable epoch for one cache
    geometry, cached on the epoch (:func:`epoch_batch`) and shared by
    every scheme — and every gang member with that geometry — simulated
    over the trace in-process.  Everything here depends only on the event
    stream and the cache geometry — never on runtime protocol state.

    A columnar epoch's events are one contiguous slice of the trace, in
    task (dispatch) order.  The event columns are zero-copy views of that
    slice; ``off`` holds the per-task offsets into it, ``rank`` each
    event's task, and ``procs`` the per-task processor.  ``lines`` are the epoch's distinct lines, ``pairs``
    the sorted distinct ``line index * n_tasks + rank`` keys of its
    (line, task) pairs, ``multi`` flags the lines two or more tasks
    touch, and ``hot_written`` the events of the "written" hot rule:
    multi-touched lines written this epoch."""

    __slots__ = _TRACE_FIELDS + (
        "geometry", "line", "set_", "lines", "pairs",
        "multi", "hot_written", "_set_groups")

    def __init__(self, epoch, line_words: int, n_sets: int, base=None):
        self.geometry = (line_words, n_sets)
        self._set_groups = None
        if base is None:
            trace = epoch.trace
            t_lo, t_hi = epoch._task_range
            off = trace.task_off[t_lo:t_hi + 1]
            lo, hi = int(off[0]), int(off[-1])
            self.off = off - lo
            self.procs = trace.task_proc[t_lo:t_hi].astype(np.int64)
            self.rank = np.repeat(np.arange(t_hi - t_lo), np.diff(self.off))
            self.addr, self.site = trace.addr[lo:hi], trace.site[lo:hi]
            self.work, self.shared = trace.work[lo:hi], trace.shared[lo:hi]
            self.is_write = trace.kind[lo:hi] == KIND_WRITE
        else:
            for name in _TRACE_FIELDS:
                setattr(self, name, getattr(base, name))
        n_tasks = len(self.procs)
        self.line = self.addr // line_words
        self.set_ = self.line % n_sets
        self.lines, lid = np.unique(self.line, return_inverse=True)
        self.pairs = np.unique(lid * n_tasks + self.rank)
        self.multi = np.bincount(self.pairs // n_tasks,
                                 minlength=len(self.lines)) >= 2
        written = np.zeros(len(self.lines), dtype=bool)
        written[lid[self.is_write]] = True
        self.hot_written = (self.multi & written)[lid]

    @property
    def set_groups(self):
        """For the eviction pre-check, per ``(task, set)`` that holds the
        task's lines: ``(rank, set, n_lines, foreign)`` — the task's count
        of distinct lines in the set, and whether another task touches
        one of them."""
        if self._set_groups is None:
            n_tasks, n_sets = len(self.procs), self.geometry[1]
            lid, rank = np.divmod(self.pairs, n_tasks)
            groups, inv, n_lines = np.unique(
                rank * n_sets + self.lines[lid] % n_sets,
                return_inverse=True, return_counts=True)
            foreign = np.bincount(inv, self.multi[lid], len(groups)) > 0
            self._set_groups = (*np.divmod(groups, n_sets), n_lines, foreign)
        return self._set_groups


def epoch_batch(epoch, geometry) -> _EpochBatch:
    """The batchable epoch's :class:`_EpochBatch` for ``geometry``
    (``(line_words, n_sets)``), built on first use.  One analysis per
    geometry is kept side by side on ``epoch._batch``, so gang members
    with different geometries never evict each other's work; every view
    shares the first one's geometry-free columns."""
    batches = epoch._batch
    batch = batches.get(geometry)
    if batch is None:
        base = next(iter(batches.values()), None)
        batch = batches[geometry] = _EpochBatch(epoch, *geometry, base)
    return batch


def _among(values: np.ndarray, sorted_unique: np.ndarray) -> np.ndarray:
    """``np.isin(values, sorted_unique)`` for a sorted, duplicate-free
    array: a binary search instead of isin's sort."""
    idx = np.searchsorted(sorted_unique, values)
    return sorted_unique.take(idx, mode="clip") == values


class FastEngine(Engine):
    """Drop-in engine with batched cold spans; bit-identical results."""

    engine_name = "fast"

    def __init__(self, trace, marking, machine, scheme_name):
        # Imported here: a process that builds no fast engine (the model
        # checkers) never loads the kernels.
        from repro.coherence.batch import make_kernel

        super().__init__(trace, marking, machine, scheme_name)
        self._kernel = make_kernel(self.scheme)
        self._cur_batch = None
        self.batched_epochs = 0
        self.fallback_epochs = 0

    # ------------------------------------------------------------ planning

    def _plan_epoch(self, epoch) -> Optional[np.ndarray]:
        """The epoch's hot events as a mask over its events, or ``None``
        to fall back."""
        kernel = self._kernel
        if kernel is None or not batchable(epoch):
            return None
        cache_cfg = self.machine.cache
        batch = self._cur_batch = epoch_batch(
            epoch, (cache_cfg.line_words, cache_cfg.n_sets))
        if kernel.hot_rule == "none":
            hot = np.zeros(len(batch.addr), dtype=bool)
        elif kernel.hot_rule == "written":
            hot = batch.hot_written
        else:
            hot = self._directory_plan(batch)

        if kernel.evict_coupled:
            # Evictions mutate shared protocol state (directory entries,
            # sharer sets), so every install, eviction, LRU update and
            # remote invalidation in a set that might couple processors
            # must happen in the reference order.  Make each such set
            # *hot* for every task: the set index is a global function of
            # the line address, so no cold event touches a line of it and
            # its state, in every cache, changes only in heap order.
            flagged = self._hazard_sets(batch)
            if len(flagged):
                flags = np.zeros(cache_cfg.n_sets, dtype=bool)
                flags[flagged] = True
                hot = hot | flags[batch.set_]
        if hot.any():
            # Pre-apply runs a task's cold events ahead of its own hot
            # ones: make them use disjoint sets of the task's cache by
            # making hot, for this task only, every event in a set its
            # hot events use.
            key = batch.rank * cache_cfg.n_sets + batch.set_  # (task, set)
            hot = _among(key, np.unique(key[hot]))
        return hot

    def _directory_plan(self, batch) -> np.ndarray:
        """The hot mask under the "directory" rule: the written lines plus
        each exclusive line that two or more tasks off its owner's
        processor touch.  With one such task the line is cold: all its
        accesses are reads (a multi-touched written line is already hot),
        the owner's hit in any order, the one outside reader pays the
        forward whenever its first read comes, and an eviction of the
        owner's copy is hot (clause 1 of :meth:`_hazard_sets`)."""
        lines, owners = self._kernel.exclusive_lines(
            batch.lines[batch.multi])
        if len(lines):
            # Per (line, task) pair: a task off the line's owner.
            lid, rank = np.divmod(batch.pairs, len(batch.procs))
            at = np.searchsorted(batch.lines, lines)
            owner = np.full(len(batch.lines), -1, dtype=np.int64)
            owner[at] = owners
            outside = (owner[lid] >= 0) & (batch.procs[rank] != owner[lid])
            count = np.bincount(lid[outside], minlength=len(batch.lines))
            lines = lines[count[at] >= 2]
        if not len(lines):
            return batch.hot_written
        return batch.hot_written | _among(batch.line, lines)

    def _hazard_sets(self, batch) -> np.ndarray:
        """The eviction pre-check: the cache set indices in which a
        batched replacement could couple processors.  Per set of each
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
        the same.  All ``(task, set)`` pairs are checked at once, with
        one gather of the epoch-start tags."""
        K = self.machine.cache.associativity
        rank, sets, n_lines, foreign = batch.set_groups
        bank = self.scheme.bank
        res = bank.tags[bank.row_of[batch.procs[rank]], sets]
        lines = batch.lines
        at = np.minimum(np.searchsorted(lines, res), len(lines) - 1)
        known = lines[at] == res
        # A resident another task touches: an epoch line that is
        # multi-touched or not this task's.
        own = known & _among(at * len(batch.procs) + rank[:, None],
                             batch.pairs)
        res_foreign = (known & (batch.multi[at] | ~own)).any(axis=1)
        must = ((res >= 0).sum(axis=1) + n_lines - own.sum(axis=1)) > K
        hazard = must & (res_foreign | foreign if K > 1 else res_foreign)
        hazard |= foreign & (n_lines > K)
        return sets[hazard]

    # ------------------------------------------------------------- epochs

    def _hot_rows(self, epoch):
        """The plan's hot events per task, and the cold cycles the kernel
        pre-applied between them (see :meth:`Engine._run_epoch`)."""
        hot = self._plan_epoch(epoch)
        if hot is None:
            self.fallback_epochs += 1
            return super()._hot_rows(epoch)
        self.batched_epochs += 1
        batch = self._cur_batch
        self._kernel.begin_epoch()
        hot = hot.copy()  # pre-apply may promote poisoned sets
        cold = self._preapply_epoch(batch, hot)
        if not cold:
            return super()._hot_rows(epoch)
        # Each task's hot events, as indices into the task.
        at = np.flatnonzero(hot)
        cuts = np.searchsorted(at, batch.off).tolist()
        at = (at - batch.off[batch.rank[at]]).tolist()
        rows = []
        for rank in range(len(batch.procs)):
            hot_at = at[cuts[rank]:cuts[rank + 1]]
            task = epoch.rows(rank) if hot_at else ()
            rows.append([task[i] for i in hot_at])
        return rows, cold

    # ---------------------------------------------------------- pre-apply

    def _preapply_epoch(self, batch, hot) -> Optional[List[list]]:
        """Try to run *all* of the epoch's cold events (``~hot``) through
        one kernel scan before dispatch.  Returns per task its cold
        cycles before each hot event and after the last, or None (every
        event is hot).

        This moves each task's cold events ahead of every hot event, its
        own and other processors'.  It is sound because:

        * A task's cold events commute with its own hot events:
          ``_plan_epoch`` made them use disjoint sets of the processor's
          cache, and cache state and LRU stamps are per set.  Shadow
          words, directory entries, touched/seen bits and write-buffer
          entries are keyed by address, and the set index is a function
          of the address, so disjoint sets mean disjoint lines.
        * They commute with other processors' events: a cold line is
          written by no other task, and the hot-set rule keeps every
          cross-processor replacement in heap order.
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
        task (in ``hot``, in place), whole sets at a time, so the task's
        hot and cold events still use disjoint sets, and the rest of the
        epoch is tried again."""
        n_tasks = len(batch.procs)
        while True:
            at = np.flatnonzero(hot)
            if len(at) == len(hot):
                return None
            # The cold segments end at each hot event and at each task's
            # end (before the next task's first event), in epoch order;
            # ``ends - hot events before them`` are their window ends.
            ends = np.sort(np.concatenate((at * 2 + 1,
                                           batch.off[1:] * 2))) >> 1
            poisoned: List[np.ndarray] = []
            cycles = self._kernel.preapply(
                self, batch, ~hot if len(at) else None,
                ends - np.searchsorted(at, ends), poisoned)
            if cycles:
                first = (np.searchsorted(at, batch.off)
                         + np.arange(n_tasks + 1)).tolist()
                return [cycles[first[rank]:first[rank + 1]]
                        for rank in range(n_tasks)]
            hot[poisoned[0]] = True
