"""The memory-event trace: a program execution as flat event columns.

A trace is a sequence of dynamic epochs; each epoch holds one task per
participating processor; each task is an ordered run of memory events.
Epoch boundaries are implicit barriers (the DOALL model): the simulator
synchronizes all processors and increments the TPI epoch counters
between epochs.

A trace is mostly one enormous homogeneous event stream, so it is
stored as a handful of flat numpy arrays:

* one array per event field over every event in the trace, in
  task-major program order: ``kind`` (the ``KIND_*`` codes below),
  ``addr`` (word address), ``site`` (the originating source reference),
  ``work`` (compute cycles charged before the operation issues),
  ``shared``, ``in_critical`` and ``lock`` (the lock id of a LOCK or
  UNLOCK, else -1);
* a task table (``task_proc``, ``task_extra`` — trailing compute cycles
  not attached to any event — and the event offsets ``task_off``) and an
  epoch table (offsets into the task table plus the per-epoch metadata
  lists);
* the :class:`~repro.trace.layout.MemoryLayout` by reference.

Events carry the *site* id of their source reference; coherence schemes
that honour compiler marking look the site up in the
:class:`repro.compiler.Marking` maps to decide whether a READ is an
ordinary read or a Time-Read / bypassing read.  This keeps one trace
reusable across all schemes.

An epoch's events are one contiguous range of the columns, so the fast
engine's analysis slices them zero-copy.  Both engines replay an epoch
as per-task rows of Python ints (:meth:`ColumnarEpoch.rows`), built once
per task and shared by every scheme and cache geometry.  Pickling a
``ColumnarTrace`` ships the raw array buffers, which is what makes
cached ``PreparedRun`` artifacts and split executor units cheap.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Event-kind codes used in the ``kind`` column.  LOCK/UNLOCK sort after
#: the data kinds so "epoch has synchronization" is one vectorized compare.
KIND_READ, KIND_WRITE, KIND_LOCK, KIND_UNLOCK = 0, 1, 2, 3
KIND_NAMES = ("read", "write", "lock", "unlock")


@dataclass
class TaskColumns:
    """One task's events as columns (zero-copy slices where possible)."""

    proc: int
    extra_work: int
    kind: np.ndarray
    addr: np.ndarray
    site: np.ndarray
    work: np.ndarray
    shared: np.ndarray
    in_critical: np.ndarray
    lock: np.ndarray

    @property
    def n(self) -> int:
        return len(self.addr)


class ColumnarEpoch:
    """One dynamic epoch: a view of its trace's columns.

    ``write_key`` identifies the originating static epoch (by its first
    node's identity); the TPI runtime uses it to apply the
    compiler-emitted per-array last-write-epoch (W-register) updates at
    the epoch's end.  ``n_tasks_scheduled`` is the dispatch count (above
    ``n_tasks`` under self-scheduling).  ``_batch`` is the fast engine's
    scratch slot.

    ``trace`` is a weak proxy: the trace owns its epoch views, and a
    strong back-reference would make a reference cycle that keeps a
    dropped trace (and every analysis cached on its epochs) alive until
    the next full garbage collection.
    """

    __slots__ = ("trace", "index", "_table", "_rows", "_batch")

    def __init__(self, trace: "ColumnarTrace", index: int):
        self.trace = weakref.proxy(trace)
        self.index = index
        self._table: Optional[List[Tuple[int, int, int]]] = None
        self._rows: Optional[list] = None
        self._batch = None

    # --------------------------------------------------------- epoch meta

    @property
    def parallel(self) -> bool:
        return self.trace.epoch_parallel[self.index]

    @property
    def label(self) -> str:
        return self.trace.epoch_label[self.index]

    @property
    def n_tasks_scheduled(self) -> int:
        return self.trace.epoch_n_sched[self.index]

    @property
    def write_key(self) -> Optional[int]:
        return self.trace.epoch_write_key[self.index]

    # -------------------------------------------------------------- sizes

    @property
    def _task_range(self):
        off = self.trace.epoch_off
        return int(off[self.index]), int(off[self.index + 1])

    @property
    def n_tasks(self) -> int:
        lo, hi = self._task_range
        return hi - lo

    @property
    def _event_range(self):
        lo, hi = self._task_range
        off = self.trace.task_off
        return int(off[lo]), int(off[hi])

    @property
    def n_events(self) -> int:
        lo, hi = self._event_range
        return hi - lo

    @property
    def has_sync(self) -> bool:
        """LOCK/UNLOCK or in-critical events anywhere this epoch."""
        lo, hi = self._event_range
        t = self.trace
        return bool((t.kind[lo:hi] >= KIND_LOCK).any()
                    or t.in_critical[lo:hi].any())

    # -------------------------------------------------------------- views

    def task_table(self) -> List[Tuple[int, int, int]]:
        """Per task ``(proc, extra_work, n_events)``, in dispatch order."""
        if self._table is None:
            t = self.trace
            lo, hi = self._task_range
            self._table = list(zip(
                t.task_proc[lo:hi].tolist(), t.task_extra[lo:hi].tolist(),
                np.diff(t.task_off[lo:hi + 1]).tolist()))
        return self._table

    def rows(self, rank: int) -> list:
        """Task ``rank``'s events as rows of Python ints, ``(kind, addr,
        site, work, shared, in_critical, lock)``, in program order: the
        form both engines replay.  Built on first use and kept, so every
        scheme and cache geometry replaying the epoch shares one copy."""
        cells = self._rows
        if cells is None:
            cells = self._rows = [None] * self.n_tasks
        rows = cells[rank]
        if rows is None:
            t = self.trace
            ti = self._task_range[0] + rank
            a, b = int(t.task_off[ti]), int(t.task_off[ti + 1])
            rows = cells[rank] = list(zip(
                t.kind[a:b].tolist(), t.addr[a:b].tolist(),
                t.site[a:b].tolist(), t.work[a:b].tolist(),
                t.shared[a:b].tolist(), t.in_critical[a:b].tolist(),
                t.lock[a:b].tolist()))
        return rows


class ColumnarTrace:
    """A complete execution as flat event columns plus index tables."""

    def __init__(self, program_name: str, n_procs: int, layout,
                 kind: np.ndarray, addr: np.ndarray, site: np.ndarray,
                 work: np.ndarray, shared: np.ndarray,
                 in_critical: np.ndarray, lock: np.ndarray,
                 task_off: np.ndarray, task_proc: np.ndarray,
                 task_extra: np.ndarray, epoch_off: np.ndarray,
                 epoch_parallel: List[bool], epoch_label: List[str],
                 epoch_n_sched: List[int],
                 epoch_write_key: List[Optional[int]]):
        self.program_name = program_name
        self.n_procs = n_procs
        self.layout = layout
        self.kind = kind
        self.addr = addr
        self.site = site
        self.work = work
        self.shared = shared
        self.in_critical = in_critical
        self.lock = lock
        self.task_off = task_off
        self.task_proc = task_proc
        self.task_extra = task_extra
        self.epoch_off = epoch_off
        self.epoch_parallel = epoch_parallel
        self.epoch_label = epoch_label
        self.epoch_n_sched = epoch_n_sched
        self.epoch_write_key = epoch_write_key
        self.n_expanded_epochs = 0  # set by the generator
        self._views: Optional[List[ColumnarEpoch]] = None

    # ----------------------------------------------------------- pickling

    _FIELDS = ("program_name", "n_procs", "layout", "kind", "addr", "site",
               "work", "shared", "in_critical", "lock", "task_off",
               "task_proc", "task_extra", "epoch_off", "epoch_parallel",
               "epoch_label", "epoch_n_sched", "epoch_write_key",
               "n_expanded_epochs")

    def __getstate__(self):
        # Derived caches (epoch views, their rows and batch analyses) are
        # dropped so pickles carry only the raw buffers.
        return {name: getattr(self, name) for name in self._FIELDS}

    def __setstate__(self, state):
        for name in self._FIELDS:
            setattr(self, name, state[name])
        self._views = None

    # ------------------------------------------------------------- access

    @property
    def epochs(self) -> List[ColumnarEpoch]:
        if self._views is None:
            self._views = [ColumnarEpoch(self, i)
                           for i in range(self.n_epochs)]
        return self._views

    @property
    def n_epochs(self) -> int:
        return len(self.epoch_off) - 1

    @property
    def n_events(self) -> int:
        return len(self.addr)

    @property
    def procs(self) -> np.ndarray:
        """The processors any task runs on, sorted."""
        return np.unique(self.task_proc)

    def counts(self) -> Dict[str, int]:
        """Event-kind histogram (reads/writes/locks), for reporting."""
        hist = np.bincount(self.kind, minlength=len(KIND_NAMES))
        return {name: int(n) for name, n in zip(KIND_NAMES, hist.tolist())}


class ColumnarBuilder:
    """Accumulates per-task column chunks into one :class:`ColumnarTrace`."""

    def __init__(self, program_name: str, n_procs: int, layout):
        self.program_name = program_name
        self.n_procs = n_procs
        self.layout = layout
        self._chunks: List[TaskColumns] = []
        self._task_proc: List[int] = []
        self._task_extra: List[int] = []
        self._task_len: List[int] = []
        self._epoch_off: List[int] = [0]
        self._parallel: List[bool] = []
        self._label: List[str] = []
        self._n_sched: List[int] = []
        self._write_key: List[Optional[int]] = []

    def add_epoch(self, parallel: bool, label: str, n_tasks_scheduled: int,
                  write_key: Optional[int],
                  columns: Sequence[TaskColumns]) -> None:
        for tc in columns:
            self._chunks.append(tc)
            self._task_proc.append(tc.proc)
            self._task_extra.append(tc.extra_work)
            self._task_len.append(tc.n)
        self._epoch_off.append(len(self._task_proc))
        self._parallel.append(parallel)
        self._label.append(label)
        self._n_sched.append(n_tasks_scheduled)
        self._write_key.append(write_key)

    @staticmethod
    def _cat(parts: List[np.ndarray], dtype) -> np.ndarray:
        if not parts:
            return np.zeros(0, dtype=dtype)
        return np.concatenate(parts).astype(dtype, copy=False)

    def build(self) -> ColumnarTrace:
        chunks = self._chunks
        task_off = np.zeros(len(self._task_len) + 1, dtype=np.int64)
        np.cumsum(self._task_len, out=task_off[1:])
        return ColumnarTrace(
            program_name=self.program_name, n_procs=self.n_procs,
            layout=self.layout,
            kind=self._cat([c.kind for c in chunks], np.uint8),
            addr=self._cat([c.addr for c in chunks], np.int64),
            site=self._cat([c.site for c in chunks], np.int64),
            work=self._cat([c.work for c in chunks], np.int64),
            shared=self._cat([c.shared for c in chunks], bool),
            in_critical=self._cat([c.in_critical for c in chunks], bool),
            lock=self._cat([c.lock for c in chunks], np.int32),
            task_off=task_off,
            task_proc=np.asarray(self._task_proc, dtype=np.int32),
            task_extra=np.asarray(self._task_extra, dtype=np.int64),
            epoch_off=np.asarray(self._epoch_off, dtype=np.int64),
            epoch_parallel=self._parallel, epoch_label=self._label,
            epoch_n_sched=self._n_sched, epoch_write_key=self._write_key)
