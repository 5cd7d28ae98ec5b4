"""Columnar trace store: the object :class:`~repro.trace.events.Trace`
as a handful of flat numpy arrays.

A trace is mostly one enormous homogeneous event stream, so the
list-of-:class:`MemEvent` representation pays per-object costs everywhere
it moves: building it dominates trace generation, pickling it dominates
the executor's process boundary and the artifact cache, and the fast
engine works on arrays (:class:`repro.sim.fastengine._EpochBatch`).
This module stores the same information columnarly:

* one array per :class:`MemEvent` field (``kind``/``addr``/``site``/
  ``work``/``shared``/``in_critical``/``lock``) over every event in the
  trace, in task-major program order;
* a compact task table (``proc``, ``extra_work``, event offsets) and an
  epoch table (offsets into the task table plus the per-epoch metadata
  lists);
* the original :class:`~repro.trace.layout.MemoryLayout` by reference.

The conversion is lossless both ways: ``ColumnarTrace.from_trace(t).
to_trace() == t`` (enforced by a hypothesis property in
tests/test_columnar.py), and engines driven from either form produce
byte-identical results.  Consumers that want arrays (the fast engine)
slice an epoch's events zero-copy: they are one contiguous range of
the columns; consumers that want objects (the reference engine, the
wholesale fallback path) materialize a :class:`~repro.trace.events.Task`
list lazily per epoch.  Pickling a ``ColumnarTrace`` ships the raw array
buffers — no per-event object graph — which is what makes cached
``PreparedRun`` artifacts and split executor units cheap.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.trace.events import EventKind, MemEvent, Task, Trace, TraceEpoch

#: Event-kind codes used in the ``kind`` column.  LOCK/UNLOCK sort after
#: the data kinds so "epoch has synchronization" is one vectorized compare.
KIND_READ, KIND_WRITE, KIND_LOCK, KIND_UNLOCK = 0, 1, 2, 3
_KIND_CODE = {EventKind.READ: KIND_READ, EventKind.WRITE: KIND_WRITE,
              EventKind.LOCK: KIND_LOCK, EventKind.UNLOCK: KIND_UNLOCK}
_KIND_OF_CODE = (EventKind.READ, EventKind.WRITE,
                 EventKind.LOCK, EventKind.UNLOCK)


@dataclass
class TaskColumns:
    """Zero-copy per-task view of the flat event columns."""

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

    def to_task(self) -> Task:
        """Materialize the object :class:`Task` (python-int field values)."""
        events = [MemEvent(_KIND_OF_CODE[k], a, s, w, sh, ic, lk)
                  for k, a, s, w, sh, ic, lk in zip(
                      self.kind.tolist(), self.addr.tolist(),
                      self.site.tolist(), self.work.tolist(),
                      self.shared.tolist(), self.in_critical.tolist(),
                      self.lock.tolist())]
        return Task(proc=self.proc, events=events, extra_work=self.extra_work)

    @staticmethod
    def from_task(task: Task) -> "TaskColumns":
        events = task.events
        n = len(events)
        return TaskColumns(
            proc=task.proc, extra_work=task.extra_work,
            kind=np.fromiter((_KIND_CODE[e.kind] for e in events),
                             np.uint8, n),
            addr=np.fromiter((e.addr for e in events), np.int64, n),
            site=np.fromiter((e.site for e in events), np.int64, n),
            work=np.fromiter((e.work for e in events), np.int64, n),
            shared=np.fromiter((e.shared for e in events), bool, n),
            in_critical=np.fromiter((e.in_critical for e in events), bool, n),
            lock=np.fromiter((e.lock for e in events), np.int32, n))


class ColumnarEpoch:
    """One epoch of a :class:`ColumnarTrace`, structurally compatible with
    :class:`~repro.trace.events.TraceEpoch`: the engines read ``index``,
    ``parallel``, ``label``, ``n_tasks_scheduled``, ``write_key``,
    ``tasks`` (materialized lazily and cached) and use ``_batch`` as a
    scratch slot; the fast engine additionally reads the columnar views.

    ``trace`` is a weak proxy: the trace owns its epoch views, and a
    strong back-reference would make a reference cycle that keeps a
    dropped trace (and every analysis cached on its epochs) alive until
    the next full garbage collection.
    """

    __slots__ = ("trace", "index", "_tasks", "_batch")

    def __init__(self, trace: "ColumnarTrace", index: int):
        self.trace = weakref.proxy(trace)
        self.index = index
        self._tasks: Optional[List[Task]] = None
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

    def task_columns(self) -> List[TaskColumns]:
        """Per-task zero-copy slices of the flat event columns."""
        t = self.trace
        lo, hi = self._task_range
        out = []
        for ti in range(lo, hi):
            a, b = int(t.task_off[ti]), int(t.task_off[ti + 1])
            out.append(TaskColumns(
                proc=int(t.task_proc[ti]), extra_work=int(t.task_extra[ti]),
                kind=t.kind[a:b], addr=t.addr[a:b], site=t.site[a:b],
                work=t.work[a:b], shared=t.shared[a:b],
                in_critical=t.in_critical[a:b], lock=t.lock[a:b]))
        return out

    @property
    def tasks(self) -> List[Task]:
        if self._tasks is None:
            self._tasks = [tc.to_task() for tc in self.task_columns()]
        return self._tasks

    def to_epoch(self) -> TraceEpoch:
        return TraceEpoch(index=self.index, parallel=self.parallel,
                          tasks=self.tasks, label=self.label,
                          n_tasks_scheduled=self.n_tasks_scheduled,
                          write_key=self.write_key)


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
        self.n_expanded_epochs = 0  # set by the columnar generator
        self._views: Optional[List[ColumnarEpoch]] = None

    # ----------------------------------------------------------- pickling

    _FIELDS = ("program_name", "n_procs", "layout", "kind", "addr", "site",
               "work", "shared", "in_critical", "lock", "task_off",
               "task_proc", "task_extra", "epoch_off", "epoch_parallel",
               "epoch_label", "epoch_n_sched", "epoch_write_key",
               "n_expanded_epochs")

    def __getstate__(self):
        # Derived caches (epoch views, their materialized tasks and batch
        # analyses) are dropped so pickles carry only the raw buffers.
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
        """Event-kind histogram, same shape as :meth:`Trace.counts`."""
        hist = np.bincount(self.kind, minlength=4)
        return {k.value: int(hist[_KIND_CODE[k]]) for k in EventKind}

    # -------------------------------------------------------- conversions

    def to_trace(self) -> Trace:
        """Materialize the equivalent object :class:`Trace` (lossless)."""
        return Trace(program_name=self.program_name, n_procs=self.n_procs,
                     epochs=[view.to_epoch() for view in self.epochs],
                     layout=self.layout)

    @classmethod
    def from_trace(cls, trace: Trace,
                   expanded: Optional[Dict[int, Sequence[TaskColumns]]] = None,
                   ) -> "ColumnarTrace":
        """Build the columnar form of ``trace``.

        ``expanded`` optionally maps epoch indices to pre-built per-task
        columns (the vectorized generator's output); those epochs must be
        placeholders with no object tasks.
        """
        builder = ColumnarBuilder(trace.program_name, trace.n_procs,
                                  trace.layout)
        for epoch in trace.epochs:
            columns = expanded.get(epoch.index) if expanded else None
            if columns is None:
                columns = [TaskColumns.from_task(t) for t in epoch.tasks]
            builder.add_epoch(epoch.parallel, epoch.label,
                              epoch.n_tasks_scheduled, epoch.write_key,
                              columns)
        return builder.build()


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
        return np.concatenate(parts)

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
