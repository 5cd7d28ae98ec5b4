"""Raw columnar traces for tests, built from compact per-task event tuples.

    trace = raw_trace(layout, n_procs, [
        [(0, [(WRITE, a), (READ, a + 4)]),   # epoch 0: (proc, events)
         (1, [(READ, a, 0, 1)], 5)],         # (proc, events, extra_work)
        Epoch([(0, [(LOCK, 0, -1, 0, False, False, 7)])], parallel=False),
    ])

An event is a prefix of the row ``(kind, addr, site, work, shared,
in_critical, lock)``; the fields left out default to site 0, work 0,
shared, not in a critical section, and lock -1.  An epoch is a list of
tasks (parallel, no label) or an :class:`Epoch`.  :func:`epochs_of`
reads a trace back in the same shapes, with every event a full
:class:`Event`.  The layout is given, never derived: addresses are taken
as they are.
"""

from collections import namedtuple
from typing import List
from unittest import mock

import numpy as np

from repro.trace.columnar import (
    KIND_LOCK,
    KIND_READ,
    KIND_UNLOCK,
    KIND_WRITE,
    ColumnarBuilder,
    ColumnarTrace,
    TaskColumns,
)
from repro.trace.generate import generate_columnar
from repro.trace.vectorize import TemplateCache

READ, WRITE, LOCK, UNLOCK = KIND_READ, KIND_WRITE, KIND_LOCK, KIND_UNLOCK

Event = namedtuple("Event", "kind addr site work shared in_critical lock",
                   defaults=(0, 0, True, False, -1))
Task = namedtuple("Task", "proc events extra_work", defaults=(0,))
Epoch = namedtuple("Epoch", "tasks parallel label n_tasks_scheduled write_key",
                   defaults=(True, "", 0, None))

_DTYPES = (np.uint8, np.int64, np.int64, np.int64, bool, bool, np.int32)
_COLUMNS = ("kind", "addr", "site", "work", "shared", "in_critical", "lock")


def raw_trace(layout, n_procs: int, epochs, name: str = "raw") -> ColumnarTrace:
    """A trace holding exactly ``epochs`` (see the module docstring)."""
    builder = ColumnarBuilder(name, n_procs, layout)
    for epoch in epochs:
        if not isinstance(epoch, Epoch):
            epoch = Epoch(epoch)
        columns = []
        for task in epoch.tasks:
            task = Task(*task)
            rows = [Event(*event) for event in task.events]
            fields = list(zip(*rows)) if rows else [()] * len(_DTYPES)
            columns.append(TaskColumns(
                task.proc, task.extra_work,
                *(np.array(f, dtype) for f, dtype in zip(fields, _DTYPES))))
        builder.add_epoch(epoch.parallel, epoch.label,
                          epoch.n_tasks_scheduled, epoch.write_key, columns)
    return builder.build()


def epochs_of(trace: ColumnarTrace) -> List[Epoch]:
    """Every epoch of ``trace``, its tasks' events as :class:`Event` rows;
    ``raw_trace(trace.layout, trace.n_procs, epochs_of(trace))`` rebuilds
    the trace."""
    return [Epoch([Task(proc, [Event(*row) for row in epoch.rows(rank)],
                        extra)
                   for rank, (proc, extra, _n) in enumerate(
                       epoch.task_table())],
                  epoch.parallel, epoch.label, epoch.n_tasks_scheduled,
                  epoch.write_key)
            for epoch in trace.epochs]


def events_of(trace: ColumnarTrace) -> List[Event]:
    """Every event of ``trace``, in epoch and task order."""
    return [event for epoch in epochs_of(trace) for task in epoch.tasks
            for event in task.events]


def interpreted(program, machine, params=None, migration=None):
    """``generate_columnar`` with template expansion switched off in this
    process: every DOALL is interpreted per iteration."""
    with mock.patch.object(TemplateCache, "get", lambda *args: None):
        return generate_columnar(program, machine, params, migration)


def assert_same_trace(a: ColumnarTrace, b: ColumnarTrace) -> None:
    """Column-by-column equality of two traces (the layout, which has no
    ``__eq__``, is not compared)."""
    assert a.program_name == b.program_name
    assert a.n_procs == b.n_procs
    for name in _COLUMNS + ("task_off", "task_proc", "task_extra",
                            "epoch_off"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right), name
    for name in ("epoch_parallel", "epoch_label", "epoch_n_sched",
                 "epoch_write_key"):
        assert getattr(a, name) == getattr(b, name), name
