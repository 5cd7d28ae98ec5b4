"""IR interpreter: executes a program and produces its memory-event trace.

The trace is built in columnar form (:mod:`repro.trace.columnar`) as it
is generated.  Affine DOALL bodies (the common case; see
:mod:`repro.trace.vectorize`) are evaluated once symbolically and
expanded over the whole iteration space with numpy.  Everything else
(serial epochs, migrated DOALLs and any body the extractor rejects) is
interpreted per iteration into per-task event buffers, which close into
the same per-task columns at the epoch's end.

The generator walks the program with concrete parameter bindings and emits
a dynamic epoch **exactly where the compiler's partitioner placed a static
epoch on the taken path**.  This agreement is a correctness requirement of
the Time-Read windows: the compiler guarantees "no conflicting write within
the last D-1 epoch-counter increments" using *static* shortest-path
distances on the EFG, so the runtime must increment the counter once per
static epoch entered — no more (which would only cost performance) and no
fewer (which would be unsafe).  Concretely:

* every DOALL is one (parallel) epoch, even with zero iterations;
* a maximal run of serial nodes between split points is one serial epoch,
  even if it generates no memory events (e.g. scalar assignments only);
* split points are: DOALL loops, serial loops containing DOALLs, If nodes
  containing DOALLs, and calls to procedures containing DOALLs — the same
  predicate (:func:`repro.compiler.epochs.node_contains_doall`) the
  partitioner uses;
* loop-header epochs are structural (the partitioner's empty join nodes);
  they cost 0 in the static distance metric and are not emitted here.

Scalars are evaluated exactly; subscripts are bounds-checked against array
shapes; DOALL iterations are scheduled by the machine's policy and can be
split mid-task by a :class:`MigrationSpec` for the Section-5 experiments.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.common.config import MachineConfig
from repro.common.errors import SimulationError
from repro.compiler.epochs import node_contains_doall, proc_contains_doall
from repro.ir.program import (
    Call,
    CriticalSection,
    If,
    Loop,
    Node,
    Program,
    ScalarAssign,
    Sharing,
    Statement,
)
from repro.trace.columnar import (
    KIND_LOCK,
    KIND_READ,
    KIND_UNLOCK,
    KIND_WRITE,
    ColumnarBuilder,
    ColumnarTrace,
    TaskColumns,
)
from repro.trace.layout import MemoryLayout
from repro.trace.schedule import MigrationSpec, schedule_iterations
from repro.trace.vectorize import TemplateCache, expand_epoch

#: Fields per event in an event buffer: a task's events are buffered as
#: one flat list of ints, ``(kind, addr, site, work, shared, in_critical,
#: lock)`` per event.
_FIELDS = 7


def _task_columns(proc: int, extra_work: int, events: List[int]) -> TaskColumns:
    """A task's event buffer as columns."""
    ev = np.array(events, dtype=np.int64).reshape(-1, _FIELDS)
    return TaskColumns(
        proc=proc, extra_work=extra_work, kind=ev[:, 0].astype(np.uint8),
        addr=ev[:, 1], site=ev[:, 2], work=ev[:, 3],
        shared=ev[:, 4].astype(bool), in_critical=ev[:, 5].astype(bool),
        lock=ev[:, 6].astype(np.int32))


class _Generator:
    def __init__(self, program: Program, machine: MachineConfig,
                 params: Optional[Dict[str, int]],
                 migration: MigrationSpec):
        self.program = program
        self.machine = machine
        self.migration = migration
        self.env: Dict[str, int] = program.bind_params(params)
        # Fixed-alignment layout: the trace must not depend on back-end
        # cache geometry, so one generation serves a whole line-size sweep.
        self.layout = MemoryLayout(program, machine.n_procs)
        self.builder = ColumnarBuilder(program.name, machine.n_procs,
                                       self.layout)
        self.serial_events: List[int] = []
        self.serial_nodes_pending = False
        self.serial_first_node_id: Optional[int] = None
        self.pending_work = 0
        self.lock_ids: Dict[str, int] = {}
        self.iteration_counter = 0  # global, drives migration injection
        self._doall_memo: Dict[str, bool] = {}
        self._templates = TemplateCache()
        self.n_expanded_epochs = 0

    # ------------------------------------------------------------- driving

    def run(self) -> ColumnarTrace:
        self._body(self.program.procedures[self.program.entry].body,
                   proc=0, out=None, in_critical=False, serial=True)
        self._flush_serial()
        trace = self.builder.build()
        trace.n_expanded_epochs = self.n_expanded_epochs
        return trace

    def _body(self, nodes, proc: int, out: Optional[List[int]],
              in_critical: bool, serial: bool) -> None:
        # ``out is None`` means "the master's current serial epoch buffer",
        # which _flush_serial may swap out between nodes.
        for node in nodes:
            self._node(node, proc, out, in_critical, serial)

    def _sink(self, out: Optional[List[int]]) -> List[int]:
        return self.serial_events if out is None else out

    def _node(self, node: Node, proc: int, out: Optional[List[int]],
              in_critical: bool, serial: bool) -> None:
        if serial:
            self._mark_pending_if_serial_node(node)
        if isinstance(node, Statement):
            self._statement(node, proc, out, in_critical)
        elif isinstance(node, ScalarAssign):
            self.env[node.name] = node.expr.evaluate(self.env)
        elif isinstance(node, Loop):
            if node.parallel:
                if not serial:
                    raise SimulationError("nested DOALL reached the generator")
                self._doall(node)
            elif serial and node_contains_doall(self.program, node,
                                                self._doall_memo):
                self._opened_loop(node)
            else:
                self._serial_loop(node, proc, out, in_critical, serial)
        elif isinstance(node, If):
            if serial and node_contains_doall(self.program, node,
                                              self._doall_memo):
                self._opened_if(node)
                return
            branch = node.then if node.cond.evaluate(self.env) else node.els
            self._body(branch, proc, out, in_critical, serial)
        elif isinstance(node, CriticalSection):
            lock = self.lock_ids.setdefault(node.lock, len(self.lock_ids))
            self._sink(out).extend((KIND_LOCK, 0, -1, self._take_work(),
                                    False, False, lock))
            self._body(node.body, proc, out, True, serial)
            self._sink(out).extend((KIND_UNLOCK, 0, -1, self._take_work(),
                                    False, False, lock))
        elif isinstance(node, Call):
            if serial and proc_contains_doall(self.program, node.callee,
                                              self._doall_memo):
                self._flush_serial()
            self._body(self.program.procedures[node.callee].body,
                       proc, out, in_critical, serial)
        else:  # pragma: no cover - closed union
            raise SimulationError(f"unknown node {type(node).__name__}")

    def _mark_pending_if_serial_node(self, node: Node) -> None:
        """Nodes the partitioner would buffer open a serial epoch."""
        if isinstance(node, (Loop, If, Call)):
            if node_contains_doall(self.program, node, self._doall_memo):
                return  # a split point, not a buffered node
        if not self.serial_nodes_pending:
            self.serial_first_node_id = id(node)
        self.serial_nodes_pending = True

    def _opened_loop(self, loop: Loop) -> None:
        """A serial loop containing DOALLs: epoch boundary at entry; the
        (contracted) loop-header epoch itself is never emitted."""
        self._flush_serial()
        lo = loop.lo.evaluate(self.env)
        hi = loop.hi.evaluate(self.env)
        values = range(lo, hi + (1 if loop.step > 0 else -1), loop.step)
        for value in values:
            self.env[loop.index] = value
            self._body(loop.body, 0, None, False, True)
            self._flush_serial()  # back edge: close the iteration's tail
        self.env.pop(loop.index, None)

    def _opened_if(self, node: If) -> None:
        """An If containing DOALLs: boundary before, and after the branch."""
        self._flush_serial()
        branch = node.then if node.cond.evaluate(self.env) else node.els
        self._body(branch, 0, None, False, True)
        self._flush_serial()

    def _serial_loop(self, loop: Loop, proc: int, out: Optional[List[int]],
                     in_critical: bool, serial: bool) -> None:
        lo = loop.lo.evaluate(self.env)
        hi = loop.hi.evaluate(self.env)
        values = range(lo, hi + (1 if loop.step > 0 else -1), loop.step)
        for value in values:
            self.env[loop.index] = value
            self._body(loop.body, proc, out, in_critical, serial)
        self.env.pop(loop.index, None)

    # -------------------------------------------------------------- epochs

    def _flush_serial(self) -> None:
        """Close the current serial epoch if the partitioner opened one.

        Emitted even when it produced no memory events (the static epoch
        exists, so the runtime must count the boundary for the Time-Read
        window distances to stay sound).
        """
        if not self.serial_nodes_pending:
            return
        task = _task_columns(0, self._take_work(), self.serial_events)
        self.builder.add_epoch(False, "serial", 1, self.serial_first_node_id,
                               [task])
        self.serial_events = []
        self.serial_nodes_pending = False
        self.serial_first_node_id = None

    def _doall(self, loop: Loop) -> None:
        self._flush_serial()
        lo = loop.lo.evaluate(self.env)
        hi = loop.hi.evaluate(self.env)
        values = list(range(lo, hi + (1 if loop.step > 0 else -1), loop.step))
        assignments = schedule_iterations(values, self.machine.n_procs,
                                          self.machine.schedule)
        label = loop.label or f"doall {loop.index}"
        # Mid-task migration splits depend on the global iteration
        # counter; the per-iteration walk handles them.
        template = (None if self.migration.enabled else
                    self._templates.get(self.program, loop, self.env))
        if template is not None:
            columns = expand_epoch(template, values, assignments, self.layout)
            # None: a subscript leaves its array for some iteration; the
            # walk below raises the error at the first faulting iteration.
            if columns is not None:
                self.builder.add_epoch(True, label, len(values), id(loop),
                                       columns)
                self.iteration_counter += len(values)
                self.n_expanded_epochs += 1
                return
        tasks: Dict[int, List[int]] = {}
        env_backup = dict(self.env)
        for proc, iterations in assignments:
            for value in iterations:
                self.env[loop.index] = value
                events = tasks.setdefault(proc, [])
                start = len(events)
                self._body(loop.body, proc, events, False, serial=False)
                if self.migration.migrates(self.iteration_counter):
                    self._migrate(events, start, proc, tasks)
                self.iteration_counter += 1
        self.env = env_backup
        extra = 0
        if self.pending_work:
            # Work accumulated with no trailing access: charge the master.
            tasks.setdefault(0, [])
            extra = self._take_work()
        self.builder.add_epoch(
            True, label, len(values), id(loop),
            [_task_columns(p, extra if p == 0 else 0, tasks[p])
             for p in sorted(tasks)])

    def _migrate(self, events: List[int], start: int, proc: int,
                 tasks: Dict[int, List[int]]) -> None:
        """Split the iteration buffered in ``events[start:]`` mid-task:
        its second half moves to the next processor's task.

        The split point must not separate a LOCK from its UNLOCK: a task
        cannot migrate while holding a lock (the runtime would have to
        carry lock ownership across processors).  The split lands at the
        lock-depth-zero point nearest the middle; a task that is inside a
        critical section throughout simply does not migrate.
        """
        target = (proc + 1) % self.machine.n_procs
        kinds = events[start::_FIELDS]
        split = self._lock_safe_split(kinds) if len(kinds) > 1 else 0
        if split and target != proc:
            cut = start + split * _FIELDS
            tasks.setdefault(target, []).extend(events[cut:])
            del events[cut:]

    @staticmethod
    def _lock_safe_split(kinds: List[int]) -> int:
        """Index nearest the midpoint where no lock is held (0 = don't
        split), over one iteration's kind column."""
        depth = 0
        candidates = []
        for idx, kind in enumerate(kinds):
            if idx > 0 and depth == 0:
                candidates.append(idx)
            if kind == KIND_LOCK:
                depth += 1
            elif kind == KIND_UNLOCK:
                depth -= 1
        if not candidates:
            return 0
        mid = (len(kinds) + 1) // 2
        return min(candidates, key=lambda idx: abs(idx - mid))

    # ------------------------------------------------------------ leaves

    def _take_work(self) -> int:
        work, self.pending_work = self.pending_work, 0
        return work

    def _statement(self, stmt: Statement, proc: int,
                   out: Optional[List[int]], in_critical: bool) -> None:
        self.pending_work += stmt.work
        sink = self._sink(out)
        for ref in stmt.reads:
            self._emit_ref(KIND_READ, ref, proc, in_critical, sink)
        for ref in stmt.writes:
            self._emit_ref(KIND_WRITE, ref, proc, in_critical, sink)

    def _emit_ref(self, kind: int, ref, proc: int, in_critical: bool,
                  sink: List[int]) -> None:
        """One event per word of the access unit (element_words >= 1),
        every word carrying the reference's site marking."""
        array = self.program.arrays[ref.array]
        indices = tuple(sub.evaluate(self.env) for sub in ref.subscripts)
        addr = self.layout.addr_of(ref.array, indices, proc)
        # Under task migration, "private" per-processor storage is accessed
        # by whichever processor the task fragment lands on, so it must go
        # through the coherence machinery like shared data.
        shared = (array.sharing is Sharing.SHARED or self.migration.enabled)
        for offset in range(array.element_words):
            sink.extend((kind, addr + offset, ref.site, self._take_work(),
                         shared, in_critical, -1))


def generate_columnar(program: Program, machine: MachineConfig,
                      params: Optional[Dict[str, int]] = None,
                      migration: Optional[MigrationSpec] = None
                      ) -> ColumnarTrace:
    """Execute ``program`` and return its memory-event trace."""
    return _Generator(program, machine, params,
                      migration or MigrationSpec()).run()
