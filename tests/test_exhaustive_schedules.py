"""Exhaustive schedule enumeration — marking soundness beyond one scheduler.

The compiler must be safe for *every* legal assignment of DOALL iterations
to processors, not just the chunk/interleaved policies the generator
offers.  For tiny programs we enumerate ALL task->processor assignments
(P^tasks combinations), rewrite the trace accordingly, and run TPI and SC
with the per-read version oracle active: any assignment under which an
unmarked read can observe stale data fails loudly.

Programs here use only shared arrays, so reassigning a task to another
processor does not change its event addresses.
"""

import itertools

import pytest

from repro.common.config import CacheConfig, default_machine
from repro.compiler import mark_program
from repro.ir import ProgramBuilder
from repro.sim.engine import Engine
from repro.trace import generate_columnar
from tests.rawtrace import epochs_of, raw_trace

N_PROCS = 2
MACHINE = default_machine().with_(
    n_procs=N_PROCS, cache=CacheConfig(size_bytes=512, line_words=4),
    epoch_setup_cycles=2, task_dispatch_cycles=1)


def split_tasks_per_iteration(program):
    """Trace with one task per DOALL iteration (so assignments can move
    individual iterations), by generating at a huge processor count and
    then re-basing.  Serial epochs keep their single master task."""
    wide = default_machine().with_(n_procs=64,
                                   cache=MACHINE.cache,
                                   epoch_setup_cycles=2,
                                   task_dispatch_cycles=1)
    return generate_columnar(program, wide)


def iteration_task_slots(trace):
    """(epoch_idx, task_idx) for every parallel-epoch task."""
    slots = []
    for e_idx, epoch in enumerate(trace.epochs):
        if epoch.parallel:
            for t_idx in range(epoch.n_tasks):
                slots.append((e_idx, t_idx))
    return slots


def reassign(trace, slots, assignment):
    """The trace with each slot's task moved to its assigned processor
    (tasks landing on one processor merge, order preserved)."""
    moved = dict(zip(slots, assignment))
    epochs = []
    for e_idx, epoch in enumerate(epochs_of(trace)):
        merged = {}
        for t_idx, task in enumerate(epoch.tasks):
            proc = moved.get((e_idx, t_idx), task.proc)
            events, extra = merged.get(proc, ([], 0))
            merged[proc] = (events + task.events, extra + task.extra_work)
        epochs.append(epoch._replace(
            tasks=[(p, *merged[p]) for p in sorted(merged)]))
    return raw_trace(trace.layout, N_PROCS, epochs, trace.program_name)


def exhaust(program, max_assignments=700):
    marking = mark_program(program)
    trace = split_tasks_per_iteration(program)
    slots = iteration_task_slots(trace)
    total = N_PROCS ** len(slots)
    assert total <= max_assignments, (
        f"program too large to exhaust: {total} assignments")
    checked = 0
    for assignment in itertools.product(range(N_PROCS), repeat=len(slots)):
        run = reassign(trace, slots, assignment)
        for scheme in ("tpi", "sc"):
            Engine(run, marking, MACHINE, scheme).run()
        checked += 1
    assert checked == total
    return checked


class TestExhaustive:
    def test_producer_consumer(self):
        """Write A in one epoch, read it (reversed) in the next."""
        b = ProgramBuilder("pc")
        b.array("A", (4,))
        b.array("B", (4,))
        with b.procedure("main"):
            with b.doall("i", 0, 3) as i:
                b.stmt(writes=[b.at("A", i)])
            with b.doall("j", 0, 3) as j:
                b.stmt(reads=[b.at("A", 3 - j)], writes=[b.at("B", j)])
        assert exhaust(b.build()) == 2 ** 8

    def test_same_epoch_neighbour(self):
        """Strict Time-Reads: read a neighbour the same epoch writes."""
        b = ProgramBuilder("neigh")
        b.array("A", (8,))
        with b.procedure("main"):
            with b.doall("w", 0, 3) as w:
                b.stmt(writes=[b.at("A", w)])
            with b.doall("i", 1, 3) as i:
                b.stmt(reads=[b.at("A", i - 1)], writes=[b.at("A", i)])
        assert exhaust(b.build()) == 2 ** 7

    def test_serial_parallel_interleaving(self):
        """Master writes between parallel epochs; loop-carried reuse."""
        b = ProgramBuilder("mix", params={"T": 2})
        b.array("A", (4,))
        b.array("B", (4,))
        with b.procedure("main"):
            with b.serial("t", 0, b.p("T") - 1):
                b.stmt(writes=[b.at("A", 0)])  # master
                with b.doall("i", 0, 2) as i:
                    b.stmt(reads=[b.at("A", 0), b.at("B", i)],
                           writes=[b.at("B", i)])
        assert exhaust(b.build()) == 2 ** 6

    def test_partial_writes_with_reuse(self):
        """Only part of A is rewritten; reads of the rest may keep hitting
        (timestamp window, W-register granularity) under every schedule —
        and must stay safe."""
        b = ProgramBuilder("partial")
        b.array("A", (8,))
        b.array("B", (8,))
        with b.procedure("main"):
            with b.doall("z", 0, 2) as z:
                b.stmt(writes=[b.at("A", z)])
            with b.doall("i", 0, 1) as i:
                b.stmt(writes=[b.at("A", i)])
            with b.doall("j", 0, 2) as j:
                b.stmt(reads=[b.at("A", j)], writes=[b.at("B", j)])
        assert exhaust(b.build()) == 2 ** 8

    def test_sabotaged_marking_caught_under_some_schedule(self):
        """Control experiment: erase the marking and the exhaustive sweep
        must find a schedule that trips the oracle (proving the sweep has
        teeth)."""
        from repro.common.errors import SimulationError
        from repro.compiler.marking import Marking
        from repro.compiler.epochs import EpochGraph

        b = ProgramBuilder("sab")
        b.array("A", (4,))
        b.array("B", (4,))
        with b.procedure("main"):
            with b.doall("i", 0, 3) as i:
                b.stmt(writes=[b.at("A", i)])
            with b.doall("j", 0, 3) as j:
                b.stmt(reads=[b.at("A", 3 - j)], writes=[b.at("B", j)])
        program = b.build()
        honest = mark_program(program)
        sabotage = Marking(tpi={site: __import__(
            "repro.compiler.marking", fromlist=["RefMark"]).RefMark.READ
            for site in honest.tpi},
            sc={}, graph=EpochGraph())
        trace = split_tasks_per_iteration(program)
        slots = iteration_task_slots(trace)
        tripped = False
        for assignment in itertools.product(range(N_PROCS), repeat=len(slots)):
            run = reassign(trace, slots, assignment)
            try:
                Engine(run, sabotage, MACHINE, "tpi").run()
            except SimulationError:
                tripped = True
                break
        assert tripped, "oracle failed to catch the erased marking"
