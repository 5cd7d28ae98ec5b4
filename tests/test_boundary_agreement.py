"""Static/dynamic epoch agreement — the W-register soundness contract.

The compiler's W-register updates and the strict/timestamp hit rules are
sound only if the runtime (a) increments the epoch counter exactly once per
static epoch entered on the taken path, and (b) applies each epoch's
compiler-emitted write-set update.  These tests check the contract on every
workload: each dynamic epoch's ``write_key`` resolves to a static epoch,
and the arrays dynamically written inside an epoch are a subset of the
compiler's may-write set for that key.
"""

import pytest

from repro.common.config import default_machine
from repro.compiler import mark_program
from repro.compiler.epochs import build_epoch_graph
from repro.ir import ProgramBuilder
from repro.ir.program import Sharing
from repro.trace import generate_columnar
from tests.rawtrace import WRITE, epochs_of
from repro.workloads import build_workload, workload_names

MACHINE = default_machine().with_(n_procs=4)


def dynamic_write_sets(program, trace):
    """Per dynamic epoch: the shared arrays actually written."""
    layout = trace.layout
    region_of, names = layout.shared_region_table()
    out = []
    for epoch, raw in zip(trace.epochs, epochs_of(trace)):
        written = set()
        for task in raw.tasks:
            for event in task.events:
                if event.kind == WRITE and event.shared:
                    region = int(region_of[event.addr])
                    if region >= 0:
                        written.add(names[region])
        out.append((epoch, written))
    return out


@pytest.mark.parametrize("name", workload_names())
class TestAgreementOnWorkloads:
    def test_write_keys_resolve_to_static_epochs(self, name):
        program = build_workload(name, size="small")
        graph = build_epoch_graph(program)
        static_keys = {e.write_key for e in graph.epochs if e.write_key}
        trace = generate_columnar(program, MACHINE)
        for epoch in trace.epochs:
            assert epoch.write_key in static_keys, (
                f"dynamic epoch {epoch.index} ({epoch.label}) has no "
                "matching static epoch")

    def test_dynamic_writes_covered_by_compiler_write_sets(self, name):
        program = build_workload(name, size="small")
        marking = mark_program(program)
        trace = generate_columnar(program, MACHINE)
        for epoch, written in dynamic_write_sets(program, trace):
            declared = set(marking.epoch_writes.get(epoch.write_key, {}))
            assert written <= declared, (
                f"epoch {epoch.index} ({epoch.label}) wrote {written} but "
                f"the compiler declared only {declared}")

    def test_parallel_epoch_counts_agree(self, name):
        """Each dynamic parallel epoch is an instance of a static DOALL."""
        program = build_workload(name, size="small")
        graph = build_epoch_graph(program)
        static_parallel_keys = {e.write_key for e in graph.parallel_epochs}
        trace = generate_columnar(program, MACHINE)
        for epoch in trace.epochs:
            if epoch.parallel:
                assert epoch.write_key in static_parallel_keys


class TestAgreementCornerCases:
    def test_branch_skip_keeps_boundary(self):
        """Taking the empty else of an opened If still crosses exactly one
        boundary between the pre and post serial epochs."""
        b = ProgramBuilder("skip", params={"GO": 0})
        b.array("A", (8,))
        with b.procedure("main"):
            b.stmt(writes=[b.at("A", 0)])  # pre
            with b.when(b.p("GO"), "==", 1):
                with b.doall("i", 0, 7) as i:
                    b.stmt(writes=[b.at("A", i)])
            b.stmt(reads=[b.at("A", 0)])  # post
        trace = generate_columnar(b.build(), MACHINE)
        kinds = [e.parallel for e in trace.epochs]
        assert kinds == [False, False]  # pre, post: distinct epochs

        trace_taken = generate_columnar(b.build(), MACHINE, params={"GO": 1})
        kinds = [e.parallel for e in trace_taken.epochs]
        assert kinds == [False, True, False]

    def test_zero_trip_doall_still_an_epoch(self):
        b = ProgramBuilder("zerotrip", params={"N": 0})
        b.array("A", (8,))
        with b.procedure("main"):
            b.stmt(writes=[b.at("A", 0)])
            with b.doall("i", 1, b.p("N")) as i:
                b.stmt(writes=[b.at("A", i)])
            b.stmt(reads=[b.at("A", 0)])
        trace = generate_columnar(b.build(), MACHINE)
        kinds = [(e.parallel, e.n_events) for e in trace.epochs]
        assert kinds == [(False, 1), (True, 0), (False, 1)]

    def test_scalar_only_serial_epoch_emitted(self):
        """A serial stretch of pure scalar assignments is a static epoch and
        must be a (possibly event-free) dynamic epoch too."""
        b = ProgramBuilder("scalarophilia")
        b.array("A", (8,))
        with b.procedure("main"):
            with b.doall("i", 0, 7) as i:
                b.stmt(writes=[b.at("A", i)])
            b.assign("s", 3)
            with b.doall("j", 0, 7) as j:
                b.stmt(reads=[b.at("A", j)])
        trace = generate_columnar(b.build(), MACHINE)
        kinds = [(e.parallel, e.n_events) for e in trace.epochs]
        assert kinds == [(True, 8), (False, 0), (True, 8)]

    def test_loop_iterations_separate_epochs(self):
        b = ProgramBuilder("iters", params={"T": 3})
        b.array("A", (8,))
        with b.procedure("main"):
            with b.serial("t", 0, b.p("T") - 1):
                with b.doall("i", 0, 7) as i:
                    b.stmt(writes=[b.at("A", i)])
                b.stmt(reads=[b.at("A", 0)])  # serial tail per iteration
        trace = generate_columnar(b.build(), MACHINE)
        kinds = [e.parallel for e in trace.epochs]
        assert kinds == [True, False] * 3
