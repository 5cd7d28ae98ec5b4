"""Trace-generator edge cases: steps, parameter overrides, empty bodies."""

import pytest

from repro.common.config import default_machine
from repro.ir import ProgramBuilder
from repro.sim import prepare, simulate
from repro.trace import generate_columnar
from tests.rawtrace import LOCK, UNLOCK, events_of

MACHINE = default_machine().with_(n_procs=4)


class TestSteps:
    def test_strided_doall(self):
        b = ProgramBuilder("stride")
        b.array("A", (16,))
        with b.procedure("main"):
            with b.doall("i", 0, 15, step=4) as i:
                b.stmt(writes=[b.at("A", i)])
        trace = generate_columnar(b.build(), MACHINE)
        addrs = sorted(ev.addr - trace.layout.base("A")
                       for ev in events_of(trace))
        assert addrs == [0, 4, 8, 12]

    def test_negative_step_serial(self):
        b = ProgramBuilder("down")
        b.array("A", (8,))
        with b.procedure("main"):
            with b.serial("i", 7, 0, step=-1) as i:
                b.stmt(writes=[b.at("A", i)])
        trace = generate_columnar(b.build(), MACHINE)
        addrs = [ev.addr - trace.layout.base("A") for ev in events_of(trace)]
        assert addrs == [7, 6, 5, 4, 3, 2, 1, 0]

    def test_negative_step_doall(self):
        b = ProgramBuilder("downp")
        b.array("A", (8,))
        with b.procedure("main"):
            with b.doall("i", 7, 0, step=-2) as i:
                b.stmt(writes=[b.at("A", i)])
        trace = generate_columnar(b.build(), MACHINE)
        addrs = sorted(ev.addr - trace.layout.base("A")
                       for ev in events_of(trace))
        assert addrs == [1, 3, 5, 7]

    def test_empty_serial_loop(self):
        b = ProgramBuilder("empty", params={"N": 0})
        b.array("A", (8,))
        with b.procedure("main"):
            b.stmt(writes=[b.at("A", 0)])
            with b.serial("i", 1, b.p("N")) as i:
                b.stmt(writes=[b.at("A", i)])
        trace = generate_columnar(b.build(), MACHINE)
        assert trace.n_events == 1


class TestParams:
    def build(self):
        b = ProgramBuilder("param", params={"N": 8, "REPS": 2})
        b.array("A", (32,))
        with b.procedure("main"):
            with b.serial("t", 0, b.p("REPS") - 1):
                with b.doall("i", 0, b.p("N") - 1) as i:
                    b.stmt(writes=[b.at("A", i)])
        return b.build()

    def test_defaults(self):
        trace = generate_columnar(self.build(), MACHINE)
        assert trace.n_events == 16

    def test_override(self):
        trace = generate_columnar(self.build(), MACHINE, params={"N": 4, "REPS": 3})
        assert trace.n_events == 12

    def test_unknown_override_rejected(self):
        with pytest.raises(KeyError):
            generate_columnar(self.build(), MACHINE, params={"WAT": 1})

    def test_compile_and_simulate_with_overrides(self):
        run = prepare(self.build(), MACHINE, params={"N": 16, "REPS": 1})
        result = simulate(run, "tpi")
        assert result.writes == 16


class TestEventFields:
    def test_lock_events_carry_lock_ids(self):
        b = ProgramBuilder("locks")
        b.array("x", (1,))
        b.array("y", (1,))
        with b.procedure("main"):
            with b.doall("i", 0, 1) as i:
                with b.critical("first"):
                    b.stmt(writes=[b.at("x", 0)])
                with b.critical("second"):
                    b.stmt(writes=[b.at("y", 0)])
        trace = generate_columnar(b.build(), MACHINE)
        lock_ids = {ev.lock for ev in events_of(trace)
                    if ev.kind in (LOCK, UNLOCK)}
        assert lock_ids == {0, 1}

    def test_trace_counts(self):
        b = ProgramBuilder("counts")
        b.array("A", (8,))
        with b.procedure("main"):
            with b.doall("i", 0, 7) as i:
                b.stmt(writes=[b.at("A", i)], reads=[b.at("A", 0)])
        trace = generate_columnar(b.build(), MACHINE)
        counts = trace.counts()
        assert counts["read"] == 8 and counts["write"] == 8
        assert counts["lock"] == 0
