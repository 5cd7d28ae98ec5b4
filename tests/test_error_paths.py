"""Error paths and API-misuse guards."""

import pytest

from repro.common.config import default_machine
from repro.common.errors import SimulationError
from repro.compiler import mark_program
from repro.compiler.report import marking_report, render_report
from repro.ir import ProgramBuilder
from repro.sim import prepare, simulate
from repro.sim.engine import Engine
from repro.trace import generate_columnar


def tiny():
    b = ProgramBuilder("tiny")
    b.array("A", (8,))
    with b.procedure("main"):
        with b.doall("i", 0, 7) as i:
            b.stmt(writes=[b.at("A", i)])
    return b.build()


class TestEngineGuards:
    def test_trace_without_layout_rejected(self):
        program = tiny()
        machine = default_machine().with_(n_procs=2)
        trace = generate_columnar(program, machine)
        trace.layout = None
        with pytest.raises(SimulationError):
            Engine(trace, mark_program(program), machine, "tpi")

    def test_unknown_scheme_rejected(self):
        from repro.common.errors import ConfigError

        run = prepare(tiny(), default_machine().with_(n_procs=2))
        with pytest.raises(ConfigError):
            simulate(run, "mesif")


class TestRunnerConveniences:
    def test_simulate_accepts_raw_program(self):
        result = simulate(tiny(), "tpi", default_machine().with_(n_procs=2))
        assert result.writes == 8

    def test_simulate_all_accepts_raw_program(self):
        from repro.sim import simulate_all

        results = simulate_all(tiny(), ("tpi", "hw"),
                               machine=default_machine().with_(n_procs=2))
        assert set(results) == {"tpi", "hw"}


class TestOracleCatchesBrokenSchemes:
    def test_oracle_detects_a_stale_protocol(self):
        """Disable TPI's W-register updates: the scheme silently serves
        stale data, and the per-read oracle must catch it."""
        program_builder = ProgramBuilder("stale")
        b = program_builder
        b.array("A", (8,))
        b.array("B", (8,))
        with b.procedure("main"):
            with b.doall("r0", 0, 7) as r0:  # proc 0..: cache A
                b.stmt(reads=[b.at("A", 7 - r0)], writes=[b.at("B", r0)])
            with b.doall("w", 0, 7) as w:  # rewrite A elsewhere
                b.stmt(writes=[b.at("A", w)])
            with b.doall("r1", 0, 7) as r1:  # re-read: must see new data
                b.stmt(reads=[b.at("A", 7 - r1)], writes=[b.at("B", r1)])
        program = b.build()
        machine = default_machine().with_(n_procs=4)
        run = prepare(program, machine)
        run.marking.epoch_writes.clear()  # sabotage the compiler epilogues
        with pytest.raises(SimulationError, match="stale read"):
            simulate(run, "tpi")

    def test_oracle_can_be_disabled(self):
        """check_coherence=False turns the oracle off (for speed studies);
        the sabotaged run then completes, wrongly but silently."""
        program = tiny()
        machine = default_machine().with_(n_procs=2, check_coherence=False)
        run = prepare(program, machine)
        run.marking.epoch_writes.clear()
        simulate(run, "tpi")  # must not raise


class TestReportRendering:
    def test_render_report(self):
        report = marking_report(tiny())
        text = render_report("tiny", report)
        assert "tiny" in text
        assert "inline" in text and "none" in text
