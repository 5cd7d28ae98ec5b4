"""Multi-word access units (double precision): layout, trace, coherence."""

import pytest

from repro.common.config import default_machine
from repro.common.stats import MissKind
from repro.ir import ProgramBuilder
from repro.sim import prepare, simulate, simulate_all
from repro.trace import MemoryLayout, generate_columnar
from tests.rawtrace import WRITE, events_of

MACHINE = default_machine().with_(n_procs=4)


def double_precision_program(n=16, steps=3):
    b = ProgramBuilder("dp", params={"T": steps})
    b.array("D", (n,), element_words=2)  # double precision
    b.array("S", (n,))  # single precision
    with b.procedure("main"):
        with b.serial("t", 0, b.p("T") - 1):
            with b.doall("i", 0, n - 1) as i:
                b.stmt(writes=[b.at("D", i)], reads=[b.at("S", i)], work=2)
            with b.doall("j", 0, n - 1) as j:
                b.stmt(writes=[b.at("S", j)], reads=[b.at("D", j)], work=1)
    return b.build()


class TestLayout:
    def test_element_scaled_addresses(self):
        program = double_precision_program()
        layout = MemoryLayout(program, n_procs=4)
        base = layout.base("D")
        assert layout.addr_of("D", (0,)) == base
        assert layout.addr_of("D", (1,)) == base + 2
        assert layout.addr_of("D", (5,)) == base + 10

    def test_size_words_doubled(self):
        program = double_precision_program(n=16)
        assert program.arrays["D"].size_words == 32
        assert program.arrays["D"].n_elements == 16


class TestTrace:
    def test_two_events_per_access(self):
        program = double_precision_program(n=8, steps=1)
        trace = generate_columnar(program, MACHINE)
        writes = [ev for ev in events_of(trace) if ev.kind == WRITE]
        d_base = trace.layout.base("D")
        d_writes = [ev for ev in writes if d_base <= ev.addr < d_base + 16]
        assert len(d_writes) == 16  # 8 elements x 2 words
        # Consecutive word pairs share the site id.
        by_site = {}
        for ev in d_writes:
            by_site.setdefault(ev.site, []).append(ev.addr)
        for addrs in by_site.values():
            addrs.sort()
            assert all(b - a == 1 for a, b in zip(addrs[::2], addrs[1::2]))


class TestCoherence:
    @pytest.mark.parametrize("scheme", ("base", "sc", "tpi", "hw", "update"))
    def test_all_schemes_coherent_with_doubles(self, scheme):
        run = prepare(double_precision_program(), MACHINE)
        result = simulate(run, scheme)
        assert result.exec_cycles > 0

    def test_tpi_both_words_tagged_by_write(self):
        """A double-precision producer-consumer: the consumer (same proc)
        hits on both words of its own elements."""
        program = double_precision_program()
        results = simulate_all(prepare(program, MACHINE))
        tpi = results["tpi"]
        # Self-owned rewrites: misses far below the 100% an untagged
        # second word would cause.
        assert tpi.miss_rate < 0.5

    def test_line_straddling_element(self):
        """Elements that straddle cache lines stay coherent.

        3-word elements on 4-word lines: element k starts at word 3k, so
        most elements span two lines (bases are line-aligned, so 2-word
        elements never would).
        """
        b = ProgramBuilder("straddle", params={"T": 2})
        b.array("D", (8,), element_words=3)
        b.array("S", (8,))
        with b.procedure("main"):
            with b.serial("t", 0, b.p("T") - 1):
                with b.doall("i", 0, 7) as i:
                    b.stmt(writes=[b.at("D", i)], reads=[b.at("S", 0)],
                           work=1)
                with b.doall("j", 0, 7) as j:
                    b.stmt(reads=[b.at("D", j)], writes=[b.at("S", j)],
                           work=1)
        program = b.build()
        layout = MemoryLayout(program, 4)
        first = layout.addr_of("D", (1,))
        assert first // 4 != (first + 2) // 4  # genuinely straddles
        run = prepare(program, MACHINE)
        for scheme in ("tpi", "hw", "sc"):
            simulate(run, scheme)  # oracle-checked
