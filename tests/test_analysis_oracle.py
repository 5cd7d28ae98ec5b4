"""Unit tests for the staleness oracle and the dynamic sanitizer."""

import pytest

from repro.analysis.lint import diff_marking, lint_program
from repro.analysis.oracle import analyze_staleness, site_table
from repro.analysis.sanitizer import replay_stale_reads, unmarked_stale_sites
from repro.common.config import default_machine
from repro.compiler.marking import (
    InterprocMode,
    Marking,
    MarkingOptions,
    RefMark,
    mark_program,
)
from repro.ir import ProgramBuilder
from repro.trace.generate import generate_columnar
from repro.workloads import workload_names


def producer_consumer(n=8):
    """DOALL caches A, the master rewrites it, the DOALL re-reads it."""
    b = ProgramBuilder("prodcons")
    b.array("A", (n,))
    b.array("OUT", (n,))
    with b.procedure("main"):
        with b.doall("i", 0, n - 1, label="warm") as i:
            b.stmt(reads=[b.at("A", i)], writes=[b.at("OUT", i)])
        with b.serial("j", 0, n - 1, label="update") as j:
            b.stmt(writes=[b.at("A", j)])
        with b.doall("k", 0, n - 1, label="reuse") as k:
            b.stmt(reads=[b.at("A", k)], writes=[b.at("OUT", k)])
    return b.build()


def read_sites(program, proc, array):
    """Site ids of the reads of ``array`` in ``proc``, in source order."""
    return sorted(info.site for info in site_table(program).values()
                  if info.procedure == proc and info.is_read
                  and info.text.startswith(array + "["))


def read_site(program, proc, array):
    """The site id of the (sole) read of ``array`` in ``proc``."""
    sites = read_sites(program, proc, array)
    assert len(sites) == 1, sites
    return sites[0]


class TestOracleVerdicts:
    def test_cross_epoch_staleness_is_definite(self):
        program = producer_consumer()
        oracle = analyze_staleness(program)
        reuse = max(s for s, v in oracle.verdicts.items()
                    if v.array == "A" and v.tpi_may)
        verdict = oracle.verdicts[reuse]
        assert verdict.tpi_def and verdict.sc_def
        assert not verdict.strict_may  # writer is in a previous epoch
        assert verdict.where == "reuse"
        assert oracle.fully_enumerated

    def test_first_read_is_fresh(self):
        program = producer_consumer()
        oracle = analyze_staleness(program)
        warm = min(s for s, v in oracle.verdicts.items() if v.array == "A")
        verdict = oracle.verdicts[warm]
        assert not verdict.tpi_may and not verdict.sc_may

    def test_private_arrays_get_no_verdict(self):
        b = ProgramBuilder("priv")
        b.array("P", (8,), private=True)
        with b.procedure("main"):
            with b.doall("i", 0, 7) as i:
                b.stmt(writes=[b.at("P", i)])
                b.stmt(reads=[b.at("P", i)])
        oracle = analyze_staleness(b.build())
        assert oracle.verdicts == {}

    def test_same_epoch_neighbour_conflict_is_strict(self):
        b = ProgramBuilder("stencil")
        b.array("A", (8,))
        b.array("B", (8,))
        with b.procedure("main"):
            with b.doall("w", 0, 7, label="seed") as w:
                b.stmt(writes=[b.at("A", w)])
            with b.doall("i", 0, 6, label="shift") as i:
                b.stmt(reads=[b.at("A", i + 1)], writes=[b.at("A", i)])
        program = b.build()
        oracle = analyze_staleness(program)
        verdict = oracle.verdicts[read_site(program, "main", "A")]
        assert verdict.strict_def and verdict.tpi_def
        # The production pass agrees: the site is a strict Time-Read.
        marking = mark_program(program)
        assert marking.is_strict(
            read_site(program, "main", "A"))

    def test_same_task_rewrite_validates_tpi_and_sc(self):
        b = ProgramBuilder("revalid")
        b.array("A", (8,))
        with b.procedure("main"):
            with b.doall("w", 0, 7, label="seed") as w:
                b.stmt(writes=[b.at("A", w)])
            with b.doall("i", 0, 7, label="own") as i:
                b.stmt(writes=[b.at("A", i)])
                b.stmt(reads=[b.at("A", i)])
        oracle = analyze_staleness(b.build())
        reads = [v for v in oracle.verdicts.values() if v.visits]
        assert reads and all(not v.tpi_may and not v.sc_may for v in reads)

    def test_time_read_validates_later_read_for_tpi_only(self):
        n = 6
        b = ProgramBuilder("trvalid")
        b.array("A", (n, n))
        b.array("OUT", (n, n))
        with b.procedure("main"):
            with b.doall("w", 0, n - 1, label="seed") as w:
                with b.serial("c", 0, n - 1) as c:
                    b.stmt(writes=[b.at("A", w, c)])
            with b.doall("i", 0, n - 1, label="use") as i:
                with b.serial("j", 0, n - 1) as j:
                    b.stmt(reads=[b.at("A", i, j)],
                           writes=[b.at("OUT", i, j)])
                with b.serial("j2", 0, n - 1) as j2:
                    b.stmt(reads=[b.at("A", i, j2)],
                           writes=[b.at("OUT", i, j2)])
        program = b.build()
        oracle = analyze_staleness(program)
        first, second = sorted(s for s, v in oracle.verdicts.items()
                               if v.array == "A")
        assert oracle.verdicts[first].tpi_def
        # The second loop re-reads words the first loop's Time-Reads
        # validated: fresh under TPI, still stale under SC (bypass).
        assert not oracle.verdicts[second].tpi_may
        assert oracle.verdicts[second].sc_def

    def test_critical_read_is_forced_strict(self):
        b = ProgramBuilder("lock")
        b.array("S", (1,))
        with b.procedure("main"):
            with b.doall("i", 0, 3, label="acc"):
                with b.critical("L"):
                    b.stmt(reads=[b.at("S", 0)], writes=[b.at("S", 0)])
        program = b.build()
        oracle = analyze_staleness(program)
        verdict = oracle.verdicts[read_site(program, "main", "S")]
        assert verdict.tpi_def and verdict.strict_def and verdict.sc_def

    def test_none_mode_any_write_means_stale(self):
        program = producer_consumer()
        oracle = analyze_staleness(
            program, opts=MarkingOptions(interproc=InterprocMode.NONE))
        # Even the first read is suspect: region analysis has no ordering.
        for verdict in oracle.verdicts.values():
            if verdict.array == "A":
                assert verdict.tpi_def and verdict.strict_def


class TestDiffMarking:
    def test_clean_program_has_no_findings(self):
        program = producer_consumer()
        marking = mark_program(program)
        oracle = analyze_staleness(program)
        assert diff_marking(marking, oracle, "tpi", "inline") == []
        assert diff_marking(marking, oracle, "sc", "inline") == []

    def test_dropped_mark_is_an_error(self):
        program = producer_consumer()
        marking = mark_program(program)
        oracle = analyze_staleness(program)
        stale = [s for s, v in oracle.verdicts.items() if v.tpi_def]
        tpi = dict(marking.tpi)
        tpi[stale[0]] = RefMark.READ
        broken = Marking(tpi=tpi, sc=marking.sc, graph=marking.graph,
                         strict_sites=marking.strict_sites,
                         epoch_writes=marking.epoch_writes,
                         stats=marking.stats)
        diags = diff_marking(broken, oracle, "tpi", "inline")
        assert [d.rule_id for d in diags] == ["TPI001"]
        assert diags[0].site == stale[0]

    def test_spurious_mark_is_a_warning(self):
        program = producer_consumer()
        marking = mark_program(program)
        oracle = analyze_staleness(program)
        fresh = [s for s, v in oracle.verdicts.items()
                 if v.visits and not v.tpi_may]
        tpi = dict(marking.tpi)
        tpi[fresh[0]] = RefMark.TIME_READ
        broken = Marking(tpi=tpi, sc=marking.sc, graph=marking.graph,
                         strict_sites=marking.strict_sites,
                         epoch_writes=marking.epoch_writes,
                         stats=marking.stats)
        diags = diff_marking(broken, oracle, "tpi", "inline")
        assert [d.rule_id for d in diags] == ["TPI002"]

    def test_unknown_scheme_rejected(self):
        program = producer_consumer()
        marking = mark_program(program)
        oracle = analyze_staleness(program)
        with pytest.raises(ValueError, match="unknown scheme"):
            diff_marking(marking, oracle, "hw", "inline")


class TestSanitizer:
    def _trace_and_marking(self):
        program = producer_consumer()
        marking = mark_program(program)
        trace = generate_columnar(program, default_machine(), None)
        return program, marking, trace

    def test_clean_marking_has_no_unmarked_violations(self):
        _, marking, trace = self._trace_and_marking()
        for scheme in ("tpi", "sc"):
            findings = replay_stale_reads(trace, marking, scheme)
            assert unmarked_stale_sites(findings) == {}

    def test_stale_reads_are_observed_and_marked(self):
        program, marking, trace = self._trace_and_marking()
        findings = replay_stale_reads(trace, marking, "tpi")
        reuse = read_sites(program, "main", "A")[-1]
        # ``reuse`` reads A after the master rewrote it: some processor must
        # observe staleness, and the marking covers it.
        observed = [f for f in findings if f.site != reuse]
        assert any(f.site == reuse for f in findings)
        assert all(f.marked for f in findings)
        assert observed == []  # no other site reads stale words

    def test_dropped_mark_is_detected_dynamically(self):
        program, marking, trace = self._trace_and_marking()
        reuse = read_sites(program, "main", "A")[-1]
        tpi = dict(marking.tpi)
        tpi[reuse] = RefMark.READ
        broken = Marking(tpi=tpi, sc=marking.sc, graph=marking.graph,
                         strict_sites=marking.strict_sites,
                         epoch_writes=marking.epoch_writes,
                         stats=marking.stats)
        findings = replay_stale_reads(trace, broken, "tpi")
        violations = unmarked_stale_sites(findings)
        assert set(violations) == {reuse}
        assert violations[reuse].marked is False

    def test_unknown_scheme_rejected(self):
        _, marking, trace = self._trace_and_marking()
        with pytest.raises(ValueError, match="tpi/sc/tardis/snoop"):
            replay_stale_reads(trace, marking, "hw")


class TestHardwareSchemeSanitizer:
    """The hardware freshness models: tardis and snoop need no marking."""

    def _trace_and_marking(self):
        program = producer_consumer()
        marking = mark_program(program)
        trace = generate_columnar(program, default_machine(), None)
        return program, marking, trace

    def test_tardis_observes_the_same_staleness_tpi_does(self):
        # Under a sound marking, TPI's Time-Reads and Tardis's expired
        # leases terminate exactly the same stale reference sequences —
        # Tardis just covers them in hardware.
        _, marking, trace = self._trace_and_marking()
        tpi = replay_stale_reads(trace, marking, "tpi")
        tardis = replay_stale_reads(trace, marking, "tardis")
        assert tpi and set(tardis) == set(tpi)
        assert all(f.marked for f in tardis)
        assert unmarked_stale_sites(tardis) == {}

    def test_tardis_coverage_survives_a_broken_marking(self):
        # Drop every mark: TPI now has violations, Tardis still covers
        # every stale read — the hardware does not consult the marking.
        program, marking, trace = self._trace_and_marking()
        stripped = Marking(tpi={}, sc={}, graph=marking.graph,
                           epoch_writes=marking.epoch_writes)
        assert unmarked_stale_sites(
            replay_stale_reads(trace, stripped, "tpi")) != {}
        tardis = replay_stale_reads(trace, stripped, "tardis")
        assert tardis and unmarked_stale_sites(tardis) == {}

    def test_snoop_invalidations_leave_no_stale_copies(self):
        # The committing write destroys remote copies, so the stale
        # reference sequence never reaches a read.
        _, marking, trace = self._trace_and_marking()
        assert replay_stale_reads(trace, marking, "snoop") == []

    def test_lint_program_hardware_schemes(self):
        report = lint_program(producer_consumer(), modes=["inline"],
                              schemes=["tardis", "snoop"])
        assert report.exit_code() == 0
        assert report.diagnostics == []
        assert report.meta["stale.tardis"] > 0
        assert report.meta["stale.snoop"] == 0

    @pytest.mark.parametrize("name", workload_names())
    def test_hardware_models_cover_every_workload(self, name):
        from repro.workloads import build_workload

        program = build_workload(name, size="small")
        marking = mark_program(program)
        trace = generate_columnar(program, default_machine(), None)
        tardis = replay_stale_reads(trace, marking, "tardis")
        assert all(f.marked for f in tardis)
        assert unmarked_stale_sites(tardis) == {}
        assert replay_stale_reads(trace, marking, "snoop") == []


class TestLintProgram:
    def test_structural_errors_abort_marking_diff(self):
        b = ProgramBuilder("badprog")
        b.array("A", (4, 4))
        with b.procedure("main"):
            b.stmt(reads=[b.at("A", 0)])
        program = b.build(validate=False)
        report = lint_program(program, sanitize=False)
        assert report.has_errors
        assert report.meta.get("aborted") == "structural errors"
        assert all(d.rule_id.startswith("VAL") for d in report.diagnostics)

    def test_clean_program_clean_report(self):
        report = lint_program(producer_consumer(), sanitize=True)
        assert report.exit_code() == 0
        assert report.diagnostics == []
        assert report.meta["modes"] == "inline,summary,none"
        assert report.meta["schemes"] == "tpi,sc"
        assert report.meta["sites"] > 0

    def test_mode_and_scheme_selection(self):
        report = lint_program(producer_consumer(), sanitize=False,
                              modes=["inline"], schemes=["tpi"])
        assert report.meta["modes"] == "inline"
        assert report.meta["schemes"] == "tpi"
        with pytest.raises(ValueError, match="unknown interprocedural mode"):
            lint_program(producer_consumer(), modes=["bogus"])
