"""Tests for the six Perfect-Club-like workloads."""

import pytest

from repro.common.config import default_machine
from repro.common.stats import MissKind, TrafficClass
from repro.compiler import mark_program
from repro.ir.validate import validate_program
from repro.sim import prepare, simulate
from repro.workloads import build_workload, workload_names

SMALL_MACHINE = default_machine().with_(n_procs=4)


class TestRegistry:
    def test_six_workloads(self):
        assert sorted(workload_names()) == [
            "arc2d", "flo52", "ocean", "qcd2", "spec77", "trfd"]

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            build_workload("nope")

    def test_unknown_size_rejected(self):
        with pytest.raises(KeyError):
            build_workload("ocean", size="gigantic")

    def test_overrides(self):
        program = build_workload("ocean", n=8, steps=1)
        assert program.arrays["UA"].shape == (8, 8)


@pytest.mark.parametrize("name", workload_names())
class TestEveryWorkload:
    def test_validates(self, name):
        validate_program(build_workload(name, size="small"))

    def test_marks(self, name):
        marking = mark_program(build_workload(name, size="small"))
        assert marking.stats["epochs.parallel"] >= 1
        assert marking.stats["sites.time_read.tpi"] >= 1

    def test_simulates_coherently_on_all_schemes(self, name):
        """The per-scheme coherence oracles raise on any stale read."""
        run = prepare(build_workload(name, size="small"), SMALL_MACHINE)
        for scheme in ("base", "sc", "tpi", "hw"):
            result = simulate(run, scheme)
            assert result.exec_cycles > 0
            assert sum(result.miss_counts.values()) == result.reads

    def test_scheme_ordering(self, name):
        """BASE is never faster than TPI; TPI never has a worse miss rate
        than SC (the paper's consistent ordering)."""
        run = prepare(build_workload(name, size="small"), SMALL_MACHINE)
        base = simulate(run, "base")
        sc = simulate(run, "sc")
        tpi = simulate(run, "tpi")
        assert tpi.exec_cycles <= base.exec_cycles
        assert tpi.miss_rate <= sc.miss_rate


class TestWorkloadCharacteristics:
    def test_trfd_most_redundant_writes(self):
        """TRFD: the highest fraction of *redundant* writes (the paper's
        discussion: its write traffic is removable by a coalescing
        buffer), measured as the coalescing buffer's merge rate."""
        from repro.common.config import WriteBufferKind

        machine = SMALL_MACHINE.with_(write_buffer=WriteBufferKind.COALESCING)
        merge_rate = {}
        for name in workload_names():
            run = prepare(build_workload(name, size="small"), machine)
            r = simulate(run, "tpi")
            merged = r.extra.get("merged_writes", 0)
            merge_rate[name] = merged / max(1, r.extra["buffered_writes"])
        assert merge_rate["trfd"] == max(merge_rate.values())
        assert merge_rate["trfd"] > 0.3

    def test_trfd_coalescing_removes_redundant_writes(self):
        from repro.common.config import WriteBufferKind

        program = build_workload("trfd", size="small")
        fifo = simulate(prepare(program, SMALL_MACHINE), "tpi")
        coal_machine = SMALL_MACHINE.with_(
            write_buffer=WriteBufferKind.COALESCING)
        coal = simulate(prepare(program, coal_machine), "tpi")
        assert (coal.traffic[TrafficClass.WRITE]
                < 0.7 * fifo.traffic[TrafficClass.WRITE])

    def test_arc2d_false_sharing_on_hw(self):
        run = prepare(build_workload("arc2d", size="small"), SMALL_MACHINE)
        hw = simulate(run, "hw")
        assert hw.kind_count(MissKind.FALSE_SHARING) > 0
        tpi = simulate(run, "tpi")
        assert tpi.kind_count(MissKind.FALSE_SHARING) == 0

    def test_qcd2_locks(self):
        run = prepare(build_workload("qcd2", size="small"), SMALL_MACHINE)
        r = simulate(run, "tpi")
        assert r.extra.get("lock_acquires", 0) > 0

    def test_qcd2_hw_coherence_traffic_significant(self):
        """QCD2's scattered sharing drives directory transactions (the
        reason its HW miss latency is the outlier in the paper's table)."""
        run = prepare(build_workload("qcd2", size="small"), SMALL_MACHINE)
        hw = simulate(run, "hw")
        assert (hw.traffic.get(TrafficClass.COHERENCE, 0)
                > 0.3 * hw.traffic.get(TrafficClass.READ, 1))

    def test_spec77_readmostly_tpi_close_to_hw(self):
        run = prepare(build_workload("spec77", size="small"), SMALL_MACHINE)
        tpi = simulate(run, "tpi")
        hw = simulate(run, "hw")
        assert tpi.exec_cycles <= 4 * hw.exec_cycles

    def test_trfd_induction_scalar_forces_conservatism(self):
        """The triangular walk's induction scalar widens sections; the
        reads it governs must be Time-Reads."""
        program = build_workload("trfd", size="small")
        marking = mark_program(program)
        assert marking.stats["sites.time_read.tpi"] >= 2


class TestLargePresets:
    def test_large_sizes_build_and_validate(self):
        for name in workload_names():
            program = build_workload(name, size="large")
            validate_program(program)

    def test_large_exceeds_default_events(self):
        from repro.trace import generate_columnar

        machine = default_machine()
        for name in ("ocean", "qcd2"):
            small = generate_columnar(build_workload(name, size="small"), machine)
            large = generate_columnar(build_workload(name, size="large"), machine)
            assert large.n_events > 5 * small.n_events

    def test_large_ocean_simulates(self):
        run = prepare(build_workload("ocean", size="large"),
                      default_machine())
        result = simulate(run, "tpi")
        assert result.exec_cycles > 0
