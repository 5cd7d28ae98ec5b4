"""Micro-tests of the full-map MSI directory and LimitLess variant."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence.api import SimContext, make_scheme
from repro.common.config import CacheConfig, DirectoryConfig, MachineConfig
from repro.common.stats import MissKind
from repro.compiler.epochs import EpochGraph
from repro.compiler.marking import Marking
from repro.memsys.memory import ShadowMemory
from repro.memsys.network import KruskalSnirNetwork


def make_ctx(n_procs=4, words=512, line_words=4, lines=32, pointers=2):
    machine = MachineConfig(
        n_procs=n_procs,
        cache=CacheConfig(size_bytes=lines * line_words * 4,
                          line_words=line_words),
        directory=DirectoryConfig(limitless_pointers=pointers),
    )
    return SimContext(machine=machine,
                      marking=Marking(tpi={}, sc={}, graph=EpochGraph()),
                      shadow=ShadowMemory(words),
                      network=KruskalSnirNetwork(machine))


def new_hw(name="hw", **kw):
    ctx = make_ctx(**kw)
    return make_scheme(name, ctx), ctx


class TestMsiBasics:
    def test_cold_read_then_hit(self):
        hw, _ = new_hw()
        r = hw.read(0, 8, 0, True, False)
        assert r.kind is MissKind.COLD
        assert hw.read(0, 8, 0, True, False).kind is MissKind.HIT
        hw.check_invariants()

    def test_two_readers_share(self):
        hw, _ = new_hw()
        hw.read(0, 8, 0, True, False)
        hw.read(1, 8, 0, True, False)
        entry = hw._entry(2)  # line 8//4
        assert entry.state == "S" and entry.sharers == {0, 1}
        hw.check_invariants()

    def test_write_invalidates_readers(self):
        hw, _ = new_hw()
        hw.read(0, 8, 0, True, False)
        hw.read(1, 8, 0, True, False)
        r = hw.write(1, 8, 0, True, False)
        assert r.coherence_words > 0
        entry = hw._entry(2)
        assert entry.state == "E" and entry.owner == 1
        miss = hw.read(0, 8, 0, True, False)
        assert miss.kind is MissKind.TRUE_SHARING
        hw.check_invariants()

    def test_false_sharing_classification(self):
        """Proc 0 uses word 8 only; proc 1 writes word 9 (same line):
        Tullsen-Eggers calls proc 0's next miss on the line false sharing."""
        hw, _ = new_hw()
        hw.read(0, 8, 0, True, False)
        hw.write(1, 9, 0, True, False)
        miss = hw.read(0, 8, 0, True, False)
        assert miss.kind is MissKind.FALSE_SHARING
        hw.check_invariants()

    def test_dirty_remote_read_four_hop(self):
        hw, _ = new_hw()
        hw.write(0, 8, 0, True, False)  # proc 0 owns dirty
        clean_miss = hw.read(1, 40, 0, True, False)
        dirty_miss = hw.read(1, 8, 0, True, False)
        assert dirty_miss.latency > clean_miss.latency
        assert dirty_miss.coherence_words >= 2
        entry = hw._entry(2)
        assert entry.state == "S" and entry.sharers == {0, 1}
        hw.check_invariants()

    def test_write_hit_in_exclusive_is_silent(self):
        hw, _ = new_hw()
        hw.write(0, 8, 0, True, False)
        r = hw.write(0, 8, 0, True, False)
        assert r.total_words == 0 and r.latency == 1
        hw.check_invariants()

    def test_write_miss_steals_exclusive(self):
        hw, _ = new_hw()
        hw.write(0, 8, 0, True, False)
        r = hw.write(1, 8, 0, True, False)
        assert r.coherence_words >= 2
        entry = hw._entry(2)
        assert entry.owner == 1
        assert hw.read(0, 8, 0, True, False).kind is MissKind.TRUE_SHARING
        hw.check_invariants()

    def test_eviction_updates_directory(self):
        hw, ctx = new_hw(lines=4, words=4096)  # tiny cache: 4 sets
        hw.read(0, 0, 0, True, False)
        # Same set, different line: evicts line 0.
        hw.read(0, 4 * 4, 0, True, False)
        entry = hw._entry(0)
        assert 0 not in entry.sharers
        hw.check_invariants()

    def test_dirty_eviction_writes_back(self):
        hw, _ = new_hw(lines=4, words=4096)
        hw.write(0, 0, 0, True, False)
        r = hw.read(0, 16, 0, True, False)  # conflicting line
        assert r.write_words >= 5  # write-back of the dirty line
        hw.check_invariants()

    def test_private_data_skips_directory(self):
        hw, _ = new_hw()
        hw.write(0, 8, 0, shared=False, in_critical=False)
        assert hw.dirstore.row_p1[2] == 0  # no entry
        hw.check_invariants()

    def test_replacement_miss_classified(self):
        hw, _ = new_hw(lines=4, words=4096)
        hw.read(0, 0, 0, True, False)
        hw.read(0, 16, 0, True, False)  # evicts line 0
        r = hw.read(0, 0, 0, True, False)
        assert r.kind is MissKind.REPLACEMENT


class TestLimitLess:
    def test_overflow_traps_beyond_pointers(self):
        ll, ctx = new_hw("limitless", n_procs=4, pointers=2)
        for proc in range(4):
            ll.read(proc, 8, 0, True, False)
        r = ll.write(0, 8, 0, True, False)  # 3 invalidations > 2 pointers
        assert ll.software_traps == 1
        assert r.latency > 1

    def test_no_trap_within_pointers(self):
        ll, _ = new_hw("limitless", n_procs=4, pointers=8)
        for proc in range(3):
            ll.read(proc, 8, 0, True, False)
        ll.write(0, 8, 0, True, False)
        assert ll.software_traps == 0


class TestDirectoryProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3),  # proc
                              st.integers(0, 63),  # word addr
                              st.booleans()),  # is_write
                    min_size=1, max_size=120))
    def test_invariants_hold_under_random_streams(self, ops):
        hw, _ = new_hw(n_procs=4, words=64, lines=4)
        for proc, addr, is_write in ops:
            if is_write:
                hw.write(proc, addr, 0, True, False)
            else:
                hw.read(proc, addr, 0, True, False)
        hw.check_invariants()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 63),
                              st.booleans()),
                    min_size=1, max_size=100))
    def test_reads_always_observe_current_version(self, ops):
        """MSI guarantee: every read returns the latest written version.
        The scheme's internal exact-version oracle raises on violation."""
        hw, ctx = new_hw(n_procs=4, words=64, lines=4)
        assert ctx.machine.check_coherence
        for proc, addr, is_write in ops:
            if is_write:
                hw.write(proc, addr, 0, True, False)
            else:
                hw.read(proc, addr, 0, True, False)
