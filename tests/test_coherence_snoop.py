"""Micro-tests for the bus-snooping MSI scheme (extension).

The centerpiece is an exhaustive check of the three-state transition
table: every reachable (own state, other-copy state) configuration is
built on a fresh scheme, each processor operation is applied, and the
resulting states and bus actions are compared against a hand-written
next-state function of the canonical MSI machine (SNIPPETS.md §2).
"""

import pytest

from repro.coherence.api import SimContext, make_scheme
from repro.common.config import CacheConfig, MachineConfig
from repro.common.stats import MissKind
from repro.compiler.epochs import EpochGraph
from repro.compiler.marking import Marking
from repro.ir import ProgramBuilder
from repro.memsys.memory import ShadowMemory
from repro.memsys.network import KruskalSnirNetwork
from repro.trace.layout import MemoryLayout


def make_ctx(n_procs=3, words=256, line_words=4, lines=32):
    machine = MachineConfig(
        n_procs=n_procs,
        cache=CacheConfig(size_bytes=lines * line_words * 4,
                          line_words=line_words))
    b = ProgramBuilder("rig")
    b.array("M", (words,))
    with b.procedure("main"):
        pass
    layout = MemoryLayout(b.build(), n_procs, line_words)
    return SimContext(machine=machine,
                      marking=Marking(tpi={}, sc={}, graph=EpochGraph()),
                      shadow=ShadowMemory(layout.total_words),
                      network=KruskalSnirNetwork(machine), layout=layout)


def new_snoop(**kw):
    ctx = make_ctx(**kw)
    return make_scheme("snoop", ctx), ctx


ADDR = 8  # one shared word; its line stands in for any line


def state_of(scheme, proc, addr=ADDR):
    line_addr = scheme.caches[proc].split(addr)[0]
    loc = scheme.caches[proc].probe(line_addr)
    if loc is None:
        return "I"
    return "M" if scheme.caches[proc].dirty[loc] else "S"


def build_config(scheme, own, other):
    """Drive proc 0 into ``own`` and proc 1 into ``other`` for ADDR's line."""
    if other == "S":
        scheme.read(1, ADDR, 0, True, False)
    elif other == "M":
        scheme.write(1, ADDR, 0, True, False)
    if own == "S":
        scheme.read(0, ADDR, 0, True, False)
    elif own == "M":
        scheme.write(0, ADDR, 0, True, False)
    assert state_of(scheme, 0) == own and state_of(scheme, 1) == other


def msi_next(own, other, op):
    """Hand-written canonical MSI next-state function.

    Returns ``(own', other', bus, cache_to_cache)`` for proc 0 doing
    ``op`` with proc 1 holding ``other``.  ``bus`` is the transaction
    proc 0 puts on the bus (None for silent hits).
    """
    if op == "rd":
        if own != "I":
            return own, other, None, False
        if other == "M":
            return "S", "S", "BusRd", True  # owner flushes and demotes
        return "S", other, "BusRd", False
    if own == "M":
        return "M", other, None, False     # silent write hit
    if own == "S":
        return "M", "I", "BusUpgr", False  # no data moves
    if other == "M":
        return "M", "I", "BusRdX", True    # owner flushes, invalidated
    return "M", "I", "BusRdX", False


# (own, other) configurations reachable under the MSI invariant: an M
# copy is the *only* copy, so (M, S), (M, M), (S, M) cannot be built.
CONFIGS = [("I", "I"), ("I", "S"), ("I", "M"),
           ("S", "I"), ("S", "S"), ("M", "I")]


class TestTransitionTable:
    """Every reachable configuration x every operation vs the model."""

    @pytest.mark.parametrize("own,other", CONFIGS)
    @pytest.mark.parametrize("op", ["rd", "wr"])
    def test_transition_matches_model(self, own, other, op):
        snoop, _ = new_snoop()
        build_config(snoop, own, other)
        c2c_before = snoop.cache_to_cache_transfers
        inval_before = snoop.invalidations_sent

        if op == "rd":
            result = snoop.read(0, ADDR, 0, True, False)
        else:
            result = snoop.write(0, ADDR, 0, True, False)

        exp_own, exp_other, bus, c2c = msi_next(own, other, op)
        assert state_of(snoop, 0) == exp_own
        assert state_of(snoop, 1) == exp_other
        assert (snoop.cache_to_cache_transfers - c2c_before) == int(c2c)
        # Bus side effects: silent hits move no words; every transaction
        # does.  An invalidating transaction reaches each demoted holder.
        if bus is None:
            assert result.total_words == 0
            assert result.kind is MissKind.HIT
        else:
            assert result.total_words > 0
        expected_invals = int(other != "I" and exp_other == "I")
        assert (snoop.invalidations_sent - inval_before) == expected_invals
        snoop.check_invariants()

    def test_m_state_never_coexists(self):
        snoop, _ = new_snoop(n_procs=4)
        for proc in range(4):
            snoop.read(proc, ADDR, 0, True, False)
        snoop.write(2, ADDR, 0, True, False)
        assert state_of(snoop, 2) == "M"
        for proc in (0, 1, 3):
            assert state_of(snoop, proc) == "I"
        snoop.check_invariants()


class TestClassification:
    def test_invalidation_of_used_word_is_true_sharing(self):
        snoop, _ = new_snoop()
        snoop.read(1, ADDR, 0, True, False)       # proc 1 uses word 0
        snoop.write(0, ADDR, 0, True, False)      # same word invalidated
        assert snoop.read(1, ADDR, 0, True, False).kind \
            is MissKind.TRUE_SHARING

    def test_invalidation_of_unused_word_is_false_sharing(self):
        snoop, _ = new_snoop()
        snoop.read(1, ADDR, 0, True, False)       # proc 1 uses word 0
        snoop.write(0, ADDR + 1, 0, True, False)  # different word
        assert snoop.false_invalidations == 1
        assert snoop.read(1, ADDR, 0, True, False).kind \
            is MissKind.FALSE_SHARING

    def test_replacement_and_cold_without_directory_state(self):
        snoop, _ = new_snoop(lines=4, words=4096)
        assert snoop.read(0, 0, 0, True, False).kind is MissKind.COLD
        snoop.read(0, 16, 0, True, False)         # evicts line 0 (4 sets)
        assert snoop.read(0, 0, 0, True, False).kind is MissKind.REPLACEMENT


class TestWriteBack:
    def test_dirty_eviction_writes_line_back_silently(self):
        snoop, _ = new_snoop(lines=4, words=4096)
        snoop.write(0, 0, 0, True, False)         # M in set 0
        r = snoop.read(0, 16, 0, True, False)     # conflicting fill
        assert r.write_words == 1 + snoop.line_words
        # No directory: the eviction sends no hint, so a later write by
        # another processor finds no holders to invalidate.
        before = snoop.invalidations_sent
        snoop.write(1, 0, 0, True, False)
        assert snoop.invalidations_sent == before

    def test_busrd_demotes_owner_and_transfers_cache_to_cache(self):
        snoop, _ = new_snoop()
        snoop.write(1, ADDR, 0, True, False)
        r = snoop.read(0, ADDR, 0, True, False)
        assert snoop.cache_to_cache_transfers == 1
        assert r.coherence_words >= 2 + snoop.line_words
        assert state_of(snoop, 1) == "S"          # demoted, not invalidated
        assert r.version == 1                      # the dirty data arrived


class TestSnoopEndToEnd:
    def test_workload_matches_directory_sharing_misses(self):
        # Broadcast snooping and the full-map directory classify sharing
        # with the same used-word criterion; on a small machine the
        # sharing-miss structure comes out close (snoop has no
        # replacement hints, so only replacement-adjacent counts drift).
        from repro.common.config import default_machine
        from repro.sim import prepare, simulate
        from repro.workloads import build_workload

        machine = default_machine().with_(n_procs=4)
        run = prepare(build_workload("ocean", size="small"), machine)
        sn = simulate(run, "snoop")
        hw = simulate(run, "hw")
        assert sn.kind_count(MissKind.TRUE_SHARING) > 0
        assert sn.kind_count(MissKind.FALSE_SHARING) > 0
        assert sn.extra["cache_to_cache_transfers"] > 0
        # Same total work observed by both protocols.
        assert sn.reads == hw.reads and sn.writes == hw.writes
