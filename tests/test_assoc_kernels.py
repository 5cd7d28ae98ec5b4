"""Set-associative batch kernels: cache state indexed by slot.

A slot is ``set * K + way``.  The kernels' slot scan gives each event the
way its line occupies when the event executes, so the run machinery of
:class:`repro.coherence.batch._SetChains` proves K-way caches with the
direct-mapped closed forms.  Four layers:

* a hypothesis property replays random windows — window-start tags
  with invalid ways anywhere, LRU stamps, an allocation mask, several
  processors, each on its row of one cache bank — through the real
  ``Cache.probe``/``victim``/``install``/``touch`` and compares each event's way, each miss's
  victim line and dirty bit, each slot's final line, and each set's
  final LRU order against the slot scan and its stamps;
* a crafted trace in which an exclusive line leaves its way and comes
  back as the first run of another slot, where window-start directory
  state no longer holds;
* a path test: on the golden 4-way machine every run-based scheme
  builds a kernel, and hw batches epochs; a configuration with no
  kernel (tardis, update on a K-way cache) falls back on every epoch
  with the reference engine's results;
* a parity test: fast against reference on tiny 2-, 4- and 8-way
  caches.
"""

import copy
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import CacheConfig, WORD_BYTES, default_machine
from repro.compiler.marking import mark_program
from repro.coherence.batch import _BatchKernel, _Cols
from repro.ir import ProgramBuilder
from repro.memsys.cache import CacheBank
from repro.sim import make_engine, simulate
from repro.sim.fastengine import FastEngine
from repro.trace.layout import MemoryLayout
from tests.rawtrace import READ, WRITE, raw_trace
from tests.test_engine_parity import snapshot
from tests.test_golden import MACHINES, _prepared


@st.composite
def windows(draw):
    """A bank of caches in a random state plus a window over them."""
    K = draw(st.sampled_from([2, 4]))
    n_sets = draw(st.sampled_from([1, 2, 4]))
    n_procs = draw(st.integers(1, 3))
    n_lines = n_sets * draw(st.integers(K, 3 * K))
    machine = default_machine().with_(n_procs=n_procs, cache=CacheConfig(
        size_bytes=n_sets * K * WORD_BYTES, line_words=1, associativity=K))
    bank = CacheBank(machine.cache, n_procs)
    caches = {}
    for p in range(n_procs):
        cache = bank.caches[p]
        for s in range(n_sets):
            lines = draw(st.lists(
                st.integers(0, n_lines // n_sets - 1).map(
                    lambda k, s=s: s + k * n_sets),
                min_size=K, max_size=K))
            for w, line in enumerate(lines):
                if line in lines[:w] or draw(st.integers(0, 3)) == 0:
                    continue  # an invalid way, anywhere in the set
                cache.tags[s, w] = line
                cache.dirty[s, w] = draw(st.booleans())
        # LRU stamps from a random history of uses.
        for slot in draw(st.lists(st.integers(0, n_sets * K - 1),
                                  max_size=3 * n_sets * K)):
            cache.touch(divmod(slot, K))
        caches[p] = cache
    parts = draw(st.lists(
        st.tuples(st.integers(0, n_procs - 1),
                  st.lists(st.tuples(st.integers(0, n_lines - 1),
                                     st.booleans(), st.booleans()),
                           min_size=1, max_size=24)),
        min_size=1, max_size=3))
    return machine, bank, caches, parts


def replay(caches, parts):
    """The reference: the per-event cache operations, in merged order."""
    rows = []
    for proc, events in parts:
        cache = caches[proc]
        for line, alloc, write in events:
            loc = cache.probe(line)
            victim = None
            if alloc:
                if loc is None:
                    loc, evicted, dirty = cache.install(line)
                    victim = (-1 if evicted is None else evicted, dirty)
                cache.touch(loc)
                if write:
                    cache.dirty[loc] = True
            rows.append((None if loc is None else loc[1], victim))
    return rows


def lru_order(cache):
    """Per set, the ways from least to most recently used."""
    return [np.argsort(cache.lru_stamps(s), kind="stable").tolist()
            for s in range(cache.n_sets)]


@settings(max_examples=300, deadline=None)
@given(windows())
def test_slot_scan_matches_a_cache_replay(window):
    machine, bank, caches, parts = window
    K = machine.cache.associativity
    n_sets = machine.cache.n_sets
    expected = copy.deepcopy(caches)
    rows = replay(expected, parts)

    # A processor may own several parts: keying the window by processor
    # (a processor's "task" rank is the processor) makes them one chain.
    events = [(proc, *e) for proc, part in parts for e in part]
    line = np.array([e[1] for e in events], dtype=np.int64)
    alloc = np.array([e[2] for e in events], dtype=bool)
    rank = np.array([e[0] for e in events], dtype=np.int64)
    batch = SimpleNamespace(
        line=line, set_=line % n_sets, addr=line, site=np.zeros_like(line),
        work=np.zeros_like(line),
        is_write=alloc & np.array([e[3] for e in events], dtype=bool),
        shared=~alloc, rank=rank, geometry=(1, n_sets),
        procs=np.arange(machine.n_procs))
    cols = _Cols(batch, None, bank.row_of, n_sets * K * 64)
    kernel = _BatchKernel(SimpleNamespace(machine=machine, network=None,
                                          shadow=None, caches=caches,
                                          bank=bank))
    ch = kernel._slot_chains(cols, alloc)
    way = ch.slot - cols.s * K
    tags0 = kernel.tags[cols.rowv, ch.slot]
    dirty0 = kernel.dirty[cols.rowv, ch.slot]
    resident = ch.resident(cols.line, tags0)
    victim, vdirty = ch.victims(cols.line, cols.wr, tags0, dirty0)
    for i, (exp_way, exp_victim) in enumerate(rows):
        assert bool(resident[i]) == (exp_way is not None
                                     and exp_victim is None), i
        if exp_way is not None:
            assert way[i] == exp_way, i
        if exp_victim is not None:
            assert (int(victim[i]), bool(vdirty[i])) == exp_victim, i

    final = {}  # each slot's line as its last run leaves it
    for i in np.flatnonzero(ch.last & alloc):
        final[(int(cols.procv[i]), int(ch.slot[i]))] = int(cols.line[i])
    for (proc, slot), line in final.items():
        assert expected[proc].tags[divmod(slot, K)] == line

    kernel._stamp(cols, {"slot": ch.slot, "alloc": alloc})
    for proc in caches:
        assert lru_order(caches[proc]) == lru_order(expected[proc]), proc


def crafted_hw(engine):
    """One processor, two epochs, a 2-way cache of one-word lines.  The
    first epoch leaves line L exclusive (E/self) and older than M in
    their set; in the second, X evicts L, L comes back into M's way —
    the first run of a slot that did not hold it — and a shared write
    to L must upgrade, since the eviction ended its exclusivity."""
    b = ProgramBuilder("crafted")
    b.array("A", (64,))
    with b.procedure("main"):
        b.stmt(writes=[b.at("A", 0)], work=1)
    program = b.build()
    cache = CacheConfig(size_bytes=4 * 2 * WORD_BYTES, line_words=1,
                        associativity=2)
    m = default_machine().with_(n_procs=2, cache=cache, engine=engine,
                                record_epochs=True)
    layout = MemoryLayout(program, m.n_procs, cache.line_words)
    a = layout.base("A")  # set of a + k is (a + k) % 4
    pad = [(False, a + 1 + k % 3) for k in range(40)]

    def epoch(accesses):
        return [(0, [(WRITE if w else READ, addr, 0, 1)
                     for w, addr in accesses])]

    trace = raw_trace(layout, m.n_procs, [
        epoch([(True, a), (False, a + 4)] + pad),
        epoch(pad[:20] + [(False, a + 8), (False, a), (True, a)]
              + pad[20:])], "crafted")
    return make_engine(trace, mark_program(program), m, "hw").run()


def test_evicted_exclusive_line_upgrades_in_another_slot():
    fast, ref = (crafted_hw(e) for e in ("fast", "reference"))
    assert snapshot(fast) == snapshot(ref)


RUN_BASED = ("base", "sc", "tpi", "hw", "limitless", "snoop")


@pytest.mark.parametrize("scheme", RUN_BASED)
def test_kway_schemes_build_a_kernel(scheme):
    run = _prepared("ocean")
    machine = MACHINES["4way64k"].with_(engine="fast")
    engine = FastEngine(run.trace, run.marking, machine, scheme)
    assert engine._kernel is not None
    if scheme == "hw":
        engine.run()
        assert engine.batched_epochs > 0


@pytest.mark.parametrize("scheme", ("update",))
def test_loop_in_apply_kernels_stay_direct_mapped(scheme):
    run = _prepared("ocean")
    machine = MACHINES["4way64k"].with_(engine="fast")
    engine = FastEngine(run.trace, run.marking, machine, scheme)
    assert engine._kernel is None


@pytest.mark.parametrize("workload", ("ocean", "qcd2"))
@pytest.mark.parametrize("scheme, ways", [
    ("tardis", 1), ("tardis", 4), ("update", 2), ("update", 4)])
def test_configs_with_no_kernel_fall_back(scheme, ways, workload):
    """A configuration with no batch kernel keeps the fast engine, falls
    back on every epoch and matches the reference engine."""
    run = _prepared(workload)
    machine = MACHINES["dm64k"].with_(cache=CacheConfig(associativity=ways))
    engine = FastEngine(run.trace, run.marking,
                        machine.with_(engine="fast"), scheme)
    assert engine._kernel is None
    fast = engine.run()
    assert fast.engine == "fast"
    assert engine.batched_epochs == 0
    assert engine.fallback_epochs == len(run.trace.epochs)
    ref = simulate(run, scheme, machine.with_(engine="reference"))
    assert snapshot(fast) == snapshot(ref)


@pytest.mark.parametrize("ways", (2, 4, 8))
@pytest.mark.parametrize("workload", ("ocean", "qcd2"))
@pytest.mark.parametrize("scheme", RUN_BASED)
def test_tiny_kway_parity(scheme, workload, ways):
    run = _prepared(workload)
    machine = MACHINES["4way64k"].with_(cache=CacheConfig(
        size_bytes=1024, associativity=ways))
    fast, ref = (snapshot(simulate(run, scheme, machine.with_(engine=e)))
                 for e in ("fast", "reference"))
    assert fast == ref
