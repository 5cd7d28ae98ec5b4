"""Set-associative batch kernels: cache state indexed by slot.

A slot is ``set * K + way``.  The kernels' slot scan gives each event the
way its line occupies when the event executes, so the run machinery of
:class:`repro.coherence.batch._SetChains` proves K-way caches with the
direct-mapped closed forms.  Four layers:

* a hypothesis property replays random merged windows — window-start
  tags with invalid ways anywhere, LRU stamps, an allocation mask,
  several processors — through the real ``Cache.probe``/``victim``/
  ``install``/``touch`` and compares each event's way, each miss's
  victim line and dirty bit, each slot's final line, and each set's
  final LRU order against the slot scan and its stamps;
* a crafted trace in which an exclusive line leaves its way and comes
  back as the first run of another slot, where window-start directory
  state no longer holds;
* a path test: on the golden 4-way machine every run-based scheme
  builds a kernel, and hw batches epochs; tardis has no kernel at any
  associativity and still batches epochs;
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
from repro.memsys.cache import Cache
from repro.sim import make_engine, simulate
from repro.sim.fastengine import FastEngine
from repro.trace.events import EventKind, MemEvent, Task, Trace, TraceEpoch
from repro.trace.layout import MemoryLayout
from tests.test_engine_parity import snapshot
from tests.test_golden import MACHINES, _prepared


@st.composite
def windows(draw):
    """Caches in a random state plus a merged window over them."""
    K = draw(st.sampled_from([2, 4]))
    n_sets = draw(st.sampled_from([1, 2, 4]))
    n_procs = draw(st.integers(1, 3))
    n_lines = n_sets * draw(st.integers(K, 3 * K))
    machine = default_machine().with_(n_procs=n_procs, cache=CacheConfig(
        size_bytes=n_sets * K * WORD_BYTES, line_words=1, associativity=K))
    caches = {}
    for p in range(n_procs):
        cache = Cache(machine.cache)
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
    return machine, caches, parts


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
    machine, caches, parts = window
    K = machine.cache.associativity
    n_sets = machine.cache.n_sets
    expected = copy.deepcopy(caches)
    rows = replay(expected, parts)

    pieces = []
    for proc, events in parts:
        line = np.array([e[0] for e in events], dtype=np.int64)
        alloc = np.array([e[1] for e in events], dtype=bool)
        pieces.append((proc, SimpleNamespace(
            line=line, set_=line % n_sets, word=np.zeros_like(line),
            addr=line, site=np.zeros_like(line), work=np.zeros_like(line),
            is_write=alloc & np.array([e[2] for e in events], dtype=bool),
            shared=~alloc), None))
    cols = _Cols.merged(pieces, n_sets, n_sets * K * 64)
    alloc = ~cols.sh
    kernel = _BatchKernel(SimpleNamespace(machine=machine, network=None,
                                          shadow=None, caches=caches))
    ch = kernel._slot_chains(cols, alloc, "alloc")
    way = ch.slot - cols.s * K
    tags0 = kernel._gset(kernel.tags, cols, ch.slot)
    dirty0 = kernel._gset(kernel.dirty, cols, ch.slot)
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

    def epoch(index, accesses):
        events = [MemEvent(kind=EventKind.WRITE if w else EventKind.READ,
                           addr=addr, site=0, work=1)
                  for w, addr in accesses]
        return TraceEpoch(index=index, parallel=True,
                          tasks=[Task(proc=0, events=events)])

    trace = Trace("crafted", m.n_procs, layout=layout, epochs=[
        epoch(0, [(True, a), (False, a + 4)] + pad),
        epoch(1, pad[:20] + [(False, a + 8), (False, a), (True, a)]
              + pad[20:])])
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


@pytest.mark.parametrize("machine_name", ("dm64k", "4way64k"))
def test_tardis_has_no_kernel_and_still_batches(machine_name):
    """Tardis runs its cold spans through the per-event path, but its
    epochs still take the fast engine's batched route."""
    run = _prepared("ocean")
    machine = MACHINES[machine_name].with_(engine="fast")
    engine = FastEngine(run.trace, run.marking, machine, "tardis")
    assert engine._kernel is None
    engine.run()
    assert engine.batched_epochs > 0


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
