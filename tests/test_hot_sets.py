"""Hot sets: the fast engine's eviction pre-check for eviction-coupled
schemes (hw, limitless, snoop, update).

``FastEngine._hazard_sets`` flags the cache sets in which a batched
replacement could couple processors, and ``_plan_epoch`` makes every
event on a flagged set hot, in every task, instead of declining the
epoch.  Three layers:

* a crafted trace in which a *hot* miss displaces an epoch-start
  resident that another task writes cold — the pre-check must count hot
  events as well as cold ones, or the cold write invalidates a copy the
  reference engine has already evicted;
* a hypothesis property over raw traces (built directly, bypassing the
  compiler) on a 4-set cache of one-word lines: fast equals reference,
  and every multi-task epoch without sync events is batched;
* a path test on fig21's capacity cell (16 KB direct-mapped, hw): only
  sync and too-small epochs fall back, at most a tenth of the MSI
  kernel's misses and upgrades reach its in-order transition loop, and
  the result is the reference engine's.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.coherence.batch import MsiBatchKernel
from repro.common.config import CacheConfig, WORD_BYTES, default_machine
from repro.compiler.marking import mark_program
from repro.experiments.fig21_cache import SMALL_SIZES
from repro.ir import ProgramBuilder
from repro.sim import make_engine, prepare, simulate
from repro.sim.fastengine import _MIN_TASK_EVENTS, FastEngine
from repro.trace.events import EventKind, MemEvent, Task, Trace, TraceEpoch
from repro.trace.layout import MemoryLayout
from repro.workloads import build_workload
from tests.test_engine_parity import SCHEMES, snapshot

EVICT_COUPLED = ("hw", "limitless", "snoop", "update")
N_SETS = 4


def _setup(n_procs, ways=1):
    """A program whose one array gives the layout, and a machine with a
    4-set cache of one-word lines."""
    b = ProgramBuilder("raw")
    b.array("A", (256,))
    with b.procedure("main"):
        b.stmt(writes=[b.at("A", 0)], work=1)
    program = b.build()
    cache = CacheConfig(size_bytes=N_SETS * ways * WORD_BYTES, line_words=1,
                        associativity=ways)
    machine = default_machine().with_(n_procs=n_procs, cache=cache,
                                      record_epochs=True)
    layout = MemoryLayout(program, n_procs, cache.line_words)
    return program, machine, layout


def _trace(layout, n_procs, epochs):
    """``epochs``: per epoch, a list of ``(proc, [(is_write, addr)])``;
    an access may add a third field, ``shared`` (default True)."""
    return Trace("raw", n_procs, layout=layout, epochs=[
        TraceEpoch(index=i, parallel=True, tasks=[
            Task(proc=proc, events=[
                MemEvent(kind=EventKind.WRITE if a[0] else EventKind.READ,
                         addr=a[1], site=0, work=1,
                         shared=a[2] if len(a) > 2 else True)
                for a in accesses])
            for proc, accesses in tasks])
        for i, tasks in enumerate(epochs)])


def _run(program, machine, trace, scheme, engine):
    eng = make_engine(trace, mark_program(program),
                      machine.with_(engine=engine), scheme)
    return eng, eng.run()


# ------------------------------------------------------------ crafted case


def _crafted():
    """Epoch 0: proc 0 reads R.  Epoch 1: proc 0 first writes H, which
    shares R's set and which proc 2 reads, so H is hot; proc 1 writes R
    cold after ten private reads.  The reference engine runs proc 0's
    write first, so R has left proc 0's cache when proc 1 writes it."""
    program, machine, layout = _setup(n_procs=3)
    a = layout.base("A")  # the set of a + k is (a + k) % 4
    R, H = a, a + N_SETS

    def private(proc, n):
        # Reads of proc-private lines outside R's set: a + 1 .. a + 3
        # plus a per-processor stride of 16 words.
        return [(False, a + 16 * (proc + 1) + 1 + k % 3) for k in range(n)]

    epochs = [
        [(0, [(False, R)] + private(0, 39))],
        [(0, [(True, H)] + private(0, 39)),
         (1, private(1, 10) + [(True, R)] + private(1, 29)),
         (2, [(False, H)] + private(2, 39))],
    ]
    return program, machine, _trace(layout, 3, epochs)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_hot_miss_displacing_a_cold_written_resident(scheme):
    program, machine, trace = _crafted()
    fast_eng, fast = _run(program, machine, trace, scheme, "fast")
    _, ref = _run(program, machine, trace, scheme, "reference")
    assert snapshot(fast) == snapshot(ref)
    assert fast_eng.batched_epochs == 2


# ----------------------------------------------------- raw-trace property


@st.composite
def raw_traces(draw):
    n_procs = 4
    ways = draw(st.sampled_from([1, 2]))
    program, machine, layout = _setup(n_procs, ways)
    a = layout.base("A")
    shared = [a + k for k in draw(st.lists(
        st.integers(0, 15), min_size=2, max_size=5, unique=True))]
    private = {p: [a + 16 * (p + 1) + k
                   for k in draw(st.lists(st.integers(0, 11), min_size=2,
                                          max_size=6, unique=True))]
               for p in range(n_procs)}
    epochs = []
    for _ in range(draw(st.integers(2, 4))):
        procs = draw(st.lists(st.integers(0, n_procs - 1), min_size=2,
                              max_size=4, unique=True))
        tasks = []
        for proc in procs:
            n = draw(st.integers(32, 48))
            pool = shared + private[proc]
            tasks.append((proc, [
                (draw(st.booleans()), draw(st.sampled_from(pool)))
                for _ in range(n)]))
        epochs.append(tasks)
    return program, machine, _trace(layout, n_procs, epochs)


@pytest.mark.parametrize("scheme", EVICT_COUPLED)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(case=raw_traces())
def test_raw_trace_parity_and_batching(scheme, case):
    program, machine, trace = case
    fast_eng, fast = _run(program, machine, trace, scheme, "fast")
    _, ref = _run(program, machine, trace, scheme, "reference")
    assert snapshot(fast) == snapshot(ref)
    # No epoch has sync events and every task clears the size floor.
    assert fast_eng.fallback_epochs == 0
    assert fast_eng.batched_epochs == len(trace.epochs)


# ------------------------------------------------- fig21's capacity cell


def _must_fall_back(epoch) -> bool:
    return epoch.has_sync or (
        epoch.n_events < _MIN_TASK_EVENTS * max(1, epoch.n_tasks))


@pytest.mark.parametrize("workload, expected", [("flo52", 3), ("qcd2", 3)])
def test_capacity_cell_falls_back_only_on_sync_or_size(workload, expected,
                                                       monkeypatch):
    # Count the MSI kernel's slow events (misses and upgrades) and the
    # loud ones among them, which reach the in-order transition loop.
    slow = {"kernel": 0, "in_order": 0}
    quiet, transitions = MsiBatchKernel._quiet, MsiBatchKernel._transitions

    def counting_quiet(self, cols, ctx, mask):
        slow["kernel"] += int(mask.sum())
        return quiet(self, cols, ctx, mask)

    def counting_transitions(self, eng, cols, ctx, mask, lat_out=None):
        slow["in_order"] += int(mask.sum())
        return transitions(self, eng, cols, ctx, mask, lat_out)

    monkeypatch.setattr(MsiBatchKernel, "_quiet", counting_quiet)
    monkeypatch.setattr(MsiBatchKernel, "_transitions", counting_transitions)
    base = default_machine()
    machine = base.with_(cache=CacheConfig(
        size_bytes=16 * 1024, line_words=base.cache.line_words),
        engine="fast")
    run = prepare(build_workload(workload, **SMALL_SIZES[workload]), base)
    eng = FastEngine(run.trace, run.marking, machine, "hw")
    fast = eng.run()
    n_forced = sum(_must_fall_back(epoch)
                   for epoch in run.trace.epochs)
    assert eng.fallback_epochs == n_forced == expected
    # Most transitions are quiet: closed form, not the in-order loop.
    assert slow["kernel"] > 0
    assert slow["in_order"] <= 0.1 * slow["kernel"]
    ref = simulate(run, "hw", machine=machine.with_(engine="reference"))
    assert fast.to_dict() == ref.to_dict()
