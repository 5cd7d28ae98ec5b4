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

With a kernel, ``_plan_epoch`` also makes hot, per task, every event in
a set the task's own hot events use, so every batched epoch can
pre-apply its cold events.  A second raw-trace property puts a line two
tasks only read in the set of a line one of them writes (hot for one
task, cold for the other); a path test checks that fig21's conflict
cells pre-apply every batched epoch; and a unit test pins the epoch-wide
line/task tables the eviction pre-check reads against their definition.

An exclusive line (directory E, snoop M) is hot only when two or more
tasks off its owner's processor touch it; a third raw-trace property
pins that rule and its parity.  A set the staleness oracle poisons
turns hot for its task instead of declining pre-apply (fig18's
migrated tpi cells).  Count tests pin how much of a small fig21 pass,
and of fig11's hw cells, takes the exact per-event path.
"""

import collections

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.coherence.batch import MsiBatchKernel
from repro.coherence.batch import _BatchKernel
from repro.common.config import CacheConfig, WORD_BYTES, default_machine
from repro.compiler.marking import MarkingOptions, mark_program
from repro.experiments import run_experiment
from repro.experiments.fig21_cache import SMALL_SIZES
from repro.ir import ProgramBuilder
from repro.sim import make_engine, prepare, simulate
from repro.sim.engine import Engine
from repro.sim.fastengine import _MIN_TASK_EVENTS, FastEngine, _EpochBatch
from repro.trace.layout import MemoryLayout
from repro.trace.schedule import MigrationSpec
from repro.workloads import build_workload
from tests import every_proc_state
from tests.rawtrace import READ, WRITE, epochs_of, raw_trace
from tests.test_engine_parity import SCHEMES, snapshot

EVICT_COUPLED = ("hw", "limitless", "snoop", "update")
MSI = ("hw", "limitless", "snoop")
N_SETS = 4
# Every scheme with a batch kernel at associativity K; the update
# kernel is direct-mapped only.
KERNEL_CELLS = [(scheme, ways) for scheme in SCHEMES if scheme != "tardis"
                for ways in (1, 2) if not (scheme == "update" and ways > 1)]


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
    return raw_trace(layout, n_procs, [
        [(proc, [(WRITE if a[0] else READ, a[1], 0, 1, *a[2:])
                 for a in accesses])
         for proc, accesses in tasks]
        for tasks in epochs])


def _run(program, machine, trace, scheme, engine):
    eng = make_engine(trace, mark_program(program),
                      machine.with_(engine=engine), scheme)
    return eng, eng.run()


def _preapply_outcomes(eng):
    """Record whether each of ``eng``'s pre-apply attempts succeeded in
    the returned list."""
    outcomes = []
    attempt = eng._preapply_epoch

    def recorded(batch, hot):
        cold = attempt(batch, hot)
        outcomes.append(cold is not None)
        return cold

    eng._preapply_epoch = recorded
    return outcomes


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
    # Tardis has no kernel, so its epochs fall back.
    no_kernel = scheme == "tardis"
    assert (fast_eng._kernel is None) == no_kernel
    assert fast_eng.batched_epochs == (0 if no_kernel else 2)


@pytest.mark.parametrize("scheme", ["hw", "tpi"])
def test_tasks_sharing_a_processor_match_the_reference(scheme):
    """Two of each epoch's four tasks run on processor 0.  The reference
    engine starts every task at its own dispatch time; a per-processor
    start clock would start both from the later one's, so the fast
    engine declines such epochs."""
    program, machine, layout = _setup(n_procs=4)
    a = layout.base("A")
    rng = np.random.default_rng(27)
    epochs = [[(proc, [(bool(rng.integers(2)), a + int(rng.integers(32)))
                       for _ in range(40)])
               for proc in (0, 1, 0, 2)]
              for _ in range(2)]
    trace = _trace(layout, 4, epochs)
    fast_eng, fast = _run(program, machine, trace, scheme, "fast")
    _, ref = _run(program, machine, trace, scheme, "reference")
    assert snapshot(fast) == snapshot(ref)
    assert fast_eng.fallback_epochs == 2


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
    # No epoch has sync events and every task clears the size floor, so
    # every epoch batches unless the configuration has no kernel (update
    # on a 2-way cache): then every epoch falls back.
    no_kernel = scheme == "update" and machine.cache.associativity > 1
    assert (fast_eng._kernel is None) == no_kernel
    batched = 0 if no_kernel else len(trace.epochs)
    assert fast_eng.batched_epochs == batched
    assert fast_eng.fallback_epochs == len(trace.epochs) - batched


@st.composite
def promoted_set_traces(draw, ways):
    """Per epoch, on three distinct processors: a writer that writes H
    and reads R, a sharer that touches H, and a reader that reads R but
    never H.  H and R share a cache set and nobody writes R, so R is hot
    for the writer (its set holds the hot line H) and can be cold for
    the reader.  Each task also reads and writes at least one private
    line of another set."""
    n_procs = 4
    program, machine, layout = _setup(n_procs, ways)
    a = layout.base("A")
    s = draw(st.integers(0, N_SETS - 1))
    H, R = (a + s + N_SETS * k for k in draw(st.lists(
        st.integers(0, 3), min_size=2, max_size=2, unique=True)))
    private = {p: [a + 16 * (p + 1) + k for k in range(12)
                   if (a + k) % N_SETS != (a + s) % N_SETS]
               for p in range(n_procs)}
    epochs = []
    for _ in range(draw(st.integers(1, 3))):
        writer, sharer, reader = draw(st.permutations(range(n_procs)))[:3]
        tasks = []
        for proc, musts, pool in (
                (writer, [(True, H), (False, R)], [(True, H), (False, H),
                                                   (False, R)]),
                (sharer, [(False, H)], [(True, H), (False, H)]),
                (reader, [(False, R)], [(False, R)])):
            own = [(w, x) for x in private[proc] for w in (False, True)]
            accesses = [draw(st.sampled_from(pool + own))
                        for _ in range(draw(st.integers(32, 48)))]
            # A private access gives the task a cold event to pre-apply.
            for must in musts + [draw(st.sampled_from(own))]:
                accesses.insert(draw(st.integers(0, len(accesses))), must)
            tasks.append((proc, accesses))
        epochs.append(tasks)
    return program, machine, _trace(layout, n_procs, epochs)


@pytest.mark.parametrize("scheme, ways", KERNEL_CELLS)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(data=st.data())
def test_read_only_line_in_a_hot_set_preapplies(scheme, ways, data):
    program, machine, trace = data.draw(promoted_set_traces(ways))
    # Raw traces carry no compiler marking, so a compiler-directed scheme
    # may read stale data: run the staleness oracle for hardware
    # coherence only.
    machine = machine.with_(check_coherence=scheme in EVICT_COUPLED)
    fast_eng = make_engine(trace, mark_program(program),
                           machine.with_(engine="fast"), scheme)
    outcomes = _preapply_outcomes(fast_eng)
    fast = fast_eng.run()
    _, ref = _run(program, machine, trace, scheme, "reference")
    assert snapshot(fast) == snapshot(ref)
    assert fast_eng.batched_epochs == len(trace.epochs)
    assert outcomes == [True] * len(trace.epochs)


@st.composite
def exclusive_line_traces(draw, ways):
    """Epoch 0: an owner writes line L, which leaves L exclusive
    (directory E, or a snoop M copy).  Epoch 1: the owner reads L beside
    0..K conflict lines of L's set, and one or two outside readers on
    other processors read L.  Every task also touches lines of its own
    in other sets.  Returns ``(program, machine, trace, L, readers,
    conflicts)``."""
    n_procs = 4
    program, machine, layout = _setup(n_procs, ways)
    a = layout.base("A")
    s = draw(st.integers(0, N_SETS - 1))
    L = a + s
    conflicts = [L + N_SETS * k
                 for k in range(1, draw(st.integers(0, ways)) + 1)]
    owner, *others = draw(st.permutations(range(n_procs)))
    readers = others[:draw(st.integers(1, 2))]

    def task(proc, musts, pool):
        own = [(w, a + 16 * (proc + 1) + k) for k in range(12)
               if (a + k) % N_SETS != L % N_SETS for w in (False, True)]
        accesses = [draw(st.sampled_from(pool + own))
                    for _ in range(draw(st.integers(32, 48)))]
        for must in musts:
            accesses.insert(draw(st.integers(0, len(accesses))), must)
        return proc, accesses

    reads = [(False, line) for line in [L] + conflicts]
    epochs = [[task(owner, [(True, L)], [])],
              [task(owner, reads, reads)]
              + [task(proc, [(False, L)], [(False, L)]) for proc in readers]]
    return (program, machine, _trace(layout, n_procs, epochs), L,
            len(readers), len(conflicts))


@pytest.mark.parametrize("scheme", MSI)
@pytest.mark.parametrize("ways", [1, 2])
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(data=st.data())
def test_exclusive_line_is_hot_only_with_two_outside_readers(scheme, ways,
                                                            data):
    program, machine, trace, L, readers, conflicts = data.draw(
        exclusive_line_traces(ways))
    machine = machine.with_(check_coherence=True)
    fast_eng = make_engine(trace, mark_program(program),
                           machine.with_(engine="fast"), scheme)
    plans = []
    plan = fast_eng._plan_epoch

    def recorded(epoch):
        plans.append(plan(epoch))
        return plans[-1]

    fast_eng._plan_epoch = recorded
    fast = fast_eng.run()
    _, ref = _run(program, machine, trace, scheme, "reference")
    assert snapshot(fast) == snapshot(ref)
    assert fast_eng.batched_epochs == 2
    # One outside reader leaves L cold; two make it hot, as does the
    # owner's set when it must evict (the eviction pre-check).  A plan is
    # a hot mask over the epoch's events, in task order.
    expected = readers == 2 or conflicts == ways
    start = 0
    for task in epochs_of(trace)[1].tasks:
        hot = plans[1][start:start + len(task.events)]
        start += len(task.events)
        at_L = hot[[i for i, e in enumerate(task.events) if e.addr == L]]
        assert len(at_L) and at_L.all() == expected
        assert at_L.any() == expected


# ------------------------------------------------------------ other lines


def test_other_lines_are_the_lines_other_tasks_touch():
    """The pre-check reads "a line another task touches" off the epoch's
    (line, task) pairs: a line of the epoch that is multi-touched or not
    the task's own.  Pin that, and each (task, set) group's line count
    and ``foreign`` flag, against the definition."""
    rng = np.random.default_rng(11)
    n_sets = 4
    for _ in range(50):
        n_tasks = int(rng.integers(1, 6))
        trace = raw_trace(None, n_tasks, [[
            (p, [(READ, int(addr), 0, 1)
                 for addr in rng.integers(0, 64, rng.integers(0, 20))])
            for p in range(n_tasks)]])
        [epoch] = epochs_of(trace)
        tasks = epoch.tasks
        batch = _EpochBatch(trace.epochs[0], line_words=2, n_sets=n_sets)
        lid, ranks = np.divmod(batch.pairs, n_tasks)
        owned = {(batch.lines[i], r) for i, r in zip(lid.tolist(),
                                                     ranks.tolist())}
        groups = dict(zip(zip(*batch.set_groups[:2]),
                          zip(*batch.set_groups[2:])))
        for rank, task in enumerate(tasks):
            own = {e.addr // 2 for e in task.events}
            rest = {e.addr // 2 for t in tasks if t is not task
                    for e in t.events}
            other = {line for line, multi in zip(batch.lines.tolist(),
                                                 batch.multi.tolist())
                     if multi or (line, rank) not in owned}
            assert other == rest
            for s in range(n_sets):
                mine = {line for line in own if line % n_sets == s}
                if mine:
                    assert groups[rank, s] == (len(mine),
                                               bool(mine & rest))
                else:
                    assert (rank, s) not in groups


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

    def counting_transitions(self, eng, cols, ctx, mask, lat):
        slow["in_order"] += int(mask.sum())
        return transitions(self, eng, cols, ctx, mask, lat)

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


@pytest.fixture(scope="module")
def fig21_small_runs():
    base = default_machine()
    return base, [prepare(build_workload(name, **sizes), base)
                  for name, sizes in SMALL_SIZES.items()]


@pytest.mark.parametrize("scheme", ["tpi", "hw"])
@pytest.mark.parametrize("cache", [
    dict(size_bytes=16 * 1024),
    dict(size_bytes=64 * 1024, associativity=4)], ids=["dm16k", "4way64k"])
def test_conflict_cells_preapply_every_batched_epoch(scheme, cache,
                                                     fig21_small_runs):
    base, runs = fig21_small_runs
    machine = base.with_(cache=CacheConfig(
        line_words=base.cache.line_words, **cache), engine="fast")
    batched, outcomes = 0, []
    for run in runs:
        eng = FastEngine(run.trace, run.marking, machine, scheme)
        recorded = _preapply_outcomes(eng)
        eng.run()
        batched += eng.batched_epochs
        outcomes += recorded
    assert batched > 0
    assert outcomes == [True] * batched


# ------------------------------------------------------ poisoned sets


@pytest.mark.parametrize("workload", ["spec77", "trfd", "arc2d"])
def test_poisoned_sets_turn_hot_and_the_rest_preapplies(workload,
                                                        monkeypatch):
    # fig18's migrated tpi cells: a set where the staleness oracle might
    # fire poisons the epoch's window.  Its events turn hot for their
    # task and the rest of the epoch pre-applies.
    declines = []
    preapply = _BatchKernel.preapply

    def counting_preapply(self, *args):
        cycles = preapply(self, *args)
        declines.append(not cycles)
        return cycles

    monkeypatch.setattr(_BatchKernel, "preapply", counting_preapply)
    base = default_machine()
    run = prepare(build_workload(workload, size="small"), base,
                  opts=MarkingOptions(assume_no_migration=False),
                  migration=MigrationSpec(every=7))
    eng = FastEngine(run.trace, run.marking, base.with_(engine="fast"),
                     "tpi")
    outcomes = _preapply_outcomes(eng)
    fast = eng.run()
    assert any(declines)
    assert outcomes == [True] * eng.batched_epochs
    ref = simulate(run, "tpi", machine=base.with_(engine="reference"))
    assert fast.to_dict() == ref.to_dict()


# ------------------------------------------------------------- path counts


@pytest.fixture
def exact_path_counts(monkeypatch):
    """Counts exact-path accesses (key ``"access"``) and, per
    ``(scheme, cache KB, associativity)``, the hot events the fast
    engine plans."""
    counts = collections.Counter()
    access, plan = Engine._access, FastEngine._plan_epoch

    def counted_access(self, *args):
        counts["access"] += 1
        return access(self, *args)

    def counted_plan(self, epoch):
        hot = plan(self, epoch)
        if hot is not None:
            cache = self.machine.cache
            counts[self.scheme.name, cache.size_bytes // 1024,
                   cache.associativity] += int(hot.sum())
        return hot

    monkeypatch.setattr(Engine, "_access", counted_access)
    monkeypatch.setattr(FastEngine, "_plan_epoch", counted_plan)
    return counts


def test_fig21_exact_path_counts(fig21_small_runs, exact_path_counts):
    # Exact values: a change that moves them moves the hot-event replay
    # or the exact path, and should say so.
    base, runs = fig21_small_runs
    for cache in (dict(size_bytes=16 * 1024), dict(size_bytes=64 * 1024),
                  dict(size_bytes=256 * 1024),
                  dict(size_bytes=64 * 1024, associativity=4)):
        machine = base.with_(cache=CacheConfig(
            line_words=base.cache.line_words, **cache), engine="fast")
        for run in runs:
            for scheme in ("tpi", "hw"):
                FastEngine(run.trace, run.marking, machine, scheme).run()
    assert exact_path_counts["access"] == 235_190
    assert {key[1:]: n for key, n in exact_path_counts.items()
            if key[0] == "hw"} == {(16, 1): 49_250, (64, 1): 29_772,
                                   (256, 1): 29_772, (64, 4): 30_600}


def test_fig11_hw_hot_events(exact_path_counts):
    run_experiment("fig11_miss_rates", size="small")
    assert exact_path_counts["hw", 64, 1] == 4_542


# -------------------------------------------------- wide and sparse epochs


@st.composite
def wide_sparse_traces(draw, ways):
    """Two epochs of 16-36 tasks each on distinct processors, drawn from
    up to 16384 of which few are active, over a small cache (8 or 32
    sets of two-word lines).  Each task
    reads and writes its processor's private words, reads shared words
    nobody writes, and writes shared words that other tasks write too,
    reading one only after writing it itself this epoch: so no scheme,
    marked or not, can serve a read below its barrier floor, and the
    staleness oracle can run for every scheme."""
    n_procs = draw(st.sampled_from([64, 1024, 16384]))
    epochs_procs = [draw(st.lists(st.integers(0, n_procs - 1), unique=True,
                                  min_size=16, max_size=36))
                    for _ in range(2)]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    b = ProgramBuilder("wide")
    b.array("A", (4096,))
    with b.procedure("main"):
        b.stmt(writes=[b.at("A", 0)], work=1)
    program = b.build()
    n_sets = draw(st.sampled_from([8, 32]))
    cache = CacheConfig(size_bytes=n_sets * ways * 2 * WORD_BYTES,
                        line_words=2, associativity=ways)
    machine = default_machine().with_(n_procs=n_procs, cache=cache,
                                      record_epochs=True,
                                      check_coherence=True)
    layout = MemoryLayout(program, n_procs, cache.line_words)
    a = layout.base("A")
    slot = {p: k for k, p in enumerate(sorted(set().union(*epochs_procs)))}
    epochs = []
    for procs in epochs_procs:
        tasks = []
        for proc in procs:
            private = a + 1024 + 16 * slot[proc]
            written, accesses = set(), []
            for _ in range(int(rng.integers(32, 41))):
                kind = int(rng.integers(4))
                if kind == 0:  # a shared word other tasks write
                    addr = a + int(rng.integers(8))
                    write = addr not in written or bool(rng.integers(2))
                    written.add(addr)
                    accesses.append((write, addr))
                elif kind == 1:  # a shared word nobody writes
                    accesses.append((False, a + 16 + int(rng.integers(8))))
                else:
                    accesses.append((bool(rng.integers(2)),
                                     private + int(rng.integers(12)), False))
            tasks.append((proc, accesses))
        epochs.append(tasks)
    return program, machine, _trace(layout, n_procs, epochs)


@pytest.mark.parametrize("scheme, ways", [
    (scheme, ways) for scheme in SCHEMES if scheme != "tardis"
    for ways in (1, 4) if not (scheme == "update" and ways > 1)])
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(data=st.data())
def test_wide_sparse_epochs_match_the_reference(scheme, ways, data):
    program, machine, trace = data.draw(wide_sparse_traces(ways))
    fast_eng, fast = _run(program, machine, trace, scheme, "fast")
    ref_eng, ref = _run(program, machine, trace, scheme, "reference")
    assert snapshot(fast) == snapshot(ref)
    assert fast_eng.batched_epochs == 2
    # The cache bank holds a row per processor the trace uses, no more.
    rows = (np.arange(machine.n_procs) if every_proc_state.enabled()
            else np.array(trace.procs))
    for eng in (fast_eng, ref_eng):
        np.testing.assert_array_equal(eng.scheme.bank.procs, rows)
