"""Unit tests for the simulation engine itself (clocks, barriers, locks)."""

import pytest

from repro.common.config import default_machine
from repro.common.errors import SimulationError
from repro.ir import ProgramBuilder
from repro.sim import prepare, simulate
from tests.rawtrace import LOCK, UNLOCK, raw_trace


def machine(**kw):
    defaults = dict(n_procs=4, epoch_setup_cycles=10, task_dispatch_cycles=2)
    defaults.update(kw)
    return default_machine().with_(**defaults)


class TestTiming:
    def test_work_cycles_accumulate(self):
        b = ProgramBuilder("work")
        b.array("A", (4,))
        with b.procedure("main"):
            b.stmt(writes=[b.at("A", 0)], work=500)
            b.stmt(writes=[b.at("A", 1)], work=700)
        r = simulate(b.build(), "tpi", machine())
        assert r.exec_cycles >= 1200

    def test_barrier_waits_for_slowest(self):
        """One heavy task dominates the epoch (load imbalance)."""
        b = ProgramBuilder("imbalanced")
        b.array("A", (4,))
        with b.procedure("main"):
            with b.doall("i", 0, 3) as i:
                with b.when(b.v("i"), "==", 0):
                    b.stmt(writes=[b.at("A", 0)], work=10_000)
                b.stmt(reads=[b.at("A", i)], work=1)
        r = simulate(b.build(), "tpi", machine())
        assert r.exec_cycles >= 10_000

    def test_parallelism_speeds_up(self):
        def build():
            b = ProgramBuilder("par")
            b.array("A", (64,))
            with b.procedure("main"):
                with b.doall("i", 0, 63) as i:
                    b.stmt(writes=[b.at("A", i)], work=200)
            return b.build()

        one = simulate(build(), "tpi", machine(n_procs=1))
        eight = simulate(build(), "tpi", machine(n_procs=8))
        assert one.exec_cycles > 4 * eight.exec_cycles

    def test_epoch_setup_charged(self):
        b = ProgramBuilder("setupcost")
        b.array("A", (4,))
        with b.procedure("main"):
            b.stmt(writes=[b.at("A", 0)], work=1)
        cheap = simulate(b.build(), "tpi", machine(epoch_setup_cycles=1))
        costly = simulate(b.build(), "tpi", machine(epoch_setup_cycles=5000))
        assert costly.exec_cycles - cheap.exec_cycles >= 4000

    def test_reset_stall_charged(self):
        from repro.common.config import TpiConfig

        b = ProgramBuilder("stalls", params={"T": 12})
        b.array("A", (8,))
        with b.procedure("main"):
            with b.serial("t", 0, b.p("T") - 1):
                with b.doall("i", 0, 7) as i:
                    b.stmt(writes=[b.at("A", i)], work=1)
        small_tag = simulate(b.build(), "tpi",
                             machine(tpi=TpiConfig(timetag_bits=2,
                                                   reset_stall_cycles=5000)))
        big_tag = simulate(b.build(), "tpi",
                           machine(tpi=TpiConfig(timetag_bits=8,
                                                 reset_stall_cycles=5000)))
        assert small_tag.resets > big_tag.resets
        assert small_tag.exec_cycles > big_tag.exec_cycles


class TestLocks:
    def build_locked(self, n=8):
        b = ProgramBuilder("locked")
        b.array("acc", (1,))
        with b.procedure("main"):
            with b.doall("i", 0, n - 1) as i:
                with b.critical("L"):
                    b.stmt(reads=[b.at("acc", 0)], writes=[b.at("acc", 0)],
                           work=50)
        return b.build()

    def test_critical_sections_serialize(self):
        r = simulate(self.build_locked(), "tpi", machine())
        # 8 critical sections x 50 cycles of work cannot overlap.
        assert r.exec_cycles >= 8 * 50
        assert r.extra["lock_acquires"] == 8

    def test_two_locks_do_not_serialize_each_other(self):
        b = ProgramBuilder("twolocks")
        b.array("a0", (1,))
        b.array("a1", (1,))
        with b.procedure("main"):
            with b.doall("i", 0, 1) as i:
                with b.when(b.v("i"), "==", 0):
                    with b.critical("L0"):
                        b.stmt(writes=[b.at("a0", 0)], work=5000)
                with b.when(b.v("i"), "==", 1):
                    with b.critical("L1"):
                        b.stmt(writes=[b.at("a1", 0)], work=5000)
        r = simulate(b.build(), "tpi", machine(n_procs=2))
        assert r.exec_cycles < 2 * 5000  # ran concurrently

    def test_lock_hand_off_order_deterministic(self):
        a = simulate(self.build_locked(), "hw", machine())
        b = simulate(self.build_locked(), "hw", machine())
        assert a.exec_cycles == b.exec_cycles

    def test_contended_lock_spins_show_as_sync_stall(self):
        contended = simulate(self.build_locked(), "tpi", machine(n_procs=8))
        alone = simulate(self.build_locked(), "tpi", machine(n_procs=1))
        # Spinning processors charge their retry cycles to sync_stall;
        # with one processor the lock is always free on arrival.
        assert contended.breakdown["sync_stall"] > alone.breakdown["sync_stall"]
        assert contended.extra["lock_acquires"] == 8

    def test_free_time_hand_off_serializes_critical_work(self):
        """A released lock's ``free_time`` gates the next acquirer: the
        critical sections' work can never overlap, whatever the spin
        timing, so total time grows linearly with the holder count."""
        few = simulate(self.build_locked(n=4), "tpi", machine(n_procs=4))
        many = simulate(self.build_locked(n=16), "tpi", machine(n_procs=4))
        assert many.exec_cycles - few.exec_cycles >= 12 * 50


class TestLockErrors:
    """Hand-crafted traces for the engine's lock-safety guards (the IR
    builder cannot emit unbalanced critical sections)."""

    def crafted(self, events_by_proc, scheme="hw", n_procs=4,
                engine="auto"):
        from repro.compiler.marking import mark_program
        from repro.sim import make_engine
        from repro.trace.layout import MemoryLayout

        b = ProgramBuilder("crafted")
        b.array("A", (16,))
        with b.procedure("main"):
            b.stmt(writes=[b.at("A", 0)], work=1)
        program = b.build()
        m = machine(n_procs=n_procs, engine=engine)
        layout = MemoryLayout(program, m.n_procs, m.cache.line_words)
        trace = raw_trace(layout, m.n_procs, [[
            (proc, [(kind, 0, 0, 1, True, False, lock)
                    for kind, lock in events])
            for proc, events in events_by_proc.items()]], "crafted")
        return make_engine(trace, mark_program(program), m, scheme)

    def test_lock_held_at_barrier_raises(self):
        engine = self.crafted({0: [(LOCK, 7)]})
        with pytest.raises(SimulationError, match="locks held"):
            engine.run()

    def test_unlock_without_hold_raises(self):
        engine = self.crafted({0: [(UNLOCK, 7)]})
        with pytest.raises(SimulationError, match="does not hold"):
            engine.run()

    def test_unlock_by_non_holder_raises(self):
        engine = self.crafted({0: [(LOCK, 7)],
                               1: [(UNLOCK, 7)]})
        with pytest.raises(SimulationError, match="does not hold"):
            engine.run()

    @pytest.mark.parametrize("engine_name", ("fast", "reference"))
    def test_self_relock_raises_at_once(self, engine_name):
        """Re-locking a lock the task already holds can never succeed: it
        fails on the spot instead of spinning toward the deadlock guard."""
        engine = self.crafted({0: [(LOCK, 7), (LOCK, 7)]},
                              engine=engine_name)
        with pytest.raises(SimulationError, match="already holds"):
            engine.run()

    def test_spin_counter_deadlock_guard(self, monkeypatch):
        """A waiter that can never acquire trips the million-spin guard
        instead of hanging.  Start the counter near the limit so the test
        does not actually spin a million times."""
        from repro.sim import engine as engine_mod
        real_state = engine_mod._LockState

        def near_limit():
            state = real_state()
            state.spins = 10 ** 6
            return state

        monkeypatch.setattr(engine_mod, "_LockState", near_limit)
        engine = self.crafted({0: [(LOCK, 3)],
                               1: [(LOCK, 3)]})
        with pytest.raises(SimulationError, match="probable deadlock"):
            engine.run()


class TestNetworkFeedback:
    def test_write_traffic_raises_load_and_miss_latency(self):
        """Writes are non-blocking (weak consistency), so a write-heavy
        program pumps network words without adding stall cycles — the load
        estimate and hence the read miss latency must rise."""
        def build(writes_per_iter, compute):
            b = ProgramBuilder(f"wload{writes_per_iter}", params={"T": 4})
            b.array("A", (64, 8))
            b.array("B", (64,))
            with b.procedure("main"):
                with b.serial("t", 0, b.p("T") - 1):
                    with b.doall("i", 0, 63) as i:
                        # Read the mirror element: the writer is another
                        # processor, so every step misses (after rho has
                        # had an epoch to build up).
                        b.stmt(writes=[b.at("A", i, k)
                                       for k in range(writes_per_iter)],
                               reads=[b.at("B", 63 - i)], work=compute)
                    with b.doall("j", 0, 63) as j:
                        b.stmt(writes=[b.at("B", j)], work=1)
            return b.build()

        quiet = simulate(build(1, 300), "tpi", machine(n_procs=16))
        heavy = simulate(build(8, 1), "tpi", machine(n_procs=16))
        # final_network_load is an EMA dominated by the (identical) last
        # epoch, so the visible gap is modest; the latency effect is the
        # real assertion.
        assert heavy.final_network_load > 1.5 * quiet.final_network_load
        assert heavy.avg_miss_latency > quiet.avg_miss_latency
