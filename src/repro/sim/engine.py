"""The execution-driven simulation engine.

Processors keep local clocks; within an epoch the engine always advances the
processor with the smallest clock (a heap), so cross-processor protocol
interactions (directory invalidations, lock hand-offs) happen in a
plausible, deterministic global order that *depends on the timing* — the
defining property of execution-driven simulation [32].  Epoch boundaries
are barriers: every processor synchronizes to the slowest one, plus the
loop-setup and task-dispatch overheads of Figure 8's simulated scheduling
operations.

Events replay as per-task rows of Python ints
(:meth:`repro.trace.columnar.ColumnarEpoch.rows`) through one heap loop,
:meth:`Engine._run_epoch`.  The reference engine replays every event
through it; the fast engine (:mod:`repro.sim.fastengine`) replays only
the order-sensitive ones where a batch kernel pre-applies the rest.

Network load feeds back: after each epoch the Kruskal-Snir model's offered
load is updated from the words injected during the epoch, so traffic-heavy
programs see longer miss latencies in subsequent epochs (smoothed
exponentially; see ``MachineConfig.network_smoothing``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List

from repro.coherence.api import CoherenceScheme, SimContext, make_scheme
from repro.common.config import ENGINE_NAMES, MachineConfig
from repro.common.errors import SimulationError
from repro.common.stats import MissKind
from repro.compiler.marking import Marking
from repro.memsys.memory import ShadowMemory
from repro.memsys.network import KruskalSnirNetwork
from repro.sim.metrics import EpochRecord, SimResult
from repro.trace.columnar import KIND_LOCK, KIND_UNLOCK, ColumnarTrace

_LOCK_RETRY_CYCLES = 16
_HIT = MissKind.HIT


@dataclass
class _LockState:
    held: bool = False
    holder: int = -1
    holder_rank: int = -1
    free_time: int = 0
    spins: int = 0


class Engine:
    """Drives one trace through one coherence scheme."""

    engine_name = "reference"

    def __init__(self, trace: ColumnarTrace, marking: Marking,
                 machine: MachineConfig, scheme_name: str):
        if trace.layout is None:
            raise SimulationError("trace has no memory layout")
        self.trace = trace
        self.machine = machine
        # The layout is fixed-aligned (trace-invariant across back ends),
        # so pad the shadow to a whole number of *this* machine's lines —
        # a line fill may slice past the last allocated word.
        line_words = machine.cache.line_words
        total = -(-trace.layout.total_words // line_words) * line_words
        self.shadow = ShadowMemory(total)
        self.network = KruskalSnirNetwork(machine)
        self.ctx = SimContext(machine=machine, marking=marking,
                              shadow=self.shadow, network=self.network,
                              layout=trace.layout, procs=trace.procs)
        self.scheme: CoherenceScheme = make_scheme(scheme_name, self.ctx)
        self._hit_latency = machine.hit_latency
        self.result = SimResult(scheme=self.scheme.name,
                                program=trace.program_name,
                                n_procs=machine.n_procs)
        # Network words injected so far in the current epoch (the load
        # the barrier reports to the network model).
        self._epoch_words = 0

    # ------------------------------------------------------------------ run

    def run(self) -> SimResult:
        self.start()
        for epoch in self.trace.epochs:
            self.step(epoch)
        return self.finish()

    # The epoch-at-a-time face of the same loop: ``run() == start();
    # step(each); finish()`` by construction — there is only one loop
    # body, and ``step`` is the unit a per-epoch profiler wraps.

    def start(self) -> None:
        """Reset the global clock; feed epochs through :meth:`step`."""
        self._global_time = 0

    def step(self, epoch) -> None:
        """Advance this engine through one epoch (in trace order)."""
        self._global_time = self._run_epoch(epoch, self._global_time)

    def finish(self) -> SimResult:
        """Seal and return the result after the last :meth:`step`."""
        self.result.exec_cycles = self._global_time
        self.result.epochs = len(self.trace.epochs)
        self.result.final_network_load = self.network.rho
        self.result.engine = self.engine_name
        self._collect_scheme_extras()
        return self.result

    def _run_epoch(self, epoch, global_time: int) -> int:
        """Run one epoch: dispatch its tasks, replay their events through
        the heap, and close it at the barrier; returns its end time.

        This is the one heap loop of both engines.  Each task replays the
        rows :meth:`_hot_rows` picks, keyed ``(clock, proc, rank, idx)``
        with ``idx`` the row's position, so the smallest clock always
        runs next.  A task whose next key is still the smallest runs on
        at once (``heappushpop``).  Here every event is hot: ``gaps`` is
        None and each task replays all of its rows.  The fast engine
        replays only its plan's hot events; ``gaps[rank][i]`` is then
        the pre-applied cold cycles between the task's hot events
        ``i - 1`` and ``i`` (and after the last).
        """
        machine = self.machine
        result = self.result
        breakdown = result.breakdown
        stalls = self.scheme.begin_epoch(epoch.index, epoch.parallel)
        self._epoch_words = 0
        reads_before = result.reads
        misses_before = result.read_misses
        tasks = epoch.task_table()
        rows, gaps = self._hot_rows(epoch)

        base = global_time + machine.epoch_setup_cycles
        clocks: Dict[int, int] = {}
        heap: List = []
        busy = 0
        for rank, (proc, extra, n_events) in enumerate(tasks):
            start = base + machine.task_dispatch_cycles * rank
            breakdown["dispatch"] += start - global_time
            stall = stalls.get(proc, 0)
            breakdown["reset_stall"] += stall
            start += stall
            clocks[proc] = start
            if not n_events:
                continue
            if gaps is not None:
                start += gaps[rank][0]
            if rows[rank]:
                heap.append((start, proc, rank, 0))
            else:
                clocks[proc] = start + extra
                busy += extra
        heapq.heapify(heap)

        locks: Dict[int, _LockState] = {}
        heappop, heappushpop = heapq.heappop, heapq.heappushpop
        access = self._access
        key = heappop(heap) if heap else None
        while key is not None:
            clock, proc, rank, idx = key
            task = rows[rank]
            if idx >= 0:
                kind, addr, site, work, shared, in_critical, lock = task[idx]
                clock += work
                busy += work
            else:
                # A LOCK retried after a spin: its work is already charged.
                idx = ~idx
                kind, addr, site, work, shared, in_critical, lock = task[idx]
            if kind < KIND_LOCK:
                clock += access(proc, kind, addr, site, shared, in_critical)
            else:
                clock, done = self._sync(kind, lock, proc, rank, clock,
                                         locks, clocks)
                if not done:
                    clocks[proc] = clock
                    key = heappushpop(heap, (clock, proc, rank, ~idx))
                    continue
            clocks[proc] = clock
            idx += 1
            if gaps is not None:
                clock += gaps[rank][idx]
            if idx < len(task):
                key = heappushpop(heap, (clock, proc, rank, idx))
            else:
                extra = tasks[rank][1]
                clocks[proc] = clock + extra
                busy += extra
                key = heappop(heap) if heap else None
        breakdown["busy"] += busy

        held = [lock for lock, state in locks.items() if state.held]
        if held:
            raise SimulationError(f"epoch {epoch.index} ended with locks held: {held}")

        return self._end_epoch(epoch, global_time, base, clocks,
                               reads_before, misses_before)

    def _hot_rows(self, epoch):
        """The rows each task replays through the heap, and the ``gaps``
        around them (see :meth:`_run_epoch`).  Every event is hot here."""
        return [epoch.rows(rank) for rank in range(epoch.n_tasks)], None

    def _sync(self, kind: int, lock: int, proc: int, rank: int, clock: int,
              locks: Dict[int, "_LockState"], clocks: Dict[int, int]):
        """Run a LOCK or UNLOCK of task ``rank`` at ``clock``.  Returns
        ``(clock, done)``: a LOCK on a held lock is not done, and retries
        at the returned clock."""
        breakdown = self.result.breakdown
        state = locks.setdefault(lock, _LockState())
        if kind == KIND_UNLOCK:
            if not state.held or state.holder != proc:
                raise SimulationError(
                    f"processor {proc} released lock {lock} it "
                    "does not hold (mis-migrated critical section?)")
            r = self.scheme.release_fence(proc)
            clock += r.latency
            breakdown["sync_stall"] += r.latency
            self.result.note_traffic(r.read_words, r.write_words,
                                     r.coherence_words)
            self._epoch_words += r.total_words
            state.held = False
            state.holder = -1
            state.holder_rank = -1
            state.free_time = clock
            return clock, True
        if state.held and state.holder_rank == rank:
            raise SimulationError(
                f"processor {proc} re-acquired lock {lock} it "
                "already holds: no one can release it")
        if state.held:
            # Spin: jump past the holder's current position and retry.
            waited = max(clock + _LOCK_RETRY_CYCLES,
                         clocks.get(state.holder, clock) + 1) - clock
            breakdown["sync_stall"] += waited
            state.spins += 1
            if state.spins > 10 ** 6:
                raise SimulationError(
                    f"processor {proc} spun on lock {lock} "
                    "a million times: probable deadlock")
            return clock + waited, False
        waited = max(clock, state.free_time) - clock
        acquire = self.network.control_latency()
        breakdown["sync_stall"] += waited + acquire
        state.held = True
        state.holder = proc
        state.holder_rank = rank
        self.result.extra["lock_acquires"] = (
            self.result.extra.get("lock_acquires", 0) + 1)
        return clock + waited + acquire, True

    def _end_epoch(self, epoch, global_time: int, base: int,
                   clocks: Dict[int, int], reads_before: int,
                   misses_before: int) -> int:
        """The barrier closing an epoch: drain the scheme, charge barrier
        idle time, feed the network model, record the epoch; returns the
        epoch's end time.  ``clocks`` maps each participating processor
        to its finishing clock."""
        machine = self.machine
        result = self.result
        breakdown = result.breakdown
        barrier_words = self.scheme.end_epoch(epoch.write_key)
        for _proc, words in barrier_words.items():
            if words:
                result.note_traffic(0, words, 0)
                self._epoch_words += words
        self.shadow.barrier()

        end_time = max(clocks.values(), default=global_time)
        end_time = max(end_time, base)
        # Barrier idle: participating processors wait for the slowest one;
        # processors with no task in this epoch idle through all of it.
        for proc_clock in clocks.values():
            breakdown["barrier_idle"] += end_time - proc_clock
        breakdown["barrier_idle"] += ((machine.n_procs - len(clocks))
                                      * (end_time - global_time))
        epoch_cycles = max(1, end_time - global_time)
        self.network.observe_epoch(self._epoch_words, epoch_cycles,
                                   machine.network_smoothing)
        if machine.record_epochs:
            result.epoch_records.append(EpochRecord(
                index=epoch.index, parallel=epoch.parallel,
                label=epoch.label, cycles=epoch_cycles,
                reads=result.reads - reads_before,
                read_misses=result.read_misses - misses_before,
                words_injected=self._epoch_words,
                network_load=self.network.rho))
        return end_time

    def _access(self, proc: int, is_write: bool, addr: int, site: int,
                shared: bool, in_critical: bool = False) -> int:
        """One READ or WRITE through the scheme's exact per-event path,
        with the engine's accounting; returns the processor-visible
        latency.

        The one per-event access routine: the reference heap, the fast
        engine's fallback and hot-event paths, and the batch kernels'
        exact events all go through it.
        """
        if is_write:
            r = self.scheme.write(proc, addr, site, shared, in_critical)
        else:
            r = self.scheme.read(proc, addr, site, shared, in_critical)
        return self._account(is_write, shared, r)

    def _account(self, is_write: bool, shared: bool, r) -> int:
        """Account one access's :class:`AccessResult`; returns its
        latency.  Every path that runs a scheme transition accounts it
        here, so all of them account an access identically."""
        result = self.result
        breakdown = result.breakdown
        latency = r.latency
        if is_write:
            if latency > self._hit_latency:
                # Only a stalling consistency model produces this.
                breakdown["write_stall"] += latency
            else:
                breakdown["busy"] += latency
            result.note_write(shared)
        else:
            kind = r.kind
            if kind is _HIT:
                breakdown["busy"] += latency
            else:
                breakdown["read_stall"] += latency
            result.note_read(shared, kind, latency)
        read_words, write_words = r.read_words, r.write_words
        coherence_words = r.coherence_words
        if read_words or write_words or coherence_words:
            result.note_traffic(read_words, write_words, coherence_words)
            self._epoch_words += read_words + write_words + coherence_words
        return latency

    def _collect_scheme_extras(self) -> None:
        self.result.resets = self.scheme.resets
        self.result.reset_invalidations = self.scheme.reset_invalidations
        self.result.extra.update(self.scheme.extras())


DEFAULT_ENGINE = "fast"


def resolve_engine(machine: MachineConfig) -> str:
    """Resolve a machine's ``engine`` field to a concrete engine name.

    ``"auto"`` defers to the ``REPRO_ENGINE`` environment variable and
    then to :data:`DEFAULT_ENGINE`; the engines are differentially
    tested to produce bit-identical results (tests/test_engine_parity.py,
    tests/test_gang.py), so the choice affects wall-clock only.
    """
    import os

    choice = machine.engine
    if choice == "auto":
        choice = os.environ.get("REPRO_ENGINE", "") or DEFAULT_ENGINE
    if choice not in ENGINE_NAMES:
        raise SimulationError(
            f"unknown engine {choice!r}; choose from "
            f"{', '.join(ENGINE_NAMES)} or auto")
    return choice


def make_engine(trace: ColumnarTrace, marking: Marking,
                machine: MachineConfig, scheme_name: str) -> Engine:
    """Instantiate the engine selected by ``machine.engine``/``REPRO_ENGINE``.

    ``"fast"`` gives a :class:`~repro.sim.fastengine.FastEngine` for
    every configuration; one with no batch kernel falls back on every
    epoch, and its result still reads ``engine == "fast"``.

    The config-axis sharing of fast runs lives in
    :func:`repro.sim.gang.prime_group`, which :func:`repro.sim.gang.run_gang`
    applies to a whole group before its members reach this call.
    """
    if resolve_engine(machine) == "fast":
        from repro.sim.fastengine import FastEngine

        return FastEngine(trace, marking, machine, scheme_name)
    return Engine(trace, marking, machine, scheme_name)
