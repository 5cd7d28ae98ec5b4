"""The execution-driven simulation engine.

Processors keep local clocks; within an epoch the engine always advances the
processor with the smallest clock (a heap), so cross-processor protocol
interactions (directory invalidations, lock hand-offs) happen in a
plausible, deterministic global order that *depends on the timing* — the
defining property of execution-driven simulation [32].  Epoch boundaries
are barriers: every processor synchronizes to the slowest one, plus the
loop-setup and task-dispatch overheads of Figure 8's simulated scheduling
operations.

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
from repro.trace.events import EventKind, Trace

_LOCK_RETRY_CYCLES = 16
_READ = EventKind.READ
_WRITE = EventKind.WRITE
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

    def __init__(self, trace: Trace, marking: Marking, machine: MachineConfig,
                 scheme_name: str):
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
        machine = self.machine
        stalls = self.scheme.begin_epoch(epoch.index, epoch.parallel)
        self._epoch_words = 0
        breakdown = self.result.breakdown
        reads_before = self.result.reads
        misses_before = self.result.read_misses

        base = global_time + machine.epoch_setup_cycles
        clocks: Dict[int, int] = {}
        heap: List = []
        for rank, task in enumerate(epoch.tasks):
            start = base + machine.task_dispatch_cycles * rank
            breakdown["dispatch"] += start - global_time
            stall = stalls.get(task.proc, 0)
            breakdown["reset_stall"] += stall
            start += stall
            clocks[task.proc] = start
            if task.events:
                heapq.heappush(heap, (start, task.proc, rank, 0))

        locks: Dict[int, _LockState] = {}
        tasks_by_rank = list(epoch.tasks)
        # Compute work is charged once per event, even when a lock spin
        # re-processes the same index.
        work_charged = [-1] * len(tasks_by_rank)
        heappop, heappush = heapq.heappop, heapq.heappush
        access = self._access

        while heap:
            clock, proc, rank, idx = heappop(heap)
            task = tasks_by_rank[rank]
            event = task.events[idx]
            if idx > work_charged[rank]:
                clock += event.work
                breakdown["busy"] += event.work
                work_charged[rank] = idx
            advance = True

            kind = event.kind
            if kind is _READ or kind is _WRITE:
                clock += access(proc, kind is _WRITE, event.addr,
                                event.site, event.shared, event.in_critical)
            elif kind is EventKind.LOCK:
                state = locks.setdefault(event.lock, _LockState())
                if state.held and state.holder_rank == rank:
                    raise SimulationError(
                        f"processor {proc} re-acquired lock {event.lock} it "
                        "already holds: no one can release it")
                if state.held:
                    # Spin: jump past the holder's current position and retry.
                    waited = max(clock + _LOCK_RETRY_CYCLES,
                                 clocks.get(state.holder, clock) + 1) - clock
                    clock += waited
                    breakdown["sync_stall"] += waited
                    advance = False
                    state.spins += 1
                    if state.spins > 10 ** 6:
                        raise SimulationError(
                            f"processor {proc} spun on lock {event.lock} "
                            "a million times: probable deadlock")
                else:
                    waited = max(clock, state.free_time) - clock
                    acquire = self.network.control_latency()
                    clock += waited + acquire
                    breakdown["sync_stall"] += waited + acquire
                    state.held = True
                    state.holder = proc
                    state.holder_rank = rank
                    self.result.extra["lock_acquires"] = (
                        self.result.extra.get("lock_acquires", 0) + 1)
            elif kind is EventKind.UNLOCK:
                state = locks.setdefault(event.lock, _LockState())
                if not state.held or state.holder != proc:
                    raise SimulationError(
                        f"processor {proc} released lock {event.lock} it "
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
            else:  # pragma: no cover - closed enum
                raise SimulationError(f"unknown event kind {kind}")

            clocks[proc] = clock
            next_idx = idx + 1 if advance else idx
            if next_idx < len(task.events):
                heappush(heap, (clock, proc, rank, next_idx))
            elif advance:
                clocks[proc] = clock + task.extra_work
                breakdown["busy"] += task.extra_work

        held = [lock for lock, state in locks.items() if state.held]
        if held:
            raise SimulationError(f"epoch {epoch.index} ended with locks held: {held}")

        return self._end_epoch(epoch, global_time, base, clocks,
                               reads_before, misses_before)

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
        boundary and exact events all go through it.
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


def make_engine(trace: Trace, marking: Marking, machine: MachineConfig,
                scheme_name: str) -> Engine:
    """Instantiate the engine selected by ``machine.engine``/``REPRO_ENGINE``.

    The config-axis sharing of fast runs lives in
    :func:`repro.sim.gang.prime_group`, which :func:`repro.sim.gang.run_gang`
    applies to a whole group before its members reach this call.
    """
    if resolve_engine(machine) == "fast":
        from repro.sim.fastengine import FastEngine

        return FastEngine(trace, marking, machine, scheme_name)
    return Engine(trace, marking, machine, scheme_name)
