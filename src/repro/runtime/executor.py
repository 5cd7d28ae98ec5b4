"""The execution engine: serial or process-parallel, cache-aware.

:class:`ParallelExecutor` takes a list of :class:`~repro.runtime.jobs.Job`
and returns one :class:`~repro.sim.metrics.SimResult` per job, **in input
order**, regardless of completion order.  The pipeline:

1. finished results are looked up in the artifact cache (parent-side);
2. the misses are grouped by front-end fingerprint into work units, so
   each distinct (program, machine, params, opts, migration) is compiled
   and traced exactly once no matter how many schemes or sweep cells
   share it.  A job whose result key repeats an earlier one (scheme-dead
   config pruning) rides that job and is recorded as ``shared``;
3. units run in-process, one at a time, when ``jobs == 1`` (zero
   overhead for tests and small runs), or across a
   :class:`concurrent.futures.ProcessPoolExecutor` otherwise, with a
   per-job timeout and one in-process retry of any unit whose worker
   crashed.  A lone front end with several simulations is prepared
   parent-side and split into one contiguous chunk per worker
   (``simulate_all(jobs=4)`` and ganged-sweep shapes);
4. everything computed is written back to the cache.

Every unit runs through :func:`repro.sim.gang.run_gang`: when its
entries span several distinct back-end machines, the trace-static
per-geometry analyses are built for all of them in one config-axis
broadcast and shared, and then the entries simulate one engine at a
time.  Priming never changes results — every member stays byte-identical
to a solo run — and reference-engine entries bypass it.

The engine is deterministic — a heap over per-processor clocks — so serial
and parallel execution produce bit-identical results; the test suite
enforces this.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import SimulationError
from repro.runtime.cache import ArtifactCache, KIND_PREPARED, KIND_RESULT
from repro.runtime.jobs import Job
from repro.runtime.telemetry import JobRecord, Telemetry
from repro.sim.gang import GangMember, run_gang
from repro.sim.metrics import SimResult
from repro.sim.runner import PreparedRun, prepare


class JobTimeoutError(SimulationError):
    """A simulation job exceeded the executor's per-job timeout."""


def effective_jobs(jobs: Optional[int]) -> int:
    """Resolve a ``--jobs`` value: ``None``/``0`` means all cores."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


@dataclass
class _Entry:
    """One pending simulation inside a unit: its own back-end machine.

    Entries of one unit share the front end (trace + marking) but may
    differ in every back-end machine field — the gang axis — so the
    machine rides on the entry, never on the unit's ``PreparedRun``.
    """

    index: int
    scheme: str
    machine: Any
    result_key: str
    label: str


@dataclass
class _Unit:
    """One work unit: a front end plus the distinct simulations over it.

    The front end is ``prepared`` when the parent already holds it
    (``simulate_all``'s ``prepared=`` or a split); otherwise it is
    loaded from the cache or prepared from the recipe ``job``.
    """

    job: Job
    entries: List[_Entry]
    prepared: Optional[PreparedRun] = None


def _obtain_prepared(unit: _Unit, cache: Optional[ArtifactCache],
                     stats: Dict[str, Any]) -> PreparedRun:
    if unit.prepared is not None:
        return unit.prepared
    key = unit.job.prepare_fingerprint()
    if cache is not None:
        hit = cache.load(KIND_PREPARED, key)
        if hit is not None:
            stats["prepare_hits"] += 1
            return hit
    stats["prepare_misses"] += 1
    stats["traces_generated"] += 1
    job = unit.job
    prepared = prepare(job.program, job.machine, job.params, job.opts,
                       job.migration)
    phases = stats["phases"]
    phases["compile"] = phases.get("compile", 0.0) + prepared.compile_s
    phases["trace"] = phases.get("trace", 0.0) + prepared.trace_s
    if cache is not None:
        cache.store(KIND_PREPARED, key, prepared)
    return prepared


def _new_stats() -> Dict[str, Any]:
    return {"prepare_hits": 0, "prepare_misses": 0, "traces_generated": 0,
            "records": [], "phases": {}}


def _execute_unit(unit: _Unit, cache: Optional[ArtifactCache]
                  ) -> Tuple[List[Tuple[int, SimResult]], Dict]:
    """Run one unit, in-process or as the pool's worker entry point:
    obtain its front end, gang its entries, store their results.

    The front end is dropped on return unless the unit carries it, so a
    serial batch holds one front end (and its primed analyses) at a time.
    """
    stats = _new_stats()
    prepared = _obtain_prepared(unit, cache, stats)
    results = run_gang(prepared, [GangMember(entry.machine, entry.scheme)
                                  for entry in unit.entries], stats)
    walls = stats.pop("member_wall_s")
    phases = stats["phases"]
    out: List[Tuple[int, SimResult]] = []
    for entry, result, wall in zip(unit.entries, results, walls):
        if cache is not None:
            cache.store(KIND_RESULT, entry.result_key, result)
        phases["engine"] = phases.get("engine", 0.0) + wall
        stats["records"].append({
            "label": entry.label, "scheme": entry.scheme,
            "fingerprint": entry.result_key[:12],
            "wall_s": wall, "source": "computed",
            "engine": result.engine,
            "worker": os.getpid()})
        out.append((entry.index, result))
    return out, stats


def _stop_workers(pool: ProcessPoolExecutor) -> None:
    """Terminate a pool's workers: a running future cannot be cancelled,
    and ``shutdown`` would otherwise wait for a hung one to finish."""
    for process in list(pool._processes.values()):
        process.terminate()


class ParallelExecutor:
    """Runs jobs across processes with caching and deterministic ordering.

    ``jobs=1`` (the default) executes serially in-process — same work
    units, no pool, no pickling.  ``jobs=None`` or ``0`` uses every core.
    ``timeout`` is a per-job wall-clock bound in seconds; a unit of n
    jobs may take n times as long.  A unit whose worker crashes is
    retried once in-process.
    """

    def __init__(self, jobs: Optional[int] = 1,
                 cache: Optional[ArtifactCache] = None,
                 telemetry: Optional[Telemetry] = None,
                 timeout: Optional[float] = None):
        self.n_jobs = effective_jobs(jobs)
        self.cache = cache
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.timeout = timeout

    # ------------------------------------------------------------------ API

    def run(self, jobs: Sequence[Job],
            prepared: Optional[Dict[str, PreparedRun]] = None) -> List[SimResult]:
        """Execute every job; results come back in input order.

        ``prepared`` optionally supplies already-built front ends keyed by
        prepare fingerprint (``simulate_all`` passes its ``PreparedRun``
        through here so it is never rebuilt).
        """
        started = time.perf_counter()
        telemetry = self.telemetry
        telemetry.jobs_submitted += len(jobs)
        results: List[Optional[SimResult]] = [None] * len(jobs)

        units: Dict[str, _Unit] = {}
        firsts: Dict[str, int] = {}  # result key -> index that computes it
        shared: List[Tuple[int, Job, str]] = []
        for index, job in enumerate(jobs):
            key = job.fingerprint()
            hit = (self.cache.load(KIND_RESULT, key)
                   if self.cache is not None else None)
            if hit is not None:
                telemetry.result_hits += 1
                telemetry.note_job(JobRecord(
                    label=job.label, scheme=job.scheme, fingerprint=key[:12],
                    wall_s=0.0, source="cache", worker=os.getpid()))
                results[index] = hit
                continue
            telemetry.result_misses += 1
            prepare_key = job.prepare_fingerprint()
            unit = units.get(prepare_key)
            if unit is None:
                unit = units[prepare_key] = _Unit(
                    job, [], (prepared or {}).get(prepare_key))
            else:
                # Every miss beyond a unit's first rides a shared front
                # end — the fingerprint-split dedup the gang path builds on.
                telemetry.traces_shared += 1
            if key in firsts:
                shared.append((index, job, key))
                continue
            firsts[key] = index
            unit.entries.append(_Entry(index=index, scheme=job.scheme,
                                       machine=job.machine, result_key=key,
                                       label=job.label))

        work = list(units.values())
        if self.n_jobs <= 1:
            for unit in work:
                self._absorb(_execute_unit(unit, self.cache), results)
        elif work:
            if len(work) == 1 and len(work[0].entries) > 1:
                work = self._split(work[0])
            self._dispatch(work, results)

        for index, job, key in shared:
            result = results[firsts[key]]
            results[index] = result
            telemetry.results_shared += 1
            telemetry.note_job(JobRecord(
                label=job.label, scheme=job.scheme, fingerprint=key[:12],
                wall_s=0.0, source="shared", engine=result.engine,
                worker=os.getpid()))
        telemetry.n_workers = max(telemetry.n_workers,
                                  min(self.n_jobs, len(work)))
        telemetry.wall_time_s += time.perf_counter() - started
        return [result for result in results]  # type: ignore[misc]

    # ------------------------------------------------------------- internal

    def _absorb(self, outcome: Tuple[List[Tuple[int, SimResult]], Dict],
                results: List[Optional[SimResult]]) -> None:
        payload, stats = outcome
        self.telemetry.merge_worker(stats)
        for index, result in payload:
            results[index] = result

    def _split(self, unit: _Unit) -> List[_Unit]:
        """One front end, many back ends/schemes: prepare once, fan out.

        Entries split into one contiguous chunk per worker, so the
        columnar buffers pickle once per worker (not once per cell) and
        each worker's chunk shares primed analyses in-process.  Contiguity
        matters: the grid is schemes-innermost, so a cell's schemes — and
        neighboring cells, which most often share a cache geometry — land
        in the same chunk.
        """
        stats = _new_stats()
        run = _obtain_prepared(unit, self.cache, stats)
        self.telemetry.merge_worker(stats)
        chunks = min(self.n_jobs, len(unit.entries))
        size, rem = divmod(len(unit.entries), chunks)
        out: List[_Unit] = []
        start = 0
        for rank in range(chunks):
            stop = start + size + (1 if rank < rem else 0)
            out.append(_Unit(unit.job, unit.entries[start:stop], run))
            start = stop
        return out

    def _dispatch(self, units: Sequence[_Unit],
                  results: List[Optional[SimResult]]) -> None:
        """Run units on a fresh pool; retry unfinished units in-process.

        Each unit may take ``timeout`` seconds per entry.  On expiry the
        pool's workers are stopped before :class:`JobTimeoutError` is
        raised, so the error arrives on time and leaves no process behind.
        """
        pool = ProcessPoolExecutor(max_workers=min(self.n_jobs, len(units)))
        try:
            futures = [pool.submit(_execute_unit, unit, self.cache)
                       for unit in units]
            for unit, future in zip(units, futures):
                limit = (None if self.timeout is None
                         else self.timeout * len(unit.entries))
                try:
                    self._absorb(future.result(timeout=limit), results)
                except FutureTimeout:
                    _stop_workers(pool)
                    raise JobTimeoutError(
                        f"job exceeded {self.timeout}s timeout") from None
                except Exception:
                    continue  # retried below; a real error raises there
        except BrokenProcessPool:
            pass  # a worker died while units were being submitted
        finally:
            pool.shutdown(wait=True)
        for unit in units:
            if results[unit.entries[0].index] is None:
                self.telemetry.retries += 1
                self._absorb(_execute_unit(unit, self.cache), results)


def execute_jobs(jobs: Sequence[Job], n_jobs: Optional[int] = 1,
                 cache: Optional[ArtifactCache] = None,
                 telemetry: Optional[Telemetry] = None,
                 timeout: Optional[float] = None) -> List[SimResult]:
    """One-call convenience: build an executor, run, return ordered results."""
    executor = ParallelExecutor(jobs=n_jobs, cache=cache, telemetry=telemetry,
                                timeout=timeout)
    return executor.run(jobs)
