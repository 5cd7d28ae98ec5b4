"""The execution engine: serial or process-parallel, cache-aware.

:class:`ParallelExecutor` takes a list of :class:`~repro.runtime.jobs.Job`
and returns one :class:`~repro.sim.metrics.SimResult` per job, **in input
order**, regardless of completion order.  The pipeline:

1. finished results are looked up in the artifact cache (parent-side);
2. the remaining jobs are grouped by front-end fingerprint, so each
   distinct (program, machine, params, opts, migration) is compiled and
   traced exactly once no matter how many schemes or sweep cells share it;
3. groups run in-process when ``jobs == 1`` (zero overhead for tests and
   small runs) or across a :class:`concurrent.futures.ProcessPoolExecutor`
   otherwise, with a per-job timeout and one automatic in-process retry
   when a worker crashes;
4. everything computed is written back to the cache.

When a single front end fans out to several back ends/schemes and more
than one worker is available, the front end is prepared parent-side once
and the entries are scattered in gang-sized chunks — one gang per worker,
the columnar buffers shipped once per chunk instead of once per cell
(``simulate_all(jobs=4)`` and ganged-sweep shapes).

Every group runs through :func:`repro.sim.gang.run_gang`: when its
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
    """One pending simulation inside a group: its own back-end machine.

    Entries of one group share the front end (trace + marking) but may
    differ in every back-end machine field — the gang axis — so the
    machine rides on the entry, never on the group's ``PreparedRun``.
    """

    index: int
    scheme: str
    machine: Any
    result_key: str
    label: str


@dataclass
class _GroupWork:
    """One worker unit: a shared front end plus its member simulations."""

    prepare_key: str
    program: Any
    machine: Any
    params: Optional[Dict[str, int]]
    opts: Any
    migration: Any
    entries: List[_Entry]
    cache_root: Optional[str]


@dataclass
class _ScatterWork:
    """Scatter unit: one gang chunk over a parent-prepared front end."""

    prepared: PreparedRun
    entries: List[_Entry]
    cache_root: Optional[str]


def _obtain_prepared(work: _GroupWork, cache: Optional[ArtifactCache],
                     stats: Dict[str, Any]) -> PreparedRun:
    if cache is not None:
        hit = cache.load(KIND_PREPARED, work.prepare_key)
        if hit is not None:
            stats["prepare_hits"] += 1
            return hit
    stats["prepare_misses"] += 1
    stats["traces_generated"] += 1
    prepared = prepare(work.program, work.machine, work.params, work.opts,
                       work.migration)
    phases = stats["phases"]
    phases["compile"] = phases.get("compile", 0.0) + prepared.compile_s
    phases["trace"] = phases.get("trace", 0.0) + prepared.trace_s
    if cache is not None:
        cache.store(KIND_PREPARED, work.prepare_key, prepared)
    return prepared


def _simulate_entries(prepared: PreparedRun,
                      entries: Sequence[_Entry],
                      cache: Optional[ArtifactCache],
                      stats: Dict[str, Any]) -> List[Tuple[int, SimResult]]:
    out: List[Tuple[int, SimResult]] = []
    # Scheme-dead config pruning (Job.fingerprint) makes e.g. every
    # timetag width of an hw cell name the same result key — compute
    # the representative once and share it with the duplicates.
    reps: Dict[str, _Entry] = {}
    unique: List[_Entry] = []
    for entry in entries:
        if entry.result_key not in reps:
            reps[entry.result_key] = entry
            unique.append(entry)
    results = run_gang(prepared, [GangMember(entry.machine, entry.scheme)
                                  for entry in unique], stats)
    walls = stats.pop("member_wall_s")
    computed: Dict[str, SimResult] = {}
    phases = stats["phases"]
    for entry, result, wall in zip(unique, results, walls):
        computed[entry.result_key] = result
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
    for entry in entries:
        if entry is reps[entry.result_key]:
            continue
        result = computed[entry.result_key]
        stats["results_shared"] += 1
        stats["records"].append({
            "label": entry.label, "scheme": entry.scheme,
            "fingerprint": entry.result_key[:12],
            "wall_s": 0.0, "source": "shared",
            "engine": result.engine,
            "worker": os.getpid()})
        out.append((entry.index, result))
    return out


def _new_stats() -> Dict[str, Any]:
    return {"prepare_hits": 0, "prepare_misses": 0, "traces_generated": 0,
            "gang_width": 0, "results_shared": 0, "records": [], "phases": {}}


def _execute_group(work: _GroupWork) -> Tuple[List[Tuple[int, SimResult]], Dict]:
    """Worker entry point: prepare (or load) the front end, run members."""
    cache = ArtifactCache(work.cache_root) if work.cache_root else None
    stats = _new_stats()
    prepared = _obtain_prepared(work, cache, stats)
    return _simulate_entries(prepared, work.entries, cache, stats), stats


def _execute_scatter(work: _ScatterWork) -> Tuple[List[Tuple[int, SimResult]], Dict]:
    """Worker entry point for the scatter path (front end shipped in)."""
    cache = ArtifactCache(work.cache_root) if work.cache_root else None
    stats = _new_stats()
    return _simulate_entries(work.prepared, work.entries, cache, stats), stats


class ParallelExecutor:
    """Runs jobs across processes with caching and deterministic ordering.

    ``jobs=1`` (the default) executes serially in-process — same code
    path, no pool, no pickling.  ``jobs=None`` or ``0`` uses every core.
    ``timeout`` is a per-job wall-clock bound in seconds; ``retries`` is
    the number of automatic in-process retries after a worker crash.
    """

    def __init__(self, jobs: Optional[int] = 1,
                 cache: Optional[ArtifactCache] = None,
                 telemetry: Optional[Telemetry] = None,
                 timeout: Optional[float] = None,
                 retries: int = 1):
        self.n_jobs = effective_jobs(jobs)
        self.cache = cache
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.timeout = timeout
        self.retries = retries

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

        pending: List[Tuple[int, Job]] = []
        for index, job in enumerate(jobs):
            hit = (self.cache.load(KIND_RESULT, job.fingerprint())
                   if self.cache is not None else None)
            if hit is not None:
                telemetry.result_hits += 1
                telemetry.note_job(JobRecord(
                    label=job.label, scheme=job.scheme,
                    fingerprint=job.fingerprint()[:12], wall_s=0.0,
                    source="cache", worker=os.getpid()))
                results[index] = hit
            else:
                telemetry.result_misses += 1
                pending.append((index, job))

        groups = self._build_groups(pending, prepared)
        # Every pending job beyond the first of its group rides a shared
        # front end — the fingerprint-split dedup the gang path builds on.
        telemetry.traces_shared += sum(len(g.entries) - 1 for g in groups)
        # Scatter fans gang chunks (not whole groups) out to the pool, so
        # count work units accordingly or the report under-states worker
        # parallelism.
        units = max(1, len(groups))
        if groups:
            if self.n_jobs <= 1:
                self._run_serial(groups, prepared, results)
            elif len(groups) == 1 and len(groups[0].entries) > 1:
                units = len(groups[0].entries)
                self._run_scatter(groups[0], prepared, results)
            else:
                self._run_pool(groups, prepared, results)

        telemetry.n_workers = max(telemetry.n_workers,
                                  1 if self.n_jobs <= 1 else
                                  min(self.n_jobs, units))
        telemetry.wall_time_s += time.perf_counter() - started
        return [result for result in results]  # type: ignore[misc]

    # ------------------------------------------------------------- internal

    def _build_groups(self, pending: Sequence[Tuple[int, Job]],
                      prepared: Optional[Dict[str, PreparedRun]]) -> List[_GroupWork]:
        cache_root = str(self.cache.root) if self.cache is not None else None
        grouped: Dict[str, _GroupWork] = {}
        order: List[_GroupWork] = []
        for index, job in pending:
            key = job.prepare_fingerprint()
            work = grouped.get(key)
            if work is None:
                work = _GroupWork(prepare_key=key, program=job.program,
                                  machine=job.machine, params=job.params,
                                  opts=job.opts, migration=job.migration,
                                  entries=[], cache_root=cache_root)
                grouped[key] = work
                order.append(work)
            work.entries.append(_Entry(index=index, scheme=job.scheme,
                                       machine=job.machine,
                                       result_key=job.fingerprint(),
                                       label=job.label))
        return order

    def _group_timeout(self, work: _GroupWork) -> Optional[float]:
        if self.timeout is None:
            return None
        return self.timeout * max(1, len(work.entries))

    def _absorb(self, outcome: Tuple[List[Tuple[int, SimResult]], Dict],
                results: List[Optional[SimResult]]) -> None:
        payload, stats = outcome
        self.telemetry.merge_worker(stats)
        for index, result in payload:
            results[index] = result

    def _run_serial(self, groups: Sequence[_GroupWork],
                    prepared: Optional[Dict[str, PreparedRun]],
                    results: List[Optional[SimResult]]) -> None:
        for work in groups:
            self._absorb(self._serial_group(work, prepared), results)

    def _serial_group(self, work: _GroupWork,
                      prepared: Optional[Dict[str, PreparedRun]]
                      ) -> Tuple[List[Tuple[int, SimResult]], Dict]:
        """One group in-process; its front end is dropped on return, so
        a batch holds one front end (and its primed analyses) at a time."""
        stats = _new_stats()
        run = (prepared or {}).get(work.prepare_key)
        if run is None:
            # In-process: reuse self.cache instead of reopening the root.
            run = _obtain_prepared(work, self.cache, stats)
        return _simulate_entries(run, work.entries, self.cache, stats), stats

    def _run_scatter(self, work: _GroupWork,
                     prepared: Optional[Dict[str, PreparedRun]],
                     results: List[Optional[SimResult]]) -> None:
        """One front end, many back ends/schemes: prepare once, fan out.

        Entries split into one contiguous gang chunk per worker, so the
        columnar buffers pickle once per worker (not once per cell) and
        each worker's chunk shares primed analyses in-process.  Contiguity
        matters: the grid is schemes-innermost, so a cell's schemes — and
        neighboring cells, which most often share a cache geometry — land
        in the same chunk.
        """
        stats = _new_stats()
        run = (prepared or {}).get(work.prepare_key)
        if run is None:
            run = _obtain_prepared(work, self.cache, stats)
        self.telemetry.merge_worker(stats)
        # Dedup duplicate result keys parent-side (scheme-dead config
        # pruning): chunk boundaries would otherwise split duplicates
        # across workers and recompute them.
        reps: Dict[str, _Entry] = {}
        entries: List[_Entry] = []
        duplicates: List[_Entry] = []
        for entry in work.entries:
            if entry.result_key in reps:
                duplicates.append(entry)
            else:
                reps[entry.result_key] = entry
                entries.append(entry)
        chunks = max(1, min(self.n_jobs, len(entries)))
        size, rem = divmod(len(entries), chunks)
        units: List[_ScatterWork] = []
        start = 0
        for rank in range(chunks):
            stop = start + size + (1 if rank < rem else 0)
            units.append(_ScatterWork(prepared=run,
                                      entries=entries[start:stop],
                                      cache_root=work.cache_root))
            start = stop
        self._dispatch(_execute_scatter, units, self._chunk_timeout, results)
        for entry in duplicates:
            result = results[reps[entry.result_key].index]
            results[entry.index] = result
            self.telemetry.results_shared += 1
            self.telemetry.note_job(JobRecord(
                label=entry.label, scheme=entry.scheme,
                fingerprint=entry.result_key[:12], wall_s=0.0,
                source="shared", engine=result.engine, worker=os.getpid()))

    def _chunk_timeout(self, unit: _ScatterWork) -> Optional[float]:
        if self.timeout is None:
            return None
        return self.timeout * max(1, len(unit.entries))

    def _run_pool(self, groups: Sequence[_GroupWork],
                  prepared: Optional[Dict[str, PreparedRun]],
                  results: List[Optional[SimResult]]) -> None:
        # Parent-supplied front ends cannot cross the pickle boundary via
        # the cache, so peel those groups off and run them in-process.
        remote: List[_GroupWork] = []
        for work in groups:
            if prepared and work.prepare_key in prepared:
                self._run_serial([work], prepared, results)
            else:
                remote.append(work)
        if remote:
            self._dispatch(_execute_group, remote, self._group_timeout,
                           results)

    def _dispatch(self, fn, units, timeout_for, results) -> None:
        """Submit units to a fresh pool; retry crashed units in-process."""
        workers = min(self.n_jobs, len(units))
        crashed: List[Any] = []
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [(unit, pool.submit(fn, unit)) for unit in units]
                for unit, future in futures:
                    try:
                        self._absorb(future.result(timeout=timeout_for(unit)),
                                     results)
                    except FutureTimeout:
                        for _, other in futures:
                            other.cancel()
                        raise JobTimeoutError(
                            f"job exceeded {self.timeout}s timeout") from None
                    except BrokenProcessPool:
                        raise  # pool is dead; retry everything unfinished
                    except Exception:
                        crashed.append(unit)
        except BrokenProcessPool:
            crashed = [unit for unit in units
                       if self._unfinished(unit, results)]
        for unit in crashed:
            if self.retries <= 0:
                raise SimulationError("worker failed and retries exhausted")
            self.telemetry.retries += 1
            self._absorb(fn(unit), results)

    @staticmethod
    def _unfinished(unit, results) -> bool:
        return any(results[entry.index] is None for entry in unit.entries)


def execute_jobs(jobs: Sequence[Job], n_jobs: Optional[int] = 1,
                 cache: Optional[ArtifactCache] = None,
                 telemetry: Optional[Telemetry] = None,
                 timeout: Optional[float] = None) -> List[SimResult]:
    """One-call convenience: build an executor, run, return ordered results."""
    executor = ParallelExecutor(jobs=n_jobs, cache=cache, telemetry=telemetry,
                                timeout=timeout)
    return executor.run(jobs)
