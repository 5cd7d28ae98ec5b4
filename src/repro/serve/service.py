"""The simulation service: request -> jobs -> (cache | coalesce | pool).

:class:`SimulationService` is the transport-independent core of
``repro serve``.  Each request names a simulation (``simulate``) or a
grid (``sweep``) in the same vocabulary as the CLI; the service expands
it into :class:`~repro.runtime.jobs.Job` objects and answers through a
three-level dedup funnel:

1. **read-through cache** — if every job fingerprint is already in the
   :class:`~repro.runtime.cache.ArtifactCache`, the response is
   assembled without touching the worker pool at all;
2. **in-flight coalescing** — cold requests are keyed by a request
   fingerprint (hash of their job fingerprints); concurrent identical
   requests await one shared future, so a stampede of N costs one
   simulation and N-1 microsecond waits;
3. **dead-field pruning** — :meth:`Job.fingerprint` already collapses
   configs a scheme provably ignores, so equivalent cells inside one
   request share a single simulation in the executor.

Cold requests dispatch onto a bounded thread pool, each running a
:class:`~repro.runtime.executor.ParallelExecutor` configured with the
service's worker count and per-job timeout; the executor's process
fan-out, crash retry and gang priming apply unchanged.  Responses are the
byte-exact CLI ``--json`` payloads (:mod:`repro.serve.payloads`).

Every request is recorded in a bounded job registry (``GET /jobs/<id>``)
and in the service :class:`~repro.runtime.telemetry.Telemetry`
(hit/miss/coalesced counters, p50/p99 latency) surfaced on ``/stats``
and in ``RunReport``.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.coherence import SCHEME_NAMES
from repro.common.config import ENGINE_NAMES, default_machine
from repro.common.errors import ReproError
from repro.runtime import (
    ArtifactCache,
    Job,
    ParallelExecutor,
    Telemetry,
    expand_sweep,
    jobs_for_schemes,
)
from repro.runtime.cache import KIND_RESULT
from repro.serve.payloads import json_bytes, simulate_payload, sweep_payload
from repro.sim.sweep import SweepPoint, sweep_from_specs
from repro.workloads import build_workload, workload_names

JOB_REGISTRY_CAP = 512
"""Finished request records kept for ``GET /jobs/<id>``."""


class ServeError(ReproError):
    """A request-level failure carrying an HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


@dataclass
class ServeConfig:
    """Tunables for one service instance."""

    jobs: int = 1
    """Worker processes per dispatched request (ParallelExecutor jobs)."""
    dispatchers: int = 2
    """Concurrent cold dispatches (thread-pool width); further cold
    requests queue behind these without blocking cached traffic."""
    timeout: Optional[float] = None
    """Per-job wall-clock bound inside the executor (worker processes
    only: with ``jobs == 1`` the executor runs in-process, unbounded)."""


@dataclass
class RequestRecord:
    """One request's lifecycle, addressable via ``GET /jobs/<id>``."""

    id: str
    kind: str
    status: str = "pending"  # pending | running | done | error
    source: str = ""         # hit | coalesced | computed | error
    detach: bool = False
    wall_s: float = 0.0
    error: str = ""
    payload: Optional[bytes] = None

    def to_dict(self, include_result: bool = True) -> Dict[str, Any]:
        out: Dict[str, Any] = {"job": self.id, "kind": self.kind,
                               "status": self.status, "detach": self.detach,
                               "source": self.source,
                               "wall_s": round(self.wall_s, 6)}
        if self.error:
            out["error"] = self.error
        if include_result and self.status == "done" and self.payload:
            out["result"] = json.loads(self.payload.decode())
        return out


@dataclass
class _Parsed:
    """A validated request: its jobs plus the payload builder inputs."""

    kind: str
    jobs: List[Job]
    schemes: Tuple[str, ...]


class SimulationService:
    """Transport-independent request handling (see module docstring)."""

    def __init__(self, cache: Optional[ArtifactCache] = None,
                 config: Optional[ServeConfig] = None,
                 telemetry: Optional[Telemetry] = None):
        self.cache = cache
        self.config = config or ServeConfig()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.started_at = time.time()
        self.dispatched = 0
        """Requests that actually ran simulations (the coalescing
        assertion in CI: duplicates never increment this)."""
        self.requests_by_kind: Dict[str, int] = {"simulate": 0, "sweep": 0}
        self._inflight: Dict[str, asyncio.Future] = {}
        self._records: "OrderedDict[str, RequestRecord]" = OrderedDict()
        self._detached: set = set()
        self._ids = itertools.count(1)
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, self.config.dispatchers),
            thread_name_prefix="repro-serve")

    # -------------------------------------------------------------- parsing

    def _parse_common(self, body: Dict[str, Any], default_schemes,
                      default_size: str) -> Tuple[Any, List[str], str, str]:
        if not isinstance(body, dict):
            raise ServeError(400, "request body must be a JSON object")
        workload = body.get("workload")
        known = workload_names()
        if workload not in known:
            raise ServeError(400, f"unknown workload {workload!r}; choose "
                                  f"from {' '.join(known)}")
        size = body.get("size", default_size)
        schemes = list(body.get("schemes") or default_schemes)
        for scheme in schemes:
            if scheme not in SCHEME_NAMES:
                raise ServeError(400, f"unknown scheme {scheme!r}; choose "
                                      f"from {' '.join(SCHEME_NAMES)}")
        engine = body.get("engine")
        if engine is not None and engine not in ENGINE_NAMES:
            raise ServeError(400, f"unknown engine {engine!r}; choose from "
                                  f"{', '.join(ENGINE_NAMES)}")
        try:
            program = build_workload(workload, size=size)
        except (ReproError, ValueError, KeyError) as exc:
            raise ServeError(400, str(exc)) from None
        return program, schemes, engine

    def parse_simulate(self, body: Dict[str, Any]) -> _Parsed:
        program, schemes, engine = self._parse_common(
            body, ("base", "sc", "tpi", "hw"), "default")
        procs = body.get("procs", 16)
        if not isinstance(procs, int) or procs < 1:
            raise ServeError(400, f"procs must be a positive integer, "
                                  f"got {procs!r}")
        try:
            machine = default_machine().with_(n_procs=procs)
        except ReproError as exc:
            # n_procs above the REPRO_MAX_PROCS cap is a client error, not
            # a server fault: surface the one-line ConfigError as a 400.
            raise ServeError(400, str(exc)) from None
        if engine:
            machine = machine.with_(engine=engine)
        jobs = jobs_for_schemes(program, schemes, machine)
        return _Parsed(kind="simulate", jobs=jobs, schemes=tuple(schemes))

    def parse_sweep(self, body: Dict[str, Any]) -> _Parsed:
        program, schemes, engine = self._parse_common(
            body, ("tpi", "hw"), "small")
        axes = body.get("axes")
        if not axes or not isinstance(axes, list):
            raise ServeError(400, "sweep needs a non-empty 'axes' list, "
                                  "e.g. [\"line=1,4\", \"k=2,8\"]")
        base = default_machine()
        if engine:
            base = base.with_(engine=engine)
        try:
            sweep = sweep_from_specs(program, [str(a) for a in axes],
                                     schemes=schemes, base=base)
        except ValueError as exc:
            raise ServeError(400, str(exc)) from None
        jobs = expand_sweep(sweep)
        return _Parsed(kind="sweep", jobs=jobs, schemes=tuple(schemes))

    # ------------------------------------------------------------- answering

    @staticmethod
    def request_fingerprint(parsed: _Parsed) -> str:
        """The coalescing key: request kind + its job fingerprints.

        Job fingerprints already mix in the cache salt and prune
        scheme-dead config fields, so equivalent requests — including
        ones that only differ in fields their schemes ignore — coalesce.
        """
        text = "|".join([parsed.kind,
                         *[job.fingerprint() for job in parsed.jobs]])
        return hashlib.sha256(text.encode()).hexdigest()

    def _build_payload(self, parsed: _Parsed, results: List[Any],
                       telemetry: Optional[Telemetry]) -> bytes:
        if parsed.kind == "simulate":
            mapping = {job.scheme: result
                       for job, result in zip(parsed.jobs, results)}
            ordered = {scheme: mapping[scheme] for scheme in parsed.schemes}
            return json_bytes(simulate_payload(ordered, telemetry))
        points = [SweepPoint(labels=job.tag, scheme=job.scheme, result=result)
                  for job, result in zip(parsed.jobs, results)]
        return json_bytes(sweep_payload(points, telemetry))

    def _try_cache(self, parsed: _Parsed) -> Optional[List[Any]]:
        """All-results cache probe; ``None`` when any job misses."""
        if self.cache is None:
            return None
        results: List[Any] = []
        for job in parsed.jobs:
            hit = self.cache.load(KIND_RESULT, job.fingerprint())
            if hit is None:
                return None
            results.append(hit)
        return results

    def _run_cold(self, parsed: _Parsed) -> bytes:
        """Blocking path (runs on the dispatch thread pool)."""
        telemetry = Telemetry()
        executor = ParallelExecutor(jobs=self.config.jobs, cache=self.cache,
                                    telemetry=telemetry,
                                    timeout=self.config.timeout)
        results = executor.run(parsed.jobs)
        return self._build_payload(parsed, results, telemetry)

    async def answer(self, kind: str, body: Dict[str, Any],
                     record: Optional[RequestRecord] = None) -> bytes:
        """Resolve one request to its JSON payload bytes."""
        started = time.perf_counter()
        parse = self.parse_simulate if kind == "simulate" else self.parse_sweep
        try:
            parsed = parse(body)
            if record is not None:
                record.status = "running"
            payload, source = await self._resolve(parsed)
        except BaseException as exc:
            self.telemetry.note_request(time.perf_counter() - started,
                                        "error")
            if record is not None:
                record.status = "error"
                record.source = "error"
                record.error = str(exc)
                record.wall_s = time.perf_counter() - started
            raise
        wall = time.perf_counter() - started
        self.requests_by_kind[kind] = self.requests_by_kind.get(kind, 0) + 1
        self.telemetry.note_request(wall, source)
        if record is not None:
            record.status = "done"
            record.source = source
            record.wall_s = wall
            record.payload = payload
        return payload

    async def _resolve(self, parsed: _Parsed) -> Tuple[bytes, str]:
        warm = self._try_cache(parsed)
        if warm is not None:
            # Fresh telemetry: a fully warm answer has no phase timings
            # and zero gang counters, exactly like a warm CLI run — the
            # payload stays byte-identical and deterministic.
            return self._build_payload(parsed, warm, Telemetry()), "hit"
        key = self.request_fingerprint(parsed)
        existing = self._inflight.get(key)
        if existing is not None:
            return await existing, "coalesced"
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        self.dispatched += 1
        try:
            payload = await loop.run_in_executor(self._pool, self._run_cold,
                                                 parsed)
        except BaseException as exc:
            if not future.cancelled():
                future.set_exception(exc)
                future.exception()  # consumed here if nobody coalesced
            raise
        else:
            if not future.cancelled():
                future.set_result(payload)
            return payload, "computed"
        finally:
            self._inflight.pop(key, None)

    # --------------------------------------------------------- job registry

    def new_record(self, kind: str, detach: bool = False) -> RequestRecord:
        record = RequestRecord(id=f"j{next(self._ids):06d}", kind=kind,
                               detach=detach)
        self._records[record.id] = record
        while len(self._records) > JOB_REGISTRY_CAP:
            self._records.popitem(last=False)
        return record

    def get_record(self, job_id: str) -> RequestRecord:
        record = self._records.get(job_id)
        if record is None:
            raise ServeError(404, f"unknown job {job_id!r}")
        return record

    def submit_detached(self, kind: str, body: Dict[str, Any]) -> RequestRecord:
        """Schedule a request in the background; poll ``/jobs/<id>``."""
        record = self.new_record(kind, detach=True)

        async def runner() -> None:
            try:
                await self.answer(kind, body, record)
            except Exception:
                pass  # outcome is recorded on the RequestRecord

        task = asyncio.get_running_loop().create_task(runner())
        self._detached.add(task)
        task.add_done_callback(self._detached.discard)
        return record

    # ----------------------------------------------------------- lifecycle

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for in-flight and detached work; True when fully drained."""
        pending = [future for future in self._inflight.values()
                   if not future.done()]
        pending.extend(task for task in self._detached if not task.done())
        if not pending:
            return True
        done, not_done = await asyncio.wait(pending, timeout=timeout)
        for future in done:
            if not future.cancelled():
                future.exception()  # drained errors are already recorded
        return not not_done

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    # --------------------------------------------------------------- stats

    def stats_payload(self) -> Dict[str, Any]:
        t = self.telemetry
        serve = t.serve_section()
        return {
            "uptime_s": round(time.time() - self.started_at, 3),
            "requests": {
                "total": t.serve_requests,
                **self.requests_by_kind,
                "hits": t.serve_hits,
                "coalesced": t.serve_coalesced,
                "dispatched": self.dispatched,
                "errors": t.serve_errors,
                "inflight": len(self._inflight),
                "hit_rate": round(t.serve_hit_rate, 4),
            },
            "latency": {
                "p50_ms": serve["p50_ms"],
                "p99_ms": serve["p99_ms"],
                "samples": len(t.serve_latency_s),
            },
            "executor": {"jobs": self.config.jobs,
                         "dispatchers": self.config.dispatchers,
                         "timeout_s": self.config.timeout},
            "cache": (None if self.cache is None
                      else {"root": str(self.cache.root)}),
        }
