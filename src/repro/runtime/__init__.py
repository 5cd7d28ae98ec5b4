"""Parallel execution engine with a content-addressed artifact cache.

The single execution substrate behind sweeps, experiments, and
multi-scheme runs::

    from repro.runtime import ArtifactCache, Job, Telemetry, execute_jobs

    jobs = [Job(program, scheme, machine) for scheme in ("tpi", "hw")]
    telemetry = Telemetry()
    results = execute_jobs(jobs, n_jobs=4, cache=ArtifactCache(),
                           telemetry=telemetry)
    print(telemetry.report().render())

Pieces: :mod:`~repro.runtime.jobs` (job descriptions + deterministic
fingerprints), :mod:`~repro.runtime.cache` (on-disk artifact store),
:mod:`~repro.runtime.executor` (serial / process-pool execution),
:mod:`~repro.runtime.telemetry` (counters + run reports), and
:mod:`~repro.runtime.context` (ambient sessions for the experiment
harnesses).
"""

from repro.runtime.cache import (
    ArtifactCache,
    CacheStats,
    CACHE_VERSION,
    cache_salt,
    default_cache_dir,
)
from repro.runtime.context import RuntimeSession, current_session, session
from repro.runtime.executor import (
    JobTimeoutError,
    ParallelExecutor,
    effective_jobs,
    execute_jobs,
)
from repro.runtime.jobs import (
    Job,
    canonical_json,
    expand_sweep,
    jobs_for_schemes,
    program_digest,
)
from repro.runtime.telemetry import (
    JobRecord,
    RunReport,
    Telemetry,
    percentile,
    write_json,
)

__all__ = [
    "ArtifactCache",
    "CACHE_VERSION",
    "CacheStats",
    "Job",
    "JobRecord",
    "JobTimeoutError",
    "ParallelExecutor",
    "RunReport",
    "RuntimeSession",
    "Telemetry",
    "cache_salt",
    "canonical_json",
    "current_session",
    "default_cache_dir",
    "effective_jobs",
    "execute_jobs",
    "expand_sweep",
    "jobs_for_schemes",
    "percentile",
    "program_digest",
    "session",
    "write_json",
]
