"""Runtime sessions: an ambient executor for code that can't thread one.

The experiment harnesses call :class:`~repro.experiments.common.Bench`
deep inside 20 per-figure modules; threading ``jobs=``/``cache=`` through
every one of them would be noise.  Instead, ``run_experiment(jobs=4)``
opens a *session* — a context-variable scope carrying one configured
:class:`~repro.runtime.executor.ParallelExecutor` — and ``Bench`` submits
its grid to the active session's executor.  With no session active,
``Bench`` uses a serial executor with no cache: the same path, minus the
workers, the artifact cache and the shared telemetry.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Iterator, Optional

from repro.runtime.cache import ArtifactCache
from repro.runtime.executor import ParallelExecutor
from repro.runtime.telemetry import Telemetry

_ACTIVE: contextvars.ContextVar[Optional["RuntimeSession"]] = \
    contextvars.ContextVar("repro_runtime_session", default=None)


class RuntimeSession:
    """One executor shared by everything inside a ``session()`` scope."""

    def __init__(self, jobs: Optional[int] = 1,
                 cache: Optional[ArtifactCache] = None,
                 telemetry: Optional[Telemetry] = None,
                 timeout: Optional[float] = None):
        self.executor = ParallelExecutor(jobs=jobs, cache=cache,
                                         telemetry=telemetry, timeout=timeout)

    @property
    def telemetry(self) -> Telemetry:
        return self.executor.telemetry

    @property
    def parallel(self) -> bool:
        return self.executor.n_jobs > 1


def current_session() -> Optional[RuntimeSession]:
    """The innermost active session, or ``None``."""
    return _ACTIVE.get()


@contextlib.contextmanager
def session(jobs: Optional[int] = 1,
            cache: Optional[ArtifactCache] = None,
            telemetry: Optional[Telemetry] = None,
            timeout: Optional[float] = None) -> Iterator[RuntimeSession]:
    """Activate a runtime session for the enclosed block."""
    active = RuntimeSession(jobs=jobs, cache=cache, telemetry=telemetry,
                            timeout=timeout)
    token = _ACTIVE.set(active)
    try:
        yield active
    finally:
        _ACTIVE.reset(token)
