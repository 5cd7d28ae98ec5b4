"""pytest plugin: give every processor of the machine per-processor state.

A scheme holds state (a cache-bank row, write buffers, seen-line sets,
leases) only for the processors its trace runs tasks on, the
``SimContext.procs`` the engines pass.  Loaded with ``-p``, this plugin
makes the engines build their ``SimContext`` with ``procs=None``
instead, so every processor of the machine holds state.  Results must
not change: an idle processor's state is never read.

    python -m pytest -p tests.every_proc_state tests/test_golden.py

:func:`every_proc_state` is the same switch as a context manager, for a
single test.
"""

import contextlib

import repro.sim.engine as engine
from repro.coherence.api import SimContext


def _every_proc_context(*args, procs=None, **kwargs) -> SimContext:
    """``SimContext`` with the trace's processor set dropped."""
    return SimContext(*args, **kwargs)


def enabled() -> bool:
    """Whether the engines currently give every processor state."""
    return engine.SimContext is _every_proc_context


@contextlib.contextmanager
def every_proc_state():
    """Run the body with every processor holding state."""
    saved = engine.SimContext
    engine.SimContext = _every_proc_context
    try:
        yield
    finally:
        engine.SimContext = saved


def pytest_configure(config):
    engine.SimContext = _every_proc_context
