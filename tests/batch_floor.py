"""pytest plugin: let the fast engine batch every epoch it can.

``repro.sim.fastengine._MIN_TASK_EVENTS`` (32 events per task) sends
every smaller epoch to the fallback replay, and generated test programs
are small, so without this plugin most fast-vs-reference parity runs
compare the fallback with itself.  Loaded with ``-p``, this plugin sets
the floor to 1: every epoch that has no synchronization and no two
tasks on one processor batches.  Results must not change.

    python -m pytest -p tests.batch_floor tests/test_engine_parity.py
"""

import repro.sim.fastengine as fastengine


def pytest_configure(config):
    fastengine._MIN_TASK_EVENTS = 1
