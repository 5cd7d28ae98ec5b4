"""Machine-speed calibration: a fixed reference loop timed beside the work.

The hosts this benchmark runs on share their cores with other tenants.
The same pass can take from 0.8x to 1.3x its usual time depending on
their load, which drifts over minutes.  Timing a fixed pure-Python loop
just before and just after each measured piece of work estimates the
machine's speed at that moment, and ``run.py`` scales every host time
by ``REFERENCE_S`` over the mean of the two probes: seconds at a fixed
reference speed.  The loop is benchmark code, so a change to ``repro``
cannot move it.
"""

from __future__ import annotations

import statistics
import time
from typing import Sequence

PROBE_LOOPS = 100_000
PROBE_REPEATS = 5
REFERENCE_S = 0.0096
"""The loop's typical time on the 2-core x86_64 host the benchmark was
written on (Python 3.11); with it, scaled times read close to that
host's seconds."""


def probe() -> float:
    """Median seconds of ``PROBE_REPEATS`` runs of the reference loop,
    so one interrupted run does not skew the estimate."""
    runs = []
    for _ in range(PROBE_REPEATS):
        started = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        runs.append(time.perf_counter() - started)
    return statistics.median(runs)


def scale(*probes: float) -> float:
    """Factor from host seconds to reference seconds."""
    return REFERENCE_S * len(probes) / sum(probes)


def scaled(seconds: Sequence[float], probes: Sequence[float]):
    """Scale each interval by the probes taken just before and after it
    (``probes`` has one more entry than ``seconds``)."""
    return [s * scale(probes[i], probes[i + 1])
            for i, s in enumerate(seconds)]
