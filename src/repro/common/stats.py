"""Counters and classification enums shared across the simulator."""

from __future__ import annotations

import enum
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import List


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a sample list.

    The smallest sample with at least ``q`` percent of the sample at or
    below it: rank ``ceil(q / 100 * n)``, clamped to ``[1, n]``.  The
    single implementation shared by the serve telemetry and the serve
    benchmark harness, so both report identical latency quantiles.  Returns
    0.0 for an empty sample.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


class MissKind(enum.Enum):
    """Why a cache access missed (or why a shared access went remote).

    ``TRUE_SHARING`` misses are necessary to maintain coherence; the two
    ``UNNECESSARY_*`` kinds are the avoidable ones the paper compares:
    hardware directories suffer false sharing on multi-word lines, while the
    compiler-directed schemes suffer from conservative compile-time marking.
    """

    HIT = "hit"
    COLD = "cold"
    REPLACEMENT = "replacement"  # capacity / conflict
    TRUE_SHARING = "true_sharing"
    FALSE_SHARING = "false_sharing"  # HW: Tullsen-Eggers classification
    CONSERVATIVE = "conservative"  # TPI/SC: compiler was conservative
    RESET = "reset"  # TPI: invalidated by a two-phase reset
    UNCACHED = "uncached"  # BASE: shared data is never cached

    # Members are singletons compared by identity, so identity hashing is
    # exact; it keeps the per-access counter updates in C (``Enum``'s
    # own ``__hash__`` is a Python-level call).
    __hash__ = object.__hash__

    @property
    def is_miss(self) -> bool:
        return self is not MissKind.HIT

    @property
    def is_unnecessary(self) -> bool:
        """Misses that a perfect oracle would have avoided."""
        return self in (MissKind.FALSE_SHARING, MissKind.CONSERVATIVE)


class TrafficClass(enum.Enum):
    """Network traffic categories (read / write / coherence), in flits."""

    READ = "read"
    WRITE = "write"
    COHERENCE = "coherence"

    __hash__ = object.__hash__  # as for MissKind


@dataclass
class Counter:
    """A bundle of named integer counters with dict-like convenience.

    >>> c = Counter()
    >>> c.add("reads", 2); c.add("reads")
    >>> c["reads"]
    3
    """

    values: dict = field(default_factory=lambda: defaultdict(int))

    def add(self, name: str, amount: int = 1) -> None:
        self.values[name] += amount

    def __getitem__(self, name: str) -> int:
        return self.values.get(name, 0)

    def merge(self, other: "Counter") -> None:
        for name, amount in other.values.items():
            self.values[name] += amount

    def as_dict(self) -> dict:
        return dict(self.values)

    def total(self, prefix: str = "") -> int:
        return sum(v for k, v in self.values.items() if k.startswith(prefix))
