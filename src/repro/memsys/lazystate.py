"""Lazy per-processor state for processor-axis scaling.

At ``n_procs`` in the thousands, almost all processors of a small
workload receive no work: materializing caches, write buffers, touch
bitmaps, or timestamp arrays for every processor makes scheme
construction and per-epoch bookkeeping O(n_procs) (or worse, O(n_procs x
total_words)) regardless of how many processors actually execute events.
The containers here allocate per-processor state on first touch and let
hot loops iterate *materialized* processors only; a processor that never
touched its state is observationally identical to one holding a freshly
constructed (empty) instance, so results stay byte-identical to the
eager layout (docs/PERF.md, "Processor axis").

``REPRO_DENSE_STATE=1`` force-materializes everything at construction —
the pre-sparse behavior — which `benchmarks/bench_scale.py` uses as the
dense baseline for its speedup gate.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from typing import Callable, Dict, Iterator, List, Tuple, TypeVar

import numpy as np

T = TypeVar("T")


def dense_state() -> bool:
    """True when the dense (eager, pre-sparse) state layout is forced."""
    return os.environ.get("REPRO_DENSE_STATE", "") not in ("", "0")


class LazyList(dict):
    """Fixed-length sequence whose items are created on first access.

    ``factory(proc)`` builds the item for one processor.  Indexing is the
    only materializing operation; :meth:`materialized` iterates the
    already-built (proc, item) pairs in processor order, which is what
    epoch-boundary loops (drains, resets, invariant checks) walk instead
    of ``range(n_procs)``.

    The built items live in the dict itself, so indexing a built item —
    done several times per simulated access — is a C-level dict lookup;
    only a first access reaches :meth:`__missing__`.  Length and
    iteration are those of the fixed-length sequence, not of the dict.
    """

    __slots__ = ("_n", "_factory")

    def __init__(self, n: int, factory: Callable[[int], T]):
        super().__init__()
        self._n = n
        self._factory = factory
        if dense_state():
            for proc in range(n):
                self[proc] = factory(proc)

    def __len__(self) -> int:
        return self._n

    def __missing__(self, proc: int) -> T:
        if not 0 <= proc < self._n:
            raise IndexError(proc)
        item = self[proc] = self._factory(proc)
        return item

    def __iter__(self) -> Iterator[T]:
        """Iterate all items, materializing everything (cold paths only)."""
        return (self[proc] for proc in range(self._n))

    def materialized(self) -> List[Tuple[int, T]]:
        return sorted(dict.items(self))

    def materialized_items(self) -> List[T]:
        return [item for _proc, item in self.materialized()]


class UniformStalls(Mapping):
    """A ``{proc: cycles}`` mapping with one value for every processor.

    TPI's two-phase reset stalls *all* processors identically; returning
    this instead of a dict keeps ``begin_epoch`` O(1) while staying
    ``==`` to the dict the eager code built (the engines only call
    ``.get(proc, 0)``).
    """

    __slots__ = ("_n", "_value")

    def __init__(self, n_procs: int, value: int):
        self._n = n_procs
        self._value = value

    def __getitem__(self, proc: int) -> int:
        if not 0 <= proc < self._n:
            raise KeyError(proc)
        return self._value

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))

    def __len__(self) -> int:
        return self._n


class PerProcWords(Mapping):
    """Barrier-drain result: materialized entries, zero elsewhere.

    ``end_epoch`` must answer ``[proc]`` for any valid processor (a
    never-written processor drains zero words), but the engines iterate
    ``.items()`` and skip zeros — so iteration covers only processors
    that actually hold a write buffer, keeping the barrier O(active).
    """

    __slots__ = ("_n", "_entries")

    def __init__(self, n_procs: int, entries: Dict[int, int]):
        self._n = n_procs
        self._entries = entries

    def __getitem__(self, proc: int) -> int:
        if not 0 <= proc < self._n:
            raise KeyError(proc)
        return self._entries.get(proc, 0)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._entries))

    def __len__(self) -> int:
        return len(self._entries)


class TouchBitmap:
    """Per-(processor, word) touch bits, one row of ``bits`` per processor
    of ``procs`` (sorted; every processor when None) — a scheme passes
    its :class:`~repro.memsys.cache.CacheBank`'s, so the batch kernels
    index ``bits`` with the bank's rows.

    Replaces the dense ``(n_procs, total_words)`` bool array — which is
    O(n_procs^2) once private arrays give ``total_words`` an n_procs
    factor.  ``[proc, addr]`` is the per-event path's get/set, a direct
    row access: it sets a bit on every access.
    """

    __slots__ = ("bits", "_rows")

    def __init__(self, n_procs: int, total_words: int, procs=None):
        procs = range(n_procs) if procs is None else procs
        self.bits = np.zeros((len(procs), total_words), dtype=bool)
        self._rows: Dict[int, np.ndarray] = dict(zip(
            np.asarray(procs).tolist(), self.bits))

    def __getitem__(self, key) -> bool:
        proc, addr = key
        return self._rows[proc].item(addr)

    def __setitem__(self, key, value) -> None:
        proc, addr = key
        self._rows[proc][addr] = value


class SparseValues:
    """Per-processor scalars stored as deviations from a shared default.

    Tardis joins every processor's ``pts`` at each barrier, making the
    common case "all processors share one value" — which :meth:`fill`
    restores in O(1) instead of rebuilding an O(n_procs) list.
    """

    __slots__ = ("_n", "_default", "_entries")

    def __init__(self, n_procs: int, default: int = 0):
        self._n = n_procs
        self._default = default
        self._entries: Dict[int, int] = {}

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, proc: int) -> int:
        return self._entries.get(proc, self._default)

    def __setitem__(self, proc: int, value: int) -> None:
        if value == self._default:
            self._entries.pop(proc, None)
        else:
            self._entries[proc] = value

    def fill(self, value: int) -> None:
        """Set every processor to ``value`` (the barrier join)."""
        self._default = value
        self._entries.clear()

    def distinct(self) -> List[int]:
        """The distinct values currently present (order unspecified)."""
        values = set(self._entries.values())
        if len(self._entries) < self._n:
            values.add(self._default)
        return list(values)

    def __iter__(self) -> Iterator[int]:
        return (self[proc] for proc in range(self._n))
