"""Word-addressed memory layout for program arrays.

Shared arrays get one aligned allocation; private arrays get one copy
per processor (Fortran-style task-private storage), so they still occupy
cache space and can conflict with shared data in the simulated caches.

Allocation alignment is the *fixed* :data:`LAYOUT_ALIGN_WORDS`, not the
simulated cache line size: like a real allocator, the layout is a
property of the program, so one trace serves every back-end cache
geometry a sweep simulates over it (the gang path in docs/PERF.md).
Lines wider than the alignment may straddle array boundaries, exactly as
they do on hardware.

Private copies of one array are laid out back to back, so every copy's
base is ``base0 + copy * stride`` with a fixed per-array stride.  The
layout therefore stores one record per *array* and computes addresses in
closed form — construction, pickling, and region lookups are O(arrays),
not O(arrays x n_procs), which is what lets ``n_procs`` reach 16384
without materializing a per-copy address map (see docs/PERF.md).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Tuple

import numpy as np

from repro.common.errors import SimulationError
from repro.ir.program import Array, Program, Sharing

#: Allocation alignment in words — matches the paper's default 4-word
#: (16-byte) line.  Deliberately independent of ``CacheConfig.line_words``
#: so traces are invariant across back-end cache sweeps.
LAYOUT_ALIGN_WORDS = 4


def _align_up(value: int, align: int) -> int:
    return (value + align - 1) // align * align


class RegionTable:
    """Closed-form word-address -> array-region lookup.

    Replaces the dense O(total_words) table: allocation spans are disjoint
    and sorted by base, so a searchsorted over per-array spans answers
    vectorized queries (and a bisect answers a Python-int address); addresses in alignment padding map to
    -1 exactly as the dense table did.  Every per-processor copy of a
    private array maps to the same region (offsets within a span reduce
    modulo the copy stride).
    """

    __slots__ = ("names", "_starts", "_spans", "_strides", "_sizes",
                 "_start_list", "_records")

    def __init__(self, starts: np.ndarray, spans: np.ndarray,
                 strides: np.ndarray, sizes: np.ndarray, names: List[str]):
        self.names = names
        self._starts = starts
        self._spans = spans
        self._strides = strides
        self._sizes = sizes
        # Python-int copies for the scalar lookup the per-event path makes.
        self._start_list = starts.tolist()
        self._records = list(zip(starts.tolist(), spans.tolist(),
                                 strides.tolist(), sizes.tolist()))

    def __getitem__(self, addr):
        if isinstance(addr, int):
            pos = bisect_right(self._start_list, addr) - 1
            if pos < 0:
                return -1
            start, span, stride, size = self._records[pos]
            off = addr - start
            return pos if off < span and off % stride < size else -1
        a = np.asarray(addr)
        if not self._starts.size:
            empty = np.full(a.shape, -1, dtype=np.int32)
            return empty if a.ndim else -1
        pos = np.searchsorted(self._starts, a, side="right") - 1
        clipped = np.maximum(pos, 0)
        off = a - self._starts[clipped]
        inside = ((pos >= 0) & (off < self._spans[clipped])
                  & (off % self._strides[clipped] < self._sizes[clipped]))
        region = np.where(inside, clipped, -1).astype(np.int32)
        return region if a.ndim else int(region)


class MemoryLayout:
    """Assigns base word addresses to every (array, processor) instance."""

    def __init__(self, program: Program, n_procs: int,
                 line_words: int = LAYOUT_ALIGN_WORDS):
        self.n_procs = n_procs
        self.line_words = line_words
        self._arrays: Dict[str, Array] = dict(program.arrays)
        # name -> (base of copy 0, stride between copies, copy count)
        self._specs: Dict[str, Tuple[int, int, int]] = {}
        cursor = 0
        for array in program.arrays.values():
            copies = 1 if array.sharing is Sharing.SHARED else n_procs
            base0 = _align_up(cursor, line_words)
            stride = _align_up(array.size_words, line_words)
            self._specs[array.name] = (base0, stride, copies)
            cursor = base0 + (copies - 1) * stride + array.size_words
        self.total_words = _align_up(cursor, line_words)

    def base(self, array: str, proc: int = 0) -> int:
        arr = self._arrays[array]
        base0, stride, copies = self._specs[array]
        if arr.sharing is Sharing.SHARED:
            return base0
        if not 0 <= proc < copies:
            raise KeyError((array, proc))
        return base0 + proc * stride

    def addr_of(self, array: str, indices: Tuple[int, ...], proc: int = 0) -> int:
        """Word address of ``array[indices]`` (row-major), bounds-checked.

        Multi-word elements return their first word; the element occupies
        ``element_words`` consecutive words from there.
        """
        arr = self._arrays[array]
        flat = 0
        for index, extent in zip(indices, arr.shape):
            if not 0 <= index < extent:
                raise SimulationError(
                    f"subscript {indices} out of bounds for {array}{arr.shape}")
            flat = flat * extent + index
        return self.base(array, proc) + flat * arr.element_words

    def owner_region(self, array: str) -> Tuple[int, int]:
        """(base, size_words) of the shared allocation, for diagnostics."""
        arr = self._arrays[array]
        return self.base(array, 0), arr.size_words

    def shared_region_table(self) -> Tuple[RegionTable, List[str]]:
        """Word-address -> array-index lookup (for per-array state).

        Returns ``(region_of, names)``: ``region_of[addr]`` is the index of
        the array containing the word, ``names[i]`` its name.  Private
        arrays are included — every per-processor copy maps to the same
        region — because under task migration their storage becomes
        cross-processor-visible and the TPI W registers must cover them.
        """
        names: List[str] = []
        starts: List[int] = []
        spans: List[int] = []
        strides: List[int] = []
        sizes: List[int] = []
        for name, (base0, stride, copies) in self._specs.items():
            array = self._arrays[name]
            names.append(name)
            starts.append(base0)
            spans.append((copies - 1) * stride + array.size_words)
            strides.append(stride)
            sizes.append(array.size_words)
        table = RegionTable(np.asarray(starts, dtype=np.int64),
                            np.asarray(spans, dtype=np.int64),
                            np.asarray(strides, dtype=np.int64),
                            np.asarray(sizes, dtype=np.int64), names)
        return table, names

    def array_of_addr(self, addr: int) -> str:
        """Reverse lookup for debugging (closed-form; not on hot paths)."""
        for name, (base0, stride, copies) in self._specs.items():
            off = addr - base0
            span = (copies - 1) * stride + self._arrays[name].size_words
            if 0 <= off < span and off % stride < self._arrays[name].size_words:
                return name
        raise SimulationError(f"address {addr} maps to no array")
