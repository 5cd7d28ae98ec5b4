"""Shadow main memory: word versions for correctness and classification.

The simulator does not track data values; it tracks, per word, a
monotonically increasing *version*, the last writer, and the version as of
the last barrier (epoch start).  This is enough to

* verify coherence safety (a read must never observe a version older than
  the one globally visible at the reader's last synchronization point);
* classify unnecessary misses (a Time-Read miss whose cached version still
  equals the memory version was compiler conservatism, not true sharing).

The address space is O(n_procs) once private arrays get per-processor
copies, so the epoch barrier tracks the addresses written since the last
barrier and republishes only those instead of copying the whole version
array — a simulation that touches a bounded working set pays per-epoch
cost proportional to its writes, not to ``total_words``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.common.errors import SimulationError


class ShadowMemory:
    def __init__(self, total_words: int):
        if total_words <= 0:
            raise SimulationError("shadow memory needs a positive size")
        self.total_words = total_words
        self.version = np.zeros(total_words, dtype=np.int64)
        self.epoch_version = np.zeros(total_words, dtype=np.int64)
        # Last writer, stored as proc+1 so the backing array can stay
        # all-zeros (calloc pages, never committed for untouched spans).
        self._writer_p1 = np.zeros(total_words, dtype=np.int32)
        self._dirty_addrs: List[int] = []
        self._dirty_arrays: List[np.ndarray] = []

    @property
    def last_writer(self) -> np.ndarray:
        """Per-word last writer (-1 = never written); materialized copy
        for diagnostics and tests — not a hot-path accessor."""
        return self._writer_p1.astype(np.int32) - 1

    def write(self, addr: int, proc: int) -> int:
        """Perform a write; returns the new version of the word."""
        version = self.version.item(addr) + 1
        self.version[addr] = version
        self._writer_p1[addr] = proc + 1
        self._dirty_addrs.append(addr)
        return version

    def write_many(self, addrs: np.ndarray, procs) -> None:
        """Vectorized write bump (batch kernels); ``addrs`` may repeat."""
        np.add.at(self.version, addrs, 1)
        self._writer_p1[addrs] = np.asarray(procs) + 1
        if len(addrs):
            self._dirty_arrays.append(np.asarray(addrs))

    def read_version(self, addr: int) -> int:
        return self.version.item(addr)

    def barrier(self) -> None:
        """All writes so far become globally visible (epoch boundary).

        Only the words written since the previous barrier can differ from
        their published versions, so republishing exactly those is
        equivalent to the full-array copy; the dense copy is kept for
        epochs whose write set rivals the address space.
        """
        n_dirty = len(self._dirty_addrs) + sum(a.size
                                               for a in self._dirty_arrays)
        if n_dirty * 4 >= self.total_words:
            np.copyto(self.epoch_version, self.version)
        elif n_dirty:
            parts = list(self._dirty_arrays)
            if self._dirty_addrs:
                parts.append(np.asarray(self._dirty_addrs, dtype=np.int64))
            dirty = parts[0] if len(parts) == 1 else np.concatenate(parts)
            self.epoch_version[dirty] = self.version[dirty]
        self._dirty_addrs.clear()
        self._dirty_arrays.clear()

    def visible_floor(self, addr: int) -> int:
        """Minimum version a coherent read may legally return."""
        return self.epoch_version.item(addr)
