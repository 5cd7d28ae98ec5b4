"""Sparse limited-pointer directory state (the paper's fig5 organization).

The full-map scheme conceptually keeps one presence bit per processor
per memory line — O(P) state per line, the very storage blow-up Figure 5
uses to motivate TPI.  This module stores the directory the way a DIR_i
hardware would: per line, a *state code*, an *owner* and an entry *row*
in dense-by-line columns (what the batch kernels gather), plus up to
``i`` sharer *pointers* in a compact ``(rows, i)`` pool; lines whose
sharer count exceeds the pointer capacity spill to a side table of
Python sets, mirroring the LimitLESS software-handled wide entries (the
functional trap cost stays in :mod:`repro.coherence.limitless` — it is
computed from the sharer *count*, so the storage organization is
result-neutral).

Entries are :class:`DirEntry` proxies writing *through* to the columns,
so the batch kernel reads live arrays and the old O(n_lines) mirror
rebuild/resync machinery disappears entirely.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set

import numpy as np

STATE_U, STATE_S, STATE_E = 0, 1, 2
_CODE_OF = {"U": STATE_U, "S": STATE_S, "E": STATE_E}
_NAME_OF = ("U", "S", "E")


class DirectoryStore:
    """Columnar directory state shared by the scheme and its batch kernel."""

    __slots__ = ("n_lines", "pointers", "state_code", "owner_p1", "row_p1",
                 "ptr_pool", "ptr_len", "overflow", "_rows_used")

    def __init__(self, n_lines: int, pointers: int):
        self.n_lines = n_lines
        self.pointers = max(1, int(pointers))
        # Dense by line; zeros = U/absent and "no owner" (owner is proc+1),
        # so untouched spans never commit memory.
        self.state_code = np.zeros(n_lines, dtype=np.uint8)
        self.owner_p1 = np.zeros(n_lines, dtype=np.int32)
        # One pool row per line that ever had a directory entry; the line's
        # row + 1 (0 = no entry) is the one line -> entry index.
        self.row_p1 = np.zeros(n_lines, dtype=np.int32)
        self.ptr_pool = np.zeros((16, self.pointers), dtype=np.int32)
        self.ptr_len = np.zeros(16, dtype=np.int32)
        self.overflow: Dict[int, Set[int]] = {}
        self._rows_used = 0

    def new_rows(self, lines) -> np.ndarray:
        """Give each of ``lines`` (none of which has an entry) a fresh
        pool row; returns the rows."""
        first = self._rows_used
        self._rows_used = end = first + len(lines)
        size = len(self.ptr_len)
        if end > size:
            while size < end:
                size *= 2
            pool = np.zeros((size, self.pointers), dtype=np.int32)
            pool[:first] = self.ptr_pool[:first]
            lens = np.zeros(size, dtype=np.int32)
            lens[:first] = self.ptr_len[:first]
            self.ptr_pool, self.ptr_len = pool, lens
        rows = np.arange(first, end)
        self.row_p1[lines] = rows + 1
        return rows


class SharerSet:
    """Set-protocol view over one directory entry's sharer pointers."""

    __slots__ = ("_store", "_row")

    def __init__(self, store: DirectoryStore, row: int):
        self._store = store
        self._row = row

    # -- reads ---------------------------------------------------------------

    def __len__(self) -> int:
        spill = self._store.overflow.get(self._row)
        if spill is not None:
            return len(spill)
        return int(self._store.ptr_len[self._row])

    def __bool__(self) -> bool:
        return len(self) > 0

    def __contains__(self, proc: int) -> bool:
        spill = self._store.overflow.get(self._row)
        if spill is not None:
            return proc in spill
        n = int(self._store.ptr_len[self._row])
        return proc + 1 in self._store.ptr_pool[self._row, :n]

    def __iter__(self) -> Iterator[int]:
        spill = self._store.overflow.get(self._row)
        if spill is not None:
            return iter(sorted(spill))
        n = int(self._store.ptr_len[self._row])
        return iter(sorted(int(p) - 1
                           for p in self._store.ptr_pool[self._row, :n]))

    def __eq__(self, other) -> bool:
        if isinstance(other, (set, frozenset, SharerSet)):
            return set(self) == set(other)
        return NotImplemented

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __repr__(self) -> str:
        return f"{{{', '.join(str(p) for p in self)}}}"

    def __sub__(self, other) -> Set[int]:
        return set(self) - set(other)

    # -- writes --------------------------------------------------------------

    def add(self, proc: int) -> None:
        store, row = self._store, self._row
        spill = store.overflow.get(row)
        if spill is not None:
            spill.add(proc)
            return
        n = int(store.ptr_len[row])
        if proc + 1 in store.ptr_pool[row, :n]:
            return
        if n < store.pointers:
            store.ptr_pool[row, n] = proc + 1
            store.ptr_len[row] = n + 1
        else:
            # Pointer overflow: spill to the software-handled wide entry.
            wide = {int(p) - 1 for p in store.ptr_pool[row, :n]}
            wide.add(proc)
            store.overflow[row] = wide
            store.ptr_pool[row, :] = 0
            store.ptr_len[row] = 0

    def discard(self, proc: int) -> None:
        store, row = self._store, self._row
        spill = store.overflow.get(row)
        if spill is not None:
            spill.discard(proc)
            if len(spill) <= store.pointers:
                self._refill(spill)
            return
        n = int(store.ptr_len[row])
        ptrs = store.ptr_pool[row]
        for i in range(n):
            if ptrs[i] == proc + 1:
                ptrs[i] = ptrs[n - 1]
                ptrs[n - 1] = 0
                store.ptr_len[row] = n - 1
                return

    def __isub__(self, other) -> "SharerSet":
        for proc in other:
            self.discard(proc)
        return self

    def _refill(self, procs) -> None:
        """Load ``procs`` (must fit the pointers) into the pool row."""
        store, row = self._store, self._row
        store.overflow.pop(row, None)
        store.ptr_pool[row, :] = 0
        for i, proc in enumerate(sorted(procs)):
            store.ptr_pool[row, i] = proc + 1
        store.ptr_len[row] = len(procs)

    def replace(self, procs) -> None:
        """Become exactly ``procs`` (the ``entry.sharers = {...}`` path)."""
        store, row = self._store, self._row
        procs = set(procs)
        if len(procs) <= store.pointers:
            self._refill(procs)
        else:
            store.ptr_pool[row, :] = 0
            store.ptr_len[row] = 0
            store.overflow[row] = procs


class DirEntry:
    """Directory state of one memory line (write-through proxy).

    Presents the mutable ``state`` / ``sharers`` / ``owner`` face the
    protocol code and tests use, while every write lands in the
    :class:`DirectoryStore` columns the batch kernel gathers.
    """

    __slots__ = ("_store", "_line", "_row")

    def __init__(self, store: DirectoryStore, line: int, row: int):
        self._store = store
        self._line = line
        self._row = row

    @property
    def state(self) -> str:
        return _NAME_OF[self._store.state_code[self._line]]

    @state.setter
    def state(self, value: str) -> None:
        self._store.state_code[self._line] = _CODE_OF[value]

    @property
    def owner(self) -> int:
        return int(self._store.owner_p1[self._line]) - 1

    @owner.setter
    def owner(self, value: int) -> None:
        self._store.owner_p1[self._line] = value + 1

    @property
    def sharers(self) -> SharerSet:
        return SharerSet(self._store, self._row)

    @sharers.setter
    def sharers(self, value) -> None:
        if (isinstance(value, SharerSet) and value._store is self._store
                and value._row == self._row):
            return  # augmented assignment handing the same view back
        SharerSet(self._store, self._row).replace(value)

    def __repr__(self) -> str:
        return (f"DirEntry(state={self.state!r}, sharers={self.sharers!r}, "
                f"owner={self.owner})")


def hot_exclusive_lines(store: DirectoryStore, lines) -> List[int]:
    """The subset of ``lines`` in state E (vectorized gather)."""
    arr = np.asarray(lines, dtype=np.int64)
    if arr.size == 0:
        return []
    return [int(x) for x in arr[store.state_code[arr] == STATE_E]]
