"""A set-associative cache with per-word coherence state.

The paper's TPI hardware extends every cache *word* with a k-bit timetag and
a valid bit; hardware directory schemes need per-line state plus per-word
used-bits (for the Tullsen-Eggers false-sharing classification).  This one
cache structure carries all of it; each coherence scheme uses the fields it
needs and ignores the rest.

State is held in numpy arrays indexed ``[set, way]`` (line granularity) or
``[set, way, word]`` (word granularity), which keeps the per-event Python
work small.  A scheme keeps all its caches in one :class:`CacheBank`:
one array per field with a row per processor the trace uses, each
:class:`Cache` holding views of its own row.  The per-event path sees
plain per-cache arrays; the fast engine's batch kernels gather and
scatter every processor of an epoch with one ``[row, slot]`` index.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.common.config import CacheConfig


#: Location of a line inside the cache: ``(set index, way index)``.  A
#: plain tuple, because the per-event path builds one per access.
CacheWay = Tuple[int, int]

#: ``install``'s default: the caller did not probe, so install probes.
_UNPROBED = object()


class Cache:
    """Per-processor cache; addresses are word addresses.

    Line bookkeeping:

    * ``tags[s, w]`` — line address stored, or -1;
    * ``dirty[s, w]`` — write-back dirty bit (write-back schemes);

    Word bookkeeping:

    * ``word_valid[s, w, i]`` — per-word valid bit (TPI/SC);
    * ``timetag[s, w, i]`` — per-word timetag (TPI);
    * ``version[s, w, i]`` — shadow: the global memory version this cached
      word corresponds to (simulator-only, used for correctness checks and
      unnecessary-miss classification);
    * ``used[s, w, i]`` — referenced by this processor since the line was
      filled (Tullsen-Eggers).
    """

    _FIELDS = ("tags", "dirty", "word_valid", "timetag", "version", "used")

    def __init__(self, config: CacheConfig, bank: "Optional[CacheBank]" = None,
                 row: int = 0):
        """A cache on row ``row`` of ``bank``, or (no bank) on a bank of
        its own."""
        self.config = config
        self.line_words = config.line_words
        self.n_sets = config.n_sets
        self.assoc = config.associativity
        if bank is None:
            bank = CacheBank(config, 1)
        for name in self._FIELDS:
            setattr(self, name, getattr(bank, name)[row])
        # LRU stamps, flat by ``set * assoc + way``.  Only ``victim`` of a
        # set-associative cache reads them, so a direct-mapped cache never
        # stamps; a Python list keeps the per-event stamp cheap.
        self._lru = [0] * (self.n_sets * self.assoc) if self.assoc > 1 else []
        self._tick = 0

    # ------------------------------------------------------------ geometry

    def split(self, addr: int) -> Tuple[int, int, int]:
        """(line address, set index, word offset) of a word address."""
        line = addr // self.line_words
        return line, line % self.n_sets, addr % self.line_words

    def line_base(self, line_addr: int) -> int:
        return line_addr * self.line_words

    # -------------------------------------------------------------- lookup

    def probe(self, line_addr: int) -> Optional[CacheWay]:
        """Locate a line; None on miss.  Does not touch LRU state."""
        set_index = line_addr % self.n_sets
        if self.assoc == 1:
            if self.tags.item(set_index, 0) == line_addr:
                return set_index, 0
            return None
        ways = self.tags[set_index].tolist()
        if line_addr in ways:
            return set_index, ways.index(line_addr)
        return None

    def touch(self, loc: CacheWay) -> None:
        """Record a use for LRU replacement."""
        if self.assoc > 1:
            self._tick += 1
            set_index, way = loc
            self._lru[set_index * self.assoc + way] = self._tick

    def lru_stamps(self, set_index: int) -> list:
        """The set's LRU stamps, one per way (a copy)."""
        assoc = self.assoc
        return self._lru[set_index * assoc:(set_index + 1) * assoc]

    def touch_slots(self, slots, order, span: int) -> None:
        """Batched :meth:`touch` of ``span`` uses: slot ``slots[i]``
        (``set * assoc + way``) was last used at step ``order[i]`` (in
        ``[0, span)``) of them.  Stamps are only ever compared within a
        set, so the steps need only keep program order."""
        if self.assoc > 1:
            lru = self._lru
            tick = self._tick + 1
            for slot, step in zip(slots.tolist(), order.tolist()):
                lru[slot] = tick + step
            self._tick += span

    # ---------------------------------------------------------- fill/evict

    def victim(self, line_addr: int) -> CacheWay:
        """Pick the way a new line will occupy (invalid first, then LRU)."""
        set_index = line_addr % self.n_sets
        assoc = self.assoc
        if assoc == 1:
            return set_index, 0
        ways = self.tags[set_index].tolist()
        if -1 in ways:
            return set_index, ways.index(-1)
        stamps = self._lru[set_index * assoc:(set_index + 1) * assoc]
        return set_index, stamps.index(min(stamps))

    def install(self, line_addr: int, loc=_UNPROBED
                ) -> Tuple[CacheWay, Optional[int], bool]:
        """Install a line, evicting if needed.

        Returns ``(location, evicted line address or None, evicted dirty)``.
        All word-valid bits are set (a fill brings the whole line); timetags,
        versions and used bits are the caller's responsibility.  Installing
        an already-resident line refreshes it in place (never duplicates).
        A caller that just probed passes the probe's result as ``loc``
        (its own cache unchanged since), which saves probing again.
        """
        if loc is _UNPROBED:
            loc = self.probe(line_addr)
        if loc is None:
            loc = self.victim(line_addr)
        s, w = loc
        evicted: Optional[int] = self.tags.item(s, w)
        evicted_dirty = False
        if evicted == -1:
            evicted = None
        else:
            evicted_dirty = self.dirty.item(s, w)
            if evicted == line_addr:
                evicted = None  # in-place refresh, nothing actually left
        self.tags[s, w] = line_addr
        self.dirty[s, w] = False
        self.word_valid[s, w] = True
        self.used[s, w] = False
        self.touch(loc)
        return loc, evicted, evicted_dirty

    # --------------------------------------------------------- invalidation

    def invalidate_line(self, loc: CacheWay) -> None:
        """Coherence invalidation.  Why the copy went (the Tullsen-Eggers
        classification) is protocol state, kept by the scheme."""
        s, w = loc
        self.tags[s, w] = -1
        self.dirty[s, w] = False
        self.word_valid[s, w] = False
        self.used[s, w] = False

    # ------------------------------------------------------------ counters

    @property
    def occupancy(self) -> int:
        return int((self.tags != -1).sum())


class CacheBank:
    """The caches of one scheme as one array per :class:`Cache` field,
    one row per processor of ``procs`` (sorted; every processor when
    None).  The rows are fixed when the scheme is built: a scheme gives
    state only to the processors its trace runs tasks on.

    ``caches`` maps each processor to its :class:`Cache`, a view of its
    row; ``row_of`` maps a processor to its row (-1: none), which is how
    the batch kernels index every processor of an epoch at once.
    """

    def __init__(self, config: CacheConfig, n_procs: int,
                 procs: Optional[Sequence[int]] = None):
        self.config = config
        self.procs = (np.arange(n_procs, dtype=np.int64) if procs is None
                      else np.asarray(procs, dtype=np.int64))
        self.row_of = np.full(n_procs, -1, dtype=np.int64)
        self.row_of[self.procs] = np.arange(len(self.procs))
        shape_line = (len(self.procs), config.n_sets, config.associativity)
        shape_word = shape_line + (config.line_words,)
        self.tags = np.full(shape_line, -1, dtype=np.int64)
        self.dirty = np.zeros(shape_line, dtype=bool)
        self.word_valid = np.zeros(shape_word, dtype=bool)
        self.timetag = np.zeros(shape_word, dtype=np.int64)
        self.version = np.zeros(shape_word, dtype=np.int64)
        self.used = np.zeros(shape_word, dtype=bool)
        self.caches: Dict[int, Cache] = {
            proc: Cache(config, self, row)
            for row, proc in enumerate(self.procs.tolist())}


def two_phase_reset(cache, phase_lo: int, phase_hi: int,
                    modulus: int) -> int:
    """Invalidate every word of ``cache`` (a :class:`Cache` or a whole
    :class:`CacheBank`) whose k-bit timetag lies in [phase_lo, phase_hi]
    (values mod ``modulus``).

    Returns the number of words invalidated.  This is the paper's
    two-phase hardware reset: fired when the epoch counter crosses into
    the phase whose timetag values are about to be recycled.  It bounds
    every surviving word's true age below 2^k, which is what makes the
    hardware's modular age comparisons exact.

    Which tags the sweep selects is the shared pure rule
    :func:`repro.coherence.tpi_rules.reset_selects` (imported lazily:
    the coherence package imports this module at init time).
    """
    from repro.coherence.tpi_rules import reset_selects

    occupied = cache.tags != -1
    lines = np.nonzero(occupied)
    if lines[0].size == 0:
        return 0
    if lines[0].size * 2 >= occupied.size:
        # Dense cache: full-array ops beat gather/scatter indexing.
        mask = (cache.word_valid
                & reset_selects(cache.timetag, phase_lo, phase_hi, modulus)
                & occupied[..., None])
        count = int(mask.sum())
        cache.word_valid[mask] = False
        return count
    # Sparse cache (the common case for the paper's working sets):
    # restrict the modular comparison to the occupied lines.
    mask = cache.word_valid[lines] & reset_selects(
        cache.timetag[lines], phase_lo, phase_hi, modulus)
    count = int(mask.sum())
    if count:
        at, words = np.nonzero(mask)
        cache.word_valid[tuple(axis[at] for axis in lines) + (words,)] = False
    return count


def flush_all_words(cache) -> int:
    """Invalidate every word of ``cache`` (a :class:`Cache` or a whole
    :class:`CacheBank`): the naive wrap-around strategy."""
    count = int((cache.word_valid & (cache.tags != -1)[..., None]).sum())
    cache.word_valid[...] = False
    return count


class TouchBitmap:
    """Per-(processor, word) touch bits, one row of ``bits`` per
    processor of ``procs`` (a scheme passes its :class:`CacheBank`'s, so
    the batch kernels index ``bits`` with the bank's rows).

    A row per busy processor, not per processor of the machine: private
    arrays give ``total_words`` an n_procs factor, so a dense
    ``(n_procs, total_words)`` array would be O(n_procs^2).  ``[proc,
    addr]`` is the per-event path's get/set, a direct row access: it sets
    a bit on every access.
    """

    __slots__ = ("bits", "_rows")

    def __init__(self, procs: Sequence[int], total_words: int):
        self.bits = np.zeros((len(procs), total_words), dtype=bool)
        self._rows: Dict[int, np.ndarray] = dict(zip(
            np.asarray(procs).tolist(), self.bits))

    def __getitem__(self, key) -> bool:
        proc, addr = key
        return self._rows[proc].item(addr)

    def __setitem__(self, key, value) -> None:
        proc, addr = key
        self._rows[proc][addr] = value
