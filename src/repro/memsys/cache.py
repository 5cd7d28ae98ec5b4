"""A set-associative cache with per-word coherence state.

The paper's TPI hardware extends every cache *word* with a k-bit timetag and
a valid bit; hardware directory schemes need per-line state plus per-word
used-bits (for the Tullsen-Eggers false-sharing classification).  This one
cache structure carries all of it; each coherence scheme uses the fields it
needs and ignores the rest.

State is held in numpy arrays indexed ``[set, way]`` (line granularity) or
``[set, way, word]`` (word granularity), which keeps the per-event Python
work small.
"""

from __future__ import annotations

from typing import Optional, Tuple

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

    def __init__(self, config: CacheConfig):
        self.config = config
        self.line_words = config.line_words
        self.n_sets = config.n_sets
        self.assoc = config.associativity
        shape_line = (self.n_sets, self.assoc)
        shape_word = (self.n_sets, self.assoc, self.line_words)
        self.tags = np.full(shape_line, -1, dtype=np.int64)
        self.dirty = np.zeros(shape_line, dtype=bool)
        self.word_valid = np.zeros(shape_word, dtype=bool)
        self.timetag = np.zeros(shape_word, dtype=np.int64)
        self.version = np.zeros(shape_word, dtype=np.int64)
        self.used = np.zeros(shape_word, dtype=bool)
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

    def two_phase_reset(self, phase_lo: int, phase_hi: int,
                        modulus: int) -> int:
        """Invalidate every word whose k-bit timetag lies in
        [phase_lo, phase_hi] (values mod ``modulus``).

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

        sets, ways = np.nonzero(self.tags != -1)
        if sets.size == 0:
            return 0
        if sets.size * 2 >= self.tags.size:
            # Dense cache: full-array ops beat gather/scatter indexing.
            mask = (self.word_valid
                    & reset_selects(self.timetag, phase_lo, phase_hi, modulus)
                    & (self.tags != -1)[:, :, None])
            count = int(mask.sum())
            self.word_valid[mask] = False
            return count
        # Sparse cache (the common case for the paper's working sets):
        # restrict the modular comparison to the occupied lines.
        valid = self.word_valid[sets, ways]
        mask = valid & reset_selects(self.timetag[sets, ways],
                                     phase_lo, phase_hi, modulus)
        count = int(mask.sum())
        if count:
            rows, cols = np.nonzero(mask)
            self.word_valid[sets[rows], ways[rows], cols] = False
        return count

    def flush_all_words(self) -> int:
        """Invalidate every word (the naive wrap-around strategy)."""
        mask = self.word_valid & (self.tags != -1)[:, :, None]
        count = int(mask.sum())
        self.word_valid[:, :, :] = False
        return count

    # ------------------------------------------------------------ counters

    @property
    def occupancy(self) -> int:
        return int((self.tags != -1).sum())
