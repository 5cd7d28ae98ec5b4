"""The Two-Phase Invalidation (TPI) scheme — the paper's contribution.

Hardware state per processor: a k-bit **epoch counter** R (all processors
advance in lockstep at epoch barriers), a k-bit **timetag per cache word**,
and a small file of per-shared-array **last-write-epoch registers** W[a]
(the timestamp lineage of Min & Baer [28, 29] the paper builds on).  The
compiler emits, in each epoch's epilogue, updates ``W[a] := R`` for every
array the epoch may write — statically known, identical on every node, so
no interprocessor communication is needed.

Semantics implemented (Section 2.2 of the paper):

* a **write** sets the word's timetag to the current counter value R
  (write-through, write-allocate);
* a **read-miss fill** sets every word of the incoming line to R-1 except
  that the *accessed* word gets R when the compiler proved no same-epoch
  concurrent writer (an ordinary read or timestamp Time-Read); a *strict*
  Time-Read's fill keeps R-1 even on the accessed word, because the fetched
  value may race a concurrent write and must not be endorsed as
  epoch-R-fresh.  This is the paper's "other words get (R counter - 1)"
  rule covering implicit RAW/WAR dependences between concurrent tasks;
* a **normal read** hits on any valid word (the compiler proved freshness);
* a **strict Time-Read** (possible same-epoch writer) hits only on a word
  the task itself produced this epoch: timetag == R;
* a **timestamp Time-Read** hits iff the word was validated strictly after
  the array's last possibly-writing epoch:
  ``(R - tag) mod 2^k <= min(R - W[a], 2^k - 1)``.
  A copy validated inside that window postdates every possible conflicting
  write, so the hit is coherent while inter-task locality across epochs is
  preserved — a processor re-reading data it wrote in the producing epoch
  hits, and loop-invariant data keeps hitting indefinitely;
* arrays with a potential cross-iteration write-write conflict (an
  illegal-DOALL guard) get ``W[a] := R + 1`` so even the writers' own
  copies are re-fetched afterwards;
* inside a **critical section** a Time-Read is a forced miss
  (cache-invalidate + load, as implementable with the MIPS R10000 /
  PowerPC cache ops) and the write buffer drains at lock release;
* when the counter crosses a **phase boundary** (every 2^(k-1) epochs), a
  hardware reset sweep invalidates exactly the words whose k-bit timetags
  lie in the phase being entered.  The sweep bounds every surviving word's
  true age below 2^k, which makes the modular age comparison exact (no
  aliasing) — and it is why small timetags hurt: frequent sweeps destroy
  old-but-still-fresh words, the effect the paper's timetag-width
  sensitivity study measures.

Unnecessary-miss classification: a Time-Read miss whose cached copy was
still current (cached version == memory version) was *compiler
conservatism* (the analogue of the directory scheme's false sharing); one
whose copy was genuinely overwritten is a true-sharing miss.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.coherence.api import AccessResult, CoherenceScheme, SimContext
from repro.coherence.tpi_rules import (
    crossed_phase_bounds,
    fill_tag,
    strict_hit,
    timestamp_hit,
    w_register_update,
)
from repro.common.config import ConsistencyModel, TimetagResetPolicy
from repro.common.errors import SimulationError
from repro.common.stats import MissKind
from repro.compiler.marking import RefMark
from repro.memsys.cache import Cache
from repro.memsys.lazystate import (
    LazyList,
    PerProcWords,
    TouchBitmap,
    UniformStalls,
    dense_state,
)
from repro.memsys.wbuffer import make_write_buffer, wbuffer_extras


class TpiScheme(CoherenceScheme):
    name = "tpi"
    batch_hot_rule = "written"
    # TPI reads its own timetag config and the write-buffer kind; the
    # directory and Tardis-lease parameters are foreign to it.
    config_dead_fields = ("directory", "tardis")

    def __init__(self, ctx: SimContext):
        super().__init__(ctx)
        machine = self.machine
        if ctx.layout is None:
            raise SimulationError("TPI needs the memory layout (W registers)")
        self.caches: LazyList = LazyList(machine.n_procs,
                                         lambda _p: Cache(machine.cache))
        self.wbuffers = LazyList(
            machine.n_procs,
            lambda _p: make_write_buffer(machine.write_buffer))
        self.epoch_index = 0  # unbounded; the k-bit counter is (this mod 2^k)
        self.modulus = machine.tpi.counter_modulus
        self.phase_size = machine.tpi.phase_size
        self.line_words = machine.cache.line_words
        self.touched = TouchBitmap(machine.n_procs, ctx.shadow.total_words)
        self.per_word_tags = machine.tpi.tag_per_word
        self.region_of, self.region_names = ctx.layout.shared_region_table()
        if dense_state():
            # The dense baseline materializes the word-address table the
            # closed-form region lookup replaced.
            self.region_of = self.region_of[np.arange(ctx.shadow.total_words)]
        # W register per shared array: epoch index of the last possibly-
        # writing epoch (compiler-emitted updates; saturating in hardware).
        self.w_regs = np.full(len(self.region_names), -(10 ** 9), dtype=np.int64)
        self.resets = 0
        self.reset_invalidations = 0
        self.time_reads = 0  # dynamic Time-Read executions
        self.time_read_hits = 0
        self.strict_reads = 0

    # ---------------------------------------------------------------- epochs

    def begin_epoch(self, index: int, parallel: bool) -> Dict[int, int]:
        old = self.epoch_index
        self.epoch_index += 1
        stalls: Dict[int, int] = {}
        policy = self.machine.tpi.reset_policy
        if policy is TimetagResetPolicy.TWO_PHASE:
            bounds = crossed_phase_bounds(old, self.epoch_index,
                                          self.modulus, self.phase_size)
            if bounds is not None:
                lo, hi = bounds
                self.resets += 1
                # Every processor stalls for the sweep, but only caches
                # holding words can invalidate any: the sweep itself walks
                # materialized caches (an empty cache resets zero words).
                for _proc, cache in self.caches.materialized():
                    self.reset_invalidations += cache.two_phase_reset(
                        lo, hi, self.modulus)
                return UniformStalls(self.machine.n_procs,
                                     self.machine.tpi.reset_stall_cycles)
        elif policy is TimetagResetPolicy.FLUSH:
            # The R-1 fill rule lets a tag lag its validation time by one
            # epoch, so a flush every 2^k epochs would leave a one-epoch
            # aliasing hole (tag age reaches exactly 2^k = 0 mod 2^k).
            # Flushing every 2^k - 1 epochs closes it; the two-phase sweep
            # needs no such correction because it selects by tag value.
            if self.epoch_index % max(1, self.modulus - 1) == 0:
                self.resets += 1
                for _proc, cache in self.caches.materialized():
                    self.reset_invalidations += cache.flush_all_words()
                return UniformStalls(self.machine.n_procs,
                                     self.machine.tpi.reset_stall_cycles)
        return stalls

    def end_epoch(self, write_key: Optional[int] = None) -> Dict[int, int]:
        # Compiler-emitted epilogue: record which arrays this epoch may have
        # written (racy arrays count as one epoch newer, distrusting even
        # the writers' own copies).
        writes = self.ctx.marking.epoch_writes.get(write_key, {})
        for array, racy in writes.items():
            region = self.region_names.index(array)
            self.w_regs[region] = w_register_update(self.epoch_index, racy)
        return PerProcWords(self.machine.n_procs,
                            {proc: wb.drain()
                             for proc, wb in self.wbuffers.materialized()})

    def release_fence(self, proc: int) -> AccessResult:
        words = self.wbuffers[proc].drain()
        latency = self.network.control_latency() + words
        return AccessResult(latency=latency, kind=MissKind.HIT,
                            write_words=words)

    def extras(self) -> Dict[str, int]:
        out = {"time_reads": self.time_reads,
               "time_read_hits": self.time_read_hits,
               "strict_reads": self.strict_reads}
        out.update(wbuffer_extras(self.wbuffers.materialized_items()))
        return out

    def make_batch_kernel(self):
        from repro.coherence.batch import TpiBatchKernel

        return TpiBatchKernel.build(self)

    # -------------------------------------------------------------- accesses

    def _time_read_hits(self, cache: Cache, s: int, w: int, word: int,
                        addr: int, strict: bool) -> bool:
        """The hardware hit test for a Time-Read on a valid word.

        With per-line tags (``tag_per_word=False``), the line tag records
        the *fill* time — the minimum validation time of the line's words —
        so strict Time-Reads can never hit (the hardware cannot tell which
        word the task itself produced this epoch).
        """
        if not self.per_word_tags:
            if strict:
                return False
            tag = cache.timetag.item(s, w, 0)
        else:
            tag = cache.timetag.item(s, w, word)
        if strict:
            return strict_hit(self.epoch_index, tag, self.modulus)
        region = self.region_of[addr]
        if region < 0:
            return True  # not a shared array (cannot happen for marked reads)
        return timestamp_hit(self.epoch_index, tag,
                             self.w_regs.item(region), self.modulus)

    def read(self, proc: int, addr: int, site: int, shared: bool,
             in_critical: bool) -> AccessResult:
        cache = self.caches[proc]
        line_addr, _, word = cache.split(addr)
        marking = self.ctx.marking
        mark = marking.tpi_mark(site) if shared else RefMark.READ
        strict = mark is RefMark.TIME_READ and marking.is_strict(site)
        loc = cache.probe(line_addr)

        if mark is RefMark.TIME_READ:
            self.time_reads += 1
            if strict:
                self.strict_reads += 1
        hit = False
        if loc is not None:
            s, w = loc
            if cache.word_valid[s, w, word]:
                if mark is RefMark.READ:
                    hit = True
                elif not in_critical:
                    hit = self._time_read_hits(cache, s, w, word, addr,
                                               strict)
                    if hit:
                        self.time_read_hits += 1

        if hit:
            cache.touch(loc)
            cache.used[s, w, word] = True
            version = cache.version.item(s, w, word)
            self.touched[proc, addr] = True
            self._check_read_version(addr, version)
            return AccessResult(latency=self.machine.hit_latency,
                                kind=MissKind.HIT, version=version)

        kind = self._classify_read_miss(cache, loc, word, addr, proc)
        self.touched[proc, addr] = True
        stamp_current = mark is RefMark.READ or not strict
        if loc is not None:
            s, w = self._refresh(cache, loc, line_addr, word, stamp_current)
        else:
            s, w = self._fill(cache, line_addr, word, stamp_current, None)
        version = cache.version.item(s, w, word)
        cache.used[s, w, word] = True
        self._check_read_version(addr, version)
        return AccessResult(latency=self.network.miss_latency(self.line_words),
                            kind=kind, read_words=1 + self.line_words,
                            version=version)

    def write(self, proc: int, addr: int, site: int, shared: bool,
              in_critical: bool) -> AccessResult:
        cache = self.caches[proc]
        line_addr, _, word = cache.split(addr)
        loc = cache.probe(line_addr)
        read_words = 0
        if loc is None:
            # Write-allocate: fetch the line (non-blocking for the CPU).
            loc = self._fill(cache, line_addr, word, False, loc)
            read_words = 1 + self.line_words
        s, w = loc
        version = self.shadow.write(addr, proc)
        cache.word_valid[s, w, word] = True
        if self.per_word_tags:
            # Per-line tags must keep the line's MIN validation time, so a
            # single-word write cannot raise them.
            cache.timetag[s, w, word] = self.epoch_index
        cache.version[s, w, word] = version
        cache.used[s, w, word] = True
        cache.touch(loc)
        self.touched[proc, addr] = True
        # Private data lives in local memory: its write-through costs no
        # network traffic and never stalls.
        write_words = self.wbuffers[proc].note_write(addr) if shared else 0
        latency = self.machine.hit_latency
        if (shared
                and self.machine.consistency is ConsistencyModel.SEQUENTIAL):
            latency = self.network.word_latency()  # write globally performed
        return AccessResult(latency=latency, kind=MissKind.HIT,
                            read_words=read_words, write_words=write_words,
                            version=version)

    # --------------------------------------------------------------- helpers

    def _fill(self, cache: Cache, line_addr: int, accessed_word: int,
              stamp_current: bool, probed):
        """Line fill from memory with the paper's timetag assignment;
        ``probed`` is the caller's probe result (see ``Cache.install``)."""
        loc, _evicted, _dirty = cache.install(line_addr, probed)
        s, w = loc
        base = cache.line_base(line_addr)
        cache.version[s, w, :] = self.shadow.version[base:base + self.line_words]
        cache.timetag[s, w, :] = fill_tag(self.epoch_index, False, stamp_current)
        if self.per_word_tags:
            cache.timetag[s, w, accessed_word] = fill_tag(
                self.epoch_index, True, stamp_current)
        return loc

    def _refresh(self, cache: Cache, loc, line_addr: int, accessed_word: int,
                 stamp_current: bool):
        if not self.per_word_tags:
            # Per-line tags: a refetch is indistinguishable from a fill —
            # the whole line's (single) tag becomes R-1, versions refresh.
            s, w = loc
            base = cache.line_base(line_addr)
            cache.version[s, w, :] = self.shadow.version[
                base:base + self.line_words]
            cache.timetag[s, w, :] = fill_tag(self.epoch_index, False,
                                              stamp_current)
            cache.word_valid[s, w, :] = True
            cache.touch(loc)
            return loc
        """Time-Read word-miss on a line that is already resident.

        The refetched line data is fresh for every word, so each word's
        timetag is raised to R-1 (the fill rule) unless it already holds a
        newer validation — a word the task itself produced this epoch (tag
        R) must NOT be downgraded, or sweeping Time-Reads along a line
        would thrash each other's validations.  Reset-invalidated words are
        revived the same way.
        """
        s, w = loc
        base = cache.line_base(line_addr)
        fresh = self.shadow.version[base:base + self.line_words]
        upgrade = (~cache.word_valid[s, w, :]
                   | (cache.timetag[s, w, :] < self.epoch_index - 1))
        cache.version[s, w, upgrade] = fresh[upgrade]
        cache.timetag[s, w, upgrade] = fill_tag(self.epoch_index, False,
                                                stamp_current)
        cache.word_valid[s, w, :] = True
        cache.version[s, w, accessed_word] = fresh[accessed_word]
        cache.timetag[s, w, accessed_word] = fill_tag(
            self.epoch_index, True, stamp_current)
        cache.touch(loc)
        return loc

    def _classify_read_miss(self, cache: Cache, loc, word: int, addr: int,
                            proc: int) -> MissKind:
        if loc is not None and cache.word_valid[loc[0], loc[1], word]:
            # Valid word, but the timetag failed the Time-Read check (or a
            # critical section forced the miss).
            cached = cache.version.item(*loc, word)
            if cached == self.shadow.read_version(addr):
                return MissKind.CONSERVATIVE
            return MissKind.TRUE_SHARING
        if loc is not None:
            # Line present but the word's valid bit is off: only the
            # two-phase reset clears individual word valid bits.
            return MissKind.RESET
        if self.touched[proc, addr]:
            return MissKind.REPLACEMENT
        return MissKind.COLD
