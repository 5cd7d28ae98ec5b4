"""The software cache-bypass scheme (SC).

SC uses the same compiler analysis as TPI but **no timetag hardware**:
every read the compiler could not prove fresh simply bypasses the cache and
fetches the word from main memory (one word, no allocation), so the stale
cached copy is never observed.  Writes are write-through write-allocate, so
a task's own writes *do* refresh its cache — SC exploits the partial,
write-validated reuse inside a task but no inter-task locality, which is
exactly the limitation the paper's comparison table records for it.
"""

from __future__ import annotations

from typing import Dict

from repro.coherence.api import AccessResult, CoherenceScheme, SimContext
from repro.common.config import ConsistencyModel
from repro.common.stats import MissKind
from repro.compiler.marking import RefMark
from repro.memsys.cache import Cache
from repro.memsys.lazystate import LazyList, PerProcWords, TouchBitmap
from repro.memsys.wbuffer import make_write_buffer, wbuffer_extras


class SoftwareBypassScheme(CoherenceScheme):
    name = "sc"
    batch_hot_rule = "written"
    # Invalidation is index-driven (no timetags, no leases) and there is
    # no directory.
    config_dead_fields = ("tpi", "directory", "tardis")

    def __init__(self, ctx: SimContext):
        super().__init__(ctx)
        machine = self.machine
        self.caches: LazyList = LazyList(machine.n_procs,
                                         lambda _p: Cache(machine.cache))
        self.wbuffers = LazyList(
            machine.n_procs,
            lambda _p: make_write_buffer(machine.write_buffer))
        self.line_words = machine.cache.line_words
        self.touched = TouchBitmap(machine.n_procs, ctx.shadow.total_words)

    def end_epoch(self, write_key=None) -> Dict[int, int]:
        return PerProcWords(self.machine.n_procs,
                            {proc: wb.drain()
                             for proc, wb in self.wbuffers.materialized()})

    def release_fence(self, proc: int) -> AccessResult:
        words = self.wbuffers[proc].drain()
        return AccessResult(latency=self.network.control_latency() + words,
                            kind=MissKind.HIT, write_words=words)

    def extras(self) -> Dict[str, int]:
        return wbuffer_extras(self.wbuffers.materialized_items())

    def make_batch_kernel(self):
        from repro.coherence.batch import ScBatchKernel

        return ScBatchKernel.build(self)

    # -------------------------------------------------------------- accesses

    def read(self, proc: int, addr: int, site: int, shared: bool,
             in_critical: bool) -> AccessResult:
        cache = self.caches[proc]
        line_addr, _, word = cache.split(addr)
        mark = self.ctx.marking.sc_mark(site) if shared else RefMark.READ
        loc = cache.probe(line_addr)

        if mark is RefMark.TIME_READ or (shared and in_critical):
            # Bypass: fetch the word from memory, leave the cache alone.
            kind = self._classify_bypass(cache, loc, word, addr, proc)
            self.touched[proc, addr] = True
            version = self.shadow.read_version(addr)
            self._check_read_version(addr, version)
            return AccessResult(latency=self.network.word_latency(),
                                kind=kind, read_words=2, version=version)

        if loc is not None and cache.word_valid[loc[0], loc[1], word]:
            cache.touch(loc)
            version = cache.version.item(*loc, word)
            self._check_read_version(addr, version)
            return AccessResult(latency=self.machine.hit_latency,
                                kind=MissKind.HIT, version=version)

        kind = MissKind.REPLACEMENT if self.touched[proc, addr] else MissKind.COLD
        self.touched[proc, addr] = True
        new_loc = self._fill(cache, line_addr, loc)
        version = cache.version.item(*new_loc, word)
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
            loc = self._fill(cache, line_addr, loc)
            read_words = 1 + self.line_words
        s, w = loc
        version = self.shadow.write(addr, proc)
        cache.word_valid[s, w, word] = True
        cache.version[s, w, word] = version
        cache.touch(loc)
        self.touched[proc, addr] = True
        write_words = self.wbuffers[proc].note_write(addr) if shared else 0
        latency = self.machine.hit_latency
        if (shared
                and self.machine.consistency is ConsistencyModel.SEQUENTIAL):
            latency = self.network.word_latency()
        return AccessResult(latency=latency, kind=MissKind.HIT,
                            read_words=read_words, write_words=write_words,
                            version=version)

    # --------------------------------------------------------------- helpers

    def _fill(self, cache: Cache, line_addr: int, probed):
        loc, _evicted, _dirty = cache.install(line_addr, probed)
        s, w = loc
        base = cache.line_base(line_addr)
        cache.version[s, w, :] = self.shadow.version[base:base + self.line_words]
        return loc

    def _classify_bypass(self, cache: Cache, loc, word: int, addr: int,
                         proc: int) -> MissKind:
        """Was this forced memory access avoidable?"""
        if loc is not None and cache.word_valid[loc[0], loc[1], word]:
            cached = cache.version.item(*loc, word)
            if cached == self.shadow.read_version(addr):
                return MissKind.CONSERVATIVE
            return MissKind.TRUE_SHARING
        if self.touched[proc, addr]:
            return MissKind.REPLACEMENT
        return MissKind.COLD
