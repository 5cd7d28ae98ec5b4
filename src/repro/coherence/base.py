"""The BASE scheme: shared data is never cached.

This is how users actually ran the Cray T3D and Intel Paragon without
software coherence support: private data is cached normally, every access to
shared data is a remote memory operation.  It is the floor any coherence
scheme must beat.
"""

from __future__ import annotations

from repro.coherence.api import AccessResult, CoherenceScheme, SimContext
from repro.common.config import ConsistencyModel
from repro.common.stats import MissKind
from repro.memsys.cache import Cache
from repro.memsys.lazystate import LazyList, TouchBitmap


class BaseScheme(CoherenceScheme):
    name = "base"
    # Shared accesses never touch a cache and version bumps commute, so no
    # line is order-sensitive within an epoch.
    batch_hot_rule = "none"
    # No timetags, no write buffer, no directory, no leases: BASE bypasses
    # the cache for shared data and reads none of those config subtrees.
    config_dead_fields = ("tpi", "write_buffer", "directory", "tardis")

    def make_batch_kernel(self):
        from repro.coherence.batch import BaseBatchKernel

        return BaseBatchKernel.build(self)

    def __init__(self, ctx: SimContext):
        super().__init__(ctx)
        machine = self.machine
        self.caches: LazyList = LazyList(machine.n_procs,
                                         lambda _p: Cache(machine.cache))
        self.line_words = machine.cache.line_words
        self.touched = TouchBitmap(machine.n_procs, ctx.shadow.total_words)

    def read(self, proc: int, addr: int, site: int, shared: bool,
             in_critical: bool) -> AccessResult:
        if shared:
            version = self.shadow.read_version(addr)
            self._check_read_version(addr, version, exact=True)
            return AccessResult(latency=self.network.word_latency(),
                                kind=MissKind.UNCACHED, read_words=2,
                                version=version)
        return self._private_read(proc, addr)

    def write(self, proc: int, addr: int, site: int, shared: bool,
              in_critical: bool) -> AccessResult:
        version = self.shadow.write(addr, proc)
        if shared:
            # Remote store: buffered under weak consistency (1-cycle issue),
            # a full round trip under sequential consistency.
            latency = self.machine.hit_latency
            if self.machine.consistency is ConsistencyModel.SEQUENTIAL:
                latency = self.network.word_latency()
            return AccessResult(latency=latency,
                                kind=MissKind.UNCACHED, write_words=2,
                                version=version)
        return self._private_write(proc, addr, version)

    # ---------------------------------------------------------- private side

    def _private_read(self, proc: int, addr: int) -> AccessResult:
        cache = self.caches[proc]
        line_addr, _, word = cache.split(addr)
        loc = cache.probe(line_addr)
        if loc is not None and cache.word_valid[loc[0], loc[1], word]:
            cache.touch(loc)
            return AccessResult(latency=self.machine.hit_latency,
                                kind=MissKind.HIT)
        kind = MissKind.REPLACEMENT if self.touched[proc, addr] else MissKind.COLD
        self.touched[proc, addr] = True
        cache.install(line_addr, loc)
        return AccessResult(latency=self.network.miss_latency(self.line_words),
                            kind=kind, read_words=1 + self.line_words)

    def _private_write(self, proc: int, addr: int, version: int) -> AccessResult:
        cache = self.caches[proc]
        line_addr, _, word = cache.split(addr)
        loc = cache.probe(line_addr)
        read_words = 0
        if loc is None:
            loc, _evicted, _dirty = cache.install(line_addr, loc)
            read_words = 1 + self.line_words
        cache.word_valid[loc[0], loc[1], word] = True
        cache.touch(loc)
        self.touched[proc, addr] = True
        # Private data can stay write-back; local-memory traffic is free.
        return AccessResult(latency=self.machine.hit_latency, kind=MissKind.HIT,
                            read_words=read_words, version=version)
