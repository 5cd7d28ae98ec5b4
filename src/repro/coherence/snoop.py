"""Bus-snooping MSI: the classic write-back invalidation baseline.

The state machine is the canonical three-state snooping protocol of
SNIPPETS.md §2: every cache watches the bus, a line is Modified
(resident + dirty, provably the only copy), Shared (resident + clean),
or Invalid.  A read miss (``BusRd``) is snooped by a dirty holder, who
flushes the line and demotes to Shared; a write to a Shared copy
(``BusUpgr``) invalidates every other holder without moving data; a
write miss (``BusRdX``) does both.  There is **no directory** — sharers
are found by the snoop itself, so evictions are silent (no replacement
hints) and a dirty eviction writes the line back.

This is the small-machine comparison point the paper's large-scale
argument starts from: broadcast snooping gives the same sharing misses
as the full-map directory (invalidations classified with the same
Tullsen-Eggers used-word criterion) without the directory's storage,
but every coherence action is a broadcast.  Dirty misses are serviced
cache-to-cache (counted in ``extras``), the snoop adding one control
crossing like the directory's 4-hop forward.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.coherence.api import AccessResult, CoherenceScheme, SimContext
from repro.common.config import ConsistencyModel
from repro.common.errors import ProtocolError
from repro.common.stats import MissKind
from repro.memsys.cache import Cache, CacheWay
from repro.memsys.lazystate import LazyList

_REASON_TRUE = 1
_REASON_FALSE = 2


class SnoopBusScheme(CoherenceScheme):
    name = "snoop"
    batch_hot_rule = "directory"
    batch_evict_coupled = True
    # Snooping finds sharers on the bus: no timetags, no write buffer
    # (writes hit in M or stall for the bus transaction), no directory,
    # no leases.
    config_dead_fields = ("tpi", "write_buffer", "directory", "tardis")

    def extras(self) -> Dict[str, int]:
        return {"invalidations_sent": self.invalidations_sent,
                "false_invalidations": self.false_invalidations,
                "cache_to_cache_transfers": self.cache_to_cache_transfers}

    def directory_hot_lines(self, lines):
        """Lines with a Modified copy are order-sensitive even read-read:
        the first reader's snoop demotes the owner and is serviced
        cache-to-cache."""
        out = []
        for line_addr in lines:
            if self._dirty_holder(int(line_addr)) is not None:
                out.append(int(line_addr))
        return out

    def make_batch_kernel(self):
        from repro.coherence.batch import SnoopBatchKernel

        return SnoopBatchKernel.build(self)

    def __init__(self, ctx: SimContext):
        super().__init__(ctx)
        machine = self.machine
        self.caches: LazyList = LazyList(machine.n_procs,
                                         lambda _p: Cache(machine.cache))
        self.line_words = machine.cache.line_words
        self.seen_lines: LazyList = LazyList(machine.n_procs, lambda _p: set())
        self.inval_reason: LazyList = LazyList(machine.n_procs,
                                               lambda _p: dict())
        self.invalidations_sent = 0
        self.false_invalidations = 0
        self.cache_to_cache_transfers = 0

    # -------------------------------------------------------------- plumbing

    def _holders(self, line_addr: int) -> List[int]:
        """Every processor whose snoop would assert "shared" for the line."""
        return [proc for proc, cache in self.caches.materialized()
                if cache.probe(line_addr) is not None]

    def _dirty_holder(self, line_addr: int) -> Optional[int]:
        for proc, cache in self.caches.materialized():
            loc = cache.probe(line_addr)
            if loc is not None and cache.dirty[loc]:
                return proc
        return None

    def _invalidate_holders(self, line_addr: int, word: int,
                            skip: int) -> AccessResult:
        """Invalidate every snooped copy except ``skip``'s; classify each."""
        out = AccessResult(latency=0, kind=MissKind.HIT)
        for target in self._holders(line_addr):
            if target == skip:
                continue
            cache = self.caches[target]
            loc = cache.probe(line_addr)
            assert loc is not None
            used_word = bool(cache.used[loc[0], loc[1], word])
            reason = _REASON_TRUE if used_word else _REASON_FALSE
            self.inval_reason[target][line_addr] = reason
            self.invalidations_sent += 1
            if reason == _REASON_FALSE:
                self.false_invalidations += 1
            if cache.dirty[loc]:
                out.coherence_words += self.line_words  # dirty data returns
            cache.invalidate_line(loc)
            out.coherence_words += 2  # invalidate + ack
        return out

    def _fill(self, cache: Cache, proc: int, line_addr: int,
              result: AccessResult, probed: Optional[CacheWay]) -> CacheWay:
        """``probed``: the caller's probe result (see ``Cache.install``)."""
        loc, evicted, dirty = cache.install(line_addr, probed)
        if evicted is not None and dirty:
            result.write_words += 1 + self.line_words  # silent write-back
        s, w = loc
        base = cache.line_base(line_addr)
        cache.version[s, w, :] = self.shadow.version[base:base + self.line_words]
        result.read_words += 1 + self.line_words
        self.seen_lines[proc].add(line_addr)
        return loc

    def _miss_kind(self, proc: int, line_addr: int) -> MissKind:
        reason = self.inval_reason[proc].pop(line_addr, None)
        if reason == _REASON_TRUE:
            return MissKind.TRUE_SHARING
        if reason == _REASON_FALSE:
            return MissKind.FALSE_SHARING
        if line_addr in self.seen_lines[proc]:
            return MissKind.REPLACEMENT
        return MissKind.COLD

    # -------------------------------------------------------------- accesses

    def read(self, proc: int, addr: int, site: int, shared: bool,
             in_critical: bool) -> AccessResult:
        cache = self.caches[proc]
        line_addr, _, word = cache.split(addr)
        loc = cache.probe(line_addr)
        if loc is not None:
            cache.touch(loc)
            cache.used[loc[0], loc[1], word] = True
            version = cache.version.item(*loc, word)
            if shared:
                self._check_read_version(addr, version, exact=True)
            return AccessResult(latency=self.machine.hit_latency,
                                kind=MissKind.HIT, version=version)

        kind = self._miss_kind(proc, line_addr) if shared else (
            MissKind.REPLACEMENT if line_addr in self.seen_lines[proc]
            else MissKind.COLD)
        result = AccessResult(latency=self.network.miss_latency(self.line_words),
                              kind=kind)
        if shared:
            owner = self._dirty_holder(line_addr)
            if owner is not None and owner != proc:
                # BusRd snooped by the M holder: flush + demote to S.
                owner_cache = self.caches[owner]
                owner_loc = owner_cache.probe(line_addr)
                assert owner_loc is not None
                owner_cache.dirty[owner_loc] = False
                result.latency += self.network.control_latency()
                result.coherence_words += 2 + self.line_words  # snoop + flush
                self.cache_to_cache_transfers += 1
        loc = self._fill(cache, proc, line_addr, result, loc)
        cache.used[loc[0], loc[1], word] = True
        result.version = cache.version.item(*loc, word)
        if shared:
            self._check_read_version(addr, result.version, exact=True)
        return result

    def write(self, proc: int, addr: int, site: int, shared: bool,
              in_critical: bool) -> AccessResult:
        cache = self.caches[proc]
        line_addr, _, word = cache.split(addr)
        loc = cache.probe(line_addr)
        if not shared:
            result = AccessResult(latency=self.machine.hit_latency,
                                  kind=MissKind.HIT)
            if loc is None:
                loc = self._fill(cache, proc, line_addr, result, loc)
            version = self.shadow.write(addr, proc)
            s, w = loc
            cache.dirty[s, w] = True
            cache.version[s, w, word] = version
            cache.used[s, w, word] = True
            cache.touch(loc)
            result.version = version
            return result

        result = AccessResult(latency=self.machine.hit_latency, kind=MissKind.HIT)
        sequential = self.machine.consistency is ConsistencyModel.SEQUENTIAL
        if loc is not None and cache.dirty[loc]:
            pass  # silent write hit in M
        elif loc is not None:
            # BusUpgr from S: invalidate every other copy, no data moves.
            inval = self._invalidate_holders(line_addr, word, skip=proc)
            result.coherence_words += inval.coherence_words + 2  # upgrade rt
            if sequential:  # wait for the bus grant
                result.latency += self.network.control_latency()
        else:
            # BusRdX: classify, invalidate everyone, fetch exclusive.
            result.kind = self._miss_kind(proc, line_addr)
            owner = self._dirty_holder(line_addr)
            if owner is not None and owner != proc:
                owner_cache = self.caches[owner]
                owner_loc = owner_cache.probe(line_addr)
                assert owner_loc is not None
                used_word = bool(owner_cache.used[owner_loc[0],
                                                  owner_loc[1], word])
                reason = _REASON_TRUE if used_word else _REASON_FALSE
                self.inval_reason[owner][line_addr] = reason
                self.invalidations_sent += 1
                if reason == _REASON_FALSE:
                    self.false_invalidations += 1
                owner_cache.invalidate_line(owner_loc)
                result.coherence_words += 2 + self.line_words  # flush + inval
                self.cache_to_cache_transfers += 1
            else:
                inval = self._invalidate_holders(line_addr, word, skip=proc)
                result.coherence_words += inval.coherence_words
            loc = self._fill(cache, proc, line_addr, result, loc)
            if sequential:  # the exclusive fetch is on the critical path
                result.latency += self.network.miss_latency(self.line_words)

        version = self.shadow.write(addr, proc)
        s, w = loc
        cache.dirty[s, w] = True
        cache.version[s, w, word] = version
        cache.used[s, w, word] = True
        cache.touch(loc)
        result.version = version
        return result

    # ------------------------------------------------------------ invariants

    def check_invariants(self) -> None:
        """MSI invariants, callable from tests after any access mix."""
        lines = set()
        for _proc, cache in self.caches.materialized():
            lines.update(int(tag) for tag in cache.tags.ravel() if tag != -1)
        for line_addr in lines:
            dirty_holders = []
            holders = []
            for proc, cache in self.caches.materialized():
                loc = cache.probe(line_addr)
                if loc is None:
                    continue
                holders.append(proc)
                if cache.dirty[loc]:
                    dirty_holders.append(proc)
            if len(dirty_holders) > 1:
                raise ProtocolError(
                    f"line {line_addr}: multiple M copies {dirty_holders}")
            if dirty_holders and holders != dirty_holders:
                raise ProtocolError(
                    f"line {line_addr}: M copy at {dirty_holders[0]} "
                    f"coexists with copies at {holders}")
