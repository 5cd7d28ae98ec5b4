"""Full-map hardware directory: 3-state (I / read-shared / write-exclusive)
invalidation protocol with write-back caches [8, 3].

This is the paper's hardware comparison point.  Coherence is line-grained,
which is what exposes it to **false sharing** on multi-word lines; misses
caused by invalidations are classified with the Tullsen-Eggers criterion
[34]: an invalidation is *false* if the invalidating write hit a word the
invalidated processor had not used since filling the block, and every
subsequent invalidation miss on that block inherits the classification
until the block is refetched.

Weak consistency: writes never stall the processor (the invalidation /
ownership transaction proceeds in the background and is accounted as
network traffic); reads stall for the full miss path.  A read serviced by a
remote dirty owner pays an extra network crossing (the classic 4-hop
transaction).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.coherence.api import AccessResult, CoherenceScheme, SimContext
from repro.coherence.sparse import DirectoryStore, DirEntry, hot_exclusive_lines
from repro.common.config import ConsistencyModel
from repro.common.errors import ProtocolError
from repro.common.stats import MissKind
from repro.memsys.cache import Cache, CacheWay
from repro.memsys.lazystate import LazyList

_REASON_TRUE = 1
_REASON_FALSE = 2


class FullMapDirectoryScheme(CoherenceScheme):
    name = "hw"
    batch_hot_rule = "directory"
    batch_evict_coupled = True
    # The full-map directory keeps one presence bit per processor — the
    # DirectoryConfig knobs are LimitLess-only — and uses neither timetags,
    # a write buffer, nor leases, so fig15/fig17-style sweeps collapse its
    # column.
    config_dead_fields = ("tpi", "write_buffer", "directory", "tardis")

    def extras(self) -> Dict[str, int]:
        return {"invalidations_sent": self.invalidations_sent,
                "false_invalidations": self.false_invalidations}

    def directory_hot_lines(self, lines):
        """Lines in state E are order-sensitive even read-read: the first
        reader pays the 4-hop owner forward and demotes the entry."""
        return hot_exclusive_lines(self.dirstore, lines)

    def make_batch_kernel(self):
        from repro.coherence.batch import DirectoryBatchKernel

        return DirectoryBatchKernel.build(self)

    def __init__(self, ctx: SimContext):
        super().__init__(ctx)
        machine = self.machine
        self.caches: LazyList = LazyList(machine.n_procs,
                                         lambda _p: Cache(machine.cache))
        self.directory: Dict[int, DirEntry] = {}
        self.line_words = machine.cache.line_words
        n_lines = -(-ctx.shadow.total_words // self.line_words)
        self.dirstore = DirectoryStore(n_lines,
                                       machine.directory.limitless_pointers)
        self.seen_lines: LazyList = LazyList(machine.n_procs, lambda _p: set())
        self.inval_reason: LazyList = LazyList(machine.n_procs,
                                               lambda _p: dict())
        self.invalidations_sent = 0
        self.false_invalidations = 0

    # ------------------------------------------------------------- plumbing

    def _entry(self, line_addr: int) -> DirEntry:
        entry = self.directory.get(line_addr)
        if entry is None:
            entry = DirEntry(self.dirstore, line_addr)
            self.directory[line_addr] = entry
        return entry

    def _overflow_penalty(self, n_sharers: int) -> int:
        """Hook for the LimitLess subclass; full-map pays nothing."""
        return 0

    def _invalidate_sharers(self, line_addr: int, word: int,
                            skip: int) -> AccessResult:
        """Invalidate every cached copy except ``skip``'s; classify each."""
        entry = self._entry(line_addr)
        out = AccessResult(latency=0, kind=MissKind.HIT)
        targets = (entry.sharers - {skip}) if entry.state == "S" else (
            {entry.owner} - {skip} if entry.state == "E" else set())
        out.latency += self._overflow_penalty(len(targets))
        for target in sorted(targets):
            cache = self.caches[target]
            loc = cache.probe(line_addr)
            if loc is None:
                raise ProtocolError(
                    f"directory lists proc {target} for line {line_addr} "
                    "but its cache has no copy")
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
        entry.sharers -= targets
        if entry.state == "E" and entry.owner in targets:
            entry.owner = -1
            entry.state = "S" if entry.sharers else "U"
        if entry.state == "S" and not entry.sharers:
            entry.state = "U"
        return out

    def _evict(self, cache: Cache, proc: int, evicted: Optional[int],
               dirty: bool, result: AccessResult) -> None:
        """Directory bookkeeping for a replacement."""
        if evicted is None:
            return
        entry = self.directory.get(evicted)
        if entry is not None:
            entry.sharers.discard(proc)
            if entry.state == "E" and entry.owner == proc:
                entry.owner = -1
                entry.state = "U"
            elif entry.state == "S" and not entry.sharers:
                entry.state = "U"
            result.coherence_words += 1  # replacement hint to the home node
        if dirty:
            result.write_words += 1 + self.line_words  # write-back

    def _fill(self, cache: Cache, proc: int, line_addr: int,
              result: AccessResult, probed: Optional[CacheWay]) -> CacheWay:
        """``probed``: the caller's probe result (see ``Cache.install``)."""
        loc, evicted, dirty = cache.install(line_addr, probed)
        self._evict(cache, proc, evicted, dirty, result)
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
            entry = self._entry(line_addr)
            if entry.state == "E" and entry.owner != proc:
                # 4-hop: forward to the dirty owner, who supplies the data
                # and writes back; our copy and his become read-shared.
                owner_cache = self.caches[entry.owner]
                owner_loc = owner_cache.probe(line_addr)
                if owner_loc is None:
                    raise ProtocolError(
                        f"directory owner {entry.owner} of line {line_addr} "
                        "has no cached copy")
                owner_cache.dirty[owner_loc] = False
                result.latency += self.network.control_latency()
                result.coherence_words += 2 + self.line_words  # fwd + wb data
                entry.sharers = {entry.owner}
                entry.owner = -1
                entry.state = "S"
            entry.sharers.add(proc)
            if entry.state == "U":
                entry.state = "S"
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

        entry = self._entry(line_addr)
        result = AccessResult(latency=self.machine.hit_latency, kind=MissKind.HIT)

        sequential = self.machine.consistency is ConsistencyModel.SEQUENTIAL
        if loc is not None and entry.state == "E" and entry.owner == proc:
            pass  # silent write hit in M
        elif loc is not None:
            # Upgrade from read-shared: invalidate the other sharers.
            inval = self._invalidate_sharers(line_addr, word, skip=proc)
            result.coherence_words += inval.coherence_words + 2  # upgrade rt
            result.latency += inval.latency
            if sequential:  # wait for the grant + acks
                result.latency += self.network.control_latency()
            entry.state = "E"
            entry.owner = proc
            entry.sharers = {proc}
        else:
            # Write miss: classify, obtain an exclusive copy.
            result.kind = self._miss_kind(proc, line_addr)
            if entry.state == "E" and entry.owner != proc:
                owner_cache = self.caches[entry.owner]
                owner_loc = owner_cache.probe(line_addr)
                if owner_loc is None:
                    raise ProtocolError(
                        f"directory owner {entry.owner} of line {line_addr} "
                        "has no cached copy")
                used_word = bool(owner_cache.used[owner_loc[0],
                                                  owner_loc[1], word])
                reason = _REASON_TRUE if used_word else _REASON_FALSE
                self.inval_reason[entry.owner][line_addr] = reason
                self.invalidations_sent += 1
                if reason == _REASON_FALSE:
                    self.false_invalidations += 1
                owner_cache.invalidate_line(owner_loc)
                result.coherence_words += 2 + self.line_words
            elif entry.state == "S":
                inval = self._invalidate_sharers(line_addr, word, skip=proc)
                result.coherence_words += inval.coherence_words
                result.latency += inval.latency
            loc = self._fill(cache, proc, line_addr, result, loc)
            if sequential:  # the exclusive fetch is on the critical path
                result.latency += self.network.miss_latency(self.line_words)
            entry.state = "E"
            entry.owner = proc
            entry.sharers = {proc}

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
        """Protocol invariants, callable from tests after any access mix."""
        for line_addr, entry in self.directory.items():
            holders = {p for p, cache in self.caches.materialized()
                       if cache.probe(line_addr) is not None}
            if entry.state == "U" and holders:
                raise ProtocolError(f"line {line_addr}: U but cached by {holders}")
            if entry.state == "S" and holders != entry.sharers:
                raise ProtocolError(
                    f"line {line_addr}: sharers {entry.sharers} != holders {holders}")
            if entry.state == "E":
                if holders != {entry.owner}:
                    raise ProtocolError(
                        f"line {line_addr}: E owned by {entry.owner} but "
                        f"cached by {holders}")
            dirty_holders = set()
            for p, cache in self.caches.materialized():
                loc = cache.probe(line_addr)
                if loc is not None and cache.dirty[loc]:
                    dirty_holders.add(p)
            if dirty_holders and entry.state != "E":
                raise ProtocolError(
                    f"line {line_addr}: dirty copies {dirty_holders} in state "
                    f"{entry.state}")
            if len(dirty_holders) > 1:
                raise ProtocolError(
                    f"line {line_addr}: multiple dirty copies {dirty_holders}")
