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

What the directory shares with the snooping protocol
(:mod:`repro.coherence.snoop`) — the access methods, the classification,
the fill — lives once in :class:`MsiScheme`; each protocol supplies only
its miss and upgrade transitions.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional

import numpy as np

from repro.coherence.api import AccessResult, CoherenceScheme, SimContext
from repro.coherence.sparse import DirectoryStore, DirEntry, hot_exclusive_lines
from repro.common.config import ConsistencyModel
from repro.common.errors import ProtocolError
from repro.common.stats import MissKind
from repro.memsys.cache import Cache, CacheWay
from repro.memsys.lazystate import LazyList

_REASON_TRUE = 1
_REASON_FALSE = 2


class MsiScheme(CoherenceScheme):
    """What the write-back invalidation protocols (``hw``, ``limitless``,
    ``snoop``) share: per-word used bits, Tullsen-Eggers classification,
    and the access methods.

    Each miss or upgrade is split in two.  The *protocol side* —
    :meth:`_read_miss`, :meth:`_write_miss`, :meth:`_upgrade` and
    :meth:`_filled` — moves directory or snoop state, invalidates and
    demotes remote copies, classifies, and prices the access into an
    :class:`AccessResult`; it never looks at the requester's own cache.
    :meth:`read`/:meth:`write` run it and then fill their own cache.  The
    batch kernel (:class:`repro.coherence.batch.MsiBatchKernel`) applies
    the own-cache side with vector operations and then calls the same
    protocol side in program order for every transition another
    processor could observe.  The quiet rest (no other holder, no other
    toucher, no pending invalidation reason) has a closed form in the
    kernel, pinned by the golden digests as the tpi/sc/base kernels' are.
    """

    batch_hot_rule = "directory"
    batch_evict_coupled = True
    # No timetags, no write buffer, no leases; the DirectoryConfig knobs
    # are LimitLess-only.
    config_dead_fields = ("tpi", "write_buffer", "directory", "tardis")

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

    def extras(self) -> Dict[str, int]:
        return {"invalidations_sent": self.invalidations_sent,
                "false_invalidations": self.false_invalidations}

    # ------------------------------------------------------- protocol side

    def _miss_kind(self, proc: int, line_addr: int,
                   shared: bool = True) -> MissKind:
        """Classify a miss; a shared miss consumes the invalidation reason."""
        if shared:
            reason = self.inval_reason[proc].pop(line_addr, None)
            if reason == _REASON_TRUE:
                return MissKind.TRUE_SHARING
            if reason == _REASON_FALSE:
                return MissKind.FALSE_SHARING
        if line_addr in self.seen_lines[proc]:
            return MissKind.REPLACEMENT
        return MissKind.COLD

    def _invalidate_copy(self, target: int, line_addr: int,
                         word: int) -> bool:
        """Invalidate ``target``'s copy of the line, classifying it true or
        false sharing by whether ``target`` used the written word since
        its fill; returns whether the copy was dirty."""
        cache = self.caches[target]
        loc = cache.probe(line_addr)
        if loc is None:
            raise ProtocolError(
                f"proc {target} holds line {line_addr} by the protocol "
                "but its cache has no copy")
        reason = (_REASON_TRUE if cache.used[loc[0], loc[1], word]
                  else _REASON_FALSE)
        self.inval_reason[target][line_addr] = reason
        self.invalidations_sent += 1
        if reason == _REASON_FALSE:
            self.false_invalidations += 1
        dirty = bool(cache.dirty[loc])
        cache.invalidate_line(loc)
        return dirty

    def _invalidate_targets(self, targets, line_addr: int, word: int) -> int:
        """Invalidate each target's copy; returns the coherence words."""
        words = 0
        for target in targets:
            if self._invalidate_copy(target, line_addr, word):
                words += self.line_words  # dirty data returns
            words += 2  # invalidate + ack
        return words

    def _flush_owner(self, owner: int, line_addr: int,
                     result: AccessResult) -> None:
        """A read miss serviced by the dirty owner: it supplies the line,
        writes it back and keeps a clean copy (one extra crossing)."""
        cache = self.caches[owner]
        loc = cache.probe(line_addr)
        if loc is None:
            raise ProtocolError(
                f"owner {owner} of line {line_addr} has no cached copy")
        cache.dirty[loc] = False
        result.latency += self.network.control_latency()
        result.coherence_words += 2 + self.line_words  # forward + data

    def _evict(self, proc: int, evicted: int, result: AccessResult) -> None:
        """Protocol bookkeeping when ``proc`` replaces line ``evicted``
        (a snoop replacement is silent)."""

    def _filled(self, proc: int, line_addr: int, evicted: Optional[int],
                dirty: bool, result: AccessResult) -> None:
        """Protocol side of a fill: the replacement, the line transfer,
        and the seen-line mark (after the miss was classified)."""
        if evicted is not None:
            self._evict(proc, evicted, result)
            if dirty:
                result.write_words += 1 + self.line_words  # write-back
        result.read_words += 1 + self.line_words
        self.seen_lines[proc].add(line_addr)

    @abc.abstractmethod
    def _exclusive(self, proc: int, line_addr: int, cache: Cache,
                   loc: CacheWay) -> bool:
        """Does ``proc``'s resident copy allow a silent write?"""

    @abc.abstractmethod
    def _read_miss(self, proc: int, line_addr: int, word: int,
                   shared: bool) -> AccessResult:
        """Protocol side of a read miss, priced from the miss latency."""

    @abc.abstractmethod
    def _write_miss(self, proc: int, line_addr: int, word: int,
                    shared: bool) -> AccessResult:
        """Protocol side of a write miss (nothing for private data)."""

    @abc.abstractmethod
    def _upgrade(self, proc: int, line_addr: int, word: int) -> AccessResult:
        """A shared write to a resident copy that is not exclusive."""

    # ------------------------------------------------------------ accesses

    def _fill(self, cache: Cache, proc: int, line_addr: int,
              result: AccessResult, probed: Optional[CacheWay]) -> CacheWay:
        """``probed``: the caller's probe result (see ``Cache.install``)."""
        loc, evicted, dirty = cache.install(line_addr, probed)
        s, w = loc
        base = cache.line_base(line_addr)
        cache.version[s, w, :] = self.shadow.version[base:base + self.line_words]
        self._filled(proc, line_addr, evicted, dirty, result)
        return loc

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

        result = self._read_miss(proc, line_addr, word, shared)
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
        if loc is None:
            result = self._write_miss(proc, line_addr, word, shared)
            loc = self._fill(cache, proc, line_addr, result, loc)
        elif shared and not self._exclusive(proc, line_addr, cache, loc):
            result = self._upgrade(proc, line_addr, word)
        else:  # private, or a silent write hit in M
            result = AccessResult(latency=self.machine.hit_latency,
                                  kind=MissKind.HIT)
        version = self.shadow.write(addr, proc)
        s, w = loc
        cache.dirty[s, w] = True
        cache.version[s, w, word] = version
        cache.used[s, w, word] = True
        cache.touch(loc)
        result.version = version
        return result


class FullMapDirectoryScheme(MsiScheme):
    name = "hw"

    def directory_hot_lines(self, lines):
        """Lines in state E are order-sensitive even read-read: the first
        reader pays the 4-hop owner forward and demotes the entry."""
        return hot_exclusive_lines(self.dirstore, lines)

    def make_batch_kernel(self):
        from repro.coherence.batch import DirectoryBatchKernel

        return DirectoryBatchKernel.build(self)

    def __init__(self, ctx: SimContext):
        super().__init__(ctx)
        n_lines = -(-ctx.shadow.total_words // self.line_words)
        self.dirstore = DirectoryStore(n_lines,
                                       self.machine.directory.limitless_pointers)

    # ------------------------------------------------------------- plumbing

    def _entry(self, line_addr: int) -> DirEntry:
        """The line's directory entry, created (state U) on first use."""
        store = self.dirstore
        row = int(store.row_p1[line_addr]) - 1
        if row < 0:
            row = int(store.new_rows([line_addr])[0])
        return DirEntry(store, line_addr, row)

    def _overflow_penalty(self, n_sharers: int) -> int:
        """Hook for the LimitLess subclass; full-map pays nothing."""
        return 0

    def _invalidate_sharers(self, line_addr: int, word: int,
                            skip: int) -> AccessResult:
        """Invalidate every cached copy except ``skip``'s; classify each."""
        entry = self._entry(line_addr)
        targets = (entry.sharers - {skip}) if entry.state == "S" else (
            {entry.owner} - {skip} if entry.state == "E" else set())
        out = AccessResult(latency=self._overflow_penalty(len(targets)),
                           kind=MissKind.HIT)
        out.coherence_words = self._invalidate_targets(sorted(targets),
                                                      line_addr, word)
        entry.sharers -= targets
        if entry.state == "E" and entry.owner in targets:
            entry.owner = -1
            entry.state = "S" if entry.sharers else "U"
        if entry.state == "S" and not entry.sharers:
            entry.state = "U"
        return out

    def _evict(self, proc: int, evicted: int, result: AccessResult) -> None:
        row = int(self.dirstore.row_p1[evicted]) - 1
        if row >= 0:
            entry = DirEntry(self.dirstore, evicted, row)
            entry.sharers.discard(proc)
            if entry.state == "E" and entry.owner == proc:
                entry.owner = -1
                entry.state = "U"
            elif entry.state == "S" and not entry.sharers:
                entry.state = "U"
            result.coherence_words += 1  # replacement hint to the home node

    # ------------------------------------------------------- protocol side

    def _exclusive(self, proc: int, line_addr: int, cache: Cache,
                   loc: CacheWay) -> bool:
        entry = self._entry(line_addr)
        return entry.state == "E" and entry.owner == proc

    def _read_miss(self, proc: int, line_addr: int, word: int,
                   shared: bool) -> AccessResult:
        result = AccessResult(latency=self.network.miss_latency(self.line_words),
                              kind=self._miss_kind(proc, line_addr, shared))
        if shared:
            entry = self._entry(line_addr)
            if entry.state == "E" and entry.owner != proc:
                # 4-hop: forward to the dirty owner, who supplies the data
                # and writes back; both copies become read-shared.
                self._flush_owner(entry.owner, line_addr, result)
                entry.sharers = {entry.owner}
                entry.owner = -1
                entry.state = "S"
            entry.sharers.add(proc)
            if entry.state == "U":
                entry.state = "S"
        return result

    def _write_miss(self, proc: int, line_addr: int, word: int,
                    shared: bool) -> AccessResult:
        result = AccessResult(latency=self.machine.hit_latency,
                              kind=MissKind.HIT)
        if not shared:
            return result
        # Classify, obtain an exclusive copy.
        entry = self._entry(line_addr)
        result.kind = self._miss_kind(proc, line_addr)
        if entry.state == "E" and entry.owner != proc:
            self._invalidate_copy(entry.owner, line_addr, word)
            result.coherence_words += 2 + self.line_words
        elif entry.state == "S":
            inval = self._invalidate_sharers(line_addr, word, skip=proc)
            result.coherence_words += inval.coherence_words
            result.latency += inval.latency
        if self.machine.consistency is ConsistencyModel.SEQUENTIAL:
            # The exclusive fetch is on the critical path.
            result.latency += self.network.miss_latency(self.line_words)
        entry.state = "E"
        entry.owner = proc
        entry.sharers = {proc}
        return result

    def _upgrade(self, proc: int, line_addr: int, word: int) -> AccessResult:
        """Upgrade from read-shared: invalidate the other sharers."""
        inval = self._invalidate_sharers(line_addr, word, skip=proc)
        result = AccessResult(
            latency=self.machine.hit_latency + inval.latency,
            kind=MissKind.HIT,
            coherence_words=inval.coherence_words + 2)  # upgrade round trip
        if self.machine.consistency is ConsistencyModel.SEQUENTIAL:
            result.latency += self.network.control_latency()  # grant + acks
        entry = self._entry(line_addr)
        entry.state = "E"
        entry.owner = proc
        entry.sharers = {proc}
        return result

    # ------------------------------------------------------------ invariants

    def check_invariants(self) -> None:
        """Protocol invariants, callable from tests after any access mix."""
        for line_addr in np.flatnonzero(self.dirstore.row_p1).tolist():
            entry = self._entry(line_addr)
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
