"""Write-update directory protocol (Firefly/Dragon-style with memory
update).

The paper remarks that the write-cache technique it proposes for TPI's
redundant writes "can also be employed to remove redundant write traffic
for update-based coherence protocols" [10] — which only makes sense with
an update protocol to apply it to, so one is provided.

Semantics: lines are never exclusive.  A read miss fetches the line and
joins the sharer set; a write updates the local copy, writes through to
memory, and sends the word to every other sharer, which patches its copy
in place — no invalidations, hence no false sharing and no true-sharing
*misses* at all: sharing costs show up purely as update traffic.  Writes
are buffered (weak consistency); with the coalescing buffer, updates merge
between synchronization points and each surviving word is broadcast once
at the drain — the redundant-write removal the paper alludes to.

Under sequential consistency each write instead stalls for the update
round trip.

Simplification: the per-word update of remote copies is applied at drain
time for the coalescing buffer and immediately for the FIFO buffer; both
orders are legal under weak consistency (and the simulator's per-read
version oracle checks the result continuously).
"""

from __future__ import annotations

from typing import Dict, Optional, Set


from repro.coherence.api import AccessResult, CoherenceScheme, SimContext
from repro.common.config import ConsistencyModel, WriteBufferKind
from repro.common.errors import ProtocolError
from repro.common.stats import MissKind
from repro.memsys.cache import Cache
from repro.memsys.lazystate import LazyList, PerProcWords
from repro.memsys.wbuffer import WRITE_MESSAGE_WORDS


class UpdateDirectoryScheme(CoherenceScheme):
    name = "update"
    batch_hot_rule = "written"
    batch_evict_coupled = True
    # Updates push data directly; no timetags, no leases, and no sharer
    # directory config (the write-buffer kind *is* read: coalescing
    # merges updates).
    config_dead_fields = ("tpi", "directory", "tardis")

    def extras(self) -> Dict[str, int]:
        out = {"updates_sent": self.updates_sent,
               "buffered_writes": self.total_writes}
        if self.merged_writes:
            out["merged_writes"] = self.merged_writes
        return out

    def make_batch_kernel(self):
        from repro.coherence.batch import UpdateBatchKernel

        return UpdateBatchKernel.build(self)

    def __init__(self, ctx: SimContext):
        super().__init__(ctx)
        machine = self.machine
        self.caches: LazyList = LazyList(machine.n_procs,
                                         lambda _p: Cache(machine.cache))
        self.sharers: Dict[int, Set[int]] = {}  # line -> procs with a copy
        self.line_words = machine.cache.line_words
        self.seen_lines: LazyList = LazyList(machine.n_procs, lambda _p: set())
        # Coalescing state: per processor, the words pending broadcast.
        self.coalescing = machine.write_buffer is WriteBufferKind.COALESCING
        self.pending: LazyList = LazyList(machine.n_procs, lambda _p: set())
        self.updates_sent = 0
        self.merged_writes = 0
        self.total_writes = 0

    # ---------------------------------------------------------------- epochs

    def end_epoch(self, write_key: Optional[int] = None) -> Dict[int, int]:
        drained = {proc: self._drain(proc)
                   for proc, _pending in self.pending.materialized()}
        return PerProcWords(self.machine.n_procs, drained)

    def release_fence(self, proc: int) -> AccessResult:
        words = self._drain(proc)
        return AccessResult(latency=self.network.control_latency() + words,
                            kind=MissKind.HIT, write_words=words)

    def _drain(self, proc: int) -> int:
        """Broadcast the pending (merged) updates of one processor."""
        words = 0
        for addr in sorted(self.pending[proc]):
            words += self._broadcast(proc, addr)
        self.pending[proc].clear()
        return words

    def _broadcast(self, writer: int, addr: int) -> int:
        """Send one word (at its *current* memory version) to memory and to
        every sharer; returns the network words injected.

        The writer's own copy is refreshed too: if several processors wrote
        the word between synchronization points (a racy program), whichever
        drain runs last leaves every copy at the final version, so all
        caches converge at the barrier.
        """
        line_addr = addr // self.line_words
        word = addr % self.line_words
        words = WRITE_MESSAGE_WORDS  # memory update
        version = self.shadow.read_version(addr)
        for proc in sorted(self.sharers.get(line_addr, ())):
            loc = self.caches[proc].probe(line_addr)
            if loc is None:
                raise ProtocolError(
                    f"update: sharer {proc} of line {line_addr} has no copy")
            self.caches[proc].version[loc[0], loc[1], word] = version
            if proc != writer:
                self.updates_sent += 1
                words += 2  # update word + header
        return words

    # -------------------------------------------------------------- accesses

    def read(self, proc: int, addr: int, site: int, shared: bool,
             in_critical: bool) -> AccessResult:
        cache = self.caches[proc]
        line_addr, _, word = cache.split(addr)
        loc = cache.probe(line_addr)
        if loc is not None:
            cache.touch(loc)
            version = cache.version.item(*loc, word)
            if shared:
                self._check_read_version(addr, version)
            return AccessResult(latency=self.machine.hit_latency,
                                kind=MissKind.HIT, version=version)

        kind = (MissKind.REPLACEMENT if line_addr in self.seen_lines[proc]
                else MissKind.COLD)
        result = AccessResult(latency=self.network.miss_latency(self.line_words),
                              kind=kind, read_words=1 + self.line_words)
        loc, evicted, _dirty = cache.install(line_addr, loc)
        if evicted is not None:
            self.sharers.get(evicted, set()).discard(proc)
            result.coherence_words += 1  # replacement hint
        s, w = loc
        base = cache.line_base(line_addr)
        cache.version[s, w, :] = self.shadow.version[base:base + self.line_words]
        self.seen_lines[proc].add(line_addr)
        if shared:
            self.sharers.setdefault(line_addr, set()).add(proc)
        result.version = cache.version.item(s, w, word)
        if shared:
            self._check_read_version(addr, result.version)
        return result

    def write(self, proc: int, addr: int, site: int, shared: bool,
              in_critical: bool) -> AccessResult:
        cache = self.caches[proc]
        line_addr, _, word = cache.split(addr)
        loc = cache.probe(line_addr)
        result = AccessResult(latency=self.machine.hit_latency,
                              kind=MissKind.HIT)
        if loc is None:
            # Write-allocate: fetch and join the sharers.
            loc, evicted, _dirty = cache.install(line_addr, loc)
            if evicted is not None:
                self.sharers.get(evicted, set()).discard(proc)
                result.coherence_words += 1
            s, w = loc
            base = cache.line_base(line_addr)
            cache.version[s, w, :] = self.shadow.version[base:base + self.line_words]
            self.seen_lines[proc].add(line_addr)
            result.read_words += 1 + self.line_words
            if shared:
                self.sharers.setdefault(line_addr, set()).add(proc)
        s, w = loc
        version = self.shadow.write(addr, proc)
        cache.version[s, w, word] = version
        cache.touch(loc)
        result.version = version
        self.total_writes += 1
        if shared:
            if self.coalescing:
                if addr in self.pending[proc]:
                    self.merged_writes += 1
                else:
                    self.pending[proc].add(addr)
            else:
                result.write_words += self._broadcast(proc, addr)
            if self.machine.consistency is ConsistencyModel.SEQUENTIAL:
                result.latency = self.network.word_latency()
        return result
