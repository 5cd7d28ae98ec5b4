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

import numpy as np

from repro.coherence.api import AccessResult, SimContext
from repro.coherence.directory import MsiScheme
from repro.common.config import ConsistencyModel
from repro.common.errors import ProtocolError
from repro.common.stats import MissKind
from repro.memsys.cache import Cache, CacheWay


class SnoopBusScheme(MsiScheme):
    name = "snoop"

    def extras(self) -> Dict[str, int]:
        out = super().extras()
        out["cache_to_cache_transfers"] = self.cache_to_cache_transfers
        return out

    def __init__(self, ctx: SimContext):
        super().__init__(ctx)
        self.cache_to_cache_transfers = 0

    # -------------------------------------------------------------- plumbing

    def _holders(self, line_addr: int, skip: int = -1) -> List[int]:
        """Every processor but ``skip`` whose snoop would assert "shared"
        for the line (the requester skips itself: the batch kernel has
        already filled its cache when the protocol side runs)."""
        return [proc for proc, cache in self.caches.items()
                if proc != skip and cache.probe(line_addr) is not None]

    def _dirty_holder(self, line_addr: int, skip: int = -1) -> Optional[int]:
        for proc, cache in self.caches.items():
            if proc == skip:
                continue
            loc = cache.probe(line_addr)
            if loc is not None and cache.dirty[loc]:
                return proc
        return None

    # --------------------------------------------------------- protocol side

    def _exclusive(self, proc: int, line_addr: int, cache: Cache,
                   loc: CacheWay) -> bool:
        return bool(cache.dirty[loc])

    def _read_miss(self, proc: int, line_addr: int, word: int,
                   shared: bool) -> AccessResult:
        result = AccessResult(latency=self.network.miss_latency(self.line_words),
                              kind=self._miss_kind(proc, line_addr, shared))
        if shared:
            owner = self._dirty_holder(line_addr, skip=proc)
            if owner is not None:
                # BusRd snooped by the M holder: flush + demote to S.
                self._flush_owner(owner, line_addr, result)
                self.cache_to_cache_transfers += 1
        return result

    def _write_miss(self, proc: int, line_addr: int, word: int,
                    shared: bool) -> AccessResult:
        result = AccessResult(latency=self.machine.hit_latency,
                              kind=MissKind.HIT)
        if not shared:
            return result
        # BusRdX: classify, invalidate everyone, fetch exclusive.
        result.kind = self._miss_kind(proc, line_addr)
        owner = self._dirty_holder(line_addr, skip=proc)
        if owner is not None:
            self._invalidate_copy(owner, line_addr, word)
            result.coherence_words += 2 + self.line_words  # flush + inval
            self.cache_to_cache_transfers += 1
        else:
            result.coherence_words += self._invalidate_targets(
                self._holders(line_addr, skip=proc), line_addr, word)
        if self.machine.consistency is ConsistencyModel.SEQUENTIAL:
            # The exclusive fetch is on the critical path.
            result.latency += self.network.miss_latency(self.line_words)
        return result

    def _upgrade(self, proc: int, line_addr: int, word: int) -> AccessResult:
        """BusUpgr from S: invalidate every other copy, no data moves."""
        result = AccessResult(
            latency=self.machine.hit_latency, kind=MissKind.HIT,
            coherence_words=self._invalidate_targets(
                self._holders(line_addr, skip=proc), line_addr, word)
            + 2)  # upgrade round trip
        if self.machine.consistency is ConsistencyModel.SEQUENTIAL:
            result.latency += self.network.control_latency()  # bus grant
        return result

    # ------------------------------------------------------------ invariants

    def check_invariants(self) -> None:
        """MSI invariants, callable from tests after any access mix."""
        tags = self.bank.tags
        for line_addr in np.unique(tags[tags != -1]).tolist():
            dirty_holders = []
            holders = []
            for proc, cache in self.caches.items():
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
