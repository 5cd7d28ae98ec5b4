"""Tardis timestamp-coherence: leases instead of invalidations.

Tardis / Tardis 2.0 (PAPERS.md) is the modern descendant of TPI's
timetag idea, and the natural "2015" column of an ISCA-1996-vs-2015
comparison: where TPI relies on the *compiler* to bound staleness by
epoch, Tardis is hardware-only — every cached line carries a read lease
``rts`` and a write timestamp ``wts`` in logical time, every processor
carries a program timestamp ``pts``, and a cached copy may serve a read
exactly while its lease is live (``rts >= pts``,
:func:`repro.coherence.tardis_rules.lease_hit`).  There are **no
invalidation or update messages at all**: a write is simply ordered
after every lease on the line (``max(pts, mem_rts + 1)``), so live
readers keep reading the old value at an earlier logical time, and a
barrier joins every ``pts`` to the global maximum — which is what makes
pre-barrier writes expire every stale lease (weak consistency's visible
floor, continuously checked by the per-read version oracle).

An expired lease re-validates against the home node: a data-less
*renewal* (two control words) when the line was not written since the
fill (:func:`~repro.coherence.tardis_rules.renewal_ok`), a full
re-fetch otherwise.  Writes go through to home
(:data:`~repro.memsys.wbuffer.WRITE_MESSAGE_WORDS`); evictions are
purely local — leases live at the home node, so there is nothing to
tell it.

The hardware's ``k``-bit bounded timestamps are modeled by Tardis 2.0's
timestamp compression: the scheme tracks the representable window base
and *rebases* at a barrier whenever the lease frontier would leave the
window, clamping every stored timestamp to the new base (rebase
granularity is the epoch, so a pathological single epoch can mint more
than ``2^k`` timestamps between checks — the model's one acknowledged
approximation).  All decision rules live in
:mod:`repro.coherence.tardis_rules`, shared verbatim with the
bounded-exhaustive model checker (:mod:`repro.analysis.modelcheck_tardis`).
The scheme has no batch kernel, so the fast engine replays its every
epoch through the heap, as the reference engine does.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.coherence import tardis_rules
from repro.coherence.api import AccessResult, CoherenceScheme, SimContext
from repro.common.config import ConsistencyModel
from repro.common.errors import ProtocolError
from repro.common.stats import MissKind
from repro.memsys.cache import Cache, CacheWay
from repro.memsys.wbuffer import WRITE_MESSAGE_WORDS


class TardisScheme(CoherenceScheme):
    name = "tardis"
    # Pure hardware timestamps: no compiler timetags, no write buffer
    # (writes go through unbuffered), no sharer directory of any kind.
    config_dead_fields = ("tpi", "write_buffer", "directory")

    def extras(self) -> Dict[str, int]:
        return {"lease_renewals": self.lease_renewals,
                "lease_expiries": self.lease_expiries,
                "rebases": self.rebases}

    def __init__(self, ctx: SimContext):
        super().__init__(ctx)
        machine = self.machine
        self.line_words = machine.cache.line_words
        self.lease = machine.tardis.lease
        self.modulus = machine.tardis.modulus
        self.seen_lines = {proc: set() for proc in self.caches}
        # Per-processor program timestamps, and the cached lease state of
        # every line: two arrays of the cache bank's ``[row, set, way]``
        # shape (a lease slot is only ever consulted for a *resident*
        # line, and every fill overwrites it).  ``rts``/``wts`` map a
        # processor to its row, which is what the per-event path reads.
        self.pts = dict.fromkeys(self.caches, 0)
        self.rts_a = np.zeros(self.bank.tags.shape, dtype=np.int64)
        self.wts_a = np.zeros(self.bank.tags.shape, dtype=np.int64)
        self.rts = dict(zip(self.caches, self.rts_a))
        self.wts = dict(zip(self.caches, self.wts_a))
        # Home-node timestamps; absent means never leased / never written.
        self.mem_rts: Dict[int, int] = {}
        self.mem_wts: Dict[int, int] = {}
        # The representable-window base starts one below the smallest
        # mintable timestamp, so renewal_ok's ``mem_wts > base`` guard
        # accepts the never-written (wts == 0) state; after the first
        # rebase the base is a genuine clamp value.
        self.base = -1
        self.lease_renewals = 0
        self.lease_expiries = 0
        self.rebases = 0

    # ---------------------------------------------------------------- epochs

    def end_epoch(self, write_key: Optional[int] = None) -> Dict[int, int]:
        if self.pts:  # no processor, no timestamp to join
            joined = tardis_rules.pts_join(self.pts.values())
            self.pts = dict.fromkeys(self.pts, joined)
            if tardis_rules.rebase_needed(joined, self.lease, self.base,
                                          self.modulus):
                self._rebase(joined)
        return {}

    def _rebase(self, pts: int) -> None:
        """Tardis 2.0 timestamp compression: clamp everything to a new base."""
        self.base = tardis_rules.rebase_base(pts, self.modulus)
        self.rts_a[...] = tardis_rules.clamp(self.rts_a, self.base)
        self.wts_a[...] = tardis_rules.clamp(self.wts_a, self.base)
        self.mem_rts = {line: tardis_rules.clamp(ts, self.base)
                        for line, ts in self.mem_rts.items()}
        self.mem_wts = {line: tardis_rules.clamp(ts, self.base)
                        for line, ts in self.mem_wts.items()}
        self.rebases += 1

    # -------------------------------------------------------------- plumbing

    def _home_rts(self, line_addr: int) -> int:
        """Home read lease, floored at the window base: after a rebase no
        timestamp below ``base`` exists anywhere, including the implicit
        zero of a line the home never saw."""
        return max(self.mem_rts.get(line_addr, 0), self.base)

    def _home_wts(self, line_addr: int) -> int:
        return max(self.mem_wts.get(line_addr, 0), self.base)

    def _fill(self, cache: Cache, proc: int, line_addr: int,
              result: AccessResult, probed: Optional[CacheWay]) -> CacheWay:
        """``probed``: the caller's probe result (see ``Cache.install``)."""
        loc, _evicted, _dirty = cache.install(line_addr, probed)
        s, w = loc
        base_addr = cache.line_base(line_addr)
        cache.version[s, w, :] = self.shadow.version[base_addr:base_addr
                                                     + self.line_words]
        # Reset the lease slot: the previous occupant's timestamps must
        # not leak onto the new line (a line filled by a *private* access
        # — lines may straddle the shared/private boundary — would
        # otherwise inherit a live lease).  ``rts = 0`` holds no lease
        # beyond pts 0; the copy is current as of this instant, which is
        # exactly ``wts = mem_wts``.
        self.rts[proc][s, w] = 0
        self.wts[proc][s, w] = self._home_wts(line_addr)
        result.read_words += 1 + self.line_words
        self.seen_lines[proc].add(line_addr)
        return loc

    def _grant(self, proc: int, line_addr: int, loc: CacheWay) -> None:
        """Lease the line to ``proc``: commutative at home, own-stamp local."""
        pts = self.pts[proc]
        self.mem_rts[line_addr] = tardis_rules.lease_grant(
            pts, self._home_rts(line_addr), self.lease)
        s, w = loc
        self.rts[proc][s, w] = tardis_rules.own_lease(pts, self.lease)
        self.wts[proc][s, w] = self._home_wts(line_addr)

    # -------------------------------------------------------------- accesses

    def read(self, proc: int, addr: int, site: int, shared: bool,
             in_critical: bool) -> AccessResult:
        cache = self.caches[proc]
        line_addr, _, word = cache.split(addr)
        loc = cache.probe(line_addr)
        if not shared:
            if loc is not None:
                cache.touch(loc)
                version = cache.version.item(*loc, word)
                return AccessResult(latency=self.machine.hit_latency,
                                    kind=MissKind.HIT, version=version)
            kind = (MissKind.REPLACEMENT if line_addr in self.seen_lines[proc]
                    else MissKind.COLD)
            result = AccessResult(
                latency=self.network.miss_latency(self.line_words), kind=kind)
            loc = self._fill(cache, proc, line_addr, result, loc)
            result.version = cache.version.item(*loc, word)
            return result

        pts = self.pts[proc]
        if loc is not None:
            s, w = loc
            if tardis_rules.lease_hit(pts, self.rts[proc].item(s, w)):
                cache.touch(loc)
                version = cache.version.item(s, w, word)
                self._check_read_version(addr, version)
                return AccessResult(latency=self.machine.hit_latency,
                                    kind=MissKind.HIT, version=version)
            # Expired lease: re-validate against the home node.
            self.lease_expiries += 1
            cached_wts = self.wts[proc].item(s, w)
            mem_wts = self._home_wts(line_addr)
            if tardis_rules.renewal_ok(cached_wts, mem_wts, self.base):
                # Unwritten since the fill: renew without moving data.
                self.lease_renewals += 1
                self._grant(proc, line_addr, loc)
                cache.touch(loc)
                version = cache.version.item(s, w, word)
                self._check_read_version(addr, version)
                return AccessResult(latency=self.network.word_latency(),
                                    kind=MissKind.CONSERVATIVE,
                                    coherence_words=2, version=version)
            if cached_wts == mem_wts:
                # Current but clamp-ambiguous after a rebase: the data
                # was fresh, only the proof expired.
                kind = MissKind.CONSERVATIVE
            elif cache.version.item(s, w, word) == self.shadow.read_version(addr):
                kind = MissKind.FALSE_SHARING  # line written, word untouched
            else:
                kind = MissKind.TRUE_SHARING
            result = AccessResult(
                latency=self.network.miss_latency(self.line_words), kind=kind)
        else:
            kind = (MissKind.REPLACEMENT if line_addr in self.seen_lines[proc]
                    else MissKind.COLD)
            result = AccessResult(
                latency=self.network.miss_latency(self.line_words), kind=kind)
        loc = self._fill(cache, proc, line_addr, result, loc)
        self._grant(proc, line_addr, loc)
        result.version = cache.version.item(*loc, word)
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
            # Write-allocate; the stamping below covers the lease state.
            loc = self._fill(cache, proc, line_addr, result, loc)
        elif shared and not tardis_rules.renewal_ok(
                self.wts[proc].item(*loc),
                self._home_wts(line_addr), self.base):
            # The write stamps the *whole line* current through ts_w, so
            # a copy that may have missed a remote write since its fill
            # must re-validate with a data fetch first (Tardis's
            # exclusive-ownership upgrade); otherwise the write would
            # re-lease stale sibling words.
            loc = self._fill(cache, proc, line_addr, result, loc)
        s, w = loc
        version = self.shadow.write(addr, proc)
        cache.version[s, w, word] = version
        cache.touch(loc)
        result.version = version
        if shared:
            ts_w = tardis_rules.write_timestamp(
                self.pts[proc], self._home_rts(line_addr))
            self.pts[proc] = ts_w
            self.mem_wts[line_addr] = ts_w
            self.mem_rts[line_addr] = ts_w
            self.wts[proc][s, w] = ts_w
            self.rts[proc][s, w] = ts_w
            result.write_words += WRITE_MESSAGE_WORDS  # write-through to home
            if self.machine.consistency is ConsistencyModel.SEQUENTIAL:
                result.latency = self.network.word_latency()
        return result

    # ------------------------------------------------------------ invariants

    def check_invariants(self) -> None:
        """Protocol invariants, callable from tests after any access mix."""
        for line_addr, wts in self.mem_wts.items():
            rts = self.mem_rts.get(line_addr, 0)
            if rts < wts:
                raise ProtocolError(
                    f"line {line_addr}: mem_rts {rts} < mem_wts {wts}")
        for proc, cache in self.caches.items():
            for line_addr in self.mem_wts:
                loc = cache.probe(line_addr)
                if loc is None:
                    continue
                cached = int(self.wts[proc][loc])
                if cached > self.mem_wts[line_addr]:
                    raise ProtocolError(
                        f"line {line_addr}: proc {proc} cached wts {cached} "
                        f"> mem_wts {self.mem_wts[line_addr]}")
