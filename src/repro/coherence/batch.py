"""Vectorized batch kernels: the schemes' cold-span paths over event arrays.

The fast engine (:mod:`repro.sim.fastengine`) partitions each task's
events into *cold* spans — runs of accesses to lines that are provably not
order-sensitive across processors this epoch — and hands each span to the
scheme's kernel.  A kernel scans a window of events and resolves
*every* outcome it can prove — hits, misses, fills, refreshes, timetag
stamping, miss classification — in closed form with numpy, then applies
the whole window at once; whatever it cannot prove runs through the
engine's exact per-event path.  The MSI kernel (hw, limitless, snoop)
vectorizes hits, silent writes, the own-cache side of fills and the
*quiet* misses and upgrades, those no other processor can observe; it
calls the scheme's own transitions in program order, inside the apply,
only for the rest.  The update kernel vectorizes a provable prefix per
set chain and runs the rest in program order through the exact path.
Tardis has no kernel: its epochs batch through the fast engine's
per-event cold path.

Cache state is indexed by **slot**, ``set * K + way`` for a K-way cache
(a slot is a set when the cache is direct-mapped).  A per-window slot scan
(:meth:`_BatchKernel._slot_chains`) gives each event the way its line
occupies when the event executes, so a slot's program-order chain splits
into *runs* that are exactly its line residencies (:class:`_SetChains`).
Each run is the single-line closed form, except that a run after the
first starts with a miss that installs its line fresh (evicting the
previous run's line), so window-start state reaches only the first run
and the window leaves each slot as its last run left it; the apply then
writes each used slot's LRU stamp.  Within a window, each set is either
*fully batched* or *fully per-event*: a set in which a staleness-oracle
check might fire is "poisoned" and all of its events run through the
exact per-event path instead.  Because an event's side effects are
confined to its own set (plus the shadow words / write buffer entries
of its own addresses, which live in that set too), the batched apply
and the poisoned events commute, and no intra-window ordering is lost.
Kernels additionally support the engine's **epoch pre-apply**
(:meth:`_BatchKernel.preapply`): all of an epoch's cold events, across
every task, merge into one window whose per-task latency prefix sums
are memoized, so each later ``span`` call is a constant-time lookup.

Every per-event execution, and every MSI miss or upgrade another
processor could observe, goes through exactly the code the reference
engine uses, so cross-processor transitions and coherence-oracle errors
reproduce bit-identically; the scans only ever *prove* that the batched
events take a closed-form path.  Differential parity with the reference
engine is enforced by tests/test_engine_parity.py, and the closed forms
(the MSI kernel's quiet transitions among them) are pinned absolutely by
the golden digests of tests/test_golden.py.

Closed-form misses lean on two facts about cold spans: a span belongs to
one task and runs in program order, and cold lines are untouched by other
processors within the epoch — so the only writer of a span's shadow words
is the span's own task, and a line's whole in-window life (install,
refresh, word validations) is a function of the window's own events.
Intra-window ordering between accesses to the same set or word is
restored with :class:`_Chains` (one stable argsort per key).

The loop-in-apply update kernel interleaves exact events with its
batched prefix, which batched LRU stamps would misorder, so it alone
requires a direct-mapped cache: for any other geometry its
:meth:`build` returns ``None`` and the fast engine falls back to its
exact per-event path.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.coherence.sparse import STATE_E, STATE_S, STATE_U
from repro.coherence.tpi_rules import time_read_window, word_age
from repro.common.config import ConsistencyModel, WriteBufferKind
from repro.common.errors import ProtocolError
from repro.common.stats import MissKind
from repro.compiler.marking import RefMark
from repro.memsys.wbuffer import WRITE_MESSAGE_WORDS

#: Events per scan window.
_WINDOW = 4096

#: Spans shorter than this run through the exact per-event path outright:
#: a scan's fixed numpy cost outweighs the per-event code it replaces on
#: tiny hot-fragmented spans.
_SPAN_CUTOFF = 24


class _Chains:
    """Program-order predecessor queries within groups of equal keys.

    One stable argsort groups equal keys while preserving program order
    inside each group; cumulative tricks then answer "does some earlier
    event in my group satisfy X?" for any flag vector without re-sorting.
    """

    def __init__(self, key: np.ndarray):
        order = np.argsort(key, kind="stable")
        k_sorted = key[order]
        gs = np.empty(len(key), dtype=bool)
        gs[0] = True
        gs[1:] = k_sorted[1:] != k_sorted[:-1]
        self._group(order, gs)

    def _group(self, order: np.ndarray, gs: np.ndarray) -> None:
        """Adopt ``order`` (program order inside each group) and the
        group-start flags ``gs`` along it."""
        self.n = n = len(order)
        self.order = order
        self._gs = gs
        self._gfirst = np.maximum.accumulate(np.where(gs, np.arange(n), 0))
        self._gid = np.cumsum(gs) - 1
        self._ngroups = int(self._gid[-1]) + 1

    def split(self, sub: np.ndarray) -> "_Chains":
        """Chains over the stretches of equal ``sub`` inside each group,
        sharing this order (no argsort).  Within a group, the events of
        one ``sub`` value must form one stretch of program order."""
        s = sub[self.order]
        gs = self._gs.copy()
        gs[1:] |= s[1:] != s[:-1]
        out = _Chains.__new__(_Chains)
        out._group(self.order, gs)
        return out

    def _scatter(self, arr_sorted: np.ndarray) -> np.ndarray:
        out = np.empty(self.n, dtype=arr_sorted.dtype)
        out[self.order] = arr_sorted
        return out

    def _prior(self, flags: np.ndarray) -> np.ndarray:
        """Along the sorted order: flagged events earlier in the group."""
        f = flags[self.order].astype(np.int64)
        csum = np.cumsum(f) - f
        return csum - np.maximum.accumulate(np.where(self._gs, csum, 0))

    def prior_count(self, flags: np.ndarray) -> np.ndarray:
        """``out[i]`` — how many ``j < i`` in i's group have ``flags[j]``?"""
        return self._scatter(self._prior(flags))

    def prior_any(self, flags: np.ndarray) -> np.ndarray:
        """``out[i]`` — does some ``j < i`` in i's group have ``flags[j]``?"""
        return self._scatter(self._prior(flags) > 0)

    def _count(self, flags: np.ndarray) -> np.ndarray:
        """Per group: its flagged events."""
        return np.bincount(self._gid, weights=flags[self.order],
                           minlength=self._ngroups)

    def group_count(self, flags: np.ndarray) -> np.ndarray:
        """``out[i]`` — how many events in i's group have the flag?"""
        return self._scatter(self._count(flags)[self._gid])

    def group_any(self, flags: np.ndarray) -> np.ndarray:
        """``out[i]`` — does *any* event in i's group have the flag?"""
        return self._scatter((self._count(flags) > 0)[self._gid])

    def spread(self, flags: np.ndarray, values: np.ndarray) -> np.ndarray:
        """``out[i]`` — ``values`` at the flagged event of i's group (at
        most one per group), or -1 if the group has none."""
        f = flags[self.order]
        out = np.full(self._ngroups, -1, dtype=values.dtype)
        out[self._gid[f]] = values[self.order][f]
        return self._scatter(out[self._gid])


def prior_same_addr(addr: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``out[i]`` — does some ``j < i`` have ``mask[j]`` and same address?"""
    n = len(addr)
    if n == 0 or not mask.any():
        return np.zeros(n, dtype=bool)
    return _Chains(addr).prior_any(mask)


class _SetChains(_Chains):
    """Per-slot chains, their runs, and line-residency tracking.

    ``key`` groups events by cache slot (``set * K + way``, offset per
    processor in merged windows); ``slot`` is each event's slot in its
    own processor's cache and ``sets`` the chains of whole sets, which
    poisoning groups by.  In a direct-mapped cache a slot is a set, so
    both default to this object's own grouping.

    ``mask`` selects the events that allocate into the cache (install on
    miss, or hit the resident line); for those, the occupant of the slot
    *after* the event is always the event's own line.  Hence the occupant
    seen by event i is the line of its previous masked same-slot event, or
    the pre-window occupant if it has none — one gather either way.

    Each slot's chain splits into **runs**, its line residencies: an
    allocating event whose line differs from the previous allocating
    event's line in the slot is a *break* and opens a run (a
    non-allocating event belongs to the run in progress).  A run after
    the first starts with a miss that installs its line fresh, so
    window-start state reaches only ``first``-run events, and the window
    leaves each slot as its ``last`` run left it.  ``runs`` answers
    "earlier X in my run" and ``run`` is a dense run id; a window with no
    break reuses the slot chains (every event is first and last).
    """

    def __init__(self, key: np.ndarray, line: np.ndarray,
                 mask: Optional[np.ndarray],
                 slot: Optional[np.ndarray] = None,
                 sets: Optional[_Chains] = None):
        super().__init__(key)
        self.slot = key if slot is None else slot
        # No attribute refers back to this object (``sets``/``runs`` are
        # properties): a self-cycle would keep every window's chain
        # arrays alive until the cyclic garbage collector runs.
        self._sets = sets
        n = self.n
        pos = np.arange(n)
        ls = line[self.order]
        m = mask[self.order] if mask is not None else np.ones(n, dtype=bool)
        latest = np.maximum.accumulate(np.where(m, pos, -1))
        prev = np.empty(n, dtype=np.int64)
        prev[0] = -1
        prev[1:] = latest[:-1]
        prev[prev < self._gfirst] = -1
        has_prev = prev >= 0
        prev_line = np.where(has_prev, ls[np.maximum(prev, 0)], -1)
        self.has_prev = self._scatter(has_prev)
        self.prev_line = self._scatter(prev_line)
        self._mask = mask
        self._run_addrs = None
        brk = m & has_prev & (prev_line != ls)
        if not brk.any():
            self._runs = None
            self.run = None
            self.first = self.last = np.ones(n, dtype=bool)
            return
        rid = np.cumsum(self._gs | brk) - 1
        gend = np.empty(n, dtype=bool)
        gend[:-1] = self._gs[1:]
        gend[-1] = True
        self.run = self._scatter(rid)
        self._runs = self.split(self.run)
        self.first = self._scatter(rid == rid[self._gfirst])
        self.last = self._scatter(rid == rid[gend][self._gid])

    @property
    def sets(self) -> _Chains:
        return self if self._sets is None else self._sets

    @property
    def runs(self) -> _Chains:
        return self if self._runs is None else self._runs

    def resident(self, line: np.ndarray, tags0: np.ndarray) -> np.ndarray:
        """Is the event's line resident when the event executes?"""
        return np.where(self.has_prev, self.prev_line == line, tags0 == line)

    def run_addrs(self, addrs: _Chains) -> _Chains:
        """The address chains ``addrs`` of this window, split at run
        boundaries: "earlier X at my address in my run"."""
        if self.run is None:
            return addrs
        if self._run_addrs is None:
            self._run_addrs = addrs.split(self.run)
        return self._run_addrs

    def victims(self, line: np.ndarray, wr: np.ndarray, occ0: np.ndarray,
                dirty0: np.ndarray):
        """Per event: the line a miss there evicts (-1 for none) and its
        dirty bit.  Misses happen only at run heads.  The first run's head
        evicts the window-start occupant ``occ0`` (dirty per ``dirty0``);
        a later run's head evicts the previous run's line, dirty if that
        run wrote (``wr``: allocating writes) or is the first run and kept
        the dirty window-start occupant."""
        if self.run is None:
            return occ0, dirty0
        kept = self.first & (occ0 == line) & dirty0
        if self._mask is not None:
            kept &= self._mask
        held = self.runs.group_any(wr | kept)[self.order]
        before = np.zeros(self.n, dtype=bool)
        before[1:] = held[:-1]
        return (np.where(self.first, occ0, self.prev_line),
                np.where(self.first, dirty0, self._scatter(before)))


class _Cols:
    """One window of events, possibly spanning several processors.

    ``parts`` lists contiguous ``(proc, lo, hi)`` ranges in execution
    order; ``skey``/``akey`` are the grouping keys for the chains
    machinery — equal to the set index / word address within one
    processor, and offset per processor in merged windows so that no
    chain group ever crosses a processor boundary."""

    __slots__ = ("n", "s", "line", "wd", "wr", "sh", "addr", "site",
                 "work", "parts", "skey", "akey", "_procv", "cache")

    _FIELDS = (("s", "set_"), ("line", "line"), ("wd", "word"),
               ("wr", "is_write"), ("sh", "shared"), ("addr", "addr"),
               ("site", "site"), ("work", "work"))

    @classmethod
    def window(cls, proc: int, ta, lo: int, hi: int) -> "_Cols":
        c = cls()
        c.n = hi - lo
        for name, attr in cls._FIELDS:
            setattr(c, name, getattr(ta, attr)[lo:hi])
        c.parts = ((proc, 0, c.n),)
        c.skey = c.s
        c.akey = c.addr
        c._procv = None
        c.cache = {}
        return c

    @classmethod
    def merged(cls, pieces, n_sets: int, total_words: int) -> "_Cols":
        """``pieces``: ``(proc, ta, sel)`` in execution order, ``sel`` a
        boolean mask selecting the events to include (None = all)."""
        c = cls()
        stacks = {name: [] for name, _ in cls._FIELDS}
        parts = []
        skey = []
        akey = []
        pos = 0
        for proc, ta, sel in pieces:
            for name, attr in cls._FIELDS:
                arr = getattr(ta, attr)
                stacks[name].append(arr if sel is None else arr[sel])
            k = len(stacks["s"][-1])
            parts.append((proc, pos, pos + k))
            skey.append(stacks["s"][-1] + proc * n_sets)
            akey.append(stacks["addr"][-1] + proc * total_words)
            pos += k
        for name in stacks:
            setattr(c, name, np.concatenate(stacks[name]))
        c.n = pos
        c.parts = tuple(parts)
        c.skey = np.concatenate(skey)
        c.akey = np.concatenate(akey)
        c._procv = None
        c.cache = {}
        return c

    @property
    def procv(self) -> np.ndarray:
        """Per-event processor id (for 2-D ``[proc, addr]`` indexing)."""
        if self._procv is None:
            v = np.empty(self.n, dtype=np.int64)
            for p, lo, hi in self.parts:
                v[lo:hi] = p
            self._procv = v
        return self._procv

    def compress(self, m: np.ndarray) -> "_Cols":
        """Keep only events where ``m`` holds (single-part windows only —
        merged windows are never partially applied)."""
        (proc, _, _), = self.parts
        c = _Cols()
        c.n = int(m.sum())
        for name, _ in self._FIELDS:
            setattr(c, name, getattr(self, name)[m])
        c.parts = ((proc, 0, c.n),)
        c.skey = c.s
        c.akey = c.addr
        c._procv = None
        c.cache = {}
        return c


class _LazyViews:
    """Per-processor numpy views over a :class:`LazyList` of backing
    objects, created on first access.

    Materializing a view materializes the backing object (a Cache or
    timestamp array), so at ``n_procs`` in the thousands a kernel only
    ever touches the processors its windows actually contain.  Views are
    real numpy views — writes through them land in the backing arrays.
    """

    __slots__ = ("_backing", "_extract", "_views")

    def __init__(self, backing, extract):
        self._backing = backing
        self._extract = extract
        self._views = {}

    def __len__(self) -> int:
        return len(self._backing)

    def __getitem__(self, proc: int):
        view = self._views.get(proc)
        if view is None:
            view = self._views[proc] = self._extract(self._backing[proc])
        return view


class _BatchKernel:
    """Span loop and shared plumbing of every kernel: live cache views,
    window gathers, accounting.

    A span runs as one scan + one apply per window.  The scan first
    gives each event its slot (:meth:`_slot_chains`), then proves every
    slot run by run (counters and traffic cover all events; cache state
    is written from each slot's last run, and each used slot of a
    set-associative cache gets its last use's LRU stamp) and poisons
    only sets where the staleness oracle might fire; their events run
    through the exact path after the apply.  The apply-first order is
    sound because a poisoned set's events and the batched events touch
    disjoint cache sets, shadow words, touched bits, and write-buffer
    entries — every side channel is keyed by the event's own set or
    address.  Poisoning is by set, never by slot, so the ways of one set
    never mix batched and exact events.

    Kernels additionally support *epoch pre-apply* (:meth:`preapply`):
    when the fast engine proves that an epoch's hot and cold events live
    in disjoint cache sets, every task's cold events are scanned and
    applied in one merged multi-processor window before dispatch, and
    :meth:`span` then answers from memoized per-task elapsed-cycle
    prefix sums instead of rescanning per window."""

    def __init__(self, scheme):
        self.scheme = scheme
        self.machine = scheme.machine
        self.network = scheme.network
        self.shadow = scheme.shadow
        self.caches = caches = scheme.caches
        self.assoc = self.machine.cache.associativity
        self.line_words = lw = self.machine.cache.line_words
        # Slot views (``[set * K + way]`` and ``[slot, word]``): reshapes,
        # so writes land in the cache arrays, and a gather or scatter is
        # 1-D/2-D fancy indexing.  ``ways`` keeps the ``[set, way]`` tags
        # for the slot scan.
        self.ways = _LazyViews(caches, lambda c: c.tags)
        self.tags = _LazyViews(caches, lambda c: c.tags.reshape(-1))
        self.wv = _LazyViews(caches, lambda c: c.word_valid.reshape(-1, lw))
        self.cver = _LazyViews(caches, lambda c: c.version.reshape(-1, lw))
        self.used = _LazyViews(caches, lambda c: c.used.reshape(-1, lw))
        self.tt = _LazyViews(caches, lambda c: c.timetag.reshape(-1, lw))
        self.dirty = _LazyViews(caches, lambda c: c.dirty.reshape(-1))
        self.check = self.machine.check_coherence
        self.hit_lat = self.machine.hit_latency
        self.word_lat = 0
        self.miss_lat = 0
        self.seq = self.machine.consistency is ConsistencyModel.SEQUENTIAL
        self._memo = {}

    @classmethod
    def build(cls, scheme) -> Optional["_BatchKernel"]:
        return cls(scheme)

    def begin_epoch(self) -> None:
        """Latch the epoch-constant network latencies (rho only moves at
        ``observe_epoch``, so these are scalars for the whole epoch)."""
        self.word_lat = self.network.word_latency()
        self.miss_lat = self.network.miss_latency(self.line_words)

    def boundary(self, eng, proc: int, ta, i: int) -> int:
        """Run one event through the engine's exact per-event path."""
        is_write, addr, site, _work, shared = ta.rows[i]
        return eng._access(proc, is_write, addr, site, shared)

    # ------------------------------------------------------------- helpers

    def _boundaries(self, eng, proc: int, ta, indices) -> int:
        """Charge each indexed event's work and run it through
        :meth:`boundary`; returns the elapsed cycles."""
        breakdown = eng.result.breakdown
        rows = ta.rows
        elapsed = 0
        for i in indices:
            work = rows[i][3]
            breakdown["busy"] += work
            elapsed += work + self.boundary(eng, proc, ta, i)
        return elapsed

    def _work(self, eng, cols: _Cols) -> int:
        work = int(cols.work.sum())
        eng.result.breakdown["busy"] += work
        return work

    def _gset(self, arrs, cols: _Cols, idx: np.ndarray) -> np.ndarray:
        """Per-event gather ``arrs[proc][idx]`` from per-processor arrays
        (``idx``: each event's slot, or its set for :attr:`ways`)."""
        parts = cols.parts
        if len(parts) == 1:
            return arrs[parts[0][0]][idx]
        first = arrs[parts[0][0]]
        out = np.empty((cols.n,) + first.shape[1:], dtype=first.dtype)
        for p, lo, hi in parts:
            out[lo:hi] = arrs[p][idx[lo:hi]]
        return out

    def _gword(self, arrs, cols: _Cols, slot: np.ndarray) -> np.ndarray:
        """Per-event gather from per-processor ``[slot, word]`` arrays."""
        parts = cols.parts
        if len(parts) == 1:
            return arrs[parts[0][0]][slot, cols.wd]
        out = np.empty(cols.n, dtype=arrs[parts[0][0]].dtype)
        for p, lo, hi in parts:
            out[lo:hi] = arrs[p][slot[lo:hi], cols.wd[lo:hi]]
        return out

    def _set_chains(self, cols: _Cols, mask, token) -> "_SetChains":
        """Per-set chains for this window, memoized on the window: the
        argsort and residency links depend only on static columns (and a
        static allocation mask), so engine-cached merged windows reuse
        them across schemes and repeated simulations."""
        ch = cols.cache.get(token)
        if ch is None:
            ch = _SetChains(cols.skey, cols.line, mask, cols.s)
            cols.cache[token] = ch
        return ch

    def _line_chains(self, cols: _Cols) -> _Chains:
        """Per-line chains (one processor's line lives in one set), also
        memoized on the window."""
        ch = cols.cache.get("line")
        if ch is None:
            key = cols.line
            if len(cols.parts) > 1:
                key = key + cols.procv * (int(key.max()) + 1)
            ch = cols.cache["line"] = _Chains(key)
        return ch

    def _slot_chains(self, cols: _Cols, mask, token) -> "_SetChains":
        """The window's slot chains: the set chains re-keyed by the way
        each event's line occupies when it executes (:meth:`_ways`).  A
        direct-mapped cache's slot chains are its memoized set chains;
        otherwise they depend on the window-start tags and are built on
        every scan."""
        sets = self._set_chains(cols, mask, token)
        K = self.assoc
        if K == 1:
            return sets
        way = self._ways(cols, mask, sets)
        return _SetChains(cols.skey * K + way, cols.line, mask,
                          cols.s * K + way, sets)

    def _ways(self, cols: _Cols, mask, sets: _SetChains) -> np.ndarray:
        """Per event, the way its line occupies when the event executes:
        the line's way if it is resident, else (for an allocating event)
        the set's next invalid way, lowest first, else the LRU victim.  A
        non-allocating event whose line is not resident gets way 0: no
        slot holds its line, so it reads as a miss wherever it sits."""
        line = cols.line
        ways0 = self._gset(self.ways, cols, cols.s)  # window-start tags
        at = ways0 == line[:, None]
        way = at.argmax(axis=1)
        new = ~at.any(axis=1)
        if mask is not None:
            new &= mask
        if not new.any():
            return way
        # A set whose new lines fit its invalid ways evicts nothing: the
        # r-th new line (by first allocation) takes the r-th invalid way.
        lines = self._line_chains(cols)
        first = new & ~lines.prior_any(new)
        rank = lines.spread(first, sets.prior_count(first))
        empty = ways0 < 0
        nth = empty & (np.cumsum(empty, axis=1) - 1 == rank[:, None])
        way = np.where(rank >= 0, nth.argmax(axis=1), way)
        evict = sets.group_count(first) > empty.sum(axis=1)
        if evict.any():
            self._walk_lru(cols, mask, sets, ways0, evict, way)
        return way

    def _walk_lru(self, cols: _Cols, mask, sets: _SetChains,
                  ways0: np.ndarray, evict: np.ndarray,
                  way: np.ndarray) -> None:
        """Sets whose new lines outnumber their invalid ways (rare): walk
        their events in program order with plain LRU, writing ``way``."""
        idx = sets.order[evict[sets.order]]
        line = cols.line.tolist()
        alloc = None if mask is None else mask.tolist()
        procv, s = cols.procv, cols.s
        group = -1
        for i, key in zip(idx.tolist(), cols.skey[idx].tolist()):
            if key != group:
                group = key
                tags = ways0[i].tolist()
                stamps = self.caches[int(procv[i])].lru_stamps(int(s[i]))
                tick = max(stamps)
            ln = line[i]
            if ln in tags:
                w = tags.index(ln)
            elif alloc is not None and not alloc[i]:
                way[i] = 0
                continue
            else:
                w = (tags.index(-1) if -1 in tags
                     else stamps.index(min(stamps)))
                tags[w] = ln
            if alloc is None or alloc[i]:
                tick += 1
                stamps[w] = tick
            way[i] = w

    def _stamp(self, cols: _Cols, ctx) -> None:
        """LRU stamps after an apply (set-associative caches): each slot
        the window allocated into gets its last use's window position,
        above the cache's tick (``ctx["alloc"]``, absent when every event
        allocates, selects the events that touch the cache)."""
        alloc = ctx.get("alloc")
        if alloc is None:
            alloc = np.ones(cols.n, dtype=bool)
        slot = ctx["slot"]
        for p, idx in self._parts_idx(cols, alloc):
            rev = idx[::-1]
            slots, last = np.unique(slot[rev], return_index=True)
            self.caches[p].touch_slots(slots, rev[last], cols.n)

    def _addr_chains(self, cols: _Cols) -> _Chains:
        ch = cols.cache.get("addr")
        if ch is None:
            ch = _Chains(cols.akey)
            cols.cache["addr"] = ch
        return ch

    def _prior_addr(self, cols: _Cols, mask: np.ndarray) -> np.ndarray:
        if not mask.any():
            return np.zeros(cols.n, dtype=bool)
        return self._addr_chains(cols).prior_any(mask)

    def _parts_idx(self, cols: _Cols, mask: np.ndarray):
        """Yield ``(proc, absolute-index-array)`` for events where
        ``mask`` holds, one entry per contiguous per-processor part."""
        parts = cols.parts
        if len(parts) == 1:
            idx = np.flatnonzero(mask)
            if idx.size:
                yield parts[0][0], idx
            return
        for p, lo, hi in parts:
            idx = np.flatnonzero(mask[lo:hi])
            if idx.size:
                yield p, idx + lo

    def _note_hits(self, eng, n_rd: int, n_shr: int) -> int:
        """Account ``n_rd`` read hits (``n_shr`` of them shared)."""
        result = eng.result
        result.reads += n_rd
        result.shared_reads += n_shr
        mc = result.miss_counts
        mc[MissKind.HIT] = mc.get(MissKind.HIT, 0) + n_rd
        cycles = n_rd * self.hit_lat
        result.breakdown["busy"] += cycles
        return cycles

    def _note_read_misses(self, eng, n: int, n_shr: int,
                          kind_masks) -> int:
        """Account ``n`` closed-form read misses: per-kind counts, the
        paper's miss-latency accumulators, read-stall time, line traffic."""
        result = eng.result
        result.reads += n
        result.shared_reads += n_shr
        mc = result.miss_counts
        for kind, mask in kind_masks:
            count = int(mask.sum())
            if count:
                mc[kind] = mc.get(kind, 0) + count
        cycles = n * self.miss_lat
        result.miss_latency_total += cycles
        result.miss_latency_count += n
        result.breakdown["read_stall"] += cycles
        self._traffic(eng, read_words=n * (1 + self.line_words))
        return cycles

    def _write_latency(self, eng, n_sw: int, n_pw: int) -> int:
        """Latency/breakdown for ``n_sw`` shared + ``n_pw`` private write
        hits (write-through schemes: SEQ stalls for the word round trip)."""
        bd = eng.result.breakdown
        lat_shared = self.word_lat if self.seq else self.hit_lat
        if lat_shared > self.hit_lat:
            bd["write_stall"] += n_sw * lat_shared
        else:
            bd["busy"] += n_sw * lat_shared
        bd["busy"] += n_pw * self.hit_lat
        return n_sw * lat_shared + n_pw * self.hit_lat

    def _traffic(self, eng, read_words: int = 0, write_words: int = 0,
                 coherence_words: int = 0) -> None:
        if read_words or write_words or coherence_words:
            eng.result.note_traffic(read_words, write_words, coherence_words)
            eng._epoch_words += read_words + write_words + coherence_words

    def _bump_shadow(self, addrs: np.ndarray, proc) -> None:
        """``proc`` may be a scalar or a per-event vector (merged windows;
        duplicate addresses resolve last-wins, matching execution order)."""
        self.shadow.write_many(addrs, proc)

    def _install_lines(self, proc: int, slots: np.ndarray,
                       lines: np.ndarray) -> None:
        """Batched fills of each slot's last run: tags, full word
        validity, and the line's shadow versions.  Call *after* this
        window's shadow bumps: a cold written line has a single writer, so
        the final shadow version of every word is what the last run's copy
        holds."""
        self.tags[proc][slots] = lines
        self.wv[proc][slots] = True
        lw = self.line_words
        base = lines * lw
        self.cver[proc][slots] = self.shadow.version[
            base[:, None] + np.arange(lw)]

    def span(self, eng, proc: int, ta, lo: int, hi: int) -> int:
        cs = self._memo.get(id(ta))
        if cs is not None:
            return int(cs[hi] - cs[lo])
        if hi - lo < _SPAN_CUTOFF:
            return self._boundaries(eng, proc, ta, range(lo, hi))
        elapsed = 0
        i = lo
        while i < hi:
            j = min(i + _WINDOW, hi)
            cols = _Cols.window(proc, ta, i, j)
            ok, ctx = self._scan(cols)
            poisoned = not ok.all()
            if poisoned:
                cols = cols.compress(ok)
                ctx = {k: v[ok] for k, v in ctx.items()}
            elapsed += self._apply(eng, cols, ctx)
            if self.assoc > 1:
                self._stamp(cols, ctx)
            if poisoned:
                elapsed += self._boundaries(
                    eng, proc, ta, (np.flatnonzero(~ok) + i).tolist())
            i = j
        return int(elapsed)

    def preapply(self, eng, pieces, cols: Optional[_Cols] = None) -> bool:
        """Scan and apply an epoch's cold events in one merged window.

        ``pieces`` lists ``(proc, ta, sel)`` in dispatch order; ``sel``
        selects each task's cold events (None = all of them).  If any set
        is poisoned the method returns False with *no* side effects and
        the engine falls back to ordinary per-span batching.  On success
        all counters/state are final and a per-task prefix-sum of
        ``work + latency`` (zero at hot positions) is memoized so that
        :meth:`span` is a constant-time lookup for the rest of the epoch.
        """
        if cols is None:
            cols = _Cols.merged(pieces, self.machine.cache.n_sets,
                                self.shadow.total_words)
        ok, ctx = self._scan(cols)
        if not bool(ok.all()):
            return False
        lat = np.zeros(cols.n, dtype=np.int64)
        self._apply(eng, cols, ctx, lat_out=lat)
        if self.assoc > 1:
            self._stamp(cols, ctx)
        v = cols.work + lat
        for (proc, ta, sel), (p, lo, hi) in zip(pieces, cols.parts):
            vfull = np.zeros(ta.n + 1, dtype=np.int64)
            if sel is None:
                vfull[1:] = v[lo:hi]
            else:
                vfull[1:][sel] = v[lo:hi]
            self._memo[id(ta)] = np.cumsum(vfull)
        return True

    def clear_memo(self) -> None:
        self._memo.clear()

    def _exact_events(self, eng, cols, mask, lat_out=None) -> int:
        """Run the masked events through the engine's exact per-event
        path, in program order per processor (cold events reach here only
        for schemes that ignore ``in_critical``)."""
        access = eng._access
        elapsed = 0
        for proc, idx in self._parts_idx(cols, mask):
            for i, is_write, addr, site, shared in zip(
                    idx.tolist(), cols.wr[idx].tolist(),
                    cols.addr[idx].tolist(), cols.site[idx].tolist(),
                    cols.sh[idx].tolist()):
                latency = access(proc, is_write, addr, site, shared)
                if lat_out is not None:
                    lat_out[i] = latency
                elapsed += latency
        return elapsed


class BaseBatchKernel(_BatchKernel):
    """BASE: shared accesses are fixed-cost remote word operations; the
    private side is an ordinary cache whose misses are closed-form (an
    install has no protocol side effects beyond its own set)."""

    def _scan(self, cols):
        line, wr, sh, addr = cols.line, cols.wr, cols.sh, cols.addr
        priv = ~sh
        ch = self._slot_chains(cols, priv, "base")
        resident = ch.resident(line, self._gset(self.tags, cols, ch.slot))
        # Installed lines are fully valid and writes validate their word,
        # so a resident private line always hits; misses install.
        miss = priv & ~resident
        touch = priv & (wr | miss)
        repl = (self.scheme.touched[cols.procv, addr]
                | self._prior_addr(cols, touch))
        ctx = {"miss": miss, "repl": repl, "touch": touch, "last": ch.last,
               "slot": ch.slot, "alloc": priv}
        return np.ones(cols.n, dtype=bool), ctx

    def _apply(self, eng, cols, ctx, lat_out=None):
        wd, wr, sh, addr, line = (cols.wd, cols.wr, cols.sh, cols.addr,
                                  cols.line)
        s = ctx["slot"]
        miss, repl, touch = ctx["miss"], ctx["repl"], ctx["touch"]
        last = ctx["last"]
        result = eng.result
        bd = result.breakdown
        elapsed = self._work(eng, cols)

        shr = sh & ~wr
        n_shr = int(shr.sum())
        if n_shr:
            result.reads += n_shr
            result.shared_reads += n_shr
            mc = result.miss_counts
            mc[MissKind.UNCACHED] = mc.get(MissKind.UNCACHED, 0) + n_shr
            cycles = n_shr * self.word_lat
            result.miss_latency_total += cycles
            result.miss_latency_count += n_shr
            bd["read_stall"] += cycles
            self._traffic(eng, read_words=2 * n_shr)
            elapsed += cycles
            if lat_out is not None:
                lat_out[shr] = self.word_lat

        pr_miss = miss & ~wr
        n_pm = int(pr_miss.sum())
        if n_pm:
            rp = repl[pr_miss]
            elapsed += self._note_read_misses(
                eng, n_pm, 0, ((MissKind.REPLACEMENT, rp),
                               (MissKind.COLD, ~rp)))
            if lat_out is not None:
                lat_out[pr_miss] = self.miss_lat

        pr_hit = ~sh & ~wr & ~miss
        n_ph = int(pr_hit.sum())
        if n_ph:
            elapsed += self._note_hits(eng, n_ph, 0)
            if lat_out is not None:
                lat_out[pr_hit] = self.hit_lat

        fill = miss & last
        if fill.any():
            # BASE keeps no per-word versions; a fill is tags + validity.
            for p, idx in self._parts_idx(cols, fill):
                self.tags[p][s[idx]] = line[idx]
                self.wv[p][s[idx]] = True
        if touch.any():
            self.scheme.touched[cols.procv[touch], addr[touch]] = True

        n_wr = int(wr.sum())
        if n_wr:
            result.writes += n_wr
            self._bump_shadow(addr[wr], cols.procv[wr])
            shw = sh & wr
            n_sw = int(shw.sum())
            result.shared_writes += n_sw
            self._traffic(eng, write_words=2 * n_sw)
            pw = wr & ~sh
            if n_wr > n_sw:
                for p, idx in self._parts_idx(cols, pw & last):
                    self.wv[p][s[idx], wd[idx]] = True
                wm = pw & miss
                n_wm = int(wm.sum())
                if n_wm:  # write-allocate fetch, non-blocking for the CPU
                    self._traffic(
                        eng, read_words=n_wm * (1 + self.line_words))
            elapsed += self._write_latency(eng, n_sw, n_wr - n_sw)
            if lat_out is not None:
                lat_out[shw] = self.word_lat if self.seq else self.hit_lat
                lat_out[pw] = self.hit_lat
        return elapsed


class _WriteBufferMixin:
    """Shared-write buffering for the write-through schemes (TPI/SC)."""

    def _note_shared_writes(self, proc: int, addrs: np.ndarray) -> int:
        """Feed ``addrs`` (in program order) to the write buffer; returns
        network words injected now (FIFO posts each write immediately, the
        coalescing buffer holds everything until the next sync drain)."""
        wbuf = self.scheme.wbuffers[proc]
        n = len(addrs)
        if wbuf.kind is WriteBufferKind.FIFO:
            wbuf.pending += n
            wbuf.total_writes += n
            return WRITE_MESSAGE_WORDS * n
        wbuf.total_writes += n
        uniq, counts = np.unique(addrs, return_counts=True)
        for a, c in zip(uniq.tolist(), counts.tolist()):
            if a in wbuf.pending:
                wbuf.merged_writes += c
            else:
                wbuf.pending.add(a)
                wbuf.merged_writes += c - 1
        return 0


class TpiBatchKernel(_WriteBufferMixin, _BatchKernel):
    """TPI fully in closed form: hit tests, fills, refreshes, timetag
    stamping, and miss classification.

    The per-word state after any prefix of a window's events is a pure
    function of the pre-window state and the prefix itself (cold lines
    have no other writer), so each quantity has a vector formula.  The
    only subtlety is that whether a Time-Read *stamps* its word (raises
    its tag to R) depends on whether it missed, which depends on earlier
    stamps to the same word.  Monotonicity breaks the circle exactly: a
    first pass ignoring stamps computes a superset of the real misses in
    which every spurious member is preceded by a real stamper — so using
    that set as the stamper set in a second pass reproduces the real
    outcome for every event.
    """

    def __init__(self, scheme):
        super().__init__(scheme)
        self._site_cap = 0
        self._time_read = np.zeros(0, dtype=bool)
        self._strict = np.zeros(0, dtype=bool)

    def _site_tables(self, max_site: int):
        if max_site >= self._site_cap:
            cap = max_site + 1
            marking = self.scheme.ctx.marking
            time_read = np.zeros(cap, dtype=bool)
            strict = np.zeros(cap, dtype=bool)
            for site, mark in marking.tpi.items():
                if site < cap and mark is RefMark.TIME_READ:
                    time_read[site] = True
            for site in marking.strict_sites:
                if site < cap:
                    strict[site] = True
            self._time_read, self._strict, self._site_cap = (
                time_read, strict, cap)
        return self._time_read, self._strict

    def _scan(self, cols):
        scheme = self.scheme
        R = scheme.epoch_index
        mod = scheme.modulus
        per_word = scheme.per_word_tags
        n = cols.n
        s, line, wd = cols.s, cols.line, cols.wd
        wr, sh, addr, site = cols.wr, cols.sh, cols.addr, cols.site
        rd = ~wr

        ch = self._slot_chains(cols, None, "hold")  # every access allocates
        slot = ch.slot
        ach = ch.run_addrs(self._addr_chains(cols))
        tags0 = self._gset(self.tags, cols, slot)
        resident = ch.resident(line, tags0)
        wb = ach.prior_any(wr)
        wv0 = self._gword(self.wv, cols, slot)

        tr_table, strict_table = self._site_tables(int(site.max()))
        tr = rd & sh & tr_table[site]
        strict = tr & strict_table[site]
        region = scheme.region_of[addr]
        window = time_read_window(R, scheme.w_regs[np.maximum(region, 0)],
                                  mod)
        no_region = region < 0
        zeros = np.zeros(n, dtype=bool)

        if per_word:
            age0 = word_age(R, self._gword(self.tt, cols, slot), mod)
        else:
            # Per-line tags live on word 0; strict Time-Reads never hit.
            age0 = word_age(R, self._gset(self.tt, cols, slot)[:, 0], mod)

        def tt_pass(age, strict_ok):
            return np.where(tr, np.where(strict, strict_ok,
                                         (age <= window) | no_region), True)

        # Pass 1, pre-window state only: exact for every event up to (and
        # including) its run's first effective miss.  A later run's head
        # misses, which makes the rest of that run fresh whatever pass 1
        # says about it.
        if per_word:
            age_p = np.where(wb, 0, age0)
            hit_p = resident & (wb | wv0) & tt_pass(age_p, age_p == 0)
        else:
            hit_p = resident & (wb | wv0) & tt_pass(age0, zeros)
        cand = np.where(wr, ~resident, ~hit_p)
        # fresh: a prior same-run miss filled/refreshed the line, so every
        # word is valid with tag >= R-1 (the paper's fill rule).
        fresh = ch.runs.prior_any(cand)
        # Per run: fresh via install, not refresh (a later run installs).
        fill = (tags0 != line) | ~ch.first
        valid = wb | fresh | wv0
        if per_word:
            age_f = np.where(fill | ~wv0, 1, np.minimum(age0, 1))
            age_ns = np.where(wb, 0, np.where(fresh, age_f, age0))
            hit_ns = resident & valid & tt_pass(age_ns, age_ns == 0)
            # Pass 2: stamps from pass-1 misses (exact, see class docs).
            stamped = ach.prior_any(rd & ~hit_ns & ~strict)
            age2 = np.where(stamped, 0, age_ns)
            hit = resident & valid & tt_pass(age2, age2 == 0)
        else:
            age_ns = np.where(fresh, 1, age0)
            stamped = zeros
            hit = resident & valid & tt_pass(age_ns, zeros)
        rmiss = rd & ~hit
        wmiss = wr & ~resident

        cver0 = self._gword(self.cver, cols, slot)
        ver0 = self.shadow.version[addr]
        # Words rewritten from memory during the window carry a current
        # version: any refresh/fill upgraded word, or the accessed word of
        # any earlier read miss to the same address.
        rm_before = ach.prior_any(rmiss)
        if per_word:
            refreshed = fresh & (fill | ~wv0 | (age0 > 1))
        else:
            refreshed = fresh
        current = wb | rm_before | refreshed | (cver0 == ver0)
        ok = np.ones(n, dtype=bool)
        if self.check:
            fresh_ver = wb | rm_before | refreshed
            stale = hit & ~fresh_ver & (
                cver0 < self.shadow.epoch_version[addr])
            if stale.any():
                # The staleness oracle may fire: route the whole set
                # through the exact path so it fires against true state.
                ok = ~ch.sets.group_any(stale)
        touched = (scheme.touched[cols.procv, addr]
                   | self._addr_chains(cols).prior_any(
                       np.ones(n, dtype=bool)))

        ctx = {"tr": tr, "strict": strict, "hit": hit,
               "rmiss": rmiss, "wmiss": wmiss, "resident": resident,
               "valid": valid, "current": current, "touched": touched,
               "fill": fill, "last": ch.last, "slot": slot}
        return ok, ctx

    def _apply(self, eng, cols, ctx, lat_out=None):
        scheme = self.scheme
        R = scheme.epoch_index
        per_word = scheme.per_word_tags
        c = ctx
        wd, wr, sh, addr, line = (cols.wd, cols.wr, cols.sh, cols.addr,
                                  cols.line)
        s = c["slot"]
        rmiss, wmiss, hit = c["rmiss"], c["wmiss"], c["hit"]
        result = eng.result
        elapsed = self._work(eng, cols)

        rd = ~wr
        rhit = rd & hit
        n_hit = int(rhit.sum())
        if n_hit:
            elapsed += self._note_hits(eng, n_hit, int((rhit & sh).sum()))
            if lat_out is not None:
                lat_out[rhit] = self.hit_lat
        scheme.time_reads += int(c["tr"].sum())
        scheme.time_read_hits += int((c["tr"] & hit).sum())
        scheme.strict_reads += int(c["strict"].sum())

        n_rm = int(rmiss.sum())
        if n_rm:
            res, val, cur, tch = (c["resident"][rmiss], c["valid"][rmiss],
                                  c["current"][rmiss], c["touched"][rmiss])
            elapsed += self._note_read_misses(
                eng, n_rm, int(sh[rmiss].sum()),
                ((MissKind.CONSERVATIVE, res & val & cur),
                 (MissKind.TRUE_SHARING, res & val & ~cur),
                 (MissKind.RESET, res & ~val),
                 (MissKind.REPLACEMENT, ~res & tch),
                 (MissKind.COLD, ~res & ~tch)))
            if lat_out is not None:
                lat_out[rmiss] = self.miss_lat

        n_wr = int(wr.sum())
        if n_wr:
            self._bump_shadow(addr[wr], cols.procv[wr])

        # ---- state: each slot as its last run leaves it -----------------
        last = c["last"]
        miss_any = (rmiss | wmiss) & last
        if miss_any.any():
            lw = self.line_words
            for p, idx in self._parts_idx(cols, miss_any):
                su, first = np.unique(s[idx], return_index=True)
                lu = line[idx][first]
                fillu = c["fill"][idx][first]
                base = lu * lw
                sv = self.shadow.version[base[:, None] + np.arange(lw)]
                if per_word:
                    ttu = self.tt[p][su]
                    keep = (~fillu[:, None]) & self.wv[p][su] & (ttu >= R - 1)
                    self.tt[p][su] = np.where(keep, ttu, R - 1)
                    self.cver[p][su] = np.where(keep, self.cver[p][su], sv)
                else:
                    self.tt[p][su] = R - 1
                    self.cver[p][su] = sv
                self.wv[p][su] = True
                self.tags[p][su] = lu
            if per_word and n_rm:
                # Accessed word of each read miss: version refetched, tag
                # stamped to R unless the Time-Read was strict.
                for p, idx in self._parts_idx(cols, rmiss & last):
                    self.cver[p][s[idx], wd[idx]] = (
                        self.shadow.version[addr[idx]])
                    self.tt[p][s[idx], wd[idx]] = np.where(
                        c["strict"][idx], R - 1, R)
        scheme.touched[cols.procv, addr] = True

        if n_wr:
            result.writes += n_wr
            for p, idx in self._parts_idx(cols, wr & last):
                sw, ww = s[idx], wd[idx]
                self.wv[p][sw, ww] = True
                if per_word:
                    self.tt[p][sw, ww] = R
                self.cver[p][sw, ww] = self.shadow.version[addr[idx]]
            shw = wr & sh
            n_sw = int(shw.sum())
            result.shared_writes += n_sw
            if n_sw:
                words = 0
                for p, idx in self._parts_idx(cols, shw):
                    words += self._note_shared_writes(p, addr[idx])
                self._traffic(eng, write_words=words)
            n_wm = int(wmiss.sum())
            if n_wm:  # write-allocate fetch, non-blocking for the CPU
                self._traffic(eng, read_words=n_wm * (1 + self.line_words))
            elapsed += self._write_latency(eng, n_sw, n_wr - n_sw)
            if lat_out is not None:
                lat_out[shw] = self.word_lat if self.seq else self.hit_lat
                lat_out[wr & ~sh] = self.hit_lat
        return elapsed


class ScBatchKernel(_WriteBufferMixin, _BatchKernel):
    """SC fully in closed form: bypassing reads are fixed-cost word
    fetches classified against the evolving line state; cached reads hit
    whenever the line is resident (installed lines are fully valid);
    misses install with the line's shadow snapshot."""

    def __init__(self, scheme):
        super().__init__(scheme)
        self._site_cap = 0
        self._bypass = np.zeros(0, dtype=bool)

    def _site_table(self, max_site: int):
        if max_site >= self._site_cap:
            cap = max_site + 1
            marking = self.scheme.ctx.marking
            bypass = np.zeros(cap, dtype=bool)
            for site, mark in marking.sc.items():
                if site < cap and mark is RefMark.TIME_READ:
                    bypass[site] = True
            self._bypass, self._site_cap = bypass, cap
        return self._bypass

    def _scan(self, cols):
        scheme = self.scheme
        s, line, wd = cols.s, cols.line, cols.wd
        wr, sh, addr, site = cols.wr, cols.sh, cols.addr, cols.site

        bypass = ~wr & sh & self._site_table(int(site.max()))[site]
        cached = ~bypass
        ch = self._slot_chains(cols, cached,
                               ("sc", id(self.scheme.ctx.marking)))
        ach = self._addr_chains(cols)
        resident = ch.resident(line, self._gset(self.tags, cols, ch.slot))
        miss = cached & ~resident  # line miss: install (read or write)
        fresh = ch.runs.prior_any(miss)
        wb = ch.run_addrs(ach).prior_any(wr)
        cver0 = self._gword(self.cver, cols, ch.slot)
        current = wb | fresh | (cver0 == self.shadow.version[addr])
        touched = (scheme.touched[cols.procv, addr]
                   | ach.prior_any(bypass | wr | (miss & ~wr)))

        ok = np.ones(cols.n, dtype=bool)
        if self.check:
            stale = (cached & ~wr & resident & ~wb & ~fresh
                     & (cver0 < self.shadow.epoch_version[addr]))
            if stale.any():
                ok = ~ch.sets.group_any(stale)
        ctx = {"bypass": bypass, "miss": miss, "have": resident,
               "current": current, "touched": touched, "last": ch.last,
               "slot": ch.slot, "alloc": cached}
        return ok, ctx

    def _apply(self, eng, cols, ctx, lat_out=None):
        scheme = self.scheme
        c = ctx
        wd, wr, sh, addr, line = (cols.wd, cols.wr, cols.sh, cols.addr,
                                  cols.line)
        s = c["slot"]
        bypass, miss = c["bypass"], c["miss"]
        result = eng.result
        elapsed = self._work(eng, cols)

        n_by = int(bypass.sum())
        if n_by:
            ab = addr[bypass]
            have = c["have"][bypass]
            cur = c["current"][bypass]
            tch = c["touched"][bypass]
            mc = result.miss_counts
            for kind, mask in ((MissKind.CONSERVATIVE, have & cur),
                               (MissKind.TRUE_SHARING, have & ~cur),
                               (MissKind.REPLACEMENT, ~have & tch),
                               (MissKind.COLD, ~have & ~tch)):
                count = int(mask.sum())
                if count:
                    mc[kind] = mc.get(kind, 0) + count
            result.reads += n_by
            result.shared_reads += n_by
            cycles = n_by * self.word_lat
            result.miss_latency_total += cycles
            result.miss_latency_count += n_by
            result.breakdown["read_stall"] += cycles
            self._traffic(eng, read_words=2 * n_by)
            scheme.touched[cols.procv[bypass], ab] = True
            elapsed += cycles
            if lat_out is not None:
                lat_out[bypass] = self.word_lat

        rmiss = miss & ~wr
        n_rm = int(rmiss.sum())
        if n_rm:
            tch = c["touched"][rmiss]
            elapsed += self._note_read_misses(
                eng, n_rm, int(sh[rmiss].sum()),
                ((MissKind.REPLACEMENT, tch), (MissKind.COLD, ~tch)))
            scheme.touched[cols.procv[rmiss], addr[rmiss]] = True
            if lat_out is not None:
                lat_out[rmiss] = self.miss_lat

        plain = ~wr & ~bypass & ~miss
        n_pl = int(plain.sum())
        if n_pl:
            elapsed += self._note_hits(eng, n_pl, int((plain & sh).sum()))
            if lat_out is not None:
                lat_out[plain] = self.hit_lat

        n_wr = int(wr.sum())
        if n_wr:
            self._bump_shadow(addr[wr], cols.procv[wr])
        last = c["last"]
        fill = miss & last
        if fill.any():
            for p, idx in self._parts_idx(cols, fill):
                self._install_lines(p, s[idx], line[idx])

        if n_wr:
            result.writes += n_wr
            aw = addr[wr]
            for p, idx in self._parts_idx(cols, wr & last):
                sw, ww = s[idx], wd[idx]
                self.wv[p][sw, ww] = True
                self.cver[p][sw, ww] = self.shadow.version[addr[idx]]
            scheme.touched[cols.procv[wr], aw] = True
            shw = wr & sh
            n_sw = int(shw.sum())
            result.shared_writes += n_sw
            if n_sw:
                words = 0
                for p, idx in self._parts_idx(cols, shw):
                    words += self._note_shared_writes(p, addr[idx])
                self._traffic(eng, write_words=words)
            n_wm = int((miss & wr).sum())
            if n_wm:  # write-allocate fetch, non-blocking for the CPU
                self._traffic(eng, read_words=n_wm * (1 + self.line_words))
            elapsed += self._write_latency(eng, n_sw, n_wr - n_sw)
            if lat_out is not None:
                lat_out[shw] = self.word_lat if self.seq else self.hit_lat
                lat_out[wr & ~sh] = self.hit_lat
        return elapsed


class UpdateBatchKernel(_BatchKernel):
    """Write-update directory, full-batch: read hits batch like HW;
    write hits batch with their per-write broadcast traffic computed in
    closed form from the sharer sets; misses (and oracle-suspicious
    reads) run through the scheme's exact access methods in an in-order
    loop inside :meth:`_apply`.

    The sharer sets are stable under the batch-first order: a processor's
    own mid-window fill only adds *itself* to a line's sharer set, which
    never changes the "other sharers" a broadcast pays for, and
    evict-coupled cold planning keeps every remote membership fixed for
    the window.  Batched hits after an in-window fill are proven by the
    set chain, and the fill's refreshed versions excuse them from the
    pre-window staleness test.  Direct-mapped caches only (see
    :meth:`build`)."""

    @classmethod
    def build(cls, scheme) -> Optional["UpdateBatchKernel"]:
        # Exact events interleave with the batched prefix inside the
        # apply; LRU stamps written after it would misorder them.
        if scheme.machine.cache.associativity != 1:
            return None
        return cls(scheme)

    def _scan(self, cols):
        line = cols.line
        wr, sh, addr = cols.wr, cols.sh, cols.addr

        ch = self._set_chains(cols, None, "hold")  # every access installs
        tags0 = self._gset(self.tags, cols, cols.s)
        resident = ch.resident(line, tags0)
        batch = resident
        if self.check:
            # A batched read serves its cached version, which must meet
            # the epoch floor unless an in-window write or fill refreshed
            # it; suspicious reads take the exact path where the oracle
            # fires against true state.
            fresh = (self._prior_addr(cols, wr) | ch.prior_any(~resident)
                     | (self._gword(self.cver, cols, cols.s)
                        >= self.shadow.epoch_version[addr]))
            batch = resident & (wr | ~sh | fresh)
        return np.ones(cols.n, dtype=bool), {"batch": batch}

    def _apply(self, eng, cols, ctx, lat_out=None):
        scheme = self.scheme
        batch = ctx["batch"]
        s, wd, wr, sh, addr = cols.s, cols.wd, cols.wr, cols.sh, cols.addr
        result = eng.result
        elapsed = self._work(eng, cols)

        rd = batch & ~wr
        n_rd = int(rd.sum())
        if n_rd:
            elapsed += self._note_hits(eng, n_rd, int((rd & sh).sum()))
            if lat_out is not None:
                lat_out[rd] = self.hit_lat

        bw = batch & wr
        n_bw = int(bw.sum())
        if n_bw:
            result.writes += n_bw
            self._bump_shadow(addr[bw], cols.procv[bw])
            for p, idx in self._parts_idx(cols, bw):
                self.cver[p][s[idx], wd[idx]] = self.shadow.version[addr[idx]]
            scheme.total_writes += n_bw
            shw = bw & sh
            n_sw = int(shw.sum())
            result.shared_writes += n_sw
            if n_sw:
                for p, idx in self._parts_idx(cols, shw):
                    if scheme.coalescing:
                        self._coalesce(p, addr[idx])
                    else:
                        self._traffic(eng, write_words=self._broadcast(
                            p, addr[idx], cols.line[idx]))
            elapsed += self._write_latency(eng, n_sw, n_bw - n_sw)
            if lat_out is not None:
                lat_out[shw] = self.word_lat if self.seq else self.hit_lat
                lat_out[bw & ~sh] = self.hit_lat

        slow = ~batch
        if slow.any():
            elapsed += self._exact_events(eng, cols, slow, lat_out)
        return elapsed

    def _coalesce(self, proc: int, addrs: np.ndarray) -> None:
        scheme = self.scheme
        pending = scheme.pending[proc]
        uniq, counts = np.unique(addrs, return_counts=True)
        for a, c in zip(uniq.tolist(), counts.tolist()):
            if a in pending:
                scheme.merged_writes += c
            else:
                pending.add(a)
                scheme.merged_writes += c - 1

    def _broadcast(self, proc: int, addrs: np.ndarray,
                   lines: np.ndarray) -> int:
        """FIFO broadcasts: per write, the memory update plus one update
        message per other sharer; remote copies are patched to the word's
        final version (a span's intermediate values are unobservable —
        any processor reading the line this epoch would have made it hot).
        """
        scheme = self.scheme
        n_sets = self.machine.cache.n_sets
        line_words = self.line_words
        words = 0
        uniq, counts = np.unique(addrs, return_counts=True)
        uniq_lines = np.unique(lines)
        sharer_map = {int(line): sorted(scheme.sharers.get(int(line), ()))
                      for line in uniq_lines}
        for a, c in zip(uniq.tolist(), counts.tolist()):
            line = a // line_words
            word = a % line_words
            holders = sharer_map[line]
            others = sum(1 for q in holders if q != proc)
            words += c * (WRITE_MESSAGE_WORDS + 2 * others)
            scheme.updates_sent += c * others
            version = int(self.shadow.version[a])
            set_index = line % n_sets
            for q in holders:
                if self.tags[q][set_index] != line:
                    raise ProtocolError(
                        f"update: sharer {q} of line {line} has no copy")
                self.cver[q][set_index, word] = version
        return words


class MsiBatchKernel(_BatchKernel):
    """Write-back MSI (the hw/limitless directory and snoop): hits,
    silent writes and the own-cache side of fills are vectorized, and so
    are the *quiet* misses and upgrades (:meth:`_quiet`), those no other
    processor can observe; only the rest (the *loud* ones) run the
    scheme's own protocol-side transitions
    (:class:`~repro.coherence.directory.MsiScheme`) in program order, so
    owner forwards, invalidations, LimitLess traps and the
    Tullsen-Eggers criterion are the exact path's code, accounted by the
    engine's own routine.

    A quiet transition touches no remote cache and no other line's
    protocol state, so its closed form (:meth:`_quiet_transitions`)
    prices it as the scheme's methods would and leaves each of its
    lines in the state its last transition leaves: the quiet and loud
    sets name disjoint lines and commute.

    Cold-span planning makes the in-order loop safe: any remote holder
    that could evict or observe a cold line within the epoch makes its
    set hot, so the remote-cache mutations the transitions perform
    (invalidations, owner demotions) commute with everything batched,
    and slow events of distinct processors in one merged window commute
    with each other.  Misses happen only at run heads, the
    starts of a slot's line residencies (see :class:`_SetChains`): the
    first run's head evicts the slot's window-start occupant (none if the
    way was invalid), a later run's head the previous run's line (the
    LRU victim the slot scan chose), and the transitions hand each victim
    and its dirty bit to the scheme's own ``_filled``/``_evict``.
    ``_plan_epoch``'s eviction pre-check keeps those victims private: a
    set a task must evict from that holds a line another task touches
    which a miss could displace, or whose invalidation could change the
    victim, is hot, so it holds no cold event.

    Subclasses supply :meth:`_exclusive`, :meth:`_holders_ok` and
    :meth:`_settle`."""

    def _exclusive(self, cols, ch, tags0, dirty0) -> np.ndarray:
        """Per event: may the processor's resident copy be written
        silently when the event executes?  Window-start state counts
        only in the first run, and only for the slot's window-start
        occupant (``tags0``); any other run starts from a fresh fill."""
        raise NotImplementedError

    def _holders_ok(self, lines, proc, shared, private) -> np.ndarray:
        """Per named line, the scheme's part of the quiet rule: at window
        start, no processor but ``proc`` holds it by the protocol, and
        the protocol agrees with ``proc``'s cache.  ``shared`` and
        ``private``: does ``proc`` access the line shared / private in
        the window."""
        raise NotImplementedError

    def _settle(self, cols, split) -> int:
        """Protocol state after the quiet transitions (``split``: what
        :meth:`_quiet` returns); returns their replacement-hint
        coherence words."""
        return 0

    def _scan(self, cols):
        line, wr, sh, addr = cols.line, cols.wr, cols.sh, cols.addr

        ch = self._slot_chains(cols, None, "hold")  # every access holds
        tags0 = self._gset(self.tags, cols, ch.slot)
        dirty0 = self._gset(self.dirty, cols, ch.slot)
        resident = ch.resident(line, tags0)
        miss = ~resident
        upgrade = (wr & sh & resident
                   & ~self._exclusive(cols, ch, tags0, dirty0))

        ok = np.ones(cols.n, dtype=bool)
        if self.check:
            # MSI reads must observe the exact current version: fills and
            # same-address writes refetch it, anything else must compare
            # equal or the whole set goes to the exact path so the oracle
            # fires against true state.
            fresh = (ch.run_addrs(self._addr_chains(cols)).prior_any(wr)
                     | ch.runs.prior_any(miss))
            stale = (~wr & sh & resident & ~fresh
                     & (self._gword(self.cver, cols, ch.slot)
                        != self.shadow.version[addr]))
            if stale.any():
                ok = ~ch.sets.group_any(stale)

        victim, vdirty = ch.victims(line, wr, tags0, dirty0)
        ctx = {"miss": miss, "upgrade": upgrade, "victim": victim,
               "vdirty": vdirty, "last": ch.last, "slot": ch.slot}
        return ok, ctx

    def _apply(self, eng, cols, ctx, lat_out=None):
        wd, wr, sh, addr = cols.wd, cols.wr, cols.sh, cols.addr
        s = ctx["slot"]
        miss, upgrade, last = ctx["miss"], ctx["upgrade"], ctx["last"]
        result = eng.result
        elapsed = self._work(eng, cols)
        slow = miss | upgrade
        # The quiet test reads window-start state: before the own-cache
        # side below overwrites any cache.
        split = self._quiet(cols, ctx, slow) if slow.any() else None

        rhit = ~wr & ~miss
        n_rh = int(rhit.sum())
        if n_rh:
            elapsed += self._note_hits(eng, n_rh, int((rhit & sh).sum()))
            if lat_out is not None:
                lat_out[rhit] = self.hit_lat

        if wr.any():
            self._bump_shadow(addr[wr], cols.procv[wr])
        # Own-cache side, as each slot's last run leaves it: the fill
        # resets the slot, then every access marks its word used and every
        # write dirties the line.
        fill = miss & last
        if fill.any():
            for p, idx in self._parts_idx(cols, fill):
                su = s[idx]
                self.used[p][su] = False
                self.dirty[p][su] = False
                self._install_lines(p, su, cols.line[idx])
        for p, idx in self._parts_idx(cols, last):
            self.used[p][s[idx], wd[idx]] = True

        if wr.any():
            for p, idx in self._parts_idx(cols, wr & last):
                sw = s[idx]
                self.dirty[p][sw] = True
                self.cver[p][sw, wd[idx]] = self.shadow.version[addr[idx]]
            # Private and exclusive write hits are silent: hit latency,
            # no traffic, no protocol motion.
            silent = wr & ~miss & ~upgrade
            n_silent = int(silent.sum())
            result.writes += n_silent
            result.shared_writes += int((silent & sh).sum())
            cycles = n_silent * self.hit_lat
            result.breakdown["busy"] += cycles
            elapsed += cycles
            if lat_out is not None:
                lat_out[silent] = self.hit_lat

        if split is not None:
            elapsed += self._quiet_transitions(eng, cols, ctx, split,
                                               lat_out)
            loud = slow & ~split[0]
            if loud.any():
                elapsed += self._transitions(eng, cols, ctx, loud, lat_out)
        return elapsed

    def _quiet(self, cols, ctx, slow):
        """Split the slow events (misses and upgrades) into quiet and loud.

        Every line a slow event names, as its line or as its victim, is
        tested against window-start state.  A line is quiet when exactly
        one processor touches it in the window (or evicts it), its events
        are all shared or all private, the scheme finds no other holder
        and agrees with the processor's cache (:meth:`_holders_ok`), and
        a line with a shared slow event has no pending invalidation
        reason.  An event is quiet when its line and its victim are;
        then any line a loud event names turns loud, until nothing
        changes.  Returns ``(quiet event mask, lines, proc, shared,
        lpos, vpos)``: the named lines (sorted) with their processor and
        "has shared events", and per event its line's and its victim's
        index into them (-1 for none)."""
        line, sh = cols.line, cols.sh
        victim = ctx["victim"]
        evicts = slow & ~ctx["upgrade"] & (victim >= 0)
        lines = np.unique(np.concatenate((line[slow], victim[evicts])))
        n = len(lines)
        lpos = np.searchsorted(lines, line)
        on = lines.take(lpos, mode="clip") == line
        lpos[~on] = -1
        vpos = np.full(cols.n, -1, dtype=np.int64)
        vpos[evicts] = np.searchsorted(lines, victim[evicts])
        shared = np.bincount(lpos[on & sh], minlength=n) > 0
        private = np.bincount(lpos[on & ~sh], minlength=n) > 0
        ok = ~(shared & private)

        parts = cols.parts
        if len(parts) == 1:
            proc = np.full(n, parts[0][0], dtype=np.int64)
        else:
            P = self.machine.n_procs
            procv = cols.procv
            pairs = np.unique(np.concatenate((
                lpos[on] * P + procv[on], vpos[evicts] * P + procv[evicts])))
            at, who = np.divmod(pairs, P)
            proc = np.empty(n, dtype=np.int64)
            proc[at] = who
            ok[at[1:][at[1:] == at[:-1]]] = False  # two processors

        # A shared miss is classified by (and consumes) a pending
        # invalidation reason: a line with one stays loud.
        reasons = self.scheme.inval_reason
        claim = np.bincount(lpos[slow & sh], minlength=n) > 0
        for p, sel in self._by_proc(proc, claim):
            pending = dict.get(reasons, p)
            if pending:
                ok[sel] &= ~np.isin(lines[sel], np.fromiter(
                    pending, np.int64, len(pending)))
        ok &= self._holders_ok(lines, proc, shared, private)

        ev = np.flatnonzero(slow)
        el, ev_v = lpos[ev], vpos[ev]
        while True:
            q = ok[el] & ((ev_v < 0) | ok[ev_v])
            named = np.concatenate((el[~q], ev_v[~q]))
            named = named[named >= 0]
            if not ok[named].any():
                break
            ok[named] = False
        quiet = np.zeros(cols.n, dtype=bool)
        quiet[ev[q]] = True
        return quiet, lines, proc, shared, lpos, vpos

    @staticmethod
    def _by_proc(proc, mask):
        """Yield ``(p, selector)`` per processor among the masked lines."""
        for p in np.unique(proc[mask]).tolist():
            yield p, mask & (proc == p)

    def _quiet_transitions(self, eng, cols, ctx, split, lat_out=None) -> int:
        """The quiet misses and upgrades in closed form, as the scheme's
        transitions would price them in program order: a read miss is a
        replacement miss if its processor had seen the line before the
        window or missed on it earlier in it, else cold; a write miss
        costs the hit latency (plus the line fetch for a shared one under
        sequential consistency), an upgrade the hit latency (plus the
        grant under sequential consistency) and its round trip; every
        miss fetches its line, writes back a dirty victim, and marks the
        line seen."""
        quiet = split[0]
        wr, sh, line = cols.wr, cols.sh, cols.line
        result = eng.result
        bd = result.breakdown
        hit = self.hit_lat
        lw1 = 1 + self.line_words
        up = quiet & ctx["upgrade"]
        miss = quiet & ~up
        rmiss = miss & ~wr
        elapsed = 0
        if rmiss.any():
            # Missed on earlier in the window: all but the first miss per
            # (processor, line); ``akey // line_words`` keys that pair.
            missed = np.flatnonzero(ctx["miss"])
            _, first = np.unique(cols.akey[missed] // self.line_words,
                                 return_index=True)
            seen = np.zeros(cols.n, dtype=bool)
            seen[missed] = True
            seen[missed[first]] = False
            seen &= rmiss
            seen_lines = self.scheme.seen_lines
            for p, idx in self._parts_idx(cols, rmiss & ~seen):
                before = seen_lines[p]
                seen[idx] = [ln in before for ln in line[idx].tolist()]
            n_rm = int(rmiss.sum())
            elapsed += self._note_read_misses(
                eng, n_rm, int((rmiss & sh).sum()),
                ((MissKind.REPLACEMENT, seen), (MissKind.COLD, rmiss & ~seen)))
            if lat_out is not None:
                lat_out[rmiss] = self.miss_lat
        wmiss = miss & wr
        n_wm = int(wmiss.sum())
        n_up = int(up.sum())
        if n_wm or n_up:
            n_sw = int((wmiss & sh).sum())
            lat_sw = hit + (self.miss_lat if self.seq else 0)
            lat_up = hit + (self.network.control_latency() if self.seq else 0)
            cycles = (n_wm - n_sw) * hit
            for n, lat in ((n_sw, lat_sw), (n_up, lat_up)):
                bd["write_stall" if lat > hit else "busy"] += n * lat
                cycles += n * lat
            bd["busy"] += (n_wm - n_sw) * hit
            result.writes += n_wm + n_up
            result.shared_writes += n_sw + n_up
            elapsed += cycles
            if lat_out is not None:
                lat_out[wmiss] = np.where(sh[wmiss], lat_sw, hit)
                lat_out[up] = lat_up
        writeback = miss & (ctx["victim"] >= 0) & ctx["vdirty"]
        self._traffic(eng, read_words=n_wm * lw1,
                      write_words=int(writeback.sum()) * lw1,
                      coherence_words=2 * n_up + self._settle(cols, split))
        seen_lines = self.scheme.seen_lines
        for p, idx in self._parts_idx(cols, miss):
            seen_lines[p].update(line[idx].tolist())
        return elapsed

    def _transitions(self, eng, cols, ctx, slow, lat_out=None) -> int:
        """Misses and upgrades, in program order per processor: the
        scheme's protocol side, then the engine's accounting."""
        scheme = self.scheme
        account = eng._account
        elapsed = 0
        for proc, idx in self._parts_idx(cols, slow):
            for i, is_write, ln, word, shared, upgrade, occ, dirty in zip(
                    idx.tolist(), cols.wr[idx].tolist(),
                    cols.line[idx].tolist(), cols.wd[idx].tolist(),
                    cols.sh[idx].tolist(), ctx["upgrade"][idx].tolist(),
                    ctx["victim"][idx].tolist(),
                    ctx["vdirty"][idx].tolist()):
                if upgrade:
                    r = scheme._upgrade(proc, ln, word)
                else:
                    miss = scheme._write_miss if is_write else scheme._read_miss
                    r = miss(proc, ln, word, shared)
                    scheme._filled(proc, ln, occ if occ >= 0 else None,
                                   dirty, r)
                latency = account(is_write, shared, r)
                if lat_out is not None:
                    lat_out[i] = latency
                elapsed += latency
        return elapsed


class DirectoryBatchKernel(MsiBatchKernel):
    """HW directory: a copy is exclusive in state E/self.  The kernel
    gathers the scheme's :class:`~repro.coherence.sparse.DirectoryStore`
    columns directly — every protocol mutation writes through the
    :class:`DirEntry` proxies into those columns — and writes the quiet
    lines' final states into them."""

    def _exclusive(self, cols, ch, tags0, dirty0):
        # Window-start E/self holds only while the line keeps the slot it
        # started in (a K-way line evicted mid-window may come back as
        # the first run of another slot).  Any earlier shared write to
        # the line in its run left it E/self (write miss and upgrade both
        # end there; E/self hits stay).
        store = self.scheme.dirstore
        line = cols.line
        return (((store.state_code[line] == STATE_E)
                 & (store.owner_p1[line] == cols.procv + 1)
                 & (tags0 == line) & ch.first)
                | ch.runs.prior_any(cols.wr & cols.sh))

    def _holders_ok(self, lines, proc, shared, private):
        # A line with an entry is S{proc} or E/proc if resident, else U,
        # and has no private access.  A line without one (state U) is
        # untracked; a shared access to it must miss, since a resident
        # copy would read as held by nobody.
        store = self.scheme.dirstore
        row = store.row_p1[lines].astype(np.int64) - 1
        state = store.state_code[lines]
        mine = np.where(state == STATE_E, store.owner_p1[lines] == proc + 1,
                        (state == STATE_S) & (store.ptr_len[row] == 1)
                        & (store.ptr_pool[row, 0] == proc + 1))
        agree = np.where(self._resident(lines, proc), mine, state == STATE_U)
        return np.where(row >= 0, agree & ~private, agree | ~shared)

    def _resident(self, lines, proc) -> np.ndarray:
        """Per line: is it in its processor's cache (window-start tags)?"""
        sets = lines % self.machine.cache.n_sets
        out = np.zeros(len(lines), dtype=bool)
        for p, sel in self._by_proc(proc, np.ones(len(lines), dtype=bool)):
            out[sel] = (self.ways[p][sets[sel]]
                        == lines[sel, None]).any(axis=1)
        return out

    def _settle(self, cols, split):
        """Each quiet line with an entry, or with shared accesses (their
        first miss creates one), ends in the state its last transition
        leaves: S{proc} after a read miss, E/proc after a write miss or an
        upgrade, U after its eviction.  A replacement hint goes home for
        every evicted line with an entry."""
        quiet, lines, proc, shared, lpos, vpos = split
        store = self.scheme.dirstore
        tracked = (store.row_p1[lines] > 0) | shared
        idx = np.flatnonzero(quiet)
        vi = idx[vpos[idx] >= 0]
        hints = int(tracked[vpos[vi]].sum())
        at = np.concatenate((lpos[idx], vpos[vi]))
        keep = tracked[at]
        if not keep.any():
            return hints
        pos = np.concatenate((idx, vi))[keep]
        state = np.concatenate((
            np.where(cols.wr[idx], STATE_E, STATE_S),
            np.full(len(vi), STATE_U)))[keep]
        at = at[keep]
        order = np.lexsort((pos, at))
        at, state = at[order], state[order]
        final = np.ones(len(at), dtype=bool)
        final[:-1] = at[1:] != at[:-1]
        at, state = at[final], state[final]
        ln, p1 = lines[at], proc[at] + 1
        rows = store.row_p1[ln].astype(np.int64) - 1
        new = rows < 0
        if new.any():
            rows[new] = store.new_rows(ln[new])
        held = state != STATE_U
        store.state_code[ln] = state
        store.owner_p1[ln] = np.where(state == STATE_E, p1, 0)
        store.ptr_pool[rows] = 0
        store.ptr_pool[rows, 0] = np.where(held, p1, 0)
        store.ptr_len[rows] = held
        return hints


class SnoopBatchKernel(MsiBatchKernel):
    """Snooping MSI: a copy is exclusive in M, i.e. dirty."""

    def _exclusive(self, cols, ch, tags0, dirty0):
        # Dirty at window start, or after some earlier write in the run
        # (any write sets the dirty bit, and only the fill that opens a
        # run clears it mid-window).
        return (((tags0 == cols.line) & dirty0 & ch.first)
                | ch.runs.prior_any(cols.wr))

    def _holders_ok(self, lines, proc, shared, private):
        # Only a shared access snoops: no other materialized cache may
        # hold a line with one.  Evictions are silent.
        ok = np.ones(len(lines), dtype=bool)
        sub = np.flatnonzero(shared)
        if sub.size:
            ls, ps = lines[sub], proc[sub]
            sets = ls % self.machine.cache.n_sets
            for q, cache in self.caches.materialized():
                held = (cache.tags[sets] == ls[:, None]).any(axis=1)
                ok[sub[held & (ps != q)]] = False
        return ok


# ---------------------------------------------------------------------------
# The gang's config axis


class GangParams:
    """Stacked per-config parameter arrays for gang simulation.

    A gang (:mod:`repro.sim.gang`) simulates many back-end machine
    configurations over one shared trace.  This object lines the configs
    up as numpy axes: cache geometry (``line_words``/``n_sets``/
    ``associativity``), timetag width (``timetag_bits`` and the derived
    two-phase ``counter_modulus``), and the latency table
    (``hit_latency``/``base_miss_latency``) each become one stacked array
    indexed by config.  The trace-static work the configs can share —
    resolving every event address to ``(line, set, word)`` — collapses to
    the unique cache geometries and runs as a single
    ``(geometries x events)`` broadcast in :meth:`resolve`; per-config
    *protocol* state never stacks, because each member's results must stay
    byte-identical to a solo run (the PR-3 parity contract).
    """

    def __init__(self, machines):
        machines = list(machines)
        if not machines:
            raise ValueError("a gang needs at least one machine")
        self.machines = machines
        self.n_configs = len(machines)
        caches = [m.cache for m in machines]
        self.line_words = np.array([c.line_words for c in caches], np.int64)
        self.n_sets = np.array([c.n_sets for c in caches], np.int64)
        self.associativity = np.array([c.associativity for c in caches],
                                      np.int64)
        self.timetag_bits = np.array([m.tpi.timetag_bits for m in machines],
                                     np.int64)
        self.counter_modulus = np.int64(1) << self.timetag_bits
        self.hit_latency = np.array([m.hit_latency for m in machines],
                                    np.int64)
        self.base_miss_latency = np.array([m.base_miss_latency
                                           for m in machines], np.int64)
        # Unique cache geometries in first-appearance order, plus each
        # config's index into them: configs sharing a geometry share every
        # trace-static analysis built over it.
        self.geometries = []
        self.geometry_index = np.empty(self.n_configs, np.int64)
        seen = {}
        for i, cache in enumerate(caches):
            geometry = (cache.line_words, cache.n_sets)
            if geometry not in seen:
                seen[geometry] = len(self.geometries)
                self.geometries.append(geometry)
            self.geometry_index[i] = seen[geometry]

    @property
    def n_geometries(self) -> int:
        return len(self.geometries)

    def resolve(self, addr):
        """Geometry-resolve an address array for every unique geometry."""
        return resolve_geometries(addr, self.geometries)


def resolve_geometries(addr, geometries):
    """Resolve ``(line, set, word)`` for each ``(line_words, n_sets)``.

    One ``(geometries x events)`` broadcast replaces ``len(geometries)``
    separate passes; returns ``{geometry: (line, set, word)}`` row views
    (C-contiguous, one per geometry).  The formulas match
    :class:`repro.sim.fastengine._TaskArrays` exactly, so pre-resolved
    rows can never change a member's results.
    """
    addr = np.asarray(addr, dtype=np.int64)
    lw = np.array([g[0] for g in geometries], np.int64)[:, None]
    ns = np.array([g[1] for g in geometries], np.int64)[:, None]
    line = addr[None, :] // lw
    set_ = line % ns
    word = addr[None, :] - line * lw
    return {g: (line[i], set_[i], word[i])
            for i, g in enumerate(geometries)}


__all__ = ["BaseBatchKernel", "DirectoryBatchKernel", "GangParams",
           "MsiBatchKernel", "ScBatchKernel", "SnoopBatchKernel",
           "TpiBatchKernel", "UpdateBatchKernel",
           "prior_same_addr", "resolve_geometries"]
