"""Vectorized batch kernels: the schemes' cold-event paths over event arrays.

The fast engine (:mod:`repro.sim.fastengine`) partitions each epoch's
events into *hot* ones — accesses whose order across processors matters
this epoch — and *cold* ones, and hands all of the epoch's cold events,
across every task, to the scheme's kernel as one window before dispatch
(:meth:`_BatchKernel.preapply`).  A kernel scans the window and resolves
*every* outcome it can prove — hits, misses, fills, refreshes, timetag
stamping, miss classification — in closed form with numpy, then applies
the whole window at once; whatever it cannot prove runs through the
engine's exact per-event path.  The MSI kernel (hw, limitless, snoop)
vectorizes hits, silent writes, the own-cache side of fills and the
*quiet* misses and upgrades, those no other processor can observe; it
calls the scheme's own transitions in program order, inside the apply,
only for the rest.  The update kernel vectorizes a provable prefix per
set chain and runs the rest in program order through the exact path.

This module alone decides how a scheme batches.  :data:`KERNELS` maps a
scheme name to its kernel class, and each class declares the hot rule
and eviction coupling the fast engine plans its epochs by
(:class:`_BatchKernel`).  A configuration with no kernel (Tardis, and
update on a K-way cache) falls back on every epoch: the heap replays
each event, as under the reference engine.

A window is the epoch's columns compressed by the cold mask, one
operation per field (:class:`_Cols`).  Cache state is the scheme's
:class:`~repro.memsys.cache.CacheBank`, indexed by bank row (one per
processor) and **slot**, ``set * K + way`` for a K-way cache (a slot is
a set when the cache is direct-mapped), so every gather or scatter
covers all of the window's processors with one ``[row, slot]`` index.
A slot scan (:meth:`_BatchKernel._slot_chains`) gives each event the way
its line occupies when the event executes, so a slot's program-order
chain splits into *runs* that are exactly its line residencies
(:class:`_SetChains`).  Each run is the single-line closed form, except
that a run after the first starts with a miss that installs its line
fresh (evicting the previous run's line), so window-start state reaches
only the first run and the window leaves each slot as its last run left
it; the apply then writes each used slot's LRU stamp.  A set in which a
staleness-oracle check might fire is "poisoned": the window applies
nothing, and the engine makes the set's events hot for their task and
tries the rest again.  The apply writes each event's latency into one
array, whose prefix sums give the engine each cold segment's cycles.

Every per-event execution, and every MSI miss or upgrade another
processor could observe, goes through exactly the code the reference
engine uses, so cross-processor transitions and coherence-oracle errors
reproduce bit-identically; the scans only ever *prove* that the batched
events take a closed-form path.  Differential parity with the reference
engine is enforced by tests/test_engine_parity.py, and the closed forms
(the MSI kernel's quiet transitions among them) are pinned absolutely by
the golden digests of tests/test_golden.py.

Closed-form misses lean on two facts about cold events: a task's cold
events run in program order, and cold lines are untouched by other
processors within the epoch — so the only writer of a task's cold shadow
words is the task itself, and a line's whole in-window life (install,
refresh, word validations) is a function of the window's own events.
Intra-window ordering between accesses to the same set or word is
restored with :class:`_Chains` (one stable argsort per key).

The loop-in-apply update kernel interleaves exact events with its
batched prefix, which batched LRU stamps would misorder, so it alone
requires a direct-mapped cache: for any other geometry its
:meth:`build` returns ``None``.
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


class _SetChains(_Chains):
    """Per-slot chains, their runs, and line-residency tracking.

    ``key`` groups events by cache slot (``set * K + way``, offset per
    task); ``slot`` is each event's slot in its
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
    """One scan window: the selected events of an epoch's analysis
    (:class:`repro.sim.fastengine._EpochBatch`), in dispatch order, over
    every task of the epoch (each on its own processor).

    Each field is one operation on the epoch's columns.  ``rank`` is each
    event's task, ``procv`` its processor and ``rowv`` its processor's
    cache-bank row; ``task_procs`` maps a rank to its processor.
    ``skey``/``akey`` are the grouping keys of the chains machinery: the
    set index / word address offset per task, so that no chain group
    ever crosses a processor boundary."""

    __slots__ = ("n", "s", "line", "wd", "wr", "sh", "addr", "site",
                 "work", "rank", "skey", "akey", "task_procs", "procv",
                 "rowv", "cache")

    _FIELDS = (("s", "set_"), ("line", "line"), ("wr", "is_write"),
               ("sh", "shared"), ("addr", "addr"), ("site", "site"),
               ("work", "work"), ("rank", "rank"))

    def __init__(self, batch, sel, rows: np.ndarray, total_words: int):
        """``sel``: a mask selecting the window's events (None: all of
        them); ``rows``: each task's bank row; ``total_words``: a
        multiple of the line size above every address."""
        for name, attr in self._FIELDS:
            arr = getattr(batch, attr)
            setattr(self, name, arr if sel is None else arr[sel])
        self.n = len(self.s)
        line_words, n_sets = batch.geometry
        self.wd = self.addr - self.line * line_words
        self.skey = self.rank * n_sets + self.s
        self.task_procs = batch.procs
        self.procv = batch.procs[self.rank]
        self.rowv = rows[self.rank]
        self.akey = self.addr + self.rank * total_words
        self.cache = {}


def _stretches(keys: np.ndarray):
    """Yield ``(key, lo, hi)`` for each stretch of equal ``keys``."""
    cuts = (np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()
    for lo, hi in zip([0] + cuts, cuts + [len(keys)]):
        yield int(keys[lo]), lo, hi


def _coalesce(pending: set, addrs: np.ndarray) -> int:
    """Merge ``addrs`` into a coalescing set of pending addresses;
    returns how many of them merged into an entry."""
    new = [a for a in np.unique(addrs).tolist() if a not in pending]
    pending.update(new)
    return len(addrs) - len(new)


class _BatchKernel:
    """Shared plumbing of every kernel: the cache bank's slot views, the
    scan frame, accounting.

    An epoch's cold events run as one scan + one apply over one window
    (:meth:`preapply`).  The scan starts from the frame (:meth:`_frame`),
    which gives each event its slot and residency, then proves every
    slot run by run (counters and traffic cover all events; cache state
    is written from each slot's last run, and each used slot of a
    set-associative cache gets its last use's LRU stamp) and poisons
    only sets where the staleness oracle might fire (:meth:`_ok`).
    Poisoning is by set, never by slot, so the ways of one set never mix
    batched and exact events.

    Cache state lives in the scheme's :class:`~repro.memsys.cache.
    CacheBank`, one row per processor; the kernel views it by slot
    (``tags[row, slot]``, ``wv[row, slot, word]``, ...), so every gather
    or scatter over all of a window's processors is one fancy index."""

    #: Which lines are order-sensitive across processors within one
    #: epoch ("hot"): hot events replay in the reference heap order and
    #: the rest pre-apply (see :mod:`repro.sim.fastengine`).
    #:
    #: * ``"none"`` — no access is (BASE: shared data is never cached
    #:   and version bumps commute);
    #: * ``"written"`` — lines touched by two or more tasks *and*
    #:   written this epoch (only the shadow memory couples processors);
    #: * ``"directory"`` — the ``"written"`` lines plus the exclusive
    #:   lines :meth:`MsiBatchKernel.exclusive_lines` reports (an owner
    #:   forward makes even read-read sharing of them order-sensitive)
    #:   that two or more tasks off the owner's processor touch.
    hot_rule = "written"
    #: Do the scheme's *evictions* mutate global protocol state
    #: (directory entries, sharer sets)?  Then the fast engine also makes
    #: hot every cache set in which a replacement could touch a line
    #: another processor interacts with this epoch.
    evict_coupled = False

    def __init__(self, scheme):
        self.scheme = scheme
        self.machine = scheme.machine
        self.network = scheme.network
        self.shadow = scheme.shadow
        self.caches = scheme.caches
        self.assoc = self.machine.cache.associativity
        self.line_words = lw = self.machine.cache.line_words
        # Slot views of the bank (``[row, set * K + way]`` and ``[row,
        # slot, word]``): reshapes, so writes land in the cache arrays.
        # ``ways`` keeps the ``[row, set, way]`` tags for the slot scan.
        bank = scheme.bank
        slots = (len(bank.procs), self.machine.cache.n_sets * self.assoc)
        self.procs = bank.procs
        self.row_of = bank.row_of
        self.ways = bank.tags
        self.tags = bank.tags.reshape(slots)
        self.dirty = bank.dirty.reshape(slots)
        self.wv = bank.word_valid.reshape(slots + (lw,))
        self.cver = bank.version.reshape(slots + (lw,))
        self.used = bank.used.reshape(slots + (lw,))
        self.tt = bank.timetag.reshape(slots + (lw,))
        self.check = self.machine.check_coherence
        self.hit_lat = self.machine.hit_latency
        self.word_lat = 0
        self.miss_lat = 0
        self.seq = self.machine.consistency is ConsistencyModel.SEQUENTIAL
        self._site_tables = {}

    @classmethod
    def build(cls, scheme) -> Optional["_BatchKernel"]:
        return cls(scheme)

    def begin_epoch(self) -> None:
        """Latch the epoch-constant network latencies (rho only moves at
        ``observe_epoch``, so these are scalars for the whole epoch)."""
        self.word_lat = self.network.word_latency()
        self.miss_lat = self.network.miss_latency(self.line_words)

    # ------------------------------------------------------------ pre-apply

    def preapply(self, eng, batch, sel, ends, poisoned) -> list:
        """Scan and apply an epoch's cold events in one window.

        ``sel`` selects them among ``batch``'s events (None: all);
        ``ends`` are window positions, each ending one segment of the
        window where the previous one ended.  If any set is poisoned the
        method appends to ``poisoned`` the epoch positions of the events
        in poisoned sets and returns an empty list with *no* other side
        effects.  On success all counters/state are final and it returns
        each segment's summed ``work + latency``.
        """
        cols = _Cols(batch, sel, self.row_of[batch.procs],
                     self.shadow.total_words)
        ok, ctx = self._scan(cols)
        if not bool(ok.all()):
            pos = np.arange(len(batch.addr)) if sel is None else (
                np.flatnonzero(sel))
            poisoned.append(pos[~ok])
            return []
        sums = np.zeros(cols.n + 1, dtype=np.int64)
        np.cumsum(self._run(eng, cols, ctx), out=sums[1:])
        return np.diff(sums[ends], prepend=0).tolist()

    def _run(self, eng, cols: _Cols, ctx) -> np.ndarray:
        """Apply a scanned window; returns each event's work + latency."""
        eng.result.breakdown["busy"] += int(cols.work.sum())
        lat = np.zeros(cols.n, dtype=np.int64)
        self._apply(eng, cols, ctx, lat)
        if self.assoc > 1:
            self._stamp(cols, ctx)
        return cols.work + lat

    def _exact_events(self, eng, cols, mask, lat) -> None:
        """Run the masked events through the engine's exact per-event
        path, in program order per processor (cold events reach here only
        for schemes that ignore ``in_critical``)."""
        access = eng._access
        idx = np.flatnonzero(mask)
        for i, proc, is_write, addr, site, shared in zip(
                idx.tolist(), cols.procv[idx].tolist(),
                cols.wr[idx].tolist(), cols.addr[idx].tolist(),
                cols.site[idx].tolist(), cols.sh[idx].tolist()):
            lat[i] = access(proc, is_write, addr, site, shared)

    # ----------------------------------------------------------- the frame

    def _frame(self, cols: _Cols, alloc):
        """The scan frame every kernel starts from: the window's slot
        chains (``alloc`` selects the events that allocate, None for
        all), each event's window-start slot tag and whether its line is
        resident when it executes, and the context entries the apply and
        :meth:`_stamp` read.  Returns ``(chains, tags0, resident, ctx)``."""
        ch = self._slot_chains(cols, alloc)
        tags0 = self.tags[cols.rowv, ch.slot]
        ctx = {"slot": ch.slot, "last": ch.last}
        if alloc is not None:
            ctx["alloc"] = alloc
        return ch, tags0, ch.resident(cols.line, tags0), ctx

    def _seen(self, cols: _Cols, mask: np.ndarray) -> np.ndarray:
        """Replacement flags: did the event's processor touch its word
        before the window, or at an earlier ``mask`` event in it?"""
        return (self.scheme.touched.bits[cols.rowv, cols.addr]
                | self._prior_addr(cols, mask))

    def _ok(self, cols: _Cols, ch, stale) -> np.ndarray:
        """Set poisoning: the events to batch.  A set holding a ``stale``
        read (one the staleness oracle may flag; None when it is off)
        runs through the exact path, so the oracle fires against true
        state."""
        if stale is None or not stale.any():
            return np.ones(cols.n, dtype=bool)
        return ~ch.sets.group_any(stale)

    def _marked(self, cols: _Cols, kind: str) -> np.ndarray:
        """Per event: is its site one of the marking's ``kind`` sites?
        ``"tpi"`` and ``"sc"`` name that scheme's Time-Read marks,
        ``"strict"`` the strict Time-Reads.  The per-site table is built
        once; its trailing False stands for every larger site."""
        table = self._site_tables.get(kind)
        if table is None:
            marking = self.scheme.ctx.marking
            if kind == "strict":
                sites = list(marking.strict_sites)
            else:
                sites = [site for site, mark in getattr(marking, kind).items()
                         if mark is RefMark.TIME_READ]
            table = np.zeros(max(sites, default=-1) + 2, dtype=bool)
            table[sites] = True
            self._site_tables[kind] = table
        return table[np.minimum(cols.site, len(table) - 1)]

    # ------------------------------------------------------------- helpers

    def _line_chains(self, cols: _Cols) -> _Chains:
        """Per-line chains (one processor's line lives in one set)."""
        return _Chains(cols.line + cols.rank * (int(cols.line.max()) + 1))

    def _slot_chains(self, cols: _Cols, mask) -> "_SetChains":
        """The window's slot chains: the set chains re-keyed by the way
        each event's line occupies when it executes (:meth:`_ways`).  A
        direct-mapped cache's slot chains are its set chains."""
        sets = _SetChains(cols.skey, cols.line, mask, cols.s)
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
        ways0 = self.ways[cols.rowv, cols.s]  # window-start tags
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
        rev = (np.arange(cols.n) if alloc is None
               else np.flatnonzero(alloc))[::-1]
        if not rev.size:
            return
        n_slots = self.tags.shape[1]
        keys, last = np.unique(cols.rank[rev] * n_slots + ctx["slot"][rev],
                               return_index=True)
        ranks, slots = np.divmod(keys, n_slots)
        for rank, lo, hi in _stretches(ranks):
            self.caches[int(cols.task_procs[rank])].touch_slots(
                slots[lo:hi], rev[last[lo:hi]], cols.n)

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

    @staticmethod
    def _by_task(cols: _Cols, mask: np.ndarray):
        """Yield ``(proc, idx)`` per task with events where ``mask``
        holds: the indices of those events, in program order."""
        idx = np.flatnonzero(mask)
        if idx.size:
            for rank, lo, hi in _stretches(cols.rank[idx]):
                yield int(cols.task_procs[rank]), idx[lo:hi]

    # ---------------------------------------------------------- accounting

    def _hits(self, eng, cols: _Cols, lat, mask: np.ndarray) -> None:
        """Account the ``mask`` reads as hits."""
        n = int(mask.sum())
        if not n:
            return
        result = eng.result
        result.reads += n
        result.shared_reads += int((mask & cols.sh).sum())
        mc = result.miss_counts
        mc[MissKind.HIT] = mc.get(MissKind.HIT, 0) + n
        result.breakdown["busy"] += n * self.hit_lat
        lat[mask] = self.hit_lat

    def _fetches(self, eng, cols: _Cols, lat, mask: np.ndarray, kinds,
                 word: bool = False) -> None:
        """Account the ``mask`` reads as fetches from memory: line read
        misses, or (``word``) one-word reads that bypass the cache.
        ``kinds`` classifies them: ``(MissKind, flags)`` pairs.  Each
        counts toward the paper's miss-latency accumulators, read-stall
        time and read traffic."""
        n = int(mask.sum())
        if not n:
            return
        result = eng.result
        result.reads += n
        result.shared_reads += int((mask & cols.sh).sum())
        mc = result.miss_counts
        for kind, flags in kinds:
            count = int((mask & flags).sum())
            if count:
                mc[kind] = mc.get(kind, 0) + count
        latency = self.word_lat if word else self.miss_lat
        result.miss_latency_total += n * latency
        result.miss_latency_count += n
        result.breakdown["read_stall"] += n * latency
        self._traffic(eng, read_words=n * (2 if word else 1 + self.line_words))
        lat[mask] = latency

    def _write_through(self, eng, cols: _Cols, lat, wr: np.ndarray,
                       wmiss: Optional[np.ndarray] = None) -> None:
        """The ``wr`` writes of a write-through path (base, sc, tpi, and
        update's batched write hits): shadow bumps, counts, the words the
        shared writes send (the kernel's ``_posted``), the line fetches
        of the write-allocate misses ``wmiss`` (non-blocking for the
        CPU), and latency: under sequential consistency a shared write
        stalls for the word round trip."""
        n_wr = int(wr.sum())
        if not n_wr:
            return
        self.shadow.write_many(cols.addr[wr], cols.procv[wr])
        result = eng.result
        shw = wr & cols.sh
        n_sw = int(shw.sum())
        result.writes += n_wr
        result.shared_writes += n_sw
        n_wm = 0 if wmiss is None else int(wmiss.sum())
        self._traffic(eng, read_words=n_wm * (1 + self.line_words),
                      write_words=self._posted(cols, shw))
        lat_sw = self.word_lat if self.seq else self.hit_lat
        bd = result.breakdown
        bd["write_stall" if lat_sw > self.hit_lat else "busy"] += (
            n_sw * lat_sw)
        bd["busy"] += (n_wr - n_sw) * self.hit_lat
        lat[wr] = self.hit_lat
        lat[shw] = lat_sw

    def _traffic(self, eng, read_words: int = 0, write_words: int = 0,
                 coherence_words: int = 0) -> None:
        if read_words or write_words or coherence_words:
            eng.result.note_traffic(read_words, write_words, coherence_words)
            eng._epoch_words += read_words + write_words + coherence_words

    def _install_lines(self, rows: np.ndarray, slots: np.ndarray,
                       lines: np.ndarray) -> None:
        """Batched fills of each slot's last run: tags, full word
        validity, and the line's shadow versions.  Call *after* this
        window's shadow bumps: a cold written line has a single writer, so
        the final shadow version of every word is what the last run's copy
        holds."""
        self.tags[rows, slots] = lines
        self.wv[rows, slots] = True
        lw = self.line_words
        self.cver[rows, slots] = self.shadow.version[
            (lines * lw)[:, None] + np.arange(lw)]


class BaseBatchKernel(_BatchKernel):
    """BASE: shared accesses are fixed-cost remote word operations; the
    private side is an ordinary cache whose misses are closed-form (an
    install has no protocol side effects beyond its own set)."""

    hot_rule = "none"

    def _scan(self, cols):
        priv = ~cols.sh
        _, _, resident, ctx = self._frame(cols, priv)
        # Installed lines are fully valid and writes validate their word,
        # so a resident private line always hits; misses install.
        miss = priv & ~resident
        touch = priv & (cols.wr | miss)
        ctx.update(miss=miss, touch=touch, repl=self._seen(cols, touch))
        return np.ones(cols.n, dtype=bool), ctx

    def _apply(self, eng, cols, ctx, lat):
        wr, sh = cols.wr, cols.sh
        s, miss, last = ctx["slot"], ctx["miss"], ctx["last"]
        repl = ctx["repl"]
        self._fetches(eng, cols, lat, sh & ~wr, ((MissKind.UNCACHED, sh),),
                      word=True)
        self._fetches(eng, cols, lat, miss & ~wr,
                      ((MissKind.REPLACEMENT, repl), (MissKind.COLD, ~repl)))
        self._hits(eng, cols, lat, ~sh & ~wr & ~miss)
        # BASE keeps no per-word versions; a fill is tags + validity.
        fill = miss & last
        self.tags[cols.rowv[fill], s[fill]] = cols.line[fill]
        self.wv[cols.rowv[fill], s[fill]] = True
        touch = ctx["touch"]
        self.scheme.touched.bits[cols.rowv[touch], cols.addr[touch]] = True
        self._write_through(eng, cols, lat, wr, miss & wr)
        pw = wr & ~sh & last
        self.wv[cols.rowv[pw], s[pw], cols.wd[pw]] = True

    def _posted(self, cols, shw) -> int:
        """Shared writes go straight to memory: an address and a word."""
        return 2 * int(shw.sum())


class _WriteBufferMixin:
    """Shared-write buffering for the write-through schemes (TPI/SC)."""

    def _posted(self, cols, shw) -> int:
        """Feed the shared writes, in program order, to their write
        buffers; returns network words injected now (FIFO posts each write
        immediately, the coalescing buffer holds everything until the next
        sync drain)."""
        words = 0
        for p, idx in self._by_task(cols, shw):
            wbuf = self.scheme.wbuffers[p]
            wbuf.total_writes += len(idx)
            if wbuf.kind is WriteBufferKind.FIFO:
                wbuf.pending += len(idx)
                words += WRITE_MESSAGE_WORDS * len(idx)
            else:
                wbuf.merged_writes += _coalesce(wbuf.pending, cols.addr[idx])
        return words


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

    def _scan(self, cols):
        scheme = self.scheme
        R = scheme.epoch_index
        mod = scheme.modulus
        per_word = scheme.per_word_tags
        n = cols.n
        line, wr, sh, addr = cols.line, cols.wr, cols.sh, cols.addr
        rd = ~wr

        # Every access allocates.
        ch, tags0, resident, ctx = self._frame(cols, None)
        slot = ch.slot
        ach = ch.run_addrs(self._addr_chains(cols))
        wb = ach.prior_any(wr)
        row, wd = cols.rowv, cols.wd
        wv0 = self.wv[row, slot, wd]

        tr = rd & sh & self._marked(cols, "tpi")
        strict = tr & self._marked(cols, "strict")
        region = scheme.region_of[addr]
        window = time_read_window(R, scheme.w_regs[np.maximum(region, 0)],
                                  mod)
        no_region = region < 0
        zeros = np.zeros(n, dtype=bool)

        # Per-line tags live on word 0; strict Time-Reads never hit.
        age0 = word_age(R, self.tt[row, slot, wd if per_word else 0], mod)

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
            hit = resident & valid & tt_pass(age_ns, zeros)
        rmiss = rd & ~hit

        cver0 = self.cver[row, slot, wd]
        # Words rewritten from memory during the window carry a current
        # version: any refresh/fill upgraded word, or the accessed word of
        # any earlier read miss to the same address.
        refreshed = fresh & (fill | ~wv0 | (age0 > 1)) if per_word else fresh
        fresh_ver = wb | ach.prior_any(rmiss) | refreshed
        stale = (hit & ~fresh_ver
                 & (cver0 < self.shadow.epoch_version[addr])
                 if self.check else None)
        ctx.update(tr=tr, strict=strict, hit=hit, rmiss=rmiss,
                   wmiss=wr & ~resident, resident=resident, valid=valid,
                   current=fresh_ver | (cver0 == self.shadow.version[addr]),
                   touched=self._seen(cols, np.ones(n, dtype=bool)),
                   fill=fill)
        return self._ok(cols, ch, stale), ctx

    def _apply(self, eng, cols, ctx, lat):
        scheme = self.scheme
        R = scheme.epoch_index
        per_word = scheme.per_word_tags
        c = ctx
        wd, wr, addr, line = cols.wd, cols.wr, cols.addr, cols.line
        s, rmiss, wmiss, hit, tr = (c["slot"], c["rmiss"], c["wmiss"],
                                    c["hit"], c["tr"])
        self._hits(eng, cols, lat, ~wr & hit)
        scheme.time_reads += int(tr.sum())
        scheme.time_read_hits += int((tr & hit).sum())
        scheme.strict_reads += int(c["strict"].sum())
        res, val, cur, tch = (c["resident"], c["valid"], c["current"],
                              c["touched"])
        self._fetches(eng, cols, lat, rmiss, (
            (MissKind.CONSERVATIVE, res & val & cur),
            (MissKind.TRUE_SHARING, res & val & ~cur),
            (MissKind.RESET, res & ~val),
            (MissKind.REPLACEMENT, ~res & tch),
            (MissKind.COLD, ~res & ~tch)))
        self._write_through(eng, cols, lat, wr, wmiss)

        # ---- state: each slot as its last run leaves it -----------------
        last, row = c["last"], cols.rowv
        lw = self.line_words
        idx = np.flatnonzero((rmiss | wmiss) & last)
        # One event per (row, slot): the line and fill flag hold per run.
        idx = idx[np.unique(row[idx] * self.tags.shape[1] + s[idx],
                            return_index=True)[1]]
        ru, su, lu = row[idx], s[idx], line[idx]
        sv = self.shadow.version[(lu * lw)[:, None] + np.arange(lw)]
        if per_word:
            ttu = self.tt[ru, su]
            keep = (~c["fill"][idx, None]) & self.wv[ru, su] & (ttu >= R - 1)
            self.tt[ru, su] = np.where(keep, ttu, R - 1)
            self.cver[ru, su] = np.where(keep, self.cver[ru, su], sv)
        else:
            self.tt[ru, su] = R - 1
            self.cver[ru, su] = sv
        self.wv[ru, su] = True
        self.tags[ru, su] = lu
        if per_word:
            # Accessed word of each read miss: version refetched, tag
            # stamped to R unless the Time-Read was strict.
            rm = rmiss & last
            self.cver[row[rm], s[rm], wd[rm]] = self.shadow.version[addr[rm]]
            self.tt[row[rm], s[rm], wd[rm]] = np.where(c["strict"][rm],
                                                       R - 1, R)
        scheme.touched.bits[row, addr] = True
        sel = wr & last
        rw, sw, ww = row[sel], s[sel], wd[sel]
        self.wv[rw, sw, ww] = True
        if per_word:
            self.tt[rw, sw, ww] = R
        self.cver[rw, sw, ww] = self.shadow.version[addr[sel]]


class ScBatchKernel(_WriteBufferMixin, _BatchKernel):
    """SC fully in closed form: bypassing reads are fixed-cost word
    fetches classified against the evolving line state; cached reads hit
    whenever the line is resident (installed lines are fully valid);
    misses install with the line's shadow snapshot."""

    def _scan(self, cols):
        wr, sh, addr = cols.wr, cols.sh, cols.addr
        bypass = ~wr & sh & self._marked(cols, "sc")
        cached = ~bypass
        ch, _, resident, ctx = self._frame(cols, cached)
        miss = cached & ~resident  # line miss: install (read or write)
        fresh = ch.runs.prior_any(miss)
        wb = ch.run_addrs(self._addr_chains(cols)).prior_any(wr)
        cver0 = self.cver[cols.rowv, ch.slot, cols.wd]
        stale = (cached & ~wr & resident & ~wb & ~fresh
                 & (cver0 < self.shadow.epoch_version[addr])
                 if self.check else None)
        ctx.update(bypass=bypass, miss=miss, have=resident,
                   current=wb | fresh | (cver0 == self.shadow.version[addr]),
                   touched=self._seen(cols, bypass | wr | (miss & ~wr)))
        return self._ok(cols, ch, stale), ctx

    def _apply(self, eng, cols, ctx, lat):
        c = ctx
        wd, wr, addr = cols.wd, cols.wr, cols.addr
        s, bypass, miss, last = c["slot"], c["bypass"], c["miss"], c["last"]
        have, cur, tch = c["have"], c["current"], c["touched"]
        self._fetches(eng, cols, lat, bypass, (
            (MissKind.CONSERVATIVE, have & cur),
            (MissKind.TRUE_SHARING, have & ~cur),
            (MissKind.REPLACEMENT, ~have & tch),
            (MissKind.COLD, ~have & ~tch)), word=True)
        rmiss = miss & ~wr
        self._fetches(eng, cols, lat, rmiss,
                      ((MissKind.REPLACEMENT, tch), (MissKind.COLD, ~tch)))
        self._hits(eng, cols, lat, ~wr & ~bypass & ~miss)
        self._write_through(eng, cols, lat, wr, miss & wr)
        row = cols.rowv
        fill = miss & last
        self._install_lines(row[fill], s[fill], cols.line[fill])
        sel = wr & last
        self.wv[row[sel], s[sel], wd[sel]] = True
        self.cver[row[sel], s[sel], wd[sel]] = self.shadow.version[addr[sel]]
        seen = bypass | rmiss | wr
        self.scheme.touched.bits[row[seen], addr[seen]] = True


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

    evict_coupled = True

    @classmethod
    def build(cls, scheme) -> Optional["UpdateBatchKernel"]:
        # Exact events interleave with the batched prefix inside the
        # apply; LRU stamps written after it would misorder them.
        if scheme.machine.cache.associativity != 1:
            return None
        return cls(scheme)

    def _scan(self, cols):
        wr, sh = cols.wr, cols.sh
        # Every access installs; a direct-mapped slot is its set.
        ch, _, resident, ctx = self._frame(cols, None)
        batch = resident
        if self.check:
            # A batched read serves its cached version, which must meet
            # the epoch floor unless an in-window write or fill refreshed
            # it; suspicious reads take the exact path where the oracle
            # fires against true state.
            fresh = (self._prior_addr(cols, wr) | ch.prior_any(~resident)
                     | (self.cver[cols.rowv, cols.s, cols.wd]
                        >= self.shadow.epoch_version[cols.addr]))
            batch = resident & (wr | ~sh | fresh)
        ctx["batch"] = batch
        return np.ones(cols.n, dtype=bool), ctx

    def _apply(self, eng, cols, ctx, lat):
        batch = ctx["batch"]
        self._hits(eng, cols, lat, batch & ~cols.wr)
        bw = batch & cols.wr
        self._write_through(eng, cols, lat, bw)
        self.cver[cols.rowv[bw], cols.s[bw], cols.wd[bw]] = (
            self.shadow.version[cols.addr[bw]])
        self.scheme.total_writes += int(bw.sum())
        slow = ~batch
        if slow.any():
            self._exact_events(eng, cols, slow, lat)

    def _posted(self, cols, shw) -> int:
        """Shared write hits join their processor's pending set under
        coalescing, else each one broadcasts (:meth:`_broadcast`)."""
        scheme = self.scheme
        words = 0
        for p, idx in self._by_task(cols, shw):
            if scheme.coalescing:
                scheme.merged_writes += _coalesce(scheme.pending[p],
                                                  cols.addr[idx])
            else:
                words += self._broadcast(p, cols.addr[idx], cols.line[idx])
        return words

    def _broadcast(self, proc: int, addrs: np.ndarray,
                   lines: np.ndarray) -> int:
        """FIFO broadcasts: per write, the memory update plus one update
        message per other sharer; remote copies are patched to the word's
        final version (a window's intermediate values are unobservable —
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
                cache = self.caches[q]
                if cache.tags[set_index, 0] != line:
                    raise ProtocolError(
                        f"update: sharer {q} of line {line} has no copy")
                cache.version[set_index, 0, word] = version
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
    and slow events of distinct processors in one window commute
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

    Subclasses supply :meth:`exclusive_lines`, :meth:`_exclusive`,
    :meth:`_holders_ok` and :meth:`_settle`."""

    hot_rule = "directory"
    evict_coupled = True

    def exclusive_lines(self, lines):
        """``(lines, owners)``: the lines of ``lines`` held exclusively,
        whose first outside reader pays an owner forward, and each one's
        owner (the fast engine's directory plan decides which of them
        are hot)."""
        raise NotImplementedError

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
        # Every access holds its line.
        ch, tags0, resident, ctx = self._frame(cols, None)
        dirty0 = self.dirty[cols.rowv, ch.slot]
        miss = ~resident
        stale = None
        if self.check:
            # MSI reads must observe the exact current version: fills and
            # same-address writes refetch it, anything else must compare
            # equal.
            fresh = (ch.run_addrs(self._addr_chains(cols)).prior_any(wr)
                     | ch.runs.prior_any(miss))
            stale = (~wr & sh & resident & ~fresh
                     & (self.cver[cols.rowv, ch.slot, cols.wd]
                        != self.shadow.version[addr]))
        victim, vdirty = ch.victims(line, wr, tags0, dirty0)
        ctx.update(miss=miss, victim=victim, vdirty=vdirty,
                   upgrade=(wr & sh & resident
                            & ~self._exclusive(cols, ch, tags0, dirty0)))
        return self._ok(cols, ch, stale), ctx

    def _apply(self, eng, cols, ctx, lat):
        wd, wr, sh, addr = cols.wd, cols.wr, cols.sh, cols.addr
        s = ctx["slot"]
        miss, upgrade, last = ctx["miss"], ctx["upgrade"], ctx["last"]
        result = eng.result
        slow = miss | upgrade
        # The quiet test reads window-start state: before the own-cache
        # side below overwrites any cache.
        split = self._quiet(cols, ctx, slow) if slow.any() else None
        self._hits(eng, cols, lat, ~wr & ~miss)
        self.shadow.write_many(addr[wr], cols.procv[wr])
        # Own-cache side, as each slot's last run leaves it: the fill
        # resets the slot, then every access marks its word used and every
        # write dirties the line.
        row = cols.rowv
        fill = miss & last
        self.used[row[fill], s[fill]] = False
        self.dirty[row[fill], s[fill]] = False
        self._install_lines(row[fill], s[fill], cols.line[fill])
        self.used[row[last], s[last], wd[last]] = True
        sel = wr & last
        self.dirty[row[sel], s[sel]] = True
        self.cver[row[sel], s[sel], wd[sel]] = self.shadow.version[addr[sel]]
        # Private and exclusive write hits are silent: hit latency, no
        # traffic, no protocol motion.
        silent = wr & ~miss & ~upgrade
        n_silent = int(silent.sum())
        result.writes += n_silent
        result.shared_writes += int((silent & sh).sum())
        result.breakdown["busy"] += n_silent * self.hit_lat
        lat[silent] = self.hit_lat
        if split is not None:
            self._quiet_transitions(eng, cols, ctx, split, lat)
            loud = slow & ~split[0]
            if loud.any():
                self._transitions(eng, cols, ctx, loud, lat)

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
            pending = reasons[p]
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

    def _quiet_transitions(self, eng, cols, ctx, split, lat) -> None:
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
        hit = self.hit_lat
        lw1 = 1 + self.line_words
        up = quiet & ctx["upgrade"]
        miss = quiet & ~up
        rmiss = miss & ~wr
        seen_lines = self.scheme.seen_lines
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
            for p, idx in self._by_task(cols, rmiss & ~seen):
                before = seen_lines[p]
                seen[idx] = [ln in before for ln in line[idx].tolist()]
            self._fetches(eng, cols, lat, rmiss, (
                (MissKind.REPLACEMENT, seen), (MissKind.COLD, ~seen)))
        wmiss = miss & wr
        n_wm = int(wmiss.sum())
        n_up = int(up.sum())
        if n_wm or n_up:
            n_sw = int((wmiss & sh).sum())
            lat_sw = hit + (self.miss_lat if self.seq else 0)
            lat_up = hit + (self.network.control_latency() if self.seq else 0)
            for n, cycles in ((n_wm - n_sw, hit), (n_sw, lat_sw),
                              (n_up, lat_up)):
                result.breakdown["write_stall" if cycles > hit
                                 else "busy"] += n * cycles
            result.writes += n_wm + n_up
            result.shared_writes += n_sw + n_up
            lat[wmiss] = hit
            lat[wmiss & sh] = lat_sw
            lat[up] = lat_up
        writeback = miss & (ctx["victim"] >= 0) & ctx["vdirty"]
        self._traffic(eng, read_words=n_wm * lw1,
                      write_words=int(writeback.sum()) * lw1,
                      coherence_words=2 * n_up + self._settle(cols, split))
        for p, idx in self._by_task(cols, miss):
            seen_lines[p].update(line[idx].tolist())

    def _transitions(self, eng, cols, ctx, slow, lat) -> None:
        """Misses and upgrades, in program order per processor: the
        scheme's protocol side, then the engine's accounting."""
        scheme = self.scheme
        account = eng._account
        idx = np.flatnonzero(slow)
        for i, proc, is_write, ln, word, shared, upgrade, occ, dirty in zip(
                idx.tolist(), cols.procv[idx].tolist(), cols.wr[idx].tolist(),
                cols.line[idx].tolist(), cols.wd[idx].tolist(),
                cols.sh[idx].tolist(), ctx["upgrade"][idx].tolist(),
                ctx["victim"][idx].tolist(), ctx["vdirty"][idx].tolist()):
            if upgrade:
                r = scheme._upgrade(proc, ln, word)
            else:
                miss = scheme._write_miss if is_write else scheme._read_miss
                r = miss(proc, ln, word, shared)
                scheme._filled(proc, ln, occ if occ >= 0 else None, dirty, r)
            lat[i] = account(is_write, shared, r)


class DirectoryBatchKernel(MsiBatchKernel):
    """HW directory: a copy is exclusive in state E/self.  The kernel
    gathers the scheme's :class:`~repro.coherence.sparse.DirectoryStore`
    columns directly — every protocol mutation writes through the
    :class:`DirEntry` proxies into those columns — and writes the quiet
    lines' final states into them."""

    def exclusive_lines(self, lines):
        # State E: the first other reader pays the 4-hop owner forward
        # and demotes the entry.
        store = self.scheme.dirstore
        held = lines[store.state_code[lines] == STATE_E]
        return held, store.owner_p1[held] - 1

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
        return (self.ways[self.row_of[proc], sets]
                == lines[:, None]).any(axis=1)

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

    def exclusive_lines(self, lines):
        # A Modified copy: the first other reader's snoop demotes its
        # holder and is serviced cache-to-cache.
        held = [(line, self.scheme._dirty_holder(line))
                for line in lines.tolist()]
        held = np.array([pair for pair in held if pair[1] is not None],
                        dtype=np.int64).reshape(-1, 2)
        return held[:, 0], held[:, 1]

    def _exclusive(self, cols, ch, tags0, dirty0):
        # Dirty at window start, or after some earlier write in the run
        # (any write sets the dirty bit, and only the fill that opens a
        # run clears it mid-window).
        return (((tags0 == cols.line) & dirty0 & ch.first)
                | ch.runs.prior_any(cols.wr))

    def _holders_ok(self, lines, proc, shared, private):
        # Only a shared access snoops: no other cache of the bank may hold
        # a line with one.  Evictions are silent.
        ok = np.ones(len(lines), dtype=bool)
        sub = np.flatnonzero(shared)
        if sub.size:
            ls, ps = lines[sub], proc[sub]
            sets = ls % self.machine.cache.n_sets
            held = (self.ways[:, sets] == ls[:, None]).any(axis=2)
            ok[sub[(held & (self.procs[:, None] != ps)).any(axis=0)]] = False
        return ok


#: Each scheme's kernel class, by scheme name.  A scheme not named here
#: (tardis) has no kernel.
KERNELS = {"base": BaseBatchKernel, "sc": ScBatchKernel,
           "tpi": TpiBatchKernel, "hw": DirectoryBatchKernel,
           "limitless": DirectoryBatchKernel, "update": UpdateBatchKernel,
           "snoop": SnoopBatchKernel}


def make_kernel(scheme) -> Optional[_BatchKernel]:
    """``scheme``'s batch kernel, or None when its configuration has
    none: the fast engine then falls back on every epoch."""
    cls = KERNELS.get(scheme.name)
    return None if cls is None else cls.build(scheme)


__all__ = ["BaseBatchKernel", "DirectoryBatchKernel", "KERNELS",
           "MsiBatchKernel", "ScBatchKernel", "SnoopBatchKernel",
           "TpiBatchKernel", "UpdateBatchKernel", "make_kernel"]
