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
Every scan starts from one frame (:meth:`_BatchKernel._frame`) and
every apply writes each event's latency into one array.  ``span`` sums
that array per window; the engine's **epoch pre-apply**
(:meth:`_BatchKernel.preapply`) merges all of an epoch's cold events,
across every task, into one window and returns the array's per-task
prefix sums, from which the engine reads each cold span's cycles.
The engine's planner makes each task's hot and cold events use disjoint
sets of its processor's cache, so every batched epoch can pre-apply;
a poisoned set turns hot for its task, and only two tasks on one
processor sharing a set still send the epoch's spans through the
window-by-window path.

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

    def __init__(self, arrays, proc=None, parts=None):
        """``arrays``: the :attr:`_FIELDS` columns in order; the window
        is ``parts``, or one part of processor ``proc``."""
        for (name, _), arr in zip(self._FIELDS, arrays):
            setattr(self, name, arr)
        self.n = len(self.s)
        self.parts = ((proc, 0, self.n),) if parts is None else parts
        self.skey = self.s
        self.akey = self.addr
        self._procv = None
        self.cache = {}

    @classmethod
    def window(cls, proc: int, ta, lo: int, hi: int) -> "_Cols":
        return cls([getattr(ta, attr)[lo:hi] for _, attr in cls._FIELDS],
                   proc)

    @classmethod
    def merged(cls, pieces, n_sets: int, total_words: int) -> "_Cols":
        """``pieces``: ``(proc, ta, sel)`` in execution order, ``sel`` a
        boolean mask selecting the events to include (None = all)."""
        columns = [[] for _ in cls._FIELDS]
        parts = []
        pos = 0
        for proc, ta, sel in pieces:
            for column, (_, attr) in zip(columns, cls._FIELDS):
                arr = getattr(ta, attr)
                column.append(arr if sel is None else arr[sel])
            parts.append((proc, pos, pos + len(columns[0][-1])))
            pos = parts[-1][2]
        c = cls([np.concatenate(column) for column in columns],
                parts=tuple(parts))
        c.skey = c.s + c.procv * n_sets
        c.akey = c.addr + c.procv * total_words
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
        return _Cols([getattr(self, name)[m] for name, _ in self._FIELDS],
                     proc)


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


def _coalesce(pending: set, addrs: np.ndarray) -> int:
    """Merge ``addrs`` into a coalescing set of pending addresses;
    returns how many of them merged into an entry."""
    new = [a for a in np.unique(addrs).tolist() if a not in pending]
    pending.update(new)
    return len(addrs) - len(new)


class _BatchKernel:
    """Span loop and shared plumbing of every kernel: live cache views,
    window gathers, the scan frame, accounting.

    A span runs as one scan + one apply per window.  The scan starts from
    the frame (:meth:`_frame`), which gives each event its slot and
    residency, then proves every slot run by run (counters and traffic
    cover all events; cache state is written from each slot's last run,
    and each used slot of a set-associative cache gets its last use's LRU
    stamp) and poisons only sets where the staleness oracle might fire
    (:meth:`_ok`); their events run through the exact path after the
    apply.  The apply-first order is sound because a poisoned set's
    events and the batched events touch disjoint cache sets, shadow
    words, touched bits, and write-buffer entries — every side channel
    is keyed by the event's own set or address.  Poisoning is by set,
    never by slot, so the ways of one set never mix batched and exact
    events.

    Every apply writes each event's latency into one array
    (:meth:`_run`), and both callers sum it: :meth:`span` per window,
    and :meth:`preapply` into per-task prefix sums.  Since each task's
    hot and cold events live in disjoint sets of its processor's cache,
    pre-apply scans and applies every task's cold events in one merged
    multi-processor window before dispatch, and the engine reads each
    cold span's cycles from the prefix sums instead of rescanning."""

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
        self._site_tables = {}

    @classmethod
    def build(cls, scheme) -> Optional["_BatchKernel"]:
        return cls(scheme)

    def begin_epoch(self) -> None:
        """Latch the epoch-constant network latencies (rho only moves at
        ``observe_epoch``, so these are scalars for the whole epoch)."""
        self.word_lat = self.network.word_latency()
        self.miss_lat = self.network.miss_latency(self.line_words)

    # ------------------------------------------------------- span and apply

    def span(self, eng, proc: int, ta, lo: int, hi: int) -> int:
        elapsed = 0
        for i in range(lo, hi, _WINDOW):
            cols = _Cols.window(proc, ta, i, min(i + _WINDOW, hi))
            ok, ctx = self._scan(cols)
            poisoned = not ok.all()
            if poisoned:
                cols = cols.compress(ok)
                ctx = {k: v[ok] for k, v in ctx.items()}
            elapsed += int(self._run(eng, cols, ctx).sum())
            if poisoned:
                elapsed += eng._run_rows(proc, [
                    ta.rows[j] for j in (np.flatnonzero(~ok) + i).tolist()])
        return elapsed

    def preapply(self, eng, pieces, poisoned) -> list:
        """Scan and apply an epoch's cold events in one merged window.

        ``pieces`` lists ``(proc, ta, sel)`` in dispatch order; ``sel``
        selects each task's cold events (None = all of them).  If any set
        is poisoned the method appends to ``poisoned``, per piece, the
        task's indices of its events in poisoned sets, and returns an
        empty list with *no* other side effects.  On success all
        counters/state are final and it returns, per piece, the prefix
        sums of the task's ``work + latency`` over ``[0, ta.n]`` (zero
        at hot positions).
        """
        cols = _Cols.merged(pieces, self.machine.cache.n_sets,
                            self.shadow.total_words)
        ok, ctx = self._scan(cols)
        if not bool(ok.all()):
            for (_, ta, sel), (_, lo, hi) in zip(pieces, cols.parts):
                idx = np.arange(ta.n) if sel is None else np.flatnonzero(sel)
                poisoned.append(idx[~ok[lo:hi]])
            return []
        v = self._run(eng, cols, ctx)
        sums = []
        for (proc, ta, sel), (p, lo, hi) in zip(pieces, cols.parts):
            vfull = np.zeros(ta.n + 1, dtype=np.int64)
            if sel is None:
                vfull[1:] = v[lo:hi]
            else:
                vfull[1:][sel] = v[lo:hi]
            sums.append(np.cumsum(vfull))
        return sums

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
        for proc, idx in self._parts_idx(cols, mask):
            for i, is_write, addr, site, shared in zip(
                    idx.tolist(), cols.wr[idx].tolist(),
                    cols.addr[idx].tolist(), cols.site[idx].tolist(),
                    cols.sh[idx].tolist()):
                lat[i] = access(proc, is_write, addr, site, shared)

    # ----------------------------------------------------------- the frame

    def _frame(self, cols: _Cols, alloc):
        """The scan frame every kernel starts from: the window's slot
        chains (``alloc`` selects the events that allocate, None for
        all), each event's window-start slot tag and whether its line is
        resident when it executes, and the context entries the apply and
        :meth:`_stamp` read.  Returns ``(chains, tags0, resident, ctx)``."""
        ch = self._slot_chains(cols, alloc)
        tags0 = self._gset(self.tags, cols, ch.slot)
        ctx = {"slot": ch.slot, "last": ch.last}
        if alloc is not None:
            ctx["alloc"] = alloc
        return ch, tags0, ch.resident(cols.line, tags0), ctx

    def _seen(self, cols: _Cols, mask: np.ndarray) -> np.ndarray:
        """Replacement flags: did the event's processor touch its word
        before the window, or at an earlier ``mask`` event in it?"""
        return (self.scheme.touched[cols.procv, cols.addr]
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

    def _line_chains(self, cols: _Cols) -> _Chains:
        """Per-line chains (one processor's line lives in one set)."""
        key = cols.line
        if len(cols.parts) > 1:
            key = key + cols.procv * (int(key.max()) + 1)
        return _Chains(key)

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


class BaseBatchKernel(_BatchKernel):
    """BASE: shared accesses are fixed-cost remote word operations; the
    private side is an ordinary cache whose misses are closed-form (an
    install has no protocol side effects beyond its own set)."""

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
        for p, idx in self._parts_idx(cols, miss & last):
            self.tags[p][s[idx]] = cols.line[idx]
            self.wv[p][s[idx]] = True
        touch = ctx["touch"]
        if touch.any():
            self.scheme.touched[cols.procv[touch], cols.addr[touch]] = True
        self._write_through(eng, cols, lat, wr, miss & wr)
        for p, idx in self._parts_idx(cols, wr & ~sh & last):
            self.wv[p][s[idx], cols.wd[idx]] = True

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
        for p, idx in self._parts_idx(cols, shw):
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
        wv0 = self._gword(self.wv, cols, slot)

        tr = rd & sh & self._marked(cols, "tpi")
        strict = tr & self._marked(cols, "strict")
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
            hit = resident & valid & tt_pass(age_ns, zeros)
        rmiss = rd & ~hit

        cver0 = self._gword(self.cver, cols, slot)
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
        last = c["last"]
        lw = self.line_words
        for p, idx in self._parts_idx(cols, (rmiss | wmiss) & last):
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
        if per_word:
            # Accessed word of each read miss: version refetched, tag
            # stamped to R unless the Time-Read was strict.
            for p, idx in self._parts_idx(cols, rmiss & last):
                self.cver[p][s[idx], wd[idx]] = (
                    self.shadow.version[addr[idx]])
                self.tt[p][s[idx], wd[idx]] = np.where(
                    c["strict"][idx], R - 1, R)
        scheme.touched[cols.procv, addr] = True
        for p, idx in self._parts_idx(cols, wr & last):
            sw, ww = s[idx], wd[idx]
            self.wv[p][sw, ww] = True
            if per_word:
                self.tt[p][sw, ww] = R
            self.cver[p][sw, ww] = self.shadow.version[addr[idx]]


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
        cver0 = self._gword(self.cver, cols, ch.slot)
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
        for p, idx in self._parts_idx(cols, miss & last):
            self._install_lines(p, s[idx], cols.line[idx])
        for p, idx in self._parts_idx(cols, wr & last):
            sw, ww = s[idx], wd[idx]
            self.wv[p][sw, ww] = True
            self.cver[p][sw, ww] = self.shadow.version[addr[idx]]
        seen = bypass | rmiss | wr
        self.scheme.touched[cols.procv[seen], addr[seen]] = True


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
                     | (self._gword(self.cver, cols, cols.s)
                        >= self.shadow.epoch_version[cols.addr]))
            batch = resident & (wr | ~sh | fresh)
        ctx["batch"] = batch
        return np.ones(cols.n, dtype=bool), ctx

    def _apply(self, eng, cols, ctx, lat):
        batch = ctx["batch"]
        self._hits(eng, cols, lat, batch & ~cols.wr)
        bw = batch & cols.wr
        self._write_through(eng, cols, lat, bw)
        for p, idx in self._parts_idx(cols, bw):
            self.cver[p][cols.s[idx], cols.wd[idx]] = (
                self.shadow.version[cols.addr[idx]])
        self.scheme.total_writes += int(bw.sum())
        slow = ~batch
        if slow.any():
            self._exact_events(eng, cols, slow, lat)

    def _posted(self, cols, shw) -> int:
        """Shared write hits join their processor's pending set under
        coalescing, else each one broadcasts (:meth:`_broadcast`)."""
        scheme = self.scheme
        words = 0
        for p, idx in self._parts_idx(cols, shw):
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
        # Every access holds its line.
        ch, tags0, resident, ctx = self._frame(cols, None)
        dirty0 = self._gset(self.dirty, cols, ch.slot)
        miss = ~resident
        stale = None
        if self.check:
            # MSI reads must observe the exact current version: fills and
            # same-address writes refetch it, anything else must compare
            # equal.
            fresh = (ch.run_addrs(self._addr_chains(cols)).prior_any(wr)
                     | ch.runs.prior_any(miss))
            stale = (~wr & sh & resident & ~fresh
                     & (self._gword(self.cver, cols, ch.slot)
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
        for p, idx in self._parts_idx(cols, miss & last):
            su = s[idx]
            self.used[p][su] = False
            self.dirty[p][su] = False
            self._install_lines(p, su, cols.line[idx])
        for p, idx in self._parts_idx(cols, last):
            self.used[p][s[idx], wd[idx]] = True
        for p, idx in self._parts_idx(cols, wr & last):
            sw = s[idx]
            self.dirty[p][sw] = True
            self.cver[p][sw, wd[idx]] = self.shadow.version[addr[idx]]
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
            for p, idx in self._parts_idx(cols, rmiss & ~seen):
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
        for p, idx in self._parts_idx(cols, miss):
            seen_lines[p].update(line[idx].tolist())

    def _transitions(self, eng, cols, ctx, slow, lat) -> None:
        """Misses and upgrades, in program order per processor: the
        scheme's protocol side, then the engine's accounting."""
        scheme = self.scheme
        account = eng._account
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
                lat[i] = account(is_write, shared, r)


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


__all__ = ["BaseBatchKernel", "DirectoryBatchKernel", "MsiBatchKernel",
           "ScBatchKernel", "SnoopBatchKernel", "TpiBatchKernel",
           "UpdateBatchKernel"]
