"""The Tardis lease protocol's decision rules as pure functions.

This module is the *single source of truth* for the reconstructed Tardis
timestamp-coherence semantics (PAPERS.md — Tardis / Tardis 2.0, the
modern descendant of TPI's timetag idea): the lease hit test, the lease
grant and renewal rules, the write-timestamp rule, the barrier join, and
the bounded-counter rebase geometry.  Everything here is a
side-effect-free function of plain integers (only :func:`clamp` also
takes the scheme's timestamp arrays, elementwise), and everything that
*executes* those semantics calls in here:

* :class:`repro.coherence.tardis.TardisScheme` — the per-event path,
  which both engines run;
* :mod:`repro.analysis.modelcheck_tardis` — the bounded-exhaustive model
  checker, which enumerates every reachable protocol state of tiny
  configurations and asserts staleness safety **against these exact
  functions**, not a transcription of them.

Logical timestamps are unbounded Python ints throughout; the hardware's
``k``-bit bounded counters are modeled by the rebase rules at the
bottom, which shift the representable window forward whenever the lease
frontier approaches ``base + 2^k`` (Tardis 2.0's timestamp compression:
all live timestamps are clamped to a new base, preserving every *order*
the protocol can still observe).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


def lease_hit(pts: int, rts: int) -> bool:
    """Hit test for a shared read against a cached lease.

    A cached copy may satisfy a read at processor timestamp ``pts`` iff
    its read lease extends at least that far: ``rts >= pts``.  Expired
    leases must re-validate against memory — this is the whole protocol;
    there are no invalidation messages.
    """
    return rts >= pts


def lease_grant(pts: int, mem_rts: int, lease: int) -> int:
    """Memory-side ``rts`` after granting a lease to a reader at ``pts``.

    ``max(mem_rts, pts + lease)`` — the frontier only moves forward, and
    ``max`` is commutative, so concurrent same-epoch readers may be
    granted in any order.
    """
    return max(mem_rts, pts + lease)


def own_lease(pts: int, lease: int) -> int:
    """The reader's *own* cached ``rts`` after a grant or renewal.

    ``pts + lease`` — deliberately *not* the (order-dependent) memory
    frontier, so a reader's cached state is a function of its own
    timestamp alone and grants commute.
    """
    return pts + lease


def write_timestamp(pts: int, mem_rts: int) -> int:
    """Timestamp at which a shared write is ordered.

    ``max(pts, mem_rts + 1)``: the write must be ordered after every
    lease ever granted on the line, so readers holding live leases keep
    reading the *old* value without any invalidation — and after the
    writer's own past.
    """
    return max(pts, mem_rts + 1)


def pts_join(ptss: Iterable[int]) -> int:
    """Barrier rule: every processor's ``pts`` jumps to the global max.

    Tardis orders epochs by physical barriers; joining the timestamps at
    the barrier forces every post-barrier read past every pre-barrier
    write's timestamp, which is what makes stale leases expire.
    """
    return max(ptss)


def renewal_ok(cached_wts: int, mem_wts: int, base: int) -> bool:
    """Whether an expired lease may be renewed without a data transfer.

    The cached copy is current iff the line has not been written since
    the fill — ``cached_wts == mem_wts``.  The guard ``mem_wts > base``
    rejects the clamp-ambiguous case: after a rebase, every timestamp at
    exactly ``base`` may have been collapsed from *different* pre-rebase
    values, so equality there proves nothing and the copy re-fetches.
    """
    return cached_wts == mem_wts and mem_wts > base


def rebase_needed(pts: int, lease: int, base: int, modulus: int) -> bool:
    """Whether the k-bit counters must rebase before the next epoch.

    The largest timestamp the next epoch can mint is bounded by
    ``pts + lease`` (a grant) — rebase when that frontier no longer fits
    in the ``[base, base + 2^k)`` representable window.
    """
    return (pts + lease) - base >= modulus


def rebase_base(pts: int, modulus: int) -> int:
    """New base after a rebase: keep half the window behind ``pts``.

    ``pts - (2^(k-1) - 1)`` — live leases (at most ``pts + lease`` with
    ``lease <= 2^(k-1) - 1``) stay representable ahead of ``pts``, while
    everything older than half a window collapses onto the base.
    """
    return pts - ((modulus >> 1) - 1)


def clamp(ts, base):
    """Timestamp compression applied to every stored timestamp at rebase.

    ``max(ts, base)`` — of one home or cached timestamp, or elementwise
    over a cache's timestamp array.  Orders among surviving (> base)
    timestamps are preserved; collapsed ones become mutually ambiguous,
    which is exactly what :func:`renewal_ok`'s ``mem_wts > base`` guard
    accounts for.
    """
    if isinstance(ts, int):
        return ts if ts > base else base
    return np.maximum(ts, base)
