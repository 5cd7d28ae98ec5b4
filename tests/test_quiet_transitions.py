"""Quiet MSI transitions: the guards of the MSI kernel's closed form.

``MsiBatchKernel._quiet`` sends a miss or upgrade to the closed form only
when no other processor can observe it; the rest run the scheme's own
transitions in program order.  Each crafted trace below breaks exactly
one clause of that rule, so the closed form would diverge from the
reference engine if the clause were dropped:

* a pending invalidation reason (the next shared miss is a sharing miss,
  not a replacement);
* a window-start sharer other than the evicting processor (S{p, q});
* a second processor missing on the line in the same merged window;
* a remote owner in state E (the read is a 4-hop forward);
* a private access to a line that has a directory entry (the entry must
  keep its state);
* a line accessed both shared and private in one window (the private
  miss must not move the entry the shared one created);
* a quiet line named by a loud event (the loud transition and the closed
  form would both write its entry).

Every epoch has a single task or only cold lines, so each one is batched
and its slow events reach the kernel.  The machine is
:mod:`tests.test_hot_sets`' 4-set cache of one-word lines.
"""

import pytest

from tests.test_engine_parity import snapshot
from tests.test_hot_sets import N_SETS, _run, _setup, _trace

MSI = ("hw", "limitless", "snoop")


def _pad(a, proc, n):
    """Reads of proc-private lines outside the set of line ``a``."""
    return [(False, a + 16 * (proc + 1) + 1 + k % 3) for k in range(n)]


def _pending_reason(a):
    # p1's write invalidates p0's copy (reason: true sharing) and p1
    # then evicts the line, so p0's next read finds it uncached (U) but
    # must be classified by the pending reason.
    X, Y = a, a + N_SETS
    return 2, [
        [(0, [(False, X)] + _pad(a, 0, 39))],
        [(1, [(True, X)] + _pad(a, 1, 39))],
        [(1, [(False, Y)] + _pad(a, 1, 39))],
        [(0, [(False, X)] + _pad(a, 0, 39))],
    ]


def _remote_sharer(a):
    # S{p0, p1}; p0 evicts the line, which must stay S{p1}, so p2's
    # write invalidates p1's copy.
    X, Y = a, a + N_SETS
    return 3, [
        [(0, [(False, X)] + _pad(a, 0, 39)),
         (1, [(False, X)] + _pad(a, 1, 39))],
        [(0, [(False, Y)] + _pad(a, 0, 39))],
        [(2, [(True, X)] + _pad(a, 2, 39))],
    ]


def _two_readers(a):
    # Both read misses land in one merged window and leave S{p0, p1}, so
    # p2's write invalidates two copies.
    X = a
    return 3, [
        [(0, [(False, X)] + _pad(a, 0, 39)),
         (1, [(False, X)] + _pad(a, 1, 39))],
        [(2, [(True, X)] + _pad(a, 2, 39))],
    ]


def _remote_owner(a):
    # E/p1; p0's read miss is forwarded to the dirty owner.
    X = a
    return 2, [
        [(1, [(True, X)] + _pad(a, 1, 39))],
        [(0, [(False, X)] + _pad(a, 0, 39))],
    ]


def _private_with_entry(a):
    # A shared read gives the line an entry; p0 evicts it (U) and reads
    # it back *private*, which leaves the entry U, so p1's shared write
    # invalidates nothing.
    X, Y = a, a + N_SETS
    return 2, [
        [(0, [(False, X)] + _pad(a, 0, 39))],
        [(0, [(False, Y), (False, X, False)] + _pad(a, 0, 38))],
        [(1, [(True, X)] + _pad(a, 1, 39))],
    ]


def _straddling(a):
    # One window reads the line shared (entry S{p0}), evicts it (U) and
    # reads it back private, which leaves the entry U.
    X, Y = a, a + N_SETS
    return 2, [
        [(0, [(False, X), (False, Y), (False, X, False)]
          + _pad(a, 0, 37))],
        [(1, [(True, X)] + _pad(a, 1, 39))],
    ]


def _cascade(a):
    # p0's miss on X evicts V, still shared with p1, so that miss is
    # loud; X must turn loud too, or the closed form's eviction of X
    # (U) would land before the loud fill (S{p0}).
    V, X, Z = a, a + N_SETS, a + 2 * N_SETS
    return 3, [
        [(0, [(False, V)] + _pad(a, 0, 39)),
         (1, [(False, V)] + _pad(a, 1, 39))],
        [(0, [(False, X), (False, Z)] + _pad(a, 0, 38))],
        [(2, [(True, X)] + _pad(a, 2, 39))],
    ]


CASES = {"pending_reason": _pending_reason,
         "remote_sharer": _remote_sharer,
         "two_readers": _two_readers,
         "remote_owner": _remote_owner,
         "private_with_entry": _private_with_entry,
         "straddling": _straddling,
         "cascade": _cascade}


@pytest.mark.parametrize("scheme", MSI)
@pytest.mark.parametrize("case", sorted(CASES))
def test_guarded_case_matches_reference(case, scheme):
    n_procs = 3
    program, machine, layout = _setup(n_procs)
    used, epochs = CASES[case](layout.base("A"))
    assert used <= n_procs
    trace = _trace(layout, n_procs, epochs)
    fast_eng, fast = _run(program, machine, trace, scheme, "fast")
    _, ref = _run(program, machine, trace, scheme, "reference")
    assert snapshot(fast) == snapshot(ref)
    assert fast_eng.batched_epochs == len(epochs)
