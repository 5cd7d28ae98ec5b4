"""Conflict runs: direct-mapped kernels prove sets that hold several lines.

A set's program-order chain splits into *runs*, maximal stretches of one
allocated line (:class:`repro.coherence.batch._SetChains`).  Two layers:

* a hypothesis property compares the vectorized run split — dense run
  id, first/last run, and the victim line and dirty bit at each miss —
  against a plain Python walk of the same chains, including
  window-start occupants and merged multi-processor keys;
* a path test runs the conflict-heavy 1 KB golden machine and asserts
  that no kernel scan poisons an event for the base, sc, tpi, hw and
  snoop kernels (with the staleness oracle off, the oracle being the
  only remaining reason to poison a set).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence import batch
from repro.coherence.batch import _SetChains
from repro.sim import simulate
from repro.workloads import workload_names
from tests.test_golden import MACHINES, _prepared


@st.composite
def chains(draw):
    """A merged window: parts of (proc, events), set-major occupants."""
    n_sets = draw(st.integers(1, 4))
    n_lines = draw(st.integers(n_sets, 4 * n_sets))
    n_procs = draw(st.integers(1, 3))
    parts = draw(st.lists(
        st.tuples(st.integers(0, n_procs - 1),
                  st.lists(st.tuples(st.integers(0, n_lines - 1),
                                     st.booleans(), st.booleans()),
                           min_size=1, max_size=24)),
        min_size=1, max_size=3))
    occ = {}
    for p in range(n_procs):
        for s in range(n_sets):
            k = draw(st.integers(-1, n_lines // n_sets))
            line = s + k * n_sets if k >= 0 else -1
            occ[(p, s)] = (line, line >= 0 and draw(st.booleans()))
    return n_sets, parts, occ


def walk(n_sets, parts, occ):
    """The reference: one pass over the events in merged order."""
    state = {}
    rows = []
    for proc, events in parts:
        for line, alloc, write in events:
            s = line % n_sets
            key = s + proc * n_sets
            if key not in state:
                occupant, dirty = occ[(proc, s)]
                state[key] = {"line": None, "run": 0, "occ": occupant,
                              "dirty": dirty}
            st_ = state[key]
            victim = None
            if alloc:
                if st_["line"] is not None and line != st_["line"]:
                    st_["run"] += 1
                st_["line"] = line
                if st_["occ"] != line:
                    victim = (st_["occ"], st_["dirty"])
                    st_["occ"], st_["dirty"] = line, False
                if write:
                    st_["dirty"] = True
            rows.append((key, st_["run"], victim))
    ids = {pair: i for i, pair in enumerate(
        sorted({(key, run) for key, run, _ in rows}))}
    last = {key: st_["run"] for key, st_ in state.items()}
    return ([ids[(key, run)] for key, run, _ in rows],
            [run == 0 for _key, run, _ in rows],
            [run == last[key] for key, run, _ in rows],
            [victim for _key, _run, victim in rows])


@settings(max_examples=300, deadline=None)
@given(chains())
def test_runs_match_a_python_walk(window):
    n_sets, parts, occ = window
    procs, lines, alloc, write = [], [], [], []
    for proc, events in parts:
        for line, a, w in events:
            procs.append(proc)
            lines.append(line)
            alloc.append(a)
            write.append(w and a)  # every kernel's writes allocate
    procs = np.array(procs, dtype=np.int64)
    line = np.array(lines, dtype=np.int64)
    alloc = np.array(alloc, dtype=bool)
    wr = np.array(write, dtype=bool)
    s = line % n_sets
    occ0 = np.array([occ[(p, q)][0] for p, q in zip(procs, s)],
                    dtype=np.int64)
    dirty0 = np.array([occ[(p, q)][1] for p, q in zip(procs, s)],
                      dtype=bool)

    key = s + procs * n_sets
    ch = _SetChains(key, line, alloc)
    run_ids, first, last, victims = walk(n_sets, parts, occ)
    # No break in the window: one run per set.
    run = (ch.run if ch.run is not None
           else np.unique(key, return_inverse=True)[1])
    assert run.tolist() == run_ids
    assert ch.first.tolist() == first
    assert ch.last.tolist() == last
    resident = ch.resident(line, occ0)
    assert (alloc & ~resident).tolist() == [v is not None for v in victims]
    victim, vdirty = ch.victims(line, wr, occ0, dirty0)
    for i, expected in enumerate(victims):
        if expected is not None:
            assert (int(victim[i]), bool(vdirty[i])) == expected, i


@pytest.mark.parametrize("scheme", ["base", "sc", "tpi", "hw", "snoop"])
def test_conflicted_sets_are_never_poisoned(scheme, monkeypatch):
    poisoned = []
    scanned = []
    for cls in (batch.BaseBatchKernel, batch.ScBatchKernel,
                batch.TpiBatchKernel, batch.MsiBatchKernel):
        def scan(self, cols, _orig=cls._scan):
            ok, ctx = _orig(self, cols)
            scanned.append(cols.n)
            poisoned.append(int((~ok).sum()))
            return ok, ctx
        monkeypatch.setattr(cls, "_scan", scan)
    machine = MACHINES["dm1k"].with_(check_coherence=False, engine="fast")
    for workload in workload_names():
        simulate(_prepared(workload), scheme, machine)
    assert sum(scanned) > 0
    assert sum(poisoned) == 0
