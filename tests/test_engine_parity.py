"""Differential parity: the fast engine must be bit-identical to the
reference engine.

The fast engine (:mod:`repro.sim.fastengine`) reorders provably-commuting
work — batched cold spans, epoch-merged pre-applies, heap-replayed hot
events — but its contract is that every observable metric matches the
reference engine exactly: not statistically, not approximately, but
byte-for-byte in the canonical JSON rendering, including the per-epoch
records.

Two layers of evidence:

* the full paper grid — every workload crossed with every scheme — at the
  small problem size, and a spot-check of the paper size;
* hypothesis-random programs (calls, Ifs, critical sections, 2-D arrays)
  crossed with random machines (tiny caches, single-word lines, two-way
  associativity, sequential consistency, coalescing buffers, narrow
  timetags) — the space where an unsound commutation argument would
  actually surface.
"""

import dataclasses
import json

import pytest
from hypothesis import HealthCheck, given, settings

from repro.common.config import default_machine
from repro.sim import prepare, simulate
from repro.workloads import build_workload, workload_names
from tests.strategies import machines, rich_programs

SCHEMES = ("base", "sc", "tpi", "hw", "limitless", "update", "tardis",
           "snoop")

SETTINGS = dict(deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.data_too_large])


def snapshot(result) -> str:
    """Canonical JSON of everything a result observably contains."""
    return json.dumps(
        {"result": result.to_dict(),
         "epoch_records": [dataclasses.asdict(r)
                           for r in result.epoch_records]},
        sort_keys=True)


def both_engines(program, scheme, machine):
    pair = {}
    for engine in ("reference", "fast"):
        run = prepare(program, machine.with_(engine=engine))
        pair[engine] = simulate(run, scheme)
    return pair


def assert_parity(program, scheme, machine):
    pair = both_engines(program, scheme, machine)
    assert snapshot(pair["fast"]) == snapshot(pair["reference"])
    return pair


class TestWorkloadGrid:
    """Every paper workload x every scheme, small size."""

    @pytest.fixture(scope="class")
    def runs(self):
        cache = {}

        def get(name, engine):
            key = (name, engine)
            if key not in cache:
                machine = default_machine().with_(engine=engine,
                                                  record_epochs=True)
                cache[key] = prepare(
                    build_workload(name, size="small"), machine)
            return cache[key]

        return get

    @pytest.mark.parametrize("name", workload_names())
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_small_grid(self, runs, name, scheme):
        fast = simulate(runs(name, "fast"), scheme)
        ref = simulate(runs(name, "reference"), scheme)
        assert snapshot(fast) == snapshot(ref)

    @pytest.mark.parametrize("scheme", ("base", "tpi", "hw"))
    def test_paper_size_spot_check(self, scheme):
        program = build_workload("ocean", size="default")
        assert_parity(program, scheme, default_machine())


class TestSharedTransitions:
    """A protocol change made in a scheme reaches both engines: the MSI
    batch kernel runs the schemes' own miss and upgrade transitions
    rather than a copy of them."""

    @pytest.mark.parametrize("scheme", ("hw", "limitless", "snoop"))
    def test_mutated_classification_reaches_both_engines(self, scheme,
                                                         monkeypatch):
        from repro.coherence.directory import (_REASON_FALSE, _REASON_TRUE,
                                               MsiScheme)

        # ocean on 4 processors invalidates copies on both engines' exact
        # paths and inside the kernel's in-order transition loop.
        program = build_workload("ocean", size="small")
        machine = default_machine().with_(n_procs=4, record_epochs=True)
        plain = both_engines(program, scheme, machine)["reference"]

        classify = MsiScheme._invalidate_copy

        def all_false(self, target, line_addr, word):
            dirty = classify(self, target, line_addr, word)
            reasons = self.inval_reason[target]
            if reasons[line_addr] == _REASON_TRUE:
                reasons[line_addr] = _REASON_FALSE
                self.false_invalidations += 1
            return dirty

        monkeypatch.setattr(MsiScheme, "_invalidate_copy", all_false)
        mutated = assert_parity(program, scheme, machine)["reference"]
        assert snapshot(mutated) != snapshot(plain)
        assert (mutated.extra["false_invalidations"]
                == mutated.extra["invalidations_sent"])


class TestEngineProvenance:
    def test_engine_recorded_but_not_rendered(self):
        program = build_workload("ocean", size="small")
        pair = both_engines(program, "tpi", default_machine())
        assert pair["fast"].engine == "fast"
        assert pair["reference"].engine == "reference"
        for result in pair.values():
            assert "engine" not in result.to_dict()


class TestRandomPrograms:
    """Hypothesis sweep: random programs x random machines x schemes."""

    @settings(max_examples=25, **SETTINGS)
    @given(program=rich_programs(), machine=machines())
    def test_parity_tpi(self, program, machine):
        assert_parity(program, "tpi", machine)

    @settings(max_examples=25, **SETTINGS)
    @given(program=rich_programs(), machine=machines())
    def test_parity_hw(self, program, machine):
        assert_parity(program, "hw", machine)

    @settings(max_examples=15, **SETTINGS)
    @given(program=rich_programs(), machine=machines())
    def test_parity_base_sc(self, program, machine):
        assert_parity(program, "base", machine)
        assert_parity(program, "sc", machine)

    @settings(max_examples=10, **SETTINGS)
    @given(program=rich_programs(), machine=machines())
    def test_parity_limitless_update(self, program, machine):
        assert_parity(program, "limitless", machine)
        assert_parity(program, "update", machine)

    @settings(max_examples=15, **SETTINGS)
    @given(program=rich_programs(), machine=machines())
    def test_parity_tardis(self, program, machine):
        assert_parity(program, "tardis", machine)

    @settings(max_examples=15, **SETTINGS)
    @given(program=rich_programs(), machine=machines())
    def test_parity_snoop(self, program, machine):
        assert_parity(program, "snoop", machine)

