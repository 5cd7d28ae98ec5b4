"""Differential parity for gang simulation (the config-axis vectorizer).

A gang shares one columnar trace across many back-end machine variants
(:mod:`repro.sim.gang`); its contract is the same as the fast engine's
(tests/test_engine_parity.py): every per-config result must be
byte-identical — canonical JSON of ``to_dict()`` plus the per-epoch
records — to running that configuration alone, on either engine.

Layers:

* hypothesis-random programs x machines, each fanned into several
  back-end variants, ganged via :func:`run_gang` and compared member by
  member against solo fast and solo reference runs;
* executor-level sweeps: jobs=1 vs jobs=N, cold vs warm cache, and
  engine choice (fast sweeps gang-prime, reference sweeps do not);
* the cache-shape guarantee: a line-size/timetag sweep stores exactly
  one prepared front end per workload;
* the geometry-free per-event rows: every geometry view of one task
  shares one ``rows`` list, primed or built lazily;
* grid-order and ``jobs=None`` regressions for :class:`Sweep.run`.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.coherence.api import dead_config_fields, scheme_registry
from repro.common.config import (WORD_BYTES, CacheConfig, DirectoryConfig,
                                 TardisConfig, TpiConfig, WriteBufferKind,
                                 default_machine)
from repro.compiler.marking import mark_program
from repro.runtime import (ArtifactCache, Job, Telemetry, effective_jobs,
                           expand_sweep)
from repro.runtime.cache import KIND_PREPARED, KIND_RESULT
from repro.sim import prepare, simulate
from repro.sim.engine import resolve_engine
from repro.sim.fastengine import FastEngine
from repro.sim.gang import GangMember, distinct_backends, prime_group, run_gang
from repro.sim.sweep import Sweep, axis_cache_lines, axis_timetag_bits
from repro.workloads import build_workload
from tests.strategies import machines, rich_programs

MACHINE = default_machine().with_(n_procs=4, record_epochs=True)

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


def backend_variants(base):
    """Back-end-only variants of one machine (front end untouched).

    Geometry variants keep the base line count and associativity and
    change only the line width, so they stay valid for the tiny fuzzed
    caches too.
    """
    cache = base.cache

    def lines(words):
        return CacheConfig(size_bytes=cache.n_lines * words * WORD_BYTES,
                           line_words=words,
                           associativity=cache.associativity)

    return [
        base,
        base.with_(cache=lines(8)),
        base.with_(cache=lines(1)),
        base.with_(tpi=TpiConfig(timetag_bits=3)),
        base.with_(base_miss_latency=base.base_miss_latency + 40),
    ]


class TestGangParity:
    """Every gang member == its solo fast run == its solo reference run."""

    @settings(max_examples=10, **SETTINGS)
    @given(program=rich_programs(), machine=machines(),
           scheme=st.sampled_from(["tpi", "hw"]))
    def test_random_programs_and_machines(self, program, machine, scheme):
        variants = backend_variants(machine)
        run = prepare(program, machine)
        members = [GangMember(v, scheme) for v in variants]
        ganged = run_gang(run, members)
        for variant, result in zip(variants, ganged):
            solo_fast = simulate(prepare(program, variant.with_(engine="fast")),
                                 scheme)
            solo_ref = simulate(
                prepare(program, variant.with_(engine="reference")), scheme)
            assert snapshot(result) == snapshot(solo_fast)
            assert snapshot(result) == snapshot(solo_ref)

    @pytest.mark.parametrize("name", ["ocean", "trfd"])
    def test_workload_gang_matches_solo(self, name):
        program = build_workload(name, size="small")
        variants = backend_variants(MACHINE)
        run = prepare(program, MACHINE)
        members = [GangMember(v, s) for v in variants for s in ("tpi", "hw")]
        stats = {}
        ganged = run_gang(run, members, stats=stats)
        if resolve_engine(MACHINE) == "reference":
            # Every member resolves to the reference engine (e.g. the
            # REPRO_ENGINE=reference CI leg): nothing is primed.
            assert stats.get("gang_width", 0) == 0
        else:
            assert stats["gang_width"] == len(distinct_backends(variants))
            assert stats["phases"]["gang"] >= 0.0
        for member, result in zip(members, ganged):
            solo = simulate(prepare(program, member.machine), member.scheme)
            assert snapshot(result) == snapshot(solo)

    def test_priming_is_pure(self):
        """Results are byte-identical with and without prime_group."""
        program = build_workload("ocean", size="small")
        variants = backend_variants(MACHINE)
        unprimed = [snapshot(simulate(prepare(program, v), "tpi"))
                    for v in variants]
        run = prepare(program, MACHINE)
        prime_group(run.trace, variants)
        primed = [snapshot(simulate(run, "tpi", machine=v)) for v in variants]
        assert primed == unprimed


class TestSchemeAxisGang:
    """One gang runs the *scheme* axis over one prepared trace, one
    engine at a time; every member stays byte-identical to its solo fast
    and solo reference runs (arc2d exercises the sync-epoch fallback
    inside a ganged member too)."""

    SCHEMES = ("base", "sc", "tpi", "hw", "update", "tardis", "snoop")

    @pytest.mark.parametrize("name", ["ocean", "arc2d"])
    def test_scheme_gang_matches_solo(self, name):
        program = build_workload(name, size="small")
        run = prepare(program, MACHINE)
        members = [GangMember(MACHINE, scheme) for scheme in self.SCHEMES]
        ganged = run_gang(run, members)
        for scheme, result in zip(self.SCHEMES, ganged):
            solo_fast = simulate(
                prepare(program, MACHINE.with_(engine="fast")), scheme)
            solo_ref = simulate(
                prepare(program, MACHINE.with_(engine="reference")), scheme)
            assert snapshot(result) == snapshot(solo_fast)
            assert snapshot(result) == snapshot(solo_ref)

    def test_scheme_sweep_gang_vs_fast(self):
        """A ganged fast sweep == solo fast runs, per scheme, whole axis."""
        program = build_workload("ocean", size="small")
        sweep = Sweep(program, schemes=self.SCHEMES,
                      base=MACHINE.with_(engine="fast"))
        sweep.add_axis("line", axis_cache_lines([1, 4]))
        ganged = [snapshot(p.result) for p in sweep.run()]
        solo = [snapshot(simulate(prepare(program, job.machine), job.scheme))
                for job in expand_sweep(sweep)]
        assert ganged == solo


class TestPrimeFallbacks:
    def test_gang_of_one_falls_back(self):
        run = prepare(build_workload("ocean", size="small"), MACHINE)
        stats = prime_group(run.trace, [MACHINE])
        assert stats["fallback"] == "gang-of-one"

    def test_identical_configs_dedup_to_one(self):
        # engine is not a back-end field: variants differing only in it
        # collapse to one backend, so priming is skipped.
        pair = [MACHINE.with_(engine="fast"),
                MACHINE.with_(engine="reference")]
        assert len(distinct_backends(pair)) == 1
        run = prepare(build_workload("ocean", size="small"), MACHINE)
        stats = prime_group(run.trace, distinct_backends(pair))
        assert stats["fallback"] == "gang-of-one"

    def test_priming_builds_nothing_for_an_epoch_the_planner_refuses(self):
        # Priming and the planner share one batchability test: an epoch
        # that runs two tasks on one processor, which the planner falls
        # back on, gets no analysis from priming either.
        from tests.test_hot_sets import _setup, _trace

        program, machine, layout = _setup(n_procs=4)
        a = layout.base("A")
        rng = np.random.default_rng(5)

        def task(proc):
            return proc, [(bool(rng.integers(2)), a + int(rng.integers(32)))
                          for _ in range(40)]

        trace = _trace(layout, 4, [
            [task(proc) for proc in (0, 1, 0)],
            [task(proc) for proc in (0, 1, 2)]])
        other = machine.with_(cache=CacheConfig(size_bytes=8 * WORD_BYTES,
                                                line_words=1))
        stats = prime_group(trace, [machine, other])
        refused, primed = trace.epochs
        assert refused._batch is False
        assert len(primed._batch) == 2
        assert stats["primed_epochs"] == 1
        engine = FastEngine(trace, mark_program(program),
                            machine.with_(engine="fast"), "hw")
        assert engine._plan_epoch(refused) is None
        assert engine._plan_epoch(primed) is not None

    def test_primes_columnar_epochs(self):
        run = prepare(build_workload("ocean", size="small"), MACHINE)
        stats = prime_group(run.trace, backend_variants(MACHINE))
        assert stats["fallback"] == ""
        assert stats["primed_epochs"] > 0
        assert stats["geometries"] == 3  # default, 8-word, 1-word lines
        assert stats["width"] == 5


class TestSharedRows:
    """The per-event rows depend on the task, never on the cache
    geometry: they live on the epoch, built once per task, and every
    geometry view of one epoch shares every geometry-free column,
    whether gang priming or the fast engine built the views."""

    @staticmethod
    def assert_views_share_rows(trace):
        epochs = [e for e in trace.epochs
                  if isinstance(e._batch, dict) and len(e._batch) >= 2]
        assert epochs
        for epoch in epochs:
            first, *rest = epoch._batch.values()
            for other in rest:
                assert other.addr is first.addr
                assert other.off is first.off
            rows = [epoch.rows(rank) for rank in range(epoch.n_tasks)]
            assert all(epoch.rows(rank) is task
                       for rank, task in enumerate(rows))

    def test_primed_views_share_rows(self):
        run = prepare(build_workload("ocean", size="small"), MACHINE)
        prime_group(run.trace, backend_variants(MACHINE))
        self.assert_views_share_rows(run.trace)

    def test_lazily_built_views_share_rows(self):
        fast = MACHINE.with_(engine="fast")
        run = prepare(build_workload("ocean", size="small"), fast)
        for variant in backend_variants(fast)[:3]:  # three geometries
            simulate(run, "tpi", machine=variant)
        self.assert_views_share_rows(run.trace)


def vary_dead_field(machine, name):
    """Perturb one config field a scheme has declared dead."""
    if name == "tpi":
        return machine.with_(tpi=TpiConfig(timetag_bits=3))
    if name == "write_buffer":
        return machine.with_(write_buffer=WriteBufferKind.COALESCING)
    if name == "directory":
        return machine.with_(directory=DirectoryConfig(
            limitless_pointers=2, overflow_trap_cycles=999))
    if name == "tardis":
        return machine.with_(tardis=TardisConfig(lease=3, timestamp_bits=6))
    raise AssertionError(f"no variant for dead field {name!r}")


class TestSchemeDeadConfig:
    """Every declared scheme-dead field is differentially pinned."""

    CASES = [(scheme, name)
             for scheme, cls in sorted(scheme_registry().items())
             for name in cls.config_dead_fields]

    @pytest.mark.parametrize("scheme,name", CASES)
    def test_dead_field_does_not_change_result(self, scheme, name):
        program = build_workload("ocean", size="small")
        plain = simulate(prepare(program, MACHINE), scheme)
        varied = simulate(prepare(program, vary_dead_field(MACHINE, name)),
                          scheme)
        assert snapshot(plain) == snapshot(varied)

    def test_fingerprints_collapse_on_dead_fields(self):
        program = build_workload("ocean", size="small")
        for scheme, cls in scheme_registry().items():
            base_key = Job(program=program, scheme=scheme,
                           machine=MACHINE).fingerprint()
            for name in cls.config_dead_fields:
                varied = vary_dead_field(MACHINE, name)
                assert Job(program=program, scheme=scheme,
                           machine=varied).fingerprint() == base_key

    def test_live_fields_still_split_fingerprints(self):
        program = build_workload("ocean", size="small")
        varied = vary_dead_field(MACHINE, "tpi")
        assert dead_config_fields("tpi") == ("directory", "tardis")
        assert (Job(program=program, scheme="tpi", machine=MACHINE).fingerprint()
                != Job(program=program, scheme="tpi",
                       machine=varied).fingerprint())


def line_k_sweep(base=MACHINE, schemes=("tpi", "hw"), workload="ocean"):
    sweep = Sweep(build_workload(workload, size="small"),
                  schemes=schemes, base=base)
    sweep.add_axis("line", axis_cache_lines([1, 4]))
    sweep.add_axis("k", axis_timetag_bits([2, 8]))
    return sweep


class TestGangSweeps:
    def test_engine_selection_is_invisible_in_results(self):
        renders = []
        for engine in ("fast", "reference"):
            points = line_k_sweep(MACHINE.with_(engine=engine)).run()
            renders.append([(p.labels, p.scheme, snapshot(p.result))
                            for p in points])
        assert renders[0] == renders[1]

    def test_dead_config_shares_results_in_sweep(self):
        """The hw column collapses across timetag widths: one simulation
        answers both k cells, telemetry counts the sharing, and the tpi
        column (which reads the timetag config) stays split."""
        telemetry = Telemetry()
        points = line_k_sweep().run(telemetry=telemetry)
        assert telemetry.results_shared == 2  # hw x {4B, 16B}
        by = {(p.labels["line"], p.labels["k"], p.scheme): snapshot(p.result)
              for p in points}
        for line in ("4B", "16B"):
            assert by[(line, "k=2", "hw")] == by[(line, "k=8", "hw")]
        assert by[("4B", "k=2", "tpi")] != by[("4B", "k=8", "tpi")]
        shared = [r for r in telemetry.records if r.source == "shared"]
        assert len(shared) == 2 and all(r.scheme == "hw" for r in shared)

    def test_jobs_1_vs_jobs_n_parity(self):
        serial = line_k_sweep(MACHINE.with_(engine="fast")).run(jobs=1)
        parallel = line_k_sweep(MACHINE.with_(engine="fast")).run(jobs=2)
        assert [snapshot(p.result) for p in serial] == \
               [snapshot(p.result) for p in parallel]

    def test_cold_vs_warm_cache_parity(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cold = line_k_sweep().run(jobs=2, cache=cache)
        warm_t = Telemetry()
        warm = line_k_sweep().run(jobs=2, cache=cache, telemetry=warm_t)
        assert warm_t.traces_generated == 0
        assert warm_t.result_hits == len(cold)
        assert [snapshot(p.result) for p in cold] == \
               [snapshot(p.result) for p in warm]

    def test_one_prepared_front_end_per_workload(self, tmp_path):
        """A back-end-only sweep stores ONE trace per workload (satellite:
        the fingerprint split keeps line size/timetag out of the prepare
        key)."""
        cache = ArtifactCache(tmp_path)
        for workload in ("ocean", "trfd"):
            telemetry = Telemetry()
            points = line_k_sweep(workload=workload).run(
                cache=cache, telemetry=telemetry)
            assert telemetry.traces_generated == 1
            assert telemetry.traces_shared == len(points) - 1
        stats = cache.stats()
        assert stats.entries[KIND_PREPARED] == 2  # one per workload
        # 8 points/workload but only 6 distinct results: hw never reads
        # the timetag config, so its k=2/k=8 cells share one entry.
        assert stats.entries[KIND_RESULT] == 12


class TestSweepRegressions:
    def test_grid_order_schemes_innermost(self):
        points = line_k_sweep().run()
        expected = [({"line": line, "k": k}, scheme)
                    for line in ("4B", "16B")
                    for k in ("k=2", "k=8")
                    for scheme in ("tpi", "hw")]
        assert [(p.labels, p.scheme) for p in points] == expected

    def test_jobs_none_means_all_cores(self):
        telemetry = Telemetry()
        points = line_k_sweep(schemes=("tpi",)).run(jobs=None,
                                                    telemetry=telemetry)
        assert telemetry.n_workers == effective_jobs(None)
        assert [snapshot(p.result) for p in points] == \
               [snapshot(p.result) for p in line_k_sweep(schemes=("tpi",)).run()]
