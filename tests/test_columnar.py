"""Columnar trace store and vectorized DOALL front end.

Three layers of evidence that template expansion changes *speed* only,
never *semantics*:

* pickle round-trip: a pickled trace (the form the artifact cache and
  the executor ship) comes back column-for-column identical, for every
  workload and for hypothesis-random programs;
* generation parity: :func:`repro.trace.generate_columnar` (affine
  template expansion with interpreter fallback) produces the same
  epochs, tasks and events as the per-iteration interpreter (the same
  call with template expansion switched off in-process);
* simulation parity: both engines produce byte-identical canonical JSON
  whether fed the vectorized or the interpreted trace.

Plus the batching heuristic, the phase telemetry, and the parallel /
cached :func:`simulate_all` paths that ship columnar buffers.
"""

import dataclasses
import gc
import json
import pickle
import weakref

import pytest
from hypothesis import HealthCheck, given, settings

from repro.cli import main
from repro.common.config import default_machine
from repro.compiler import mark_program
from repro.ir import ProgramBuilder
from repro.runtime import ArtifactCache, Telemetry
from repro.sim import prepare, simulate, simulate_all
from repro.sim.engine import make_engine
from repro.sim.fastengine import _MIN_TASK_EVENTS, FastEngine
from repro.trace import ColumnarTrace, generate_columnar
from repro.workloads import build_workload, workload_names
from tests.rawtrace import assert_same_trace, interpreted
from tests.strategies import machines, rich_programs

MACHINE = default_machine().with_(n_procs=4)
SETTINGS = dict(deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.data_too_large])


# --------------------------------------------------------------- round-trip


class TestRoundTrip:
    @pytest.mark.parametrize("name", workload_names())
    def test_workload_round_trip_identity(self, name):
        trace = generate_columnar(build_workload(name, size="small"),
                                  MACHINE)
        clone = pickle.loads(pickle.dumps(trace))
        assert_same_trace(clone, trace)
        assert clone.n_expanded_epochs == trace.n_expanded_epochs

    @pytest.mark.parametrize("name", workload_names())
    def test_workload_counts_match(self, name):
        program = build_workload(name, size="small")
        counts = generate_columnar(program, MACHINE).counts()
        assert counts == interpreted(program, MACHINE).counts()
        assert counts["read"] and counts["write"]

    @given(program=rich_programs(), machine=machines())
    @settings(max_examples=25, **SETTINGS)
    def test_random_program_round_trip_identity(self, program, machine):
        trace = generate_columnar(program, machine)
        assert_same_trace(pickle.loads(pickle.dumps(trace)), trace)
        assert sum(trace.counts().values()) == trace.n_events

    def test_pickle_round_trip(self):
        """A pickle carries the raw columns only: rows and analyses cached
        on the epochs stay behind."""
        run = prepare(build_workload("ocean", size="small"),
                      MACHINE.with_(engine="fast"))
        fresh = pickle.dumps(run.trace)
        simulate(run, "tpi")
        assert any(epoch._rows for epoch in run.trace.epochs)
        assert pickle.dumps(run.trace) == fresh
        clone = pickle.loads(fresh)
        assert_same_trace(clone, run.trace)
        assert all(epoch._rows is None and epoch._batch is None
                   for epoch in clone.epochs)

    def test_dropped_run_frees_its_trace(self):
        """Epoch views hold their trace weakly: a dropped prepared run is
        freed by reference counting, analyses cached on its epochs
        included, without waiting for a garbage collection."""
        gc.disable()
        try:
            run = prepare(build_workload("ocean"), MACHINE)
            for scheme in ("tpi", "hw"):
                simulate(run, scheme)
            trace = weakref.ref(run.trace)
            del run
            assert trace() is None
        finally:
            gc.enable()


# --------------------------------------------------------- generation parity


class TestGenerationParity:
    @pytest.mark.parametrize("name", workload_names())
    @pytest.mark.parametrize("size", ["small", "default"])
    def test_workload_parity(self, name, size):
        program = build_workload(name, size=size)
        columnar = generate_columnar(program, MACHINE)
        assert isinstance(columnar, ColumnarTrace)
        assert_same_trace(columnar, interpreted(program, MACHINE))

    @pytest.mark.parametrize("name", workload_names())
    def test_workloads_actually_vectorize(self, name):
        program = build_workload(name, size="small")
        assert generate_columnar(program, MACHINE).n_expanded_epochs > 0
        assert interpreted(program, MACHINE).n_expanded_epochs == 0

    @given(program=rich_programs(), machine=machines())
    @settings(max_examples=40, **SETTINGS)
    def test_random_program_parity(self, program, machine):
        # rich_programs mixes affine DOALL bodies (expanded) with critical
        # sections, calls, and loop-carried scalars (interpreter fallback);
        # both halves must agree with the pure interpreter.
        assert_same_trace(generate_columnar(program, machine),
                          interpreted(program, machine))


# --------------------------------------------------------- simulation parity


def snapshot(result) -> str:
    return json.dumps(
        {"result": result.to_dict(),
         "epoch_records": [dataclasses.asdict(r)
                           for r in result.epoch_records]},
        sort_keys=True)


class TestSimulationParity:
    @pytest.mark.parametrize("name", workload_names())
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_columnar_vs_object_trace(self, name, engine):
        """The vectorized trace simulates exactly like the interpreted
        one."""
        program = build_workload(name, size="small")
        machine = MACHINE.with_(engine=engine, record_epochs=True)
        marking = mark_program(program)
        walked = interpreted(program, machine)
        columnar = generate_columnar(program, machine)
        for scheme in ("base", "sc", "tpi", "hw"):
            via_walk = make_engine(walked, marking, machine, scheme).run()
            via_columnar = make_engine(columnar, marking, machine,
                                       scheme).run()
            assert snapshot(via_columnar) == snapshot(via_walk)


# ------------------------------------------------------- batching heuristic


def _tiny_program():
    """One event per task — far below the batching floor."""
    b = ProgramBuilder("tiny", params={})
    b.array("A", (8,))
    with b.procedure("main"):
        with b.doall("i", 0, 3) as i:
            b.stmt(reads=[b.at("A", i)], work=1)
    return b.build()


def _heavy_program():
    """Well above ``_MIN_TASK_EVENTS`` events per task."""
    b = ProgramBuilder("heavy", params={})
    b.array("A", (40,))
    b.array("B", (40,))
    with b.procedure("main"):
        with b.doall("i", 0, 3):
            with b.serial("j", 0, 39) as j:
                b.stmt(reads=[b.at("A", j)], writes=[b.at("B", j)], work=1)
    return b.build()


class TestBatchingHeuristic:
    def run_fast(self, program, scheme="base"):
        machine = MACHINE.with_(engine="fast")
        engine = make_engine(generate_columnar(program, machine),
                             mark_program(program), machine, scheme)
        assert isinstance(engine, FastEngine)
        engine.run()
        return engine

    def test_tiny_epochs_fall_back(self):
        engine = self.run_fast(_tiny_program())
        assert engine.batched_epochs == 0
        assert engine.fallback_epochs > 0

    def test_heavy_epochs_batch(self):
        engine = self.run_fast(_heavy_program())
        assert engine.batched_epochs > 0

    def test_floor_is_calibrated(self):
        # The tiny/heavy programs must actually straddle the floor, or the
        # two tests above stop exercising the heuristic.
        machine = MACHINE.with_(engine="fast")
        tiny = generate_columnar(_tiny_program(), machine)
        heavy = generate_columnar(_heavy_program(), machine)
        tiny_epoch = tiny.epochs[0]
        heavy_epoch = heavy.epochs[0]
        assert (tiny_epoch.n_events
                < _MIN_TASK_EVENTS * max(1, tiny_epoch.n_tasks))
        assert (heavy_epoch.n_events
                >= _MIN_TASK_EVENTS * max(1, heavy_epoch.n_tasks))

    def test_heuristic_preserves_results(self):
        for program in (_tiny_program(), _heavy_program()):
            machine = MACHINE.with_(engine="fast", record_epochs=True)
            reference = MACHINE.with_(engine="reference", record_epochs=True)
            for scheme in ("base", "hw"):
                fast = simulate(prepare(program, machine), scheme)
                ref = simulate(prepare(program, reference), scheme)
                assert snapshot(fast) == snapshot(ref)


# ------------------------------------------------- runtime: scatter + cache


class TestRuntimeParity:
    def test_jobs_1_vs_n_and_cold_vs_warm(self, tmp_path):
        program = build_workload("ocean", size="small")
        schemes = ("base", "tpi", "hw")
        plain = simulate_all(program, schemes, MACHINE)

        cache = ArtifactCache(tmp_path / "cache")
        serial = simulate_all(program, schemes, MACHINE, jobs=1, cache=cache)
        scattered = simulate_all(program, schemes, MACHINE, jobs=2,
                                 cache=ArtifactCache(tmp_path / "cache2"))
        warm_telemetry = Telemetry()
        warm = simulate_all(program, schemes, MACHINE, jobs=1, cache=cache,
                            telemetry=warm_telemetry)

        for scheme in schemes:
            expected = snapshot(plain[scheme])
            assert snapshot(serial[scheme]) == expected
            assert snapshot(scattered[scheme]) == expected
            assert snapshot(warm[scheme]) == expected
        assert warm_telemetry.result_hits == len(schemes)

    def test_prepared_cache_stores_columnar(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        telemetry = Telemetry()
        simulate_all(build_workload("flo52", size="small"), ("tpi",),
                     MACHINE, jobs=1, cache=cache, telemetry=telemetry)
        assert telemetry.prepare_misses == 1
        stats = cache.stats()
        assert stats.entries["prepared"] == 1
        # The artifact on disk is the columnar trace.
        [path] = (cache.base / "prepared").rglob("*.pkl")
        with open(path, "rb") as handle:
            prepared = pickle.load(handle)
        assert isinstance(prepared.trace, ColumnarTrace)


# --------------------------------------------------------- phase telemetry


class TestPhaseTelemetry:
    def test_phases_flow_into_report(self, tmp_path):
        telemetry = Telemetry()
        simulate_all(build_workload("flo52", size="small"), ("base", "tpi"),
                     MACHINE, jobs=1,
                     cache=ArtifactCache(tmp_path / "cache"),
                     telemetry=telemetry)
        report = telemetry.report().to_dict()
        assert set(report["phases"]) == {"compile", "trace", "engine"}
        assert report["phases"]["engine"] > 0
        assert all(seconds >= 0 for seconds in report["phases"].values())
        assert "phases:" in telemetry.report().render()

    def test_cli_simulate_surfaces_phases(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        report = tmp_path / "report.json"
        assert main(["simulate", "flo52", "--size", "small",
                     "--scheme", "tpi",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--json", str(out), "--report", str(report)]) == 0
        payload = json.loads(out.read_text())
        assert payload["tpi"]["scheme"] == "tpi"
        assert "engine" in payload["phases"]
        telemetry = json.loads(report.read_text())
        assert "engine" in telemetry["phases"]
