"""Tests for the parallel execution engine and artifact cache."""

import multiprocessing
import os
import pickle
import time

import pytest

from repro.common.config import CacheConfig, default_machine
from repro.runtime import (
    ArtifactCache,
    Job,
    ParallelExecutor,
    Telemetry,
    effective_jobs,
    execute_jobs,
    jobs_for_schemes,
    program_digest,
    session,
)
from repro.runtime import executor as executor_module
from repro.runtime.cache import KIND_RESULT
from repro.runtime.executor import JobTimeoutError
from repro.sim.runner import prepare, simulate, simulate_all
from repro.sim.sweep import Sweep, axis_cache_lines, axis_timetag_bits
from repro.workloads import build_workload

MACHINE = default_machine().with_(n_procs=4, epoch_setup_cycles=5,
                                  task_dispatch_cycles=1)
SCHEMES = ("base", "sc", "tpi", "hw")


def small(name):
    return build_workload(name, size="small")


# Monkeypatching the executor reaches pool workers only when they fork.
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers must inherit the patched run_gang")


def patch_workers(monkeypatch, action):
    """Make ``run_gang`` call ``action()`` first in pool workers only."""
    parent = os.getpid()
    real = executor_module.run_gang

    def patched(prepared, members, stats=None):
        if os.getpid() != parent:
            action()
        return real(prepared, members, stats)

    monkeypatch.setattr(executor_module, "run_gang", patched)


class TestFingerprints:
    def test_stable_across_rebuilds(self):
        a = Job(program=small("ocean"), scheme="tpi", machine=MACHINE)
        b = Job(program=small("ocean"), scheme="tpi", machine=MACHINE)
        assert a.fingerprint() == b.fingerprint()
        assert a.prepare_fingerprint() == b.prepare_fingerprint()

    def test_scheme_changes_result_key_only(self):
        a = Job(program=small("ocean"), scheme="tpi", machine=MACHINE)
        b = Job(program=small("ocean"), scheme="hw", machine=MACHINE)
        assert a.prepare_fingerprint() == b.prepare_fingerprint()
        assert a.fingerprint() != b.fingerprint()

    def test_machine_config_differences_are_distinct(self):
        machines = [
            MACHINE,
            MACHINE.with_(n_procs=8),
            MACHINE.with_(base_miss_latency=120),
            MACHINE.with_(cache=CacheConfig(size_bytes=32 * 1024)),
        ]
        program = small("ocean")
        keys = {Job(program=program, scheme="tpi", machine=m).fingerprint()
                for m in machines}
        assert len(keys) == len(machines)

    def test_program_content_matters(self):
        assert (program_digest(small("ocean"))
                != program_digest(small("trfd")))
        assert (program_digest(small("ocean"))
                != program_digest(build_workload("ocean", size="default")))

    def test_params_and_tag_handling(self):
        base = Job(program=small("ocean"), scheme="tpi", machine=MACHINE)
        tagged = Job(program=small("ocean"), scheme="tpi", machine=MACHINE,
                     tag={"cell": "a"})
        assert base.fingerprint() == tagged.fingerprint()

    @pytest.mark.parametrize("workload,scheme,result_key,prepare_key", [
        ("ocean", "tpi",
         "929c24c148045c729fec1a669563e7731c7ee357dc692f0c7176ed6a27285ff4",
         "d675eacea491680dcd4046a90819bee28d1831a5ec4f46f8f26dfdab269415bc"),
        ("trfd", "hw",
         "af46dba0a3e5502199d41faa016e86e47b827f8e61eb9740655b447663dfea0f",
         "7b84d5b8fe3ffc06703654df0fe477ccc1d01b8b0e6dd82bc025af5a58adc748"),
    ])
    def test_fingerprints_are_pinned(self, workload, scheme, result_key,
                                     prepare_key):
        """Literal keys: a change here invalidates every cached artifact
        and must come with an ``ENGINE_SALT`` bump."""
        job = Job(program=small(workload), scheme=scheme, machine=MACHINE)
        assert job.fingerprint() == result_key
        assert job.prepare_fingerprint() == prepare_key

    def test_executor_dedups_prepare_groups(self):
        """The executor prepares each distinct front end once and still
        returns results in input order."""
        jobs = jobs_for_schemes(small("ocean"), SCHEMES, MACHINE)
        jobs += jobs_for_schemes(small("ocean"), ("tpi",),
                                 MACHINE.with_(n_procs=8))
        telemetry = Telemetry()
        results = execute_jobs(jobs, n_jobs=1, telemetry=telemetry)
        assert telemetry.traces_generated == 2
        assert telemetry.traces_shared == 3
        assert results == [simulate(prepare(job.program, job.machine),
                                    job.scheme) for job in jobs]


class TestExecutor:
    @pytest.mark.parametrize("workload", ["ocean", "trfd"])
    def test_serial_parallel_parity(self, workload):
        """jobs=1 and jobs=4 produce identical SimResults for every scheme."""
        jobs = jobs_for_schemes(small(workload), SCHEMES, MACHINE)
        serial = execute_jobs(jobs, n_jobs=1)
        parallel = execute_jobs(jobs, n_jobs=4)
        assert serial == parallel
        direct = [simulate(prepare(small(workload), MACHINE), scheme)
                  for scheme in SCHEMES]
        assert serial == direct

    def test_parallel_many_groups_parity(self):
        jobs = (jobs_for_schemes(small("ocean"), ("tpi", "hw"), MACHINE)
                + jobs_for_schemes(small("trfd"), ("tpi", "hw"), MACHINE)
                + jobs_for_schemes(small("ocean"), ("tpi",),
                                   MACHINE.with_(n_procs=2)))
        serial = execute_jobs(jobs, n_jobs=1)
        parallel = execute_jobs(jobs, n_jobs=3)
        assert serial == parallel

    def test_results_in_input_order(self):
        jobs = jobs_for_schemes(small("ocean"), SCHEMES, MACHINE)
        results = execute_jobs(jobs, n_jobs=2)
        assert [r.scheme for r in results] == list(SCHEMES)

    def test_serial_shares_front_end(self):
        telemetry = Telemetry()
        jobs = jobs_for_schemes(small("ocean"), SCHEMES, MACHINE)
        execute_jobs(jobs, n_jobs=1, telemetry=telemetry)
        assert telemetry.traces_generated == 1

    def test_worker_error_propagates(self):
        jobs = jobs_for_schemes(small("ocean"), ("nosuch",), MACHINE)
        with pytest.raises(Exception):
            execute_jobs(jobs, n_jobs=2)

    @needs_fork
    @pytest.mark.parametrize("jobs,units", [
        (jobs_for_schemes(small("ocean"), SCHEMES, MACHINE)
         + jobs_for_schemes(small("trfd"), SCHEMES, MACHINE), 2),
        (jobs_for_schemes(small("ocean"), ("tpi", "hw", "sc"), MACHINE), 2),
    ], ids=["several-front-ends", "one-front-end-split"])
    def test_crashed_workers_retry_in_process(self, monkeypatch, jobs, units):
        """A worker that dies mid-unit costs one in-process retry per
        unit, never a result or a record."""
        serial = execute_jobs(jobs, n_jobs=1)
        patch_workers(monkeypatch, lambda: os._exit(3))
        telemetry = Telemetry()
        assert execute_jobs(jobs, n_jobs=2, telemetry=telemetry) == serial
        assert telemetry.retries == units
        assert sorted(r.label for r in telemetry.records) == sorted(
            job.label for job in jobs)

    @needs_fork
    def test_timeout_stops_hung_workers(self, monkeypatch):
        """``timeout`` bounds wall time: hung workers are stopped, not
        awaited, and none outlives the error."""
        jobs = (jobs_for_schemes(small("ocean"), ("tpi",), MACHINE)
                + jobs_for_schemes(small("trfd"), ("tpi",), MACHINE))
        patch_workers(monkeypatch, lambda: time.sleep(6))
        started = time.perf_counter()
        with pytest.raises(JobTimeoutError):
            execute_jobs(jobs, n_jobs=2, timeout=0.5)
        assert time.perf_counter() - started < 0.5 + 2.0
        assert multiprocessing.active_children() == []

    def test_effective_jobs(self):
        assert effective_jobs(3) == 3
        assert effective_jobs(1) == 1
        assert effective_jobs(None) >= 1
        assert effective_jobs(0) >= 1


class TestCache:
    def test_round_trip_hit_and_equal(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        jobs = jobs_for_schemes(small("ocean"), ("tpi", "hw"), MACHINE)
        cold = Telemetry()
        first = execute_jobs(jobs, n_jobs=1, cache=cache, telemetry=cold)
        assert cold.result_misses == 2 and cold.result_hits == 0
        warm = Telemetry()
        second = execute_jobs(jobs, n_jobs=1, cache=cache, telemetry=warm)
        assert warm.result_hits == 2 and warm.result_misses == 0
        assert warm.traces_generated == 0
        assert first == second

    def test_warm_cache_zero_traces_parallel(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        jobs = (jobs_for_schemes(small("ocean"), ("tpi", "hw"), MACHINE)
                + jobs_for_schemes(small("trfd"), ("tpi", "hw"), MACHINE))
        execute_jobs(jobs, n_jobs=2, cache=cache)
        warm = Telemetry()
        execute_jobs(jobs, n_jobs=2, cache=cache, telemetry=warm)
        assert warm.traces_generated == 0
        assert warm.result_hits == 4

    def test_corrupt_entry_is_miss_not_crash(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        job = jobs_for_schemes(small("ocean"), ("tpi",), MACHINE)[0]
        [result] = execute_jobs([job], n_jobs=1, cache=cache)
        path = cache._path(KIND_RESULT, job.fingerprint())
        path.write_bytes(path.read_bytes()[:10])  # truncate -> bad pickle
        telemetry = Telemetry()
        [again] = execute_jobs([job], n_jobs=1, cache=cache,
                               telemetry=telemetry)
        assert telemetry.result_hits == 0 and telemetry.result_misses == 1
        assert again == result

    def test_corrupt_entry_removed_then_rewritten(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store(KIND_RESULT, "ab" * 32, {"x": 1})
        path = cache._path(KIND_RESULT, "ab" * 32)
        path.write_bytes(b"not a pickle")
        assert cache.load(KIND_RESULT, "ab" * 32) is None
        assert not path.exists()

    def test_stats_and_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        execute_jobs(jobs_for_schemes(small("ocean"), ("tpi",), MACHINE),
                     n_jobs=1, cache=cache)
        stats = cache.stats()
        assert stats.total_entries == 2  # one prepared + one result
        assert stats.total_bytes > 0
        assert "entries" in stats.render()
        assert cache.clear() == 2
        assert cache.stats().total_entries == 0

    def test_unpicklable_payloads_degrade_to_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.store(KIND_RESULT, "cd" * 32, lambda: None) is False
        assert cache.load(KIND_RESULT, "cd" * 32) is None


class TestSweepIntegration:
    def _sweep(self, schemes=("tpi", "hw")):
        sweep = Sweep(small("ocean"), schemes=schemes, base=MACHINE)
        sweep.add_axis("line", axis_cache_lines([1, 4]))
        sweep.add_axis("k", axis_timetag_bits([2, 8]))
        return sweep

    def test_serial_parallel_parity(self):
        serial = self._sweep().run()
        parallel = self._sweep().run(jobs=2)
        assert [(p.labels, p.scheme, p.result) for p in serial] == \
               [(p.labels, p.scheme, p.result) for p in parallel]

    def test_front_end_shared_across_backend_variants(self):
        telemetry = Telemetry()
        self._sweep().run(telemetry=telemetry)
        # 4 grid cells x 2 schemes = 8 jobs; line size and timetag width
        # are back-end-only fields, so all 8 share ONE trace (the
        # fingerprint split) and gang-prime over it.
        assert telemetry.jobs_submitted == 8
        assert telemetry.traces_generated == 1
        assert telemetry.traces_shared == 7
        from repro.sim.engine import resolve_engine
        if resolve_engine(MACHINE) == "reference":
            assert telemetry.gang_width == 0  # reference members never prime
        else:
            assert telemetry.gang_width == 4
            assert telemetry.phase_s.get("gang", 0.0) > 0.0

    def test_warm_cache_sweep(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        self._sweep().run(jobs=2, cache=cache)
        telemetry = Telemetry()
        points = self._sweep().run(jobs=2, cache=cache, telemetry=telemetry)
        assert telemetry.traces_generated == 0
        assert telemetry.result_hits == 8
        assert points[0].result == self._sweep().run()[0].result


class TestSimulateAllIntegration:
    def test_parallel_matches_serial(self):
        program = small("trfd")
        serial = simulate_all(program, SCHEMES, MACHINE)
        parallel = simulate_all(program, SCHEMES, MACHINE, jobs=2)
        assert serial == parallel

    def test_prepared_run_not_rebuilt(self):
        run = prepare(small("ocean"), MACHINE)
        telemetry = Telemetry()
        results = simulate_all(run, ("tpi", "hw"), jobs=2,
                               telemetry=telemetry)
        assert telemetry.traces_generated == 0
        assert results["tpi"] == simulate(run, "tpi")


class TestSession:
    def test_experiment_warm_cache_generates_no_traces(self, tmp_path):
        from repro.experiments import run_experiment

        cache = ArtifactCache(tmp_path)
        plain = run_experiment("fig11_miss_rates", size="small")
        cold = Telemetry()
        first = run_experiment("fig11_miss_rates", size="small",
                               cache=cache, telemetry=cold)
        assert cold.traces_generated > 0
        warm = Telemetry()
        second = run_experiment("fig11_miss_rates", size="small",
                                cache=cache, telemetry=warm)
        assert warm.traces_generated == 0
        assert warm.result_hits > 0
        assert plain.to_dict() == first.to_dict() == second.to_dict()

    def test_session_scoping(self):
        from repro.runtime import current_session

        assert current_session() is None
        with session(jobs=1) as active:
            assert current_session() is active
        assert current_session() is None


class TestTelemetryReport:
    def test_report_shapes(self, tmp_path):
        telemetry = Telemetry()
        execute_jobs(jobs_for_schemes(small("ocean"), ("tpi",), MACHINE),
                     n_jobs=1, cache=ArtifactCache(tmp_path),
                     telemetry=telemetry)
        report = telemetry.report()
        payload = report.to_dict()
        assert payload["jobs"] == 1
        assert payload["cache"]["result_misses"] == 1
        assert payload["traces_generated"] == 1
        assert payload["per_job"][0]["scheme"] == "tpi"
        assert "run report" in report.render()
        out = tmp_path / "report.json"
        report.save(out)
        assert out.exists()

    def test_artifacts_pickle_roundtrip(self, tmp_path):
        [result] = execute_jobs(
            jobs_for_schemes(small("ocean"), ("tpi",), MACHINE), n_jobs=1)
        assert pickle.loads(pickle.dumps(result)) == result
