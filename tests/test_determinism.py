"""Determinism and provenance of simulation artifacts.

A :class:`repro.runtime.Job` fingerprint names a *result*, not a way of
computing it: the engine choice (fast/reference), the worker count, and
how many times the simulation has already run must all be invisible in
the canonical JSON rendering.  These tests pin that contract — it is
what lets the artifact cache share entries between engines.
"""

import json

from repro.common.config import default_machine
from repro.runtime import Job, ParallelExecutor, jobs_for_schemes
from repro.sim import prepare, simulate, simulate_all
from repro.workloads import build_workload


def machine(engine="auto"):
    return default_machine().with_(n_procs=4, engine=engine)


def canonical(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


class TestFingerprints:
    def test_engine_choice_does_not_change_fingerprint(self):
        program = build_workload("ocean", size="small")
        fast = Job(program=program, scheme="tpi", machine=machine("fast"))
        ref = Job(program=program, scheme="tpi", machine=machine("reference"))
        assert fast.fingerprint() == ref.fingerprint()
        assert fast.prepare_fingerprint() == ref.prepare_fingerprint()

    def test_scheme_and_machine_do_change_fingerprint(self):
        program = build_workload("ocean", size="small")
        a = Job(program=program, scheme="tpi", machine=machine())
        b = Job(program=program, scheme="hw", machine=machine())
        c = Job(program=program, scheme="tpi",
                machine=machine().with_(n_procs=8))
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3


class TestByteIdenticalResults:
    def test_engines_render_identically(self):
        program = build_workload("trfd", size="small")
        renders = set()
        for engine in ("fast", "reference"):
            run = prepare(program, machine(engine))
            renders.add(canonical(simulate(run, "tpi")))
        assert len(renders) == 1

    def test_repeated_runs_render_identically(self):
        run = prepare(build_workload("ocean", size="small"), machine("fast"))
        first = canonical(simulate(run, "hw"))
        for _ in range(2):
            assert canonical(simulate(run, "hw")) == first

    def test_jobs_1_vs_jobs_n_render_identically(self):
        program = build_workload("ocean", size="small")
        schemes = ("base", "tpi", "hw")
        serial = simulate_all(program, schemes, machine(), jobs=1)
        job_list = jobs_for_schemes(program, schemes, machine())
        parallel = ParallelExecutor(jobs=2).run(job_list)
        for job, result in zip(job_list, parallel):
            assert canonical(result) == canonical(serial[job.scheme])

    def test_provenance_field_not_rendered(self):
        run = prepare(build_workload("ocean", size="small"), machine("fast"))
        result = simulate(run, "base")
        assert result.engine == "fast"
        assert "engine" not in result.to_dict()
