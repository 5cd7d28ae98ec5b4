"""One-call simulation facade.

``prepare`` runs the compiler (marking) and the trace generator once;
``simulate`` drives any scheme over the prepared artifacts, so comparing the
four schemes on one benchmark pays the front-end cost once::

    run = prepare(workload, machine, params={"N": 64})
    results = {name: simulate(run, name) for name in ("base", "sc", "tpi", "hw")}
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Union

from repro.common.config import MachineConfig, default_machine
from repro.compiler.marking import Marking, MarkingOptions, mark_program
from repro.ir.program import Program
from repro.sim.engine import make_engine
from repro.sim.metrics import SimResult
from repro.trace.columnar import ColumnarTrace
from repro.trace.events import Trace
from repro.trace.generate import generate_columnar
from repro.trace.schedule import MigrationSpec


@dataclass
class PreparedRun:
    """Compiler + trace-generator output, reusable across schemes.

    ``trace`` is columnar (:class:`~repro.trace.columnar.ColumnarTrace`)
    when built by :func:`prepare`; both engines accept either form.
    ``compile_s``/``trace_s`` record the front-end phase wall times and
    feed the runtime's phase telemetry.
    """

    program: Program
    machine: MachineConfig
    marking: Marking
    trace: Union[Trace, ColumnarTrace]
    compile_s: float = 0.0
    trace_s: float = 0.0


def prepare(program: Program, machine: Optional[MachineConfig] = None,
            params: Optional[Dict[str, int]] = None,
            opts: Optional[MarkingOptions] = None,
            migration: Optional[MigrationSpec] = None) -> PreparedRun:
    """Compile and trace a program for a machine configuration."""
    machine = machine or default_machine()
    started = time.perf_counter()
    marking = mark_program(program, params, opts)
    compiled = time.perf_counter()
    trace = generate_columnar(program, machine, params, migration)
    traced = time.perf_counter()
    return PreparedRun(program=program, machine=machine, marking=marking,
                       trace=trace, compile_s=compiled - started,
                       trace_s=traced - compiled)


def simulate(run: Union[Program, PreparedRun], scheme: str,
             machine: Optional[MachineConfig] = None,
             params: Optional[Dict[str, int]] = None,
             opts: Optional[MarkingOptions] = None,
             migration: Optional[MigrationSpec] = None) -> SimResult:
    """Simulate one scheme; accepts a Program or a PreparedRun.

    With a :class:`PreparedRun`, an explicit ``machine`` overrides the
    back end while reusing the prepared front end — valid because traces
    depend only on ``n_procs``/``schedule`` (the fingerprint split), so a
    cache/timetag/latency sweep can gang many machines over one prepare.
    """
    if isinstance(run, Program):
        run = prepare(run, machine, params, opts, migration)
    elif machine is not None and machine is not run.machine:
        if (machine.n_procs != run.machine.n_procs
                or machine.schedule != run.machine.schedule):
            from repro.common.errors import SimulationError

            raise SimulationError(
                "machine override changes front-end fields "
                "(n_procs/schedule); prepare() again instead")
        return make_engine(run.trace, run.marking, machine, scheme).run()
    return make_engine(run.trace, run.marking, run.machine, scheme).run()


def simulate_all(run: Union[Program, PreparedRun],
                 schemes: Iterable[str] = ("base", "sc", "tpi", "hw"),
                 machine: Optional[MachineConfig] = None,
                 params: Optional[Dict[str, int]] = None,
                 opts: Optional[MarkingOptions] = None,
                 jobs: Optional[int] = 1,
                 cache=None, telemetry=None) -> Dict[str, SimResult]:
    """Simulate several schemes over one prepared run.

    Execution goes through :class:`repro.runtime.ParallelExecutor`:
    ``jobs=N`` splits the schemes across worker processes (the front
    end is still built exactly once), a :class:`repro.runtime.ArtifactCache`
    makes repeat invocations near-free, and ``telemetry`` collects the
    run's counters.  The default ``jobs=1`` with no cache runs in-process.
    """
    from repro.runtime import ParallelExecutor, jobs_for_schemes

    schemes = tuple(schemes)
    if isinstance(run, Program):
        job_list = jobs_for_schemes(run, schemes, machine or default_machine(),
                                    params, opts)
        prepared = None
    else:
        job_list = jobs_for_schemes(run.program, schemes, run.machine,
                                    params, opts)
        # Hand the existing front end to the executor so it is never
        # rebuilt — and bypass the cache: a PreparedRun does not record the
        # options it was built with, so its provenance cannot be keyed.
        prepared = {job.prepare_fingerprint(): run for job in job_list[:1]}
        cache = None
    executor = ParallelExecutor(jobs=jobs, cache=cache, telemetry=telemetry)
    results = executor.run(job_list, prepared=prepared)
    return {job.scheme: result for job, result in zip(job_list, results)}
