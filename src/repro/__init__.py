"""repro — reproduction of Choi & Yew (ISCA 1996): compiler and hardware
support for cache coherence in large-scale multiprocessors.

The package implements the Two-Phase Invalidation (TPI) hardware-supported
compiler-directed coherence scheme end to end: a parallel-program IR, the
Polaris-style compiler analyses (epochs, regular sections, dependence
tests, interprocedural MOD/USE, Time-Read marking), an execution-driven
multiprocessor simulator with four coherence schemes (BASE, SC, TPI,
full-map directory, plus LimitLess), six Perfect-Club-like workloads, and
a harness reproducing every table and figure of the paper's evaluation.

Quick start::

    from repro import build_workload, default_machine, prepare, simulate_all

    run = prepare(build_workload("ocean"), default_machine())
    for scheme, result in simulate_all(run).items():
        print(result.summary())
"""

from repro.common.config import (
    CacheConfig,
    DirectoryConfig,
    MachineConfig,
    NetworkConfig,
    SchedulePolicy,
    TpiConfig,
    WriteBufferKind,
    default_machine,
)
from repro.common.errors import ReproError
from repro.common.stats import MissKind, TrafficClass
from repro.compiler import InterprocMode, Marking, MarkingOptions, RefMark, mark_program
from repro.experiments import experiment_ids, run_all, run_experiment
from repro.ir import ProgramBuilder
from repro.runtime import (
    ArtifactCache,
    Job,
    ParallelExecutor,
    Telemetry,
    execute_jobs,
)
from repro.sim import PreparedRun, SimResult, prepare, simulate, simulate_all
from repro.trace import ColumnarTrace, MigrationSpec, generate_columnar
from repro.workloads import build_workload, workload_names

__version__ = "1.0.0"

__all__ = [
    "ArtifactCache",
    "CacheConfig",
    "ColumnarTrace",
    "DirectoryConfig",
    "InterprocMode",
    "Job",
    "MachineConfig",
    "Marking",
    "MarkingOptions",
    "MigrationSpec",
    "MissKind",
    "NetworkConfig",
    "ParallelExecutor",
    "PreparedRun",
    "ProgramBuilder",
    "RefMark",
    "ReproError",
    "SchedulePolicy",
    "SimResult",
    "Telemetry",
    "TpiConfig",
    "TrafficClass",
    "WriteBufferKind",
    "build_workload",
    "default_machine",
    "execute_jobs",
    "experiment_ids",
    "generate_columnar",
    "mark_program",
    "prepare",
    "run_all",
    "run_experiment",
    "simulate",
    "simulate_all",
    "workload_names",
]
