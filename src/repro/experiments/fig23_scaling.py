"""Processor-count scaling — speedup curves per scheme.

All curves are normalized to one common baseline: **BASE at P = 1**, i.e.
the machine as shipped (no coherence support, shared data uncached, one
processor).  Self-relative speedups would mislead here — BASE's own P=1
time is pathologically slow (every shared access remote), and a
uniprocessor directory machine has no sharing misses at all — so the
common baseline is what answers the buyer's question: how much faster is
this machine with scheme X and P processors?

Claims: at every P the caching schemes dominate BASE; TPI's curve rises
with P (caching and parallelism compose); the directory's does too except
where tiny per-epoch work makes coherence and dispatch overheads dominate.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.config import MachineConfig, default_machine
from repro.experiments.common import Bench, ExperimentResult

PROCS = (1, 4, 16, 32)
SCHEMES = ("base", "tpi", "hw")

#: The extended processor axis: geometric sweep past the paper's 32-proc
#: ceiling up to 16384.  Per-proc state is sparse, so the cost of a point
#: grows with the *busy* processor count (bounded by the workload's DOALL
#: widths), not with P.
EXTENDED_PROCS = (1, 16, 64, 256, 1024, 4096, 16384)
EXTENDED_WORKLOAD = "trfd"


def _speedup_rows(result: ExperimentResult, bench: Bench,
                  machines: Dict[int, MachineConfig]) -> None:
    """One row per (workload, scheme): speedups over BASE at P = 1."""
    for name in bench.names:
        baseline = bench.result(name, "base", machines[1]).exec_cycles
        for scheme in SCHEMES:
            result.rows.append([name, scheme.upper(), *(
                baseline / bench.result(name, scheme, m).exec_cycles
                for m in machines.values())])


def run(machine: Optional[MachineConfig] = None,
        size: str = "paper") -> ExperimentResult:
    base = machine or default_machine()
    result = ExperimentResult(
        experiment="fig23_scaling",
        title="speedup over the no-coherence uniprocessor (BASE at P=1)",
        headers=["workload", "scheme", *(f"P={p}" for p in PROCS)],
    )
    machines = {p: base.with_(n_procs=p) for p in PROCS}
    bench = Bench(base, size, schemes=SCHEMES, machines=machines.values())
    _speedup_rows(result, bench, machines)
    result.notes = ("shape: TPI and HW dominate BASE at every P; TPI's "
                    "curve rises with P; coherence/dispatch overheads can "
                    "flatten HW's curve on tiny per-epoch workloads.")
    return result


def run_extended(machine: Optional[MachineConfig] = None,
                 size: str = "small") -> ExperimentResult:
    """The processor axis past the paper: 1 to 16384 processors.

    One small workload (the cheapest in the suite), fast engine only —
    the reference engine's parity with it is established separately up to
    the counts it can reach in reasonable time (``tests/test_scaling.py``,
    ``benchmarks/bench_scale.py``).  Speedups saturate once P exceeds the
    workload's widest DOALL: extra processors only add barrier idle.
    """
    base = machine or default_machine()
    preset = "small" if size in ("small", "paper") else size
    result = ExperimentResult(
        experiment="fig23_scaling_x",
        title=f"speedup over BASE at P=1 ({EXTENDED_WORKLOAD}, "
              f"{preset}) out to P=16384",
        headers=["workload", "scheme", *(f"P={p}" for p in EXTENDED_PROCS)],
    )
    machines = {p: base.with_(n_procs=p, engine="fast")
                for p in EXTENDED_PROCS}
    bench = Bench(base, workloads=[EXTENDED_WORKLOAD], schemes=SCHEMES,
                  machines=machines.values(),
                  builds={EXTENDED_WORKLOAD: {"size": preset}})
    _speedup_rows(result, bench, machines)
    result.notes = ("shape: curves saturate once P exceeds the widest "
                    "DOALL; the wide-machine points cost the same "
                    "simulation work as the saturation point because "
                    "per-proc state is sparse.")
    return result
