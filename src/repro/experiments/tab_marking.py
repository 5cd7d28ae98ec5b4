"""Compiler marking statistics per benchmark (the compiler-side table).

Reports, per workload, the fraction of read sites marked Time-Read under
the three interprocedural modes — quantifying what the paper's
interprocedural analysis buys over procedure-boundary invalidation — plus
the *dynamic* picture from simulation: what fraction of executed reads
were Time-Reads, and how often the timetag hardware satisfied them from
the cache anyway (the runtime locality the static marking cannot see).
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import MachineConfig
from repro.compiler.report import marking_report
from repro.experiments.common import Bench, ExperimentResult


def run(machine: Optional[MachineConfig] = None,
        size: str = "paper") -> ExperimentResult:
    bench = Bench(machine, size, schemes=("tpi",))
    result = ExperimentResult(
        experiment="tab_marking",
        title="Time-Read marking: static fractions by analysis mode, dynamic hit rate",
        headers=["workload", "read sites", "inline %", "summary %", "none %",
                 "dyn TR %", "TR hit %"],
    )
    for name in bench.names:
        report = marking_report(bench.program(name))
        inline = report["inline"]
        sim = bench.result(name, "tpi")
        time_reads = sim.extra.get("time_reads", 0)
        hits = sim.extra.get("time_read_hits", 0)
        result.rows.append([
            name,
            inline.read_sites,
            100.0 * inline.time_read_fraction_tpi,
            100.0 * report["summary"].time_read_fraction_tpi,
            100.0 * report["none"].time_read_fraction_tpi,
            100.0 * time_reads / max(1, sim.reads),
            100.0 * hits / max(1, time_reads),
        ])
    result.notes = ("shape: inline <= summary <= none (static); dynamically "
                    "the timetag hardware satisfies a large share of "
                    "Time-Reads from the cache — the locality that the "
                    "bypass scheme SC throws away.")
    return result
