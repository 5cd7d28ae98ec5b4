"""The average-miss-latency table (verbatim numbers in the paper).

Paper values (cycles), 16-byte vs 64-byte lines:

    program   TPI 16B  TPI 64B   HW 16B   HW 64B
    SPEC77     136.2    356.3    136.4    355.5
    OCEAN      136.2    354.3    136.4    353.6
    FLO52      136.2    355.1    136.6    361.2
    QCD2       136.0    354.7    145.5    405.4
    TRFD       136.0    352.4    149.1    418.6

Shapes to reproduce: (a) TPI's latency is essentially workload-independent
(its misses are plain memory fetches); (b) HW matches TPI on
SPEC77/OCEAN/FLO52 but is visibly higher on QCD2 and TRFD, where directory
transactions (dirty-owner forwarding, invalidation storms) sit on the
miss path; (c) quadrupling the line size roughly multiplies latency by
~2.6 via the longer transfer and the heavier network load.
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import CacheConfig, MachineConfig, default_machine
from repro.experiments.common import Bench, ExperimentResult

PAPER_VALUES = {
    ("spec77", "tpi", 4): 136.2, ("spec77", "tpi", 16): 356.3,
    ("spec77", "hw", 4): 136.4, ("spec77", "hw", 16): 355.5,
    ("ocean", "tpi", 4): 136.2, ("ocean", "tpi", 16): 354.3,
    ("ocean", "hw", 4): 136.4, ("ocean", "hw", 16): 353.6,
    ("flo52", "tpi", 4): 136.2, ("flo52", "tpi", 16): 355.1,
    ("flo52", "hw", 4): 136.6, ("flo52", "hw", 16): 361.2,
    ("qcd2", "tpi", 4): 136.0, ("qcd2", "tpi", 16): 354.7,
    ("qcd2", "hw", 4): 145.5, ("qcd2", "hw", 16): 405.4,
    ("trfd", "tpi", 4): 136.0, ("trfd", "tpi", 16): 352.4,
    ("trfd", "hw", 4): 149.1, ("trfd", "hw", 16): 418.6,
}


def run(machine: Optional[MachineConfig] = None,
        size: str = "paper") -> ExperimentResult:
    base = machine or default_machine()
    result = ExperimentResult(
        experiment="tab_latency",
        title="average miss latency (cycles), 16-byte vs 64-byte lines",
        headers=["workload", "TPI 16B", "TPI 64B", "HW 16B", "HW 64B",
                 "paper TPI 16B", "paper HW 64B"],
    )
    machines = {line_words: base.with_(cache=CacheConfig(
        size_bytes=base.cache.size_bytes, line_words=line_words,
        associativity=base.cache.associativity)) for line_words in (4, 16)}
    bench = Bench(base, size, schemes=("tpi", "hw"),
                  machines=machines.values())
    for name in bench.names:
        row = [name]
        for scheme in ("tpi", "hw"):
            for line_words in (4, 16):
                r = bench.result(name, scheme, machines[line_words])
                row.append(r.avg_miss_latency)
        row.append(PAPER_VALUES.get((name, "tpi", 4), float("nan")))
        row.append(PAPER_VALUES.get((name, "hw", 16), float("nan")))
        result.rows.append(row)
    result.notes = ("shape: TPI ~flat across workloads; HW elevated "
                    "wherever directory transactions sit on the miss path "
                    "(the paper's hot spots are QCD2/TRFD; our synthetic "
                    "kernels concentrate contention on FLO52/OCEAN "
                    "instead); 64-byte lines cost a multiple of the "
                    "16-byte latency.  Paper reference columns included "
                    "where the text quotes them (arc2d stands in for the "
                    "unnamed sixth benchmark).")
    return result
