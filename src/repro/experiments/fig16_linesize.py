"""Line-size sweep — miss rates and the false-sharing effect.

Larger lines help both schemes through spatial locality until line-grained
coherence bites: the directory's false-sharing misses grow with the line
size, while TPI's per-word timetags are immune to false sharing (its
unnecessary misses stay compiler-induced and line-size-independent).
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import CacheConfig, MachineConfig, default_machine
from repro.common.stats import MissKind
from repro.experiments.common import Bench, ExperimentResult

LINE_WORDS = (1, 4, 8, 16)


def run(machine: Optional[MachineConfig] = None,
        size: str = "paper") -> ExperimentResult:
    base = machine or default_machine()
    result = ExperimentResult(
        experiment="fig16_linesize",
        title="miss rate (%) vs line size; HW false-sharing misses per 1000 reads",
        headers=["workload", "scheme",
                 *(f"{w * 4}B" for w in LINE_WORDS),
                 "false/1k @4B", "false/1k @64B"],
    )
    # Line size is back-end-only (traces use the fixed 4-word layout
    # alignment), so all four geometries gang over one trace per workload.
    machines = {w: base.with_(cache=CacheConfig(
        size_bytes=base.cache.size_bytes, line_words=w,
        associativity=base.cache.associativity)) for w in LINE_WORDS}
    bench = Bench(base, size, schemes=("tpi", "hw"),
                  machines=machines.values())
    for name in bench.names:
        for scheme in ("tpi", "hw"):
            row = [name, scheme.upper()]
            for w in LINE_WORDS:
                row.append(100.0 * bench.result(
                    name, scheme, machines[w]).miss_rate)
            for w in (1, 16):
                r = bench.result(name, scheme, machines[w])
                row.append(1000.0 * r.kind_count(MissKind.FALSE_SHARING)
                           / max(1, r.reads))
            result.rows.append(row)
    result.notes = ("shape: false sharing is zero at 1-word lines and grows "
                    "with line size for HW only; TPI has none at any size.")
    return result
