"""Figure 11 — miss rates of each scheme on the six benchmarks.

The paper's figure shows, for a 64 KB direct-mapped cache, the read miss
rate of BASE, SC, TPI and the hardware directory on each benchmark; the
claim is that TPI's miss rates are comparable to the directory's while SC
and BASE are far worse.

The sweep axis here is the scheme, so the four cells per workload already
gang over one shared trace (the executor groups by front-end fingerprint
and runs each group as one unit).
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import MachineConfig
from repro.experiments.common import Bench, DEFAULT_SCHEMES, ExperimentResult


def run(machine: Optional[MachineConfig] = None,
        size: str = "paper") -> ExperimentResult:
    bench = Bench(machine, size)
    result = ExperimentResult(
        experiment="fig11_miss_rates",
        title="read miss rate (%) per scheme, 64 KB direct-mapped cache",
        headers=["workload", *(s.upper() for s in DEFAULT_SCHEMES)],
    )
    for name in bench.names:
        row = [name]
        for scheme in DEFAULT_SCHEMES:
            row.append(100.0 * bench.result(name, scheme).miss_rate)
        result.rows.append(row)
    result.notes = ("shape: BASE >> SC > TPI >= HW on every benchmark; "
                    "TPI within a small factor of the full-map directory.")
    return result
