"""Per-epoch timeline — network-load feedback made visible.

Records per-epoch profiles (``MachineConfig.record_epochs``) for one
workload and shows the simulation's feedback loop in action: the offered
network load builds up from the cold-start epochs, miss rates drop as the
caches warm, and the alternating parallel phases leave their signature in
the per-epoch traffic.
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import MachineConfig, default_machine
from repro.experiments.common import Bench, ExperimentResult

WORKLOAD = "ocean"
MAX_ROWS = 18


def run(machine: Optional[MachineConfig] = None,
        size: str = "paper") -> ExperimentResult:
    base = (machine or default_machine()).with_(record_epochs=True)
    bench = Bench(base, size, workloads=[WORKLOAD], schemes=("tpi", "hw"))
    tpi = bench.result(WORKLOAD, "tpi")
    hw = bench.result(WORKLOAD, "hw")

    result = ExperimentResult(
        experiment="fig24_timeline",
        title=f"per-epoch profile of {WORKLOAD}: miss rate and network load",
        headers=["epoch", "label", "TPI miss %", "TPI rho", "HW miss %",
                 "HW rho", "TPI cycles"],
    )
    records = list(zip(tpi.epoch_records, hw.epoch_records))
    step = max(1, len(records) // MAX_ROWS)
    for t_rec, h_rec in records[::step]:
        result.rows.append([
            t_rec.index,
            t_rec.label[:14],
            100.0 * t_rec.miss_rate,
            t_rec.network_load,
            100.0 * h_rec.miss_rate,
            h_rec.network_load,
            t_rec.cycles,
        ])
    result.notes = ("shape: each phase settles to a steady-state miss "
                    "rate after its first instances (cold phases like the "
                    "leapfrog drop to ~0); the network load estimate "
                    "tracks the phase structure — the execution-driven "
                    "feedback loop, observable.")
    return result
