"""Update-based directory extension (the paper's remark on [10]).

Compares the invalidation directory (HW), the write-update directory, and
the update directory with the coalescing write buffer — the configuration
the paper alludes to when noting the write-cache technique "can also be
employed to remove redundant write traffic for update-based coherence
protocols".
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import MachineConfig, WriteBufferKind, default_machine
from repro.common.stats import TrafficClass
from repro.experiments.common import Bench, ExperimentResult


def run(machine: Optional[MachineConfig] = None,
        size: str = "paper") -> ExperimentResult:
    base = machine or default_machine()
    plain = Bench(base, size, schemes=("hw", "update"))
    coal = Bench(base.with_(write_buffer=WriteBufferKind.COALESCING), size,
                 schemes=("update",))
    result = ExperimentResult(
        experiment="fig20_update",
        title="invalidate vs update directory: miss rate (%) and write+update words/access",
        headers=["workload", "HW miss", "UPD miss", "HW wr+coh", "UPD wr",
                 "UPD+coalesce wr", "updates merged %"],
    )
    for name in plain.names:
        hw = plain.result(name, "hw")
        upd = plain.result(name, "update")
        updc = coal.result(name, "update")
        accesses = max(1, hw.reads + hw.writes)
        hw_wr = (hw.traffic.get(TrafficClass.WRITE, 0)
                 + hw.traffic.get(TrafficClass.COHERENCE, 0)) / accesses
        upd_wr = upd.traffic.get(TrafficClass.WRITE, 0) / accesses
        updc_wr = updc.traffic.get(TrafficClass.WRITE, 0) / accesses
        merged = updc.extra.get("merged_writes", 0)
        total = max(1, updc.extra.get("buffered_writes", 1))
        result.rows.append([
            name, 100.0 * hw.miss_rate, 100.0 * upd.miss_rate,
            hw_wr, upd_wr, updc_wr, 100.0 * merged / total,
        ])
    result.notes = ("shape: the update directory eliminates sharing misses "
                    "entirely (miss rate <= HW's) at the cost of much more "
                    "write/update traffic; the coalescing buffer recovers "
                    "traffic where writes are redundant (most on TRFD) but "
                    "can lose slightly where they are not, because drained "
                    "updates broadcast to the larger end-of-epoch sharer "
                    "sets.")
    return result
