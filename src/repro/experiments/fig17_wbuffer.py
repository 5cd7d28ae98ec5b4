"""Write-buffer organization ablation (the paper's TRFD fix).

The paper observes TRFD's redundant writes inflate TPI's network traffic
and notes that organizing the write buffer as a cache (Alpha 21164 style)
"can effectively eliminate" it.  This experiment measures write traffic
per access under the plain FIFO buffer vs the coalescing buffer, and the
fraction of writes merged.
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import MachineConfig, WriteBufferKind, default_machine
from repro.common.stats import TrafficClass
from repro.experiments.common import Bench, ExperimentResult


def run(machine: Optional[MachineConfig] = None,
        size: str = "paper") -> ExperimentResult:
    base = machine or default_machine()
    # The write-buffer organization is back-end-only: both variants gang
    # over one shared trace per workload.
    fifo_m = base.with_(write_buffer=WriteBufferKind.FIFO)
    coal_m = base.with_(write_buffer=WriteBufferKind.COALESCING)
    bench = Bench(base, size, schemes=("tpi",), machines=[fifo_m, coal_m])
    result = ExperimentResult(
        experiment="fig17_wbuffer",
        title="TPI write traffic: FIFO vs coalescing write buffer",
        headers=["workload", "FIFO words/access", "coalescing words/access",
                 "reduction %", "writes merged %"],
    )
    for name in bench.names:
        f = bench.result(name, "tpi", fifo_m)
        c = bench.result(name, "tpi", coal_m)
        accesses = max(1, f.reads + f.writes)
        f_words = f.traffic.get(TrafficClass.WRITE, 0) / accesses
        c_words = c.traffic.get(TrafficClass.WRITE, 0) / accesses
        merged = c.extra.get("merged_writes", 0)
        total = max(1, c.extra.get("buffered_writes", 1))
        result.rows.append([
            name, f_words, c_words,
            100.0 * (1.0 - c_words / f_words) if f_words else 0.0,
            100.0 * merged / total,
        ])
    result.notes = ("shape: the coalescing buffer removes most write "
                    "traffic on TRFD (the accumulation chains) and a "
                    "smaller share elsewhere.")
    return result
