"""Tag granularity ablation — per-word vs per-line timetags.

Figure 5 charges TPI ``8*L*C*P`` bits of SRAM because every *word* carries
a timetag; a per-*line* tag would cost ``8*C*P`` (4x less at 4-word
lines).  But a line tag can only soundly record the line's fill time — a
word write cannot raise it (the other words stay old) and strict
Time-Reads can never hit — so the cheap layout forfeits exactly the
intra-line and producer-consumer reuse the per-word design buys.  This
experiment measures that price, justifying the paper's choice.
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import MachineConfig, TpiConfig, default_machine
from repro.experiments.common import Bench, ExperimentResult
from repro.overhead.storage import tpi_overhead


def run(machine: Optional[MachineConfig] = None,
        size: str = "paper") -> ExperimentResult:
    base = machine or default_machine()
    line_tags = base.with_(tpi=TpiConfig(
        timetag_bits=base.tpi.timetag_bits,
        reset_policy=base.tpi.reset_policy,
        reset_stall_cycles=base.tpi.reset_stall_cycles,
        tag_per_word=False))
    bench = Bench(base, size, schemes=("tpi",), machines=[base, line_tags])
    result = ExperimentResult(
        experiment="fig25_taggranularity",
        title="TPI with per-word vs per-line timetags",
        headers=["workload", "per-word miss %", "per-line miss %",
                 "miss ratio", "per-word cycles", "per-line cycles",
                 "slowdown"],
    )
    for name in bench.names:
        w = bench.result(name, "tpi", base)
        l = bench.result(name, "tpi", line_tags)
        result.rows.append([
            name,
            100.0 * w.miss_rate,
            100.0 * l.miss_rate,
            l.miss_rate / max(w.miss_rate, 1e-9),
            w.exec_cycles,
            l.exec_cycles,
            l.exec_cycles / w.exec_cycles,
        ])
    sram_word = tpi_overhead(1024, 16 * 1024, 4).cache_sram_bits // (8 << 20)
    sram_line = tpi_overhead(1024, 16 * 1024, 1).cache_sram_bits // (8 << 20)
    result.notes = (f"shape: per-line tags cost {sram_line} MB SRAM vs "
                    f"{sram_word} MB per-word (P=1024), but raise the miss "
                    "rate on every benchmark (strict Time-Reads never hit; "
                    "producer-consumer and intra-line reuse are lost) — "
                    "the paper's 8*L*C*P layout earns its 4x tag storage.")
    return result
