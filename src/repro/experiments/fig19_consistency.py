"""Consistency-model ablation (the paper's footnote 11).

"This problem would be much more significant in a sequential consistency
model since both reads and writes are affected."  Under sequential
consistency, every write stalls until globally performed: the write-through
compiler-directed schemes pay a memory round trip per shared write, and
the directory pays ownership acquisition on the critical path.  This
experiment measures the slowdown of switching WEAK -> SEQUENTIAL per
scheme — quantifying how much the weak model the paper assumes is doing
for each design.
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import ConsistencyModel, MachineConfig, default_machine
from repro.experiments.common import Bench, ExperimentResult

SCHEMES = ("sc", "tpi", "hw")


def run(machine: Optional[MachineConfig] = None,
        size: str = "paper") -> ExperimentResult:
    base = machine or default_machine()
    weak = base.with_(consistency=ConsistencyModel.WEAK)
    seq = base.with_(consistency=ConsistencyModel.SEQUENTIAL)
    bench = Bench(base, size, schemes=SCHEMES, machines=[weak, seq])
    result = ExperimentResult(
        experiment="fig19_consistency",
        title="slowdown of sequential over weak consistency, per scheme",
        headers=["workload", *(f"{s.upper()} seq/weak" for s in SCHEMES)],
    )
    for name in bench.names:
        row = [name]
        for scheme in SCHEMES:
            w = bench.result(name, scheme, weak).exec_cycles
            s = bench.result(name, scheme, seq).exec_cycles
            row.append(s / w)
        result.rows.append(row)
    result.notes = ("shape: the write-through schemes (SC, TPI) suffer far "
                    "more than the write-back directory — every shared "
                    "write becomes a memory round trip; HW only stalls on "
                    "ownership changes.")
    return result
