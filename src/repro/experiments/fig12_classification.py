"""Miss decomposition — necessary vs unnecessary misses (TPI vs HW).

The paper's key fairness argument: both schemes suffer *unnecessary*
misses of comparable magnitude — the directory from false sharing on
multi-word lines, TPI from conservative compile-time marking.  This
experiment decomposes every read miss of both schemes into
cold/replacement/reset (capacity-like), true-sharing (necessary), and
unnecessary (false-sharing or compiler-conservative).
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import MachineConfig
from repro.common.stats import MissKind
from repro.experiments.common import Bench, ExperimentResult


def run(machine: Optional[MachineConfig] = None,
        size: str = "paper") -> ExperimentResult:
    bench = Bench(machine, size, schemes=("tpi", "hw"))
    result = ExperimentResult(
        experiment="fig12_classification",
        title="read misses per 1000 reads, by cause",
        headers=["workload", "scheme", "cold+repl", "reset", "true sharing",
                 "unnecessary", "unnecessary kind"],
    )
    for name in bench.names:
        for scheme in ("tpi", "hw"):
            r = bench.result(name, scheme)
            per_k = 1000.0 / max(1, r.reads)
            capacity = (r.kind_count(MissKind.COLD)
                        + r.kind_count(MissKind.REPLACEMENT))
            unnecessary_kind = ("conservative" if scheme == "tpi"
                                else "false sharing")
            result.rows.append([
                name, scheme.upper(),
                capacity * per_k,
                r.kind_count(MissKind.RESET) * per_k,
                r.kind_count(MissKind.TRUE_SHARING) * per_k,
                r.unnecessary_misses * per_k,
                unnecessary_kind,
            ])
    result.notes = ("shape: TPI's unnecessary misses come only from "
                    "compiler conservatism, HW's only from false sharing; "
                    "their magnitudes are comparable (same order).")
    return result
