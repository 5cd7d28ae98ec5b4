"""Section 5 — task migration support.

When the runtime may migrate a task mid-execution, the compiler loses the
"serial epochs run on the master" guarantee and must mark more reads
(``MarkingOptions(assume_no_migration=False)``); same-iteration
dependences become cross-processor; intra-task validation downgrades are
off; and per-processor *private* storage becomes coherence-visible (a
migrated fragment addresses the original processor's copy remotely).  The
migrated half of a task also finds none of its warm state.  This
experiment injects deterministic migrations and measures the cost of the
safe marking plus the locality loss, TPI vs the directory (which handles
migration almost for free).
"""

from __future__ import annotations

from typing import Optional

from repro.common.config import MachineConfig, default_machine
from repro.compiler.marking import MarkingOptions, mark_program
from repro.experiments.common import Bench, ExperimentResult
from repro.trace.schedule import MigrationSpec


def run(machine: Optional[MachineConfig] = None,
        size: str = "paper") -> ExperimentResult:
    machine = machine or default_machine()
    result = ExperimentResult(
        experiment="fig18_migration",
        title="task migration: TPI slowdown vs HW slowdown (migrate every 7th task)",
        headers=["workload", "TPI no-mig cycles", "TPI mig cycles",
                 "TPI slowdown", "HW slowdown", "extra TR sites"],
    )
    safe = MarkingOptions(assume_no_migration=False)
    plain = Bench(machine, size, schemes=("tpi", "hw"))
    migrated = Bench(machine, size, schemes=("tpi", "hw"), opts=safe,
                     migration=MigrationSpec(every=7))
    for name in plain.names:
        program = plain.program(name)
        tpi_plain = plain.result(name, "tpi")
        tpi_mig = migrated.result(name, "tpi")
        hw_plain = plain.result(name, "hw")
        hw_mig = migrated.result(name, "hw")
        extra_sites = (
            mark_program(program, None, safe).stats["sites.time_read.tpi"]
            - mark_program(program).stats["sites.time_read.tpi"])
        result.rows.append([
            name,
            tpi_plain.exec_cycles,
            tpi_mig.exec_cycles,
            tpi_mig.exec_cycles / tpi_plain.exec_cycles,
            hw_mig.exec_cycles / hw_plain.exec_cycles,
            extra_sites,
        ])
    result.notes = ("shape: both schemes stay correct under migration (the "
                    "coherence oracle is active); TPI pays extra Time-Reads "
                    "from the lost same-processor guarantee, so its "
                    "slowdown is >= HW's.")
    return result
