"""Shared infrastructure for the per-figure experiment harnesses.

Every experiment module exposes ``run(machine=None, size="paper") ->
ExperimentResult``; the result carries the table the paper's corresponding
figure reports (same rows/series), plus free-form notes recording the
shape claims being reproduced.  ``size="small"`` shrinks the workloads for
fast tests; ``"paper"`` uses the evaluation sizes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import MachineConfig, default_machine
from repro.compiler.marking import MarkingOptions
from repro.ir.program import Program
from repro.runtime.jobs import program_digest
from repro.sim.metrics import SimResult
from repro.trace.schedule import MigrationSpec
from repro.workloads import build_workload, workload_names

DEFAULT_SCHEMES = ("base", "sc", "tpi", "hw")


@dataclass
class ExperimentResult:
    """One reproduced table/figure."""

    experiment: str
    title: str
    headers: List[str]
    rows: List[List] = field(default_factory=list)
    notes: str = ""

    def render(self) -> str:
        widths = [len(str(h)) for h in self.headers]
        formatted_rows = []
        for row in self.rows:
            cells = [self._cell(value) for value in row]
            widths = [max(w, len(c)) for w, c in zip(widths, cells)]
            formatted_rows.append(cells)
        def line(cells):
            return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
        out = [f"== {self.experiment}: {self.title}",
               line([str(h) for h in self.headers]),
               line(["-" * w for w in widths])]
        out.extend(line(cells) for cells in formatted_rows)
        if self.notes:
            out.append(self.notes.rstrip())
        return "\n".join(out)

    @staticmethod
    def _cell(value) -> str:
        if isinstance(value, float):
            return f"{value:.3f}" if abs(value) < 100 else f"{value:.1f}"
        return str(value)

    def to_dict(self) -> Dict:
        return {"experiment": self.experiment, "title": self.title,
                "headers": list(self.headers),
                "rows": [list(row) for row in self.rows],
                "notes": self.notes}

    @staticmethod
    def from_dict(data: Dict) -> "ExperimentResult":
        return ExperimentResult(experiment=data["experiment"],
                                title=data["title"],
                                headers=list(data["headers"]),
                                rows=[list(row) for row in data["rows"]],
                                notes=data.get("notes", ""))

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)

    @staticmethod
    def load(path: str) -> "ExperimentResult":
        with open(path) as handle:
            return ExperimentResult.from_dict(json.load(handle))

    def render_bars(self, value_header: str, width: int = 46) -> str:
        """Horizontal ASCII bar chart of one numeric column.

        Rows are labelled by their leading non-numeric cells; bars scale to
        the column maximum.  Handy for eyeballing a figure in a terminal::

            print(result.render_bars("TPI"))
        """
        index = self.headers.index(value_header)
        labels = []
        values = []
        for row in self.rows:
            label = " ".join(str(cell) for cell in row[:index]
                             if not isinstance(cell, float))
            value = row[index]
            if not isinstance(value, (int, float)):
                raise ValueError(f"column {value_header!r} is not numeric")
            labels.append(label)
            values.append(float(value))
        peak = max((abs(v) for v in values), default=0.0) or 1.0
        label_w = max((len(l) for l in labels), default=0)
        out = [f"== {self.experiment}: {value_header}"]
        for label, value in zip(labels, values):
            bar = "#" * max(0, round(width * abs(value) / peak))
            out.append(f"{label.rjust(label_w)} |{bar} {self._cell(value)}")
        return "\n".join(out)

    def column(self, header: str) -> List:
        index = self.headers.index(header)
        return [row[index] for row in self.rows]

    def cell(self, row_key, header: str):
        """Value at (first column == row_key, header)."""
        index = self.headers.index(header)
        for row in self.rows:
            if row[0] == row_key:
                return row[index]
        raise KeyError(f"no row {row_key!r} in experiment {self.experiment}")


class Bench:
    """One experiment's simulation grid: workloads x schemes x machines.

    The grid is declared up front.  The first :meth:`result` request
    submits every cell in one batch to the active
    :func:`repro.runtime.session`'s executor, or to a serial
    :class:`~repro.runtime.ParallelExecutor` with no cache when no session
    is active, so ``--jobs``, the artifact cache and ``--report`` see
    every experiment.  The executor groups the cells by front end: all
    machines and schemes of one workload share one compile and trace
    (gang-primed when the machines differ in cache geometry), and no
    front end is kept between batches.  A request outside the grid is
    fetched in a batch of its own.

    ``machines`` are the machine variants of the grid (``[machine]`` when
    empty); ``machine`` is what :meth:`result` uses when given none.
    ``builds`` maps a workload to the :func:`build_workload` keywords
    that replace the size preset; ``opts`` and ``migration`` set the
    marking options and task migration of every front end.
    """

    def __init__(self, machine: Optional[MachineConfig] = None,
                 size: str = "paper", workloads: Optional[Sequence[str]] = None,
                 schemes: Sequence[str] = DEFAULT_SCHEMES,
                 machines: Sequence[MachineConfig] = (),
                 builds: Optional[Dict[str, dict]] = None,
                 opts: Optional[MarkingOptions] = None,
                 migration: Optional[MigrationSpec] = None):
        self.machine = machine or default_machine()
        self.size = "small" if size == "small" else "default"
        self.names = list(workloads) if workloads else workload_names()
        self.schemes = tuple(schemes)
        self.machines = list(machines) or [self.machine]
        self.builds = builds or {}
        self.opts = opts
        self.migration = migration
        self._programs: Dict[str, Tuple[Program, str]] = {}
        # Keyed by machine value (MachineConfig is frozen): an id() key
        # would let a dropped temporary's result answer for a new one.
        self._results: Dict[Tuple[str, str, MachineConfig], SimResult] = {}

    def program(self, name: str) -> Program:
        return self._build(name)[0]

    def _build(self, name: str) -> Tuple[Program, str]:
        if name not in self._programs:
            program = build_workload(
                name, **self.builds.get(name, {"size": self.size}))
            self._programs[name] = (program, program_digest(program))
        return self._programs[name]

    def result(self, name: str, scheme: str,
               machine: Optional[MachineConfig] = None) -> SimResult:
        key = (name, scheme, machine or self.machine)
        if key not in self._results:
            self._fetch(key)
        return self._results[key]

    def _fetch(self, wanted: Tuple[str, str, MachineConfig]) -> None:
        """Run every grid cell not yet known, plus ``wanted``, in one batch."""
        from repro.runtime import Job, ParallelExecutor, current_session

        cells = [(n, s, m) for n in self.names for m in self.machines
                 for s in self.schemes if (n, s, m) not in self._results]
        if wanted not in cells:
            cells.append(wanted)
        jobs = []
        for name, scheme, machine in cells:
            program, digest = self._build(name)
            jobs.append(Job(program=program, scheme=scheme, machine=machine,
                            opts=self.opts, migration=self.migration,
                            _digest=digest))
        session = current_session()
        executor = (session.executor if session is not None
                    else ParallelExecutor())
        for cell, result in zip(cells, executor.run(jobs)):
            self._results[cell] = result
