"""Execution model: turning a marked program into per-processor event streams."""

from repro.trace.columnar import ColumnarTrace, TaskColumns
from repro.trace.layout import MemoryLayout
from repro.trace.schedule import MigrationSpec, schedule_iterations
from repro.trace.generate import generate_columnar
from repro.trace.vectorize import expand_epoch, extract_template

__all__ = [
    "ColumnarTrace",
    "MemoryLayout",
    "MigrationSpec",
    "TaskColumns",
    "expand_epoch",
    "extract_template",
    "generate_columnar",
    "schedule_iterations",
]
