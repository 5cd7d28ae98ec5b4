"""Memory-event stream structures.

A :class:`Trace` is a sequence of dynamic epochs; each epoch holds one
:class:`Task` per participating processor; each task is an ordered list of
:class:`MemEvent`.  Epoch boundaries are implicit barriers (the DOALL model):
the simulator synchronizes all processors and increments the TPI epoch
counters between epochs.

Events carry the *site* id of the originating source reference; coherence
schemes that honour compiler marking look the site up in the
:class:`repro.compiler.Marking` maps to decide whether a READ is an ordinary
read or a Time-Read / bypassing read.  This keeps one generated trace
reusable across all schemes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.layout import MemoryLayout


class EventKind(enum.Enum):
    READ = "read"
    WRITE = "write"
    LOCK = "lock"
    UNLOCK = "unlock"


@dataclass(slots=True)
class MemEvent:
    """One dynamic memory operation (word-addressed)."""

    kind: EventKind
    addr: int
    site: int
    work: int = 0  # compute cycles charged before this operation issues
    shared: bool = True
    in_critical: bool = False
    lock: int = -1  # lock id for LOCK/UNLOCK events


@dataclass(slots=True)
class Task:
    """The event stream one processor executes within one epoch."""

    proc: int
    events: List[MemEvent] = field(default_factory=list)
    extra_work: int = 0  # trailing compute cycles not attached to any event


@dataclass(slots=True)
class TraceEpoch:
    """One dynamic epoch: a barrier-delimited set of per-processor tasks.

    ``write_key`` identifies the originating static epoch (by its first
    node's identity); the TPI runtime uses it to apply the compiler-emitted
    per-array last-write-epoch (W-register) updates at the epoch's end.
    """

    index: int
    parallel: bool
    tasks: List[Task] = field(default_factory=list)
    label: str = ""
    n_tasks_scheduled: int = 0  # dispatch count (> len(tasks) under self-sched)
    write_key: Optional[int] = None

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for slot in self.__slots__:
            object.__setattr__(self, slot, state.get(slot))

    @property
    def n_events(self) -> int:
        return sum(len(t.events) for t in self.tasks)

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)


@dataclass
class Trace:
    """A complete program execution as dynamic epochs."""

    program_name: str
    n_procs: int
    epochs: List[TraceEpoch] = field(default_factory=list)
    layout: Optional["MemoryLayout"] = None  # set by the generator

    @property
    def n_events(self) -> int:
        return sum(e.n_events for e in self.epochs)

    @property
    def n_epochs(self) -> int:
        return len(self.epochs)

    @property
    def procs(self) -> List[int]:
        """The processors any task runs on, sorted."""
        return sorted({t.proc for e in self.epochs for t in e.tasks})

    def counts(self) -> Dict[str, int]:
        """Event-kind histogram (reads/writes/locks), for reporting."""
        counts: Dict[str, int] = {k.value: 0 for k in EventKind}
        for epoch in self.epochs:
            for task in epoch.tasks:
                for event in task.events:
                    counts[event.kind.value] += 1
        return counts
