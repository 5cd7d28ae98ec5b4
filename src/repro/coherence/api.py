"""Common interface of the coherence schemes.

A scheme is driven by the simulation engine one memory event at a time and
returns, per access, the processor-visible latency, the classified miss
kind, and the network traffic injected (words, by traffic class).  Schemes
own their caches, write buffers, and (for directories) global protocol
state; they share the :class:`SimContext` (shadow memory + network + the
compiler marking).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.common.config import MachineConfig
from repro.common.errors import ConfigError, SimulationError
from repro.common.stats import MissKind
from repro.compiler.marking import Marking
from repro.memsys.cache import Cache, CacheBank
from repro.memsys.memory import ShadowMemory
from repro.memsys.network import KruskalSnirNetwork
from repro.trace.layout import MemoryLayout


@dataclass(slots=True)
class AccessResult:
    """Outcome of one memory access as seen by the engine."""

    latency: int
    kind: MissKind
    read_words: int = 0
    write_words: int = 0
    coherence_words: int = 0
    version: int = 0  # version of the data the access observed (reads)

    @property
    def total_words(self) -> int:
        return self.read_words + self.write_words + self.coherence_words


@dataclass
class SimContext:
    """Shared state for one simulation run.  ``procs``: the processors
    the trace runs tasks on (sorted), or None for every processor."""

    machine: MachineConfig
    marking: Marking
    shadow: ShadowMemory
    network: KruskalSnirNetwork
    layout: Optional[MemoryLayout] = None
    procs: Optional[Sequence[int]] = None
    stats: Dict[str, int] = field(default_factory=dict)

    def bump(self, name: str, amount: int = 1) -> None:
        self.stats[name] = self.stats.get(name, 0) + amount


class CoherenceScheme(abc.ABC):
    """One coherence protocol under simulation."""

    name: str = "abstract"

    #: Timetag-reset counters (non-zero only for TPI; part of the shared
    #: metrics contract so the engine never needs ``hasattr`` probing).
    resets: int = 0
    reset_invalidations: int = 0

    #: :class:`MachineConfig` fields this scheme provably never reads.
    #: Declaring a field here lets :meth:`repro.runtime.jobs.Job.fingerprint`
    #: drop it, so sweep cells differing only in a scheme-dead knob name
    #: the *same* result and the executor computes it once (e.g. the
    #: hardware directory is invariant to TPI's timetag width, collapsing
    #: the hw column of a fig15-style sweep to a single simulation).
    #: Opt-in and conservative: the default is "everything matters";
    #: tests/test_gang.py differentially pins each declaration.
    config_dead_fields: Tuple[str, ...] = ()

    def __init__(self, ctx: SimContext):
        self.ctx = ctx
        self.machine = machine = ctx.machine
        self.network = ctx.network
        self.shadow = ctx.shadow
        # The processors holding state are the trace's, fixed here: every
        # per-processor container is a dict over ``caches``' keys.
        self.bank = CacheBank(machine.cache, machine.n_procs, ctx.procs)
        self.caches: Dict[int, Cache] = self.bank.caches

    # -- epoch lifecycle ----------------------------------------------------

    def begin_epoch(self, index: int, parallel: bool) -> Dict[int, int]:
        """Start an epoch; returns per-processor extra stall cycles
        (e.g. TPI's two-phase reset)."""
        return {}

    def end_epoch(self, write_key: Optional[int] = None) -> Dict[int, int]:
        """Finish an epoch (sync point).  Drains write buffers and applies
        the compiler-emitted per-array last-write-epoch updates for the
        static epoch identified by ``write_key``; returns per-processor
        words injected into the network at the barrier."""
        return {}

    # -- accesses -----------------------------------------------------------

    @abc.abstractmethod
    def read(self, proc: int, addr: int, site: int, shared: bool,
             in_critical: bool) -> AccessResult:
        ...

    @abc.abstractmethod
    def write(self, proc: int, addr: int, site: int, shared: bool,
              in_critical: bool) -> AccessResult:
        ...

    def release_fence(self, proc: int) -> AccessResult:
        """Make this processor's writes globally visible (lock release)."""
        return AccessResult(latency=0, kind=MissKind.HIT)

    # -- metrics ------------------------------------------------------------

    def extras(self) -> Dict[str, int]:
        """Scheme-specific counters merged into ``SimResult.extra``.

        Every engine collects scheme metrics through this one method (plus
        the ``resets``/``reset_invalidations`` attributes above), so adding
        a counter to a scheme is a one-place change.
        """
        return {}

    # -- shared helpers -----------------------------------------------------

    def _check_read_version(self, addr: int, version: int,
                            exact: bool = False) -> None:
        """Coherence-safety oracle (enabled by ``machine.check_coherence``).

        Weak consistency requires a read to observe at least the version
        globally visible at the last barrier; an MSI directory must observe
        exactly the current version.
        """
        if not self.machine.check_coherence:
            return
        if exact:
            current = self.shadow.read_version(addr)
            if version != current:
                raise SimulationError(
                    f"{self.name}: read of word {addr} observed version "
                    f"{version}, expected exactly {current}")
        else:
            floor = self.shadow.visible_floor(addr)
            if version < floor:
                raise SimulationError(
                    f"{self.name}: stale read of word {addr}: observed "
                    f"version {version} < visible floor {floor}")


def scheme_registry() -> Dict[str, type]:
    """Name -> scheme class for every registered protocol."""
    from repro.coherence.base import BaseScheme
    from repro.coherence.directory import FullMapDirectoryScheme
    from repro.coherence.limitless import LimitLessScheme
    from repro.coherence.sc import SoftwareBypassScheme
    from repro.coherence.snoop import SnoopBusScheme
    from repro.coherence.tardis import TardisScheme
    from repro.coherence.tpi import TpiScheme
    from repro.coherence.update import UpdateDirectoryScheme

    return {
        "base": BaseScheme,
        "sc": SoftwareBypassScheme,
        "tpi": TpiScheme,
        "hw": FullMapDirectoryScheme,
        "limitless": LimitLessScheme,
        "update": UpdateDirectoryScheme,
        "tardis": TardisScheme,
        "snoop": SnoopBusScheme,
    }


def make_scheme(name: str, ctx: SimContext) -> CoherenceScheme:
    """Instantiate a scheme by its registry name (see SCHEME_NAMES)."""
    registry = scheme_registry()
    if name not in registry:
        raise ConfigError(f"unknown scheme {name!r}; choose from {sorted(registry)}")
    return registry[name](ctx)


def dead_config_fields(name: str) -> Tuple[str, ...]:
    """:class:`MachineConfig` fields the named scheme never reads.

    The runtime fingerprint prunes these before hashing, so two jobs
    differing only in a dead field share one cached/computed result.
    """
    registry = scheme_registry()
    if name not in registry:
        raise ConfigError(f"unknown scheme {name!r}; choose from {sorted(registry)}")
    return registry[name].config_dead_fields
