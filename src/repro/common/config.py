"""Machine and simulation configuration.

The default values reproduce Figure 8 of the paper ("Cache and system
organization / Latency" table): a Cray T3D-like multiprocessor with 16
single-issue processors, a 64 KB direct-mapped lock-up free data cache per
node, 4-word (32-bit) cache lines, 1-cycle hits, a 100-cycle base miss
latency, an 8-bit timetag, a 128-cycle two-phase reset, and network delays
from the Kruskal-Snir analytic model for indirect multistage networks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

from repro.common.errors import ConfigError

WORD_BYTES = 4
"""All addresses in the simulator are 32-bit-word addresses."""

DEFAULT_MAX_PROCS = 65536
"""Upper bound on ``MachineConfig.n_procs`` (the scaling study tops out at
16384; the default cap leaves 4x headroom).  A typo like ``n_procs=10**9``
would otherwise OOM allocating private-array address space long after
configuration time; raise the cap explicitly with the ``REPRO_MAX_PROCS``
environment variable when a larger machine is really intended."""


ENGINE_NAMES = ("fast", "reference")
"""Concrete simulation engines (``MachineConfig.engine`` also accepts
``"auto"``): the batched fast engine and the per-event reference loop."""


def max_procs() -> int:
    """The effective ``n_procs`` cap (``REPRO_MAX_PROCS`` overrides)."""
    import os

    raw = os.environ.get("REPRO_MAX_PROCS", "")
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(
                f"REPRO_MAX_PROCS must be an integer, got {raw!r}") from None
        if value > 0:
            return value
    return DEFAULT_MAX_PROCS


class WriteBufferKind(enum.Enum):
    """Write-buffer organizations studied by the paper.

    ``FIFO`` models an ordinary (infinite) write buffer: it hides write
    latency but every buffered write still reaches memory.  ``COALESCING``
    models the buffer "organized as a cache" (DEC Alpha 21164 style, [9, 10]),
    which merges repeated writes to the same word between synchronization
    points and therefore removes redundant write traffic.
    """

    FIFO = "fifo"
    COALESCING = "coalescing"


class SchedulePolicy(enum.Enum):
    """How DOALL iterations are assigned to processors."""

    CHUNK = "chunk"  # contiguous blocks of iterations per processor
    INTERLEAVED = "interleaved"  # iteration i -> processor i mod P
    SELF = "self"  # dynamic self-scheduling (round-robin arrival order)


class TimetagResetPolicy(enum.Enum):
    """What the TPI hardware does when the epoch counter wraps a phase."""

    TWO_PHASE = "two_phase"  # invalidate only out-of-phase words (the paper)
    FLUSH = "flush"  # invalidate the whole cache (the naive strategy)


class ConsistencyModel(enum.Enum):
    """Memory consistency model (the paper's footnote-11 ablation).

    Under ``WEAK`` (the paper's default for all schemes) writes are buffered
    and never stall the processor; ordering is enforced only at epoch
    barriers and lock operations.  Under ``SEQUENTIAL`` every write stalls
    until globally performed — the write-through schemes pay a full memory
    round trip per write, and the directory pays for ownership acquisition
    on the critical path.  The paper notes the directory's coherence-
    transaction problem "would be much more significant in a sequential
    consistency model since both reads and writes are affected".
    """

    WEAK = "weak"
    SEQUENTIAL = "sequential"


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of a per-node data cache."""

    size_bytes: int = 64 * 1024
    line_words: int = 4
    associativity: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_words <= 0 or self.associativity <= 0:
            raise ConfigError("cache parameters must be positive")
        if self.size_bytes % self.line_bytes:
            raise ConfigError("cache size must be a multiple of the line size")
        if self.n_lines % self.associativity:
            raise ConfigError("line count must be a multiple of associativity")
        if self.n_sets & (self.n_sets - 1):
            raise ConfigError("number of sets must be a power of two")

    @property
    def line_bytes(self) -> int:
        return self.line_words * WORD_BYTES

    @property
    def n_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def n_sets(self) -> int:
        return self.n_lines // self.associativity


@dataclass(frozen=True)
class TpiConfig:
    """Two-Phase Invalidation hardware parameters.

    ``tag_per_word=False`` selects the cheaper per-*line* timetag layout
    (8*C*P bits instead of Figure 5's 8*L*C*P).  A line tag can only
    soundly record the line's *fill* time (the minimum validation time of
    its words — local word writes cannot raise it, and strict Time-Reads
    can never hit), so the variant loses the producer-consumer reuse the
    per-word design buys; ``fig25_taggranularity`` measures the cost.
    """

    timetag_bits: int = 8
    reset_policy: TimetagResetPolicy = TimetagResetPolicy.TWO_PHASE
    reset_stall_cycles: int = 128
    tag_per_word: bool = True

    def __post_init__(self) -> None:
        if not 1 <= self.timetag_bits <= 16:
            raise ConfigError("timetag width must be between 1 and 16 bits")
        if self.reset_stall_cycles < 0:
            raise ConfigError("reset stall must be non-negative")

    @property
    def counter_modulus(self) -> int:
        return 1 << self.timetag_bits

    @property
    def phase_size(self) -> int:
        """Epochs per phase; the reset fires each time a phase boundary is crossed."""
        return 1 << (self.timetag_bits - 1)


@dataclass(frozen=True)
class TardisConfig:
    """Tardis timestamp-coherence parameters (PAPERS.md, Tardis 2.0).

    ``lease`` is the number of logical-timestamp units a read lease
    extends past the reader's ``pts``; ``timestamp_bits`` bounds the
    hardware counters, modeled by rebasing (timestamp compression) —
    the lease must fit in half the counter window so live leases stay
    representable across a rebase (see
    :func:`repro.coherence.tardis_rules.rebase_base`).
    """

    lease: int = 8
    timestamp_bits: int = 8

    def __post_init__(self) -> None:
        if not 2 <= self.timestamp_bits <= 16:
            raise ConfigError("timestamp width must be between 2 and 16 bits")
        if not 1 <= self.lease <= (1 << (self.timestamp_bits - 1)) - 1:
            raise ConfigError("lease must lie in [1, 2^(bits-1) - 1]")

    @property
    def modulus(self) -> int:
        return 1 << self.timestamp_bits


@dataclass(frozen=True)
class DirectoryConfig:
    """Hardware directory parameters (full-map MSI, and LimitLess DIR_i)."""

    limitless_pointers: int = 10
    overflow_trap_cycles: int = 50

    def __post_init__(self) -> None:
        if self.limitless_pointers <= 0:
            raise ConfigError("LimitLess pointer count must be positive")
        if self.overflow_trap_cycles < 0:
            raise ConfigError("overflow trap cost must be non-negative")


@dataclass(frozen=True)
class NetworkConfig:
    """Kruskal-Snir analytic model of a buffered multistage network [24].

    The per-stage queueing delay under offered load ``rho`` (flits per link
    per cycle) for k-by-k switches is ``rho * (1 - 1/k) / (2 * (1 - rho))``
    switch cycles, added to the unit switch traversal time.  Misses traverse
    the network twice (request + reply); the reply carries the cache line,
    serialized at ``word_transfer_cycles`` per word through the memory port.
    """

    switch_degree: int = 4
    switch_cycle: int = 2
    word_transfer_cycles: int = 8
    max_load: float = 0.95

    def __post_init__(self) -> None:
        if self.switch_degree < 2:
            raise ConfigError("switch degree must be at least 2")
        if not 0.0 < self.max_load < 1.0:
            raise ConfigError("max_load must lie strictly between 0 and 1")

    def stages(self, n_procs: int) -> int:
        return max(1, math.ceil(math.log(max(2, n_procs), self.switch_degree)))


@dataclass(frozen=True)
class MachineConfig:
    """The complete target machine (Figure 8 defaults)."""

    n_procs: int = 16
    cache: CacheConfig = field(default_factory=CacheConfig)
    tpi: TpiConfig = field(default_factory=TpiConfig)
    tardis: TardisConfig = field(default_factory=TardisConfig)
    directory: DirectoryConfig = field(default_factory=DirectoryConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    hit_latency: int = 1
    base_miss_latency: int = 100
    write_buffer: WriteBufferKind = WriteBufferKind.FIFO
    consistency: ConsistencyModel = ConsistencyModel.WEAK
    schedule: SchedulePolicy = SchedulePolicy.CHUNK
    epoch_setup_cycles: int = 60
    task_dispatch_cycles: int = 10
    network_smoothing: float = 0.5
    check_coherence: bool = True
    record_epochs: bool = False
    engine: str = "auto"
    """Simulation engine: ``"fast"`` (batched kernel; sweep groups also
    share trace-static analyses across their back-end variants),
    ``"reference"`` (per-event heap loop), or ``"auto"`` (the
    ``REPRO_ENGINE`` environment variable, else fast).  The engines are
    differentially tested to be bit-identical, so this knob affects
    wall-clock only — it is therefore excluded from runtime job
    fingerprints."""

    def __post_init__(self) -> None:
        if self.n_procs <= 0:
            raise ConfigError("processor count must be positive")
        cap = max_procs()
        if self.n_procs > cap:
            raise ConfigError(
                f"n_procs={self.n_procs} exceeds the cap of {cap}; set "
                f"REPRO_MAX_PROCS to raise it")
        if self.hit_latency <= 0 or self.base_miss_latency <= 0:
            raise ConfigError("latencies must be positive")
        if not 0.0 <= self.network_smoothing <= 1.0:
            raise ConfigError("network smoothing must lie in [0, 1]")
        if self.engine != "auto" and self.engine not in ENGINE_NAMES:
            raise ConfigError(f"unknown engine {self.engine!r}; choose "
                              f"{', '.join(ENGINE_NAMES)} or auto")

    def with_(self, **changes) -> "MachineConfig":
        """Return a copy with the given fields replaced (sweep helper)."""
        return replace(self, **changes)


def default_machine() -> MachineConfig:
    """The paper's default configuration (Figure 8)."""
    return MachineConfig()


def parameter_table(machine: MachineConfig) -> list[tuple[str, str]]:
    """Render the Figure 8 parameter table for a configuration.

    Returns ``(parameter, value)`` rows matching the layout of the paper's
    default-parameters figure.
    """
    cache = machine.cache
    tpi = machine.tpi
    return [
        ("CPU", "single-issue processor"),
        ("ALU operations", "1 CPU cycle"),
        ("cache size", f"{cache.size_bytes // 1024} KB, "
                       f"{'direct-mapped' if cache.associativity == 1 else f'{cache.associativity}-way'}"),
        ("cache hit", f"{machine.hit_latency} CPU cycle"),
        ("line size", f"{cache.line_words} 32-bit word"),
        ("cache line base miss latency", f"{machine.base_miss_latency} CPU cycles"),
        ("timetag size", f"{tpi.timetag_bits}-bits"),
        ("network delay", "analytic model [24]"),
        ("number of processors", str(machine.n_procs)),
        ("two-phase reset", f"{tpi.reset_stall_cycles} cycles"),
    ]
