"""Simulation results and derived metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.common.stats import MissKind, TrafficClass

_HIT = MissKind.HIT
_READ = TrafficClass.READ
_WRITE = TrafficClass.WRITE
_COHERENCE = TrafficClass.COHERENCE


@dataclass(frozen=True)
class EpochRecord:
    """Per-epoch profile entry (recorded when the machine asks for it)."""

    index: int
    parallel: bool
    label: str
    cycles: int
    reads: int
    read_misses: int
    words_injected: int
    network_load: float

    @property
    def miss_rate(self) -> float:
        return self.read_misses / self.reads if self.reads else 0.0


@dataclass
class SimResult:
    """Everything one (program, scheme, machine) simulation produced.

    ``miss_counts`` classifies read misses (and BASE's uncached reads);
    ``traffic`` is in network words by class; ``miss_latency_*`` accumulate
    over read misses only (the quantity in the paper's average-miss-latency
    table: writes are buffered and have no processor-visible latency).
    """

    scheme: str
    program: str
    n_procs: int
    exec_cycles: int = 0
    epochs: int = 0
    reads: int = 0
    writes: int = 0
    shared_reads: int = 0
    shared_writes: int = 0
    miss_counts: Dict[MissKind, int] = field(default_factory=dict)
    miss_latency_total: int = 0
    miss_latency_count: int = 0
    traffic: Dict[TrafficClass, int] = field(default_factory=dict)
    breakdown: Dict[str, int] = field(default_factory=lambda: {
        "busy": 0, "read_stall": 0, "write_stall": 0, "sync_stall": 0,
        "reset_stall": 0, "dispatch": 0, "barrier_idle": 0})
    resets: int = 0
    reset_invalidations: int = 0
    final_network_load: float = 0.0
    extra: Dict[str, int] = field(default_factory=dict)
    epoch_records: List[EpochRecord] = field(default_factory=list)
    engine: str = ""
    """Which engine produced this result ("fast"/"reference"): provenance
    for cached artifacts and telemetry.  Deliberately absent from
    :meth:`to_dict` — the engines are bit-identical by contract, and the
    JSON rendering must not differ between them."""

    # ------------------------------------------------------------- recording

    def note_read(self, shared: bool, kind: MissKind, latency: int) -> None:
        self.reads += 1
        if shared:
            self.shared_reads += 1
        counts = self.miss_counts
        counts[kind] = counts.get(kind, 0) + 1
        if kind is not _HIT:
            self.miss_latency_total += latency
            self.miss_latency_count += 1

    def note_write(self, shared: bool) -> None:
        self.writes += 1
        if shared:
            self.shared_writes += 1

    def note_traffic(self, read_words: int, write_words: int,
                     coherence_words: int) -> None:
        traffic = self.traffic
        if read_words:
            traffic[_READ] = traffic.get(_READ, 0) + read_words
        if write_words:
            traffic[_WRITE] = traffic.get(_WRITE, 0) + write_words
        if coherence_words:
            traffic[_COHERENCE] = traffic.get(_COHERENCE, 0) + coherence_words

    # --------------------------------------------------------------- derived

    @property
    def read_misses(self) -> int:
        return sum(count for kind, count in self.miss_counts.items()
                   if kind.is_miss)

    @property
    def miss_rate(self) -> float:
        """Read miss rate (the quantity of the paper's Figure 11)."""
        return self.read_misses / self.reads if self.reads else 0.0

    @property
    def avg_miss_latency(self) -> float:
        if not self.miss_latency_count:
            return 0.0
        return self.miss_latency_total / self.miss_latency_count

    @property
    def unnecessary_misses(self) -> int:
        """False-sharing (HW) or compiler-conservative (TPI/SC) misses."""
        return sum(count for kind, count in self.miss_counts.items()
                   if kind.is_unnecessary)

    @property
    def unnecessary_fraction(self) -> float:
        misses = self.read_misses
        return self.unnecessary_misses / misses if misses else 0.0

    @property
    def total_traffic(self) -> int:
        return sum(self.traffic.values())

    def traffic_per_access(self) -> float:
        accesses = self.reads + self.writes
        return self.total_traffic / accesses if accesses else 0.0

    def kind_count(self, kind: MissKind) -> int:
        return self.miss_counts.get(kind, 0)

    def to_dict(self) -> Dict:
        """JSON-friendly snapshot (enums become their value strings).

        The variable-key sub-dicts are key-sorted so the rendering is
        canonical: the two engines accumulate identical counts in different
        orders, and ``json.dumps`` of this snapshot must be byte-identical
        across engines, worker counts, and repeated runs.
        """
        return {
            "scheme": self.scheme, "program": self.program,
            "n_procs": self.n_procs, "exec_cycles": self.exec_cycles,
            "epochs": self.epochs, "reads": self.reads, "writes": self.writes,
            "shared_reads": self.shared_reads,
            "shared_writes": self.shared_writes,
            "miss_counts": {kind.value: count for kind, count in sorted(
                self.miss_counts.items(), key=lambda kv: kv[0].value)},
            "miss_rate": self.miss_rate,
            "avg_miss_latency": self.avg_miss_latency,
            "traffic": {cls.value: words for cls, words in sorted(
                self.traffic.items(), key=lambda kv: kv[0].value)},
            "breakdown": dict(self.breakdown),
            "resets": self.resets,
            "final_network_load": self.final_network_load,
            "extra": {key: self.extra[key] for key in sorted(self.extra)},
        }

    def breakdown_fractions(self) -> Dict[str, float]:
        """Processor-cycle breakdown as fractions of P * exec_cycles.

        The engine accounts every processor-cycle of the run to exactly one
        category (busy / read_stall / write_stall / sync_stall /
        reset_stall / dispatch / barrier_idle), so the fractions sum to 1.
        """
        total = max(1, self.n_procs * self.exec_cycles)
        return {name: value / total for name, value in self.breakdown.items()}

    def summary(self) -> str:
        busy_pct = 100.0 * self.breakdown_fractions().get("busy", 0.0)
        lines = [
            f"{self.program} / {self.scheme}: {self.exec_cycles} cycles, "
            f"{self.epochs} epochs, {busy_pct:.0f}% busy",
            f"  reads {self.reads} (miss rate {100 * self.miss_rate:.2f}%), "
            f"writes {self.writes}",
            f"  avg miss latency {self.avg_miss_latency:.1f} cycles",
            f"  traffic: " + ", ".join(
                f"{cls.value}={words}" for cls, words in sorted(
                    self.traffic.items(), key=lambda kv: kv[0].value)),
            "  misses: " + ", ".join(
                f"{kind.value}={count}" for kind, count in sorted(
                    self.miss_counts.items(), key=lambda kv: kv[0].value)
                if kind.is_miss),
        ]
        return "\n".join(lines)
