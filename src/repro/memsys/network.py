"""Kruskal-Snir analytic delay model for indirect multistage networks [24].

The paper simulates network delays with this model rather than a flit-level
simulator; we do the same.  For a buffered multistage network of k-by-k
switches under offered load ``rho`` (words per link per cycle), the expected
queueing delay per stage is

    q(rho) = rho * (1 - 1/k) / (2 * (1 - rho))

switch cycles on top of the unit switch traversal.  A miss crosses the
network twice (request out, reply back) and streams the line through the
memory port at ``word_transfer_cycles`` per word, each word also subject to
the load factor.  The offered load is measured by the simulator per epoch
(words injected / processor-cycles available) and smoothed; the feedback
loop (more traffic -> higher rho -> longer misses -> more cycles) converges
because rho is clamped below ``max_load``.
"""

from __future__ import annotations

from repro.common.config import MachineConfig, NetworkConfig


class KruskalSnirNetwork:
    """Latency oracle shared by all coherence schemes in one simulation."""

    def __init__(self, machine: MachineConfig):
        self.config: NetworkConfig = machine.network
        self.n_procs = machine.n_procs
        self.base_miss_latency = machine.base_miss_latency
        self.stages = self.config.stages(machine.n_procs)
        self.rho = 0.0

    @property
    def rho(self) -> float:
        """Smoothed offered load (words per link per cycle)."""
        return self._rho

    @rho.setter
    def rho(self, value: float) -> None:
        # Every latency is a function of rho alone, and rho only moves at
        # epoch boundaries, so each is computed once per value: the
        # per-event path asks for them on every miss.
        self._rho = value
        self._miss = {}
        self._control = None

    # ------------------------------------------------------------- feedback

    def observe_epoch(self, words_injected: int, proc_cycles: int,
                      smoothing: float) -> None:
        """Update the load estimate from one epoch's traffic."""
        if proc_cycles <= 0:
            return
        measured = words_injected / (self.n_procs * proc_cycles)
        measured = min(measured, self.config.max_load)
        self.rho = (1.0 - smoothing) * self.rho + smoothing * measured

    # -------------------------------------------------------------- delays

    def stage_queueing(self, rho: float = None) -> float:
        rho = self.rho if rho is None else rho
        rho = min(max(rho, 0.0), self.config.max_load)
        k = self.config.switch_degree
        return rho * (1.0 - 1.0 / k) / (2.0 * (1.0 - rho))

    def traversal(self) -> float:
        """One-way unloaded header latency through the network."""
        return self.stages * self.config.switch_cycle

    def load_factor(self) -> float:
        """Multiplier on per-word streaming time under the current load."""
        return 1.0 + self.stage_queueing()

    def miss_latency(self, line_words: int) -> int:
        """Round-trip latency of a cache-line miss under the current load."""
        latency = self._miss.get(line_words)
        if latency is None:
            latency = self._miss[line_words] = self._line_latency(line_words)
        return latency

    def _line_latency(self, line_words: int) -> int:
        queueing = 2 * self.stages * self.config.switch_cycle * self.stage_queueing()
        transfer = line_words * self.config.word_transfer_cycles * self.load_factor()
        return int(round(self.base_miss_latency + transfer + queueing))

    def word_latency(self) -> int:
        """Round-trip latency of a single-word remote access."""
        return self.miss_latency(1)

    def control_latency(self) -> int:
        """Round trip of a control-only message (lock, upgrade grant)."""
        if self._control is None:
            rt = (2 * self.stages * self.config.switch_cycle
                  * (1.0 + self.stage_queueing()))
            self._control = int(round(rt)) + 1
        return self._control
