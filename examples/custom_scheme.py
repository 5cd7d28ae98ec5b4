#!/usr/bin/env python3
"""Extending the library: plug in your own coherence scheme.

Implements "epoch flush" — the simplest possible compiler-directed scheme
(every processor invalidates its whole cache at every epoch boundary;
C.mmp/Cedar-era behaviour) — registers it beside the built-in schemes, and
races it against SC, TPI, and the directory on a workload.  The simulator's
coherence oracle checks it on every read like any other scheme, so a broken
protocol fails loudly rather than reporting great numbers.

Run:  python examples/custom_scheme.py [workload]
"""

import sys
from typing import Dict, List, Optional

import repro.coherence.api as api
from repro import build_workload, default_machine, prepare, simulate
from repro.coherence.api import AccessResult, CoherenceScheme
from repro.common.stats import MissKind
from repro.memsys.cache import Cache


class EpochFlushScheme(CoherenceScheme):
    """Invalidate everything at every epoch boundary (no compiler marking,
    no timetags): coherent because nothing stale survives a barrier, and
    same-epoch freshness is the program's own DOALL-legality."""

    name = "flush"

    def __init__(self, ctx):
        super().__init__(ctx)
        machine = self.machine
        self.caches: List[Cache] = [Cache(machine.cache)
                                    for _ in range(machine.n_procs)]
        self.line_words = machine.cache.line_words

    def begin_epoch(self, index: int, parallel: bool) -> Dict[int, int]:
        for cache in self.caches:
            cache.flush_all_words()
        # Charge the sweep like a TPI reset.
        return {proc: self.machine.tpi.reset_stall_cycles
                for proc in range(self.machine.n_procs)}

    def read(self, proc, addr, site, shared, in_critical) -> AccessResult:
        cache = self.caches[proc]
        line_addr, _, word = cache.split(addr)
        loc = cache.probe(line_addr)
        # A location is a plain ``(set, way)`` tuple.
        if (loc is not None and cache.word_valid[loc + (word,)]
                and not in_critical):
            cache.touch(loc)
            version = int(cache.version[loc + (word,)])
            self._check_read_version(addr, version)
            return AccessResult(latency=self.machine.hit_latency,
                                kind=MissKind.HIT, version=version)
        loc, _evicted, _dirty = cache.install(line_addr, loc)
        s, w = loc
        base = cache.line_base(line_addr)
        cache.version[s, w, :] = self.shadow.version[base:base + self.line_words]
        version = int(cache.version[s, w, word])
        self._check_read_version(addr, version)
        return AccessResult(latency=self.network.miss_latency(self.line_words),
                            kind=MissKind.COLD, read_words=1 + self.line_words,
                            version=version)

    def write(self, proc, addr, site, shared, in_critical) -> AccessResult:
        cache = self.caches[proc]
        line_addr, _, word = cache.split(addr)
        loc = cache.probe(line_addr)
        read_words = 0
        if loc is None:
            loc, _evicted, _dirty = cache.install(line_addr, loc)
            base = cache.line_base(line_addr)
            cache.version[loc] = (
                self.shadow.version[base:base + self.line_words])
            read_words = 1 + self.line_words
        version = self.shadow.write(addr, proc)
        cache.version[loc + (word,)] = version
        cache.word_valid[loc + (word,)] = True
        return AccessResult(latency=self.machine.hit_latency,
                            kind=MissKind.HIT, read_words=read_words,
                            write_words=2 if shared else 0, version=version)


def register(name: str, cls) -> None:
    """Extend make_scheme's registry (monkey-patch style for a demo; a real
    plugin would subclass or wrap make_scheme)."""
    original = api.make_scheme

    def patched(scheme_name, ctx):
        if scheme_name == name:
            return cls(ctx)
        return original(scheme_name, ctx)

    api.make_scheme = patched
    # The engine imported the symbol directly; patch it there too.
    import repro.sim.engine as engine

    engine.make_scheme = patched


def main():
    workload = sys.argv[1] if len(sys.argv) > 1 else "ocean"
    register("flush", EpochFlushScheme)

    machine = default_machine()
    run = prepare(build_workload(workload), machine)
    print(f"{workload}: custom 'flush' scheme vs the built-ins\n")
    for scheme in ("flush", "sc", "tpi", "hw"):
        result = simulate(run, scheme)
        print(f"  {scheme:6s} cycles={result.exec_cycles:>9}  "
              f"miss={100 * result.miss_rate:6.2f}%  "
              f"misslat={result.avg_miss_latency:6.1f}")
    print("\nThe flush scheme is coherent (the oracle checked every read) "
          "but pays cold misses every epoch — the precision gap TPI's "
          "marking + timetags close.")


if __name__ == "__main__":
    main()
