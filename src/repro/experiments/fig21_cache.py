"""Cache geometry sweep — size and associativity.

The paper's evaluation fixes a 64 KB direct-mapped cache; this sweep shows
where that operating point sits.  The evaluation workload sizes have small
working sets, so this experiment enlarges each benchmark until its working
set exceeds the smaller caches (recorded in ``CAPACITY_SIZES``): the 16 KB
point then shows capacity misses, 256 KB holds everything, and the TPI/HW
*gap* stays put — it comes from sharing, not capacity.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.config import CacheConfig, MachineConfig, default_machine
from repro.experiments.common import Bench, ExperimentResult

SIZES_KB = (16, 64, 256)

# Overrides that push each working set past the small cache sizes.
CAPACITY_SIZES: Dict[str, dict] = {
    "spec77": dict(nlat=24, nspec=512, steps=2),
    "ocean": dict(n=96, steps=2),
    "flo52": dict(n=16384, cycles=1),
    "qcd2": dict(nsite=16384, sweeps=1),
    "trfd": dict(n=48, m=8, passes=1),
    "arc2d": dict(n=96, steps=2),
}

SMALL_SIZES: Dict[str, dict] = {
    "spec77": dict(nlat=12, nspec=256, steps=1),
    "ocean": dict(n=48, steps=1),
    "flo52": dict(n=4096, cycles=1),
    "qcd2": dict(nsite=4096, sweeps=1),
    "trfd": dict(n=24, m=6, passes=1),
    "arc2d": dict(n=48, steps=1),
}


def run(machine: Optional[MachineConfig] = None,
        size: str = "paper") -> ExperimentResult:
    base = machine or default_machine()
    overrides = CAPACITY_SIZES if size == "paper" else SMALL_SIZES
    result = ExperimentResult(
        experiment="fig21_cache",
        title="miss rate (%) vs cache size and associativity (enlarged working sets)",
        headers=["workload", "scheme",
                 *(f"{kb}KB dm" for kb in SIZES_KB), "64KB 4-way"],
    )
    machines = [base.with_(cache=CacheConfig(
        size_bytes=kb * 1024, line_words=base.cache.line_words))
        for kb in SIZES_KB]
    machines.append(base.with_(cache=CacheConfig(
        size_bytes=64 * 1024, line_words=base.cache.line_words,
        associativity=4)))
    # Cache geometry is back-end-only: one front end per workload serves
    # all four machines, gang-primed so the geometry resolution is shared.
    bench = Bench(base, size, schemes=("tpi", "hw"), machines=machines,
                  builds=overrides)
    for name in bench.names:
        for scheme in ("tpi", "hw"):
            result.rows.append([name, scheme.upper(), *(
                100.0 * bench.result(name, scheme, m).miss_rate
                for m in machines)])
    result.notes = ("shape: miss rate non-increasing in cache size, with a "
                    "visible capacity cliff between 16KB and 256KB on the "
                    "enlarged working sets; associativity never hurts; the "
                    "TPI-vs-HW gap persists at every size (sharing, not "
                    "capacity).")
    return result
