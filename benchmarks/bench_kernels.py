"""Kernel ledger: what each batch kernel and sub-path buys.

For every scheme with a batch kernel, times the fast engine over the six
workloads (front ends prepared outside the timing), best of
``--rounds``, at small and default size, with each switch on and off:

* ``kernel`` — the scheme's batch kernel; off, ``make_batch_kernel``
  returns None and cold spans take the engine's per-event path;
* ``preapply`` — epoch pre-apply; off, ``FastEngine._preapply_epoch``
  returns False and every cold span runs through the exact per-event
  path.

Each switch is flipped by patching it in this process; ``src/repro``
has no setting for any of them.  Every round times all variants in
turn, so drift on a shared host hits them alike.  An off variant whose
results differ from the on variant's (a SHA-256 of every result's
canonical ``to_dict()`` and epoch records) fails the run.

Standalone::

    python benchmarks/bench_kernels.py --rounds 3 --out BENCH_kernels.json

``--baseline OLD.json`` embeds an earlier run of this script (for
example one made with ``PYTHONPATH`` pointing at another checkout's
``src``) and fails if any result digest differs from it.  Under pytest
one scheme runs once at small size, with sanity assertions only.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import sys
import time

import numpy as np

from repro.coherence import (BaseScheme, FullMapDirectoryScheme,
                             LimitLessScheme, SnoopBusScheme,
                             SoftwareBypassScheme, TpiScheme,
                             UpdateDirectoryScheme)
from repro.common.config import default_machine
from repro.sim import prepare, simulate
from repro.sim.fastengine import FastEngine
from repro.workloads import build_workload, workload_names

#: The schemes with a batch kernel (tardis has none), by scheme class.
KERNEL_SCHEMES = {"base": BaseScheme, "sc": SoftwareBypassScheme,
                  "tpi": TpiScheme, "hw": FullMapDirectoryScheme,
                  "limitless": LimitLessScheme, "snoop": SnoopBusScheme,
                  "update": UpdateDirectoryScheme}
SWITCHES = ("kernel", "preapply")
SIZES = ("small", "default")


def _patch(scheme: str, switch: str):
    """``(owner, attribute, value)`` that turns ``switch`` off."""
    if switch == "kernel":
        return KERNEL_SCHEMES[scheme], "make_batch_kernel", lambda self: None
    if switch == "preapply":
        return FastEngine, "_preapply_epoch", lambda self, *args: False
    raise ValueError(f"unknown switch {switch!r}")


@contextlib.contextmanager
def switched_off(scheme: str, switch=None):
    """Run the body with ``switch`` off (None: everything on)."""
    if switch is None:
        yield
        return
    owner, name, value = _patch(scheme, switch)
    saved = vars(owner).get(name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        if saved is None:
            delattr(owner, name)
        else:
            setattr(owner, name, saved)


def digest(results) -> str:
    """SHA-256 over the canonical rendering of every result."""
    h = hashlib.sha256()
    for result in results:
        h.update(json.dumps(
            {"result": result.to_dict(),
             "epochs": [dataclasses.astuple(r)
                        for r in result.epoch_records]},
            sort_keys=True, separators=(",", ":")).encode())
    return h.hexdigest()


def measure(size: str, schemes=tuple(KERNEL_SCHEMES), rounds: int = 3):
    """Per scheme: best-of-``rounds`` seconds with everything on and with
    each switch off, and the results' digest."""
    machine = default_machine().with_(engine="fast", record_epochs=True)
    runs = [prepare(build_workload(name, size=size), machine)
            for name in workload_names()]
    variants = (None,) + SWITCHES
    out = {}
    for scheme in schemes:
        best = dict.fromkeys(variants, float("inf"))
        digests = {}
        for _ in range(rounds):
            for switch in variants:
                with switched_off(scheme, switch):
                    started = time.perf_counter()
                    results = [simulate(run, scheme, machine)
                               for run in runs]
                    best[switch] = min(best[switch],
                                       time.perf_counter() - started)
                digests.setdefault(switch, digest(results))
        for switch in SWITCHES:
            if digests[switch] != digests[None]:
                raise ValueError(f"{size}/{scheme}: results change with "
                                 f"{switch} off")
        out[scheme] = {"on_s": round(best[None], 4), "digest": digests[None],
                       **{f"{switch}_off_s": round(best[switch], 4)
                          for switch in SWITCHES}}
    out["total"] = {key: round(sum(row[key] for row in out.values()), 4)
                    for key in ("on_s",) + tuple(f"{s}_off_s"
                                                 for s in SWITCHES)}
    return out


def machine_stamp() -> dict:
    return {"machine": platform.machine(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__}


def compare(sizes: dict, baseline: dict) -> None:
    """Raises if any result digest differs from ``baseline``'s."""
    for size, rows in sizes.items():
        for scheme, row in rows.items():
            old = baseline["sizes"].get(size, {}).get(scheme)
            if old and old.get("digest") != row.get("digest"):
                raise ValueError(f"{size}/{scheme}: results differ from "
                                 "the baseline's")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds per variant (best is kept)")
    parser.add_argument("--baseline", default=None,
                        help="an earlier --out file to compare against")
    parser.add_argument("--baseline-label", default="baseline",
                        help="what the baseline measured, e.g. a commit")
    parser.add_argument("--label", default="this checkout",
                        help="what this run measures, e.g. a commit")
    parser.add_argument("--out", default=None,
                        help="write the report as JSON to this path")
    args = parser.parse_args(argv)

    try:
        sizes = {size: measure(size, rounds=args.rounds) for size in SIZES}
    except ValueError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    report = {**machine_stamp(), "rounds": args.rounds, "label": args.label,
              "sizes": sizes}
    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        try:
            compare(sizes, baseline)
        except ValueError as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            return 1
        report["baseline"] = {"label": args.baseline_label,
                              "sizes": baseline["sizes"]}
    print(f"{'size/scheme':20s} {'on':>8s} "
          + " ".join(f"{s + ' off':>16s}" for s in SWITCHES))
    for size, rows in sizes.items():
        for scheme, row in rows.items():
            print(f"{size + '/' + scheme:20s} {row['on_s']:8.3f} "
                  + " ".join(f"{row[s + '_off_s']:16.3f}" for s in SWITCHES))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


class TestKernelBench:
    def test_one_scheme_at_small_size(self, benchmark):
        rows = benchmark.pedantic(measure, args=("small", ("base",), 1),
                                  iterations=1, rounds=1)
        assert set(rows) == {"base", "total"}
        assert all(value > 0 for key, value in rows["base"].items()
                   if key.endswith("_s"))
        assert len(rows["base"]["digest"]) == 64


if __name__ == "__main__":
    sys.exit(main())
