"""Serve-layer load benchmark: Zipfian request mix over the fig11 grid.

Drives a real :class:`repro.serve.ServeServer` (socket and all) with a
load generator whose request population is the paper's Figure 11 grid —
every workload simulated under every default scheme — and whose request
*frequencies* follow a Zipf(alpha ~= 1.1) distribution, the shape of
repeated paper-grid traffic: a handful of hot configurations dominate,
a long tail stays cold.  Reported:

* p50/p99 request latency (from the client's wall clock);
* steady-state cache hit rate (requests answered without touching the
  worker pool: cache hits + coalesced waiters), measured after a warmup
  pass has populated the artifact cache.

The committed ``BENCH_serve.json`` at the repo root records the
measurement; CI replays a smaller mix with ``--min-hit-rate 0.9`` as a
regression gate on the read-through/coalescing path.

Standalone::

    python benchmarks/bench_serve.py --requests 400 --out BENCH_serve.json
    python benchmarks/bench_serve.py --requests 200 --min-hit-rate 0.9
"""

import argparse
import asyncio
import json
import platform
import sys
import time
import urllib.request

import numpy as np

WORKLOADS = ("spec77", "ocean", "flo52", "qcd2", "trfd", "arc2d")
SCHEMES = ("base", "sc", "tpi", "hw")
ALPHA = 1.1
PROCS = 4


def request_population():
    """The fig11 grid as distinct /simulate request bodies."""
    return [{"workload": workload, "size": "small", "procs": PROCS,
             "schemes": [scheme]}
            for workload in WORKLOADS for scheme in SCHEMES]


def zipf_mix(population_size: int, requests: int, seed: int) -> np.ndarray:
    """Zipf(ALPHA) ranks over a finite population, hot ranks shuffled in."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, population_size + 1, dtype=float)
    weights = ranks ** -ALPHA
    weights /= weights.sum()
    order = rng.permutation(population_size)  # which config is "rank 1"
    return order[rng.choice(population_size, size=requests, p=weights)]


async def _drive(server, bodies, concurrency: int):
    """Issue the request list against the server; per-request latencies."""
    loop = asyncio.get_running_loop()
    gate = asyncio.Semaphore(concurrency)
    latencies = [0.0] * len(bodies)

    def post(body):
        data = json.dumps(body).encode()
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/simulate", data=data,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request) as response:
            response.read()

    async def one(index, body):
        async with gate:
            started = time.perf_counter()
            await loop.run_in_executor(None, post, body)
            latencies[index] = time.perf_counter() - started

    await asyncio.gather(*[one(index, body)
                           for index, body in enumerate(bodies)])
    return latencies


def run_load(requests: int, seed: int = 1996, concurrency: int = 8) -> dict:
    """Warm-up pass over the grid, then the Zipfian steady-state mix."""
    from repro.common import percentile
    from repro.runtime import ArtifactCache
    from repro.serve import ServeConfig, ServeServer, SimulationService

    import tempfile

    population = request_population()
    mix = zipf_mix(len(population), requests, seed)

    with tempfile.TemporaryDirectory() as cache_dir:
        service = SimulationService(
            cache=ArtifactCache(cache_dir),
            config=ServeConfig(jobs=1, dispatchers=2))
        server = ServeServer(service, host="127.0.0.1", port=0)

        async def go():
            await server.start()
            # Warmup: one pass over the whole population fills the cache
            # (this is the cold half a fresh deployment pays exactly once).
            warm_started = time.perf_counter()
            await _drive(server, population, concurrency)
            warmup_s = time.perf_counter() - warm_started
            warm_dispatched = service.dispatched
            baseline = service.telemetry.serve_requests

            # Steady state: the Zipfian mix, measured.
            bodies = [population[rank] for rank in mix]
            latencies = await _drive(server, bodies, concurrency)
            stats = service.stats_payload()
            await server.shutdown()
            measured = stats["requests"]["total"] - baseline
            hot = (stats["requests"]["hits"] + stats["requests"]["coalesced"]
                   - (baseline - warm_dispatched))
            return warmup_s, latencies, stats, measured, hot

        warmup_s, latencies, stats, measured, hot = asyncio.run(go())
        hit_rate = hot / measured if measured else 0.0
        return {
            "grid": "fig11",
            "alpha": ALPHA,
            "population": len(population),
            "requests": requests,
            "concurrency": concurrency,
            "warmup_s": round(warmup_s, 3),
            "steady": {
                "p50_ms": round(1e3 * percentile(latencies, 50), 3),
                "p99_ms": round(1e3 * percentile(latencies, 99), 3),
                "mean_ms": round(1e3 * sum(latencies) / len(latencies), 3),
                "hit_rate": round(hit_rate, 4),
            },
            "server": {
                "dispatched": stats["requests"]["dispatched"],
                "hits": stats["requests"]["hits"],
                "coalesced": stats["requests"]["coalesced"],
                "errors": stats["requests"]["errors"],
            },
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=400,
                        help="steady-state requests after warmup")
    parser.add_argument("--concurrency", type=int, default=8,
                        help="in-flight client requests")
    parser.add_argument("--seed", type=int, default=1996)
    parser.add_argument("--out", default=None,
                        help="write the report as JSON to this path")
    parser.add_argument("--min-hit-rate", type=float, default=None,
                        help="exit non-zero if the steady-state hit rate "
                             "is below this floor")
    args = parser.parse_args(argv)

    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        **run_load(args.requests, seed=args.seed,
                   concurrency=args.concurrency),
    }
    steady = report["steady"]
    print(f"serve[fig11] {report['requests']} requests: "
          f"p50={steady['p50_ms']}ms p99={steady['p99_ms']}ms "
          f"hit-rate={steady['hit_rate']:.1%} "
          f"({report['server']['dispatched']} simulations dispatched)")
    failed = False
    if args.min_hit_rate is not None and steady["hit_rate"] < args.min_hit_rate:
        print(f"FAIL: hit rate {steady['hit_rate']:.1%} is below the "
              f"{args.min_hit_rate:.0%} floor", file=sys.stderr)
        failed = True
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 1 if failed else 0


class TestServeBench:
    def test_zipfian_mix_hit_rate(self, benchmark, bench_size):
        requests = 120 if bench_size == "small" else 400
        report = benchmark.pedantic(run_load, args=(requests,),
                                    iterations=1, rounds=1)
        # Sanity only: the calibrated >= 90% gate runs in the dedicated
        # CI serve job and BENCH_serve.json.
        assert report["steady"]["hit_rate"] > 0.5
        assert report["server"]["errors"] == 0


if __name__ == "__main__":
    sys.exit(main())
