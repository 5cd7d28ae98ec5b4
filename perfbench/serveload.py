"""The ``serve-warm`` workload: a ``repro serve`` child and its clients.

The server runs in its own process (``serve_child.py``) on an ephemeral
loopback port; the clients are threads of the benchmark process.  A
session fills the server's empty cache with one cold pass over the fig11
population, checks one warm answer per config, then drives a closed
loop: each client sends its next request only when the previous answer
has arrived.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import queue
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from calibrate import probe, scale
from checkout import OUT_DIR, ROOT

HERE = Path(__file__).resolve().parent

SERVE_WORKLOADS = ("spec77", "ocean", "flo52", "qcd2", "trfd", "arc2d")
SERVE_SCHEMES = ("base", "sc", "tpi", "hw")
POPULATION = tuple((f"serve/{w}.{s}",
                    json.dumps({"workload": w, "size": "small", "procs": 4,
                                "schemes": [s]}).encode())
                   for w in SERVE_WORKLOADS for s in SERVE_SCHEMES)
"""(golden key, request body) for each of the 24 fig11 configs."""
ALPHA = 1.1
RANK_SEED = 1996
"""Fixes which config is hottest, second hottest, and so on."""
CLIENTS = 2
PASS_REQUESTS = 200
"""Requests per measured pass, split evenly over the clients."""
START_TIMEOUT = 120.0


class ServeError(RuntimeError):
    """The server could not be started or reached."""


def request(port: int, method: str, path: str,
            body: Optional[bytes] = None) -> Tuple[int, bytes, float]:
    """One HTTP request on a fresh connection (the server closes each)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        started = time.perf_counter()
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        data = response.read()
        return response.status, data, time.perf_counter() - started
    finally:
        conn.close()


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def warm_bytes(cold: bytes) -> bytes:
    """The warm response a cold one must equal once its phase timings
    (the only run-dependent field) are dropped."""
    payload = json.loads(cold)
    payload.pop("phases", None)
    return (json.dumps(payload, indent=2) + "\n").encode()


class Server:
    """One ``repro serve`` child; ``setup_s`` runs from spawn until
    ``/healthz`` answers."""

    def __init__(self, trace: int, env: dict):
        (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
        self.cache_dir = tempfile.mkdtemp(prefix="serve-",
                                          dir=OUT_DIR / "tmp")
        self.stats_path = Path(self.cache_dir + ".stats.json")
        self.log_path = Path(self.cache_dir + ".log")
        spawned = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "serve_child.py"), "--trace",
                 str(trace), "--cache-dir", self.cache_dir, "--stats",
                 str(self.stats_path)],
                cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log,
                text=True)
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self.port = self._wait_port(spawned + START_TIMEOUT)
            self._wait_healthy(spawned + START_TIMEOUT)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - spawned

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _wait_port(self, deadline: float) -> int:
        while True:
            try:
                line = self._lines.get(
                    timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                raise ServeError("server did not report its port") from None
            if line is None:
                raise ServeError("server exited: "
                                 + self.log_path.read_text()[-2000:])
            found = re.search(r"listening on http://[\d.]+:(\d+)", line)
            if found:
                return int(found.group(1))

    def _wait_healthy(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            try:
                if request(self.port, "GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise ServeError("server never answered /healthz")

    def stop(self) -> dict:
        """SIGTERM, wait for the drain, clean up, return the child's stats."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=10)
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        try:
            stats = json.loads(self.stats_path.read_text())
        except (OSError, ValueError):
            stats = {}
        self.stats_path.unlink(missing_ok=True)
        self.log_path.unlink(missing_ok=True)
        return stats

    def finish(self) -> dict:
        """:meth:`stop`, raising unless the server drained cleanly and
        wrote its stats."""
        stats = self.stop()
        if self.proc.returncode != 0 or "rss_mb" not in stats:
            raise ServeError(f"server exited {self.proc.returncode} "
                             f"without its stats")
        return stats


def zipf_streams(seed: int) -> List[Iterator[List[int]]]:
    """Per-client streams of passes, each a list of population indices
    drawn Zipf(ALPHA) over ranks.  Which config holds each rank is
    fixed, so every seed has the same hot set and the seed only draws
    the sequence."""
    ranks = random.Random(RANK_SEED).sample(range(len(POPULATION)),
                                            len(POPULATION))
    weights = [rank ** -ALPHA for rank in range(1, len(POPULATION) + 1)]

    def stream(rng: random.Random) -> Iterator[List[int]]:
        while True:
            yield rng.choices(ranks, weights, k=PASS_REQUESTS // CLIENTS)

    return [stream(random.Random(f"{seed}:{client}"))
            for client in range(CLIENTS)]


def cold_fill(server: Server, tally) -> Tuple[float, List[float]]:
    """One cold request per config; returns the time and the simulated
    reads + writes of each config's result."""
    events: List[float] = []
    started = time.perf_counter()
    for key, body in POPULATION:
        status, data, _ = request(server.port, "POST", "/simulate", body)
        ok = status == 200
        tally.note(ok and sha(warm_bytes(data)) == tally.golden.get(key),
                   f"cold {key}")
        results = json.loads(data).values() if ok else ()
        events.append(sum(r["reads"] + r["writes"] for r in results
                          if isinstance(r, dict) and "reads" in r))
    return time.perf_counter() - started, events


def start(trace: int, env: dict, setups: list, fills: list, tally):
    """Start a server and fill its empty cache, recording both times as
    (host seconds, calibration scale) pairs; returns the server and the
    per-config event counts."""
    before = probe()
    server = Server(trace, env)
    try:
        setups.append((server.setup_s, scale(before)))
        before = probe()
        fill_s, events = cold_fill(server, tally)
        fills.append((fill_s, scale(before, probe())))
    except BaseException:
        server.stop()
        raise
    return server, events


def session(trace: int, seconds: float, seed: int, tally, env: dict,
            setups: int = 1) -> dict:
    """Start the server and fill its empty cache ``setups`` times (the
    last server stays up), then measure whole passes for ``seconds``.

    Times come back as (host seconds, calibration scale) pairs; a speed
    probe runs in this process, with the server idle, around each pass.
    """
    starts: list = []
    fills: list = []
    for _ in range(setups - 1):
        start(0, env, starts, fills, tally)[0].finish()
    server, events = start(trace, env, starts, fills, tally)
    try:
        reference = []
        for key, body in POPULATION:
            status, data, _ = request(server.port, "POST", "/simulate", body)
            tally.check(key, sha(data) if status == 200 else f"http {status}")
            reference.append(data)

        streams = zipf_streams(seed)
        passes: List[List[Tuple[float, float]]] = []
        walls: List[Tuple[float, float]] = []
        served = 0.0
        window_start = time.perf_counter()
        before = probe()
        while not walls or time.perf_counter() - window_start < seconds:
            mix = [next(stream) for stream in streams]
            samples: List[List[Tuple[int, bool, float]]] = [
                [] for _ in range(CLIENTS)]

            def client(index: int) -> None:
                for config in mix[index]:
                    status, data, latency = request(
                        server.port, "POST", "/simulate",
                        POPULATION[config][1])
                    samples[index].append(
                        (config, status == 200 and data == reference[config],
                         latency))

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(CLIENTS)]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - started
            after = probe()
            factor = scale(before, after)
            before = after
            walls.append((wall, factor))
            passes.append([])
            for config, ok, latency in (s for part in samples for s in part):
                tally.note(ok, f"warm {POPULATION[config][0]}")
                passes[-1].append((latency, factor))
                served += events[config]
        window = (window_start, time.perf_counter())
    except BaseException:
        server.stop()
        raise
    stats = server.finish()
    return {"setups": starts, "fills": fills, "walls": walls,
            "passes": passes, "events": served, "stats": stats,
            "window": window, "reference": reference}


def golden_digests(env: dict) -> dict:
    """Warm-response digest of every config, checking that each cold
    response equals its warm one once its phase timings are dropped."""
    digests = {}
    server = Server(0, env)
    try:
        for key, body in POPULATION:
            cold = request(server.port, "POST", "/simulate", body)
            warm = request(server.port, "POST", "/simulate", body)
            if cold[0] != 200 or warm[0] != 200:
                raise ServeError(f"{key}: HTTP {cold[0]}/{warm[0]}")
            if warm_bytes(cold[1]) != warm[1]:
                raise ServeError(f"{key}: cold and warm responses differ")
            digests[key] = sha(warm[1])
    finally:
        server.stop()
    return digests
