"""End-to-end smoke for ``repro serve`` — the CI serve job.

Boots the real CLI entrypoint (``python -m repro serve``) as a
subprocess, then checks the two serve guarantees from the outside:

1. **differential** — ``POST /sweep`` and ``POST /simulate`` responses
   are byte-identical to the warm ``repro sweep --json`` and ``repro
   simulate --json`` files for the same fingerprints (CLI and server
   share one artifact cache here);
2. **coalescing** — concurrent identical cold requests are collapsed:
   the ``/stats`` coalesced counter rises and the dispatched counter
   shows one simulation per distinct fingerprint.

Finally the server is asked to shut down (SIGTERM) and must exit 0
after draining.  Run locally::

    python benchmarks/serve_smoke.py
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

SWEEP_ARGS = ["sweep", "ocean", "--axis", "line=1,4", "--scheme", "tpi",
              "--size", "small"]
SWEEP_BODY = {"workload": "ocean", "axes": ["line=1,4"], "schemes": ["tpi"],
              "size": "small"}
SIM_ARGS = ["simulate", "ocean", "--size", "small", "--procs", "4",
            "--scheme", "tpi"]
COLD_BODY = {"workload": "trfd", "axes": ["k=2,3"], "schemes": ["tpi"],
             "size": "small"}
SIM_BODY = {"workload": "ocean", "size": "small", "procs": 4,
            "schemes": ["tpi"]}


def post(port, path, body):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.read()


def get(port, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}",
                                timeout=10) as response:
        return response.read()


def wait_ready(port, process, deadline_s=30.0):
    started = time.time()
    while time.time() - started < deadline_s:
        if process.poll() is not None:
            raise SystemExit(f"server exited early with {process.returncode}")
        try:
            if json.loads(get(port, "/healthz"))["status"] == "ok":
                return
        except (urllib.error.URLError, OSError):
            time.sleep(0.1)
    raise SystemExit("server never became healthy")


def main() -> int:
    port = int(os.environ.get("SERVE_SMOKE_PORT", "8123"))
    with tempfile.TemporaryDirectory() as tmp:
        cache_dir = os.path.join(tmp, "cache")
        env = dict(os.environ, REPRO_CACHE_DIR=cache_dir)

        # Warm the shared cache through the CLI path (twice: the second,
        # fully warm run is the deterministic payload the server must hit).
        cli_bytes = {}
        for route, args in (("/sweep", SWEEP_ARGS), ("/simulate", SIM_ARGS)):
            cli_json = os.path.join(tmp, route.strip("/") + ".json")
            for _ in range(2):
                subprocess.run([sys.executable, "-m", "repro", *args,
                                "--json", cli_json], env=env, check=True,
                               stdout=subprocess.DEVNULL)
            with open(cli_json, "rb") as handle:
                cli_bytes[route] = handle.read()

        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", str(port), "--cache-dir", cache_dir], env=env)
        try:
            wait_ready(port, server)

            # 1. Differential: server bytes == warm CLI --json bytes.
            for route, body in (("/sweep", SWEEP_BODY),
                                ("/simulate", SIM_BODY)):
                served = post(port, route, body)
                cli = cli_bytes[route]
                assert served == cli, (
                    f"server {route} response differs from CLI --json:\n"
                    f"cli: {cli[:200]!r}...\nsrv: {served[:200]!r}...")

            # 2. Coalescing: identical *cold* requests collapse to one
            # simulation per distinct fingerprint.
            with ThreadPoolExecutor(max_workers=4) as pool:
                payloads = list(pool.map(
                    lambda _: post(port, "/sweep", COLD_BODY), range(4)))
            assert len(set(payloads)) == 1, "coalesced responses diverged"

            stats = json.loads(get(port, "/stats"))["requests"]
            assert stats["coalesced"] > 0, stats
            # duplicates never dispatched: the cold fingerprint costs one
            # simulation (sweep and simulate above were warm, COLD_BODY is
            # the only cold request).
            assert stats["dispatched"] == 1, stats
            assert stats["errors"] == 0, stats
            print("serve smoke OK:", stats)
        finally:
            server.send_signal(signal.SIGTERM)
            code = server.wait(timeout=60)
        assert code == 0, f"server exited {code} after SIGTERM"
        print("graceful shutdown OK (exit 0)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
