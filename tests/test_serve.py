"""Tests for the repro.serve subsystem (service, HTTP server, CLI).

The two load-bearing guarantees:

* **differential**: a server response is byte-identical to the CLI
  ``--json`` file for the same job fingerprints (shared payload
  builders + shared artifact cache);
* **dedup**: N concurrent identical cold requests dispatch exactly one
  simulation (coalescing), and warm requests never touch the worker
  pool (read-through cache).
"""

import asyncio
import json
import socket
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.runtime import ArtifactCache, Telemetry
from repro.runtime.cache import KIND_RESULT
from repro.serve import server as server_module
from repro.serve import (
    ServeConfig,
    ServeError,
    ServeServer,
    SimulationService,
    json_bytes,
    simulate_payload,
    sweep_payload,
)

SIM_BODY = {"workload": "ocean", "size": "small", "procs": 4,
            "schemes": ["tpi", "hw"]}
SWEEP_BODY = {"workload": "ocean", "axes": ["line=1,4"],
              "schemes": ["tpi"], "size": "small"}


def make_service(tmp_path, **config):
    cache = ArtifactCache(tmp_path / "cache")
    return SimulationService(cache=cache, config=ServeConfig(**config))


def run(coro):
    return asyncio.run(coro)


class TestPayloadBuilders:
    def test_json_bytes_matches_write_json_file(self, tmp_path):
        from repro.runtime import write_json

        payload = {"b": 1, "a": {"x": [1, 2]}}
        path = tmp_path / "out.json"
        write_json(payload, path)
        assert json_bytes(payload) == path.read_bytes()

    def test_simulate_payload_phases_only_when_recorded(self):
        class FakeResult:
            def to_dict(self):
                return {"cycles": 1}

        cold = Telemetry()
        cold.note_phase("engine", 0.25)
        assert "phases" in simulate_payload({"tpi": FakeResult()}, cold)
        assert "phases" not in simulate_payload({"tpi": FakeResult()},
                                                Telemetry())

    def test_sweep_payload_shape(self):
        payload = sweep_payload([], Telemetry())
        assert payload["points"] == []
        assert payload["gang"] == {"traces_shared": 0, "results_shared": 0,
                                   "width": 0}
        assert payload["phases"] == {}


class TestServiceDedup:
    def test_concurrent_identical_cold_requests_run_one_simulation(
            self, tmp_path):
        service = make_service(tmp_path)

        async def stampede():
            return await asyncio.gather(
                *[service.answer("simulate", dict(SIM_BODY))
                  for _ in range(5)])

        payloads = run(stampede())
        service.close()
        assert len(set(payloads)) == 1  # every waiter got the same bytes
        assert service.dispatched == 1
        assert service.telemetry.serve_coalesced == 4
        assert service.telemetry.serve_requests == 5

    def test_warm_request_served_without_worker_pool(self, tmp_path):
        service = make_service(tmp_path)
        run(service.answer("simulate", dict(SIM_BODY)))
        assert service.dispatched == 1
        warm = run(service.answer("simulate", dict(SIM_BODY)))
        # unknown body keys are ignored: same key, same bytes
        extra = run(service.answer("simulate",
                                   dict(SIM_BODY, unknown_option=True)))
        service.close()
        assert extra == warm
        assert service.dispatched == 1  # pool untouched the second time
        assert service.telemetry.serve_hits == 2
        # warm payloads are deterministic: no phases key
        assert "phases" not in json.loads(warm.decode())

    def test_sweep_requests_coalesce_too(self, tmp_path):
        service = make_service(tmp_path)

        async def stampede():
            return await asyncio.gather(
                *[service.answer("sweep", dict(SWEEP_BODY))
                  for _ in range(3)])

        payloads = run(stampede())
        service.close()
        assert len(set(payloads)) == 1
        assert service.dispatched == 1
        assert service.telemetry.serve_coalesced == 2

    def test_distinct_requests_do_not_coalesce(self, tmp_path):
        service = make_service(tmp_path)
        other = dict(SIM_BODY, procs=8)

        async def pair():
            return await asyncio.gather(
                service.answer("simulate", dict(SIM_BODY)),
                service.answer("simulate", other))

        run(pair())
        service.close()
        assert service.dispatched == 2
        assert service.telemetry.serve_coalesced == 0

    def test_request_fingerprint_is_stable(self, tmp_path):
        service = make_service(tmp_path)
        a = service.request_fingerprint(service.parse_simulate(SIM_BODY))
        b = service.request_fingerprint(service.parse_simulate(dict(SIM_BODY)))
        c = service.request_fingerprint(
            service.parse_simulate(dict(SIM_BODY, procs=8)))
        service.close()
        assert a == b
        assert a != c

    def test_truncated_result_artifact_is_recomputed(self, tmp_path):
        """A damaged result entry under serve is a miss, never an error."""
        service = make_service(tmp_path)
        run(service.answer("simulate", dict(SIM_BODY)))
        warm = run(service.answer("simulate", dict(SIM_BODY)))
        key = service.parse_simulate(SIM_BODY).jobs[0].fingerprint()
        path = service.cache._path(KIND_RESULT, key)
        path.write_bytes(path.read_bytes()[:10])
        dispatched = service.dispatched
        record = service.new_record("simulate")
        again = run(service.answer("simulate", dict(SIM_BODY), record))
        rewarm = run(service.answer("simulate", dict(SIM_BODY)))
        service.close()
        assert record.source == "computed"
        assert service.dispatched == dispatched + 1
        # A computed payload adds its own phase timings; the results match.
        recomputed = json.loads(again.decode())
        recomputed.pop("phases", None)
        assert recomputed == json.loads(warm.decode())
        assert rewarm == warm
        assert service.cache.load(KIND_RESULT, key) is not None


    def test_stored_front_end_serves_another_scheme(self, tmp_path):
        """A cold request for a second scheme of one workload loads the
        prepared front end the first request stored: no compile, no trace."""
        service = make_service(tmp_path)
        first = run(service.answer("simulate", dict(SIM_BODY,
                                                    schemes=["tpi"])))
        second = run(service.answer("simulate", dict(SIM_BODY,
                                                     schemes=["hw"])))
        service.close()
        assert service.dispatched == 2
        assert "trace" in json.loads(first.decode())["phases"]
        phases = json.loads(second.decode())["phases"]
        assert "compile" not in phases and "trace" not in phases
        assert "engine" in phases


class TestServiceValidation:
    @pytest.mark.parametrize("body,fragment", [
        ({"workload": "nope"}, "unknown workload"),
        ({"workload": "ocean", "schemes": ["bogus"]}, "unknown scheme"),
        ({"workload": "ocean", "engine": "warp"}, "unknown engine"),
        ({"workload": "ocean", "procs": -1}, "procs"),
        ({"workload": "ocean", "procs": 10**9}, "REPRO_MAX_PROCS"),
        ([], "JSON object"),
        ({"workload": "ocean", "engine": "gang"}, "unknown engine"),
    ])
    def test_simulate_rejections(self, tmp_path, body, fragment):
        service = make_service(tmp_path)
        with pytest.raises(ServeError) as err:
            service.parse_simulate(body)
        service.close()
        assert err.value.status == 400
        assert fragment in str(err.value)

    @pytest.mark.parametrize("body,fragment", [
        ({"workload": "ocean"}, "axes"),
        ({"workload": "ocean", "axes": ["voltage=1"]}, "unknown axis"),
        ({"workload": "ocean", "axes": ["line=abc"]}, "integers"),
    ])
    def test_sweep_rejections(self, tmp_path, body, fragment):
        service = make_service(tmp_path)
        with pytest.raises(ServeError) as err:
            service.parse_sweep(body)
        service.close()
        assert err.value.status == 400
        assert fragment in str(err.value)

    def test_error_requests_are_counted(self, tmp_path):
        service = make_service(tmp_path)
        with pytest.raises(ServeError):
            run(service.answer("simulate", {"workload": "nope"}))
        service.close()
        assert service.telemetry.serve_errors == 1


class TestDifferentialAgainstCli:
    """Server responses == CLI --json bytes for the same fingerprints."""

    def warm_cli(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        out = {}
        for name, argv in {
            "simulate": ["simulate", "ocean", "--size", "small",
                         "--procs", "4", "--scheme", "tpi",
                         "--scheme", "hw"],
            "sweep": ["sweep", "ocean", "--axis", "line=1,4",
                      "--scheme", "tpi", "--size", "small"],
        }.items():
            # Twice: the second (fully warm) run has deterministic
            # telemetry-derived fields (no phases, zero counters).
            for attempt in (1, 2):
                path = tmp_path / f"{name}{attempt}.json"
                assert main([*argv, "--json", str(path)]) == 0
            out[name] = (tmp_path / f"{name}2.json").read_bytes()
        return cache_dir, out

    def test_server_bytes_match_cli_json(self, tmp_path, monkeypatch, capsys):
        cache_dir, cli = self.warm_cli(tmp_path, monkeypatch)
        service = SimulationService(cache=ArtifactCache(cache_dir))

        async def go():
            return (await service.answer("simulate", dict(SIM_BODY)),
                    await service.answer("sweep", dict(SWEEP_BODY)))

        srv_sim, srv_swp = run(go())
        service.close()
        assert srv_sim == cli["simulate"]
        assert srv_swp == cli["sweep"]
        # and both were pure cache hits — the pool never started
        assert service.dispatched == 0
        assert service.telemetry.serve_hits == 2


class TestHttpServer:
    """End-to-end over a real socket."""

    @pytest.fixture
    def served(self, tmp_path):
        service = make_service(tmp_path)
        server = ServeServer(service, host="127.0.0.1", port=0)
        yield service, server

    @staticmethod
    def _post(port, path, body):
        req = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}",
            data=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"})
        return urllib.request.urlopen(req)

    @staticmethod
    def _get(port, path):
        return urllib.request.urlopen(f"http://127.0.0.1:{port}{path}")

    def _with_server(self, server, fn):
        async def go():
            await server.start()
            loop = asyncio.get_running_loop()
            try:
                return await loop.run_in_executor(None, fn, server.port)
            finally:
                await server.shutdown()

        return run(go())

    def test_simulate_sweep_and_introspection(self, served):
        service, server = served

        def client(port):
            sim = self._post(port, "/simulate", SIM_BODY)
            sim_body = sim.read()
            job_id = sim.headers["X-Repro-Job"]
            swp = self._post(port, "/sweep", SWEEP_BODY).read()
            health = json.loads(self._get(port, "/healthz").read())
            stats = json.loads(self._get(port, "/stats").read())
            record = json.loads(self._get(port, f"/jobs/{job_id}").read())
            return sim_body, swp, health, stats, record, job_id

        sim_body, swp, health, stats, record, job_id = \
            self._with_server(server, client)
        payload = json.loads(sim_body.decode())
        assert set(SIM_BODY["schemes"]) <= set(payload)
        assert json.loads(swp.decode())["points"]
        assert health["status"] == "ok"
        assert stats["requests"]["total"] == 2
        assert stats["requests"]["dispatched"] == 2
        assert stats["latency"]["samples"] == 2
        assert record["job"] == job_id
        assert record["status"] == "done"
        assert record["result"] == payload

    def test_detach_and_poll(self, served):
        service, server = served

        def client(port):
            resp = self._post(port, "/simulate",
                              dict(SIM_BODY, detach=True))
            ticket = json.loads(resp.read())
            assert resp.status == 202
            for _ in range(200):
                record = json.loads(
                    self._get(port, f"/jobs/{ticket['job']}").read())
                if record["status"] in ("done", "error"):
                    return ticket, record
                import time
                time.sleep(0.05)
            raise AssertionError("detached job never finished")

        ticket, record = self._with_server(server, client)
        assert ticket["status"] == "pending"
        assert record["status"] == "done"
        assert "result" in record

    def test_error_statuses(self, served):
        service, server = served

        def client(port):
            codes = {}
            for name, fn in {
                "unknown_route": lambda: self._get(port, "/nope"),
                "unknown_job": lambda: self._get(port, "/jobs/zzz"),
                "get_on_post": lambda: self._get(port, "/simulate"),
                "bad_json": lambda: urllib.request.urlopen(
                    urllib.request.Request(
                        f"http://127.0.0.1:{port}/simulate",
                        data=b"{not json")),
                "bad_workload": lambda: self._post(
                    port, "/simulate", {"workload": "nope"}),
                "bad_artifact": lambda: self._get(
                    port, "/artifact/result/zz"),
            }.items():
                try:
                    fn()
                    codes[name] = 200
                except urllib.error.HTTPError as err:
                    codes[name] = err.code
            return codes

        codes = self._with_server(server, client)
        assert codes == {"unknown_route": 404, "unknown_job": 404,
                         "get_on_post": 405, "bad_json": 400,
                         "bad_workload": 400, "bad_artifact": 404}

    def test_cached_artifacts_are_not_served_raw(self, served):
        service, server = served
        key = "ab" + "0" * 62
        service.cache.store(KIND_RESULT, key, {"payload": 42})

        def client(port):
            try:
                self._get(port, f"/artifact/result/{key}")
            except urllib.error.HTTPError as err:
                return err.code
            return 200

        assert self._with_server(server, client) == 404

    @staticmethod
    def _raw(port, data, half_close):
        """Send raw bytes; return the status line of the response."""
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10) as sock:
            sock.sendall(data)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        return b"".join(chunks).split(b"\r\n", 1)[0].decode()

    SHORT_BODY = (b"POST /simulate HTTP/1.1\r\nContent-Length: 100\r\n"
                  b"\r\n{}")

    @pytest.mark.parametrize("data,half_close", [
        (b"GARBAGE\r\n\r\n", False),
        (b"POST /simulate HTTP/1.1\r\nContent-Length: abc\r\n\r\n{}",
         False),
        (SHORT_BODY, True),
        (SHORT_BODY, False),
    ], ids=["request_line", "content_length", "short_body",
            "short_body_held_open"])
    def test_malformed_requests_get_400(self, served, monkeypatch, data,
                                        half_close):
        service, server = served
        # Only the held-open body waits out the timer.
        monkeypatch.setattr(server_module, "_REQUEST_TIMEOUT_S", 0.2)
        status = self._with_server(
            server, lambda port: self._raw(port, data, half_close))
        assert status == "HTTP/1.1 400 Bad Request"
        assert service.telemetry.serve_errors == 1


class TestServeCliErrors:
    def test_unknown_engine_is_usage_error(self, capsys):
        for engine in ("warp", "gang"):
            code = main(["simulate", "ocean", "--size", "small",
                         "--engine", engine])
            err = capsys.readouterr().err
            assert code == 2
            assert err.count("\n") == 1  # one line, no traceback
            assert f"unknown engine {engine!r}" in err
            assert "fast, reference" in err

    def test_unknown_flag_exits_2_one_line(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "ocean", "--size", "small", "--warp-drive"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err == "repro: error: unrecognized arguments: --warp-drive\n"

    def test_unbindable_host_is_usage_error(self, capsys):
        code = main(["serve", "--host", "256.1.1.1", "--port", "80"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cannot bind 256.1.1.1:80")
        assert "Traceback" not in err

    def test_empty_peer_list_is_still_accepted(self, capsys):
        code = main(["serve", "--host", "256.1.1.1", "--port", "80",
                     "--peers", ""])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cannot bind 256.1.1.1:80")

    def test_peer_list_is_refused_before_binding(self, capsys):
        code = main(["serve", "--host", "256.1.1.1", "--port", "80",
                     "--peers", "/some/dir"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == ("error: --peers was removed; repro serve reads only "
                       "its own --cache-dir\n")

    def test_sweep_unknown_axis_exits_2_one_line(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "ocean", "--axis", "voltage=1,2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown axis 'voltage'" in err
