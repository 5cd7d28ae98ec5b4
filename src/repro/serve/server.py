"""Minimal asyncio HTTP/1.1 front end for the simulation service.

Pure stdlib (``asyncio`` streams; no framework): requests are parsed by
hand, one connection per request (``Connection: close``), bodies are
JSON.  Routes:

=======  =========================  ===========================================
Method   Path                       Purpose
=======  =========================  ===========================================
POST     ``/simulate``              run schemes on a workload (CLI payload)
POST     ``/sweep``                 run a grid study (CLI payload)
GET      ``/jobs/<id>``             status/result of a recorded request
GET      ``/healthz``               liveness probe
GET      ``/stats``                 service counters, latency percentiles
=======  =========================  ===========================================

``POST`` bodies accept ``{"detach": true}`` to get a ``202`` with a job
id immediately and poll ``GET /jobs/<id>``; synchronous responses carry
their job id in the ``X-Repro-Job`` header instead, keeping the body
byte-identical to the CLI ``--json`` file for the same fingerprints.

Shutdown is graceful: the listener closes first, then in-flight and
detached requests drain (bounded by ``drain_timeout``), then the
dispatch pool stops.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Dict, Optional, Tuple

from repro.common.errors import ReproError
from repro.serve.payloads import json_bytes
from repro.serve.service import ServeError, SimulationService

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 500: "Internal Server Error"}
_MAX_BODY = 1 << 20  # 1 MiB of JSON is far beyond any legal request
_REQUEST_TIMEOUT_S = 30.0  # bound on reading one request's head and body


class ServeServer:
    """Owns the listening socket and routes connections to the service."""

    def __init__(self, service: SimulationService,
                 host: str = "127.0.0.1", port: int = 8089,
                 drain_timeout: float = 30.0):
        self.service = service
        self.host = host
        self.port = port
        self.drain_timeout = drain_timeout
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping = asyncio.Event()

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Bind and listen; raises ``OSError`` when the address is bad."""
        self._server = await asyncio.start_server(self._handle, self.host,
                                                  self.port)
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def serve_until_stopped(self) -> None:
        await self._stopping.wait()
        await self.shutdown()

    def request_stop(self) -> None:
        self._stopping.set()

    async def shutdown(self) -> None:
        """Stop accepting, drain in-flight work, stop the dispatch pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.drain(timeout=self.drain_timeout)
        self.service.close()

    # ----------------------------------------------------------- connection

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                # One timer bounds the head and the body together.
                request = await asyncio.wait_for(self._read_request(reader),
                                                 timeout=_REQUEST_TIMEOUT_S)
                if request is None:
                    return
                status, payload, extra = await self._route(*request)
            except asyncio.TimeoutError:
                self.service.telemetry.serve_errors += 1
                status, payload, extra = 400, {
                    "error": f"request incomplete after "
                             f"{_REQUEST_TIMEOUT_S:g} s"}, {}
            except ServeError as exc:  # malformed request, before routing
                self.service.telemetry.serve_errors += 1
                status, payload, extra = exc.status, {"error": str(exc)}, {}
            await self._respond(writer, status, payload, extra)
        except ConnectionError:
            pass
        except Exception as exc:  # last-resort 500, connection still closes
            try:
                await self._respond(writer, 500, {"error": str(exc)})
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Optional[Tuple[str, str, bytes]]:
        """``(method, path, body)``; ``None`` when no request head arrived.

        Raises :class:`ServeError` (400) for a malformed head, a bad
        ``Content-Length`` or a body shorter than it.
        """
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return None
        method, path, headers = self._parse_head(head)
        try:
            length = int(headers.get("content-length") or "0")
        except ValueError:
            raise ServeError(400, "invalid content-length") from None
        if length < 0 or length > _MAX_BODY:
            raise ServeError(400, "unreasonable content-length")
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError:
            raise ServeError(400, "request body shorter than "
                                  "content-length") from None
        return method, path, body

    @staticmethod
    def _parse_head(head: bytes) -> Tuple[str, str, Dict[str, str]]:
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) < 2:
            raise ServeError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        path = target.partition("?")[0]
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        return method, path, headers

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: Any,
                       extra: Optional[Dict[str, str]] = None) -> None:
        body = payload if isinstance(payload, bytes) else json_bytes(payload)
        reason = _REASONS.get(status, "Unknown")
        headers = [f"HTTP/1.1 {status} {reason}",
                   "Content-Type: application/json",
                   f"Content-Length: {len(body)}",
                   "Connection: close"]
        for name, value in (extra or {}).items():
            headers.append(f"{name}: {value}")
        writer.write("\r\n".join(headers).encode("latin-1") + b"\r\n\r\n"
                     + body)
        await writer.drain()

    # -------------------------------------------------------------- routing

    async def _route(self, method: str, path: str,
                     body: bytes) -> Tuple[int, Any, Dict[str, str]]:
        try:
            if path == "/healthz" and method == "GET":
                return 200, {"status": "ok",
                             "uptime_s": round(time.time()
                                               - self.service.started_at, 3)}, {}
            if path == "/stats" and method == "GET":
                return 200, self.service.stats_payload(), {}
            if path in ("/simulate", "/sweep"):
                if method != "POST":
                    return 405, {"error": f"{path} requires POST"}, {}
                return await self._route_request(path.lstrip("/"), body)
            if path.startswith("/jobs/") and method == "GET":
                record = self.service.get_record(path[len("/jobs/"):])
                return 200, record.to_dict(), {}
            return 404, {"error": f"no route for {method} {path}"}, {}
        except ServeError as exc:
            self.service.telemetry.serve_errors += 1
            return exc.status, {"error": str(exc)}, {}
        except ReproError as exc:
            self.service.telemetry.serve_errors += 1
            return 400, {"error": str(exc)}, {}

    async def _route_request(self, kind: str,
                             body: bytes) -> Tuple[int, Any, Dict[str, str]]:
        try:
            request = json.loads(body.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(request, dict):
            raise ServeError(400, "request body must be a JSON object")
        if request.pop("detach", False):
            record = self.service.submit_detached(kind, request)
            return 202, record.to_dict(include_result=False), {}
        record = self.service.new_record(kind)
        try:
            payload = await self.service.answer(kind, request, record)
        except ReproError as exc:
            # ``answer`` has already counted the failed request.
            return getattr(exc, "status", 400), {"error": str(exc)}, {}
        return 200, payload, {"X-Repro-Job": record.id}
