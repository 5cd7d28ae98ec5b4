"""Simulation-as-a-service: the long-lived HTTP front end.

``repro serve`` turns the one-shot runtime into a service: an asyncio
HTTP/JSON server whose responses are byte-identical to the CLI
``--json`` files, answered through a three-level dedup funnel (artifact
cache read-through, in-flight request coalescing by fingerprint,
scheme-dead config pruning) before anything reaches the worker pool.
See ``docs/SERVE.md`` for the API and the ops runbook.

    from repro.runtime import ArtifactCache
    from repro.serve import ServeConfig, ServeServer, SimulationService

    service = SimulationService(cache=ArtifactCache(), config=ServeConfig())
    server = ServeServer(service, host="127.0.0.1", port=8089)
"""

from repro.serve.payloads import json_bytes, simulate_payload, sweep_payload
from repro.serve.server import ServeServer
from repro.serve.service import (
    RequestRecord,
    ServeConfig,
    ServeError,
    SimulationService,
)

__all__ = [
    "RequestRecord",
    "ServeConfig",
    "ServeError",
    "ServeServer",
    "SimulationService",
    "json_bytes",
    "simulate_payload",
    "sweep_payload",
]
