"""The JSON payloads shared by the CLI ``--json`` flags and the server.

One builder per request kind, used verbatim by ``repro simulate --json``,
``repro sweep --json``, and the ``POST /simulate`` / ``POST /sweep``
routes — this sharing is what makes the server's differential guarantee
(``tests/test_serve.py``) hold: for the same job fingerprints a server
response is byte-identical to the CLI file, because both are the same
dict rendered through :func:`repro.runtime.write_json`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.runtime.telemetry import Telemetry, json_text


def json_bytes(payload: Any) -> bytes:
    """Render a payload exactly as ``write_json`` writes it to a file."""
    return json_text(payload).encode()


def phases_dict(telemetry: Optional[Telemetry]) -> Dict[str, float]:
    return {phase: round(seconds, 6)
            for phase, seconds in sorted((telemetry.phase_s if telemetry
                                          else {}).items())}


def simulate_payload(results: Dict[str, Any],
                     telemetry: Optional[Telemetry] = None) -> Dict[str, Any]:
    """``repro simulate --json`` shape: per-scheme results (+ phases).

    The ``phases`` key appears only when phase timings were recorded —
    a fully warm run (every result a cache hit) has none, which keeps
    warm payloads deterministic.
    """
    payload: Dict[str, Any] = {scheme: result.to_dict()
                               for scheme, result in results.items()}
    if telemetry is not None and telemetry.phase_s:
        payload["phases"] = phases_dict(telemetry)
    return payload


def sweep_payload(points: List[Any],
                  telemetry: Optional[Telemetry] = None) -> Dict[str, Any]:
    """``repro sweep --json`` shape: grid points + run counters."""
    t = telemetry if telemetry is not None else Telemetry()
    return {
        "points": [{"labels": point.labels, "scheme": point.scheme,
                    "result": point.result.to_dict()}
                   for point in points],
        "traces_generated": t.traces_generated,
        "gang": {"traces_shared": t.traces_shared,
                 "results_shared": t.results_shared,
                 "width": t.gang_width},
        "phases": phases_dict(t),
    }
