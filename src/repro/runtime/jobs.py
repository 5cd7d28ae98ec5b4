"""Job descriptions and deterministic fingerprints.

A :class:`Job` names one (program, machine, scheme, front-end options)
simulation.  Two fingerprints are derived from it:

* :meth:`Job.prepare_fingerprint` — identifies the compiler/trace
  *front-end* artifacts.  Only the machine fields the front end actually
  reads participate (:data:`TRACE_MACHINE_FIELDS`: processor count and
  schedule policy — the memory layout is fixed-aligned, see
  :mod:`repro.trace.layout`); back-end knobs such as cache geometry,
  timetag width, write buffer, and latencies do not.  Jobs sharing it can
  share one :class:`~repro.sim.runner.PreparedRun`; the executor groups by
  this key, so one trace generation feeds every scheme *and every
  back-end variant* of a sweep cell (the gang path).
* :meth:`Job.fingerprint` — identifies the finished
  :class:`~repro.sim.metrics.SimResult` (front-end key + the back-end
  machine fields + scheme).

Fingerprints are content hashes over a *canonical* JSON rendering of the
configuration (dataclasses flattened, enums replaced by their values, dict
keys sorted) plus a digest of the program listing — never over object
identities — so they are stable across processes and interpreter runs.
The salt from :mod:`repro.runtime.cache` is mixed in, so any edit to the
package's code invalidates every cached artifact at once.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.common.config import MachineConfig
from repro.compiler.marking import MarkingOptions
from repro.ir.pprint import format_program
from repro.ir.program import Program
from repro.trace.schedule import MigrationSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sweep imports us)
    from repro.sim.sweep import Sweep

#: Machine fields the compiler/trace front end reads.  Everything else on
#: :class:`MachineConfig` only affects the back-end simulation, so it
#: belongs in the result fingerprint, not the prepare fingerprint.
TRACE_MACHINE_FIELDS = ("n_procs", "schedule")


def split_machine(machine: MachineConfig) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Split a machine into (trace-relevant, back-end-only) plain dicts.

    ``engine`` appears in neither half — the engines are differentially
    tested to be bit-identical, so the choice never keys an artifact
    (cache entries are shared across engines).
    """
    plain = _plain(machine)
    plain.pop("engine", None)
    front = {name: plain.pop(name) for name in TRACE_MACHINE_FIELDS}
    return front, plain


def _plain(value: Any) -> Any:
    """Reduce a config value to JSON-serializable plain data."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def canonical_json(value: Any) -> str:
    """Deterministic JSON rendering used for all fingerprints."""
    return json.dumps(_plain(value), sort_keys=True, separators=(",", ":"))


def program_digest(program: Program) -> str:
    """Content hash of a program: name, bound parameters, full listing."""
    payload = "\n".join([program.name,
                         canonical_json(program.params),
                         format_program(program)])
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class Job:
    """One simulation to run: a program on a machine under one scheme."""

    program: Program
    scheme: str
    machine: MachineConfig
    params: Optional[Dict[str, int]] = None
    opts: Optional[MarkingOptions] = None
    migration: Optional[MigrationSpec] = None
    tag: Any = None
    """Caller metadata carried through execution (sweep labels, experiment
    keys); never part of the fingerprint."""

    _digest: Optional[str] = field(default=None, repr=False, compare=False)
    _prepare_key: Optional[str] = field(default=None, repr=False, compare=False)

    def canonical(self) -> Dict[str, Any]:
        """The hashed front-end identity (program by digest, configs
        flattened).

        Only the trace-relevant half of the machine participates
        (:func:`split_machine`), so back-end variants of one cell hash to
        the same front end.  ``machine.engine`` is deliberately absent
        everywhere: the engines are differentially tested to produce
        bit-identical results, so they may share cached artifacts — which
        engine actually produced a cached ``SimResult`` is recorded on the
        artifact itself (``SimResult.engine``), not in its key.
        """
        from repro.runtime.cache import cache_salt

        return {
            "salt": cache_salt(),
            "program": self.digest,
            # split_machine's front half, without walking the back half
            "machine": {name: _plain(getattr(self.machine, name))
                        for name in TRACE_MACHINE_FIELDS},
            "params": _plain(self.params or {}),
            "opts": _plain(self.opts or MarkingOptions()),
            "migration": _plain(self.migration or MigrationSpec()),
        }

    @property
    def digest(self) -> str:
        if self._digest is None:
            self._digest = program_digest(self.program)
        return self._digest

    def prepare_fingerprint(self) -> str:
        """Key of the shareable front-end artifacts (no scheme)."""
        if self._prepare_key is None:
            text = canonical_json(self.canonical())
            self._prepare_key = hashlib.sha256(text.encode()).hexdigest()
        return self._prepare_key

    def fingerprint(self) -> str:
        """Key of the finished SimResult (front end + back end + scheme).

        The back-end machine fields dropped from the prepare key re-enter
        here: two jobs sharing a trace but differing in, say, line size or
        timetag width must never collide on a cached result.  Fields the
        scheme declares it never reads
        (:func:`repro.coherence.api.dead_config_fields`) are pruned first,
        so e.g. every timetag width of a fig15-style sweep names the *same*
        hardware-directory result and the executor computes it once.
        """
        text = ":".join([self.prepare_fingerprint(),
                         _backend_json(self.machine, self.scheme),
                         self.scheme])
        return hashlib.sha256(text.encode()).hexdigest()

    @property
    def label(self) -> str:
        return f"{self.program.name}/{self.scheme}"


@functools.lru_cache(maxsize=1024)
def _backend_json(machine: MachineConfig, scheme: str) -> str:
    """Canonical JSON of the machine's back-end half without the fields
    ``scheme`` never reads; memoized by value (``MachineConfig`` is
    frozen), so warm requests for one cell never re-walk the config."""
    from repro.coherence.api import dead_config_fields

    _front, back = split_machine(machine)
    for name in dead_config_fields(scheme):
        back.pop(name, None)
    return canonical_json(back)


def jobs_for_schemes(program: Program, schemes: Sequence[str],
                     machine: MachineConfig,
                     params: Optional[Dict[str, int]] = None,
                     opts: Optional[MarkingOptions] = None,
                     migration: Optional[MigrationSpec] = None,
                     tag: Any = None,
                     digest: Optional[str] = None) -> List[Job]:
    """One job per scheme over a shared front end (``simulate_all`` shape).

    ``digest`` is the program's :func:`program_digest` when the caller
    already has it; otherwise it is computed once here."""
    digest = digest or program_digest(program)
    return [Job(program=program, scheme=scheme, machine=machine,
                params=params, opts=opts, migration=migration, tag=tag,
                _digest=digest)
            for scheme in schemes]


def expand_sweep(sweep: "Sweep", digest: Optional[str] = None) -> List[Job]:
    """Flatten a sweep grid into jobs, in the order ``Sweep.run`` reports.

    Each job's ``tag`` is the cell's label dict; the program digest
    (``digest``, when the caller already has it) is computed at most
    once and shared across the whole grid.
    """
    import itertools

    if not sweep._axes:
        raise ValueError("sweep has no axes; add at least one")
    digest = digest or program_digest(sweep.program)
    names = [name for name, _ in sweep._axes]
    jobs: List[Job] = []
    for combo in itertools.product(*(axis for _, axis in sweep._axes)):
        machine = sweep.base
        labels: Dict[str, str] = {}
        for name, (label, transform) in zip(names, combo):
            machine = transform(machine)
            labels[name] = label
        for scheme in sweep.schemes:
            jobs.append(Job(program=sweep.program, scheme=scheme,
                            machine=machine, params=sweep.params,
                            tag=dict(labels), _digest=digest))
    return jobs

