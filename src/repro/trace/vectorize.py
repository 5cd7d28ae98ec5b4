"""Vectorized DOALL trace generation: symbolic templates + broadcasting.

The per-iteration interpreter in :mod:`repro.trace.generate` re-walks a
DOALL body once per iteration, re-evaluating every subscript and
buffering every event individually.  In all six paper workloads
the bodies are *affine*: once the enclosing scalar environment is fixed,
every executed subscript is ``coeff * i + const`` in the iteration
variable ``i``, branch conditions and inner serial-loop bounds are
iteration-independent, and there is no synchronization.  For such bodies
the event stream of iteration ``i`` is a fixed *template* with only the
addresses (affinely) and the work carry depending on ``i`` — so the whole
epoch can be expanded with one numpy broadcast.

:func:`extract_template` symbolically executes a DOALL body once; every
symbolic value is ``(coeff, const)`` over the single DOALL index, so the
walk is plain integer arithmetic (no :class:`~repro.ir.expr.Affine`
allocation on the hot path).  Extraction is *pure* — it never mutates
generator state — so returning ``None`` simply falls back to the
interpreter with identical observable behavior, including error
behavior: every condition that makes extraction fail either reproduces
exactly under the interpreter or raises there, and bounds violations are
re-detected by :func:`expand_epoch`'s min/max check before any event is
emitted.

Fallback (interpreter) triggers, checked per construct:

* task migration enabled (the caller never attempts extraction);
* critical sections (LOCK/UNLOCK events, ``in_critical`` marking);
* a nested parallel loop (the interpreter raises on these);
* an ``If`` condition or serial-loop bound that is not a known constant
  after substitution (iteration-dependent control flow);
* a subscript or scalar assignment reading an unbound symbol;
* a scalar that is read from the enclosing environment and then rebound
  inside the body (by an assignment or a serial loop's index) — its
  value would leak across iterations;
* templates above :data:`MAX_TEMPLATE_EVENTS` events or extraction above
  :data:`MAX_STEPS` node visits (unroll explosion guard).

Extraction reads the scalar environment only through recorded lookups,
so its result is a deterministic function of the loop and the *consumed*
projection of the environment — which is what lets the generator cache
templates across repeated executions of the same DOALL (e.g. inside a
serial time loop) and revalidate them with a handful of dict lookups.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ir.program import (
    Call,
    CriticalSection,
    If,
    Loop,
    Program,
    ScalarAssign,
    Statement,
)
from repro.trace.columnar import KIND_READ, KIND_WRITE, TaskColumns
from repro.trace.layout import MemoryLayout

#: Largest per-iteration template worth materializing (serial unrolling
#: inside a DOALL body can explode; past this the interpreter is fine).
MAX_TEMPLATE_EVENTS = 4096
#: Node-visit budget for one extraction (guards event-free unrolling).
MAX_STEPS = 65536
_MAX_CALL_DEPTH = 32

_CMP = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge, "==": operator.eq, "!=": operator.ne}

#: Sentinel symbolic value for a name a serial loop popped: the
#: interpreter leaves it unbound, so any later read must fall back.
_POPPED = object()


class Template:
    """Symbolic execution of one DOALL iteration, affine in the index.

    ``events`` rows are ``(code, site, array, addr_coeff, addr_const,
    shared, work)`` with the array base address excluded from the const;
    ``bounds`` rows are ``(coeff, const, extent)`` per checked subscript
    dimension; ``trailing`` is the compute left pending after the last
    event; ``consumed`` is the environment projection extraction read
    (``None`` marking a name that was looked up and absent), which the
    caller uses to revalidate cached templates.
    """

    __slots__ = ("events", "bounds", "trailing", "consumed", "_np", "_bases")

    def __init__(self, events, bounds, trailing, consumed):
        self.events: List[Tuple[int, int, str, int, int, bool, int]] = events
        self.bounds: List[Tuple[int, int, int]] = bounds
        self.trailing = trailing
        self.consumed: Dict[str, Optional[int]] = consumed
        self._np = None
        self._bases: Dict[int, np.ndarray] = {}

    def matches(self, env: Dict[str, int]) -> bool:
        """Is this template valid under ``env``?  (Same consumed values.)"""
        return all(env.get(name) == value
                   for name, value in self.consumed.items())

    def arrays(self):
        """Per-event numpy columns (cached): code/site/coeff/const/shared/
        work plus the array-name indirection for base lookup."""
        if self._np is None:
            ev = self.events
            n = len(ev)
            names = sorted({e[2] for e in ev})
            index = {name: i for i, name in enumerate(names)}
            self._np = (
                np.fromiter((e[0] for e in ev), np.uint8, n),
                np.fromiter((e[1] for e in ev), np.int64, n),
                np.fromiter((e[3] for e in ev), np.int64, n),
                np.fromiter((e[4] for e in ev), np.int64, n),
                np.fromiter((e[5] for e in ev), bool, n),
                np.fromiter((e[6] for e in ev), np.int64, n),
                names,
                np.fromiter((index[e[2]] for e in ev), np.intp, n),
            )
        return self._np

    def base_row(self, layout: MemoryLayout, proc: int) -> np.ndarray:
        """Per-event base addresses under ``layout`` for ``proc`` (cached;
        one generator run uses one layout, so the cache never grows)."""
        row = self._bases.get(proc)
        if row is None:
            *_, names, ev_arr = self.arrays()
            bases = np.fromiter((layout.base(name, proc) for name in names),
                                np.int64, len(names))
            row = bases[ev_arr]
            self._bases[proc] = row
        return row

    @property
    def private_arrays(self) -> bool:
        # Extraction only runs with migration disabled, where the shared
        # flag is exactly "the array is declared shared".
        return any(not e[5] for e in self.events)


class _Fail(Exception):
    """Internal: body is outside the affine-template fragment."""


class _Extractor:
    def __init__(self, program: Program, index: str, env: Dict[str, int]):
        self.program = program
        self.index = index
        self.env = env  # never mutated; read via _lookup only
        self.consumed: Dict[str, Optional[int]] = {}
        self.sym: Dict[str, object] = {}  # local (coeff, const) bindings
        self.events: List[Tuple[int, int, str, int, int, bool, int]] = []
        self.bounds: List[Tuple[int, int, int]] = []
        self.pending = 0
        self.steps = 0

    # ------------------------------------------------------------ helpers

    def _lookup(self, name: str) -> Tuple[int, int]:
        value = self.sym.get(name)
        if value is not None:
            if value is _POPPED:
                raise _Fail  # unbound after a serial loop's env.pop
            return value  # type: ignore[return-value]
        if name == self.index:
            return (1, 0)
        if name in self.consumed:
            bound = self.consumed[name]
        else:
            bound = self.env.get(name)
            self.consumed[name] = bound
        if bound is None:
            raise _Fail  # unbound symbol: the interpreter raises on this
        return (0, bound)

    def _sub(self, expr) -> Tuple[int, int]:
        """Evaluate an :class:`Affine` to ``(coeff, const)`` over the index."""
        coeff, const = 0, expr.const
        for name, c in expr.terms:
            k, v = self._lookup(name)
            coeff += c * k
            const += c * v
        return coeff, const

    def _const(self, expr) -> int:
        coeff, const = self._sub(expr)
        if coeff:
            raise _Fail  # iteration-dependent control flow
        return const

    def _bind(self, name: str, value) -> None:
        """A within-body rebinding (assignment or serial-loop index).

        If the enclosing environment's value of ``name`` was already read
        this body, iterations after the first would observe the previous
        iteration's leftover binding instead — fall back.
        """
        if name in self.consumed:
            raise _Fail
        self.sym[name] = value

    # -------------------------------------------------------------- walk

    def body(self, nodes, depth: int) -> None:
        for node in nodes:
            self.steps += 1
            if self.steps > MAX_STEPS:
                raise _Fail
            if isinstance(node, Statement):
                self.statement(node)
            elif isinstance(node, ScalarAssign):
                self._bind(node.name, self._sub(node.expr))
            elif isinstance(node, Loop):
                if node.parallel:
                    raise _Fail  # interpreter raises on nested DOALLs
                self.serial_loop(node, depth)
            elif isinstance(node, If):
                lhs = self._const(node.cond.lhs)
                rhs = self._const(node.cond.rhs)
                taken = _CMP[node.cond.op](lhs, rhs)
                self.body(node.then if taken else node.els, depth)
            elif isinstance(node, Call):
                if depth >= _MAX_CALL_DEPTH:
                    raise _Fail
                self.body(self.program.procedures[node.callee].body, depth + 1)
            elif isinstance(node, CriticalSection):
                raise _Fail  # lock events / in_critical marking
            else:  # pragma: no cover - closed union
                raise _Fail

    def serial_loop(self, loop: Loop, depth: int) -> None:
        lo, hi = self._const(loop.lo), self._const(loop.hi)
        if loop.index in self.consumed:
            # The body already read this name from the enclosing
            # environment; the loop rebinds and then *pops* it (even with
            # zero iterations), so later iterations would see different
            # bindings than the first — fall back.
            raise _Fail
        for value in range(lo, hi + (1 if loop.step > 0 else -1), loop.step):
            self.sym[loop.index] = (0, value)
            self.body(loop.body, depth)
        # Mirror ``env.pop(loop.index, None)``: unbound afterwards.
        self.sym[loop.index] = _POPPED

    def statement(self, stmt: Statement) -> None:
        self.pending += stmt.work
        arrays = self.program.arrays
        for ref, code in [(r, KIND_READ) for r in stmt.reads] + \
                         [(w, KIND_WRITE) for w in stmt.writes]:
            array = arrays[ref.array]
            flat_k = flat_c = 0
            for sub, extent in zip(ref.subscripts, array.shape):
                k, c = self._sub(sub)
                self.bounds.append((k, c, extent))
                flat_k = flat_k * extent + k
                flat_c = flat_c * extent + c
            words = array.element_words
            word_k, word_c = flat_k * words, flat_c * words
            shared = array.sharing.value == "shared"
            if len(self.events) + words > MAX_TEMPLATE_EVENTS:
                raise _Fail
            for offset in range(words):
                work, self.pending = self.pending, 0
                self.events.append((code, ref.site, ref.array,
                                    word_k, word_c + offset, shared, work))


def _extract(program: Program, loop: Loop, env: Dict[str, int]):
    """Run one extraction; returns ``(template_or_None, consumed)``."""
    extractor = _Extractor(program, loop.index, env)
    try:
        extractor.body(loop.body, 0)
    except _Fail:
        return None, extractor.consumed
    return (Template(extractor.events, extractor.bounds, extractor.pending,
                     extractor.consumed),
            extractor.consumed)


def extract_template(program: Program, loop: Loop,
                     env: Dict[str, int]) -> Optional[Template]:
    """Symbolically execute ``loop.body`` under ``env``; pure.

    Returns the per-iteration template, or ``None`` when the body falls
    outside the affine fragment (see module docstring for the triggers).
    """
    return _extract(program, loop, env)[0]


class TemplateCache:
    """Per-run memo of extraction results, keyed by loop identity.

    Extraction reads the environment only through recorded lookups, so a
    cached result (template *or* rejection) stays valid for any
    environment agreeing on the consumed values — a DOALL inside a serial
    time loop revalidates with a few dict probes instead of re-walking
    its body.  Keyed by ``id(loop)``; the program (and its loop nodes)
    outlives the generator run holding this cache, and cached templates
    also carry layout-derived base rows, so the cache must not outlive
    the run's (program, layout) pair.
    """

    _LIMIT = 8  # distinct consumed projections kept per loop

    def __init__(self) -> None:
        self._memo: Dict[int, List[Tuple[Dict[str, Optional[int]],
                                         Optional[Template]]]] = {}

    def get(self, program: Program, loop: Loop,
            env: Dict[str, int]) -> Optional[Template]:
        entries = self._memo.setdefault(id(loop), [])
        for consumed, result in entries:
            if all(env.get(name) == value
                   for name, value in consumed.items()):
                return result
        result, consumed = _extract(program, loop, env)
        if len(entries) < self._LIMIT:
            entries.append((consumed, result))
        return result


def _empty_task(proc: int, extra_work: int = 0) -> TaskColumns:
    return TaskColumns(
        proc=proc, extra_work=extra_work,
        kind=np.zeros(0, np.uint8), addr=np.zeros(0, np.int64),
        site=np.zeros(0, np.int64), work=np.zeros(0, np.int64),
        shared=np.zeros(0, bool), in_critical=np.zeros(0, bool),
        lock=np.zeros(0, np.int32))


def _charge_master(columns: List[TaskColumns], leftover: int) -> None:
    """Trailing work with no event to attach to goes to the master task,
    exactly like the interpreter's rule (creating it if necessary)."""
    if columns and columns[0].proc == 0:
        columns[0].extra_work += leftover
    else:
        columns.insert(0, _empty_task(0, leftover))


def expand_epoch(template: Template, values: Sequence[int],
                 assignments: Sequence[Tuple[int, List[int]]],
                 layout: MemoryLayout) -> Optional[List[TaskColumns]]:
    """Broadcast ``template`` over a scheduled iteration space.

    ``assignments`` is :func:`repro.trace.schedule.schedule_iterations`
    output (processor order — the interpreter's execution order, which
    fixes how trailing work carries between consecutive iterations).
    Returns per-task columns in the same order, or ``None`` if any
    subscript would leave its array bounds for some iteration (the
    caller then re-runs the interpreter, which raises the identical
    error at the first faulting iteration).
    """
    if values:
        vmin, vmax = min(values), max(values)
        for coeff, const, extent in template.bounds:
            lo, hi = coeff * vmin + const, coeff * vmax + const
            if lo > hi:
                lo, hi = hi, lo
            if lo < 0 or hi >= extent:
                return None

    n_ev = len(template.events)
    trailing = template.trailing
    n_total = sum(len(iterations) for _, iterations in assignments)
    if n_ev == 0:
        # Every participating processor still gets an (empty) task — the
        # reference engine's barrier accounting counts tasks, not events.
        columns = [_empty_task(proc) for proc, _ in assignments]
        if trailing and n_total:
            _charge_master(columns, trailing * n_total)
        return columns

    ev_code, ev_site, ev_coeff, ev_const, ev_shared, ev_work, _, _ = \
        template.arrays()
    v_all = np.fromiter(
        (v for _, iterations in assignments for v in iterations),
        np.int64, n_total)
    addr = (v_all[:, None] * ev_coeff + ev_const).reshape(-1)
    kind = np.tile(ev_code, n_total)
    site = np.tile(ev_site, n_total)
    shared = np.tile(ev_shared, n_total)
    work = np.tile(ev_work, n_total)
    if trailing and n_total:
        # Pending work left by iteration g-1 lands on the first event of
        # iteration g; the globally first iteration has no carry.
        work[::n_ev] += trailing
        work[0] -= trailing
    n = n_total * n_ev
    in_critical = np.zeros(n, bool)
    lock = np.full(n, -1, np.int32)

    per_proc_bases = template.private_arrays
    if not per_proc_bases and assignments:
        addr += np.tile(template.base_row(layout, 0), n_total)

    columns: List[TaskColumns] = []
    start = 0
    for proc, iterations in assignments:
        stop = start + len(iterations) * n_ev
        if per_proc_bases:
            addr[start:stop] += np.tile(template.base_row(layout, proc),
                                        len(iterations))
        columns.append(TaskColumns(
            proc=proc, extra_work=0,
            kind=kind[start:stop], addr=addr[start:stop],
            site=site[start:stop], work=work[start:stop],
            shared=shared[start:stop], in_critical=in_critical[start:stop],
            lock=lock[start:stop]))
        start = stop

    if trailing and n_total:
        _charge_master(columns, trailing)
    return columns
