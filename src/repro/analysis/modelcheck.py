"""Bounded-exhaustive model checking of the reconstructed TPI protocol.

The TPI semantics this repo simulates (k-bit timetags, per-array ``W``
registers, the two-phase reset) are a *reconstruction* from the ISCA-1996
paper, and the hypothesis suites reach the timetag wrap-around corners
only probabilistically.  This protocol module for
:mod:`repro.analysis.mc_core` expresses TPI as **guarded actions** over
an explicit abstract state, so the core can enumerate *every* reachable
state of tiny configurations.  Every protocol decision (freshness test,
R-1 fill rule, ``W`` epilogue update, reset-sweep phase geometry) is
taken from :mod:`repro.coherence.tpi_rules`, the same pure functions
:class:`~repro.coherence.tpi.TpiScheme` and the batch kernels execute.

The state is one flat tuple of ints, in this slot order: the epoch
counter ``R`` (full index; the k-bit view is taken inside the shared
rules), each array's write mode this epoch (``none``; ``excl``, a legal
DOALL with one writer per word; ``racy``, the illegal
write-write-conflict case), the per-array ``W`` registers, the ``excl``
single-writer guard per word, and per processor and word a ``(valid,
timetag, stale-since)`` slot group.  An invalid word is all zeros, so a
line that is not resident is an all-zero run of groups.
``stale-since`` is ghost state: the epoch of the earliest write the
copy misses.

Actions: ``advance`` picks the next epoch's plan, applies the ended
plan's ``W`` updates (may-write contract), bumps ``R`` and runs the
reset sweep where the phase rule says so; ``write p w`` (guarded by the
plan) write-allocates, stamps ``R`` and marks other valid copies stale;
``read p w ts|strict`` hits or fills under the shared rules, with a
timestamp Time-Read only where no same-epoch writer is possible (plain
reads are the compiler's claim, checked by the oracle and lint).

Invariant (**staleness safety**): a read hit never returns a word whose
stale-since epoch predates the current epoch.  Same-epoch races in
``racy`` plans are data races the paper never promises to order.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, replace
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.analysis import mc_core
from repro.analysis.diagnostics import Report
from repro.coherence import tpi_rules
from repro.common.errors import ConfigError

# Plan modes per array, per epoch.
PLAN_NONE = 0  # the epoch cannot write the array
PLAN_EXCL = 1  # legal DOALL: at most one task writes any given word
PLAN_RACY = 2  # illegal DOALL: cross-iteration write-write conflicts

_PLAN_NAMES = {PLAN_NONE: "-", PLAN_EXCL: "excl", PLAN_RACY: "racy"}

FRESH = -1  # stale-since sentinel: the copy reflects the latest write
NO_WRITER = -1

_WORD_SLOTS = 3  # a cached word: (valid, timetag, stale-since)
_INVALID_WORD = (0, 0, 0)


# --------------------------------------------------------------------- config


@dataclass(frozen=True)
class ModelConfig:
    """Bounds of one exhaustive enumeration.  Size adds interleavings,
    not behaviours: 2-3 processors and 1-2 lines of 1-2 words exercise
    every rule, both reset phases included over two counter wraps."""

    n_procs: int = 2
    n_lines: int = 1
    line_words: int = 1
    timetag_bits: int = 2
    max_epochs: int = 10
    allow_racy: bool = True

    def __post_init__(self) -> None:
        if not 2 <= self.n_procs <= 4:
            raise ConfigError("modelcheck needs 2..4 processors")
        if not 1 <= self.n_lines <= 3:
            raise ConfigError("modelcheck supports 1..3 lines")
        if not 1 <= self.line_words <= 4:
            raise ConfigError("modelcheck supports 1..4 words per line")
        if not 1 <= self.timetag_bits <= 4:
            raise ConfigError("modelcheck supports 1..4 timetag bits")
        if not 1 <= self.max_epochs <= 64:
            raise ConfigError("modelcheck supports 1..64 epochs")

    @property
    def modulus(self) -> int:
        return 1 << self.timetag_bits

    @property
    def phase_size(self) -> int:
        return 1 << (self.timetag_bits - 1)

    @property
    def n_words(self) -> int:
        return self.n_lines * self.line_words

    @property
    def wraps(self) -> int:
        """Counter wrap-arounds the epoch bound forces."""
        return self.max_epochs // self.modulus

    @property
    def plan_choices(self) -> Tuple[Tuple[int, ...], ...]:
        modes = ((PLAN_NONE, PLAN_EXCL, PLAN_RACY) if self.allow_racy
                 else (PLAN_NONE, PLAN_EXCL))
        return tuple(itertools.product(modes, repeat=self.n_lines))

    @property
    def label(self) -> str:
        return (f"p{self.n_procs}.l{self.n_lines}.w{self.line_words}"
                f".k{self.timetag_bits}.e{self.max_epochs}")

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


#: The CI gate: every config forces >= 2 counter wrap-arounds, covering
#: 2-3 processors, 1-2 lines, 1-2 words per line, and k = 2 and 3.  The
#: two-line config drops the racy plan mode (the one-line configs cover
#: it) to keep the grid well under a minute.
DEFAULT_CONFIGS: Tuple[ModelConfig, ...] = (
    ModelConfig(n_procs=2, n_lines=1, line_words=1, timetag_bits=2,
                max_epochs=10),
    ModelConfig(n_procs=2, n_lines=1, line_words=2, timetag_bits=2,
                max_epochs=10),
    ModelConfig(n_procs=3, n_lines=1, line_words=1, timetag_bits=2,
                max_epochs=9),
    ModelConfig(n_procs=2, n_lines=2, line_words=1, timetag_bits=2,
                max_epochs=8, allow_racy=False),
    ModelConfig(n_procs=2, n_lines=1, line_words=1, timetag_bits=3,
                max_epochs=17),
)


# ---------------------------------------------------------------- rule table


@dataclass(frozen=True)
class ProtocolRules:
    """The protocol decisions the checker consults, as swappable slots:
    the production :mod:`repro.coherence.tpi_rules` functions by default,
    deliberately broken variants in the mutation self-test."""

    name: str = "production"
    timestamp_hit: Callable[..., bool] = tpi_rules.timestamp_hit
    strict_hit: Callable[..., bool] = tpi_rules.strict_hit
    fill_tag: Callable[..., int] = tpi_rules.fill_tag
    w_register_update: Callable[..., int] = tpi_rules.w_register_update
    crossed_phase_bounds: Callable[..., Optional[Tuple[int, int]]] = (
        tpi_rules.crossed_phase_bounds)
    reset_selects: Callable[..., bool] = tpi_rules.reset_selects


PRODUCTION_RULES = ProtocolRules()


def _mutant_skip_second_phase(old_epoch, new_epoch, modulus, phase_size):
    bounds = tpi_rules.crossed_phase_bounds(old_epoch, new_epoch, modulus,
                                            phase_size)
    if bounds is not None and bounds[0] == 0:
        return None  # the sweep re-entering the low tag phase never fires
    return bounds


def protocol_mutants() -> Tuple[ProtocolRules, ...]:
    """Known protocol bugs the checker must detect (the self-test seeds)."""
    return (
        replace(PRODUCTION_RULES, name="drop-racy-bump",
                w_register_update=lambda epoch, racy: epoch),
        replace(PRODUCTION_RULES, name="fill-stamps-current",
                fill_tag=lambda epoch, accessed, stamp_current: epoch),
        replace(PRODUCTION_RULES, name="skip-second-reset-phase",
                crossed_phase_bounds=_mutant_skip_second_phase),
        replace(PRODUCTION_RULES, name="window-off-by-one",
                timestamp_hit=lambda epoch, tag, w_reg, modulus:
                tpi_rules.word_age(epoch, tag, modulus)
                <= tpi_rules.time_read_window(epoch, w_reg, modulus) + 1),
    )


# ------------------------------------------------------------ search results


@dataclass(frozen=True)
class Violation(mc_core.Violation):
    """One staleness-safety counterexample."""

    proc: int
    word: int
    mark: str
    tag: int
    stale_since: int
    epoch: int

    def render_action(self, action: Tuple) -> str:
        if action[0] == "advance":
            plan = ", ".join(f"A{a}:{_PLAN_NAMES[m]}"
                             for a, m in enumerate(action[1])
                             if m != PLAN_NONE) or "no writes"
            return f"epoch {action[2]} begins [{plan}]"
        if action[0] == "write":
            return f"  p{action[1]} writes w{action[2]}"
        return (f"  p{action[1]} {action[3]} Time-Read w{action[2]} "
                f"-> miss, line fill")

    def breach(self) -> str:
        return (f"  p{self.proc} {self.mark} Time-Read w{self.word} -> HIT "
                f"(tag {self.tag}, R {self.epoch}) on a copy stale since "
                f"epoch {self.stale_since}")

    def describe(self) -> str:
        return (f"{self.mark} Time-Read by p{self.proc} of w{self.word} at "
                f"epoch {self.epoch} hits a copy stale since epoch "
                f"{self.stale_since}")

    def detail(self) -> Dict[str, Any]:
        return {"proc": self.proc, "word": self.word, "mark": self.mark,
                "stale_since": self.stale_since}

    def epoch_label(self) -> Optional[str]:
        return str(self.epoch)


class CheckResult(mc_core.CheckResult):
    """Outcome of exhausting one bounded configuration."""

    reads_noun = "read hits"

    @property
    def wraps(self) -> int:
        return self.config.wraps

    def coverage(self) -> str:
        return f"{self.wraps} wrap(s)"

    def coverage_gap(self) -> Optional[str]:
        if self.config.wraps >= 2:
            return None
        return (f"{self.config.max_epochs} epochs force only "
                f"{self.config.wraps} counter wrap-around(s); the timetag "
                f"recycling corner is not fully exercised")


# ------------------------------------------------------------ the enumerator

W_NONE_SENTINEL = -(10 ** 9)  # matches the production never-written W init


def _initial_state(config: ModelConfig) -> Tuple[int, ...]:
    return ((0,)
            + (PLAN_NONE,) * config.n_lines
            + (W_NONE_SENTINEL,) * config.n_lines
            + (NO_WRITER,) * config.n_words
            + (0,) * (_WORD_SLOTS * config.n_procs * config.n_words))


def _successor_fn(config: ModelConfig, rules: ProtocolRules) -> Callable:
    """The successor function of one config over the flat state: slot
    offsets computed once, rules bound to locals.

    It yields ``(action, next_state, breach, served)`` per the core's
    successor contract; ``served`` marks read hits, the only reads
    served from a cached copy.  ``breach`` is the :class:`Violation`
    fields ``(proc, word, mark, tag, stale_since, epoch)``.
    """
    n_procs, n_lines = config.n_procs, config.n_lines
    line_words, n_words = config.line_words, config.n_words
    modulus, phase_size = config.modulus, config.phase_size
    max_epochs, plan_choices = config.max_epochs, config.plan_choices
    timestamp_hit, strict_hit = rules.timestamp_hit, rules.strict_hit
    fill_tag, w_register_update = rules.fill_tag, rules.w_register_update
    crossed_phase_bounds = rules.crossed_phase_bounds
    reset_selects = rules.reset_selects

    wreg = 1 + n_lines
    writers = wreg + n_lines
    caches = writers + n_words
    line_span = _WORD_SLOTS * line_words
    cleared = (NO_WRITER,) * n_words
    procs = range(n_procs)

    def word_slot(proc: int, word: int) -> int:
        return caches + _WORD_SLOTS * (proc * n_words + word)

    # Per word: its line, its offset in the line, and per processor the
    # slot of the line's first word, the word's slot and the other
    # processors' slots for the word.
    words = []
    for word in range(n_words):
        line_idx, offset = divmod(word, line_words)
        words.append((word, line_idx, offset, [
            (proc, word_slot(proc, word - offset), word_slot(proc, word),
             [word_slot(p, word) for p in procs if p != proc])
            for proc in procs]))

    def fill(nxt: List[int], first: int, offset: int, epoch: int,
             stamp_current: bool) -> None:
        """Fill/refresh one line per the production rules: words invalid
        or older than the fill tag, and the accessed word, take fresh data
        (their ghost stale-since clears); newer words keep their tags."""
        base_tag = fill_tag(epoch, False, stamp_current)
        for slot in range(first, first + line_span, _WORD_SLOTS):
            if not nxt[slot] or nxt[slot + 1] < base_tag:
                nxt[slot:slot + _WORD_SLOTS] = (1, base_tag, FRESH)
        slot = first + _WORD_SLOTS * offset
        nxt[slot:slot + _WORD_SLOTS] = (
            1, fill_tag(epoch, True, stamp_current), FRESH)

    def successors(state: Tuple[int, ...]) -> Iterator[Tuple]:
        R = state[0]
        plan = state[1:wreg]

        # -- advance: end the current epoch, pick the next epoch's plan.
        if R < max_epochs:
            new_wregs = tuple(
                w_register_update(R, mode == PLAN_RACY)
                if mode != PLAN_NONE else w
                for w, mode in zip(state[wreg:writers], plan))
            swept = state[caches:]
            bounds = crossed_phase_bounds(R, R + 1, modulus, phase_size)
            if bounds is not None:
                lo, hi = bounds
                sweep = list(swept)
                for slot in range(0, len(sweep), _WORD_SLOTS):
                    if sweep[slot] and reset_selects(sweep[slot + 1], lo, hi,
                                                     modulus):
                        sweep[slot:slot + _WORD_SLOTS] = _INVALID_WORD
                swept = tuple(sweep)
            rest = new_wregs + cleared + swept
            for next_plan in plan_choices:
                yield (("advance", next_plan, R + 1),
                       (R + 1,) + next_plan + rest, None, False)

        if R == 0:
            return  # accesses happen inside epochs only

        # -- writes, guarded by the epoch's plan.
        for word, line_idx, offset, per_proc in words:
            mode = plan[line_idx]
            if mode == PLAN_NONE:
                continue
            writer = state[writers + word]
            for proc, first, own, others in per_proc:
                if mode == PLAN_EXCL and writer not in (NO_WRITER, proc):
                    continue  # a legal DOALL has one writer per word
                nxt = list(state)
                if not any(nxt[first:first + line_span:_WORD_SLOTS]):
                    # Write-allocate: fetch the absent line, then stamp.
                    fill(nxt, first, offset, R, False)
                nxt[own:own + _WORD_SLOTS] = (1, R, FRESH)
                for slot in others:
                    if nxt[slot] and nxt[slot + 2] == FRESH:
                        # Ghost: this copy now misses the new write.
                        nxt[slot + 2] = R
                if mode == PLAN_EXCL:
                    nxt[writers + word] = proc
                yield ("write", proc, word), tuple(nxt), None, False

        # -- reads: timestamp Time-Reads where no same-epoch writer is
        # possible, strict Time-Reads anywhere.
        for word, line_idx, offset, per_proc in words:
            for mark in ("ts", "strict"):
                if mark == "ts" and plan[line_idx] != PLAN_NONE:
                    continue  # the compiler would emit a strict Time-Read
                for proc, first, own, _ in per_proc:
                    valid, tag, since = state[own:own + _WORD_SLOTS]
                    if valid and (
                            strict_hit(R, tag, modulus) if mark == "strict"
                            else timestamp_hit(R, tag, state[wreg + line_idx],
                                               modulus)):
                        breach = None
                        if since != FRESH and since < R:
                            breach = (proc, word, mark, tag, since, R)
                        yield ("read", proc, word, mark), None, breach, True
                        continue
                    nxt = list(state)
                    fill(nxt, first, offset, R, mark == "ts")
                    yield ("read", proc, word, mark), tuple(nxt), None, False

    return successors


def _exploration(config: ModelConfig, rules: ProtocolRules, *,
                 max_violations: int,
                 max_states: int = 2_000_000) -> mc_core.Exploration:
    return mc_core.Exploration(
        CheckResult(config=config, rules=rules.name), _initial_state(config),
        _successor_fn(config, rules), Violation,
        max_violations=max_violations, max_states=max_states)


def check_config(config: ModelConfig,
                 rules: ProtocolRules = PRODUCTION_RULES, *,
                 max_violations: int = 1,
                 max_states: int = 2_000_000) -> CheckResult:
    """Exhaustively enumerate every reachable state of one configuration
    (breadth-first, see :class:`repro.analysis.mc_core.Exploration`)."""
    search = _exploration(config, rules, max_violations=max_violations,
                          max_states=max_states)
    search.run()
    return search.result


# ------------------------------------------------------- production replay


_TS_SITE, _STRICT_SITE, _WRITE_SITE = 0, 1, 2


def _replay_marking(config: ModelConfig):
    """Hand-crafted marking: a timestamp and a strict Time-Read site, a
    write site, and one epoch write key per plan choice."""
    from repro.compiler.epochs import EpochGraph
    from repro.compiler.marking import Marking, RefMark

    epoch_writes = {key: {f"A{a}": mode == PLAN_RACY
                          for a, mode in enumerate(chosen_plan)
                          if mode != PLAN_NONE}
                    for key, chosen_plan in enumerate(config.plan_choices)}
    sites = {_TS_SITE: RefMark.TIME_READ, _STRICT_SITE: RefMark.TIME_READ,
             _WRITE_SITE: RefMark.READ}
    return Marking(tpi=dict(sites), sc=dict(sites), graph=EpochGraph(),
                   strict_sites={_STRICT_SITE}, epoch_writes=epoch_writes)


def replay_counterexample(violation: Violation) -> mc_core.ReplayOutcome:
    """Drive the production TpiScheme through a counterexample trace.

    ``advance`` becomes ``end_epoch`` (with the ended plan's write key) +
    shadow barrier + ``begin_epoch``; reads and writes become scheme
    accesses at the matching marked sites.  The production shadow
    memory, not the model's ghost state, judges staleness.
    """
    from repro.coherence.api import make_scheme
    from repro.common.config import TpiConfig
    from repro.common.stats import MissKind

    config = violation.config
    ctx = mc_core.replay_rig(config, _replay_marking(config),
                             tpi=TpiConfig(timetag_bits=config.timetag_bits))
    scheme = make_scheme("tpi", ctx)
    plan_keys = {chosen: key
                 for key, chosen in enumerate(config.plan_choices)}
    epoch = 0
    current_plan: Tuple[int, ...] = (PLAN_NONE,) * config.n_lines

    def perform(action):
        nonlocal epoch, current_plan
        if action[0] == "advance":
            if epoch >= 1:
                scheme.end_epoch(plan_keys[current_plan])
                ctx.shadow.barrier()
            scheme.begin_epoch(epoch, True)
            epoch += 1
            current_plan = action[1]
            return None
        line_idx, offset = divmod(action[2], config.line_words)
        addr = ctx.layout.addr_of(f"A{line_idx}", (offset,))
        if action[0] == "write":
            scheme.write(action[1], addr, _WRITE_SITE, True, False)
            return None
        site = _TS_SITE if action[3] == "ts" else _STRICT_SITE
        return scheme.read(action[1], addr, site, True, False)

    def mismatch(action, outcome) -> Optional[str]:
        # The model recorded every earlier read because it missed there.
        return ("production hit where the model missed"
                if outcome.kind is MissKind.HIT else None)

    return mc_core.replay(violation.trace, perform, mismatch, missed="missed")


# ------------------------------------------------ mutation gate and report


#: Small grid for the self-test; every mutant must fall on one of these.
SELF_TEST_CONFIGS: Tuple[ModelConfig, ...] = (
    DEFAULT_CONFIGS[0], replace(DEFAULT_CONFIGS[1], max_epochs=8))


def protocol_self_test(configs: Optional[Sequence[ModelConfig]] = None,
                       *, replay: bool = True) -> mc_core.ProtocolSelfTest:
    """Seed each known protocol bug and require a counterexample; with
    ``replay``, production must refute each mutant's trace."""
    return mc_core.self_test(
        protocol_mutants(),
        tuple(configs) if configs is not None else SELF_TEST_CONFIGS,
        _exploration, replay_counterexample if replay else None,
        subject="protocol")


def modelcheck_report(configs: Optional[Sequence[ModelConfig]] = None, *,
                      rules: ProtocolRules = PRODUCTION_RULES,
                      max_violations: int = 8,
                      max_states: int = 2_000_000,
                      replay: bool = True,
                      cache=None) -> Report:
    """Run the bounded-exhaustive check and report as lint diagnostics
    (cached for the production rules, see :func:`mc_core.report`).

    ``MC001`` (error) per counterexample, with its trace and replay
    verdict in the detail; ``MC002`` (error) when production refutes a
    counterexample to the production rules (model drift); ``MC003``
    (warning) when a config forces fewer than two counter wrap-arounds;
    ``MC004`` (warning) when the state backstop truncated the search.
    """
    return mc_core.report(
        PROTOCOL, tuple(configs) if configs is not None else DEFAULT_CONFIGS,
        rules, production=rules is PRODUCTION_RULES, check=check_config,
        replay_fn=replay_counterexample, max_violations=max_violations,
        max_states=max_states, replay=replay, cache=cache)


PROTOCOL = mc_core.Protocol(
    subject="tpi-protocol", kind="modelcheck",
    scheme="TpiScheme", codes=("MC001", "MC002", "MC003", "MC004"),
    coverage={"wraps": "wraps"},
    config=ModelConfig,
    cli_bounds={"procs": "n_procs", "lines": "n_lines",
                "words": "line_words", "k": "timetag_bits",
                "epochs": "max_epochs"},
    report=modelcheck_report, self_test=protocol_self_test)
