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

State ``(R, plan, W, writers, caches)``: the epoch counter (full index;
the k-bit view is taken inside the shared rules), each array's write
mode this epoch (``none``; ``excl``, a legal DOALL with one writer per
word; ``racy``, the illegal write-write-conflict case), the per-array
``W`` registers, the ``excl`` single-writer guard, and per-processor
lines of ``(valid, timetag, stale-since)`` words.  ``stale-since`` is
ghost state: the epoch of the earliest write the copy misses.

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
from functools import partial
from typing import Any, Callable, Dict, Iterator, Optional, Sequence, Tuple

from repro.analysis import mc_core
from repro.analysis.diagnostics import Report
from repro.coherence import tpi as tpi_scheme, tpi_rules
from repro.common.errors import ConfigError

# Plan modes per array, per epoch.
PLAN_NONE = 0  # the epoch cannot write the array
PLAN_EXCL = 1  # legal DOALL: at most one task writes any given word
PLAN_RACY = 2  # illegal DOALL: cross-iteration write-write conflicts

_PLAN_NAMES = {PLAN_NONE: "-", PLAN_EXCL: "excl", PLAN_RACY: "racy"}

FRESH = -1  # stale-since sentinel: the copy reflects the latest write
NO_WRITER = -1

_INVALID_WORD = (0, 0, FRESH)  # canonical invalid-word state


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

    def coverage(self) -> str:
        return f"{self.config.wraps} wrap(s)"

    def coverage_gap(self) -> Optional[str]:
        if self.config.wraps >= 2:
            return None
        return (f"{self.config.max_epochs} epochs force only "
                f"{self.config.wraps} counter wrap-around(s); the timetag "
                f"recycling corner is not fully exercised")


# ------------------------------------------------------------ the enumerator

W_NONE_SENTINEL = -(10 ** 9)  # matches the production never-written W init


def _initial_state(config: ModelConfig):
    return (0,
            (PLAN_NONE,) * config.n_lines,
            (W_NONE_SENTINEL,) * config.n_lines,
            (NO_WRITER,) * config.n_words,
            ((None,) * config.n_lines,) * config.n_procs)


def _sweep_line(line, bounds, rules, modulus):
    """Apply the reset sweep to one resident line; None if nothing survives."""
    if line is None:
        return None
    swept = tuple(
        _INVALID_WORD
        if word[0] and rules.reset_selects(word[1], bounds[0], bounds[1],
                                           modulus)
        else word
        for word in line)
    # A line with no valid word behaves exactly like an absent one.
    return swept if any(word[0] for word in swept) else None


def _fill_line(line, accessed_offset, epoch, stamp_current, rules):
    """Fill/refresh one line per the production rules: words invalid or
    older than the fill tag, and the accessed word, take fresh data (their
    ghost stale-since clears); newer words keep their tags."""
    base_tag = rules.fill_tag(epoch, False, stamp_current)
    words = [(1, base_tag, FRESH) if not valid or tag < base_tag
             else (valid, tag, since) for valid, tag, since in line]
    words[accessed_offset] = (1, rules.fill_tag(epoch, True, stamp_current),
                              FRESH)
    return tuple(words)


def _successors(state, config: ModelConfig, rules: ProtocolRules,
                plan_choices: Tuple[Tuple[int, ...], ...]) -> Iterator[Tuple]:
    """Yield ``(action, next_state, breach, served)`` per the core's
    successor contract; ``served`` marks read hits, the only reads
    served from a cached copy.  ``breach`` is the :class:`Violation`
    fields ``(proc, word, mark, tag, stale_since, epoch)``.
    """
    R, plan, wregs, writers, caches = state
    n_procs, n_lines = config.n_procs, config.n_lines
    line_words, modulus = config.line_words, config.modulus
    absent = (_INVALID_WORD,) * line_words  # a line not resident

    # -- advance: end the current epoch, pick the next epoch's write plan.
    if R < config.max_epochs:
        new_wregs = tuple(
            rules.w_register_update(R, mode == PLAN_RACY)
            if mode != PLAN_NONE else w
            for w, mode in zip(wregs, plan))
        bounds = rules.crossed_phase_bounds(R, R + 1, modulus,
                                            config.phase_size)
        swept = caches if bounds is None else tuple(
            tuple(_sweep_line(line, bounds, rules, modulus) for line in cache)
            for cache in caches)
        cleared = (NO_WRITER,) * config.n_words
        for next_plan in plan_choices:
            yield (("advance", next_plan, R + 1),
                   (R + 1, next_plan, new_wregs, cleared, swept), None, False)

    if R == 0:
        return  # accesses happen inside epochs only

    # -- writes, guarded by the epoch's plan.
    for word in range(config.n_words):
        line_idx, offset = divmod(word, line_words)
        mode = plan[line_idx]
        if mode == PLAN_NONE:
            continue
        for proc in range(n_procs):
            if mode == PLAN_EXCL and writers[word] not in (NO_WRITER, proc):
                continue  # a legal DOALL has one writer per word
            new_caches = []
            for p, cache in enumerate(caches):
                line = cache[line_idx]
                if p == proc:
                    if line is None:  # write-allocate: fetch, then stamp
                        line = _fill_line(absent, offset, R, False, rules)
                    line = line[:offset] + ((1, R, FRESH),) \
                        + line[offset + 1:]
                elif line is not None:
                    valid, tag, since = line[offset]
                    if valid:
                        # Ghost: this copy now misses the new write.
                        stale_since = R if since == FRESH else since
                        line = line[:offset] + ((valid, tag, stale_since),) \
                            + line[offset + 1:]
                new_cache = cache[:line_idx] + (line,) + cache[line_idx + 1:]
                new_caches.append(new_cache)
            new_writers = writers
            if mode == PLAN_EXCL:
                new_writers = writers[:word] + (proc,) + writers[word + 1:]
            yield (("write", proc, word),
                   (R, plan, wregs, new_writers, tuple(new_caches)), None,
                   False)

    # -- reads: timestamp Time-Reads where no same-epoch writer is
    # possible, strict Time-Reads anywhere.
    for word in range(config.n_words):
        line_idx, offset = divmod(word, line_words)
        for mark in ("ts", "strict"):
            if mark == "ts" and plan[line_idx] != PLAN_NONE:
                continue  # the compiler would emit a strict Time-Read
            for proc in range(n_procs):
                line = caches[proc][line_idx]
                hit = False
                if line is not None and line[offset][0]:
                    _, tag, since = line[offset]
                    if mark == "strict":
                        hit = bool(rules.strict_hit(R, tag, modulus))
                    else:
                        hit = bool(rules.timestamp_hit(
                            R, tag, wregs[line_idx], modulus))
                if hit:
                    breach = None
                    if since != FRESH and since < R:
                        breach = (proc, word, mark, tag, since, R)
                    yield ("read", proc, word, mark), None, breach, True
                    continue
                new_line = _fill_line(line or absent, offset, R, mark == "ts",
                                      rules)
                cache = caches[proc]
                new_cache = cache[:line_idx] + (new_line,) \
                    + cache[line_idx + 1:]
                new_caches = caches[:proc] + (new_cache,) + caches[proc + 1:]
                yield (("read", proc, word, mark),
                       (R, plan, wregs, writers, new_caches), None, False)


def check_config(config: ModelConfig,
                 rules: ProtocolRules = PRODUCTION_RULES, *,
                 max_violations: int = 1,
                 max_states: int = 2_000_000) -> CheckResult:
    """Exhaustively enumerate every reachable state of one configuration
    (breadth-first, see :func:`repro.analysis.mc_core.explore`)."""
    result = CheckResult(config=config, rules=rules.name)
    mc_core.explore(result, _initial_state(config),
                    partial(_successors, config=config, rules=rules,
                            plan_choices=config.plan_choices),
                    Violation, max_violations=max_violations,
                    max_states=max_states)
    return result


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
        check_config, replay_counterexample if replay else None,
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
    coverage={}, sources=(tpi_rules.__file__, tpi_scheme.__file__, __file__),
    config=ModelConfig,
    cli_bounds={"procs": "n_procs", "lines": "n_lines",
                "words": "line_words", "k": "timetag_bits",
                "epochs": "max_epochs"},
    report=modelcheck_report, self_test=protocol_self_test)
