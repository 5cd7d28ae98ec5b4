"""Bounded-exhaustive model checking of the Tardis lease protocol.

The protocol module for :mod:`repro.analysis.mc_core` that checks
:class:`~repro.coherence.tardis.TardisScheme`, the 2015 descendant of
the TPI timetags (:mod:`repro.analysis.modelcheck`).  Every decision
(the ``rts >= pts`` lease hit, the commutative grant, ``max(pts,
mem_rts + 1)`` write ordering, the barrier ``pts`` join, the data-less
renewal guard, the Tardis 2.0 rebase geometry) is taken from
:mod:`repro.coherence.tardis_rules`, the same pure functions the scheme
executes.

The state is one flat tuple of ints, in this slot order: per-processor
logical timestamps ``pts``, the representable-window ``base``, per-line
home ``(wts, rts)``, per-word ghost data versions (current, then the
floor committed at the last barrier), a ``(wts, rts, versions...)``
copy per processor and line (``wts`` is ``NO_COPY`` and the rest zero
when the line is not resident), and the rebase counter, which saturates
at 2.  Writes that would mint a timestamp above ``max_ts`` are pruned,
which (with the rebase clamp) keeps the space finite.

Actions: ``barrier`` joins every ``pts``, promotes the floor and rebases
when the lease frontier would leave the ``2^k`` window; ``write p l w``
re-validates a doubtful resident copy, orders the write after every
lease and stamps the line; ``read p l w`` is a lease hit, a data-less
renewal when the line is provably unwritten since the fill, or a fetch.

Invariant (**staleness safety**): a read served from a cached copy (hit
or renewal) never returns a version below the last barrier's floor.
Within-epoch staleness is Tardis's contract, not a violation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Dict, Iterator, Optional, Sequence, Tuple

from repro.analysis import mc_core
from repro.analysis.diagnostics import Report
from repro.coherence import tardis_rules
from repro.common.errors import ConfigError


# --------------------------------------------------------------------- config


@dataclass(frozen=True)
class TardisModelConfig:
    """Bounds of one exhaustive enumeration.  ``max_ts`` bounds logical
    time (no write mints a larger timestamp); ``max_ts // 2^k`` windows
    crossed, each a rebase, are the analogue of TPI's counter wraps."""

    n_procs: int = 2
    n_lines: int = 1
    line_words: int = 1
    timestamp_bits: int = 2
    lease: int = 1
    max_ts: int = 8

    def __post_init__(self) -> None:
        if not 2 <= self.n_procs <= 4:
            raise ConfigError("tardis modelcheck needs 2..4 processors")
        if not 1 <= self.n_lines <= 3:
            raise ConfigError("tardis modelcheck supports 1..3 lines")
        if not 1 <= self.line_words <= 4:
            raise ConfigError("tardis modelcheck supports 1..4 words per line")
        if not 2 <= self.timestamp_bits <= 4:
            raise ConfigError("tardis modelcheck supports 2..4 timestamp bits")
        if not 1 <= self.lease <= (1 << (self.timestamp_bits - 1)) - 1:
            raise ConfigError("lease must fit half the timestamp window")
        if not 1 <= self.max_ts <= 64:
            raise ConfigError("tardis modelcheck supports 1..64 max_ts")

    @property
    def modulus(self) -> int:
        return 1 << self.timestamp_bits

    @property
    def label(self) -> str:
        return (f"p{self.n_procs}.l{self.n_lines}.w{self.line_words}"
                f".k{self.timestamp_bits}.s{self.lease}.t{self.max_ts}")

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


#: The CI gate: every config reaches >= 2 rebases, covering 2-3
#: processors, 1-2 lines, 1-2 words per line, and k = 2 and 3.  The
#: two-line config runs a tighter timestamp bound: its state space is
#: the product of two per-line spaces, and ``max_ts=4`` is the largest
#: bound that stays exhaustive (166k states) while still rebasing twice.
TARDIS_DEFAULT_CONFIGS: Tuple[TardisModelConfig, ...] = (
    TardisModelConfig(n_procs=2, n_lines=1, line_words=1, timestamp_bits=2,
                      lease=1, max_ts=9),
    TardisModelConfig(n_procs=2, n_lines=1, line_words=2, timestamp_bits=2,
                      lease=1, max_ts=8),
    TardisModelConfig(n_procs=3, n_lines=1, line_words=1, timestamp_bits=2,
                      lease=1, max_ts=8),
    TardisModelConfig(n_procs=2, n_lines=2, line_words=1, timestamp_bits=2,
                      lease=1, max_ts=4),
    TardisModelConfig(n_procs=2, n_lines=1, line_words=1, timestamp_bits=3,
                      lease=2, max_ts=16),
)


# ---------------------------------------------------------------- rule table


@dataclass(frozen=True)
class TardisRules:
    """The protocol decisions the checker consults, as swappable slots
    bound to :mod:`repro.coherence.tardis_rules` by default.
    ``write_renewal_ok`` is the write path's revalidation guard: the same
    rule, in its own slot so the self-test can break the write alone."""

    name: str = "production"
    lease_hit: Callable[..., bool] = tardis_rules.lease_hit
    lease_grant: Callable[..., int] = tardis_rules.lease_grant
    own_lease: Callable[..., int] = tardis_rules.own_lease
    write_timestamp: Callable[..., int] = tardis_rules.write_timestamp
    pts_join: Callable[..., int] = tardis_rules.pts_join
    renewal_ok: Callable[..., bool] = tardis_rules.renewal_ok
    write_renewal_ok: Callable[..., bool] = tardis_rules.renewal_ok
    rebase_needed: Callable[..., bool] = tardis_rules.rebase_needed
    rebase_base: Callable[..., int] = tardis_rules.rebase_base
    clamp: Callable[..., int] = tardis_rules.clamp


TARDIS_PRODUCTION_RULES = TardisRules()


def tardis_mutants() -> Tuple[TardisRules, ...]:
    """Known protocol bugs the checker must detect (the self-test seeds)."""
    return (
        # Renewal without the ``mem_wts > base`` guard: after a rebase a
        # stale copy and the written home both clamp to the base.
        replace(TARDIS_PRODUCTION_RULES, name="renewal-ignores-base",
                renewal_ok=lambda cached_wts, mem_wts, base:
                cached_wts == mem_wts),
        # The write trusts any resident copy, re-leasing the stale siblings
        # of the written word (the real bug found building the scheme).
        replace(TARDIS_PRODUCTION_RULES, name="write-skips-revalidate",
                write_renewal_ok=lambda cached_wts, mem_wts, base: True),
        # The home lease frontier is overwritten, not max-merged, so a
        # write gets ordered inside an earlier reader's live lease.
        replace(TARDIS_PRODUCTION_RULES, name="grant-caps-rts",
                lease_grant=lambda pts, mem_rts, lease: pts + lease),
        # A lease honoured one timestamp past expiry straddles a barrier.
        replace(TARDIS_PRODUCTION_RULES, name="lease-off-by-one",
                lease_hit=lambda pts, rts: rts + 1 >= pts),
    )


# ------------------------------------------------------------ search results


@dataclass(frozen=True)
class TardisViolation(mc_core.Violation):
    """One staleness-safety counterexample."""

    proc: int
    line: int
    word: int
    served: str  # "hit" or "renewal"
    version: int
    floor: int

    def render_action(self, action: Tuple) -> str:
        if action[0] == "barrier":
            note = " + rebase" if action[2] else ""
            return f"barrier (pts join -> {action[1]}{note})"
        if action[0] == "write":
            return f"  p{action[1]} writes l{action[2]}.w{action[3]}"
        return f"  p{action[1]} reads l{action[2]}.w{action[3]} -> {action[4]}"

    def breach(self) -> str:
        return (f"  p{self.proc} reads l{self.line}.w{self.word} -> "
                f"{self.served} serves version {self.version} below the "
                f"barrier floor {self.floor}")

    def describe(self) -> str:
        return (f"a {self.served} read by p{self.proc} of "
                f"l{self.line}.w{self.word} serves version {self.version} "
                f"below the barrier floor {self.floor}")

    def detail(self) -> Dict[str, Any]:
        return {"proc": self.proc, "line": self.line, "word": self.word,
                "served": self.served, "version": self.version,
                "floor": self.floor}


@dataclass
class TardisCheckResult(mc_core.CheckResult):
    """Outcome of exhausting one bounded configuration."""

    max_rebases: int = 0

    tool = "modelcheck-tardis"
    reads_noun = "served reads"

    def coverage(self) -> str:
        return f">={self.max_rebases} rebase(s) reached"

    def coverage_gap(self) -> Optional[str]:
        if self.max_rebases >= 2:
            return None
        return (f"the bounds reach only {self.max_rebases} rebase(s); the "
                f"timestamp-compression corner is not fully exercised")


# ------------------------------------------------------------ the enumerator


#: The ``wts`` of a copy that is not resident (real timestamps are >= 0);
#: the rest of its slot group is zero.
NO_COPY = -1


def _initial_state(config: TardisModelConfig) -> Tuple[int, ...]:
    no_vers = (0,) * (config.n_lines * config.line_words)
    return ((0,) * config.n_procs                     # pts
            + (-1,)                                   # base (production's)
            + (0, 0) * config.n_lines                 # mem (wts, rts)
            + no_vers                                 # current versions
            + no_vers                                 # barrier floor
            + ((NO_COPY, 0) + (0,) * config.line_words)
            * (config.n_procs * config.n_lines)       # caches
            + (0,))                                   # rebases (saturate at 2)


def _successor_fn(config: TardisModelConfig, rules: TardisRules) -> Callable:
    """The successor function of one config over the flat state: slot
    offsets computed once, rules bound to locals.

    It yields ``(action, next_state, breach, served)`` per the core's
    successor contract; ``served`` marks lease hits and data-less
    renewals.  ``breach`` is the :class:`TardisViolation` fields
    ``(proc, line, word, served, version, floor)``.
    """
    n_procs, line_words = config.n_procs, config.line_words
    lease, modulus, max_ts = config.lease, config.modulus, config.max_ts
    lease_hit, lease_grant = rules.lease_hit, rules.lease_grant
    own_lease, write_timestamp = rules.own_lease, rules.write_timestamp
    pts_join, clamp = rules.pts_join, rules.clamp
    renewal_ok, write_renewal_ok = rules.renewal_ok, rules.write_renewal_ok
    rebase_needed, rebase_base = rules.rebase_needed, rules.rebase_base

    n_lines = config.n_lines
    base_at = n_procs
    mem = base_at + 1
    vers = mem + 2 * n_lines
    floor = vers + n_lines * line_words
    caches = floor + n_lines * line_words
    copy_span = 2 + line_words
    rebases_at = caches + copy_span * n_procs * n_lines
    copies = range(caches, rebases_at, copy_span)
    # Per line: its home slot and its first word's index in the version runs.
    homes = [(line, mem + 2 * line, line_words * line)
             for line in range(n_lines)]
    words = range(line_words)

    def successors(state: Tuple[int, ...]) -> Iterator[Tuple]:
        base = state[base_at]

        # -- barrier: join pts, promote the floor, maybe rebase.
        joined = pts_join(state[:n_procs])
        if rebase_needed(joined, lease, base, modulus):
            new_base = rebase_base(joined, modulus)
            nxt = list(state)
            nxt[:base_at] = (joined,) * n_procs
            nxt[base_at] = new_base
            for slot in range(mem, vers):
                nxt[slot] = clamp(nxt[slot], new_base)
            nxt[floor:caches] = state[vers:floor]
            for slot in copies:
                if nxt[slot] != NO_COPY:
                    nxt[slot] = clamp(nxt[slot], new_base)
                    nxt[slot + 1] = clamp(nxt[slot + 1], new_base)
            nxt[rebases_at] = min(nxt[rebases_at] + 1, 2)
            yield ("barrier", joined, True), tuple(nxt), None, False
        else:
            barrier_state = ((joined,) * n_procs + state[n_procs:floor]
                             + state[vers:floor] + state[caches:])
            if barrier_state != state:
                yield ("barrier", joined, False), barrier_state, None, False

        # -- writes: revalidate a doubtful resident copy, then stamp through.
        for proc in range(n_procs):
            pts = state[proc]
            for line, home, first in homes:
                ts_w = write_timestamp(pts, state[home + 1])
                if ts_w > max_ts:
                    continue  # logical-time bound: the enumeration's horizon
                current = vers + first
                copy = caches + copy_span * (proc * n_lines + line)
                copy_wts = state[copy]
                stamped = list(state)
                if copy_wts == NO_COPY or not write_renewal_ok(
                        copy_wts, state[home], base):
                    # Exclusive-ownership upgrade fetch; otherwise the copy
                    # is provably unwritten since the fill.
                    stamped[copy + 2:copy + 2 + line_words] = \
                        state[current:current + line_words]
                stamped[proc] = stamped[home] = stamped[home + 1] = ts_w
                stamped[copy] = stamped[copy + 1] = ts_w
                for word in words:
                    nxt = stamped[:]
                    nxt[current + word] += 1
                    nxt[copy + 2 + word] = nxt[current + word]
                    yield ("write", proc, line, word), tuple(nxt), None, False

        # -- reads: hit / data-less renewal / fetch.
        for proc in range(n_procs):
            pts = state[proc]
            own_rts = own_lease(pts, lease)
            for line, home, first in homes:
                copy = caches + copy_span * (proc * n_lines + line)
                mem_wts = state[home]
                cached_wts = state[copy]
                kind = "fetch"
                if cached_wts != NO_COPY:
                    if lease_hit(pts, state[copy + 1]):
                        kind = "hit"
                    elif renewal_ok(cached_wts, mem_wts, base):
                        kind = "renew"
                next_state = None
                if kind != "hit":
                    nxt = list(state)
                    nxt[home + 1] = lease_grant(pts, state[home + 1], lease)
                    nxt[copy + 1] = own_rts
                    if kind == "fetch":
                        # Miss or unprovable copy: fetch current data + lease.
                        nxt[copy] = mem_wts
                        nxt[copy + 2:copy + 2 + line_words] = \
                            state[vers + first:vers + first + line_words]
                    next_state = tuple(nxt)
                served = kind != "fetch"
                for word in words:
                    breach = None
                    if served:
                        version = state[copy + 2 + word]
                        least = state[floor + first + word]
                        if version < least:
                            breach = (proc, line, word,
                                      "hit" if kind == "hit" else "renewal",
                                      version, least)
                    yield (("read", proc, line, word, kind), next_state,
                           breach, served)

    return successors


def _exploration(config: TardisModelConfig, rules: TardisRules, *,
                 max_violations: int,
                 max_states: int = 2_000_000) -> mc_core.Exploration:
    return mc_core.Exploration(
        TardisCheckResult(config=config, rules=rules.name),
        _initial_state(config), _successor_fn(config, rules),
        TardisViolation, max_violations=max_violations,
        max_states=max_states)


def tardis_check_config(config: TardisModelConfig,
                        rules: TardisRules = TARDIS_PRODUCTION_RULES, *,
                        max_violations: int = 1,
                        max_states: int = 2_000_000) -> TardisCheckResult:
    """Exhaustively enumerate every reachable state of one configuration
    (breadth-first, see :class:`repro.analysis.mc_core.Exploration`)."""
    search = _exploration(config, rules, max_violations=max_violations,
                          max_states=max_states)
    search.run()
    # The rebase counter is the last slot.
    search.result.max_rebases = max(state[-1] for state in search.parents)
    return search.result


# ------------------------------------------------------- production replay


def replay_tardis_counterexample(violation: TardisViolation
                                 ) -> mc_core.ReplayOutcome:
    """Drive the production TardisScheme through a counterexample trace.

    ``barrier`` becomes ``end_epoch`` + shadow barrier; reads and writes
    become scheme accesses.  The production shadow memory, not the
    model's ghost state, judges staleness.
    """
    from repro.coherence.api import make_scheme
    from repro.common.config import TardisConfig
    from repro.common.stats import MissKind
    from repro.compiler.epochs import EpochGraph
    from repro.compiler.marking import Marking

    config = violation.config
    ctx = mc_core.replay_rig(
        config, Marking(tpi={}, sc={}, graph=EpochGraph()),
        tardis=TardisConfig(lease=config.lease,
                            timestamp_bits=config.timestamp_bits))
    scheme = make_scheme("tardis", ctx)

    def perform(action):
        if action[0] == "barrier":
            scheme.end_epoch(None)
            ctx.shadow.barrier()
            return None
        addr = ctx.layout.addr_of(f"A{action[2]}", (action[3],))
        if action[0] == "write":
            scheme.write(action[1], addr, 0, True, False)
            return None
        return scheme.read(action[1], addr, 0, True, False)

    def mismatch(action, outcome) -> Optional[str]:
        if action[4] == "fetch" and outcome.kind is MissKind.HIT:
            return "production hit where the model fetched"
        if action[4] != "fetch" and outcome.read_words > 0:
            return "production fetched where the model served cached data"
        return None

    return mc_core.replay(violation.trace, perform, mismatch,
                          missed="served fresh data")


# ------------------------------------------------ mutation gate and report


#: Small grid for the self-test; every mutant must fall on one of these.
#: The two-word config reaches the stale-sibling corner; the two-line
#: config reaches the rebase-collapse and retracted-lease corners (a
#: second line pumps logical time past the first line's timestamps).
TARDIS_SELF_TEST_CONFIGS: Tuple[TardisModelConfig, ...] = (
    TARDIS_DEFAULT_CONFIGS[1], TARDIS_DEFAULT_CONFIGS[3])


def tardis_self_test(configs: Optional[Sequence[TardisModelConfig]] = None,
                     *, replay: bool = True) -> mc_core.ProtocolSelfTest:
    """Seed each known protocol bug and require a counterexample; with
    ``replay``, production must refute each mutant's trace."""
    return mc_core.self_test(
        tardis_mutants(),
        tuple(configs) if configs is not None else TARDIS_SELF_TEST_CONFIGS,
        _exploration, replay_tardis_counterexample if replay else None,
        subject="tardis")


def tardis_modelcheck_report(
        configs: Optional[Sequence[TardisModelConfig]] = None, *,
        rules: TardisRules = TARDIS_PRODUCTION_RULES,
        max_violations: int = 8,
        max_states: int = 2_000_000,
        replay: bool = True,
        cache=None) -> Report:
    """Run the bounded-exhaustive check and report as lint diagnostics
    (cached for the production rules, see :func:`mc_core.report`).

    ``MC101`` (error) per counterexample; ``MC102`` (error) when
    production refutes a counterexample to the production rules (model
    drift); ``MC103`` (warning) when a config never reaches a second
    rebase; ``MC104`` (warning) when the state backstop truncated the
    search.
    """
    return mc_core.report(
        PROTOCOL,
        tuple(configs) if configs is not None else TARDIS_DEFAULT_CONFIGS,
        rules, production=rules is TARDIS_PRODUCTION_RULES,
        check=tardis_check_config, replay_fn=replay_tardis_counterexample,
        max_violations=max_violations, max_states=max_states, replay=replay,
        cache=cache)


PROTOCOL = mc_core.Protocol(
    subject="tardis-protocol", kind="modelcheck-tardis",
    scheme="TardisScheme", codes=("MC101", "MC102", "MC103", "MC104"),
    coverage={"rebases": "max_rebases"},
    config=TardisModelConfig,
    cli_bounds={"procs": "n_procs", "lines": "n_lines",
                "words": "line_words", "k": "timestamp_bits",
                "lease": "lease", "max_ts": "max_ts"},
    report=tardis_modelcheck_report, self_test=tardis_self_test)
