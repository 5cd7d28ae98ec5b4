"""Processor-axis scaling: sparse per-proc state at large ``n_procs``.

The engines and coherence schemes keep per-processor state lazily — an
untouched processor's cache, write buffer, stall counter, or directory
pointer costs nothing — so simulated machines can be orders of magnitude
wider than the busy processor set.  Three layers of evidence:

* **front end** — :func:`schedule_iterations` allocates buckets only for
  processors that receive work, so a DOALL with 8 iterations schedules
  identically (and as cheaply) on a million-processor machine;
* **parity** — the sparse representation is observationally invisible:
  the reference engine, the fast engine, and a gang-primed fast member
  stay byte-identical at irregular processor counts (1, primes,
  powers-of-two-minus-one), and the ``REPRO_DENSE_STATE`` escape hatch
  reproduces the exact same results;
* **scale smoke** — a 4096-processor machine runs a tiny workload under
  both engines, bit-identically, in test-suite time.

The ``n_procs`` configuration cap (``REPRO_MAX_PROCS``) is tested here
too: a typo like ``procs=10**9`` must die with a one-line error at
config time, not an OOM at layout time.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import (DEFAULT_MAX_PROCS, SchedulePolicy,
                                 default_machine, max_procs)
from repro.common.errors import ConfigError
from repro.ir import ProgramBuilder
from repro.sim import prepare, simulate
from repro.sim.gang import GangMember, run_gang
from repro.trace.schedule import schedule_iterations
from repro.workloads import build_workload
from tests.strategies import machines, rich_programs
from tests.test_engine_parity import SCHEMES, SETTINGS, snapshot

POLICIES = (SchedulePolicy.CHUNK, SchedulePolicy.INTERLEAVED,
            SchedulePolicy.SELF)


def tiny_program(iters: int = 24):
    """Two dependent DOALLs: enough to exercise scheduling, barriers,
    and sharing misses, small enough for the reference engine at P=4096."""
    b = ProgramBuilder("tiny", params={})
    b.array("A", (iters,))
    b.array("B", (iters,))
    with b.procedure("main"):
        with b.doall("i", 0, iters - 1) as i:
            b.stmt(reads=[b.at("A", i)], writes=[b.at("B", i)], work=1)
        with b.doall("j", 0, iters - 1) as j:
            b.stmt(reads=[b.at("B", j)], writes=[b.at("A", j)], work=1)
    return b.build()


# --------------------------------------------------------------------------
# schedule_iterations: O(iterations), not O(n_procs)


class TestScheduleSparse:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_buckets_bounded_by_iterations(self, policy):
        """procs >> iterations must not allocate a bucket per processor."""
        out = schedule_iterations(list(range(8)), 1_000_000, policy)
        assert len(out) <= 8
        covered = [value for _proc, values in out for value in values]
        assert sorted(covered) == list(range(8))
        assert all(0 <= proc < 1_000_000 for proc, _values in out)

    def test_chunk_at_scale_matches_small_machine(self):
        """With P >= n the chunk policy is one iteration per processor,
        independent of how much wider the machine gets."""
        small = schedule_iterations(list(range(10)), 10, SchedulePolicy.CHUNK)
        wide = schedule_iterations(list(range(10)), 10**6,
                                   SchedulePolicy.CHUNK)
        assert wide == small == [(p, [p]) for p in range(10)]

    @settings(max_examples=50, **SETTINGS)
    @given(n=st.integers(0, 40), extra=st.integers(0, 10**6),
           policy=st.sampled_from(POLICIES))
    def test_every_iteration_exactly_once(self, n, extra, policy):
        iterations = list(range(100, 100 + n))
        out = schedule_iterations(iterations, n + extra + 1, policy)
        covered = [value for _proc, values in out for value in values]
        assert sorted(covered) == iterations
        procs = [proc for proc, _values in out]
        assert procs == sorted(set(procs))
        assert all(values for _proc, values in out)


# --------------------------------------------------------------------------
# n_procs cap


class TestProcsCap:
    def test_over_cap_is_a_one_line_config_error(self):
        with pytest.raises(ConfigError, match="REPRO_MAX_PROCS") as err:
            default_machine().with_(n_procs=DEFAULT_MAX_PROCS + 1)
        assert "\n" not in str(err.value)

    def test_cap_boundary_is_inclusive(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_PROCS", "100")
        default_machine().with_(n_procs=100)  # allowed
        with pytest.raises(ConfigError, match="exceeds the cap of 100"):
            default_machine().with_(n_procs=101)

    def test_escape_hatch_raises_cap(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_PROCS", str(DEFAULT_MAX_PROCS * 4))
        machine = default_machine().with_(n_procs=DEFAULT_MAX_PROCS + 1)
        assert machine.n_procs == DEFAULT_MAX_PROCS + 1

    def test_bad_escape_hatch_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_PROCS", "lots")
        with pytest.raises(ConfigError, match="REPRO_MAX_PROCS"):
            max_procs()

    def test_non_positive_escape_hatch_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_PROCS", "0")
        assert max_procs() == DEFAULT_MAX_PROCS


# --------------------------------------------------------------------------
# parity at irregular processor counts


@st.composite
def irregular_machines(draw):
    """Random machines re-pinned to the processor counts the sparse
    representation is most likely to get wrong: a single processor,
    primes (never divide the iteration count evenly), and powers of two
    minus one (every off-by-one in a bitset or pointer-pool sizing)."""
    machine = draw(machines())
    return machine.with_(n_procs=draw(st.sampled_from([1, 7, 13, 31, 127])))


class TestIrregularCounts:
    @settings(max_examples=12, **SETTINGS)
    @given(program=rich_programs(), machine=irregular_machines(),
           scheme=st.sampled_from(SCHEMES))
    def test_three_engine_parity(self, program, machine, scheme):
        """Reference, solo fast, and a gang-primed fast member agree."""
        snaps = {}
        for engine in ("reference", "fast"):
            run = prepare(program, machine.with_(engine=engine))
            snaps[engine] = snapshot(simulate(run, scheme))
        fast = machine.with_(engine="fast")
        members = [GangMember(fast, scheme),
                   GangMember(fast.with_(hit_latency=fast.hit_latency + 1),
                              scheme)]
        snaps["gang"] = snapshot(run_gang(prepare(program, fast), members)[0])
        assert snaps["fast"] == snaps["reference"]
        assert snaps["gang"] == snaps["reference"]

    @pytest.mark.parametrize("scheme", ("tpi", "hw", "tardis"))
    def test_dense_state_escape_hatch_is_result_neutral(self, monkeypatch,
                                                        scheme):
        """``REPRO_DENSE_STATE=1`` materializes every per-proc container
        eagerly; results must be bit-identical to the lazy default."""
        program = build_workload("ocean", size="small")
        machine = default_machine().with_(n_procs=31, engine="fast",
                                          record_epochs=True)
        run = prepare(program, machine)
        sparse = snapshot(simulate(run, scheme))
        monkeypatch.setenv("REPRO_DENSE_STATE", "1")
        dense = snapshot(simulate(run, scheme))
        assert dense == sparse


# --------------------------------------------------------------------------
# wide-machine smoke


class TestWideMachineSmoke:
    @pytest.mark.parametrize("scheme", ("tpi", "hw"))
    def test_4096_procs_under_both_engines(self, scheme):
        """A 4096-processor machine on a tiny workload: both engines
        complete in test-suite time and agree byte-for-byte.  Only 24
        processors ever receive work, so per-proc state must stay sparse
        for this to be fast."""
        program = tiny_program()
        machine = default_machine().with_(n_procs=4096, record_epochs=True)
        snaps = {}
        for engine in ("reference", "fast"):
            run = prepare(program, machine.with_(engine=engine))
            result = simulate(run, scheme)
            snaps[engine] = snapshot(result)
            assert result.exec_cycles > 0
        assert snaps["fast"] == snaps["reference"]

    def test_wide_machine_barrier_accounting(self):
        """Idle processors still accrue barrier-idle cycles even though
        they are never materialized: the cycle breakdown must account for
        all 4096 processors, not just the active ones."""
        program = tiny_program(iters=8)
        machine = default_machine().with_(n_procs=4096)
        run = prepare(program, machine.with_(engine="fast"))
        result = simulate(run, "base")
        fractions = result.breakdown_fractions()
        assert abs(sum(fractions.values()) - 1.0) < 1e-9
        # 4088 of 4096 processors never run a task: almost everything
        # is barrier idle.
        assert fractions.get("barrier_idle", 0.0) > 0.9
