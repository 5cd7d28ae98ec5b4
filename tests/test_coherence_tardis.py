"""Micro-tests for the Tardis timestamp/lease scheme (extension).

The pure decision rules (:mod:`repro.coherence.tardis_rules`) serve as
the oracle: scheme behavior — lease hits, data-less renewals, write
re-validation, timestamp-wrap rebasing — is checked against the rules
applied to the scheme's own pre-access state.
"""

import numpy as np
import pytest

from repro.coherence import tardis_rules
from repro.coherence.api import SimContext, make_scheme
from repro.common.config import (
    CacheConfig,
    ConfigError,
    MachineConfig,
    TardisConfig,
)
from repro.common.stats import MissKind
from repro.compiler.epochs import EpochGraph
from repro.compiler.marking import Marking
from repro.ir import ProgramBuilder
from repro.memsys.memory import ShadowMemory
from repro.memsys.network import KruskalSnirNetwork
from repro.trace.layout import MemoryLayout


def make_ctx(n_procs=3, words=256, line_words=4, lines=32,
             lease=8, timestamp_bits=8):
    machine = MachineConfig(
        n_procs=n_procs,
        cache=CacheConfig(size_bytes=lines * line_words * 4,
                          line_words=line_words),
        tardis=TardisConfig(lease=lease, timestamp_bits=timestamp_bits))
    b = ProgramBuilder("rig")
    b.array("M", (words,))
    with b.procedure("main"):
        pass
    layout = MemoryLayout(b.build(), n_procs, line_words)
    return SimContext(machine=machine,
                      marking=Marking(tpi={}, sc={}, graph=EpochGraph()),
                      shadow=ShadowMemory(layout.total_words),
                      network=KruskalSnirNetwork(machine), layout=layout)


def new_tardis(**kw):
    ctx = make_ctx(**kw)
    return make_scheme("tardis", ctx), ctx


def barrier(scheme, ctx):
    scheme.end_epoch(None)
    ctx.shadow.barrier()


class TestRules:
    """The pure rules, pinned directly."""

    def test_lease_hit_is_rts_at_least_pts(self):
        assert tardis_rules.lease_hit(5, 5)
        assert tardis_rules.lease_hit(5, 9)
        assert not tardis_rules.lease_hit(5, 4)

    def test_lease_grant_extends_never_shrinks(self):
        # The home lease is a max: a late low-pts reader cannot retract
        # an earlier reader's longer lease.
        assert tardis_rules.lease_grant(0, 0, 8) == 8
        assert tardis_rules.lease_grant(2, 20, 8) == 20

    def test_write_orders_after_every_lease(self):
        assert tardis_rules.write_timestamp(3, 10) == 11
        assert tardis_rules.write_timestamp(15, 10) == 15

    def test_renewal_requires_unwritten_and_unclamped(self):
        assert tardis_rules.renewal_ok(0, 0, -1)      # never written
        assert tardis_rules.renewal_ok(7, 7, 3)       # unwritten since fill
        assert not tardis_rules.renewal_ok(5, 9, -1)  # written since fill
        # A wts clamped to the base proves nothing: both sides sitting at
        # the base is exactly the post-rebase ambiguity renewal must
        # refuse (the stale-renewal safety the model checker mutates).
        assert not tardis_rules.renewal_ok(3, 3, 3)

    def test_rebase_round_trip(self):
        modulus = 1 << 4
        pts = 40
        assert tardis_rules.rebase_needed(pts, 4, 20, modulus)
        base = tardis_rules.rebase_base(pts, modulus)
        assert base == pts - (modulus // 2 - 1)
        # After clamping, every timestamp fits the representable window.
        ts = np.array([0, base - 1, base, pts])
        clamped = tardis_rules.clamp(ts, base)
        assert clamped.min() == base
        assert int(clamped.max()) - base < modulus
        assert not tardis_rules.rebase_needed(pts, 4, base, modulus)

    def test_pts_join_is_max(self):
        assert tardis_rules.pts_join([3, 9, 1]) == 9


class TestConfig:
    def test_lease_must_fit_timestamp_window(self):
        with pytest.raises(ConfigError):
            TardisConfig(lease=8, timestamp_bits=3)  # max is 2^(3-1)-1
        with pytest.raises(ConfigError):
            TardisConfig(lease=0)
        assert TardisConfig(lease=3, timestamp_bits=3).modulus == 8


class TestLeases:
    def test_second_read_hits_within_lease(self):
        t, _ = new_tardis()
        assert t.read(0, 8, 0, True, False).kind is MissKind.COLD
        r = t.read(0, 8, 0, True, False)
        assert r.kind is MissKind.HIT
        # The oracle agrees: the slot's rts covers the current pts.
        loc = t.caches[0].probe(t.caches[0].split(8)[0])
        assert tardis_rules.lease_hit(
            t.pts[0], int(t.rts_a[0][loc]))

    def test_no_invalidations_readers_keep_hitting_in_epoch(self):
        # The defining Tardis property: a write sends no messages to
        # sharers; their leases serve the old value at an earlier
        # logical time until the barrier joins pts.
        t, _ = new_tardis()
        t.read(0, 8, 0, True, False)
        t.write(1, 8, 0, True, False)
        assert t.read(0, 8, 0, True, False).kind is MissKind.HIT

    def test_barrier_join_expires_stale_lease(self):
        t, ctx = new_tardis()
        t.read(0, 8, 0, True, False)
        t.write(1, 8, 0, True, False)
        barrier(t, ctx)
        r = t.read(0, 8, 0, True, False)
        assert r.kind is MissKind.TRUE_SHARING
        assert r.version == 1
        assert t.lease_expiries == 1 and t.lease_renewals == 0

    def test_false_sharing_when_other_word_written(self):
        t, ctx = new_tardis()
        t.read(0, 8, 0, True, False)
        t.write(1, 9, 0, True, False)  # same line, different word
        barrier(t, ctx)
        assert t.read(0, 8, 0, True, False).kind is MissKind.FALSE_SHARING

    def test_expired_unwritten_lease_renews_without_data(self):
        t, ctx = new_tardis()
        t.read(1, 0, 0, True, False)       # lease on line A: rts = lease
        for _ in range(t.lease + 2):       # logical time outruns the lease
            t.write(0, 16, 0, True, False)
        barrier(t, ctx)
        before = t.ctx.stats  # noqa: F841  (stats unused, keep ctx alive)
        r = t.read(1, 0, 0, True, False)
        assert r.kind is MissKind.CONSERVATIVE
        assert r.read_words == 0 and r.coherence_words == 2
        assert t.lease_renewals == 1
        # The renewal decision came straight from the rule.
        assert tardis_rules.renewal_ok(0, t.mem_wts.get(0, 0), t.base)

    def test_write_on_stale_copy_refetches_before_stamping(self):
        # Regression for the subtlest protocol bug: a write stamps the
        # whole line current through ts_w, so a resident copy that may
        # have missed a remote write (renewal_ok false) must re-fetch
        # first or it would re-lease stale sibling words.
        t, ctx = new_tardis()
        t.read(0, 8, 0, True, False)       # proc 0 caches the line
        t.write(1, 9, 0, True, False)      # remote write, other word
        barrier(t, ctx)
        r = t.write(0, 8, 0, True, False)  # proc 0 writes its own word
        assert r.read_words > 0            # the re-validation fetch
        r2 = t.read(0, 9, 0, True, False)  # sibling word is current
        assert r2.kind is MissKind.HIT and r2.version == 1

    def test_invariants_hold_through_mixed_sequence(self):
        t, ctx = new_tardis(n_procs=4)
        for step in range(40):
            proc = step % 4
            addr = (step * 7) % 64
            if step % 3 == 0:
                t.write(proc, addr, 0, True, False)
            else:
                t.read(proc, addr, 0, True, False)
            t.check_invariants()
            if step % 10 == 9:
                barrier(t, ctx)


class TestRebase:
    def test_bounded_timestamps_force_rebases(self):
        t, ctx = new_tardis(timestamp_bits=4, lease=4)
        t.read(1, 0, 0, True, False)       # ancient lease on line A
        for _ in range(30):                # mint timestamps well past 2^4
            t.write(0, 16, 0, True, False)
            barrier(t, ctx)
        assert t.rebases >= 2
        t.check_invariants()
        # Post-rebase the ancient copy is clamp-ambiguous: unwritten, but
        # the proof is gone, so it re-fetches as CONSERVATIVE — never a
        # (stale) renewal, never a wrong version.
        r = t.read(1, 0, 0, True, False)
        assert r.kind is MissKind.CONSERVATIVE
        assert r.read_words > 0 and r.version == 0
        assert t.lease_renewals == 0

    def test_all_timestamps_stay_in_window_after_rebase(self):
        t, ctx = new_tardis(timestamp_bits=4, lease=4)
        for step in range(50):
            # Reads lease scattered lines; repeated writes to one line
            # chain through its lease and keep logical time advancing.
            t.read(step % 3, (step % 4) * 4, 0, True, False)
            t.write(step % 3, 64, 0, True, False)
            if step % 5 == 4:
                barrier(t, ctx)
        assert t.rebases >= 2
        for proc in range(3):
            assert int(t.rts_a[proc].min()) >= t.base
            assert int(t.wts_a[proc].min()) >= t.base
        for ts in list(t.mem_rts.values()) + list(t.mem_wts.values()):
            assert ts >= t.base


class TestTardisEndToEnd:
    def test_workload_runs_coherently(self):
        from repro.common.config import default_machine
        from repro.sim import prepare, simulate
        from repro.workloads import build_workload

        machine = default_machine().with_(n_procs=4)
        run = prepare(build_workload("ocean", size="small"), machine)
        r = simulate(run, "tardis")
        # Leases expire and renew; no invalidation machinery exists.
        assert r.extra["lease_expiries"] > 0
        assert r.extra["lease_renewals"] > 0

    def test_narrow_timestamps_rebase_on_workload(self):
        from repro.common.config import default_machine
        from repro.sim import prepare, simulate
        from repro.workloads import build_workload

        machine = default_machine().with_(
            n_procs=4, tardis=TardisConfig(lease=4, timestamp_bits=4))
        run = prepare(build_workload("ocean", size="small"), machine)
        r = simulate(run, "tardis")
        assert r.extra["rebases"] > 0
