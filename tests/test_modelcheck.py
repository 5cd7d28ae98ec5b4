"""Bounded-exhaustive protocol verification (repro.analysis.modelcheck
and repro.analysis.modelcheck_tardis, on the shared repro.analysis.mc_core).

Covers the verification claims end to end for both checked protocols
(TPI timetags and Tardis leases): the default config grids are clean and
force the counter wrap-arounds / timestamp rebases, the checkers consult
the *same* rule functions the production schemes execute, every seeded
protocol bug yields a counterexample that the production implementation
refutes (and, when production shares the bug, confirms), and the CLI /
cache plumbing behaves like ``repro lint``'s.

The self-test, report/cache and CLI cases are written once (the
``_*Cases`` bases) and run per protocol by the TPI and Tardis classes,
each of which binds ``P`` to that protocol's entry points.
"""

import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis.diagnostics import RULES, Severity
from repro.analysis.modelcheck import (
    DEFAULT_CONFIGS,
    PRODUCTION_RULES,
    SELF_TEST_CONFIGS,
    ModelConfig,
    check_config,
    modelcheck_report,
    protocol_mutants,
    protocol_self_test,
    replay_counterexample,
)
from repro.analysis.modelcheck_tardis import (
    TARDIS_DEFAULT_CONFIGS,
    TARDIS_PRODUCTION_RULES,
    TARDIS_SELF_TEST_CONFIGS,
    TardisModelConfig,
    replay_tardis_counterexample,
    tardis_check_config,
    tardis_modelcheck_report,
    tardis_mutants,
    tardis_self_test,
)
from repro.cli import main
from repro.coherence import tardis, tardis_rules, tpi, tpi_rules
from repro.common.errors import ConfigError
from repro.runtime import ArtifactCache

SMALL = ModelConfig(n_procs=2, n_lines=1, line_words=1, timetag_bits=2,
                    max_epochs=10)
TARDIS_SMALL = TardisModelConfig(n_procs=2, n_lines=1, line_words=1,
                                 timestamp_bits=2, lease=1, max_ts=9)

TPI = SimpleNamespace(
    small=SMALL, bigger=replace(SMALL, max_epochs=9),
    shallow=replace(SMALL, max_epochs=6),
    check=check_config, report=modelcheck_report,
    self_test=protocol_self_test, mutants=protocol_mutants,
    self_test_configs=SELF_TEST_CONFIGS,
    codes=("MC001", "MC002", "MC003", "MC004"), coverage="wraps",
    subject="tpi-protocol", scheme=(), scheme_module=tpi,
    horizon="--epochs", deep="10", shallow_horizon="6")
TARDIS = SimpleNamespace(
    small=TARDIS_SMALL, bigger=replace(TARDIS_SMALL, max_ts=8),
    shallow=replace(TARDIS_SMALL, max_ts=3),
    check=tardis_check_config, report=tardis_modelcheck_report,
    self_test=tardis_self_test, mutants=tardis_mutants,
    self_test_configs=TARDIS_SELF_TEST_CONFIGS,
    codes=("MC101", "MC102", "MC103", "MC104"), coverage="rebases",
    subject="tardis-protocol", scheme=("--scheme", "tardis"),
    scheme_module=tardis,
    horizon="--max-ts", deep="9", shallow_horizon="3")


class TestSharedRules:
    """The verified logic must BE the production logic, not a copy."""

    def test_production_rules_bind_the_shared_module(self):
        assert PRODUCTION_RULES.timestamp_hit is tpi_rules.timestamp_hit
        assert PRODUCTION_RULES.strict_hit is tpi_rules.strict_hit
        assert PRODUCTION_RULES.fill_tag is tpi_rules.fill_tag
        assert PRODUCTION_RULES.w_register_update is tpi_rules.w_register_update
        assert PRODUCTION_RULES.crossed_phase_bounds is \
            tpi_rules.crossed_phase_bounds
        assert PRODUCTION_RULES.reset_selects is tpi_rules.reset_selects

    def test_simulator_imports_the_same_functions(self):
        assert tpi.timestamp_hit is tpi_rules.timestamp_hit
        assert tpi.strict_hit is tpi_rules.strict_hit
        assert tpi.fill_tag is tpi_rules.fill_tag
        assert tpi.w_register_update is tpi_rules.w_register_update
        assert tpi.crossed_phase_bounds is tpi_rules.crossed_phase_bounds

    def test_batch_kernel_imports_the_same_functions(self):
        import repro.coherence.batch as batch

        assert batch.time_read_window is tpi_rules.time_read_window
        assert batch.word_age is tpi_rules.word_age


class TestDefaultGrid:
    def test_grid_covers_the_issue_bounds(self):
        assert any(c.n_procs >= 3 for c in DEFAULT_CONFIGS)
        assert any(c.n_lines >= 2 for c in DEFAULT_CONFIGS)
        assert any(c.line_words >= 2 for c in DEFAULT_CONFIGS)
        assert {c.timetag_bits for c in DEFAULT_CONFIGS} >= {2, 3}
        assert all(c.n_procs >= 2 for c in DEFAULT_CONFIGS)
        assert all(c.wraps >= 2 for c in DEFAULT_CONFIGS)

    def test_smallest_config_is_exhaustive_and_clean(self):
        result = check_config(SMALL)
        assert result.ok
        assert not result.truncated
        assert result.violations == []
        assert result.states > 1000
        assert result.reads_checked > 0
        assert "OK" in result.summary()

    def test_three_procs_and_k3_configs_are_clean(self):
        for config in DEFAULT_CONFIGS:
            if config.n_procs == 3 or config.timetag_bits == 3:
                result = check_config(config)
                assert result.ok, result.summary()

    def test_bounds_are_validated(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_procs=1)
        with pytest.raises(ConfigError):
            ModelConfig(timetag_bits=9)
        with pytest.raises(ConfigError):
            ModelConfig(max_epochs=0)

    def test_state_cap_marks_truncation(self):
        result = check_config(SMALL, max_states=50)
        assert result.truncated
        assert not result.ok


# ------------------------------------------------------------ shared cases


class _SelfTestCases:
    """Acceptance gate: 100% of seeded protocol bugs must be caught."""

    def first_violation(self, mutant):
        for config in self.P.self_test_configs:
            result = self.P.check(config, mutant)
            if result.violations:
                return result.violations[0]
        pytest.fail(f"mutant {mutant.name} produced no counterexample")

    def test_every_seeded_bug_is_caught(self):
        result = self.P.self_test(replay=False)
        assert result.seeded == 4
        assert result.detection_rate == 1.0, result.summary()
        assert result.missed == []

    def test_production_refutes_every_mutant_counterexample(self):
        """The replay direction tests cannot fake: production does not
        have the seeded bugs, so it must reject each mutant's trace."""
        result = self.P.self_test(replay=True)
        assert all(m.refuted_by_production for m in result.mutations), \
            [(m.name, m.refuted_by_production) for m in result.mutations]

    def test_counterexample_renders_each_action_once(self):
        """A trace ends with the serving read, which renders as the
        violation line alone, never also as an ordinary action."""
        for mutant in self.P.mutants():
            violation = self.first_violation(mutant)
            assert violation.trace[-1][0] == "read"
            rendered = violation.render()
            assert len(rendered) == len(violation.trace), rendered
            assert rendered[-1].endswith("** staleness-safety violation")
            assert not any("violation" in line for line in rendered[:-1])


class _ReportCases:
    def test_clean_report_exits_zero(self):
        report = self.P.report([self.P.small], cache=None)
        assert report.tool == "modelcheck"
        assert report.exit_code() == 0
        assert report.meta[self.P.coverage] >= 2
        assert report.meta["states"] > 0
        payload = report.to_dict()
        assert payload["tool"] == "modelcheck"
        assert payload["counts"]["error"] == 0

    def coverage_warns(self):
        report = self.P.report([self.P.shallow], cache=None)
        assert [d.rule_id for d in report.diagnostics] == [self.P.codes[2]]
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 1

    def truncation_warns(self):
        report = self.P.report([self.P.small], max_states=50, cache=None)
        assert self.P.codes[3] in {d.rule_id for d in report.diagnostics}

    def test_mc_rules_are_catalogued(self):
        error, drift, coverage, truncation = self.P.codes
        assert RULES[error].severity is Severity.ERROR
        assert RULES[drift].severity is Severity.ERROR
        assert RULES[coverage].severity is Severity.WARNING
        assert RULES[truncation].severity is Severity.WARNING

    def test_warm_repeat_hits_cache(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cold = self.P.report([self.P.small], cache=cache)
        assert cold.meta["cache"] == "miss"
        warm = self.P.report([self.P.small], cache=cache)
        assert warm.meta["cache"] == "hit"
        assert warm.to_dict()["counts"] == cold.to_dict()["counts"]
        assert cache.stats().entries.get("modelcheck") == 1

    def cache_key_depends_on_bounds(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        self.P.report([self.P.small], cache=cache)
        other = self.P.report([self.P.bigger], cache=cache)
        assert other.meta["cache"] == "miss"
        assert cache.stats().entries.get("modelcheck") == 2

    def test_cache_key_depends_on_search_bounds(self, tmp_path):
        """A truncated run must not answer a later exhaustive one."""
        cache = ArtifactCache(tmp_path)
        truncated = self.P.report([self.P.small], max_states=50, cache=cache)
        assert truncated.meta["cache"] == "miss"
        assert self.P.codes[3] in {d.rule_id for d in truncated.diagnostics}
        full = self.P.report([self.P.small], cache=cache)
        assert full.meta["cache"] == "miss"
        assert full.diagnostics == []
        assert full.meta["states"] > truncated.meta["states"]
        for bounds in ({"max_violations": 1}, {"replay": False}):
            again = self.P.report([self.P.small], cache=cache, **bounds)
            assert again.meta["cache"] == "miss", bounds
        warm = self.P.report([self.P.small], cache=cache)
        assert warm.meta["cache"] == "hit"

    def test_cache_key_depends_on_the_scheme_module(self, tmp_path,
                                                    monkeypatch):
        """Drift verdicts replay through the production scheme, so an
        edit to the scheme's module must not be answered from the cache."""
        cache = ArtifactCache(tmp_path)
        self.P.report([self.P.shallow], cache=cache)
        scheme_file = Path(self.P.scheme_module.__file__)
        read_bytes = Path.read_bytes
        monkeypatch.setattr(
            Path, "read_bytes", lambda path: read_bytes(path)
            + (b"# edited\n" if path == scheme_file else b""))
        edited = self.P.report([self.P.shallow], cache=cache)
        assert edited.meta["cache"] == "miss"

    def test_mutant_reports_are_never_cached(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        mutant = self.P.mutants()[0]
        self.P.report([self.P.small], rules=mutant, cache=cache)
        assert cache.stats().entries.get("modelcheck", 0) == 0


class _CliCases:
    def args(self, *extra, horizon=None):
        return ["modelcheck", *self.P.scheme, "--procs", "2", "--lines", "1",
                "--words", "1", "--k", "2", self.P.horizon,
                horizon or self.P.deep, *extra]

    def test_explicit_bounds_exit_zero(self, capsys):
        assert main(self.args("--no-cache")) == 0
        out = capsys.readouterr().out
        assert f"modelcheck {self.P.subject}: 0 error(s)" in out
        assert self.P.small.label in out

    def test_bad_bounds_one_line_exit_2(self, capsys):
        assert main(["modelcheck", *self.P.scheme, self.P.horizon, "99",
                     "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_self_test_flag(self, capsys):
        assert main(self.args("--no-cache", "--self-test",
                              "--no-replay")) == 0
        out = capsys.readouterr().out
        assert "4/4 seeded protocol bugs" in out
        assert "MISSED" not in out

    def test_shallow_bounds_warn_but_exit_zero(self, capsys):
        args = self.args("--no-cache", horizon=self.P.shallow_horizon)
        assert main(args) == 0
        assert self.P.codes[2] in capsys.readouterr().out
        assert main([*args, "--strict"]) == 1

    def test_json_report_written(self, tmp_path, capsys):
        path = tmp_path / "mc.json"
        assert main(self.args("--no-cache", "--json", str(path))) == 0
        payload = json.loads(path.read_text())
        assert payload["tool"] == "modelcheck"
        assert payload["counts"]["error"] == 0
        assert payload["meta"][self.P.coverage] >= 2

    def test_unwritable_json_one_line_exit_2(self, capsys):
        args = self.args("--no-cache", "--json", "/nonexistent-dir/out.json",
                         horizon=self.P.shallow_horizon)
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write --json output")
        assert len(err.strip().splitlines()) == 1

    def test_cache_dir_round_trip(self, tmp_path, capsys):
        args = self.args("--cache-dir", str(tmp_path))
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "cache=hit" in capsys.readouterr().out


# --------------------------------------------------------------------- tpi


class TestMutationSelfTest(_SelfTestCases):
    P = TPI

    @pytest.mark.parametrize("mutant", protocol_mutants(),
                             ids=lambda m: m.name)
    def test_each_mutant_falls_on_the_small_config(self, mutant):
        violation = self.first_violation(mutant)
        rendered = "\n".join(violation.render())
        assert "staleness-safety violation" in rendered
        assert violation.stale_since < violation.epoch

    def test_serving_read_is_not_also_rendered_as_a_miss(self):
        mutant = next(m for m in protocol_mutants()
                      if m.name == "drop-racy-bump")
        rendered = check_config(SMALL, mutant).violations[0].render()
        assert rendered[-2] == "epoch 2 begins [no writes]"
        assert rendered[-1].startswith(
            "  p0 ts Time-Read w0 -> HIT (tag 1, R 2) on a copy stale "
            "since epoch 1")
        assert "  p0 ts Time-Read w0 -> miss, line fill" not in rendered


def _window_off_by_one(epoch, tag, w_reg, modulus):
    return tpi_rules.word_age(epoch, tag, modulus) <= \
        tpi_rules.time_read_window(epoch, w_reg, modulus) + 1


class TestProductionReplay:
    def test_replay_confirms_when_production_shares_the_bug(self, monkeypatch):
        """Completeness cross-check: seed the same bug into the model AND
        the production scheme; the replay must now confirm the trace."""
        monkeypatch.setattr(tpi, "timestamp_hit", _window_off_by_one)
        mutant = replace(PRODUCTION_RULES, name="window-off-by-one",
                         timestamp_hit=_window_off_by_one)
        result = check_config(SMALL, mutant)
        assert result.violations
        outcome = replay_counterexample(result.violations[0])
        assert outcome.confirmed, outcome
        assert "stale read" in outcome.detail

    def test_divergence_raises_mc002(self, monkeypatch):
        """A counterexample against the production *rules* that production
        itself refutes means the abstract model drifted: MC002."""
        import repro.analysis.modelcheck as mc

        mutant = replace(PRODUCTION_RULES, name="production",
                         timestamp_hit=_window_off_by_one)
        monkeypatch.setattr(mc, "PRODUCTION_RULES", mutant)
        report = mc.modelcheck_report([SMALL], rules=mutant,
                                      max_violations=1)
        rule_ids = {d.rule_id for d in report.diagnostics}
        assert "MC001" in rule_ids
        assert "MC002" in rule_ids
        assert report.exit_code() == 1


class TestReportAndCache(_ReportCases):
    P = TPI
    test_under_two_wraps_warns_mc003 = _ReportCases.coverage_warns
    test_truncation_warns_mc004 = _ReportCases.truncation_warns
    test_cache_key_depends_on_bounds = _ReportCases.cache_key_depends_on_bounds


class TestCli(_CliCases):
    P = TPI


# --------------------------------------------------------------------- tardis


class TestTardisSharedRules:
    """The verified logic must BE the production logic, not a copy."""

    def test_production_rules_bind_the_shared_module(self):
        assert TARDIS_PRODUCTION_RULES.lease_hit is tardis_rules.lease_hit
        assert TARDIS_PRODUCTION_RULES.lease_grant is tardis_rules.lease_grant
        assert TARDIS_PRODUCTION_RULES.own_lease is tardis_rules.own_lease
        assert TARDIS_PRODUCTION_RULES.write_timestamp is \
            tardis_rules.write_timestamp
        assert TARDIS_PRODUCTION_RULES.pts_join is tardis_rules.pts_join
        assert TARDIS_PRODUCTION_RULES.renewal_ok is tardis_rules.renewal_ok
        assert TARDIS_PRODUCTION_RULES.write_renewal_ok is \
            tardis_rules.renewal_ok
        assert TARDIS_PRODUCTION_RULES.rebase_needed is \
            tardis_rules.rebase_needed
        assert TARDIS_PRODUCTION_RULES.rebase_base is tardis_rules.rebase_base
        assert TARDIS_PRODUCTION_RULES.clamp is tardis_rules.clamp

    def test_simulator_binds_the_same_module(self):
        assert tardis.tardis_rules is tardis_rules

    @pytest.mark.parametrize("rule, args, kind", [
        ("lease_hit", (3, 4), bool),
        ("lease_grant", (3, 2, 1), int),
        ("own_lease", (3, 1), int),
        ("write_timestamp", (3, 5), int),
        ("pts_join", ((1, 4, 2),), int),
        ("renewal_ok", (2, 2, 1), bool),
        ("rebase_needed", (5, 1, 0, 4), bool),
        ("rebase_base", (5, 4), int),
        ("clamp", (2, 3), int),
    ])
    def test_rules_are_plain_python_on_ints(self, rule, args, kind):
        """The checker calls these millions of times: an int in must
        give a builtin int or bool out, never a numpy scalar."""
        assert type(getattr(tardis_rules, rule)(*args)) is kind


class TestTardisDefaultGrid:
    def test_grid_covers_the_issue_bounds(self):
        assert any(c.n_procs >= 3 for c in TARDIS_DEFAULT_CONFIGS)
        assert any(c.n_lines >= 2 for c in TARDIS_DEFAULT_CONFIGS)
        assert any(c.line_words >= 2 for c in TARDIS_DEFAULT_CONFIGS)
        assert {c.timestamp_bits for c in TARDIS_DEFAULT_CONFIGS} >= {2, 3}
        assert all(c.n_procs >= 2 for c in TARDIS_DEFAULT_CONFIGS)

    def test_smallest_config_is_exhaustive_and_clean(self):
        result = tardis_check_config(TARDIS_SMALL)
        assert result.ok
        assert not result.truncated
        assert result.violations == []
        # Absolute pins: a change to the rules' arithmetic or to the
        # enumerator that alters the explored space shows up here.
        assert (result.states, result.transitions, result.reads_checked,
                result.max_rebases) == (6083, 25124, 9402, 2)
        assert "OK" in result.summary()

    def test_k3_config_is_clean_and_rebases_twice(self):
        for config in TARDIS_DEFAULT_CONFIGS:
            if config.timestamp_bits == 3:
                result = tardis_check_config(config)
                assert result.ok, result.summary()
                assert result.max_rebases >= 2

    def test_bounds_are_validated(self):
        with pytest.raises(ConfigError):
            TardisModelConfig(n_procs=1)
        with pytest.raises(ConfigError):
            TardisModelConfig(timestamp_bits=5)
        with pytest.raises(ConfigError):
            TardisModelConfig(timestamp_bits=2, lease=2)
        with pytest.raises(ConfigError):
            TardisModelConfig(max_ts=0)

    def test_state_cap_marks_truncation(self):
        result = tardis_check_config(TARDIS_SMALL, max_states=50)
        assert result.truncated
        assert not result.ok


#: Each Tardis mutant's minimal (breadth-first) counterexample: the
#: self-test config it falls on and its rendered trace.
TARDIS_MUTANT_TRACES = {
    "renewal-ignores-base": ("p2.l2.w1.k2.s1.t4", [
        "  p0 writes l0.w0",
        "  p1 writes l0.w0",
        "  p1 writes l1.w0",
        "  p0 writes l1.w0",
        "barrier (pts join -> 3 + rebase)",
        "  p0 reads l0.w0 -> renewal serves version 1 below the barrier "
        "floor 2  ** staleness-safety violation"]),
    "write-skips-revalidate": ("p2.l1.w2.k2.s1.t8", [
        "  p0 writes l0.w0",
        "  p1 writes l0.w0",
        "barrier (pts join -> 2 + rebase)",
        "  p0 writes l0.w1",
        "  p0 reads l0.w0 -> hit serves version 1 below the barrier "
        "floor 2  ** staleness-safety violation"]),
    "grant-caps-rts": ("p2.l1.w2.k2.s1.t8", [
        "  p0 writes l0.w0",
        "  p0 writes l0.w0",
        "  p1 reads l0.w0 -> fetch",
        "  p0 writes l0.w0",
        "barrier (pts join -> 2 + rebase)",
        "  p1 reads l0.w0 -> renewal serves version 2 below the barrier "
        "floor 3  ** staleness-safety violation"]),
    "lease-off-by-one": ("p2.l1.w2.k2.s1.t8", [
        "  p0 writes l0.w0",
        "  p1 writes l0.w0",
        "barrier (pts join -> 2 + rebase)",
        "  p0 reads l0.w0 -> hit serves version 1 below the barrier "
        "floor 2  ** staleness-safety violation"]),
}


class TestTardisMutationSelfTest(_SelfTestCases):
    P = TARDIS

    @pytest.mark.parametrize("mutant", tardis_mutants(),
                             ids=lambda m: m.name)
    def test_each_mutant_falls_on_the_self_test_grid(self, mutant):
        violation = self.first_violation(mutant)
        assert violation.version < violation.floor
        assert violation.served in ("hit", "renewal")
        assert (violation.config.label, violation.render()) == \
            TARDIS_MUTANT_TRACES[mutant.name]


def _lease_off_by_one(pts, rts):
    return rts + 1 >= pts


def _renewal_ignores_base(cached_wts, mem_wts, base):
    return cached_wts == mem_wts


class TestTardisProductionReplay:
    def test_replay_confirms_when_production_shares_the_bug(self, monkeypatch):
        """Completeness cross-check: seed the same bug into the model AND
        the production scheme; the replay must now confirm the trace."""
        monkeypatch.setattr(tardis_rules, "lease_hit", _lease_off_by_one)
        mutant = replace(TARDIS_PRODUCTION_RULES, name="lease-off-by-one",
                         lease_hit=_lease_off_by_one)
        result = tardis_check_config(TARDIS_SELF_TEST_CONFIGS[0], mutant)
        assert result.violations
        outcome = replay_tardis_counterexample(result.violations[0])
        assert outcome.confirmed, outcome
        assert "stale read" in outcome.detail

    def test_replay_confirms_a_shared_renewal_bug(self, monkeypatch):
        """The same cross-check on the renewal path: the serving read is
        the trace's last action and replays exactly once."""
        monkeypatch.setattr(tardis_rules, "renewal_ok", _renewal_ignores_base)
        mutant = replace(TARDIS_PRODUCTION_RULES, name="renewal-ignores-base",
                         renewal_ok=_renewal_ignores_base,
                         write_renewal_ok=_renewal_ignores_base)
        result = tardis_check_config(TARDIS_SELF_TEST_CONFIGS[1], mutant)
        violation = result.violations[0]
        assert violation.served == "renewal"
        assert violation.trace[-1] == ("read", violation.proc, violation.line,
                                       violation.word, "renew")
        outcome = replay_tardis_counterexample(violation)
        assert outcome.confirmed, outcome
        assert outcome.mismatches == ()
        assert "stale read" in outcome.detail

    def test_divergence_raises_mc102(self, monkeypatch):
        """A counterexample against the production *rules* that production
        itself refutes means the abstract model drifted: MC102."""
        import repro.analysis.modelcheck_tardis as mct

        mutant = replace(TARDIS_PRODUCTION_RULES, name="production",
                         lease_hit=_lease_off_by_one)
        monkeypatch.setattr(mct, "TARDIS_PRODUCTION_RULES", mutant)
        report = mct.tardis_modelcheck_report(
            [TARDIS_SELF_TEST_CONFIGS[0]], rules=mutant, max_violations=1)
        rule_ids = {d.rule_id for d in report.diagnostics}
        assert "MC101" in rule_ids
        assert "MC102" in rule_ids
        assert report.exit_code() == 1


class TestTardisReportAndCache(_ReportCases):
    P = TARDIS
    test_under_two_rebases_warns_mc103 = _ReportCases.coverage_warns
    test_truncation_warns_mc104 = _ReportCases.truncation_warns

    def test_cache_key_depends_on_bounds_and_scheme(self, tmp_path):
        self.cache_key_depends_on_bounds(tmp_path)
        cache = ArtifactCache(tmp_path)
        modelcheck_report([SMALL], cache=cache)
        assert cache.stats().entries.get("modelcheck") == 3


class TestTardisCli(_CliCases):
    P = TARDIS

    def test_scheme_flag_mismatch_exit_2(self, capsys):
        assert main(["modelcheck", "--lease", "2", "--no-cache"]) == 2
        assert "tardis only" in capsys.readouterr().err
        assert main(["modelcheck", "--scheme", "tardis", "--epochs", "6",
                     "--no-cache"]) == 2
        assert "tpi only" in capsys.readouterr().err
