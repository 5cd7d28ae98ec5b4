"""`repro lint` CLI behaviour, cache plumbing, and workload acceptance."""

import json

import pytest

from repro.analysis import sanitizer
from repro.analysis.lint import ALL_MODES, lint_workload
from repro.analysis.mutate import mutation_self_test
from repro.cli import main
from repro.runtime import ArtifactCache
from repro.workloads import build_workload, workload_names

WORKLOADS = workload_names()


class TestExitCodes:
    def test_clean_workload_exits_zero(self, capsys):
        assert main(["lint", "ocean", "--no-cache", "--no-sanitize",
                     "--mode", "inline"]) == 0
        out = capsys.readouterr().out
        assert "lint ocean: 0 error(s)" in out

    def test_unknown_workload_one_line_exit_2(self, capsys):
        assert main(["lint", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown workload 'nosuch'")
        assert len(err.strip().splitlines()) == 1

    def test_unknown_scheme_one_line_exit_2(self, capsys):
        assert main(["lint", "ocean", "--scheme", "hw"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown scheme 'hw'")
        assert len(err.strip().splitlines()) == 1

    def test_unknown_mode_one_line_exit_2(self, capsys):
        assert main(["lint", "ocean", "--mode", "bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown interprocedural mode")

    def test_strict_turns_warnings_into_failure(self):
        # arc2d carries known TPI002 precision warnings.
        relaxed = main(["lint", "arc2d", "--no-cache", "--no-sanitize"])
        strict = main(["lint", "arc2d", "--no-cache", "--no-sanitize",
                       "--strict"])
        assert relaxed == 0
        assert strict == 1


class TestJsonAndCache:
    def test_json_report_written(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["lint", "ocean", "--no-cache", "--no-sanitize",
                     "--mode", "inline", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["subject"] == "ocean"
        assert payload["counts"]["error"] == 0
        assert payload["meta"]["modes"] == "inline"

    def test_json_list_for_multiple_workloads(self, tmp_path):
        path = tmp_path / "all.json"
        assert main(["lint", "all", "--no-cache", "--no-sanitize",
                     "--mode", "inline", "--scheme", "tpi",
                     "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert isinstance(payload, list)
        assert [r["subject"] for r in payload] == list(WORKLOADS)

    def test_warm_repeat_hits_cache(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cold = lint_workload("ocean", modes=["inline"], schemes=["tpi"],
                             sanitize=False, cache=cache)
        assert cold.meta["cache"] == "miss"
        warm = lint_workload("ocean", modes=["inline"], schemes=["tpi"],
                             sanitize=False, cache=cache)
        assert warm.meta["cache"] == "hit"
        assert warm.to_dict()["counts"] == cold.to_dict()["counts"]
        assert cache.stats().entries.get("lint") == 1

    def test_cache_key_depends_on_request(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        lint_workload("ocean", modes=["inline"], schemes=["tpi"],
                      sanitize=False, cache=cache)
        other = lint_workload("ocean", modes=["summary"], schemes=["tpi"],
                              sanitize=False, cache=cache)
        assert other.meta["cache"] == "miss"
        assert cache.stats().entries.get("lint") == 2

    def test_edited_module_misses_the_cache(self, tmp_path, edit_source):
        """A report cached before an edit to the sanitizer is not served
        after it."""
        cache = ArtifactCache(tmp_path)
        lint_workload("ocean", modes=["inline"], schemes=["tpi"],
                      cache=cache)
        edit_source(sanitizer.__file__)
        edited = lint_workload("ocean", modes=["inline"], schemes=["tpi"],
                               cache=cache)
        assert edited.meta["cache"] == "miss"

    def test_cli_cache_dir_round_trip(self, tmp_path, capsys):
        args = ["lint", "ocean", "--mode", "inline", "--scheme", "tpi",
                "--no-sanitize", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "cache=hit" in capsys.readouterr().out


class TestJsonUsageErrors:
    def test_unwritable_json_one_line_exit_2(self, capsys):
        assert main(["lint", "ocean", "--no-cache", "--no-sanitize",
                     "--mode", "none",
                     "--json", "/nonexistent-dir/report.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write --json output")
        assert len(err.strip().splitlines()) == 1


class TestModelcheckFlag:
    def test_lint_modelcheck_appends_protocol_report(self, tmp_path, capsys,
                                                     monkeypatch):
        import repro.analysis.modelcheck as mc

        # One small config stands in for the default grid; the full grid
        # runs in tests/test_modelcheck.py and the CI modelcheck step.
        monkeypatch.setattr(mc, "DEFAULT_CONFIGS", (
            mc.ModelConfig(n_procs=2, n_lines=1, line_words=1,
                           timetag_bits=2, max_epochs=10),))
        path = tmp_path / "combined.json"
        assert main(["lint", "ocean", "--no-cache", "--no-sanitize",
                     "--mode", "none", "--modelcheck",
                     "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "modelcheck tpi-protocol: 0 error(s)" in out
        payload = json.loads(path.read_text())
        assert [p.get("tool", "lint") for p in payload] == \
            ["lint", "modelcheck"]


class TestSelfTestFlag:
    def test_self_test_output(self, capsys):
        assert main(["lint", "trfd", "--no-cache", "--no-sanitize",
                     "--mode", "inline", "--self-test"]) == 0
        out = capsys.readouterr().out
        assert "mutation self-test trfd [inline]:" in out
        assert "MISSED" not in out


class TestWorkloadAcceptance:
    """Issue acceptance: zero lint errors on every seed workload for both
    schemes in every interprocedural mode, and 100% mutation detection."""

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_zero_errors_all_modes_and_schemes(self, name):
        report = lint_workload(name, size="small", sanitize=True)
        assert report.meta["modes"] == "inline,summary,none"
        assert report.meta["schemes"] == "tpi,sc"
        assert report.errors == [], report.render()

    @pytest.mark.parametrize("name", WORKLOADS)
    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
    def test_mutation_detection_is_total(self, name, mode):
        program = build_workload(name, size="small")
        result = mutation_self_test(program, mode=mode)
        assert result.seeded_errors > 0
        assert result.detection_rate == 1.0, result.summary()
        assert result.missed == []
