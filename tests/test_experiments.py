"""Tests for the experiment harness (structure + fast experiments).

The heavyweight shape assertions live in benchmarks/; here we verify the
harness machinery itself and the cheap analytic experiments.
"""

import pytest

from repro.common.config import default_machine
from repro.experiments import EXPERIMENTS, experiment_ids, run_experiment
from repro.experiments.common import Bench, ExperimentResult
from repro.runtime import ArtifactCache, Telemetry, session


class TestHarness:
    def test_registry_covers_design_doc(self):
        expected = {
            "fig5_storage", "fig8_params", "tab_marking", "fig11_miss_rates",
            "fig12_classification", "fig13_traffic", "tab_latency",
            "fig14_exectime", "fig15_timetag", "fig16_linesize",
            "fig17_wbuffer", "fig18_migration", "fig19_consistency",
            "fig20_update", "fig21_cache", "fig22_breakdown",
            "fig23_scaling", "fig23_scaling_x", "fig24_timeline",
            "fig25_taggranularity",
            "cmp_coherence",
        }
        assert set(experiment_ids()) == expected

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("fig99_nothing")

    def test_result_accessors(self):
        result = ExperimentResult("x", "t", headers=["a", "b"],
                                  rows=[["k1", 1], ["k2", 2]])
        assert result.column("b") == [1, 2]
        assert result.cell("k2", "b") == 2
        with pytest.raises(KeyError):
            result.cell("k3", "b")
        rendered = result.render()
        assert "k1" in rendered and "== x" in rendered

    def test_bench_caches_prepared_runs(self):
        bench = Bench(size="small", workloads=["ocean"])
        r1 = bench.result("ocean", "tpi")
        assert bench.result("ocean", "tpi") is r1

    def test_bench_keys_results_by_machine_value(self):
        """Temporaries made in a loop may share an id(); each must still
        get its own result, and an equal machine must find it again."""
        bench = Bench(size="small", workloads=["trfd"], schemes=("base",))
        base = default_machine()
        cycles = [bench.result("trfd", "base",
                               base.with_(n_procs=p)).exec_cycles
                  for p in (1, 2, 4, 8)]
        assert len(set(cycles)) == 4
        again = bench.result("trfd", "base", base.with_(n_procs=4))
        assert again.exec_cycles == cycles[2]

    def test_bench_submits_its_grid_in_one_batch(self):
        telemetry = Telemetry()
        machines = [default_machine().with_(n_procs=p) for p in (2, 4)]
        bench = Bench(size="small", workloads=["trfd", "ocean"],
                      schemes=("tpi", "hw"), machines=machines)
        with session(telemetry=telemetry):
            bench.result("trfd", "tpi", machines[0])
            assert telemetry.jobs_submitted == 8
            bench.result("ocean", "hw", machines[1])
            assert telemetry.jobs_submitted == 8
            bench.result("ocean", "sc", machines[1])  # outside the grid
            assert telemetry.jobs_submitted == 9


class TestFastExperiments:
    def test_fig5(self):
        result = run_experiment("fig5_storage")
        assert len(result.rows) == 5  # paper's 3 + limited-pointer + Tardis
        assert result.cell("two-phase invalidation", "memory DRAM (GB)") == 0.0
        # The simulated-scheme rows sit between TPI and full-map.
        full = result.cell("full-map", "memory DRAM (GB)")
        for scheme in ("limited-pointer Dir_10B", "Tardis"):
            assert 0.0 < result.cell(scheme, "memory DRAM (GB)") < full

    def test_fig8(self):
        result = run_experiment("fig8_params")
        assert dict(result.rows)["number of processors"] == "16"

    def test_tab_marking_small(self):
        result = run_experiment("tab_marking", size="small")
        assert len(result.rows) == 6
        for row in result.rows:
            assert 0 < row[2] <= 100.0  # inline fraction sane

    def test_fig11_small_shapes(self):
        result = run_experiment("fig11_miss_rates", size="small")
        for row in result.rows:
            name, base, sc, tpi, hw = row
            assert base >= sc >= tpi >= 0
            assert hw >= 0

    def test_cmp_coherence_small_shapes(self):
        """The 1996-vs-2015 comparison: the scheme-gang results must
        match solo runs, and the note's shape claims must hold."""
        result = run_experiment("cmp_coherence", size="small")
        bench = Bench(size="small", schemes=("tardis",))
        for row in result.rows:
            name = row[0]
            # snoop and the directory decide invalidations identically on
            # this fabric: their miss columns coincide.
            assert result.cell(name, "SNOOP miss") == \
                result.cell(name, "HW miss")
            # Tardis lease expiries cost more misses than TPI's marks.
            assert result.cell(name, "TARDIS miss") >= \
                result.cell(name, "TPI miss")
            # Gang results are byte-identical to a solo simulation.
            solo = bench.result(name, "tardis")
            assert result.cell(name, "TARDIS miss") == \
                pytest.approx(100.0 * solo.miss_rate)


class TestRuntimeRouting:
    """Experiments that once ran their cells by hand go through the
    executor: their jobs reach telemetry and the artifact cache."""

    @pytest.mark.parametrize("experiment,n_jobs", [
        ("fig18_migration", 24), ("fig24_timeline", 2),
        ("cmp_coherence", 24)])
    def test_jobs_are_reported_and_cached(self, experiment, n_jobs,
                                          tmp_path):
        cache = ArtifactCache(tmp_path)
        cold = Telemetry()
        first = run_experiment(experiment, size="small", cache=cache,
                               telemetry=cold)
        assert len(cold.records) == n_jobs
        assert {r.source for r in cold.records} == {"computed"}
        assert cold.traces_generated > 0
        warm = Telemetry()
        second = run_experiment(experiment, size="small", cache=cache,
                                telemetry=warm)
        assert warm.traces_generated == 0
        assert warm.result_hits == n_jobs
        assert second.to_dict() == first.to_dict()


class TestBarCharts:
    def test_render_bars(self):
        result = ExperimentResult("x", "t", headers=["name", "v"],
                                  rows=[["a", 10.0], ["bb", 5.0], ["c", 0.0]])
        chart = result.render_bars("v", width=10)
        lines = chart.splitlines()
        assert lines[0] == "== x: v"
        assert lines[1].endswith("10.000") and "##########" in lines[1]
        assert lines[2].count("#") == 5
        assert lines[3].count("#") == 0

    def test_render_bars_skips_float_label_cells(self):
        result = ExperimentResult("x", "t", headers=["name", "mid", "v"],
                                  rows=[["a", 1.5, 4.0]])
        chart = result.render_bars("v")
        assert chart.splitlines()[1].startswith("a |")

    def test_render_bars_rejects_text_column(self):
        result = ExperimentResult("x", "t", headers=["name", "v"],
                                  rows=[["a", "oops"]])
        with pytest.raises(ValueError):
            result.render_bars("v")

    def test_cli_chart_flag(self, capsys):
        from repro.cli import main

        assert main(["experiment", "fig5_storage", "--chart",
                     "cache SRAM (MB)"]) == 0
        out = capsys.readouterr().out
        assert "== fig5_storage: cache SRAM (MB)" in out
        assert "#" in out


class TestFig5Plot:
    def test_plot_writes_svg(self, tmp_path):
        from repro.experiments import fig5_storage
        from repro.overhead.storage import CURVE_SCHEMES

        path = fig5_storage.plot(str(tmp_path / "curve.svg"))
        text = open(path).read()
        assert text.startswith("<svg") or "<svg" in text.splitlines()[0] \
            or "<svg" in text  # matplotlib prepends an XML prolog
        for scheme in CURVE_SCHEMES:
            assert scheme in text

    def test_builtin_emitter_is_valid_xml(self, tmp_path):
        import xml.etree.ElementTree as ET

        from repro.experiments.fig5_storage import _svg_chart
        from repro.overhead.storage import figure5_curve

        root = ET.fromstring(_svg_chart(figure5_curve()))
        assert root.tag.endswith("svg")
        tags = {child.tag.split("}")[-1] for child in root.iter()}
        assert "polyline" in tags and "text" in tags

    def test_cli_plot_flag(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        target = tmp_path / "fig5.svg"
        assert main(["experiment", "fig5_storage", "--no-cache",
                     "--plot", str(target)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert target.exists()

    def test_cli_plot_rejects_other_experiments(self, capsys):
        from repro.cli import main

        assert main(["experiment", "fig8_params", "--plot", "x.svg"]) == 2
        assert "fig5_storage" in capsys.readouterr().err
