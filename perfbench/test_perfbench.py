"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

They run the real entry point on the tiny size (a three-experiment
``suite-cold``), so they need the checkout's ``src`` but no server.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tracer import EXPERIMENT_IDS, Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


TINY = ("--workload", "suite-cold", "--size", "tiny", "--seed", "1",
        "--seconds", "0")


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_tiny_run_emits_exactly_the_declared_metrics(trace, section):
    result = result_of(bench(*TINY, "--trace", str(trace)))
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == declared
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    if trace:
        # tab_latency simulates through the executor, which steps its
        # engines itself and never calls ``Engine.run``.
        assert result["metrics"]["sim.simulate_calls"]["value"] > 0
        assert result["metrics"]["sim.simulate_s"]["value"] > 0


def test_corrupted_golden_digest_raises_failed_frac(tmp_path):
    golden = json.loads((HERE / "golden.json").read_text())
    golden["experiments/fig8_params"] = "0" * 64
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    result = result_of(bench(*TINY, "--trace", "1", "--golden", str(path)))
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["failed_frac"]["value"] > 0


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(*TINY, "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_experiment_list_matches_the_registry():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); "
         "from repro.experiments import experiment_ids; "
         "print(' '.join(experiment_ids()))"],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert tuple(proc.stdout.split()) == EXPERIMENT_IDS


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    leaf = tracer.span("leaf", lambda: time.sleep(0.02))

    def parent():
        leaf()
        leaf()
        time.sleep(0.01)

    tracer.span("parent", parent)()
    summary = summarize(tracer.arrays())
    assert summary["leaf"]["calls"] == 2
    assert summary["parent"]["calls"] == 1
    assert summary["parent"]["incl_s"] >= summary["leaf"]["incl_s"] + 0.01
    assert summary["parent"]["self_s"] == pytest.approx(
        summary["parent"]["incl_s"] - summary["leaf"]["incl_s"])
