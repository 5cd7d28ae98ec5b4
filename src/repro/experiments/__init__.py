"""Experiment harnesses: one module per table/figure of the paper.

Usage::

    from repro.experiments import run_experiment, experiment_ids
    result = run_experiment("fig11_miss_rates", size="small")
    print(result.render())
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.config import MachineConfig
from repro.experiments import (
    cmp_coherence,
    fig5_storage,
    fig8_params,
    fig11_miss_rates,
    fig12_classification,
    fig13_traffic,
    fig14_exectime,
    fig15_timetag,
    fig16_linesize,
    fig17_wbuffer,
    fig18_migration,
    fig19_consistency,
    fig20_update,
    fig21_cache,
    fig22_breakdown,
    fig23_scaling,
    fig24_timeline,
    fig25_taggranularity,
    tab_latency,
    tab_marking,
)
from repro.experiments.common import Bench, ExperimentResult
from repro.runtime import session

EXPERIMENTS = {
    "fig5_storage": fig5_storage.run,
    "fig8_params": fig8_params.run,
    "tab_marking": tab_marking.run,
    "fig11_miss_rates": fig11_miss_rates.run,
    "fig12_classification": fig12_classification.run,
    "fig13_traffic": fig13_traffic.run,
    "tab_latency": tab_latency.run,
    "fig14_exectime": fig14_exectime.run,
    "fig15_timetag": fig15_timetag.run,
    "fig16_linesize": fig16_linesize.run,
    "fig17_wbuffer": fig17_wbuffer.run,
    "fig18_migration": fig18_migration.run,
    "fig19_consistency": fig19_consistency.run,
    "fig20_update": fig20_update.run,
    "fig21_cache": fig21_cache.run,
    "fig22_breakdown": fig22_breakdown.run,
    "fig23_scaling": fig23_scaling.run,
    "fig23_scaling_x": fig23_scaling.run_extended,
    "fig24_timeline": fig24_timeline.run,
    "fig25_taggranularity": fig25_taggranularity.run,
    "cmp_coherence": cmp_coherence.run,
}


def experiment_ids() -> List[str]:
    return list(EXPERIMENTS)


def run_experiment(experiment: str, machine: Optional[MachineConfig] = None,
                   size: str = "paper", *, jobs: Optional[int] = 1,
                   cache=None, telemetry=None) -> ExperimentResult:
    """Regenerate one paper table/figure.

    The experiment runs inside a :func:`repro.runtime.session`: its
    simulations fan out over ``jobs`` worker processes (``None``/``0`` =
    all cores), reuse artifacts from the given
    :class:`repro.runtime.ArtifactCache`, and report into ``telemetry``.
    The defaults run serially in-process with no cache.
    """
    if experiment not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {experiment!r}; "
                       f"choose from {sorted(EXPERIMENTS)}")
    with session(jobs=jobs, cache=cache, telemetry=telemetry):
        return EXPERIMENTS[experiment](machine=machine, size=size)


def run_all(machine: Optional[MachineConfig] = None,
            size: str = "paper", *, jobs: Optional[int] = 1,
            cache=None, telemetry=None) -> Dict[str, ExperimentResult]:
    with session(jobs=jobs, cache=cache, telemetry=telemetry):
        return {name: run(machine=machine, size=size)
                for name, run in EXPERIMENTS.items()}


__all__ = ["Bench", "EXPERIMENTS", "ExperimentResult", "experiment_ids",
           "run_all", "run_experiment"]
