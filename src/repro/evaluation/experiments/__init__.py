"""Experiment runners, one per paper artifact plus ablations.

Each runner exposes ``run(seed=None, fast=False) -> ExperimentResult``.
:data:`REGISTRY` maps the experiment ids listed in
docs/paper-mapping.md to runners for the CLI and the benchmark harness.
"""

from typing import Callable

from . import ablations, fig2, fig3, fig6, fig7, staleness, table1
from .common import EVAL_SEED, ExperimentResult, p2psim_eval_subset

__all__ = [
    "EVAL_SEED",
    "ExperimentResult",
    "REGISTRY",
    "available_experiments",
    "run_experiment",
    "p2psim_eval_subset",
]

REGISTRY: dict[str, Callable[..., ExperimentResult]] = {
    "fig2": fig2.run,
    "fig3": fig3.run,
    "table1": table1.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "ablate-rank": ablations.run_spectrum,
    "ablate-relaxed": ablations.run_relaxed,
    "ablate-nnls": ablations.run_nnls,
    "ablate-asym": ablations.run_asymmetry,
    "ablate-weighting": ablations.run_weighting,
    "ablate-dimension": ablations.run_dimension,
    "ablate-staleness": staleness.run,
    "ablate-robust": ablations.run_robust,
}


def available_experiments() -> list[str]:
    """Experiment ids in presentation order."""
    return list(REGISTRY)


def run_experiment(
    experiment_id: str, seed: int | None = None, fast: bool = False
) -> ExperimentResult:
    """Run one experiment by id."""
    try:
        runner = REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(REGISTRY)
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}") from None
    return runner(seed=seed, fast=fast)
