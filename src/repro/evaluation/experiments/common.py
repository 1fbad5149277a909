"""Shared infrastructure for the per-figure experiment runners.

Every runner follows one contract: ``run(seed=None, fast=False)``
returns an :class:`ExperimentResult` whose ``data`` holds the raw
numbers and whose ``table`` is the printable paper-style artifact.
``fast=True`` shrinks the workload (smaller P2PSim subset, fewer
dimensions) for test suites; benchmarks run the full configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..._validation import as_rng
from ...datasets import DistanceDataset, load_dataset

__all__ = [
    "ExperimentResult",
    "EVAL_SEED",
    "p2psim_eval_subset",
    "prediction_errors_on_pairs",
]

#: Seed offset dedicated to evaluation-time randomness (landmark picks,
#: masks) so it never aliases data-set generation seeds.
EVAL_SEED = 20041025  # IMC 2004 opened October 25, 2004.


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of one experiment runner.

    Attributes:
        experiment_id: experiment id ("fig2", "table1", ...; listed in
            docs/paper-mapping.md).
        description: one-line description of the paper artifact.
        data: raw numeric results keyed by series/system name.
        table: printable paper-style text artifact.
        notes: caveats of this run (fast mode, sub-sampling, ...).
    """

    experiment_id: str
    description: str
    data: dict
    table: str
    notes: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        parts = [f"== {self.experiment_id}: {self.description} ==", self.table]
        if self.notes:
            parts.extend(f"note: {note}" for note in self.notes)
        return "\n".join(parts)


def p2psim_eval_subset(
    seed: int | None = None,
    n_hosts: int = 1143,
    fast: bool = False,
) -> DistanceDataset:
    """The paper's Section 6 P2PSim evaluation subset.

    The full King data set covers ~1740 DNS servers; the prediction
    experiments use 1143 of them ("20 out of 1143 nodes were selected
    randomly as landmarks"). We slice a seeded random subset of the
    synthetic matrix; ``fast`` shrinks it further for test runs.
    """
    if fast:
        n_hosts = min(n_hosts, 300)
    dataset = load_dataset("p2psim", seed=seed)
    rng = as_rng(EVAL_SEED if seed is None else seed + EVAL_SEED)
    chosen = np.sort(rng.choice(dataset.n_hosts, size=n_hosts, replace=False))
    matrix = dataset.matrix[np.ix_(chosen, chosen)]
    return DistanceDataset(
        name=f"p2psim-{n_hosts}",
        matrix=matrix,
        metadata={**dataset.metadata, "subset_of": dataset.name, "indices": chosen},
    )


def prediction_errors_on_pairs(
    true_matrix: np.ndarray,
    predicted_matrix: np.ndarray,
    exclude_diagonal: bool = True,
) -> np.ndarray:
    """Relative prediction errors (Eq. 10) over evaluated pairs."""
    from ...core.errors import relative_errors

    return relative_errors(
        true_matrix, predicted_matrix, exclude_diagonal=exclude_diagonal
    )
