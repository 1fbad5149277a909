"""Lipschitz embedding + PCA (Virtual Landmarks / ICS reconstruction).

Lim et al. (IMC 2003) and Tang & Crovella (IMC 2003) independently
proposed: embed each host in ``R^N`` by its vector of distances to the
``N`` landmarks (a Lipschitz embedding — hosts with similar distance
profiles land close together), then project to ``R^d`` with PCA, and
apply "a linear normalization to further calibrate the results" (paper
Section 2.1).

The calibration here fits the single scale factor ``alpha`` minimizing
the squared error between ``alpha * ||c_i - c_j||`` and the observed
distances — the simplest linear calibration consistent with the
published descriptions (see "Implementation decisions" in
docs/paper-mapping.md). This class is the reconstruction baseline of Figure 3;
:class:`repro.embedding.ICSSystem` reuses it for landmark-based
prediction (Figure 6).
"""

from __future__ import annotations

import numpy as np

from .._validation import as_distance_matrix, check_dimension
from ..exceptions import NotFittedError
from ..linalg import PCA
from .base import NetworkEmbedding, euclidean_pairwise

__all__ = ["LipschitzPCAEmbedding", "fit_distance_scale"]


def fit_distance_scale(
    raw_distances: np.ndarray, target_distances: np.ndarray
) -> float:
    """Least-squares scale ``alpha`` mapping raw to target distances.

    Minimizes ``sum (target - alpha * raw)^2`` over observed finite
    entries; returns 1.0 when degenerate (all-zero raw distances).
    """
    raw = np.asarray(raw_distances, dtype=float).ravel()
    target = np.asarray(target_distances, dtype=float).ravel()
    valid = np.isfinite(raw) & np.isfinite(target)
    raw, target = raw[valid], target[valid]
    denominator = float(np.dot(raw, raw))
    if denominator == 0.0:
        return 1.0
    return float(np.dot(raw, target) / denominator)


class LipschitzPCAEmbedding(NetworkEmbedding):
    """Reconstruction by Lipschitz embedding and PCA projection.

    Args:
        dimension: target dimension ``d``.

    After :meth:`fit`, host coordinates live in ``R^d`` and include the
    least-squares scale calibration, so :meth:`estimate_matrix` is a
    plain Euclidean distance computation.
    """

    def __init__(self, dimension: int = 10):
        self.dimension = check_dimension(dimension)
        self._coordinates: np.ndarray | None = None
        self._pca: PCA | None = None
        self._scale: float = 1.0

    def fit(self, distances: object) -> "LipschitzPCAEmbedding":
        """Embed every host of a complete square distance matrix.

        The Lipschitz coordinates of host ``i`` are row ``i`` of the
        matrix (its distances to all hosts, treating every host as a
        landmark), per the Virtual Landmark construction.
        """
        matrix = as_distance_matrix(distances, name="distances", require_square=True)
        check_dimension(self.dimension, limit=matrix.shape[0])

        self._pca = PCA(self.dimension).fit(matrix)
        raw_coordinates = self._pca.transform(matrix)

        raw_estimates = euclidean_pairwise(raw_coordinates)
        off_diagonal = ~np.eye(matrix.shape[0], dtype=bool)
        self._scale = fit_distance_scale(
            raw_estimates[off_diagonal], matrix[off_diagonal]
        )
        self._coordinates = raw_coordinates * self._scale
        return self

    def coordinates(self) -> np.ndarray:
        """``(n, d)`` calibrated host coordinates."""
        if self._coordinates is None:
            raise NotFittedError("LipschitzPCAEmbedding: call fit first")
        return self._coordinates

    def project(self, distance_vectors: object) -> np.ndarray:
        """Project new hosts' distance vectors into the fitted space.

        Args:
            distance_vectors: ``(k, n)`` rows of distances to the same
                ``n`` reference hosts the embedding was fitted on.

        Returns:
            ``(k, d)`` calibrated coordinates; the operation ICS applies
            to ordinary hosts.
        """
        if self._pca is None:
            raise NotFittedError("LipschitzPCAEmbedding: call fit first")
        return self._pca.transform(distance_vectors) * self._scale
