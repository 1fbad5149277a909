"""IDES system facade: the paper's full prediction pipeline in one class.

Wires the landmark factorization (Section 5.1) and the ordinary-host
least-squares placement (Sections 5.1-5.2) behind the shared
:class:`repro.embedding.LatencyPredictionSystem` interface, so the
Figure 6 / Figure 7 experiment runners treat IDES, GNP and ICS
identically. Two instances — ``IDESSystem(method="svd")`` and
``IDESSystem(method="nmf")`` — are the paper's "IDES/SVD" and
"IDES/NMF" rows.
"""

from __future__ import annotations

import numpy as np

from .._validation import check_dimension
from ..embedding.base import LatencyPredictionSystem
from .host import place_hosts_batch, solve_host_vectors
from .server import InformationServer
from .vectors import HostVectors

__all__ = ["IDESSystem"]


class IDESSystem(LatencyPredictionSystem):
    """Internet Distance Estimation Service.

    Args:
        dimension: model dimension ``d`` (the paper uses 8-10).
        method: landmark factorization, ``"svd"`` or ``"nmf"``.
        ridge: optional Tikhonov regularization of host solves.
        nonnegative_hosts: solve host vectors under non-negativity
            constraints (Section 5.1's constrained variant).
        strict: enforce ``k >= d`` observed references per host.
        host_weighting: ``"uniform"`` (paper Eqs. 13-14) or
            ``"relative"`` (this library's extension: weight each
            measurement by ``1/d^2`` so the solve minimizes relative
            rather than absolute squared error).
        nmf_max_iter / nmf_restarts / seed: NMF fitting controls.
    """

    def __init__(
        self,
        dimension: int = 10,
        method: str = "svd",
        ridge: float = 0.0,
        nonnegative_hosts: bool = False,
        strict: bool = True,
        host_weighting: str = "uniform",
        nmf_max_iter: int = 200,
        nmf_restarts: int = 1,
        seed: int | np.random.Generator | None = 0,
    ):
        self.dimension = check_dimension(dimension)
        self.method = method
        self.ridge = float(ridge)
        self.nonnegative_hosts = bool(nonnegative_hosts)
        self.strict = bool(strict)
        self.host_weighting = host_weighting
        self.name = f"IDES/{method.upper()}"
        if host_weighting != "uniform":
            self.name += f"+{host_weighting[:3]}"
        self.server = InformationServer(
            dimension=dimension,
            method=method,
            nmf_max_iter=nmf_max_iter,
            nmf_restarts=nmf_restarts,
            seed=seed,
        )
        self._host_outgoing: np.ndarray | None = None
        self._host_incoming: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # LatencyPredictionSystem interface
    # ------------------------------------------------------------------ #

    def fit_landmarks(self, landmark_matrix: object, mask: object | None = None) -> None:
        """Factor the inter-landmark matrix into landmark vectors."""
        self.server.fit_landmarks(landmark_matrix, mask=mask)
        self._host_outgoing = None
        self._host_incoming = None

    def place_hosts(
        self,
        out_distances: object,
        in_distances: object | None = None,
        observation_mask: object | None = None,
    ) -> None:
        """Solve every ordinary host's vectors against the landmarks.

        ``in_distances=None`` assumes RTT symmetry (``in = out.T``);
        ``observation_mask`` models unobserved landmarks (Figure 7).
        """
        landmark_out, landmark_in = self.server.landmark_vectors()
        self._host_outgoing, self._host_incoming = place_hosts_batch(
            out_distances,
            in_distances,
            landmark_out,
            landmark_in,
            observation_mask=observation_mask,
            ridge=self.ridge,
            nonnegative=self.nonnegative_hosts,
            strict=self.strict,
            weighting=self.host_weighting,
        )

    def predict_matrix(self) -> np.ndarray:
        """``X_hosts @ Y_hosts.T`` over the placed ordinary hosts."""
        self._require_fitted("_host_outgoing")
        assert self._host_outgoing is not None and self._host_incoming is not None
        return self._host_outgoing @ self._host_incoming.T

    def predict_between(self, rows: object, cols: object) -> np.ndarray:
        """Predictions for row-host -> col-host pairs, without forming
        the full matrix (matters for the 1123-host P2PSim evaluation)."""
        self._require_fitted("_host_outgoing")
        assert self._host_outgoing is not None and self._host_incoming is not None
        row_idx = np.asarray(rows, dtype=int)
        col_idx = np.asarray(cols, dtype=int)
        return self._host_outgoing[row_idx] @ self._host_incoming[col_idx].T

    # ------------------------------------------------------------------ #
    # extras: relaxed placement and vector access
    # ------------------------------------------------------------------ #

    def host_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """``(X, Y)`` matrices of the placed ordinary hosts."""
        self._require_fitted("_host_outgoing")
        assert self._host_outgoing is not None and self._host_incoming is not None
        return self._host_outgoing, self._host_incoming

    def landmark_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """``(X, Y)`` matrices of the landmarks."""
        return self.server.landmark_vectors()

    def place_single_host(
        self,
        out_distances: object,
        in_distances: object,
        reference_outgoing: object,
        reference_incoming: object,
    ) -> HostVectors:
        """Relaxed-architecture placement against arbitrary references.

        The references may be landmarks, previously placed ordinary
        hosts, or any mix (Section 5.2) — the caller supplies their
        vectors. Requires ``k >= d`` references when ``strict``.
        """
        return solve_host_vectors(
            out_distances,
            in_distances,
            reference_outgoing,
            reference_incoming,
            ridge=self.ridge,
            nonnegative=self.nonnegative_hosts,
            strict=self.strict,
        )

    def to_service(
        self,
        host_ids: list | None = None,
        landmark_ids: list | None = None,
        **options: object,
    ):
        """Export the fitted model as a :class:`repro.serving.DistanceService`.

        The service answers batched queries, caches point lookups, and
        keeps accepting new hosts incrementally — see
        :mod:`repro.serving`. ``options`` (cache sizing, solver settings)
        are forwarded to the service constructor.
        """
        from ..serving import DistanceService

        return DistanceService.from_ides(
            self, host_ids=host_ids, landmark_ids=landmark_ids, **options
        )

    def predict_host_to_landmarks(self) -> np.ndarray:
        """Predicted host -> landmark distances (reconstruction check)."""
        self._require_fitted("_host_outgoing")
        landmark_out, landmark_in = self.server.landmark_vectors()
        assert self._host_outgoing is not None
        return self._host_outgoing @ landmark_in.T

    def predict_landmarks_to_host(self) -> np.ndarray:
        """Predicted landmark -> host distances."""
        self._require_fitted("_host_incoming")
        landmark_out, _landmark_in = self.server.landmark_vectors()
        assert self._host_incoming is not None
        return landmark_out @ self._host_incoming.T
