"""repro: reproduction of "Modeling Distances in Large-Scale Networks by
Matrix Factorization" (Yun Mao & Lawrence K. Saul, IMC 2004).

The package implements the paper's factored distance model
(``D ~= X @ Y.T``), the SVD and NMF learning algorithms, the IDES
landmark service with basic and relaxed host placement, the Euclidean
baselines it is compared against (Lipschitz+PCA, ICS, GNP, Vivaldi),
and the full substrate needed to evaluate them offline: transit-stub
topologies, policy/asymmetric routing, simulated ping and King
measurement, and synthetic counterparts of the paper's five data sets.

Quick start::

    from repro import IDESSystem, load_dataset, split_landmarks

    dataset = load_dataset("nlanr")
    split = split_landmarks(dataset, n_landmarks=20, seed=0)

    ides = IDESSystem(dimension=10, method="svd")
    ides.fit_landmarks(split.landmark_matrix)
    ides.place_hosts(split.out_distances, split.in_distances)
    predicted = ides.predict_matrix()   # ordinary-host pairwise RTTs
"""

from .core import (
    ErrorSummary,
    FactoredDistanceModel,
    NMFFactorizer,
    SVDFactorizer,
    relative_error_matrix,
    relative_errors,
    summarize_errors,
)
from .datasets import (
    DistanceDataset,
    LandmarkSplit,
    dataset_statistics,
    list_datasets,
    load_dataset,
    split_landmarks,
)
from .embedding import (
    GNPSystem,
    ICSSystem,
    LipschitzPCAEmbedding,
    VivaldiSystem,
)
from .exceptions import ReproError
from .ides import HostVectors, IDESSystem, InformationServer
from .serving import (
    DistanceService,
    InMemoryVectorStore,
    PredictionCache,
    QueryEngine,
)

__version__ = "1.1.0"

__all__ = [
    "DistanceDataset",
    "DistanceService",
    "ErrorSummary",
    "FactoredDistanceModel",
    "GNPSystem",
    "HostVectors",
    "ICSSystem",
    "IDESSystem",
    "InMemoryVectorStore",
    "InformationServer",
    "LandmarkSplit",
    "LipschitzPCAEmbedding",
    "NMFFactorizer",
    "PredictionCache",
    "QueryEngine",
    "ReproError",
    "SVDFactorizer",
    "VivaldiSystem",
    "__version__",
    "dataset_statistics",
    "list_datasets",
    "load_dataset",
    "relative_error_matrix",
    "relative_errors",
    "split_landmarks",
    "summarize_errors",
]
