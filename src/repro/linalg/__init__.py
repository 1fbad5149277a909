"""Linear-algebra kernels used throughout the reproduction.

Everything here is implemented from scratch on top of raw numpy
primitives (``svd``, ``eigh``, ``lstsq``): truncated-SVD factor
extraction, Lee-Seung NMF with and without missing data, (batched,
pattern-stacked) least squares with optional ridge, Lawson-Hanson
non-negative least squares, PCA, and the Nelder-Mead simplex-downhill
optimizer GNP uses.
"""

from .least_squares import (
    gram_condition_number,
    row_pattern_groups,
    row_patterns,
    solve_batched_least_squares,
    solve_least_squares,
    solve_weighted_batched_least_squares,
    stacked_solution_maps,
)
from .nmf import NMFResult, masked_nmf_factorize, nmf_factorize, nmf_objective
from .nnls import nonnegative_least_squares, nonnegative_least_squares_batched
from .pca import PCA
from .simplex import SimplexResult, minimize_with_restarts, nelder_mead
from .svd import (
    SVDFactors,
    low_rank_approximation,
    singular_spectrum,
    truncated_svd_factors,
)

__all__ = [
    "PCA",
    "NMFResult",
    "SVDFactors",
    "SimplexResult",
    "gram_condition_number",
    "low_rank_approximation",
    "masked_nmf_factorize",
    "minimize_with_restarts",
    "nelder_mead",
    "nmf_factorize",
    "nmf_objective",
    "nonnegative_least_squares",
    "nonnegative_least_squares_batched",
    "row_pattern_groups",
    "row_patterns",
    "singular_spectrum",
    "solve_batched_least_squares",
    "solve_least_squares",
    "solve_weighted_batched_least_squares",
    "stacked_solution_maps",
    "truncated_svd_factors",
]
