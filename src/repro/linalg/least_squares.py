"""Least-squares solvers used by the IDES host-placement step.

An ordinary host that measured distances ``d_out[i]`` to reference nodes
with incoming vectors ``Y[i]`` solves (paper Eq. 11 / 15)

.. math::

    \\vec X_{new} = \\arg\\min_{u} \\sum_i (d^{out}_i - u \\cdot \\vec Y_i)^2

whose closed form (Eq. 13) is ``X_new = (d_out @ Y) @ inv(Y.T @ Y)``.

The batched solvers never hand ``lstsq`` thousands of right-hand sides.
They go through :func:`stacked_solution_maps` instead: one
``np.linalg.svd`` call over a ``(P, k, d)`` stack of reference
matrices, one per distinct observation pattern with its unobserved rows
zeroed, gives every pattern a ``(k, d)`` map ``M_p`` (the transposed
pseudo-inverse). A host's minimum-norm solution is then one product
``x_h = t_h @ M_p``. The rank cutoff is ``lstsq(rcond=None)``'s, so rank
decisions match ``lstsq`` on each pattern's observed rows. Hosts are
grouped into patterns by :func:`row_patterns`, which views each row as
one opaque byte string and runs a 1-D ``np.unique`` over those keys.

An optional Tikhonov (ridge) regularizer serves noisy or
barely-determined systems (``k`` close to ``d``). The single-host
:func:`solve_least_squares` stays on ``np.linalg.lstsq``: it is the
reference oracle the batched paths are tested against.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_matrix, as_vector
from ..exceptions import SingularSystemError, ValidationError

__all__ = [
    "solve_least_squares",
    "solve_batched_least_squares",
    "solve_weighted_batched_least_squares",
    "stacked_solution_maps",
    "row_patterns",
    "row_pattern_groups",
    "gram_condition_number",
]


def row_patterns(rows: object) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows of a 2-D array.

    Each contiguous row is viewed as one ``np.void`` scalar holding its
    raw bytes, and a 1-D ``np.unique`` sorts those keys. Two rows share
    a pattern exactly when their bytes are equal, so every pattern is
    value-homogeneous. (Float rows that are equal but differ in bytes,
    such as ``0.0`` and ``-0.0``, get separate patterns.) Packing a
    boolean mask with ``np.packbits(mask, axis=1)`` first shortens the
    keys eightfold.

    Args:
        rows: ``(n, w)`` array of any fixed-size dtype.

    Returns:
        ``(representatives, pattern_of)``: ``representatives[p]`` is
        the index of one row holding pattern ``p``, and
        ``pattern_of[i]`` is row ``i``'s pattern. Patterns are numbered
        in byte order of their keys.
    """
    matrix = np.ascontiguousarray(rows)
    if matrix.ndim != 2:
        raise ValidationError(f"rows must be 2-D, got shape {matrix.shape}")
    if matrix.shape[1] == 0:
        # Zero-width rows are all equal; one constant byte keys them.
        matrix = np.zeros((matrix.shape[0], 1), dtype=np.uint8)
    width = matrix.dtype.itemsize * matrix.shape[1]
    keys = matrix.view(np.dtype((np.void, width))).reshape(matrix.shape[0])
    _, representatives, pattern_of = np.unique(
        keys, return_index=True, return_inverse=True
    )
    return representatives, pattern_of


def row_pattern_groups(rows: object) -> list[np.ndarray]:
    """Index arrays grouping the rows of ``rows`` by exact (byte) equality.

    One member-index array per pattern of :func:`row_patterns`, members
    in ascending order. Groups come in byte order of their keys, so
    callers scatter results by the member indices, never by position.
    """
    _, pattern_of = row_patterns(rows)
    if pattern_of.size == 0:
        return []
    order = np.argsort(pattern_of, kind="stable")
    boundaries = np.flatnonzero(np.diff(pattern_of[order])) + 1
    return np.split(order, boundaries)


def stacked_solution_maps(
    bases: object,
    observed_rows: object | None = None,
    ridge: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm solution maps for a stack of least-squares problems.

    Problem ``p`` is ``min_u ||bases[p] @ u - t||^2``. Its minimum-norm
    solution is ``u = t @ maps[p]``, with ``maps[p] = pinv(bases[p]).T``
    built from one ``np.linalg.svd`` call over the whole stack. Rows of
    ``bases[p]`` that are zero (unobserved references) change neither
    the problem's solutions nor its minimum-norm one, provided the
    matching entries of ``t`` are zeroed too, so one stack serves
    patterns that observe different reference subsets.

    Args:
        bases: ``(P, k, d)`` stack of reference matrices.
        observed_rows: length-``P`` count of each basis's observed
            (non-zeroed) rows; defaults to ``k``. A singular value
            counts as zero at or below ``eps * max(k_obs, d) * s_max``,
            the cutoff ``np.linalg.lstsq(rcond=None)`` applies to the
            ``(k_obs, d)`` observed sub-matrix.
        ridge: Tikhonov coefficient ``λ > 0`` switches to the stacked
            normal-equation solve ``maps[p] = B (B.T B + λ I)^{-1}``.

    Returns:
        ``(maps, ranks)``: the ``(P, k, d)`` maps and each basis's
        numerical rank (``d`` under ridge, whose systems are
        nonsingular).
    """
    stack = np.asarray(bases, dtype=float)
    if stack.ndim != 3:
        raise ValidationError(
            f"bases must be a (P, k, d) stack, got shape {stack.shape}"
        )
    count, k, dimension = stack.shape
    if ridge < 0:
        raise ValidationError(f"ridge must be >= 0, got {ridge}")
    if ridge > 0.0:
        transposed = np.swapaxes(stack, 1, 2)
        gram = transposed @ stack + ridge * np.eye(dimension)
        maps = np.swapaxes(np.linalg.solve(gram, transposed), 1, 2)
        return maps, np.full(count, dimension)

    row_counts = np.full(count, k) if observed_rows is None else observed_rows
    left, singular, right = np.linalg.svd(stack, full_matrices=False)
    cutoff = (
        np.finfo(float).eps
        * np.maximum(row_counts, dimension)[:, None]
        * singular[:, :1]
    )
    keep = singular > cutoff
    inverse = np.divide(1.0, singular, out=np.zeros_like(singular), where=keep)
    return (left * inverse[:, None, :]) @ right, keep.sum(axis=1)


def solve_least_squares(
    basis: object,
    targets: object,
    ridge: float = 0.0,
    strict: bool = False,
) -> np.ndarray:
    """Solve ``min_u ||basis @ u - targets||^2`` for ``u``.

    Args:
        basis: ``(k, d)`` matrix whose rows are reference vectors (the
            ``Y_i`` of Eq. 11 or the ``X_i`` of Eq. 12).
        targets: length-``k`` vector of measured distances.
        ridge: optional Tikhonov coefficient ``λ >= 0``; the solve
            becomes ``(B.T B + λ I)^{-1} B.T t``. Zero reproduces the
            paper's unregularized closed form exactly.
        strict: when True, raise :class:`SingularSystemError` instead of
            falling back to the minimum-norm ``lstsq`` solution if the
            system is underdetermined (``k < d`` or rank-deficient).

    Returns:
        the length-``d`` solution vector.
    """
    basis_matrix = as_matrix(basis, name="basis")
    target_vector = as_vector(targets, name="targets")
    count, dimension = basis_matrix.shape
    if target_vector.shape[0] != count:
        raise ValidationError(
            f"targets has length {target_vector.shape[0]}, expected {count}"
        )
    if ridge < 0:
        raise ValidationError(f"ridge must be >= 0, got {ridge}")

    if strict and count < dimension:
        raise SingularSystemError(
            f"need at least d={dimension} reference measurements, got k={count} "
            "(paper Section 5.2 requires k >= d)"
        )

    if ridge > 0.0:
        gram = basis_matrix.T @ basis_matrix + ridge * np.eye(dimension)
        rhs = basis_matrix.T @ target_vector
        return np.linalg.solve(gram, rhs)

    solution, _residuals, rank, _sv = np.linalg.lstsq(basis_matrix, target_vector, rcond=None)
    if strict and rank < dimension:
        raise SingularSystemError(
            f"reference system is rank-deficient (rank {rank} < d={dimension})"
        )
    return solution


def solve_batched_least_squares(
    basis: object,
    target_rows: object,
    ridge: float = 0.0,
    strict: bool = False,
) -> np.ndarray:
    """Solve many least-squares problems sharing one ``basis``.

    Args:
        basis: ``(k, d)`` shared reference matrix.
        target_rows: ``(n, k)`` matrix; row ``i`` is the measurement
            vector of host ``i``. ``n`` may be zero.
        ridge: Tikhonov coefficient shared by all solves.
        strict: as in :func:`solve_least_squares`.

    Returns:
        ``(n, d)`` matrix whose row ``i`` solves host ``i``'s problem.

    This is the one-pattern case of :func:`stacked_solution_maps`: one
    thin SVD of the ``(k, d)`` basis gives its minimum-norm map, and
    one ``(n, k) @ (k, d)`` product applies it to every host. The
    answers and the rank decision are those of
    ``np.linalg.lstsq(basis, target_rows.T, rcond=None)``, without its
    per-right-hand-side cost.
    """
    basis_matrix = as_matrix(basis, name="basis")
    rows = np.asarray(target_rows, dtype=float)
    count, dimension = basis_matrix.shape
    if rows.ndim != 2 or rows.shape[1] != count:
        raise ValidationError(
            f"target_rows must have shape (n, {count}), got {rows.shape}"
        )
    if strict and count < dimension:
        raise SingularSystemError(
            f"need at least d={dimension} reference measurements, got k={count}"
        )

    maps, ranks = stacked_solution_maps(basis_matrix[None], ridge=ridge)
    if strict and ranks[0] < dimension:
        raise SingularSystemError(
            f"reference system is rank-deficient (rank {ranks[0]} < d={dimension})"
        )
    return rows @ maps[0]


def solve_weighted_batched_least_squares(
    basis: object,
    target_rows: object,
    weight_rows: object,
    ridge: float = 0.0,
) -> np.ndarray:
    """Solve per-row *weighted* least squares sharing one basis.

    Row ``h`` solves ``min_u sum_i w[h, i] * (t[h, i] - u . basis[i])^2``.
    Because the weights differ per host, the Gram matrix cannot be
    shared; instead all ``n`` small ``d x d`` normal-equation systems
    are assembled with one einsum and solved batched. If any of them is
    singular, every host takes the minimum-norm solution of its normal
    equations from :func:`stacked_solution_maps` (one stacked SVD), as
    a per-host ``lstsq`` would.

    This is the engine behind IDES's relative-error host placement
    extension: weighting each landmark measurement by ``1 / d^2`` turns
    the absolute squared-error solve of Eq. 13 into an approximate
    relative squared-error solve — aligning the optimization with the
    paper's Eq. 10 evaluation metric.

    Args:
        basis: ``(k, d)`` shared reference matrix.
        target_rows: ``(n, k)`` per-host measurement rows.
        weight_rows: ``(n, k)`` non-negative weights; zero drops a
            measurement from that host's solve.
        ridge: Tikhonov coefficient added to every normal matrix. A
            small positive value also regularizes hosts whose weighted
            system is near-singular.

    Returns:
        ``(n, d)`` solutions.
    """
    basis_matrix = as_matrix(basis, name="basis")
    rows = as_matrix(target_rows, name="target_rows")
    weights = as_matrix(weight_rows, name="weight_rows")
    if rows.shape != weights.shape:
        raise ValidationError(
            f"target_rows {rows.shape} and weight_rows {weights.shape} disagree"
        )
    k, dimension = basis_matrix.shape
    if rows.shape[1] != k:
        raise ValidationError(f"target_rows has {rows.shape[1]} columns, expected {k}")
    if (weights < 0).any():
        raise ValidationError("weights must be non-negative")
    if ridge < 0:
        raise ValidationError(f"ridge must be >= 0, got {ridge}")

    # Normal equations per host: A_h = sum_i w_hi * y_i y_i^T,
    # b_h = sum_i w_hi t_hi * y_i.
    normal = np.einsum("hi,ij,ik->hjk", weights, basis_matrix, basis_matrix)
    rhs = np.einsum("hi,hi,ij->hj", weights, rows, basis_matrix)
    if ridge > 0.0:
        normal = normal + ridge * np.eye(dimension)[None, :, :]

    try:
        return np.linalg.solve(normal, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # Some host's weighted system is singular: every host takes the
        # minimum-norm solution of its normal equations, from one
        # stacked SVD of all the normal matrices.
        maps, _ranks = stacked_solution_maps(normal)
        return np.matmul(rhs[:, None, :], maps)[:, 0, :]


def gram_condition_number(basis: object) -> float:
    """Condition number of ``basis.T @ basis``.

    A diagnostic for the host solve: when an ordinary host observes too
    few landmarks (close to ``d``), the Gram matrix becomes poorly
    conditioned and predictions degrade — the effect behind Figure 7.
    """
    basis_matrix = as_matrix(basis, name="basis")
    singular_values = np.linalg.svd(basis_matrix, compute_uv=False)
    smallest = singular_values.min()
    largest = singular_values.max()
    # Relative threshold matching numpy's default rank tolerance.
    cutoff = largest * max(basis_matrix.shape) * np.finfo(float).eps
    if smallest <= cutoff:
        return float("inf")
    return float((largest / smallest) ** 2)
