"""Ordinary-host placement: the least-squares solves of Section 5.

A new host measures distances to (and from) ``k >= d`` reference nodes
whose vectors are already known — all landmarks in the basic
architecture (Eqs. 11-14), or any mix of landmarks and already-placed
ordinary hosts in the relaxed architecture (Eqs. 15-16) — and solves

.. math::

    \\vec X_{new} = \\arg\\min_u \\sum_i (D^{out}_i - u \\cdot \\vec Y_i)^2,
    \\qquad
    \\vec Y_{new} = \\arg\\min_u \\sum_i (D^{in}_i - \\vec X_i \\cdot u)^2

The unconstrained closed forms are Eqs. (13)-(14); optional
non-negativity uses the Lawson-Hanson solver (the "somewhat more
complicated" constrained variant of Section 5.1).
"""

from __future__ import annotations

import numpy as np

from .._validation import as_mask, as_matrix
from ..exceptions import SingularSystemError, ValidationError
from ..linalg import (
    nonnegative_least_squares,
    nonnegative_least_squares_batched,
    row_patterns,
    solve_least_squares,
    solve_weighted_batched_least_squares,
    stacked_solution_maps,
)
from .vectors import HostVectors

__all__ = ["solve_host_vectors", "place_hosts_batch", "relative_error_weights"]

#: Valid host-placement weighting schemes.
WEIGHTINGS = ("uniform", "relative")


def relative_error_weights(measurements: np.ndarray) -> np.ndarray:
    """Per-measurement weights approximating the relative-error loss.

    Dividing each residual by the measured distance turns the absolute
    squared error of Eq. 13 into a squared *relative* error — the
    quantity the paper actually evaluates (Eq. 10). The weights are
    ``1 / max(d, floor)^2``; non-finite measurements weigh zero.
    """
    finite = np.isfinite(measurements)
    positive = measurements[finite & (measurements > 0)]
    floor = float(positive.mean()) * 1e-3 if positive.size else 1e-6
    safe = np.where(finite, np.maximum(measurements, floor), 1.0)
    weights = 1.0 / (safe * safe)
    return np.where(finite, weights, 0.0)


def solve_host_vectors(
    out_distances: object,
    in_distances: object,
    reference_outgoing: object,
    reference_incoming: object,
    ridge: float = 0.0,
    nonnegative: bool = False,
    strict: bool = True,
) -> HostVectors:
    """Compute one host's vectors from its reference measurements.

    Args:
        out_distances: length-``k`` distances host -> reference.
        in_distances: length-``k`` distances reference -> host.
        reference_outgoing: ``(k, d)`` matrix of reference ``X_i`` rows.
        reference_incoming: ``(k, d)`` matrix of reference ``Y_i`` rows.
        ridge: optional Tikhonov regularization for noisy solves.
        nonnegative: solve with non-negativity constraints (guarantees
            non-negative predictions when the landmark model came from
            NMF).
        strict: raise :class:`SingularSystemError` when ``k < d``
            (paper: "the constraint k >= d is necessary").

    Returns:
        the host's :class:`HostVectors`.
    """
    ref_out = as_matrix(reference_outgoing, name="reference_outgoing")
    ref_in = as_matrix(reference_incoming, name="reference_incoming")
    if ref_out.shape != ref_in.shape:
        raise ValidationError(
            f"reference matrices disagree: {ref_out.shape} vs {ref_in.shape}"
        )

    out_vec = np.asarray(out_distances, dtype=float).ravel()
    in_vec = np.asarray(in_distances, dtype=float).ravel()
    k = ref_out.shape[0]
    if out_vec.shape[0] != k or in_vec.shape[0] != k:
        raise ValidationError(
            f"measurement vectors must have length {k}, got "
            f"{out_vec.shape[0]} and {in_vec.shape[0]}"
        )

    out_valid = np.isfinite(out_vec)
    in_valid = np.isfinite(in_vec)
    dimension = ref_out.shape[1]
    if strict and (out_valid.sum() < dimension or in_valid.sum() < dimension):
        raise SingularSystemError(
            f"need >= d={dimension} finite measurements per direction, got "
            f"{int(out_valid.sum())} outgoing and {int(in_valid.sum())} incoming"
        )
    for direction, valid in (("outgoing", out_valid), ("incoming", in_valid)):
        if not valid.any():
            raise ValidationError(
                f"no finite {direction} measurement to any reference: "
                "the host cannot be placed"
            )

    if nonnegative:
        outgoing = nonnegative_least_squares(ref_in[out_valid], out_vec[out_valid])
        incoming = nonnegative_least_squares(ref_out[in_valid], in_vec[in_valid])
    else:
        outgoing = solve_least_squares(
            ref_in[out_valid], out_vec[out_valid], ridge=ridge, strict=strict
        )
        incoming = solve_least_squares(
            ref_out[in_valid], in_vec[in_valid], ridge=ridge, strict=strict
        )
    return HostVectors(outgoing=outgoing, incoming=incoming)


def place_hosts_batch(
    out_distances: object,
    in_distances: object | None,
    reference_outgoing: object,
    reference_incoming: object,
    observation_mask: object | None = None,
    ridge: float = 0.0,
    nonnegative: bool = False,
    strict: bool = True,
    weighting: str = "uniform",
) -> tuple[np.ndarray, np.ndarray]:
    """Place many hosts against one shared reference set.

    Args:
        out_distances: ``(n, k)`` distances host -> reference.
        in_distances: ``(k, n)`` distances reference -> host, or None to
            assume symmetry (``in = out.T``), appropriate for RTT data.
        reference_outgoing / reference_incoming: ``(k, d)`` reference
            vector matrices.
        observation_mask: optional ``(n, k)`` boolean matrix; a False
            entry drops that reference from *both* directional solves
            of that host (an unobserved landmark, Figure 7).
        ridge / nonnegative / strict: as in :func:`solve_host_vectors`.
        weighting: ``"uniform"`` reproduces the paper's Eqs. 13-14;
            ``"relative"`` weights each measurement by ``1 / d^2``,
            aligning the solve with the Eq. 10 relative-error metric
            (an extension; see the ``ablate-weighting`` experiment).
            Incompatible with ``nonnegative``.

    Returns:
        ``(new_outgoing, new_incoming)`` of shapes ``(n, d)``.

    Raises:
        ValidationError: if a host has no reference with both
            measurements finite and observed; it names the host.
        SingularSystemError: under ``strict``, if a host observes fewer
            than ``d`` references or its reference system is
            rank-deficient.

    Every variant is solved vectorized; there is no per-host Python
    loop. Hosts are grouped once by observation pattern: the mask rows
    are packed to bits and keyed by their bytes for one 1-D
    ``np.unique`` (:func:`repro.linalg.row_patterns`). In the common
    case an outage drops the *same* landmarks for many hosts (Figure 7),
    and a fully observed batch is one pattern. Unconstrained placement
    is then one stacked solve
    (:func:`repro.linalg.stacked_solution_maps`): one SVD call over
    every pattern's zero-padded reference matrix, for both directions,
    gives each pattern a minimum-norm map per direction, and each
    host's solution is its targets times its pattern's map. The NNLS
    variant runs the batched Lawson-Hanson
    kernel (:func:`repro.linalg.nonnegative_least_squares_batched`)
    over both directions. Relative weighting handles masks natively (a
    masked measurement simply weighs zero). The single-host
    :func:`solve_host_vectors` is retained as the reference oracle that
    tests and benchmarks compare against.
    """
    if weighting not in WEIGHTINGS:
        raise ValidationError(f"weighting must be one of {WEIGHTINGS}, got {weighting!r}")
    if weighting == "relative" and nonnegative:
        raise ValidationError("relative weighting is incompatible with nonnegative")
    out_matrix = as_matrix(out_distances, name="out_distances")
    n_hosts, k = out_matrix.shape
    ref_out = as_matrix(reference_outgoing, name="reference_outgoing")
    ref_in = as_matrix(reference_incoming, name="reference_incoming")
    if ref_out.shape != ref_in.shape:
        raise ValidationError(
            f"reference matrices disagree: {ref_out.shape} vs {ref_in.shape}"
        )
    if ref_out.shape[0] != k:
        raise ValidationError(
            f"out_distances covers {k} references, vectors cover {ref_out.shape[0]}"
        )

    if in_distances is None:
        in_matrix = out_matrix.T.copy()
    else:
        in_matrix = as_matrix(in_distances, name="in_distances")
        if in_matrix.shape != (k, n_hosts):
            raise ValidationError(
                f"in_distances must have shape {(k, n_hosts)}, got {in_matrix.shape}"
            )

    observed = np.isfinite(out_matrix) & np.isfinite(in_matrix.T)
    if observation_mask is not None:
        observed &= as_mask(observation_mask, out_matrix.shape)
    # Group hosts by observation pattern once; the checks below and both
    # directions' solves all work per pattern.
    representatives, pattern_of = row_patterns(np.packbits(observed, axis=1))
    patterns = observed[representatives]
    pattern_counts = patterns.sum(axis=1)
    sparsest = int(np.argmin(pattern_counts))
    short, fewest = int(representatives[sparsest]), int(pattern_counts[sparsest])
    dimension = ref_out.shape[1]
    if strict and fewest < dimension:
        raise SingularSystemError(
            f"need >= d={dimension} finite measurements per direction, host "
            f"{short} observes only {fewest}"
        )
    if fewest == 0:
        raise ValidationError(
            f"host {short} has no reference with finite, observed measurements "
            "in both directions: it cannot be placed"
        )

    if weighting == "relative":
        out_weights = relative_error_weights(out_matrix) * observed
        in_weights = relative_error_weights(in_matrix.T) * observed
        new_outgoing = solve_weighted_batched_least_squares(
            ref_in, np.nan_to_num(out_matrix), out_weights, ridge=ridge
        )
        new_incoming = solve_weighted_batched_least_squares(
            ref_out, np.nan_to_num(in_matrix.T), in_weights, ridge=ridge
        )
        return new_outgoing, new_incoming

    if patterns.all():
        # Every host observes every reference: no entry needs zeroing.
        out_targets, in_targets = out_matrix, in_matrix.T
    else:
        out_targets = np.where(observed, out_matrix, 0.0)
        in_targets = np.where(observed, in_matrix.T, 0.0)
    if nonnegative:
        new_outgoing = nonnegative_least_squares_batched(
            ref_in, out_targets, mask=observed
        )
        new_incoming = nonnegative_least_squares_batched(
            ref_out, in_targets, mask=observed
        )
        return new_outgoing, new_incoming

    # One stacked solve for both directions: the stack holds every
    # pattern's zero-padded outgoing-solve basis, then its incoming one.
    count = patterns.shape[0]
    maps, ranks = stacked_solution_maps(
        np.concatenate([patterns[:, :, None] * ref_in, patterns[:, :, None] * ref_out]),
        observed_rows=np.tile(pattern_counts, 2),
        ridge=ridge,
    )
    if strict and (ranks < dimension).any():
        deficient = int(np.argmax(ranks < dimension))
        raise SingularSystemError(
            f"host {representatives[deficient % count]}'s reference system is "
            f"rank-deficient (rank {ranks[deficient]} < d={dimension})"
        )
    return (
        _apply_maps(out_targets, maps[:count], pattern_of),
        _apply_maps(in_targets, maps[count:], pattern_of),
    )


def _apply_maps(
    targets: np.ndarray, maps: np.ndarray, pattern_of: np.ndarray
) -> np.ndarray:
    """Each host's zero-filled ``targets`` row times its pattern's map."""
    if maps.shape[0] == 1:
        return targets @ maps[0]
    return np.matmul(targets[:, None, :], maps[pattern_of])[:, 0, :]
