"""Non-negative least squares by the Lawson-Hanson active-set method.

Section 5.1 of the paper notes that the ordinary-host solves (Eqs. 11-12)
"can be solved with nonnegativity constraints, but the solution is
somewhat more complicated", and that constrained and unconstrained
solutions gave indistinguishable accuracy. This module provides that
more complicated solve — implemented from scratch so the comparison in
the ``ablate-nnls`` experiment exercises our own code — following
Lawson & Hanson, *Solving Least Squares Problems* (1974), Chapter 23.

Two entry points share the algorithm:

* :func:`nonnegative_least_squares` — the single right-hand-side
  reference solver, one host at a time.
* :func:`nonnegative_least_squares_batched` — the multi-RHS production
  kernel behind batched host placement. All hosts iterate in lockstep;
  each outer iteration groups hosts whose (observation mask, passive
  set) coincide and solves every group as one multi-RHS ``lstsq``, so
  one factorization of the shared sub-design serves the whole group.
  The iterates match the single-RHS solver host for host (same entering
  rule, same backtracking, same per-host tolerance), which the property
  suite in ``tests/linalg/test_nnls_batched.py`` pins down.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_mask, as_matrix, as_vector
from ..exceptions import ConvergenceError, ValidationError
from .least_squares import row_pattern_groups

__all__ = ["nonnegative_least_squares", "nonnegative_least_squares_batched"]


def nonnegative_least_squares(
    basis: object,
    targets: object,
    max_iter: int | None = None,
    tol: float | None = None,
) -> np.ndarray:
    """Solve ``min_u ||basis @ u - targets||^2`` subject to ``u >= 0``.

    Args:
        basis: ``(k, d)`` design matrix.
        targets: length-``k`` right-hand side.
        max_iter: iteration budget; defaults to ``3 * d`` as recommended
            by Lawson & Hanson.
        tol: dual-feasibility tolerance; defaults to
            ``10 * eps * ||basis||_1 * max(k, d)`` (the classic choice).

    Returns:
        the non-negative length-``d`` solution.

    Raises:
        ConvergenceError: if the active-set loop exceeds its budget
            (practically impossible for well-posed inputs).

    The solution satisfies the KKT conditions: ``u >= 0``, the gradient
    ``basis.T @ (basis @ u - targets)`` is ``>= -tol`` componentwise, and
    complementary slackness holds on the active set. Tests verify all
    three against :func:`scipy.optimize.nnls`.
    """
    design = as_matrix(basis, name="basis")
    rhs = as_vector(targets, name="targets")
    rows, cols = design.shape
    if rhs.shape[0] != rows:
        raise ValidationError(f"targets has length {rhs.shape[0]}, expected {rows}")

    if max_iter is None:
        max_iter = max(3 * cols, 30)
    if tol is None:
        tol = 10.0 * np.finfo(float).eps * np.abs(design).sum(axis=0).max() * max(rows, cols)

    solution = np.zeros(cols)
    # P: passive (free) set; all variables start active (clamped at zero).
    passive = np.zeros(cols, dtype=bool)
    gradient = design.T @ (rhs - design @ solution)

    outer_iterations = 0
    while True:
        candidates = ~passive & (gradient > tol)
        if not candidates.any():
            break
        outer_iterations += 1
        if outer_iterations > max_iter:
            raise ConvergenceError(
                f"NNLS active-set loop exceeded {max_iter} iterations"
            )

        # Move the most violating variable into the passive set.
        entering = int(np.argmax(np.where(candidates, gradient, -np.inf)))
        passive[entering] = True

        # Inner loop: solve the unconstrained problem on the passive set,
        # backtracking if any passive variable would go negative.
        previous = solution.copy()
        while True:
            free = np.flatnonzero(passive)
            trial = np.zeros(cols)
            trial[free], *_ = np.linalg.lstsq(design[:, free], rhs, rcond=None)

            negative = free[trial[free] <= 0.0]
            if negative.size == 0:
                # Coefficients below the dual-noise tolerance are
                # statistically zero; clamping them here (not just on
                # the backtracking path) prevents a period-2 cycle
                # where a ~eps-sized coefficient is kept by a feasible
                # exit and stripped again by the next backtrack.
                trial[trial < tol] = 0.0
                solution = trial
                passive &= solution > 0.0
                break

            # Step from `solution` toward `trial` until the first passive
            # variable hits zero, then clamp it back to the active set.
            movement = solution[negative] - trial[negative]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(movement != 0.0, solution[negative] / movement, np.inf)
            alpha = float(np.min(ratios))
            if not np.isfinite(alpha):
                # Degenerate backtrack: the offending variable sits at
                # exactly zero with zero movement (no finite step
                # exists). A zero step lets the clamp below retire it
                # and the stall guard recognize convergence — instead
                # of an infinite step poisoning the iterate with NaNs.
                alpha = 0.0
            solution = solution + alpha * (trial - solution)
            solution[solution < tol] = 0.0
            passive &= solution > 0.0

        # Anti-cycling guard (mirrors the batched kernel): an outer
        # iteration that left the solution bitwise unchanged — the
        # entering variable immediately backtracked to zero because the
        # dual gradient is hovering at the rounding-noise floor — can
        # only repeat itself; the solution is numerically optimal.
        if np.array_equal(solution, previous):
            break

        gradient = design.T @ (rhs - design @ solution)

    return solution


def _pattern_groups(
    mask_rows: np.ndarray, passive_rows: np.ndarray, hosts: np.ndarray
) -> list[np.ndarray]:
    """Positions (into ``hosts``) grouped by identical (mask, passive) rows.

    The group key is the packed bit pattern of both boolean rows, so
    hosts that observe the same references *and* currently free the
    same variables land in one group and share one factorization.
    """
    packed = np.packbits(
        np.concatenate([mask_rows[hosts], passive_rows[hosts]], axis=1), axis=1
    )
    return row_pattern_groups(packed)


def _solve_passive_sets(
    design: np.ndarray,
    rhs: np.ndarray,
    observed: np.ndarray,
    passive: np.ndarray,
    normal: np.ndarray,
    beta: np.ndarray,
    pending: np.ndarray,
) -> np.ndarray:
    """Unconstrained solves restricted to each pending host's passive set.

    Hosts are stacked by free-set size and each size class is one
    batched ``np.linalg.solve`` over the hosts' precomputed ``d x d``
    normal subsystems — so the per-iteration cost no longer scales with
    the number of distinct passive sets. Each solve takes one
    refinement step with its residual on the masked design, so
    ill-conditioned sub-designs keep ``lstsq``'s accuracy. A size class
    containing a singular subsystem falls back to grouped minimum-norm
    ``lstsq`` on the masked design itself, matching the single-RHS
    solver's rank-deficient behavior exactly.
    """
    count = pending.size
    cols = design.shape[1]
    trial = np.zeros((count, cols))
    free_counts = passive[pending].sum(axis=1)
    for size in np.unique(free_counts):
        if size == 0:
            continue  # no free variables: the trial stays at zero
        positions = np.flatnonzero(free_counts == size)
        hosts = pending[positions]
        _, free_idx = np.nonzero(passive[hosts])
        free_idx = free_idx.reshape(hosts.size, size)
        subsystems = normal[
            hosts[:, None, None], free_idx[:, :, None], free_idx[:, None, :]
        ]
        sub_rhs = beta[hosts[:, None], free_idx]
        try:
            solved = np.linalg.solve(subsystems, sub_rhs[..., None])[..., 0]
            # A singular subsystem that LAPACK's pivoting does not
            # flag (rank deficiency hidden by rounding) yields garbage
            # that would break Lawson-Hanson's descent guarantee —
            # verify each host's normal equations actually hold.
            products = np.einsum("hij,hj->hi", subsystems, solved)
            scale = np.maximum(np.abs(products), np.abs(sub_rhs)).max(axis=1)
            defective = ~np.isfinite(solved).all(axis=1)
            defective |= np.abs(products - sub_rhs).max(axis=1) > 1e-6 * (
                scale + 1e-30
            )
        except np.linalg.LinAlgError:
            solved = np.empty((hosts.size, int(size)))
            defective = np.ones(hosts.size, dtype=bool)
        if not defective.all():
            # One refinement step against the masked design itself
            # (corrected semi-normal equations): the Gram matrix squares
            # the design's condition number, so on an ill-conditioned
            # sub-design the plain normal-equation solve drifts from the
            # least-squares solution the single-RHS solver's ``lstsq``
            # finds. The correction's residual is taken on the design,
            # which recovers those digits.
            good = np.flatnonzero(~defective)
            good_hosts = hosts[good]
            current = np.zeros((good.size, cols))
            current[np.arange(good.size)[:, None], free_idx[good]] = solved[good]
            residual = np.where(
                observed[good_hosts], rhs[good_hosts] - current @ design.T, 0.0
            )
            correction_rhs = np.take_along_axis(
                residual @ design, free_idx[good], axis=1
            )
            solved[good] += np.linalg.solve(
                subsystems[good], correction_rhs[..., None]
            )[..., 0]
        if defective.any():
            # Minimum-norm solves on the masked design itself — the
            # single-RHS solver's exact rank-deficient behavior —
            # grouped by (mask, passive) pattern.
            bad_positions = np.flatnonzero(defective)
            bad_hosts = hosts[bad_positions]
            for group in _pattern_groups(observed, passive, bad_hosts):
                exemplar = bad_hosts[group[0]]
                observed_idx = np.flatnonzero(observed[exemplar])
                free = np.flatnonzero(passive[exemplar])
                sub_design = design[np.ix_(observed_idx, free)]
                group_rhs = rhs[np.ix_(bad_hosts[group], observed_idx)]
                answer, *_ = np.linalg.lstsq(sub_design, group_rhs.T, rcond=None)
                solved[bad_positions[group]] = answer.T
        trial[positions[:, None], free_idx] = solved
    return trial


def nonnegative_least_squares_batched(
    basis: object,
    targets: object,
    mask: object | None = None,
    max_iter: int | None = None,
    tol: float | None = None,
) -> np.ndarray:
    """Solve ``min_U ||(basis @ u_h - t_h)[mask_h]||^2 s.t. u_h >= 0`` for all hosts.

    The batched Lawson-Hanson kernel: every host runs the same
    active-set iteration as :func:`nonnegative_least_squares`, but the
    hosts advance together and the inner unconstrained solves are
    grouped — hosts sharing an observation mask and a passive set are
    solved as one multi-RHS ``lstsq`` against the shared sub-design.
    In the common placement workload (many hosts dropping the *same*
    landmarks, Figure 7) a handful of factorizations serve the whole
    batch.

    Args:
        basis: ``(k, d)`` shared design matrix.
        targets: ``(n, k)`` right-hand sides, one row per host. Entries
            excluded by ``mask`` may be NaN.
        mask: optional ``(n, k)`` boolean observation matrix; a False
            entry drops that measurement from its host's solve.
        max_iter: per-host outer-iteration budget; defaults to
            ``max(3 * d, 30)`` like the single-RHS solver.
        tol: dual-feasibility tolerance; defaults to the single-RHS
            solver's per-host value ``10 * eps * ||basis[mask_h]||_1 *
            max(k_h, d)``, so each host converges exactly when its
            single-RHS solve would.

    Returns:
        ``(n, d)`` non-negative solutions, row per host.

    Raises:
        ConvergenceError: if any host's active-set loop exceeds the
            budget (practically impossible for well-posed inputs).
    """
    design = as_matrix(basis, name="basis")
    rows = np.asarray(targets, dtype=float)
    if rows.ndim != 2:
        raise ValidationError(f"targets must be 2-D, got shape {rows.shape}")
    k, cols = design.shape
    n_hosts = rows.shape[0]
    if rows.shape[1] != k:
        raise ValidationError(f"targets has {rows.shape[1]} columns, expected {k}")
    if mask is None:
        observed = np.ones((n_hosts, k), dtype=bool)
    else:
        observed = as_mask(mask, rows.shape)

    if max_iter is None:
        max_iter = max(3 * cols, 30)
    if tol is None:
        # Per-host tolerance of the reference solver applied to the
        # host's masked sub-design: 10 eps ||A_h||_1 max(k_h, d).
        column_sums = observed.astype(float) @ np.abs(design)
        observed_counts = observed.sum(axis=1)
        tolerances = (
            10.0
            * np.finfo(float).eps
            * column_sums.max(axis=1, initial=0.0)
            * np.maximum(observed_counts, cols)
        )
    else:
        tolerances = np.full(n_hosts, float(tol))

    rhs = np.where(observed, rows, 0.0)
    solution = np.zeros((n_hosts, cols))
    passive = np.zeros((n_hosts, cols), dtype=bool)
    converging = np.ones(n_hosts, dtype=bool)
    outer_iterations = np.zeros(n_hosts, dtype=np.intp)
    # Per-host normal equations, assembled once: the inner loop solves
    # tiny d x d subsystems of these, stacked by free-set size, instead
    # of refactoring the k x d design per host per iteration.
    normal = np.einsum("hk,ki,kj->hij", observed.astype(float), design, design)
    beta = rhs @ design

    while converging.any():
        # Dual feasibility, computed only over the hosts still
        # iterating: the masked residual and its gradient come out of
        # two dense matmuls on the converging slice — stragglers don't
        # re-pay for the whole batch.
        active = np.flatnonzero(converging)
        residual = np.where(
            observed[active], rhs[active] - solution[active] @ design.T, 0.0
        )
        gradient = residual @ design
        candidates = ~passive[active] & (
            gradient > tolerances[active, None]
        )
        has_candidate = candidates.any(axis=1)
        converging[active[~has_candidate]] = False
        active_rows = active[has_candidate]
        if not active_rows.size:
            break
        outer_iterations[active_rows] += 1
        if (outer_iterations[active_rows] > max_iter).any():
            worst = int(active_rows[np.argmax(outer_iterations[active_rows])])
            raise ConvergenceError(
                f"NNLS active-set loop exceeded {max_iter} iterations "
                f"for host {worst}"
            )
        entering = np.argmax(
            np.where(
                candidates[has_candidate], gradient[has_candidate], -np.inf
            ),
            axis=1,
        )
        passive[active_rows, entering] = True

        # Inner loop: unconstrained solves on the passive sets, with
        # backtracking. Hosts leave as soon as their trial is feasible.
        pending = active_rows
        previous = solution[active_rows].copy()
        while pending.size:
            trial = _solve_passive_sets(
                design, rhs, observed, passive, normal, beta, pending
            )

            negative = passive[pending] & (trial <= 0.0)
            feasible = ~negative.any(axis=1)
            if feasible.any():
                # Same sub-tolerance clamp as the single-RHS solver's
                # feasible exit (see there): prevents period-2 cycling
                # on ~eps-sized coefficients.
                finished = pending[feasible]
                cleaned = trial[feasible]
                cleaned[cleaned < tolerances[finished, None]] = 0.0
                solution[finished] = cleaned
                passive[finished] &= cleaned > 0.0
            pending = pending[~feasible]
            if not pending.size:
                break
            # Step toward the trial until the first passive variable
            # hits zero, then clamp it back to the active set.
            trial = trial[~feasible]
            negative = negative[~feasible]
            current = solution[pending]
            movement = np.where(negative, current - trial, 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(
                    negative & (movement != 0.0), current / movement, np.inf
                )
            alpha = ratios.min(axis=1)
            # Degenerate backtrack (see the single-RHS solver): no
            # finite step exists, so step zero and let the clamp +
            # stall guard retire the offending variable.
            alpha = np.where(np.isfinite(alpha), alpha, 0.0)
            stepped = current + alpha[:, None] * (trial - current)
            stepped[stepped < tolerances[pending, None]] = 0.0
            solution[pending] = stepped
            passive[pending] &= stepped > 0.0

        # Anti-cycling guard: an outer iteration that left a host's
        # solution bitwise unchanged (the entering variable immediately
        # backtracked to zero — a dual gradient hovering at the noise
        # floor) can only repeat itself; that host is numerically
        # converged.
        stalled = (solution[active_rows] == previous).all(axis=1)
        if stalled.any():
            converging[active_rows[stalled]] = False

    return solution
