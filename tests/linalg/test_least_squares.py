"""Tests for the (batched) least-squares solvers."""

import numpy as np
import pytest

from repro.exceptions import SingularSystemError, ValidationError
from repro.linalg import (
    gram_condition_number,
    row_pattern_groups,
    row_patterns,
    solve_batched_least_squares,
    solve_least_squares,
    solve_weighted_batched_least_squares,
    stacked_solution_maps,
)

#: Solutions are compared at this relative tolerance. A component that
#: cancels to near zero keeps the absolute rounding of the solution's
#: scale, so the absolute tolerance is this factor of the largest entry.
RTOL = 1e-9
SCALE_ATOL = 1e-12


def assert_solutions_equal(actual, expected):
    scale = np.abs(expected).max(initial=0.0)
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=SCALE_ATOL * scale)


def lstsq_reference(basis, rows):
    """``np.linalg.lstsq(rcond=None)`` over all hosts: (solutions, rank)."""
    solutions, _residuals, rank, _sv = np.linalg.lstsq(basis, rows.T, rcond=None)
    return solutions.T, rank


class TestSolveLeastSquares:
    def test_matches_normal_equations(self, rng):
        basis = rng.random((20, 5))
        targets = rng.random(20)
        solution = solve_least_squares(basis, targets)
        expected = np.linalg.solve(basis.T @ basis, basis.T @ targets)
        np.testing.assert_allclose(solution, expected, rtol=1e-9)

    def test_exact_for_consistent_system(self, rng):
        basis = rng.random((10, 4))
        truth = rng.random(4)
        solution = solve_least_squares(basis, basis @ truth)
        np.testing.assert_allclose(solution, truth, rtol=1e-9)

    def test_gradient_vanishes_at_optimum(self, rng):
        basis = rng.random((15, 6))
        targets = rng.random(15)
        solution = solve_least_squares(basis, targets)
        gradient = basis.T @ (basis @ solution - targets)
        np.testing.assert_allclose(gradient, 0.0, atol=1e-9)

    def test_ridge_shrinks_solution(self, rng):
        basis = rng.random((12, 4))
        targets = rng.random(12)
        plain = solve_least_squares(basis, targets)
        shrunk = solve_least_squares(basis, targets, ridge=100.0)
        assert np.linalg.norm(shrunk) < np.linalg.norm(plain)

    def test_ridge_zero_matches_plain(self, rng):
        basis = rng.random((12, 4))
        targets = rng.random(12)
        np.testing.assert_allclose(
            solve_least_squares(basis, targets, ridge=0.0),
            solve_least_squares(basis, targets),
            rtol=1e-12,
        )

    def test_strict_rejects_underdetermined(self, rng):
        basis = rng.random((3, 5))
        with pytest.raises(SingularSystemError):
            solve_least_squares(basis, rng.random(3), strict=True)

    def test_non_strict_returns_min_norm(self, rng):
        basis = rng.random((3, 5))
        targets = rng.random(3)
        solution = solve_least_squares(basis, targets, strict=False)
        # Minimum-norm solution reproduces the targets exactly.
        np.testing.assert_allclose(basis @ solution, targets, rtol=1e-8)

    def test_strict_rejects_rank_deficient(self, rng):
        column = rng.random((8, 1))
        basis = np.hstack([column, column])  # rank 1, d = 2
        with pytest.raises(SingularSystemError):
            solve_least_squares(basis, rng.random(8), strict=True)

    def test_rejects_mismatched_lengths(self, rng):
        with pytest.raises(ValidationError):
            solve_least_squares(rng.random((5, 2)), rng.random(4))

    def test_rejects_negative_ridge(self, rng):
        with pytest.raises(ValidationError):
            solve_least_squares(rng.random((5, 2)), rng.random(5), ridge=-1.0)


class TestBatchedLeastSquares:
    def test_matches_row_by_row(self, rng):
        basis = rng.random((15, 4))
        rows = rng.random((7, 15))
        batched = solve_batched_least_squares(basis, rows)
        for index in range(7):
            single = solve_least_squares(basis, rows[index])
            np.testing.assert_allclose(batched[index], single, rtol=1e-9)

    def test_with_ridge_matches_row_by_row(self, rng):
        basis = rng.random((15, 4))
        rows = rng.random((5, 15))
        batched = solve_batched_least_squares(basis, rows, ridge=2.5)
        for index in range(5):
            single = solve_least_squares(basis, rows[index], ridge=2.5)
            np.testing.assert_allclose(batched[index], single, rtol=1e-9)

    def test_shape(self, rng):
        result = solve_batched_least_squares(rng.random((9, 3)), rng.random((4, 9)))
        assert result.shape == (4, 3)

    def test_strict_underdetermined(self, rng):
        with pytest.raises(SingularSystemError):
            solve_batched_least_squares(
                rng.random((2, 5)), rng.random((3, 2)), strict=True
            )

    def test_rejects_bad_column_count(self, rng):
        with pytest.raises(ValidationError):
            solve_batched_least_squares(rng.random((9, 3)), rng.random((4, 8)))


class TestMatchesLstsq:
    """The stacked-SVD solve against ``np.linalg.lstsq(rcond=None)``:
    equal solutions and equal ranks, including every degenerate case."""

    def check(self, basis, rows):
        expected, expected_rank = lstsq_reference(basis, rows)
        _maps, ranks = stacked_solution_maps(basis[None])
        assert ranks[0] == expected_rank
        assert_solutions_equal(solve_batched_least_squares(basis, rows), expected)

    def test_p2psim_shape(self, rng):
        # 1123 ordinary hosts against 20 landmarks at d = 10.
        self.check(rng.random((20, 10)), rng.random((1123, 20)) * 100)

    def test_duplicate_column_basis(self, rng):
        column = rng.random((12, 1))
        basis = np.hstack([column, rng.random((12, 2)), column])
        rows = rng.random((50, 12))
        self.check(basis, rows)
        with pytest.raises(SingularSystemError):
            solve_batched_least_squares(basis, rows, strict=True)

    def test_fewer_references_than_dimension(self, rng):
        self.check(rng.random((4, 7)), rng.random((30, 4)))

    def test_all_zero_basis(self, rng):
        basis = np.zeros((8, 3))
        self.check(basis, rng.random((5, 8)))
        np.testing.assert_array_equal(
            solve_batched_least_squares(basis, rng.random((5, 8))), 0.0
        )

    def test_zero_hosts(self, rng):
        basis = rng.random((8, 3))
        rows = np.empty((0, 8))
        assert solve_batched_least_squares(basis, rows).shape == (0, 3)
        self.check(basis, rows)

    def test_nan_basis_raises_like_lstsq(self, rng):
        basis = rng.random((8, 3))
        basis[2, 1] = np.nan
        rows = rng.random((4, 8))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.lstsq(basis, rows.T, rcond=None)
        with pytest.raises(np.linalg.LinAlgError):
            solve_batched_least_squares(basis, rows)


class TestStackedSolutionMaps:
    def test_each_pattern_matches_lstsq_on_its_observed_rows(self, rng):
        basis = rng.random((20, 6))
        patterns = rng.random((40, 20)) > 0.4
        patterns[0, 3:] = False  # k_obs = 3 < d: rank-deficient
        rows = rng.random((40, 20)) * 50
        maps, ranks = stacked_solution_maps(
            patterns[:, :, None] * basis, observed_rows=patterns.sum(axis=1)
        )
        targets = np.where(patterns, rows, 0.0)
        for index, observed in enumerate(patterns):
            expected, rank = lstsq_reference(
                basis[observed], rows[index : index + 1, observed]
            )
            assert ranks[index] == rank
            assert_solutions_equal(targets[index] @ maps[index], expected[0])

    def test_cutoff_counts_observed_rows_only(self):
        # A 10 x 2 observed block with singular values 1 and 20 eps,
        # padded to 40 rows. lstsq on the observed block cuts at
        # 10 eps and keeps rank 2; counting all 40 rows would cut at
        # 40 eps and report rank 1.
        eps = np.finfo(float).eps
        left, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((10, 2)))
        block = left @ np.diag([1.0, 20 * eps])
        _, expected_rank = lstsq_reference(block, np.ones((1, 10)))
        assert expected_rank == 2
        padded = np.vstack([block, np.zeros((30, 2))])[None]
        _maps, ranks = stacked_solution_maps(padded, observed_rows=[10])
        assert ranks[0] == expected_rank
        _maps, all_rows_ranks = stacked_solution_maps(padded)
        assert all_rows_ranks[0] == 1

    def test_ridge_matches_single_solves(self, rng):
        basis = rng.random((12, 4))
        rows = rng.random((3, 12))
        maps, ranks = stacked_solution_maps(basis[None], ridge=0.7)
        assert ranks[0] == 4
        for index in range(3):
            np.testing.assert_allclose(
                rows[index] @ maps[0],
                solve_least_squares(basis, rows[index], ridge=0.7),
                rtol=1e-9,
            )

    def test_rejects_non_stack(self, rng):
        with pytest.raises(ValidationError):
            stacked_solution_maps(rng.random((4, 3)))


class TestRowPatternGroups:
    @pytest.mark.parametrize("kind", ["bool", "packed", "float"])
    def test_partition_into_homogeneous_groups(self, rng, kind):
        if kind == "float":
            rows = rng.random((25, 4))[rng.integers(0, 25, 300)]
        else:
            rows = (rng.random((25, 13)) > 0.5)[rng.integers(0, 25, 300)]
            if kind == "packed":
                rows = np.packbits(rows, axis=1)
        groups = row_pattern_groups(rows)
        members = np.concatenate(groups)
        np.testing.assert_array_equal(np.sort(members), np.arange(rows.shape[0]))
        for group in groups:
            assert (rows[group] == rows[group[0]]).all()
        assert len(groups) == len(np.unique(rows, axis=0))

    def test_row_patterns_index_rows(self, rng):
        rows = (rng.random((6, 9)) > 0.5)[rng.integers(0, 6, 50)]
        representatives, pattern_of = row_patterns(rows)
        np.testing.assert_array_equal(rows[representatives[pattern_of]], rows)

    def test_empty_and_zero_width(self):
        assert row_pattern_groups(np.zeros((0, 4), dtype=bool)) == []
        (group,) = row_pattern_groups(np.zeros((3, 0)))
        np.testing.assert_array_equal(group, [0, 1, 2])


class TestGramConditionNumber:
    def test_identity_basis(self):
        assert gram_condition_number(np.eye(4)) == pytest.approx(1.0)

    def test_infinite_for_rank_deficient(self):
        column = np.ones((5, 1))
        basis = np.hstack([column, column])
        assert gram_condition_number(basis) == np.inf

    def test_grows_with_near_collinearity(self, rng):
        well = rng.random((20, 3))
        nearly = well.copy()
        nearly[:, 2] = nearly[:, 0] + 1e-6 * rng.random(20)
        assert gram_condition_number(nearly) > gram_condition_number(well)


class TestWeightedBatchedLeastSquares:
    def test_uniform_weights_match_plain(self, rng):
        basis = rng.random((12, 4))
        rows = rng.random((6, 12))
        weights = np.ones_like(rows)
        weighted = solve_weighted_batched_least_squares(basis, rows, weights)
        plain = solve_batched_least_squares(basis, rows)
        np.testing.assert_allclose(weighted, plain, rtol=1e-8)

    def test_zero_weight_drops_measurement(self, rng):
        basis = rng.random((10, 3))
        rows = rng.random((1, 10))
        corrupted = rows.copy()
        corrupted[0, 4] = 1e9
        weights = np.ones_like(rows)
        weights[0, 4] = 0.0
        with_garbage = solve_weighted_batched_least_squares(basis, corrupted, weights)
        reference = solve_least_squares(
            np.delete(basis, 4, axis=0), np.delete(rows[0], 4)
        )
        np.testing.assert_allclose(with_garbage[0], reference, rtol=1e-8)

    def test_weights_tilt_the_fit(self, rng):
        # Two inconsistent measurements of a single scalar: the solution
        # moves toward the heavily weighted one.
        basis = np.ones((2, 1))
        rows = np.array([[1.0, 3.0]])
        weights = np.array([[100.0, 1.0]])
        solution = solve_weighted_batched_least_squares(basis, rows, weights)
        assert abs(solution[0, 0] - 1.0) < 0.1

    def test_matches_manual_weighted_solve(self, rng):
        basis = rng.random((15, 3))
        rows = rng.random((4, 15))
        weights = rng.random((4, 15)) + 0.1
        batched = solve_weighted_batched_least_squares(basis, rows, weights)
        for host in range(4):
            scale = np.sqrt(weights[host])
            expected, *_ = np.linalg.lstsq(
                basis * scale[:, None], rows[host] * scale, rcond=None
            )
            np.testing.assert_allclose(batched[host], expected, rtol=1e-7)

    def test_ridge_regularizes(self, rng):
        basis = rng.random((10, 3))
        rows = rng.random((2, 10))
        weights = np.ones_like(rows)
        plain = solve_weighted_batched_least_squares(basis, rows, weights)
        shrunk = solve_weighted_batched_least_squares(basis, rows, weights, ridge=50.0)
        assert np.linalg.norm(shrunk) < np.linalg.norm(plain)

    def test_rejects_negative_weights(self, rng):
        with pytest.raises(ValidationError):
            solve_weighted_batched_least_squares(
                rng.random((5, 2)), rng.random((2, 5)), -np.ones((2, 5))
            )

    def test_singular_host_falls_back_to_min_norm(self, rng):
        basis = rng.random((6, 3))
        rows = rng.random((2, 6))
        weights = np.ones_like(rows)
        weights[1, :] = 0.0  # host 1 has no observations at all
        solutions = solve_weighted_batched_least_squares(basis, rows, weights)
        assert np.isfinite(solutions).all()
        np.testing.assert_allclose(solutions[1], 0.0, atol=1e-9)

    def test_singular_fallback_matches_per_host_lstsq(self, rng):
        # Relative weighting (1 / d^2) gives every host its own weight
        # row. Host 0 observes nothing, so the stacked solve is singular
        # and every host takes the min-norm fallback; every fifth host
        # observes fewer than d references.
        basis = rng.random((12, 4))
        rows = rng.random((400, 12)) * 100 + 1
        observed = np.ones(rows.shape, dtype=bool)
        for host in range(0, 400, 5):
            observed[host] = False
            observed[host, rng.choice(12, host % 4, replace=False)] = True
        weights = observed / rows**2
        solutions = solve_weighted_batched_least_squares(basis, rows, weights)
        for host in range(400):
            scale = np.sqrt(weights[host])
            expected, *_ = np.linalg.lstsq(
                basis * scale[:, None], rows[host] * scale, rcond=None
            )
            np.testing.assert_allclose(
                solutions[host],
                expected,
                rtol=1e-8,
                atol=1e-10 * np.abs(expected).max(),
            )
