"""Tests for ordinary-host placement solves (paper Eqs. 11-16)."""

import numpy as np
import pytest

from repro.core import SVDFactorizer
from repro.exceptions import SingularSystemError, ValidationError
from repro.ides import place_hosts_batch, solve_host_vectors

from ..conftest import make_low_rank_matrix


@pytest.fixture(scope="module")
def factored_world():
    """An exactly rank-3 world split into landmarks and hosts."""
    matrix = make_low_rank_matrix(20, 20, 3, seed=1)
    landmark_idx = np.arange(8)
    host_idx = np.arange(8, 20)
    model = SVDFactorizer(dimension=3).fit(matrix[np.ix_(landmark_idx, landmark_idx)])
    return {
        "matrix": matrix,
        "landmarks": landmark_idx,
        "hosts": host_idx,
        "landmark_out": model.outgoing,
        "landmark_in": model.incoming,
    }


class TestSolveHostVectors:
    def test_closed_form_matches_eq13_14(self, rng):
        reference_in = rng.random((10, 4))
        reference_out = rng.random((10, 4))
        out_distances = rng.random(10)
        in_distances = rng.random(10)
        vectors = solve_host_vectors(
            out_distances, in_distances, reference_out, reference_in
        )
        # Eq. 13: X_new = (D_out Y)(Y^T Y)^-1
        expected_out = np.linalg.solve(
            reference_in.T @ reference_in, reference_in.T @ out_distances
        )
        expected_in = np.linalg.solve(
            reference_out.T @ reference_out, reference_out.T @ in_distances
        )
        np.testing.assert_allclose(vectors.outgoing, expected_out, rtol=1e-8)
        np.testing.assert_allclose(vectors.incoming, expected_in, rtol=1e-8)

    def test_exact_placement_in_low_rank_world(self, factored_world):
        world = factored_world
        matrix = world["matrix"]
        host = world["hosts"][0]
        vectors = solve_host_vectors(
            matrix[host, world["landmarks"]],
            matrix[world["landmarks"], host],
            world["landmark_out"],
            world["landmark_in"],
        )
        # Host-to-landmark distances reproduce exactly (the world has
        # exact rank 3 and we solved an overdetermined consistent system).
        predicted = vectors.outgoing @ world["landmark_in"].T
        np.testing.assert_allclose(
            predicted, matrix[host, world["landmarks"]], rtol=1e-6
        )

    def test_strict_requires_k_at_least_d(self, rng):
        with pytest.raises(SingularSystemError):
            solve_host_vectors(
                rng.random(2), rng.random(2), rng.random((2, 4)), rng.random((2, 4)),
                strict=True,
            )

    def test_nan_measurements_dropped(self, rng):
        reference_out = rng.random((8, 3))
        reference_in = rng.random((8, 3))
        out_d = rng.random(8)
        in_d = rng.random(8)
        baseline = solve_host_vectors(
            out_d[:6], in_d[:6], reference_out[:6], reference_in[:6]
        )
        padded_out = np.concatenate([out_d[:6], [np.nan, np.nan]])
        padded_in = np.concatenate([in_d[:6], [np.nan, np.nan]])
        masked = solve_host_vectors(padded_out, padded_in, reference_out, reference_in)
        np.testing.assert_allclose(masked.outgoing, baseline.outgoing, rtol=1e-9)

    def test_nonnegative_solve(self, rng):
        reference_out = rng.random((12, 3))
        reference_in = rng.random((12, 3))
        vectors = solve_host_vectors(
            rng.random(12), rng.random(12), reference_out, reference_in,
            nonnegative=True,
        )
        assert (vectors.outgoing >= 0).all()
        assert (vectors.incoming >= 0).all()

    def test_ridge_accepted(self, rng):
        vectors = solve_host_vectors(
            rng.random(6), rng.random(6), rng.random((6, 3)), rng.random((6, 3)),
            ridge=1.0,
        )
        assert vectors.dimension == 3

    def test_shape_validation(self, rng):
        with pytest.raises(ValidationError):
            solve_host_vectors(
                rng.random(5), rng.random(6), rng.random((6, 3)), rng.random((6, 3))
            )

    def test_no_finite_measurement_rejected(self, rng):
        with pytest.raises(ValidationError, match="no finite outgoing measurement"):
            solve_host_vectors(
                np.full(6, np.nan), rng.random(6),
                rng.random((6, 3)), rng.random((6, 3)),
                strict=False,
            )


class TestPlaceHostsBatch:
    def test_matches_individual_solves(self, factored_world, rng):
        world = factored_world
        matrix = world["matrix"]
        out_block = matrix[np.ix_(world["hosts"], world["landmarks"])]
        in_block = matrix[np.ix_(world["landmarks"], world["hosts"])]
        batch_out, batch_in = place_hosts_batch(
            out_block, in_block, world["landmark_out"], world["landmark_in"]
        )
        for position, host in enumerate(world["hosts"]):
            single = solve_host_vectors(
                matrix[host, world["landmarks"]],
                matrix[world["landmarks"], host],
                world["landmark_out"],
                world["landmark_in"],
            )
            np.testing.assert_allclose(batch_out[position], single.outgoing, rtol=1e-7)
            np.testing.assert_allclose(batch_in[position], single.incoming, rtol=1e-7)

    def test_symmetry_default(self, factored_world):
        world = factored_world
        matrix = world["matrix"]
        out_block = matrix[np.ix_(world["hosts"], world["landmarks"])]
        # With in_distances=None the transpose is assumed.
        auto_out, auto_in = place_hosts_batch(
            out_block, None, world["landmark_out"], world["landmark_in"]
        )
        explicit_out, explicit_in = place_hosts_batch(
            out_block, out_block.T, world["landmark_out"], world["landmark_in"]
        )
        np.testing.assert_allclose(auto_out, explicit_out, rtol=1e-12)
        np.testing.assert_allclose(auto_in, explicit_in, rtol=1e-12)

    def test_mask_restricts_references(self, factored_world):
        world = factored_world
        matrix = world["matrix"]
        out_block = matrix[np.ix_(world["hosts"], world["landmarks"])]
        in_block = matrix[np.ix_(world["landmarks"], world["hosts"])]

        mask = np.ones_like(out_block, dtype=bool)
        mask[0, :4] = False  # host 0 misses half its landmarks

        masked_out, _ = place_hosts_batch(
            out_block, in_block, world["landmark_out"], world["landmark_in"],
            observation_mask=mask,
        )
        single = solve_host_vectors(
            out_block[0, 4:], in_block[4:, 0],
            world["landmark_out"][4:], world["landmark_in"][4:],
        )
        np.testing.assert_allclose(masked_out[0], single.outgoing, rtol=1e-7)

    def test_masked_strict_violation_raises(self, factored_world):
        world = factored_world
        matrix = world["matrix"]
        out_block = matrix[np.ix_(world["hosts"], world["landmarks"])]
        mask = np.ones_like(out_block, dtype=bool)
        mask[0, :6] = False  # only 2 observed < d=3
        with pytest.raises(SingularSystemError):
            place_hosts_batch(
                out_block, None, world["landmark_out"], world["landmark_in"],
                observation_mask=mask, strict=True,
            )

    def test_mask_grouped_path_matches_per_host_oracle(self, factored_world, rng):
        """Mixed mask patterns (the Figure 7 workload): the grouped
        solves must agree with looping the single-host oracle."""
        world = factored_world
        matrix = world["matrix"]
        out_block = matrix[np.ix_(world["hosts"], world["landmarks"])]
        in_block = matrix[np.ix_(world["landmarks"], world["hosts"])]
        patterns = np.ones((3, out_block.shape[1]), dtype=bool)
        patterns[1, :3] = False
        patterns[2, 4:6] = False
        mask = patterns[rng.integers(0, 3, out_block.shape[0])]
        batch_out, batch_in = place_hosts_batch(
            out_block, in_block, world["landmark_out"], world["landmark_in"],
            observation_mask=mask,
        )
        for host in range(out_block.shape[0]):
            single = solve_host_vectors(
                np.where(mask[host], out_block[host], np.nan),
                np.where(mask[host], in_block[:, host], np.nan),
                world["landmark_out"],
                world["landmark_in"],
            )
            np.testing.assert_allclose(
                batch_out[host], single.outgoing, atol=1e-8, rtol=1e-7
            )
            np.testing.assert_allclose(
                batch_in[host], single.incoming, atol=1e-8, rtol=1e-7
            )

    @pytest.mark.parametrize("min_observed", [6, 2])
    def test_one_pattern_per_host_matches_oracle(self, rng, min_observed):
        """About one observation pattern per host, each observing k_obs
        of k = 20 references (down to k_obs < d = 5 without strict):
        every host's stacked solve equals its own lstsq solve."""
        reference_out = rng.random((20, 5))
        reference_in = rng.random((20, 5))
        out_block = rng.random((150, 20)) * 100
        in_block = rng.random((20, 150)) * 100
        mask = np.ones_like(out_block, dtype=bool)
        for host in range(150):
            dropped = rng.integers(1, 20 - min_observed + 1)
            mask[host, rng.choice(20, dropped, replace=False)] = False
        assert len(np.unique(mask, axis=0)) > 140
        strict = min_observed >= 5
        batch_out, batch_in = place_hosts_batch(
            out_block, in_block, reference_out, reference_in,
            observation_mask=mask, strict=strict,
        )
        for host in range(150):
            single = solve_host_vectors(
                np.where(mask[host], out_block[host], np.nan),
                np.where(mask[host], in_block[:, host], np.nan),
                reference_out, reference_in, strict=strict,
            )
            for batched, oracle in (
                (batch_out[host], single.outgoing),
                (batch_in[host], single.incoming),
            ):
                np.testing.assert_allclose(
                    batched, oracle, rtol=1e-9, atol=1e-12 * np.abs(oracle).max()
                )

    def test_strict_names_rank_deficient_host(self, rng):
        # References 0-5 are copies of one vector: a host observing only
        # them has k_obs = 6 >= d = 3 but a rank-1 reference system.
        reference = rng.random((10, 3))
        reference[:6] = reference[0]
        mask = np.ones((4, 10), dtype=bool)
        mask[2, 6:] = False
        with pytest.raises(SingularSystemError, match="host 2's"):
            place_hosts_batch(
                rng.random((4, 10)), None, reference, reference,
                observation_mask=mask, strict=True,
            )

    @pytest.mark.parametrize("blank", ["mask", "nan"])
    def test_host_without_references_named(self, factored_world, blank):
        world = factored_world
        out_block = world["matrix"][np.ix_(world["hosts"], world["landmarks"])].copy()
        mask = np.ones_like(out_block, dtype=bool)
        if blank == "mask":
            mask[3] = False
        else:
            out_block[3] = np.nan
        with pytest.raises(ValidationError, match="host 3 "):
            place_hosts_batch(
                out_block, None, world["landmark_out"], world["landmark_in"],
                observation_mask=mask, strict=False,
            )

    def test_masked_nonnegative_batch_matches_oracle(self, factored_world, rng):
        """The batched NNLS placement agrees with per-host NNLS solves."""
        world = factored_world
        matrix = world["matrix"]
        out_block = matrix[np.ix_(world["hosts"], world["landmarks"])]
        mask = np.ones_like(out_block, dtype=bool)
        mask[::2, :2] = False
        batch_out, batch_in = place_hosts_batch(
            out_block, None, world["landmark_out"], world["landmark_in"],
            observation_mask=mask, nonnegative=True, strict=False,
        )
        for host in range(out_block.shape[0]):
            single = solve_host_vectors(
                np.where(mask[host], out_block[host], np.nan),
                np.where(mask[host], out_block[host], np.nan),
                world["landmark_out"],
                world["landmark_in"],
                nonnegative=True,
                strict=False,
            )
            np.testing.assert_allclose(
                batch_out[host], single.outgoing, atol=1e-8
            )
            np.testing.assert_allclose(
                batch_in[host], single.incoming, atol=1e-8
            )

    def test_masked_ridge_matches_oracle(self, factored_world, rng):
        world = factored_world
        matrix = world["matrix"]
        out_block = matrix[np.ix_(world["hosts"], world["landmarks"])]
        mask = np.ones_like(out_block, dtype=bool)
        mask[0, :4] = False
        batch_out, _ = place_hosts_batch(
            out_block, None, world["landmark_out"], world["landmark_in"],
            observation_mask=mask, ridge=0.5,
        )
        single = solve_host_vectors(
            np.where(mask[0], out_block[0], np.nan),
            np.where(mask[0], out_block[0], np.nan),
            world["landmark_out"], world["landmark_in"], ridge=0.5,
        )
        np.testing.assert_allclose(batch_out[0], single.outgoing, rtol=1e-8)

    def test_nonnegative_batch(self, factored_world):
        world = factored_world
        matrix = world["matrix"]
        out_block = matrix[np.ix_(world["hosts"], world["landmarks"])]
        batch_out, batch_in = place_hosts_batch(
            out_block, None, world["landmark_out"], world["landmark_in"],
            nonnegative=True,
        )
        assert (batch_out >= 0).all() and (batch_in >= 0).all()

    def test_shape_validation(self, rng):
        with pytest.raises(ValidationError):
            place_hosts_batch(
                rng.random((4, 5)), rng.random((4, 4)),
                rng.random((5, 2)), rng.random((5, 2)),
            )


class TestRelativeWeighting:
    def test_weights_formula(self, rng):
        from repro.ides import relative_error_weights

        measurements = np.array([1.0, 10.0, np.nan])
        weights = relative_error_weights(measurements)
        assert weights[0] == pytest.approx(1.0)
        assert weights[1] == pytest.approx(0.01)
        assert weights[2] == 0.0

    def test_relative_weighting_exact_in_exact_world(self, factored_world):
        world = factored_world
        matrix = world["matrix"]
        out_block = matrix[np.ix_(world["hosts"], world["landmarks"])]
        in_block = matrix[np.ix_(world["landmarks"], world["hosts"])]
        uniform_out, _ = place_hosts_batch(
            out_block, in_block, world["landmark_out"], world["landmark_in"]
        )
        weighted_out, _ = place_hosts_batch(
            out_block, in_block, world["landmark_out"], world["landmark_in"],
            weighting="relative",
        )
        # In an exactly-consistent system both solves find the same
        # (unique, residual-zero) solution.
        np.testing.assert_allclose(weighted_out, uniform_out, rtol=1e-5)

    def test_relative_weighting_handles_mask_natively(self, factored_world):
        world = factored_world
        matrix = world["matrix"]
        out_block = matrix[np.ix_(world["hosts"], world["landmarks"])]
        mask = np.ones_like(out_block, dtype=bool)
        mask[0, :4] = False
        weighted_out, _ = place_hosts_batch(
            out_block, None, world["landmark_out"], world["landmark_in"],
            observation_mask=mask, weighting="relative",
        )
        assert np.isfinite(weighted_out).all()

    def test_invalid_weighting_rejected(self, factored_world, rng):
        world = factored_world
        with pytest.raises(ValidationError):
            place_hosts_batch(
                rng.random((2, 8)), None,
                world["landmark_out"], world["landmark_in"],
                weighting="quadratic",
            )

    def test_relative_incompatible_with_nonnegative(self, factored_world, rng):
        world = factored_world
        with pytest.raises(ValidationError):
            place_hosts_batch(
                rng.random((2, 8)), None,
                world["landmark_out"], world["landmark_in"],
                weighting="relative", nonnegative=True,
            )
