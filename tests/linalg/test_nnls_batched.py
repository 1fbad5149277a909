"""Property and edge-case suite for the batched Lawson-Hanson kernel.

The batched solver's contract is strict: for every host it must land
on the same solution as the single-RHS reference oracle applied to
that host's masked subproblem (within 1e-8), and every solution must
satisfy the NNLS KKT conditions. Hypothesis drives the agreement and
KKT properties over random well-posed problems; deterministic cases
pin the rank-deficient ``lstsq`` fallback, the all-active (zero)
solution, the all-passive (interior) solution, and mask handling.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import ValidationError
from repro.linalg import (
    nonnegative_least_squares,
    nonnegative_least_squares_batched,
)

# Bounded dynamic range: tiny magnitudes flush to zero so the strategy
# still probes exact-zero degeneracy, but never subnormal/near-underflow
# designs whose solves overflow — outside the solver's RTT-scale domain.
finite_values = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
).map(lambda value: 0.0 if abs(value) < 1e-6 else value)


@st.composite
def batched_problems(draw, max_hosts=6, max_refs=12, max_dim=4):
    """A shared design plus per-host targets (and sometimes masks)."""
    dimension = draw(st.integers(1, max_dim))
    refs = draw(st.integers(dimension, max_refs))
    hosts = draw(st.integers(1, max_hosts))
    basis = draw(
        hnp.arrays(np.float64, (refs, dimension), elements=finite_values)
    )
    targets = draw(
        hnp.arrays(np.float64, (hosts, refs), elements=finite_values)
    )
    with_mask = draw(st.booleans())
    if with_mask:
        mask = draw(
            hnp.arrays(np.bool_, (hosts, refs), elements=st.booleans())
        )
    else:
        mask = None
    return basis, targets, mask


def reference_solutions(basis, targets, mask):
    rows = []
    for host in range(targets.shape[0]):
        observed = (
            np.ones(targets.shape[1], dtype=bool) if mask is None else mask[host]
        )
        rows.append(
            nonnegative_least_squares(basis[observed], targets[host][observed])
            if observed.any()
            else np.zeros(basis.shape[1])
        )
    return np.stack(rows)


class TestAgreementWithReference:
    @given(problem=batched_problems())
    @settings(max_examples=60, deadline=None)
    def test_matches_single_rhs_oracle_fit(self, problem):
        """On arbitrary (possibly degenerate) problems the batched and
        reference solvers must land on the same *fit*: degenerate ties
        (duplicate columns) admit several optimal coordinate vectors,
        so the invariant is the fitted values, not the coordinates."""
        basis, targets, mask = problem
        batched = nonnegative_least_squares_batched(basis, targets, mask=mask)
        expected = reference_solutions(basis, targets, mask)
        observed = np.ones_like(targets, dtype=bool) if mask is None else mask
        fitted = np.where(observed, batched @ basis.T, 0.0)
        reference_fit = np.where(observed, expected @ basis.T, 0.0)
        scale = max(np.abs(reference_fit).max(), np.abs(targets).max(), 1.0)
        np.testing.assert_allclose(fitted, reference_fit, atol=1e-6 * scale)

    @given(seed=st.integers(0, 2**32 - 1), hosts=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_matches_single_rhs_oracle_coordinates(self, seed, hosts):
        """On full-rank problems (gaussian designs are full rank almost
        surely) the solution is unique and coordinates agree to 1e-8."""
        rng = np.random.default_rng(seed)
        basis = rng.standard_normal((12, 5))
        targets = rng.standard_normal((hosts, 12)) * 20
        mask = rng.random((hosts, 12)) > 0.2
        mask[:, :5] = True
        batched = nonnegative_least_squares_batched(basis, targets, mask=mask)
        expected = reference_solutions(basis, targets, mask)
        scale = max(np.abs(expected).max(), 1.0)
        np.testing.assert_allclose(batched, expected, atol=1e-8 * scale)

    @given(problem=batched_problems())
    @settings(max_examples=60, deadline=None)
    def test_kkt_conditions(self, problem):
        basis, targets, mask = problem
        solution = nonnegative_least_squares_batched(basis, targets, mask=mask)
        assert (solution >= 0).all()
        observed = (
            np.ones_like(targets, dtype=bool) if mask is None else mask
        )
        residual = np.where(
            observed, np.where(observed, targets, 0.0) - solution @ basis.T, 0.0
        )
        gradient = residual @ basis  # = -grad of the objective
        scale = max(np.abs(basis).max() * np.abs(targets).max(), 1.0)
        # Dual feasibility: no clamped variable wants to grow ...
        assert (gradient <= 1e-7 * scale).all()
        # ... and complementary slackness on the support.
        support = solution > 1e-12
        assert (np.abs(gradient[support]) <= 1e-7 * scale).all()

    @given(
        seeds=st.integers(0, 2**32 - 1),
        hosts=st.integers(1, 8),
    )
    @settings(max_examples=30, deadline=None)
    def test_shared_mask_patterns_agree(self, seeds, hosts):
        """The grouped fast path (few patterns, many hosts) stays exact."""
        rng = np.random.default_rng(seeds)
        basis = rng.standard_normal((10, 4))
        targets = rng.standard_normal((hosts, 10)) * 10
        patterns = rng.random((2, 10)) > 0.25
        patterns[:, :4] = True  # keep every host overdetermined
        mask = patterns[rng.integers(0, 2, hosts)]
        batched = nonnegative_least_squares_batched(basis, targets, mask=mask)
        expected = reference_solutions(basis, targets, mask)
        np.testing.assert_allclose(batched, expected, atol=1e-8)


class TestEdgeCases:
    def test_rank_deficient_design_takes_lstsq_fallback(self):
        """Duplicate columns make passive subsystems singular; the
        batched solver must terminate and reach the same *fit* as the
        reference (the tied columns make coordinates non-unique, so
        the invariant is the fitted values and objective)."""
        rng = np.random.default_rng(3)
        basis = rng.random((12, 6))
        basis[:, 4] = basis[:, 1]  # exact rank deficiency
        targets = rng.standard_normal((30, 12)) * 5
        batched = nonnegative_least_squares_batched(basis, targets)
        expected = reference_solutions(basis, targets, None)
        assert (batched >= 0).all()
        np.testing.assert_allclose(
            batched @ basis.T, expected @ basis.T, atol=1e-8
        )

    def test_ill_conditioned_design_matches_lstsq_fit(self):
        """A design mixing 1e-3 and ~50 entries: its Gram matrix squares
        a ~1e5 condition number, so a bare normal-equation solve drifts
        ~1e-6 from the reference's ``lstsq`` fit. The batched solver
        must still land on the reference fit."""
        basis = np.array(
            [
                [1e-3, 6.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [29.0, 49.0, -3.0, 0.0],
            ]
        )
        targets = np.zeros((4, 5))
        targets[3, 0] = 1.0
        batched = nonnegative_least_squares_batched(basis, targets)
        expected = reference_solutions(basis, targets, None)
        assert (batched >= 0).all()
        np.testing.assert_allclose(
            batched @ basis.T, expected @ basis.T, atol=1e-8
        )

    def test_all_active_solution_is_zero(self):
        """Positive design, negative targets: every variable stays
        clamped (the empty-passive fixed point)."""
        rng = np.random.default_rng(4)
        basis = rng.random((10, 3)) + 0.1
        targets = -np.ones((5, 10))
        solution = nonnegative_least_squares_batched(basis, targets)
        np.testing.assert_array_equal(solution, 0.0)

    def test_all_passive_recovers_nonnegative_truth(self):
        """Consistent nonnegative systems are solved exactly (every
        variable ends passive)."""
        rng = np.random.default_rng(5)
        basis = rng.random((25, 5))
        truth = rng.random((7, 5)) + 0.01
        solution = nonnegative_least_squares_batched(basis, truth @ basis.T)
        np.testing.assert_allclose(solution, truth, atol=1e-8)

    def test_mixed_convergence_times(self):
        """Hosts converging at different outer iterations don't disturb
        each other (zero-solution hosts next to interior solutions)."""
        rng = np.random.default_rng(6)
        basis = rng.random((15, 4)) + 0.05
        truth = rng.random((3, 4))
        targets = np.vstack([truth @ basis.T, -np.ones((3, 15))])
        solution = nonnegative_least_squares_batched(basis, targets)
        np.testing.assert_allclose(solution[:3], truth, atol=1e-8)
        np.testing.assert_array_equal(solution[3:], 0.0)

    def test_fully_masked_host_stays_zero(self):
        rng = np.random.default_rng(7)
        basis = rng.random((8, 3))
        targets = rng.random((2, 8))
        mask = np.ones((2, 8), dtype=bool)
        mask[1] = False
        solution = nonnegative_least_squares_batched(basis, targets, mask=mask)
        np.testing.assert_array_equal(solution[1], 0.0)
        np.testing.assert_allclose(
            solution[0], nonnegative_least_squares(basis, targets[0]), atol=1e-8
        )

    def test_masked_nan_entries_ignored(self):
        rng = np.random.default_rng(8)
        basis = rng.random((9, 3))
        targets = rng.random((4, 9)) * 10
        mask = rng.random((4, 9)) > 0.3
        mask[:, :3] = True
        poisoned = np.where(mask, targets, np.nan)
        solution = nonnegative_least_squares_batched(basis, poisoned, mask=mask)
        expected = reference_solutions(basis, targets, mask)
        np.testing.assert_allclose(solution, expected, atol=1e-8)

    def test_empty_batch(self):
        solution = nonnegative_least_squares_batched(
            np.ones((4, 2)), np.empty((0, 4))
        )
        assert solution.shape == (0, 2)

    def test_wide_problem_terminates_feasible(self):
        rng = np.random.default_rng(9)
        solution = nonnegative_least_squares_batched(
            rng.standard_normal((4, 9)), rng.standard_normal((6, 4))
        )
        assert solution.shape == (6, 9)
        assert (solution >= 0).all()

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            nonnegative_least_squares_batched(np.ones((5, 2)), np.ones((3, 4)))
        with pytest.raises(ValidationError):
            nonnegative_least_squares_batched(np.ones((5, 2)), np.ones(5))
