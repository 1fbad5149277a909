"""Integration tests: every experiment runner executes in fast mode.

These are the broadest tests in the suite — each one runs a full paper
protocol end to end on shrunken workloads and asserts the qualitative
shape the paper reports (see "The evaluation" in docs/paper-mapping.md).
"""

import numpy as np
import pytest

from repro.evaluation import available_experiments, run_experiment
from repro.evaluation.experiments import fig2, fig3, fig7
from repro.evaluation.experiments.ablations import (
    run_asymmetry,
    run_nnls,
    run_relaxed,
    run_spectrum,
)


class TestRegistry:
    def test_all_paper_artifacts_present(self):
        experiments = available_experiments()
        for required in ("fig2", "fig3", "table1", "fig6", "fig7"):
            assert required in experiments

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self):
        return fig2.run(fast=True)

    def test_covers_all_five_datasets(self, result):
        assert len(result.data) == 5

    def test_paper_ordering_gnp_best_p2psim_worst(self, result):
        medians = {name: float(np.median(errors)) for name, errors in result.data.items()}
        p2psim_key = next(name for name in medians if name.startswith("p2psim"))
        assert medians["gnp"] <= medians["nlanr"] * 1.5
        assert medians[p2psim_key] > medians["nlanr"]

    def test_nlanr_90th_percentile_near_paper(self, result):
        p90 = float(np.percentile(result.data["nlanr"], 90))
        assert p90 < 0.25  # paper: ~0.15

    def test_table_rendered(self, result):
        assert "Figure 2" in result.table
        assert "nlanr" in result.table


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return fig3.run(fast=True)

    def test_error_decreases_with_dimension(self, result):
        for dataset in ("nlanr", "p2psim"):
            series = result.data[dataset]["SVD"]
            assert series[0] > series[-1]

    def test_svd_close_to_nmf_at_low_dimension(self, result):
        nlanr = result.data["nlanr"]
        index = nlanr["dimensions"].index(5)
        assert nlanr["NMF"][index] <= nlanr["SVD"][index] * 3 + 0.02

    def test_factorization_beats_lipschitz_at_d10(self, result):
        nlanr = result.data["nlanr"]
        index = nlanr["dimensions"].index(10)
        assert nlanr["SVD"][index] < nlanr["Lipschitz+PCA"][index]

    def test_two_tables(self, result):
        assert "Figure 3(a)" in result.table
        assert "Figure 3(b)" in result.table


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return fig7.run(fast=True)

    def test_more_landmarks_more_robust(self, result):
        nlanr = result.data["nlanr"]
        few = nlanr["20 landmarks, d=8"]
        many = nlanr["50 landmarks, d=8"]
        # At the largest tested failure fraction the 50-landmark system
        # degrades far less than the 20-landmark one.
        assert many[-1] < few[-1]

    def test_degradation_monotone_ish_for_20_landmarks(self, result):
        series = result.data["nlanr"]["20 landmarks, d=8"]
        assert series[-1] > series[0]

    def test_50_landmarks_flat_until_40_percent(self, result):
        series = result.data["nlanr"]["50 landmarks, d=8"]
        fractions = result.data["fractions"]
        index = fractions.index(0.4)
        assert series[index] < series[0] * 2 + 0.02


class TestAblations:
    def test_spectrum_reports_all_datasets(self):
        result = run_spectrum(fast=True)
        assert len(result.data) == 5
        for diagnostics in result.data.values():
            assert diagnostics.effective_rank >= 1.0

    def test_relaxed_more_references_better(self):
        result = run_relaxed(fast=True)
        errors = result.data["landmarks only"]
        assert errors[-1] <= errors[0] * 1.5 + 0.05

    def test_nnls_matches_unconstrained_accuracy(self):
        result = run_nnls(fast=True)
        # Paper Section 5.1: with an NMF landmark model, constrained and
        # unconstrained host solves give "no significant difference".
        lstsq = result.data["nmf/lstsq"]["median"]
        nnls = result.data["nmf/nnls"]["median"]
        assert nnls < lstsq * 2 + 0.05
        # The constrained solve only makes sense with NMF landmarks:
        # against SVD factors (mixed signs) it degrades badly, which is
        # exactly why the paper pairs NNLS with NMF.
        assert result.data["svd/nnls"]["median"] > result.data["svd/lstsq"]["median"]

    def test_structured_asymmetry_hurts_euclidean_not_factorization(self):
        result = run_asymmetry(fast=True)
        structured = result.data["structured"]
        svd = structured["SVD factorization"]
        euclidean = structured["Lipschitz+PCA (Euclidean)"]
        # At the highest structured-asymmetry level the Euclidean model
        # is far worse; the factored model barely moves (the transform
        # preserves matrix rank).
        assert euclidean[-1] > svd[-1] * 2
        assert svd[-1] < svd[0] + 0.1

    def test_unstructured_asymmetry_hurts_everyone(self):
        result = run_asymmetry(fast=True)
        unstructured = result.data["unstructured"]
        svd = unstructured["SVD factorization"]
        # i.i.d. pair noise is irreducible: even the factored model
        # degrades markedly at high levels.
        assert svd[-1] > svd[0] + 0.1


class TestNewAblations:
    def test_weighting_ablation_structure(self):
        from repro.evaluation.experiments.ablations import run_weighting

        result = run_weighting(fast=True)
        assert set(result.data) == {
            "nlanr/uniform", "nlanr/relative", "p2psim/uniform", "p2psim/relative",
        }
        for stats in result.data.values():
            assert 0 <= stats["median"] < 2.0

    def test_dimension_ablation_sweet_spot(self):
        from repro.evaluation.experiments.ablations import run_dimension

        result = run_dimension(fast=True)
        nlanr = result.data["nlanr"]
        # Accuracy improves substantially from d=2 to d=8.
        d = result.data["dimensions"]
        assert nlanr[d.index(8)] < nlanr[d.index(2)]

    def test_staleness_two_regimes(self):
        from repro.evaluation.experiments.staleness import run as run_staleness

        result = run_staleness(fast=True)
        assert set(result.data) == {"mild", "heavy"}
        for regime in ("mild", "heavy"):
            series = result.data[regime]["no maintenance"]
            assert all(np.isfinite(v) for v in series)
            assert "mean_error" in result.data[regime]

    def test_staleness_notes_state_the_data(self):
        """Each regime's note quotes its time-averaged and last-step
        median errors, and names the lowest of each, as in the data."""
        import re

        from repro.evaluation.experiments.staleness import run as run_staleness

        result = run_staleness(fast=True)
        assert len(result.notes) == 2
        for regime, note in zip(("mild", "heavy"), result.notes):
            data = result.data[regime]
            averages = data["mean_error"]
            last = {policy: data[policy][-1] for policy in averages}
            assert note.startswith(f"{regime} drift:")
            assert f"at the last step ({data['steps'][-1]})" in note
            policies = "|".join(averages)
            assert re.findall(rf"({policies}) (\d+\.\d{{3}})", note) == [
                (policy, f"{value:.3f}")
                for errors in (averages, last)
                for policy, value in errors.items()
            ]
            lowest = re.findall(r"\(lowest: ([\w ]+)\)", note)
            assert lowest == [
                min(errors, key=errors.get) for errors in (averages, last)
            ]

    def test_robust_placement_vs_liars(self):
        from repro.evaluation.experiments.ablations import run_robust

        result = run_robust(fast=True)
        liars = result.data["liars"]
        index = liars.index(2)
        # Robust placement shrugs off two lying landmarks; plain least
        # squares does not.
        assert result.data["Huber IRLS"][index] < result.data["least squares"][index]
        assert result.data["detection"][index] > 0.8
