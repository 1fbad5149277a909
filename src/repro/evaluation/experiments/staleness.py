"""Ablation: model staleness under RTT drift, and maintenance policies.

The paper fits vectors from one measurement snapshot. This experiment
asks the deployment question it leaves open: how fast does a fitted
IDES model rot as the network drifts, and when is maintenance worth
its cost? Two drift regimes bracket reality:

* **mild** — a light diurnal load cycle plus occasional route flips
  (median drift ~3%), and
* **heavy** — frequent, large route flips across regions (median
  drift ~20%), a network in turmoil.

Three policies per regime:

* **no maintenance** — vectors frozen at t = 0;
* **periodic refresh** — every ``refresh_interval`` steps the
  information server re-factors the freshly measured landmark mesh AND
  every host re-solves against the new landmark vectors (refreshing
  hosts against *stale* landmark factors is actively harmful — the two
  sides encode different network epochs);
* **online tracking** — every step each host probes two random
  landmarks and applies damped Kaczmarz updates
  (:class:`repro.ides.OnlineVectorTracker`-style, batched) while the
  landmark factors stay frozen.

The headline finding, with its numbers in docs/paper-mapping.md:
under mild drift a frozen model *outlives* naive refreshing, because
route churn raises the matrix's effective rank — a fresh fit at the
same ``d`` pays that higher floor, while the frozen model only pays
the (small) drift. Under heavy drift the frozen and refreshed models
tie on the time average, and the ordering flips late in the run: by
the last step the periodic full refresh is well ahead. The result's
notes give each regime's numbers.
"""

from __future__ import annotations

import numpy as np

from ..._validation import as_rng
from ...datasets import DistanceDataset, split_landmarks
from ...datasets.synthetic import WorldConfig, build_world
from ...datasets.temporal import TemporalConfig, TemporalWorld
from ...ides import IDESSystem, refresh_host_vectors
from ..report import format_series_table
from .common import EVAL_SEED, ExperimentResult, prediction_errors_on_pairs

__all__ = ["run", "run_regime"]

REGIMES = {
    "mild": TemporalConfig(
        diurnal_amplitude=0.05,
        route_groups=12,
        route_change_rate=0.01,
        route_change_sigma=0.3,
    ),
    "heavy": TemporalConfig(
        diurnal_amplitude=0.05,
        route_groups=4,
        route_change_rate=0.04,
        route_change_sigma=0.6,
    ),
}

#: Deterministic per-regime seed offsets (string hash() is salted per
#: process and must never feed a seed).
_REGIME_SEED_OFFSET = {"mild": 11, "heavy": 23}


def _median_error(outgoing: np.ndarray, incoming: np.ndarray, truth: np.ndarray) -> float:
    predicted = outgoing @ incoming.T
    return float(np.median(prediction_errors_on_pairs(truth, predicted)))


def _online_step(
    outgoing: np.ndarray,
    incoming: np.ndarray,
    measured: np.ndarray,
    landmark_out: np.ndarray,
    landmark_in: np.ndarray,
    ordinary: np.ndarray,
    landmarks: np.ndarray,
    rng: np.random.Generator,
    probes_per_step: int,
    learning_rate: float,
) -> None:
    """Batched damped-Kaczmarz updates: each host probes a few landmarks."""
    n_hosts = outgoing.shape[0]
    m = landmarks.shape[0]
    for _ in range(probes_per_step):
        picks = rng.integers(0, m, size=n_hosts)
        ref_in = landmark_in[picks]
        ref_out = landmark_out[picks]
        out_rtt = measured[ordinary, landmarks[picks]]
        in_rtt = measured[landmarks[picks], ordinary]

        norm_in = np.einsum("ij,ij->i", ref_in, ref_in)
        residual_out = out_rtt - np.einsum("ij,ij->i", outgoing, ref_in)
        outgoing += (
            learning_rate * (residual_out / np.maximum(norm_in, 1e-12))[:, None] * ref_in
        )

        norm_out = np.einsum("ij,ij->i", ref_out, ref_out)
        residual_in = in_rtt - np.einsum("ij,ij->i", ref_out, incoming)
        incoming += (
            learning_rate * (residual_in / np.maximum(norm_out, 1e-12))[:, None] * ref_out
        )


def run_regime(
    regime: str,
    base: np.ndarray,
    landmarks: np.ndarray,
    ordinary: np.ndarray,
    seed: int,
    horizon: int,
    refresh_interval: int = 14,
    evaluate_every: int = 7,
    dimension: int = 8,
    probes_per_step: int = 2,
) -> dict:
    """Run the three maintenance policies in one drift regime."""
    temporal = TemporalWorld(
        base_matrix=base,
        config=REGIMES[regime],
        seed=seed + _REGIME_SEED_OFFSET[regime],
    )

    # Fit at t = 0 from the step-0 measured snapshot.
    snapshot = temporal.current_matrix(measured=True)
    system = IDESSystem(dimension=dimension, method="svd")
    system.fit_landmarks(snapshot[np.ix_(landmarks, landmarks)])
    landmark_out, landmark_in = system.landmark_vectors()
    system.place_hosts(
        snapshot[np.ix_(ordinary, landmarks)],
        snapshot[np.ix_(landmarks, ordinary)],
    )
    initial_out, initial_in = system.host_vectors()

    frozen = (initial_out.copy(), initial_in.copy())
    refreshed = (initial_out.copy(), initial_in.copy())
    tracked = (initial_out.copy(), initial_in.copy())
    online_rng = as_rng(seed + 2)

    steps: list[int] = []
    series: dict[str, list[float]] = {
        "no maintenance": [],
        "periodic refresh": [],
        "online tracking": [],
        "matrix drift": [],
    }
    for step in range(horizon + 1):
        if step > 0:
            temporal.advance()
            measured = temporal.current_matrix(measured=True)

            if step % refresh_interval == 0:
                fresh_system = IDESSystem(dimension=dimension, method="svd")
                fresh_system.fit_landmarks(measured[np.ix_(landmarks, landmarks)])
                fresh_out, fresh_in = fresh_system.landmark_vectors()
                refreshed = refresh_host_vectors(
                    measured[np.ix_(ordinary, landmarks)],
                    measured[np.ix_(landmarks, ordinary)],
                    fresh_out,
                    fresh_in,
                )

            tracked_out, tracked_in = tracked
            _online_step(
                tracked_out,
                tracked_in,
                measured,
                landmark_out,
                landmark_in,
                ordinary,
                landmarks,
                online_rng,
                probes_per_step,
                learning_rate=0.15,
            )
            tracked = (tracked_out, tracked_in)

        if step % evaluate_every == 0:
            truth = temporal.current_matrix(measured=False)[np.ix_(ordinary, ordinary)]
            steps.append(step)
            series["no maintenance"].append(_median_error(*frozen, truth))
            series["periodic refresh"].append(_median_error(*refreshed, truth))
            series["online tracking"].append(_median_error(*tracked, truth))
            series["matrix drift"].append(temporal.drift_from_base())
    return {"steps": steps, **series}


def run(seed: int | None = None, fast: bool = False) -> ExperimentResult:
    """Run the two-regime staleness study."""
    base_seed = EVAL_SEED if seed is None else seed + EVAL_SEED
    rng = as_rng(base_seed)
    n_hosts = 60 if fast else 120
    horizon = 28 if fast else 98

    world_config = WorldConfig(n_hosts=n_hosts, n_sites=max(n_hosts // 3, 10))
    base = build_world(world_config, seed=rng).true_rtt
    dataset = DistanceDataset(name="drifting", matrix=base)
    split = split_landmarks(dataset, 20, seed=rng)

    data: dict[str, dict] = {}
    tables: list[str] = []
    for regime in ("mild", "heavy"):
        result = run_regime(
            regime,
            base,
            split.landmark_indices,
            split.ordinary_indices,
            seed=base_seed,
            horizon=horizon,
        )
        data[regime] = result
        steps = result.pop("steps")
        tables.append(
            format_series_table(
                "step",
                steps,
                result,
                title=(
                    f"Ablation: model staleness, {regime} drift regime "
                    f"({n_hosts} hosts, d=8, refresh every 14 steps)"
                ),
            )
        )
        result["steps"] = steps
        # Time-averaged summary (excluding the common t=0 point):
        # pointwise comparisons alias with the refresh sawtooth.
        result["mean_error"] = {
            policy: float(np.mean(values[1:]))
            for policy, values in result.items()
            if policy not in ("steps", "matrix drift", "mean_error")
        }
        summary = ", ".join(
            f"{policy} {value:.3f}"
            for policy, value in result["mean_error"].items()
        )
        tables.append(f"{regime} regime time-averaged median error: {summary}")

    return ExperimentResult(
        experiment_id="ablate-staleness",
        description="model rot under two drift regimes and two maintenance policies",
        data=data,
        table="\n\n".join(tables),
        notes=[_regime_note(regime, data[regime]) for regime in data],
    )


def _regime_note(regime: str, result: dict) -> str:
    """One regime's finding in the numbers that show it: each policy's
    time-averaged median error and its median error at the last step,
    with the lowest of each named."""
    averages = result["mean_error"]
    last = {policy: result[policy][-1] for policy in averages}

    def ranked(errors: dict) -> str:
        listed = ", ".join(f"{policy} {value:.3f}" for policy, value in errors.items())
        return f"{listed} (lowest: {min(errors, key=errors.get)})"

    return (
        f"{regime} drift: time-averaged median error {ranked(averages)}; "
        f"at the last step ({result['steps'][-1]}): {ranked(last)}"
    )
