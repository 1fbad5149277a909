"""Verdicts of the result comparison."""

from __future__ import annotations

import json

import compare

BENCHMARK = {
    "workloads": [{"name": "w", "why": "test"}],
    "end_to_end": [
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.1},
    ],
}


def write_runs(tmp_path, prefix, values):
    """One result file per (latency, throughput) pair."""
    paths = []
    for index, (latency, rate) in enumerate(values):
        path = tmp_path / f"{prefix}{index}.json"
        metrics = {
            "latency_p50_ms": {"value": latency, "unit": "ms"},
            "ops_per_s": {"value": rate, "unit": "ops/s"},
        }
        path.write_text(json.dumps({"workloads": {"w": {"end_to_end": metrics}}}))
        paths.append(path)
    return paths


def verdicts(tmp_path, baseline, candidate):
    rows = compare.compare(
        write_runs(tmp_path, "a", baseline),
        write_runs(tmp_path, "b", candidate),
        BENCHMARK,
    )
    return {row["metric"]: row["verdict"] for row in rows}


def test_same_commit_within_bound_is_ok(tmp_path):
    runs = [(1.00, 100), (1.01, 101), (0.99, 99), (1.02, 100)]
    shuffled = [(1.01, 100), (0.99, 102), (1.00, 99), (1.00, 101)]
    assert verdicts(tmp_path, runs, shuffled) == {
        "latency_p50_ms": "ok",
        "ops_per_s": "ok",
    }


def test_worsening_beyond_the_bound_in_either_direction(tmp_path):
    runs = [(1.00, 100), (1.01, 101), (0.99, 99), (1.02, 100)]
    slower = [(1.30, 80), (1.31, 81), (1.29, 79), (1.28, 80)]
    assert verdicts(tmp_path, runs, slower) == {
        "latency_p50_ms": "worse",
        "ops_per_s": "worse",
    }


def test_every_run_better_wins_even_when_noisy(tmp_path):
    runs = [(1.0, 100), (1.5, 150), (2.0, 200)]
    faster = [(0.5, 250), (0.7, 300), (0.9, 400)]
    assert verdicts(tmp_path, runs, faster) == {
        "latency_p50_ms": "better",
        "ops_per_s": "better",
    }


def test_a_steady_gain_beyond_the_baseline_spread_is_better(tmp_path):
    runs = [(1.00, 100), (1.01, 101), (0.99, 99), (1.02, 100)]
    faster = [(0.90, 111), (0.91, 112), (0.89, 110), (0.92, 111)]
    # Every run better, but by less than the baseline's own spread.
    barely = [(0.985, 101.5), (0.99, 101.6), (0.98, 101.4), (0.975, 101.5)]
    assert verdicts(tmp_path, runs, faster) == {
        "latency_p50_ms": "better",
        "ops_per_s": "better",
    }
    assert verdicts(tmp_path, runs, barely) == {
        "latency_p50_ms": "ok",
        "ops_per_s": "ok",
    }


def test_spread_wider_than_the_bound_is_unresolved(tmp_path):
    runs = [(1.0, 100), (1.5, 150), (2.0, 200), (1.2, 120)]
    overlapping = [(1.1, 110), (1.6, 160), (2.2, 190), (0.9, 130)]
    assert verdicts(tmp_path, runs, overlapping) == {
        "latency_p50_ms": "unresolved",
        "ops_per_s": "unresolved",
    }


def test_main_exit_code_reports_worse(tmp_path, capsys, monkeypatch):
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps(BENCHMARK))
    monkeypatch.setattr(compare, "BENCHMARK", benchmark)
    baseline = [str(p) for p in write_runs(tmp_path, "a", [(1.0, 100)] * 3)]
    same = [str(p) for p in write_runs(tmp_path, "b", [(1.0, 100)] * 3)]
    assert compare.main([*baseline, "--", *same]) == 0
    slower = [str(p) for p in write_runs(tmp_path, "c", [(2.0, 100)] * 3)]
    assert compare.main([*baseline, "--", *slower]) == 1
    assert "worse" in capsys.readouterr().out
