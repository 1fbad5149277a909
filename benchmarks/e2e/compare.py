"""Compare two sets of benchmark results against BENCHMARK.json bounds.

Usage::

    python benchmarks/e2e/compare.py A1.json A2.json A3.json -- B1.json B2.json B3.json

``A`` is the baseline set, ``B`` the candidate; each file is a full-run
result written by ``run.py --out``. For every (workload, end-to-end
metric) pair the table shows both sets' medians and quartiles, the
ratio of medians (B / A), the metric's bound and a verdict:

* ``unresolved``: either set's spread (quartile distance over median)
  exceeds the bound, so the runs cannot tell a change of that size —
  unless every B run beats every A run, which reads ``better``;
* ``worse``: B's median is worse than A's by more than the bound;
* ``better``: B wins at least nine tenths of all (A run, B run) pairs
  and its median beats A's by more than A's own quartile distance;
* ``ok``: otherwise.

The exit code is 1 when any pair is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_values(paths: list[Path]) -> dict[tuple[str, str], list[float]]:
    """``{(workload, metric): [value per file]}`` over end-to-end metrics."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        result = json.loads(Path(path).read_text())
        for workload, summary in result["workloads"].items():
            for metric, entry in summary["end_to_end"].items():
                values.setdefault((workload, metric), []).append(float(entry["value"]))
    return values


def describe(values: list[float]) -> tuple[float, float, float]:
    """Median and first/third quartiles (the median thrice for one value)."""
    middle = statistics.median(values)
    if len(values) < 2:
        return middle, middle, middle
    low, _, high = statistics.quantiles(values, n=4)
    return middle, low, high


def verdict(
    baseline: list[float], candidate: list[float], bound: float, better: str
) -> str:
    base_median, base_low, base_high = describe(baseline)
    cand_median, cand_low, cand_high = describe(candidate)
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * b < sign * a for a in baseline for b in candidate)
    every_run_better = wins == len(baseline) * len(candidate)
    spread = max(
        (base_high - base_low) / abs(base_median) if base_median else 0.0,
        (cand_high - cand_low) / abs(cand_median) if cand_median else 0.0,
    )
    if spread > bound:
        return "better" if every_run_better else "unresolved"
    if not base_median:
        return "ok"
    if sign * (cand_median - base_median) / abs(base_median) > bound:
        return "worse"
    gain = sign * (base_median - cand_median)
    if wins >= 0.9 * len(baseline) * len(candidate) and gain > base_high - base_low:
        return "better"
    return "ok"


def compare(baseline_paths, candidate_paths, benchmark: dict) -> list[dict]:
    """One row per (workload, metric) present in both sets."""
    baseline = load_values(baseline_paths)
    candidate = load_values(candidate_paths)
    rows = []
    for spec in benchmark["end_to_end"]:
        for workload in [w["name"] for w in benchmark["workloads"]]:
            key = (workload, spec["name"])
            if key not in baseline or key not in candidate:
                continue
            a, b = baseline[key], candidate[key]
            base, cand = describe(a), describe(b)
            rows.append(
                {
                    "workload": workload,
                    "metric": spec["name"],
                    "unit": spec["unit"],
                    "baseline": base,
                    "candidate": cand,
                    "ratio": cand[0] / base[0] if base[0] else float("nan"),
                    "bound": spec["bound"],
                    "verdict": verdict(a, b, spec["bound"], spec["better"]),
                }
            )
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<14} {'metric':<16} {'A median [q1, q3]':<32} "
        f"{'B median [q1, q3]':<32} {'B/A':>7} {'bound':>6}  verdict"
    ]
    for row in rows:
        a = "{:.5g} [{:.5g}, {:.5g}]".format(*row["baseline"])
        b = "{:.5g} [{:.5g}, {:.5g}]".format(*row["candidate"])
        lines.append(
            f"{row['workload']:<14} {row['metric']:<16} {a:<32} {b:<32} "
            f"{row['ratio']:>7.4f} {row['bound']:>6.2f}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    baseline, candidate = argv[:split], argv[split + 1 :]
    if not baseline or not candidate:
        print("need at least one result file on each side of --", file=sys.stderr)
        return 2
    benchmark = json.loads(BENCHMARK.read_text())
    rows = compare(baseline, candidate, benchmark)
    print(format_rows(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
