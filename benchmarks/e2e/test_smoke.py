"""A ``--quick`` run reports every BENCHMARK.json metric and fails nothing."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def test_quick_run_reports_every_metric_with_its_unit(tmp_path):
    out = tmp_path / "result.json"
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert completed.returncode == 0, completed.stderr[-4000:]
    result = json.loads(out.read_text())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["workloads"]) == {w["name"] for w in benchmark["workloads"]}
    printed = completed.stdout.splitlines()
    for workload, summary in result["workloads"].items():
        assert summary["error_share"] == 0
        assert all(summary["checks"].values()), summary["checks"]
        for section in ("end_to_end", "per_layer"):
            assert set(summary[section]) == {m["name"] for m in benchmark[section]}
            for spec in benchmark[section]:
                assert summary[section][spec["name"]]["unit"] == spec["unit"]
                assert any(
                    line.startswith(f"{workload} {spec['name']} ")
                    and line.endswith(f" {spec['unit']}")
                    for line in printed
                ), (workload, spec["name"])
        for spec in benchmark["end_to_end"]:
            assert summary["end_to_end"][spec["name"]]["value"] > 0, spec["name"]
