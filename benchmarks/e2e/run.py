"""End-to-end benchmark: IDES serving stack and model build.

Full run (all four workloads, five 6 s rounds each, interleaved
round-robin, then one traced round per serving workload)::

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 0 --out RESULT.json
    PYTHONPATH=src python benchmarks/e2e/run.py --seed 0 --quick

One workload, the form ``BENCHMARK.json``'s command takes::

    python3 benchmarks/e2e/run.py --workload point_closed --seed 3 \
        --seconds 20 --trace 0

Every metric is printed as ``workload metric value unit``. A
single-workload run ends with one JSON line holding the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``). The
exit code is non-zero when any answer or invariant check failed.
See ``README.md`` beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import ctypes
import json
import os
import platform
import shutil
import sys
from pathlib import Path
from statistics import median

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: End-to-end metrics: name -> (unit, better). Every workload reports
#: every one of them; bounds live in BENCHMARK.json.
END_TO_END = {
    "ops_per_s": ("ops/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "cpu_ms_per_kop": ("ms", "lower"),
    "rss_mb": ("MiB", "lower"),
}

#: Per-layer metrics: name -> unit. A layer a workload does not
#: exercise reads 0 (e.g. the refresh path outside refresh_open).
PER_LAYER = {
    "frontend.queue_wait_us": "us",
    "frontend.self_us": "us",
    "router.self_us": "us",
    "client.rpc_self_us": "us",
    "server.self_us": "us",
    "engine.self_us": "us",
    "trace.latency_mean_us": "us",
    "trace.overhead_share": "ratio",
    "frontend.batch_mean": "count",
    "frontend.cache_hit_share": "ratio",
    "cache.invalidations_per_write": "count",
    "protocol.encode_decode_us": "us",
    "engine.pairs_per_rpc": "count",
    "replica.failovers": "count",
    "replica.failures": "count",
    "replica.seq_lag_max": "count",
    "journal.entries_per_write": "count",
    "refresh.observe_us": "us",
    "refresh.flush_us": "us",
    "refresh.vectors_per_flush": "count",
    "replica.put_many_us": "us",
    "write.p50_ms": "ms",
    "write.p90_ms": "ms",
    "bench.generator_late_p99_ms": "ms",
    "ides.fit_landmarks_svd_us": "us",
    "ides.place_hosts_svd_us": "us",
    "ides.fit_landmarks_nmf_us": "us",
    "ides.place_hosts_nmf_us": "us",
    "ides.rel_error_p50": "ratio",
    "setup.fit_s": "s",
    "setup.spawn_s": "s",
}

ROUNDS = 5
FULL_ROUND_SECONDS = 6.0
#: A single-workload run splits its time into this many rounds: the
#: median of many short rounds resists the second-scale swings in CPU
#: speed of a shared machine better than a few long ones.
SINGLE_ROUNDS = 10
#: Longest traced round of a single-workload run; attribution cost
#: grows with the spans recorded, and 5 s already holds >10k ops.
TRACED_CAP_SECONDS = 5.0
SETUP_REPEATS = 3
WARMUP_SECONDS = 1.0


def blas_threads() -> int | None:
    """OpenBLAS's thread count as the library chose it, if loaded."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = sorted(
            {line.split()[-1] for line in maps if "openblas" in line.lower()}
        )
    for path in paths:
        library = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def summarize(workload) -> dict:
    """End-to-end and per-layer metrics of one finished workload."""
    rounds = [r.metrics() for r in workload.rounds]
    attempted = sum(r.attempted for r in workload.rounds)
    failed = sum(r.failed for r in workload.rounds)
    wrong = sum(r.wrong for r in workload.rounds)
    setups = workload.setups
    end_to_end = {
        name: median(r[name] for r in rounds)
        for name in ("ops_per_s", "latency_p50_ms", "cpu_ms_per_kop")
    }
    end_to_end["setup_s"] = median(s["setup_s"] for s in setups)
    end_to_end["rss_mb"] = workload.rss
    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers["ides.rel_error_p50"] = workload.model_error
    layers["setup.fit_s"] = median(s["fit_s"] for s in setups)
    layers["setup.spawn_s"] = median(s.get("spawn_s", 0.0) for s in setups)
    if workload.serving:
        layers["ides.fit_landmarks_svd_us"] = 1e6 * median(
            s["fit_landmarks_svd_s"] for s in setups
        )
        layers["ides.place_hosts_svd_us"] = 1e6 * median(
            s["place_hosts_svd_s"] for s in setups
        )
    layers.update(workload.layers)
    return {
        "end_to_end": {
            name: {"value": end_to_end[name], "unit": unit}
            for name, (unit, _) in END_TO_END.items()
        },
        "per_layer": {
            name: {"value": float(layers[name]), "unit": unit}
            for name, unit in PER_LAYER.items()
        },
        "rounds": rounds,
        "setups": setups,
        "trace": dict(workload.trace_report),
        "samples": {
            "rounds": len(rounds),
            "ops": sum(r.ops for r in workload.rounds),
            "latencies": sum(len(r.latencies) for r in workload.rounds),
            "attempted": attempted,
            "failed": failed,
            "wrong": wrong,
            "setups": len(setups),
        },
        "error_share": (failed + wrong) / attempted if attempted else 1.0,
        "checks": dict(workload.checks),
        "correct": bool(attempted)
        and failed + wrong == 0
        and all(workload.checks.values()),
    }


def print_lines(name: str, summary: dict, sections=("end_to_end", "per_layer")) -> None:
    for section in sections:
        for metric, entry in summary[section].items():
            print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    for metric, count in summary["samples"].items():
        print(f"{name} samples.{metric} {count} count")
    print(f"{name} error_share {summary['error_share']:.6g} ratio")
    for check, passed in summary["checks"].items():
        if not passed:
            print(f"{name} check {check} FAILED", file=sys.stderr)


async def run_workloads(
    names, seed, workdir, rounds, round_seconds, setup_repeats,
    warmup_seconds, traced_seconds, budget_seconds,
) -> dict:
    """Set up every named workload, run their rounds interleaved
    round-robin, then each serving workload's traced round."""
    from workloads import WORKLOADS, settle_blas

    workloads = [
        WORKLOADS[name](seed, workdir, budget_seconds) for name in names
    ]
    settle_blas()
    try:
        for workload in workloads:
            await workload.setup(setup_repeats)
        for workload in workloads:
            await workload.warmup(warmup_seconds)
        for _ in range(rounds):
            for workload in workloads:
                await workload.run_round(round_seconds)
        for workload in workloads:
            await workload.finish()
        if traced_seconds:
            for workload in workloads:
                if workload.serving:
                    await workload.traced_round(traced_seconds)
    finally:
        for workload in workloads:
            await workload.close()
    for workload in workloads:
        if workload.failures.first is not None:
            print(
                f"{workload.name}: {workload.failures.count} failed operations; "
                f"first: {workload.failures.first}",
                file=sys.stderr,
            )
    return {workload.name: summarize(workload) for workload in workloads}


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="input seed")
    parser.add_argument(
        "--workload",
        choices=sorted(WORKLOADS),
        help="run only this workload (ends with one JSON result line)",
    )
    parser.add_argument(
        "--seconds",
        type=float,
        help="measured seconds of a single-workload run (default 30)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="single-workload run: 0 reports end-to-end metrics, "
        "1 per-layer metrics (half the time untraced, half traced)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="one 2 s round per workload"
    )
    parser.add_argument(
        "--out", type=Path, help="write the full result JSON to this path"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"cannot find the repro package under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    from workloads import WORKLOADS

    if args.workload is not None:
        seconds = 30.0 if args.seconds is None else args.seconds
        traced = args.trace == 1
        untraced_seconds = seconds / 2 if traced else seconds
        plan = {
            "names": [args.workload],
            "rounds": SINGLE_ROUNDS,
            "round_seconds": untraced_seconds / SINGLE_ROUNDS,
            "setup_repeats": 1 if traced else SETUP_REPEATS,
            "warmup_seconds": WARMUP_SECONDS,
            "traced_seconds": min(seconds / 2, TRACED_CAP_SECONDS) if traced else 0.0,
        }
        mode = f"single-trace{args.trace}"
    else:
        rounds, round_seconds = (1, 2.0) if args.quick else (ROUNDS, FULL_ROUND_SECONDS)
        plan = {
            "names": list(WORKLOADS),
            "rounds": rounds,
            "round_seconds": round_seconds,
            "setup_repeats": 1 if args.quick else SETUP_REPEATS,
            "warmup_seconds": 0.5 if args.quick else WARMUP_SECONDS,
            "traced_seconds": 1.0 if args.quick else FULL_ROUND_SECONDS,
        }
        mode = "quick" if args.quick else "full"
    plan["budget_seconds"] = (
        plan["rounds"] * plan["round_seconds"] + plan["traced_seconds"] + 10.0
    )
    # Snapshots and trace exports stay inside the checkout, one
    # directory per run so concurrent runs never share files.
    workdir = ROOT / ".bench_build" / f"e2e-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        summaries = asyncio.run(run_workloads(seed=args.seed, workdir=workdir, **plan))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = all(summary["correct"] for summary in summaries.values())
    if args.out is not None:
        write_result(args.out, args.seed, mode, correct, summaries)
    if args.workload is None:
        for name, summary in summaries.items():
            print_lines(name, summary)
        return 0 if correct else 1
    summary = summaries[args.workload]
    section = "per_layer" if args.trace else "end_to_end"
    print_lines(args.workload, summary, sections=(section,))
    samples = summary["samples"]
    print(
        json.dumps(
            {
                "correct": summary["correct"],
                "attempted": samples["attempted"],
                "failed": samples["failed"] + samples["wrong"],
                "metrics": summary[section],
            }
        )
    )
    return 0 if correct else 1


def write_result(path: Path, seed: int, mode: str, correct: bool, summaries) -> None:
    """The timestamp-free result file ``compare.py`` reads."""
    result = {
        "schema": "ides-e2e-bench/v1",
        "seed": seed,
        "mode": mode,
        "environment": {
            "blas_threads": blas_threads(),
            "cpu_count": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "correct": correct,
        "workloads": summaries,
    }
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
