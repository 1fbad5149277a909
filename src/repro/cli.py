"""Command-line entry point: run any paper experiment and print it.

Usage::

    ides-experiment list
    ides-experiment run fig2
    ides-experiment run table1 --fast
    ides-experiment run all --seed 7
    ides-experiment datasets
    ides-experiment ablate --fast --jobs 2
    ides-experiment ablate --config grid.json --output report.json

or ``python -m repro.cli ...``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from .datasets import dataset_statistics, list_datasets, load_dataset
from .evaluation import available_experiments, run_experiment

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="ides-experiment",
        description=(
            "Reproduction harness for 'Modeling Distances in Large-Scale "
            "Networks by Matrix Factorization' (Mao & Saul, IMC 2004)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument(
        "experiment",
        help="experiment id from 'list', or 'all'",
    )
    run_parser.add_argument(
        "--seed", type=int, default=None, help="generation seed (default: canonical)"
    )
    run_parser.add_argument(
        "--fast", action="store_true", help="shrink workloads for a quick pass"
    )
    run_parser.add_argument(
        "--plot", action="store_true", help="also render terminal charts"
    )

    subparsers.add_parser("datasets", help="summarize the synthetic data sets")

    ablate_parser = subparsers.add_parser(
        "ablate",
        help="run a declarative scenario-matrix grid over the simulator",
    )
    ablate_parser.add_argument(
        "--config", default=None, help="JSON grid config file"
    )
    ablate_parser.add_argument(
        "--preset",
        default=None,
        help="named grid preset (see 'ides-experiment list')",
    )
    ablate_parser.add_argument(
        "--fast",
        action="store_true",
        help="shortcut for '--preset smoke' (the 2x2x2 CI grid)",
    )
    ablate_parser.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="NAME=V1,V2",
        help="override one axis's swept values (repeatable)",
    )
    ablate_parser.add_argument(
        "--jobs", type=int, default=1, help="concurrent worker processes"
    )
    ablate_parser.add_argument(
        "--seed", type=int, default=None, help="base seed override"
    )
    ablate_parser.add_argument(
        "--hosts", type=int, default=None, help="world size override"
    )
    ablate_parser.add_argument(
        "--landmarks", type=int, default=None, help="landmark count override"
    )
    ablate_parser.add_argument(
        "--dimension", type=int, default=None, help="model dimension override"
    )
    ablate_parser.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="per-cell wall-clock limit in seconds (0 disables)",
    )
    ablate_parser.add_argument(
        "--output",
        default="ablation_report.json",
        help="JSON report path",
    )
    ablate_parser.add_argument(
        "--markdown",
        default=None,
        help="also write the rendered markdown summary here",
    )
    ablate_parser.add_argument(
        "--resume",
        action="store_true",
        help="reuse finished cells from a previous run of this exact config",
    )
    ablate_parser.add_argument(
        "--allow-failures",
        action="store_true",
        help="exit 0 even when cells fail (they stay attributed in the report)",
    )
    ablate_parser.add_argument(
        "--in-process",
        action="store_true",
        help="run cells sequentially in this process (debugging; no timeouts)",
    )
    ablate_parser.add_argument(
        "--list-axes",
        action="store_true",
        help="print the axis catalog and presets, then exit",
    )

    serve_parser = subparsers.add_parser(
        "serve", help="build and query a distance service snapshot"
    )
    serve_subparsers = serve_parser.add_subparsers(dest="serve_command", required=True)

    build_parser_ = serve_subparsers.add_parser(
        "build", help="fit IDES on a data set and save a service snapshot"
    )
    build_parser_.add_argument("snapshot", help="output snapshot path (.npz)")
    build_parser_.add_argument(
        "--dataset", default="nlanr", help="data set name (default: nlanr)"
    )
    build_parser_.add_argument(
        "--landmarks", type=int, default=20, help="number of landmarks (default: 20)"
    )
    build_parser_.add_argument(
        "--dimension", type=int, default=10, help="model dimension d (default: 10)"
    )
    build_parser_.add_argument(
        "--method", choices=("svd", "nmf"), default="svd", help="factorization"
    )
    build_parser_.add_argument(
        "--seed", type=int, default=0, help="landmark selection seed"
    )

    query_parser = serve_subparsers.add_parser(
        "query", help="predict distances from a snapshot"
    )
    query_parser.add_argument("snapshot", help="snapshot path from 'serve build'")
    query_parser.add_argument("--source", type=int, required=True, help="source host id")
    query_parser.add_argument(
        "--dest",
        type=int,
        nargs="+",
        required=True,
        help="destination host id(s); many ids run one vectorized batch",
    )
    query_parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-query deadline budget in milliseconds; an expired "
        "budget rejects the query instead of evaluating it",
    )

    nearest_parser = serve_subparsers.add_parser(
        "nearest", help="k nearest registered hosts to a source"
    )
    nearest_parser.add_argument("snapshot", help="snapshot path from 'serve build'")
    nearest_parser.add_argument("--source", type=int, required=True, help="source host id")
    nearest_parser.add_argument("-k", type=int, default=5, help="neighbors (default: 5)")

    health_parser = serve_subparsers.add_parser(
        "health", help="print a snapshot's service health line"
    )
    health_parser.add_argument("snapshot", help="snapshot path from 'serve build'")
    health_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the health report as a JSON object instead of one line",
    )

    metrics_parser = serve_subparsers.add_parser(
        "metrics",
        help="scrape a running telemetry endpoint and print the exposition",
    )
    metrics_parser.add_argument(
        "target", help="telemetry address (host:port or full URL)"
    )
    metrics_parser.add_argument(
        "--path",
        default="/metrics",
        help="endpoint path: /metrics, /metrics.json, /health, /trace",
    )
    metrics_parser.add_argument(
        "--timeout", type=float, default=5.0, help="scrape timeout in seconds"
    )

    trace_tail_parser = serve_subparsers.add_parser(
        "trace-tail",
        help="render exported trace spans (JSONL) as per-request trees",
    )
    trace_tail_parser.add_argument(
        "export", help="span export file written via --trace-export"
    )
    trace_tail_parser.add_argument(
        "--trace", default=None, help="only show this trace id"
    )
    trace_tail_parser.add_argument(
        "--limit",
        type=int,
        default=10,
        help="newest traces to show (default: 10)",
    )

    refresh_parser = serve_subparsers.add_parser(
        "refresh",
        help="stream drifting RTT observations through the refresh worker",
    )
    refresh_parser.add_argument("snapshot", help="snapshot path from 'serve build'")
    refresh_parser.add_argument(
        "--samples", type=int, default=4000, help="observation draws (default: 4000)"
    )
    refresh_parser.add_argument(
        "--drift",
        type=float,
        default=0.2,
        help="per-host drift half-width (default: 0.2)",
    )
    refresh_parser.add_argument(
        "--noise", type=float, default=0.0, help="per-sample jitter (default: 0)"
    )
    refresh_parser.add_argument(
        "--learning-rate", type=float, default=0.3, help="tracker step (default: 0.3)"
    )
    refresh_parser.add_argument(
        "--flush-every",
        type=int,
        default=256,
        help="samples between bulk flushes (default: 256)",
    )
    refresh_parser.add_argument(
        "--seed", type=int, default=0, help="drift/stream seed (default: 0)"
    )
    refresh_parser.add_argument(
        "--save", default=None, help="write the refreshed snapshot here"
    )

    shard_parser = serve_subparsers.add_parser(
        "shard",
        help="run one shard server process (blocks until a shutdown RPC)",
    )
    shard_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    shard_parser.add_argument(
        "--port", type=int, default=0, help="bind port (default: 0 = pick free)"
    )
    shard_parser.add_argument(
        "--shard-index", type=int, default=0, help="this server's shard slot"
    )
    shard_parser.add_argument(
        "--n-shards", type=int, default=1, help="total shards in the deployment"
    )
    shard_parser.add_argument(
        "--snapshot",
        default=None,
        help="seed from this snapshot (only hosts hashing to --shard-index)",
    )
    shard_parser.add_argument(
        "--dimension",
        type=int,
        default=None,
        help="model dimension for an empty shard (ignored with --snapshot)",
    )
    shard_parser.add_argument(
        "--work-delay",
        type=float,
        default=0.0,
        help="artificial per-request service time in seconds (benchmarks)",
    )
    shard_parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="admission bound: reject (don't queue) requests beyond "
        "this many queued + in-flight (default: unbounded)",
    )
    shard_parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help="serve HTTP /metrics and /health on this port (0 = pick free)",
    )
    shard_parser.add_argument(
        "--trace-export",
        default=None,
        help="append finished trace spans to this JSONL file",
    )
    shard_parser.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        help="log spans at least this many milliseconds long as slow",
    )

    router_parser = serve_subparsers.add_parser(
        "router",
        help="route queries across running shard servers (scatter-gather)",
    )
    router_parser.add_argument(
        "--shard",
        action="append",
        required=True,
        metavar="HOST:PORT",
        help="shard server address, repeated once per shard, in shard order",
    )
    router_parser.add_argument(
        "--snapshot",
        default=None,
        help="seed the shards with this snapshot's vectors before querying",
    )
    router_parser.add_argument(
        "--source", type=int, default=None, help="source host id to query"
    )
    router_parser.add_argument(
        "--dest",
        type=int,
        nargs="+",
        default=None,
        help="destination host id(s) for --source",
    )
    router_parser.add_argument(
        "--nearest",
        type=int,
        default=None,
        metavar="K",
        help="also print the K nearest hosts to --source",
    )
    router_parser.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        help="per-RPC timeout in seconds (default: 10)",
    )
    router_parser.add_argument(
        "--shutdown",
        action="store_true",
        help="send every shard a shutdown RPC before exiting",
    )
    router_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the cluster health report as JSON instead of text",
    )

    replica_set_parser = serve_subparsers.add_parser(
        "replica-set",
        help="boot a replicated cluster: N hash slices x M replica "
        "servers with health-aware failover routing",
    )
    replica_set_parser.add_argument(
        "--slices", type=int, default=2, help="hash slices (default: 2)"
    )
    replica_set_parser.add_argument(
        "--replicas",
        type=int,
        default=2,
        help="replica servers per slice (default: 2)",
    )
    replica_set_parser.add_argument(
        "--snapshot",
        default=None,
        help="seed every replica from this snapshot (each keeps only "
        "its slice's hosts)",
    )
    replica_set_parser.add_argument(
        "--dimension",
        type=int,
        default=None,
        help="model dimension for empty replicas (ignored with --snapshot)",
    )
    replica_set_parser.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="serve for this long, then shut the cluster down "
        "(default: until Ctrl-C)",
    )
    replica_set_parser.add_argument(
        "--metrics",
        action="store_true",
        help="give every replica a /metrics endpoint on a free port",
    )
    replica_set_parser.add_argument(
        "--journal-dir",
        default=None,
        metavar="DIR",
        help="persist every replica's update journal under DIR (one "
        "private slice{i}-r{j} subdirectory per replica); a restarted "
        "replica replays its journal before serving",
    )
    replica_set_parser.add_argument(
        "--anti-entropy",
        type=float,
        default=None,
        metavar="SECONDS",
        help="run a background digest-exchange repair round at this "
        "interval (default: repair only on write-time seq lag)",
    )
    replica_set_parser.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        help="per-RPC timeout in seconds (default: 10)",
    )
    replica_set_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the cluster health report as JSON instead of text",
    )

    repair_parser = serve_subparsers.add_parser(
        "repair",
        help="inspect one replica group's seq lag and digests, then "
        "trigger an anti-entropy repair round",
    )
    repair_parser.add_argument(
        "replica",
        nargs="+",
        metavar="HOST:PORT",
        help="the replica servers of ONE hash slice (all serving the "
        "same shard slot)",
    )
    repair_parser.add_argument(
        "--timeout",
        type=float,
        default=10.0,
        help="per-RPC timeout in seconds (default: 10)",
    )
    repair_parser.add_argument(
        "--check",
        action="store_true",
        help="report divergence only (exit 1 when replicas disagree); "
        "do not repair",
    )
    repair_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the repair report as JSON instead of text",
    )
    return parser


def _command_list() -> int:
    from .evaluation.ablation import PRESETS, axis_catalog, expand_grid

    print("experiments (ides-experiment run <id>):")
    for experiment_id in available_experiments():
        print(f"  {experiment_id}")
    print()
    print("ablation axes (ides-experiment ablate --axis name=v1,v2):")
    for spec in axis_catalog():
        if spec.kind == "choice":
            domain = ", ".join(spec.choices)
        else:
            domain = "number >= 0"
        print(f"  {spec.name}: {spec.description} [{domain}] (default {spec.default})")
    print()
    print("ablation presets (ides-experiment ablate --preset <name>):")
    for name, preset in PRESETS.items():
        print(f"  {name}: {len(expand_grid(preset))} cells, {preset.n_hosts} hosts")
    return 0


def _command_run(
    experiment: str, seed: int | None, fast: bool, plot: bool = False
) -> int:
    from .evaluation import render_charts

    if experiment == "all":
        targets = available_experiments()
    else:
        targets = [experiment]
    for experiment_id in targets:
        started = time.perf_counter()
        try:
            result = run_experiment(experiment_id, seed=seed, fast=fast)
        except KeyError as error:
            print(error, file=sys.stderr)
            return 2
        elapsed = time.perf_counter() - started
        print(result)
        if plot:
            for chart in render_charts(result):
                print()
                print(chart)
        print(f"[{experiment_id} completed in {elapsed:.1f}s]")
        print()
    return 0


def _command_serve_build(arguments) -> int:
    from .datasets import split_landmarks
    from .ides import IDESSystem

    dataset = load_dataset(arguments.dataset)
    split = split_landmarks(dataset, arguments.landmarks, seed=arguments.seed)
    system = IDESSystem(dimension=arguments.dimension, method=arguments.method)
    system.fit_landmarks(split.landmark_matrix)
    system.place_hosts(split.out_distances, split.in_distances)
    service = system.to_service(
        host_ids=[int(i) for i in split.ordinary_indices],
        landmark_ids=[int(i) for i in split.landmark_indices],
    )
    path = service.save(arguments.snapshot)
    print(f"wrote {path}")
    print(f"health: {service.health()}")
    return 0


def _load_service(snapshot_path: str):
    from .serving import DistanceService

    # ReproError (file missing / not a snapshot) is handled by
    # _command_serve's shared catch.
    return DistanceService.load(snapshot_path)


def _command_serve_query(arguments) -> int:
    service = _load_service(arguments.snapshot)
    source = arguments.source
    deadline = None
    if arguments.deadline_ms is not None:
        from .serving.transport import Deadline

        deadline = Deadline.after(arguments.deadline_ms / 1000.0)
    if len(arguments.dest) == 1:
        value = service.query(source, arguments.dest[0], deadline=deadline)
        print(f"{source} -> {arguments.dest[0]}: {value:.3f}")
    elif deadline is not None:
        # Deadline-budgeted batches check the remaining budget before
        # every evaluation, so the command stops at the first expiry
        # instead of finishing the batch late.
        for destination in arguments.dest:
            value = service.query(source, destination, deadline=deadline)
            print(f"{source} -> {destination}: {value:.3f}")
    else:
        values = service.query_one_to_many(source, arguments.dest)
        for destination, value in zip(arguments.dest, values):
            print(f"{source} -> {destination}: {value:.3f}")
    print(f"health: {service.health()}")
    return 0


def _command_serve_nearest(arguments) -> int:
    service = _load_service(arguments.snapshot)
    for host_id, distance in service.k_nearest(arguments.source, arguments.k):
        print(f"{arguments.source} -> {host_id}: {distance:.3f}")
    print(f"health: {service.health()}")
    return 0


def _command_serve_health(arguments) -> int:
    health = _load_service(arguments.snapshot).health()
    if arguments.json:
        import json

        print(json.dumps(health.to_dict(), indent=2, sort_keys=True))
    else:
        print(health)
    return 0


def _command_serve_metrics(arguments) -> int:
    from .serving.observability import scrape

    try:
        print(scrape(arguments.target, arguments.path, timeout=arguments.timeout))
    except OSError as error:
        print(f"scrape failed: {error}", file=sys.stderr)
        return 2
    return 0


def _command_serve_trace_tail(arguments) -> int:
    from .serving.observability import (
        build_trace_trees,
        format_trace_tree,
        load_spans,
    )

    spans = load_spans(arguments.export)
    if not spans:
        print(f"no spans in {arguments.export}", file=sys.stderr)
        return 2
    trees = build_trace_trees(spans)
    if arguments.trace is not None:
        if arguments.trace not in trees:
            print(f"trace {arguments.trace} not found", file=sys.stderr)
            return 2
        selected = [(arguments.trace, trees[arguments.trace])]
    else:
        # Newest last, ordered by each trace's earliest span.
        ordered = sorted(
            trees.items(),
            key=lambda item: min(
                root.get("start_time", 0.0) for root in item[1]
            ),
        )
        selected = ordered[-arguments.limit :]
    for trace_id, roots in selected:
        print(f"trace {trace_id}")
        print(format_trace_tree(roots))
    print(f"{len(selected)}/{len(trees)} traces, {len(spans)} spans total")
    return 0


def _command_serve_refresh(arguments) -> int:
    from .serving import RefreshWorker, synthetic_drift_stream

    service = _load_service(arguments.snapshot)
    worker = RefreshWorker(
        service,
        learning_rate=arguments.learning_rate,
        flush_every=arguments.flush_every,
    )
    stream = synthetic_drift_stream(
        service,
        samples=arguments.samples,
        drift=arguments.drift,
        noise=arguments.noise,
        seed=arguments.seed,
    )
    observations = list(stream)
    midpoint = max(1, len(observations) // 2)
    worker.run(iter(observations[:midpoint]))
    early = worker.stats()
    worker.run(iter(observations[midpoint:]))
    late = worker.stats()
    early_residual = (
        f"{early.mean_abs_residual:.3f}"
        if early.mean_abs_residual is not None
        else "n/a"
    )
    late_residual = (
        f"{late.mean_abs_residual:.3f}"
        if late.mean_abs_residual is not None
        else "n/a"
    )
    print(f"drift +-{arguments.drift:.0%} over {len(observations)} observations")
    print(f"residual ewma: {early_residual} (midstream) -> {late_residual} (final)")
    print(f"refresh: {late}")
    print(f"health: {service.health()}")
    if arguments.save:
        print(f"wrote {service.save(arguments.save)}")
    return 0


def _command_serve_shard(arguments) -> int:
    from .serving.transport import run_shard_server

    run_shard_server(
        dimension=arguments.dimension,
        shard_index=arguments.shard_index,
        n_shards=arguments.n_shards,
        host=arguments.host,
        port=arguments.port,
        snapshot_path=arguments.snapshot,
        work_delay=arguments.work_delay,
        max_inflight=arguments.max_inflight,
        metrics_port=arguments.metrics_port,
        trace_export=arguments.trace_export,
        slow_ms=arguments.slow_ms,
        announce=print,
    )
    return 0


def _command_serve_router(arguments) -> int:
    import asyncio

    from .exceptions import TransportError
    from .serving import connect_router, load_snapshot

    async def session() -> int:
        try:
            router = await connect_router(
                arguments.shard, timeout=arguments.timeout
            )
        except TransportError as dark:
            # A dark shard fails the topology handshake, but an
            # operator pointing at a half-up cluster still needs the
            # health report and --shutdown to reach the live shards.
            if arguments.snapshot or arguments.source is not None:
                raise
            print(f"handshake failed ({dark}); degraded session", file=sys.stderr)
            router = await connect_router(
                arguments.shard, handshake=False, timeout=arguments.timeout
            )
        try:
            if arguments.snapshot:
                snapshot = load_snapshot(arguments.snapshot)
                stored = await router.put_many(
                    snapshot.ids, snapshot.outgoing, snapshot.incoming
                )
                print(
                    f"seeded {stored} hosts across {router.n_shards} shards "
                    f"from {arguments.snapshot}"
                )
            if arguments.source is not None and arguments.dest:
                values = await router.one_to_many(
                    arguments.source, arguments.dest
                )
                for destination, value in zip(arguments.dest, values):
                    print(f"{arguments.source} -> {destination}: {value:.3f}")
            if arguments.source is not None and arguments.nearest:
                neighbors = await router.k_nearest(
                    arguments.source, arguments.nearest
                )
                for host_id, distance in neighbors:
                    print(f"{arguments.source} ~ {host_id}: {distance:.3f}")
            health = await router.health()
            if arguments.json:
                import json

                print(json.dumps(health.to_dict(), indent=2, sort_keys=True))
            else:
                for shard in health.shards:
                    print(f"  {shard}")
                print(f"health: {health}")
            if arguments.shutdown:
                stopped = 0
                for client in router.clients:
                    # Best-effort: a shard that is already dark must not
                    # keep the live ones running.
                    try:
                        await client.call("shutdown")
                        stopped += 1
                    except TransportError:
                        pass
                print(f"sent shutdown to {stopped}/{router.n_shards} shards")
            return 2 if health.unreachable_shards else 0
        finally:
            await router.close()

    return asyncio.run(session())


def _command_serve_replica_set(arguments) -> int:
    import asyncio
    from pathlib import Path

    from .exceptions import ValidationError
    from .serving.transport import spawn_shard_process
    from .serving.transport.replica import connect_replica_router

    if arguments.slices < 1 or arguments.replicas < 1:
        raise ValidationError("replica-set needs --slices >= 1, --replicas >= 1")
    if arguments.snapshot is None and arguments.dimension is None:
        raise ValidationError("replica-set needs --snapshot or --dimension")

    def _journal_dir(slice_index: int, replica_index: int) -> str | None:
        if arguments.journal_dir is None:
            return None
        # One private directory per replica: journals are per-server
        # sequences and must never be shared.
        return str(
            Path(arguments.journal_dir)
            / f"slice{slice_index}-r{replica_index}"
        )

    processes = []
    try:
        groups = []
        for slice_index in range(arguments.slices):
            members = [
                spawn_shard_process(
                    slice_index,
                    arguments.slices,
                    dimension=arguments.dimension,
                    snapshot_path=arguments.snapshot,
                    metrics_port=0 if arguments.metrics else None,
                    journal_dir=_journal_dir(slice_index, replica_index),
                )
                for replica_index in range(arguments.replicas)
            ]
            processes.extend(members)
            addresses = [f"{p.host}:{p.port}" for p in members]
            groups.append(addresses)
            line = f"slice {slice_index}/{arguments.slices}: " + " ".join(addresses)
            if arguments.metrics:
                line += "  (metrics: " + " ".join(
                    "http://{}:{}".format(*p.metrics_address) for p in members
                ) + ")"
            print(line)

        async def session() -> int:
            router = await connect_replica_router(
                groups,
                timeout=arguments.timeout,
                anti_entropy_seconds=arguments.anti_entropy,
            )
            try:
                health = await router.health()
                if arguments.json:
                    import json

                    print(json.dumps(health.to_dict(), indent=2, sort_keys=True))
                else:
                    for shard in health.shards:
                        print(f"  {shard}")
                    print(f"health: {health}")
                if health.unreachable_shards:
                    return 2
                if arguments.anti_entropy is not None:
                    # The background repair loops live on the router's
                    # replica groups — keep the session open for the
                    # whole serving window.
                    if arguments.duration is not None:
                        await asyncio.sleep(arguments.duration)
                    else:
                        print("serving until Ctrl-C ...")
                        while True:
                            await asyncio.sleep(3600.0)
                return 0
            finally:
                await router.close()

        try:
            code = asyncio.run(session())
        except KeyboardInterrupt:
            code = 0
        if code == 0 and arguments.anti_entropy is None:
            try:
                if arguments.duration is not None:
                    time.sleep(arguments.duration)
                else:
                    print("serving until Ctrl-C ...")
                    while True:
                        time.sleep(3600.0)
            except KeyboardInterrupt:
                pass
        return code
    finally:
        for process in processes:
            process.stop()


def _command_serve_repair(arguments) -> int:
    import asyncio

    from .serving.transport import RemoteShardClient
    from .serving.transport.replica import ReplicaGroup
    from .serving.transport.router import _parse_address

    async def poll_digests(group) -> tuple[dict, bool]:
        digests, reachable = {}, True
        for replica in group._replicas:
            address = replica.client.address
            try:
                reply = await replica.client.call("digest")
                digests[address] = reply.fields.get("digest")
            except Exception:  # noqa: BLE001 - a dark replica is a
                # divergence verdict, not a crash
                digests[address] = None
                reachable = False
        return digests, reachable

    async def session() -> int:
        clients = [
            RemoteShardClient(
                *_parse_address(address), timeout=arguments.timeout
            )
            for address in arguments.replica
        ]
        group = ReplicaGroup(clients)
        try:
            await group.probe()
            report = None if arguments.check else await group.repair()
            health = {h.address: h for h in group.replica_health()}
            digests, reachable = await poll_digests(group)
            distinct = {d for d in digests.values() if d is not None}
            converged = reachable and len(distinct) <= 1
            if arguments.json:
                import json

                payload = {
                    "replicas": {
                        address: state.to_dict()
                        for address, state in health.items()
                    },
                    "digests": digests,
                    "converged": converged,
                    "repair": report,
                }
                print(json.dumps(payload, indent=2, sort_keys=True))
            else:
                for address in sorted(digests):
                    state = health.get(address)
                    digest = digests[address]
                    line = (
                        f"  {address}: state={state.state} "
                        f"seq={state.applied_seq} lag={state.seq_lag} "
                        f"repairs={state.repairs}"
                        if state is not None
                        else f"  {address}:"
                    )
                    line += (
                        f" digest={digest[:12]}"
                        if digest
                        else " digest=unavailable"
                    )
                    if report and "error" in report.get(address, {}):
                        line += f" error={report[address]['error']}"
                    print(line)
                verdict = "converged" if converged else "diverged"
                action = "check" if arguments.check else "repair"
                print(f"{action}: {verdict}")
            return 0 if converged else 1
        finally:
            await group.close()

    return asyncio.run(session())


def _command_serve(arguments) -> int:
    from .exceptions import ReproError

    handlers = {
        "build": _command_serve_build,
        "query": _command_serve_query,
        "nearest": _command_serve_nearest,
        "health": _command_serve_health,
        "refresh": _command_serve_refresh,
        "shard": _command_serve_shard,
        "router": _command_serve_router,
        "replica-set": _command_serve_replica_set,
        "repair": _command_serve_repair,
        "metrics": _command_serve_metrics,
        "trace-tail": _command_serve_trace_tail,
    }
    try:
        return handlers[arguments.serve_command](arguments)
    except ReproError as error:
        print(error, file=sys.stderr)
        return 2


def _command_ablate(arguments) -> int:
    import dataclasses
    import json
    from pathlib import Path

    from .evaluation.ablation import (
        PRESETS,
        AblationConfig,
        axis_catalog,
        build_report,
        expand_grid,
        load_config,
        parse_axis_flag,
        render_markdown,
        require_valid_report,
        run_ablation,
    )
    from .evaluation.ablation.runner import (
        append_sidecar,
        read_sidecar,
        sidecar_path,
    )
    from .exceptions import ValidationError

    if arguments.list_axes:
        for spec in axis_catalog():
            domain = (
                ", ".join(spec.choices) if spec.kind == "choice" else "number >= 0"
            )
            print(f"{spec.name}: {spec.description} [{domain}] (default {spec.default})")
        print(f"presets: {', '.join(PRESETS)}")
        return 0

    preset = arguments.preset
    if arguments.fast:
        if preset is not None and preset != "smoke":
            print("--fast conflicts with --preset", file=sys.stderr)
            return 2
        preset = "smoke"
    if preset is not None and arguments.config is not None:
        print("--config conflicts with --preset/--fast", file=sys.stderr)
        return 2

    try:
        if arguments.config is not None:
            config = load_config(arguments.config)
        elif preset is not None:
            if preset not in PRESETS:
                raise ValidationError(
                    f"unknown preset {preset!r} (known: {', '.join(PRESETS)})"
                )
            config = PRESETS[preset]
        else:
            config = AblationConfig()

        overrides = {}
        if arguments.axis:
            axes = dict(config.axes)
            for flag in arguments.axis:
                name, values = parse_axis_flag(flag)
                axes[name] = values
            overrides["axes"] = axes
        for field, value in (
            ("seed", arguments.seed),
            ("n_hosts", arguments.hosts),
            ("n_landmarks", arguments.landmarks),
            ("dimension", arguments.dimension),
        ):
            if value is not None:
                overrides[field] = value
        if overrides:
            config = dataclasses.replace(config, **overrides)
        config = config.validate()

        timeout = arguments.timeout if arguments.timeout > 0 else None
        if arguments.in_process:
            timeout = None
        if arguments.jobs < 1:
            raise ValidationError(f"--jobs must be >= 1, got {arguments.jobs}")
    except ValidationError as error:
        print(error, file=sys.stderr)
        return 2

    output = Path(arguments.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    fingerprint = config.fingerprint()
    sidecar = sidecar_path(output)

    completed = {}
    if arguments.resume:
        completed = read_sidecar(sidecar, fingerprint)
        if completed:
            print(f"[resume] reusing {len(completed)} finished cells from {sidecar}")
    elif sidecar.exists():
        sidecar.unlink()

    n_cells = len(expand_grid(config))
    progress = {"done": len(completed)}

    def on_cell_complete(result) -> None:
        progress["done"] += 1
        append_sidecar(sidecar, fingerprint, result)
        print(
            f"[{progress['done']}/{n_cells}] {result.status:7s} "
            f"{result.cell_id} ({result.duration_seconds:.1f}s)"
        )

    started = time.perf_counter()
    results = run_ablation(
        config,
        jobs=arguments.jobs,
        timeout=timeout,
        in_process=arguments.in_process,
        completed=completed,
        on_cell_complete=on_cell_complete,
    )
    elapsed = time.perf_counter() - started

    report = require_valid_report(build_report(config, results))
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    markdown = render_markdown(report)
    if arguments.markdown is not None:
        Path(arguments.markdown).write_text(markdown, encoding="utf-8")
    print()
    print(markdown)
    print(f"[report: {output}; {n_cells} cells in {elapsed:.1f}s]")

    failed = [result for result in results if not result.ok]
    if failed and not arguments.allow_failures:
        print(
            f"{len(failed)} cell(s) failed; see the report "
            "(pass --allow-failures to tolerate)",
            file=sys.stderr,
        )
        return 1
    return 0


def _command_datasets() -> int:
    for name in list_datasets():
        dataset = load_dataset(name)
        print(dataset.describe())
        print(f"  {dataset_statistics(dataset)}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    if arguments.command == "list":
        return _command_list()
    if arguments.command == "run":
        return _command_run(
            arguments.experiment, arguments.seed, arguments.fast, arguments.plot
        )
    if arguments.command == "datasets":
        return _command_datasets()
    if arguments.command == "ablate":
        return _command_ablate(arguments)
    if arguments.command == "serve":
        return _command_serve(arguments)
    parser.error(f"unknown command {arguments.command!r}")
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
