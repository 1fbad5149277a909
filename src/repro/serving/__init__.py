"""Serving layer: the fitted model as an online query service.

The IDES architecture (paper Section 5) is a *service*: a server
factors the landmark matrix, hosts solve small least-squares problems,
and from then on any distance is one dot product. This package is the
layer the paper stops short of building — the part that actually
serves the traffic:

* :mod:`~repro.serving.store` — the O(1) in-memory host-vector
  directory, thread-safe under concurrent refresh;
* :mod:`~repro.serving.engine` — point / pairs / one-to-many /
  many-to-many / k-nearest queries as dense NumPy batch products;
* :mod:`~repro.serving.cache` — LRU + TTL memoization of point
  queries with per-host invalidation and an injectable clock;
* :mod:`~repro.serving.service` — the :class:`DistanceService` facade
  with incremental registration, bulk refresh updates, snapshots and
  health/staleness reporting;
* :mod:`~repro.serving.frontend` — the concurrent asyncio tier:
  :class:`AsyncDistanceFrontend` coalesces point queries from many
  clients into dense micro-batches;
* :mod:`~repro.serving.refresh` — :class:`RefreshWorker` streams RTT
  observations through online trackers back into the store while
  queries keep flowing;
* :mod:`~repro.serving.snapshot` — portable ``.npz`` serialization;
* :mod:`~repro.serving.journal` — the per-shard update journal:
  monotone seq numbers over every mutating op, a bounded in-memory
  ring plus optional on-disk segments, and :func:`store_digest` for
  order-independent content comparison between replicas;
* :mod:`~repro.serving.observability` — the telemetry plane: a
  process-wide :class:`MetricsRegistry` (Prometheus-text + JSON
  exposition), distributed :class:`Tracer` spans threaded through the
  wire protocol, and a tiny asyncio HTTP ``/metrics`` endpoint;
* :mod:`~repro.serving.transport` — the cross-process tier: a framed
  binary wire protocol (``docs/wire-protocol.md``), :class:`ShardServer`
  processes each owning one store shard, and
  :class:`ShardedQueryRouter` scatter-gathering batches over sockets
  behind the same frontend.

Thread-safety at a glance (details in each module): the vector store
and the cache serialize on internal locks, so refresh threads and query
threads interleave safely; ``DistanceService`` guards membership,
write stamps and the write epoch under one RLock and re-checks
membership inside it so refreshes cannot resurrect evicted hosts;
cache writers are epoch-guarded (capture ``write_epoch`` before
computing, publish through ``cache_put_*_if_current``) so a stale
prediction can never overwrite a refresh's invalidation; the asyncio
frontend and router are single-event-loop objects, with
:class:`~repro.serving.transport.ShardReplicator` as the documented
bridge from thread-world writers. Time is always an injectable
``clock`` so TTL and staleness tests advance it instead of sleeping.
"""

from .cache import CacheStats, PredictionCache, StalePrediction
from .engine import QueryEngine
from .journal import JournalEntry, ShardJournal, store_digest
from .observability import (
    MetricsRegistry,
    TelemetryServer,
    TraceContext,
    Tracer,
    build_trace_trees,
    configure_tracing,
    format_trace_tree,
    get_registry,
    get_tracer,
    load_spans,
    parse_prometheus_text,
    scrape,
    set_registry,
)
from .frontend import AsyncDistanceFrontend, FrontendStats
from .refresh import (
    RefreshStats,
    RefreshWorker,
    RttObservation,
    replay_observations,
    synthetic_drift_stream,
)
from .service import DistanceService
from .snapshot import ServiceSnapshot, load_snapshot, save_snapshot
from .store import (
    InMemoryVectorStore,
    group_by_shard,
    shard_of,
)
from .transport import (
    ChaosClient,
    ChaosSchedule,
    RemoteShardClient,
    ReplicaGroup,
    ShardReplicator,
    ShardServer,
    ShardedQueryRouter,
    connect_replica_router,
    connect_router,
    spawn_shard_process,
)

__all__ = [
    "AsyncDistanceFrontend",
    "CacheStats",
    "ChaosClient",
    "ChaosSchedule",
    "DistanceService",
    "FrontendStats",
    "InMemoryVectorStore",
    "JournalEntry",
    "MetricsRegistry",
    "PredictionCache",
    "StalePrediction",
    "QueryEngine",
    "RefreshStats",
    "RefreshWorker",
    "RemoteShardClient",
    "ReplicaGroup",
    "RttObservation",
    "ServiceSnapshot",
    "ShardJournal",
    "ShardReplicator",
    "ShardServer",
    "ShardedQueryRouter",
    "TelemetryServer",
    "TraceContext",
    "Tracer",
    "build_trace_trees",
    "configure_tracing",
    "connect_replica_router",
    "connect_router",
    "format_trace_tree",
    "get_registry",
    "get_tracer",
    "group_by_shard",
    "load_spans",
    "load_snapshot",
    "parse_prometheus_text",
    "replay_observations",
    "save_snapshot",
    "scrape",
    "set_registry",
    "shard_of",
    "spawn_shard_process",
    "store_digest",
    "synthetic_drift_stream",
]
