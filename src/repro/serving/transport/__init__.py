"""Cross-process shard transport: the serving stack over sockets.

The IDES architecture (paper Section 5.1) is explicitly a *networked*
service — clients retrieve vectors and predictions from an information
server over the wire — and everything below this package (the
:class:`~repro.serving.store.InMemoryVectorStore`, the coalescing
:class:`~repro.serving.frontend.AsyncDistanceFrontend`) runs in one
process. This package supplies the missing transport so a deployment
can put every shard in its own process (or on its own machine):

* :mod:`~repro.serving.transport.protocol` — the length-prefixed
  binary wire format: a fixed 16-byte prelude (carrying a request
  id), a JSON header, and raw C-order ndarray payloads, each copied
  once into the frame on encode and decoded as a read-only view over
  the receive buffer (spec: ``docs/wire-protocol.md``);
* :mod:`~repro.serving.transport.server` — :class:`ShardServer`, an
  asyncio process owning one vector-store shard plus a local
  :class:`~repro.serving.engine.QueryEngine`, serving point / gather /
  k-nearest / update RPCs — requests
  pipeline and answer out of order, each isolated to its own request
  id, and each connection sends its responses one at a time, so a
  peer that stops reading stalls only itself;
* :mod:`~repro.serving.transport.client` — :class:`RemoteShardClient`,
  a per-shard pool of pipelined connections (many in-flight RPCs per
  socket, matched by request id) with call
  timeouts, bounded retries (every RPC is idempotent, so a retry is
  always safe) and fail-fast close;
* :mod:`~repro.serving.transport.router` — :class:`ShardedQueryRouter`,
  which splits each batch by ``shard_of``, scatters the sub-batches
  over the sockets concurrently, gathers the answers back into request
  order, and exposes the async query surface
  :class:`~repro.serving.frontend.AsyncDistanceFrontend` dispatches
  into — existing frontend callers work unchanged on top of a remote
  cluster. :class:`ShardReplicator` bridges the synchronous
  :meth:`~repro.serving.service.DistanceService.add_update_sink` hook
  onto the router so a :class:`~repro.serving.refresh.RefreshWorker`
  keeps refreshing vectors across process boundaries;
* :mod:`~repro.serving.transport.replica` — :class:`ReplicaGroup`,
  N interchangeable servers behind one hash slice: reads route to the
  healthiest replica (EWMA latency / pipeline depth) and fail over to
  a sibling *inside* the scatter-gather, writes fan out to every
  replica, and a slice only surfaces
  :class:`~repro.exceptions.ShardUnavailableError` when all of its
  replicas are dark. :func:`connect_replica_router` builds a
  :class:`ShardedQueryRouter` over replica groups. Replica
  resurrection is gated on journal catch-up: a lagging replica stays
  out of the read rotation (``catching_up``) until an anti-entropy
  repair replays its missed writes (or re-seeds it) and its digest
  matches the healthiest sibling's;
* :mod:`~repro.serving.transport.chaos` — :class:`ChaosClient` /
  :class:`ChaosSchedule`, seeded deterministic fault injection
  (drop / delay / duplicate / refuse-writes) over any client surface,
  so divergence and failover contracts are provable in fast unit
  tests.
"""

from .chaos import ChaosClient, ChaosDecision, ChaosSchedule
from .client import RemoteShardClient, RetryBudget
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    Deadline,
    Message,
    decode_frame,
    encode_frame,
    read_message,
    write_message,
)
from .replica import ReplicaGroup, connect_replica_router
from .router import ShardedQueryRouter, ShardReplicator, connect_router
from .server import ShardProcess, ShardServer, run_shard_server, spawn_shard_process

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ChaosClient",
    "ChaosDecision",
    "ChaosSchedule",
    "Deadline",
    "Message",
    "RemoteShardClient",
    "ReplicaGroup",
    "RetryBudget",
    "ShardProcess",
    "ShardReplicator",
    "ShardServer",
    "ShardedQueryRouter",
    "connect_replica_router",
    "connect_router",
    "decode_frame",
    "encode_frame",
    "read_message",
    "run_shard_server",
    "spawn_shard_process",
    "write_message",
]
