"""The query router: scatter-gather over a cluster of shard servers.

:class:`ShardedQueryRouter` spreads one directory over shard server
processes: it splits every batch by ``shard_of``, turns each group
into one RPC, launches the RPCs *concurrently* with
``asyncio.gather``, and scatters the answers back into request
order. The wall-clock cost of a batch is therefore the slowest single
shard, not the sum over shards — ``benchmarks/bench_transport.py``
gates that the concurrent form beats sequential per-shard dispatch by
>= 2x.

Query plans (each line is one concurrent round):

* ``pairs``   — one ``gather`` per shard holding any source or
  destination, carrying its sources in ``out`` and its destinations
  in ``in``, then one local einsum. One round.
* ``one_to_many_batch`` — the same single ``gather`` round for every
  query's source (``out``) and destinations (``in``), then one local
  dot product per query: the paper's own recipe (Section 3) of
  retrieving the vectors and calculating the dot product. One round
  for the whole batch.
* ``k_nearest_batch`` — one ``gather`` round for every query's source
  row, then one ``nearest`` RPC per candidate-holding shard carrying
  all of those rows; each shard returns its local top-k for each
  query and the router merges them. Two rounds for the whole batch.

``one_to_many`` and ``k_nearest`` are batches of one.

The router also carries the surface
:class:`~repro.serving.frontend.AsyncDistanceFrontend` dispatches into
(`point`/`pairs`/`one_to_many_batch`/`k_nearest_batch` plus a local
:class:`~repro.serving.cache.PredictionCache` with the same
epoch-guarded write discipline as
:class:`~repro.serving.service.DistanceService`), so a frontend can sit
on a remote cluster without its callers changing a line. The frontend
sends each dispatch cycle's k-NN queries as one ``k_nearest_batch``
and its 1:N queries as one ``one_to_many_batch``.

Failure isolation: a dark shard surfaces as
:class:`~repro.exceptions.ShardUnavailableError` on exactly the
queries that need it; traffic confined to live shards keeps flowing,
and :meth:`ShardedQueryRouter.health` reports the dark shard with
``reachable=False`` instead of failing outright.

Everything here runs on one event loop and is **not** thread-safe;
:class:`ShardReplicator` is the bridge for synchronous writers (a
:class:`~repro.serving.refresh.RefreshWorker` thread) that need to fan
vector updates out to the cluster.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from typing import Sequence

import numpy as np

from ...core.diagnostics import ServiceHealth, ShardHealth
from ...exceptions import OverloadedError, TransportError, ValidationError
from ..cache import PredictionCache
from ..observability.metrics import Sample
from ..observability.tracing import get_tracer
from ..store import group_by_shard, shard_of
from .client import RemoteShardClient

__all__ = ["ShardedQueryRouter", "ShardReplicator", "connect_router"]


def _parse_address(address) -> tuple[str, int]:
    if isinstance(address, (tuple, list)) and len(address) == 2:
        return str(address[0]), int(address[1])
    host, separator, port = str(address).rpartition(":")
    if not separator or not host:
        raise ValidationError(
            f"shard address {address!r} is not host:port or (host, port)"
        )
    return host, int(port)


class ShardedQueryRouter:
    """Routes distance queries across one client per shard.

    The client list is positional: ``clients[i]`` must be the server
    owning shard ``i`` of ``len(clients)`` — :meth:`handshake`
    verifies exactly that (plus dimension agreement) before any
    traffic flows.

    Args:
        clients: one :class:`RemoteShardClient` per shard, in shard
            order.
        cache_entries: capacity of the router-local point-query cache.
        cache_ttl: cache entry lifetime. Unlike
            :class:`DistanceService` the default is *finite* (30 s):
            writes published by another process — a
            :class:`ShardReplicator` fanning out a refresh — cannot
            invalidate this router's cache (there is no cross-process
            invalidation channel), so the TTL is what bounds staleness.
            Only routers that are their cluster's sole writer should
            pass None.
        cache_admission: router cache admission policy (``"none"`` or
            the frequency-gated ``"doorkeeper"``; see
            :class:`~repro.serving.cache.PredictionCache`).
        clock: injectable time source for the cache's TTL logic.
    """

    def __init__(
        self,
        clients: Sequence[RemoteShardClient],
        cache_entries: int = 65536,
        cache_ttl: float | None = 30.0,
        cache_admission: str = "none",
        clock=time.monotonic,
    ):
        if not clients:
            raise ValidationError("router needs at least one shard client")
        self.clients = list(clients)
        for shard_index, client in enumerate(self.clients):
            client.shard_index = shard_index
        self.cache = PredictionCache(
            max_entries=cache_entries,
            ttl=cache_ttl,
            clock=clock,
            admission=cache_admission,
        )
        self.dimension: int | None = None
        self._write_epoch = 0
        # Routed-workload counters: the einsum for a pairs batch runs
        # here, not on any shard, so cluster-level served work is
        # accounted at the router (shards report their own RPC-level
        # engine counters in ShardHealth).
        self._queries_served = 0
        self._pairs_evaluated = 0
        #: Brownout degradations: point queries answered from a
        #: TTL-expired cache entry because the owning shard refused
        #: admission (see :meth:`point`).
        self._stale_served = 0
        #: Optional routed-query latency histogram, attached by
        #: :meth:`bind_metrics`; ``None`` keeps the hot path untouched.
        self._query_seconds = None

    def _count(self, pairs: int) -> None:
        self._queries_served += 1
        self._pairs_evaluated += int(pairs)

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #

    def bind_metrics(self, registry) -> None:
        """Expose the router, its cache and every shard client.

        Routed-query latency lands in ``ides_router_query_seconds``
        (labeled by plan kind); the existing counters, the cache stats
        and each :class:`RemoteShardClient`'s telemetry become
        scrape-time collector samples.
        """
        self._query_seconds = registry.histogram(
            "ides_router_query_seconds",
            "Routed query latency by plan kind (scatter-gather included).",
            labels=("kind",),
        )
        self.cache.bind_metrics(registry, component="router")
        for client in self.clients:
            client.bind_metrics(registry)

        def collect():
            return [
                Sample("ides_router_queries_total", "counter",
                       "Queries routed (batches count once).",
                       (), self._queries_served),
                Sample("ides_router_pairs_total", "counter",
                       "Host pairs evaluated across routed queries.",
                       (), self._pairs_evaluated),
                Sample("ides_router_write_epoch", "counter",
                       "Routed writes (the cache guard epoch).",
                       (), self._write_epoch),
                Sample("ides_router_shards", "gauge",
                       "Shard clients owned by this router.",
                       (), self.n_shards),
                Sample("ides_router_stale_served_total", "counter",
                       "Point queries served from a TTL-expired cache "
                       "entry during shard overload (brownout).",
                       (), self._stale_served),
            ]

        registry.register_collector(collect)

    @contextlib.contextmanager
    def _observe(self, kind: str):
        """Span + latency envelope for one routed query (no-op unless
        tracing is enabled or metrics are bound)."""
        tracer = get_tracer()
        histogram = self._query_seconds
        if not tracer.enabled and histogram is None:
            yield
            return
        started = time.perf_counter()
        with tracer.span(f"router:{kind}"):
            try:
                yield
            finally:
                if histogram is not None:
                    histogram.labels(kind=kind).observe(
                        time.perf_counter() - started
                    )

    @property
    def n_shards(self) -> int:
        """Number of shards (and shard clients)."""
        return len(self.clients)

    def client_for(self, host_id: object) -> RemoteShardClient:
        """The client owning ``host_id``'s shard."""
        return self.clients[shard_of(host_id, self.n_shards)]

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def handshake(self) -> None:
        """Ping every shard and verify the cluster topology.

        Each server must agree on ``n_shards``, sit at the position
        its ``shard_index`` claims, and share one model dimension.
        Raises :class:`ShardUnavailableError` for a dark shard and
        :class:`ValidationError` for a topology mismatch.
        """
        responses = await asyncio.gather(
            *(client.call("ping") for client in self.clients)
        )
        dimensions = set()
        for position, (client, response) in enumerate(
            zip(self.clients, responses)
        ):
            reported_index = response.fields.get("shard_index")
            reported_total = response.fields.get("n_shards")
            if reported_index != position or reported_total != self.n_shards:
                raise ValidationError(
                    f"server at {client.address} is shard "
                    f"{reported_index}/{reported_total}, expected "
                    f"{position}/{self.n_shards}"
                )
            dimensions.add(int(response.fields["dimension"]))
        if len(dimensions) != 1:
            raise ValidationError(
                f"shards disagree on model dimension: {sorted(dimensions)}"
            )
        self.dimension = dimensions.pop()

    async def close(self) -> None:
        """Close every shard client's connection pool."""
        await asyncio.gather(*(client.close() for client in self.clients))

    async def __aenter__(self) -> "ShardedQueryRouter":
        await self.handshake()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #

    async def put_many(
        self, host_ids: Sequence, outgoing: np.ndarray, incoming: np.ndarray
    ) -> int:
        """Scatter vectors to their home shards (seed / registration).

        Returns the number of hosts stored.
        """
        outgoing = np.asarray(outgoing, dtype=float)
        incoming = np.asarray(incoming, dtype=float)
        host_ids = list(host_ids)
        groups = group_by_shard(host_ids, self.n_shards)

        async def put(shard_index: int, positions: np.ndarray) -> int:
            response = await self.clients[shard_index].call(
                "put_many",
                {"ids": [host_ids[p] for p in positions]},
                {"outgoing": outgoing[positions], "incoming": incoming[positions]},
            )
            return int(response.fields["stored"])

        stored = await asyncio.gather(
            *(put(shard, positions) for shard, positions in groups.items())
        )
        self._note_write(host_ids)
        return sum(stored)

    async def apply_vector_updates(
        self, host_ids: Sequence, outgoing: np.ndarray, incoming: np.ndarray
    ) -> int:
        """Fan a bulk refresh out to the owning shards.

        Mirrors :meth:`DistanceService.apply_vector_updates`: a shard
        refuses hosts it does not know (ValidationError). The fan-out
        is not atomic across shards — on a partial failure the
        exception propagates and the caller retries; updates are
        idempotent overwrites, so a replayed flush converges.
        """
        outgoing = np.asarray(outgoing, dtype=float)
        incoming = np.asarray(incoming, dtype=float)
        host_ids = list(host_ids)
        groups = group_by_shard(host_ids, self.n_shards)

        async def update(shard_index: int, positions: np.ndarray) -> int:
            response = await self.clients[shard_index].call(
                "update_many",
                {"ids": [host_ids[p] for p in positions]},
                {"outgoing": outgoing[positions], "incoming": incoming[positions]},
            )
            return int(response.fields["updated"])

        updated = await asyncio.gather(
            *(update(shard, positions) for shard, positions in groups.items())
        )
        self._note_write(host_ids)
        return sum(updated)

    async def delete(self, host_id: object) -> bool:
        """Remove one host from its shard; returns whether it existed."""
        response = await self.client_for(host_id).call("delete", {"id": host_id})
        self._note_write([host_id])
        return bool(response.fields["deleted"])

    def _note_write(self, host_ids: Sequence) -> None:
        self.cache.invalidate_hosts(host_ids)
        self._write_epoch += 1

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    async def gather(self, host_ids: Sequence) -> tuple[np.ndarray, np.ndarray]:
        """Stack hosts' vectors into ``(n, d)`` matrices, request order.

        One concurrent RPC per involved shard.
        """
        host_ids = list(host_ids)
        return await self._gather_rows(host_ids, host_ids)

    async def _gather_rows(
        self, out_ids: Sequence, in_ids: Sequence, deadline=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The outgoing rows of ``out_ids`` and the incoming rows of
        ``in_ids``, each in request order: one ``gather`` per shard
        that holds any of them, all concurrent. ``deadline`` (a
        :class:`~repro.serving.transport.protocol.Deadline`) rides
        into every sub-RPC: each shard client derives its attempt
        timeout from the remaining budget and the servers shed the
        request if it expires in their queues."""
        out_ids = list(out_ids)
        in_ids = list(in_ids)
        dimension = await self._require_dimension()
        outgoing = np.zeros((len(out_ids), dimension))
        incoming = np.zeros((len(in_ids), dimension))
        out_groups = group_by_shard(out_ids, self.n_shards) if out_ids else {}
        in_groups = group_by_shard(in_ids, self.n_shards) if in_ids else {}
        shards = sorted(out_groups.keys() | in_groups.keys())

        async def fetch(shard_index: int):
            fields = {}
            if shard_index in out_groups:
                fields["out"] = [out_ids[p] for p in out_groups[shard_index]]
            if shard_index in in_groups:
                fields["in"] = [in_ids[p] for p in in_groups[shard_index]]
            return await self.clients[shard_index].call(
                "gather", fields, deadline=deadline
            )

        responses = await asyncio.gather(*(fetch(shard) for shard in shards))
        for shard_index, response in zip(shards, responses):
            if shard_index in out_groups:
                outgoing[out_groups[shard_index]] = response.array("outgoing")
            if shard_index in in_groups:
                incoming[in_groups[shard_index]] = response.array("incoming")
        return outgoing, incoming

    async def point(
        self, source_id: object, destination_id: object, deadline=None
    ) -> float:
        """One predicted distance; single-RPC when co-located.

        Brownout degradation: when the owning shard refuses admission
        (:class:`~repro.exceptions.OverloadedError`) and the router
        still holds a cache entry for the pair — even a TTL-expired
        one — that entry is served instead of failing. A stale answer
        comes back as :class:`~repro.serving.cache.StalePrediction`
        (``value.stale`` is True) so callers can tell bounded-stale
        from fresh; a pair never cached re-raises the overload.
        """
        try:
            source_client = self.client_for(source_id)
            if source_client is self.client_for(destination_id):
                with self._observe("point"):
                    response = await source_client.call(
                        "point",
                        {"source": source_id, "dest": destination_id},
                        deadline=deadline,
                    )
                self._count(1)
                return float(response.fields["value"])
            values = await self.pairs(
                [source_id], [destination_id], deadline=deadline
            )
            return float(values[0])
        except OverloadedError:
            stale = self.cache.get_stale(source_id, destination_id)
            if stale is None:
                raise
            self._stale_served += 1
            self._count(1)
            return stale

    async def pairs(
        self, source_ids: Sequence, destination_ids: Sequence, deadline=None
    ) -> np.ndarray:
        """Aligned per-pair distances — the frontend's coalescing
        primitive, served in one concurrent scatter round."""
        if len(source_ids) != len(destination_ids):
            raise ValidationError(
                f"pairs needs aligned sequences, got {len(source_ids)} "
                f"sources and {len(destination_ids)} destinations"
            )
        with self._observe("pairs"):
            outgoing, incoming = await self._gather_rows(
                source_ids, destination_ids, deadline
            )
            self._count(len(source_ids))
            return np.einsum("ij,ij->i", outgoing, incoming)

    async def one_to_many(
        self, source_id: object, destination_ids: Sequence
    ) -> np.ndarray:
        """1:N distances: :meth:`one_to_many_batch` with one query."""
        return (await self.one_to_many_batch([source_id], [destination_ids]))[0]

    async def one_to_many_batch(
        self, source_ids: Sequence, destination_ids: Sequence[Sequence]
    ) -> list[np.ndarray]:
        """Several 1:N queries in one round: ``result[j]`` holds the
        distances from ``source_ids[j]`` to each of
        ``destination_ids[j]``. One ``gather`` per shard fetches every
        source's outgoing row and every destination's incoming row; the
        dot products run here."""
        destination_ids = [list(hosts) for hosts in destination_ids]
        if len(source_ids) != len(destination_ids):
            raise ValidationError(
                f"one_to_many_batch needs one destination list per source, "
                f"got {len(source_ids)} sources and {len(destination_ids)} lists"
            )
        with self._observe("one_to_many"):
            flat = [host for hosts in destination_ids for host in hosts]
            outgoing, incoming = await self._gather_rows(source_ids, flat)
            results = []
            start = 0
            for source_out, hosts in zip(outgoing, destination_ids):
                stop = start + len(hosts)
                results.append(incoming[start:stop] @ source_out)
                start = stop
            self._count(len(flat))
            return results

    async def many_to_many(
        self, source_ids: Sequence, destination_ids: Sequence
    ) -> np.ndarray:
        """The ``(n_src, n_dst)`` block: gather both sides, one product."""
        with self._observe("many_to_many"):
            outgoing, incoming = await self._gather_rows(
                source_ids, destination_ids
            )
            self._count(len(source_ids) * len(destination_ids))
            return outgoing @ incoming.T

    async def k_nearest(
        self,
        source_id: object,
        k: int,
        candidate_ids: Sequence | None = None,
    ) -> list[tuple[object, float]]:
        """Global k-nearest: :meth:`k_nearest_batch` with one query."""
        return (await self.k_nearest_batch([source_id], [k], [candidate_ids]))[0]

    async def k_nearest_batch(
        self,
        source_ids: Sequence,
        ks: Sequence[int],
        candidate_ids: Sequence[Sequence | None],
    ) -> list[list[tuple[object, float]]]:
        """Several global k-nearest queries, each excluding its source.

        ``result[j]`` answers ``source_ids[j]`` with ``ks[j]`` neighbors
        from ``candidate_ids[j]`` (None: every host). One ``gather``
        round fetches every source row; then each shard holding
        candidates gets one ``nearest`` RPC carrying all of them and
        returns its local top-k per query, merged here with a stable
        sort in shard order.
        """
        source_ids = list(source_ids)
        ks = [int(k) for k in ks]
        candidate_ids = list(candidate_ids)
        if not len(source_ids) == len(ks) == len(candidate_ids):
            raise ValidationError(
                f"k_nearest_batch needs one k and one candidate pool per "
                f"source, got {len(source_ids)} sources, {len(ks)} ks and "
                f"{len(candidate_ids)} pools"
            )
        for k in ks:
            if k < 1:
                raise ValidationError(f"k must be >= 1, got {k}")
        with self._observe("k_nearest"):
            source_out, _ = await self._gather_rows(source_ids, ())
            pools = None
            targets = range(self.n_shards)
            if any(candidates is not None for candidates in candidate_ids):
                pools = self._pools_by_shard(candidate_ids)
                targets = [
                    shard for shard, entries in pools.items()
                    if any(pool is None or pool for pool in entries)
                ]

            async def nearest(shard_index: int) -> list[list[tuple]]:
                fields = {"k": ks, "exclude": source_ids}
                if pools is not None:
                    fields["candidates"] = pools[shard_index]
                response = await self.clients[shard_index].call(
                    "nearest", fields, {"source_out": source_out}
                )
                values = response.array("values").tolist()
                answers, start = [], 0
                for ids in response.fields["ids"]:
                    stop = start + len(ids)
                    answers.append(list(zip(ids, values[start:stop])))
                    start = stop
                return answers

            per_shard = await asyncio.gather(*(nearest(s) for s in targets))
            results = []
            scanned = 0
            for j, k in enumerate(ks):
                merged = [entry for answers in per_shard for entry in answers[j]]
                merged.sort(key=lambda entry: entry[1])
                scanned += len(merged)
                results.append(merged[:k])
            self._count(scanned)
            return results

    def _pools_by_shard(self, candidate_ids: list) -> dict[int, list]:
        """``pools[shard][j]``: query ``j``'s candidates that live on
        ``shard``, or None where query ``j`` scans every host."""
        pools = {shard: [] for shard in range(self.n_shards)}
        for candidates in candidate_ids:
            if candidates is None:
                for entries in pools.values():
                    entries.append(None)
                continue
            candidates = list(candidates)
            groups = group_by_shard(candidates, self.n_shards)
            for shard, entries in pools.items():
                entries.append([candidates[p] for p in groups.get(shard, ())])
        return pools

    async def known_hosts(self) -> list:
        """Every identifier stored across the cluster."""
        responses = await asyncio.gather(
            *(client.call("ids") for client in self.clients)
        )
        collected: list = []
        for response in responses:
            collected.extend(response.fields["ids"])
        return collected

    async def _require_dimension(self) -> int:
        if self.dimension is None:
            await self.handshake()
        return int(self.dimension)

    # ------------------------------------------------------------------ #
    # health
    # ------------------------------------------------------------------ #

    async def health(self) -> ServiceHealth:
        """Cluster health with per-shard detail.

        A dark shard becomes a ``reachable=False`` entry instead of an
        exception: a health probe must never be the thing that fails.
        A replica-group client (see
        :mod:`~repro.serving.transport.replica`) is probed on *every*
        replica — the probe is also how recovered replicas rejoin —
        and contributes per-replica states and failover counts to its
        :class:`ShardHealth` entry.
        """

        def replica_detail(client) -> tuple[tuple, int]:
            reporter = getattr(client, "replica_health", None)
            if reporter is None:
                return (), 0
            return reporter(), int(getattr(client, "failovers", 0))

        async def probe(shard_index: int, client: RemoteShardClient):
            prober = getattr(client, "probe", None)
            try:
                if prober is not None:
                    response = await prober()
                else:
                    response = await client.call("health")
            except TransportError:
                replicas, failovers = replica_detail(client)
                return ShardHealth(
                    shard_index=shard_index,
                    n_hosts=0,
                    address=client.address,
                    reachable=False,
                    replicas=replicas,
                    failovers=failovers,
                    group_overload_events=int(
                        getattr(client, "overload_events", 0)
                    ),
                )
            fields = response.fields
            replicas, failovers = replica_detail(client)
            return ShardHealth(
                shard_index=shard_index,
                n_hosts=int(fields["n_hosts"]),
                queries_served=int(fields["queries_served"]),
                pairs_evaluated=int(fields["pairs_evaluated"]),
                address=client.address,
                replicas=replicas,
                failovers=failovers,
                overload_rejections=fields.get("overload_rejections"),
                deadline_shed=fields.get("deadline_shed"),
                group_overload_events=int(
                    getattr(client, "overload_events", 0)
                ),
            )

        shards = tuple(
            await asyncio.gather(
                *(probe(i, client) for i, client in enumerate(self.clients))
            )
        )
        cache_stats = self.cache.stats()
        return ServiceHealth(
            n_hosts=sum(shard.n_hosts for shard in shards),
            n_landmarks=0,
            dimension=self.dimension or 0,
            n_shards=self.n_shards,
            shard_occupancy=tuple(shard.n_hosts for shard in shards),
            queries_served=self._queries_served,
            pairs_evaluated=self._pairs_evaluated,
            cache_hits=cache_stats.hits,
            cache_misses=cache_stats.misses,
            cache_size=cache_stats.size,
            cache_max_entries=cache_stats.max_entries,
            cache_admitted=cache_stats.admitted,
            cache_rejected=cache_stats.rejected,
            stale_served=self._stale_served,
            shards=shards,
        )

    # ------------------------------------------------------------------ #
    # the frontend's epoch-guarded cache surface
    # ------------------------------------------------------------------ #

    @property
    def write_epoch(self) -> int:
        """Monotonic count of routed writes (see
        :meth:`DistanceService.write_epoch` for the guard protocol)."""
        return self._write_epoch

    def cache_put_if_current(
        self, epoch: int, source_id: object, destination_id: object, value: float
    ) -> bool:
        """Cache a prediction unless a routed write intervened."""
        if epoch != self._write_epoch:
            return False
        self.cache.put(source_id, destination_id, value)
        return True

    def cache_put_many_if_current(self, epoch: int, entries: Sequence[tuple]) -> int:
        """Bulk :meth:`cache_put_if_current`; returns entries stored."""
        if epoch != self._write_epoch:
            return 0
        for source_id, destination_id, value in entries:
            self.cache.put(source_id, destination_id, value)
        return len(entries)


async def connect_router(
    addresses: Sequence, handshake: bool = True, **options: object
) -> ShardedQueryRouter:
    """Build a router from shard addresses and run the handshake.

    Args:
        addresses: one ``"host:port"`` string (or ``(host, port)``
            tuple) per shard, in shard order.
        handshake: verify the cluster topology before returning.
            ``False`` skips it — for degraded health/shutdown sessions
            against a cluster with dark shards; queries on an
            unverified router fail on first use instead.
        **options: forwarded to :class:`ShardedQueryRouter` and the
            underlying clients (``timeout``, ``retries``, ``pool_size``,
            ``retry_budget``, ``max_in_flight`` go to the clients; the
            rest to the router). One
            :class:`~repro.serving.transport.client.RetryBudget`
            instance passed as ``retry_budget`` is shared by every
            shard client — a cluster-wide cap on retry amplification.
    """
    client_options = {
        key: options.pop(key)
        for key in (
            "pool_size",
            "timeout",
            "retries",
            "retry_backoff",
            "retry_budget",
            "max_in_flight",
        )
        if key in options
    }
    clients = [
        RemoteShardClient(*_parse_address(address), **client_options)
        for address in addresses
    ]
    router = ShardedQueryRouter(clients, **options)
    if handshake:
        try:
            await router.handshake()
        except Exception:
            await router.close()
            raise
    return router


def _is_single_address(address) -> bool:
    """Whether ``address`` names one server (vs a replica group)."""
    if isinstance(address, str):
        return True
    return (
        isinstance(address, (tuple, list))
        and len(address) == 2
        and isinstance(address[0], str)
        and isinstance(address[1], int)
    )


def _address_text(address) -> str:
    host, port = _parse_address(address)
    return f"{host}:{port}"


class ShardReplicator:
    """A synchronous update sink that replicates into a shard cluster.

    Bridges the thread-world of
    :meth:`DistanceService.add_update_sink` /
    :class:`~repro.serving.refresh.RefreshWorker` onto the router's
    asyncio world: the replicator owns a private event loop on a
    daemon thread, and ``__call__`` submits the fan-out there and
    blocks for the result — safe to invoke from any thread (and *only*
    from outside the replicator's own loop, which no caller ever sees).

    Replication is an **upsert** (``put_many``, not ``update_many``):
    the primary service already enforced membership under its own lock
    before invoking the sink, so a host registered on the primary
    after the shards were seeded simply appears on its home shard at
    the next flush — it must not make the shard reject the whole
    sub-batch and silently starve its co-grouped hosts of updates.

    Each address may itself be a sequence of addresses — a **replica
    group** (see :mod:`~repro.serving.transport.replica`): the flush
    then fans out to every replica of every slice, which is exactly
    the stream that keeps warm standbys convergent between snapshot
    re-seeds.

    The replicator carries a stable :attr:`sink_name` derived from the
    cluster topology it writes to, so
    :meth:`DistanceService.add_update_sink`'s per-sink failure
    attribution survives sinks being added and removed around it —
    positional ``sink-{n}`` default names shift when an earlier sink
    is detached mid-run, silently re-attributing later failures.

    Usage::

        replicator = ShardReplicator(["127.0.0.1:7001", "127.0.0.1:7002"])
        service.add_update_sink(replicator)   # refresh flushes now fan out
        ...
        service.remove_update_sink(replicator)
        replicator.close()
    """

    def __init__(
        self,
        addresses: Sequence,
        call_timeout: float = 30.0,
        **options: object,
    ):
        self.call_timeout = float(call_timeout)
        addresses = list(addresses)
        #: Stable identity for per-sink failure attribution: the
        #: cluster topology, slices ``;``-separated and replicas
        #: ``|``-separated, independent of attachment order.
        self.sink_name = "replicator[" + ";".join(
            _address_text(address)
            if _is_single_address(address)
            else "|".join(_address_text(replica) for replica in address)
            for address in addresses
        ) + "]"
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name="ides-shard-replicator",
            daemon=True,
        )
        self._thread.start()
        try:
            if all(_is_single_address(address) for address in addresses):
                connect = connect_router(addresses, **options)
            else:
                from .replica import connect_replica_router

                replicated = [
                    [address] if _is_single_address(address) else address
                    for address in addresses
                ]
                connect = connect_replica_router(replicated, **options)
            self._router = self._submit(connect)
        except BaseException:
            self._shutdown_loop()
            raise

    def _submit(self, coroutine):
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        return future.result(timeout=self.call_timeout)

    def __call__(
        self, host_ids: Sequence, outgoing: np.ndarray, incoming: np.ndarray
    ) -> int:
        """Fan one vector-update batch out to the cluster (blocking)."""
        return self._submit(
            self._router.put_many(host_ids, outgoing, incoming)
        )

    def health(self) -> ServiceHealth:
        """Cluster health through the replicator's private loop."""
        return self._submit(self._router.health())

    def close(self) -> None:
        """Close the router and stop the private loop thread."""
        try:
            self._submit(self._router.close())
        finally:
            self._shutdown_loop()

    def _shutdown_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)
        if not self._thread.is_alive():
            self._loop.close()
