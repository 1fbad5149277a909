"""Replica groups: N servers per hash slice, health-aware failover.

A single :class:`~repro.serving.transport.server.ShardServer` per hash
slice makes every slice a single point of failure: one dead process is
a dark partition of the directory until a human restarts it.
:class:`ReplicaGroup` removes that coupling by putting **N replica
servers behind one slice** — every replica runs with the same
``shard_index`` / ``n_shards`` and holds the same hosts (seeded from
the same :mod:`~repro.serving.snapshot` file, kept convergent by the
same refresh stream).

The group duck-types the :class:`RemoteShardClient` surface the
router's scatter-gather dispatch uses (``call`` / ``close`` /
``address`` / ``shard_index`` / ``bind_metrics``), so
:class:`~repro.serving.transport.router.ShardedQueryRouter` routes
over replica groups without changing a line of its query planning —
and failover happens *inside* the sub-query, invisible to the caller:

* **Reads** route to the healthiest replica — lowest health score,
  an EWMA of observed RPC latency (``latency_alpha`` weights the
  newest sample) scaled by the replica's observed pipeline depth. A
  replica that fails a read is marked **dark** and the call retries on
  the next-best sibling within the same scatter-gather round; only
  when *every* replica of the slice is dark does the caller see
  :class:`~repro.exceptions.ShardUnavailableError` (carrying the
  slice's ``shard_index``).
* **Writes** (``put_many`` / ``update_many`` / ``delete`` /
  ``shutdown``) fan out to **all** replicas concurrently — including
  dark ones, so a restarted standby starts receiving the live write
  stream immediately. A write succeeds when at least one replica
  acknowledged it; per-replica misses are counted, never raised.
* **Resurrection is gated on catch-up.** Every write acknowledgement
  carries the replica's journal sequence number
  (:mod:`~repro.serving.journal`), and siblings of one slice apply the
  same fanned-out stream, so their seqs are directly comparable. A
  dark replica that acknowledges a write (or answers a
  :meth:`probe`) with a seq *behind* its siblings' becomes
  ``catching_up`` — alive, receiving writes, **out of the read
  rotation** — until a repair replays the entries of its dark window
  from the healthiest sibling (``journal_since``), or re-seeds it over
  the wire (``export``) when the sibling's journal has truncated the
  gap, and a digest comparison proves bit-equality. Only servers that
  report seqs get the gate; a pre-journal server keeps the legacy
  first-acknowledged-write resurrection.
* **Anti-entropy**: :meth:`repair` runs one digest-exchange round over
  the whole group and repairs any divergence it finds;
  :meth:`start_anti_entropy` runs that round on a background interval
  (``connect_replica_router(..., anti_entropy_seconds=...)``), so
  divergence is found even when no write happens to expose it.
* **Dark replicas** are sidelined from reads for ``reprobe_seconds``
  (bounding the tail latency a freshly killed server can add), then
  become eligible again behind the active ones. :meth:`probe` —
  the router's health path — contacts every replica and refreshes
  states in one round, with the same seq gate as the write path.

Everything is observable: replica states, failover counts, seq lags,
repair counts and per-replica latency histograms land in the metrics
registry (``ides_replica_*``), and :meth:`replica_health` feeds the
per-replica detail into :class:`~repro.core.diagnostics.ShardHealth`.
"""

from __future__ import annotations

import asyncio
import time
from typing import Sequence

from ...core.diagnostics import ReplicaHealth
from ...exceptions import (
    OverloadedError,
    ShardUnavailableError,
    ValidationError,
)
from ..observability.metrics import Sample
from .client import RemoteShardClient
from .router import ShardedQueryRouter, _parse_address

__all__ = ["ReplicaGroup", "connect_replica_router"]

#: Operations that mutate shard state (plus ``shutdown``): fanned out
#: to every replica so siblings stay convergent. Everything else is a
#: read and routes to the healthiest replica with sibling failover.
FANOUT_OPS = frozenset({"put_many", "update_many", "delete", "shutdown"})

#: EWMA smoothing factor for the per-replica latency estimate: the
#: weight of the newest RPC's latency.
LATENCY_ALPHA = 0.2

#: Digest-check / replay iterations one repair attempt may spend
#: before giving up and leaving the replica ``catching_up`` (the next
#: anti-entropy round retries). Bounds repair work under a write
#: stream that keeps moving the target.
REPAIR_ROUNDS = 5

#: Re-seed chunk: hosts per ``put_many`` when a repair ships a full
#: store copy (keeps frames far under ``MAX_FRAME_BYTES``).
RESEED_CHUNK = 256

#: Reserved host id for the seq-alignment no-op: deleting a host that
#: does not exist changes no content but journals one entry, carrying
#: the repair's seq stamp so a caught-up replica lands on its source's
#: exact high-water mark. The NUL prefix keeps it out of any real id
#: space.
SEQ_ALIGN_ID = "\x00ides-seq-align"


def _response_fields(result) -> dict:
    """The field dict of an RPC result (Message or plain mapping)."""
    fields = getattr(result, "fields", None)
    if isinstance(fields, dict):
        return fields
    if isinstance(result, dict):
        return result
    return {}


def _response_arrays(result) -> dict:
    arrays = getattr(result, "arrays", None)
    return arrays if isinstance(arrays, dict) else {}


def _response_seq(result, key: str = "seq") -> int | None:
    """The journal seq an acknowledgement reported (None: no journal)."""
    seq = _response_fields(result).get(key)
    return seq if isinstance(seq, int) and not isinstance(seq, bool) else None


class _Replica:
    """One member of a group: a client plus its health bookkeeping."""

    __slots__ = (
        "client",
        "ewma_latency",
        "state",
        "dark_since",
        "failures",
        "applied_seq",
        "repairs",
        "last_repair_seconds",
        "repair_task",
    )

    def __init__(self, client: RemoteShardClient):
        self.client = client
        self.ewma_latency: float | None = None
        self.state = "active"
        self.dark_since = 0.0
        self.failures = 0
        #: Journal high-water mark this replica last acknowledged
        #: (``None`` until it reports one — e.g. a pre-journal server).
        self.applied_seq: int | None = None
        #: Catch-up repairs completed on this replica.
        self.repairs = 0
        self.last_repair_seconds: float | None = None
        self.repair_task: asyncio.Task | None = None


class ReplicaGroup:
    """N interchangeable shard servers behind one hash slice.

    Args:
        clients: one :class:`RemoteShardClient` per replica, all
            pointing at servers that run the *same* shard slot.
        shard_index: the slice this group serves (the router assigns it
            positionally, exactly as it does for a bare client).
        reprobe_seconds: how long a dark replica is sidelined from
            reads before it becomes eligible again (writes and
            :meth:`probe` always reach it).
        latency_alpha: EWMA weight for the per-replica latency score.
        clock: injectable monotonic time source (tests advance it
            instead of sleeping).
    """

    def __init__(
        self,
        clients: Sequence[RemoteShardClient],
        shard_index: int | None = None,
        reprobe_seconds: float = 1.0,
        latency_alpha: float = LATENCY_ALPHA,
        clock=time.monotonic,
    ):
        if not clients:
            raise ValidationError("a replica group needs at least one client")
        if not 0.0 < latency_alpha <= 1.0:
            raise ValidationError(
                f"latency_alpha must be in (0, 1], got {latency_alpha}"
            )
        self._replicas = [_Replica(client) for client in clients]
        self._shard_index = shard_index
        self.reprobe_seconds = float(reprobe_seconds)
        self.latency_alpha = float(latency_alpha)
        self._clock = clock
        #: Reads that moved on to a sibling after a replica failed.
        self.failovers = 0
        #: Read passes where *every* sibling failed together — a
        #: group-saturation signal (co-timeouts under load, shared
        #: dependency stall, or an explicit all-overloaded round), not
        #: N independent dead replicas. No replica is darkened and no
        #: repair is scheduled for these.
        self.overload_events = 0
        #: Anti-entropy rounds that raised (loop keeps running).
        self.anti_entropy_failures = 0
        #: Serializes repairs within the group: two interleaved repairs
        #: of one slice would race their seq stamps. Created lazily —
        #: the constructor may run outside any event loop.
        self._repair_lock: asyncio.Lock | None = None
        self._anti_entropy_task: asyncio.Task | None = None
        #: Optional per-replica latency histogram, attached by
        #: :meth:`bind_metrics`; ``None`` keeps the hot path untouched.
        self._replica_seconds = None
        self._latency_children: dict[str, object] = {}

    # ------------------------------------------------------------------ #
    # the RemoteShardClient surface the router dispatches against
    # ------------------------------------------------------------------ #

    @property
    def shard_index(self) -> int | None:
        """The hash slice this group serves."""
        return self._shard_index

    @shard_index.setter
    def shard_index(self, value: int | None) -> None:
        self._shard_index = value
        for replica in self._replicas:
            replica.client.shard_index = value

    @property
    def address(self) -> str:
        """Every replica address, ``|``-joined (health reports)."""
        return "|".join(r.client.address for r in self._replicas)

    @property
    def n_replicas(self) -> int:
        """Replicas in the group (dark ones included)."""
        return len(self._replicas)

    @property
    def clients(self) -> list[RemoteShardClient]:
        """The member clients, in construction order."""
        return [replica.client for replica in self._replicas]

    async def call(self, op, fields=None, arrays=None, deadline=None):
        """One slice RPC: reads fail over, writes fan out.

        The failure contract matches a bare client: live-server errors
        (``ValidationError``, ``ProtocolError``, ``RemoteShardError``)
        raise immediately — a replica answering *wrongly* is not a
        replica that is down — and
        :class:`~repro.exceptions.ShardUnavailableError` surfaces only
        when no replica could serve the call. ``deadline`` rides into
        the member client RPCs (reads only — a write fan-out must
        reach every sibling to keep them convergent).
        """
        if op in FANOUT_OPS:
            return await self._fanout(op, fields, arrays)
        return await self._read(op, fields, arrays, deadline=deadline)

    async def close(self) -> None:
        """Close every replica's connection pool (and stop repair work)."""
        tasks = [self._anti_entropy_task] + [
            r.repair_task for r in self._replicas
        ]
        self._anti_entropy_task = None
        for task in tasks:
            if task is not None and not task.done():
                task.cancel()
        live = [t for t in tasks if t is not None]
        if live:
            await asyncio.gather(*live, return_exceptions=True)
        await asyncio.gather(*(r.client.close() for r in self._replicas))

    # ------------------------------------------------------------------ #
    # health scoring and state
    # ------------------------------------------------------------------ #

    def _score(self, replica: _Replica) -> float:
        """Lower is healthier: EWMA latency scaled by pipeline depth.

        An untried replica scores near zero, so fresh capacity is
        probed before a replica with any observed latency.
        """
        latency = replica.ewma_latency or 0.0
        client = replica.client
        capacity = max(1, client.max_in_flight * client.pool_size)
        depth = client.in_flight / capacity
        return latency * (1.0 + depth) + depth * 1e-6

    def _read_candidates(self) -> list[_Replica]:
        """Replicas in try order: active by score, then fallbacks.

        A ``catching_up`` replica is **never** read while any sibling
        is active — that is the resurrection gate: it acknowledges
        writes but its store still misses its dark window. Dark
        replicas sidelined less than ``reprobe_seconds`` ago are
        skipped (a freshly killed server must not add its connect
        timeout to every unlucky read). When no replica is active at
        all, availability wins over staleness: catching-up replicas
        (alive, bounded-stale) are tried first, then every dark one —
        total sidelining would turn a recoverable blip into a
        guaranteed error.
        """
        now = self._clock()
        active = sorted(
            (r for r in self._replicas if r.state == "active"), key=self._score
        )
        if active:
            dark = [
                r
                for r in self._replicas
                if r.state == "dark"
                and now - r.dark_since >= self.reprobe_seconds
            ]
            dark.sort(key=lambda r: r.dark_since)
            return active + dark
        catching_up = sorted(
            (r for r in self._replicas if r.state == "catching_up"),
            key=self._score,
        )
        dark = [r for r in self._replicas if r.state == "dark"]
        # Longest-dark first: it has had the most time to come back.
        dark.sort(key=lambda r: r.dark_since)
        return catching_up + dark

    def _mark_dark(self, replica: _Replica) -> None:
        replica.state = "dark"
        replica.dark_since = self._clock()

    def _mark_active(self, replica: _Replica) -> None:
        replica.state = "active"

    def _mark_catching_up(self, replica: _Replica) -> None:
        replica.state = "catching_up"

    def _known_seqs(self) -> list[int]:
        return [
            r.applied_seq for r in self._replicas if r.applied_seq is not None
        ]

    def _gate_acknowledged(self, acknowledged) -> None:
        """Apply the catch-up gate to one round of acknowledgements.

        ``acknowledged`` is ``(replica, seq)`` pairs from one fanout or
        probe round. Siblings apply the same write stream, so within a
        round the seqs are directly comparable: a replica behind the
        round's maximum missed writes — it leaves the read rotation
        (``catching_up``) and a repair is scheduled. A replica at the
        maximum (or one that reports no seq — a pre-journal server,
        which keeps the legacy contract) is marked active.
        """
        seqs = [seq for _, seq in acknowledged if seq is not None]
        top = max(seqs) if seqs else None
        for replica, seq in acknowledged:
            if seq is not None:
                replica.applied_seq = seq
            if top is None or seq is None or seq >= top:
                self._mark_active(replica)
            else:
                self._mark_catching_up(replica)
                self._schedule_repair(replica)

    def replica_health(self) -> tuple[ReplicaHealth, ...]:
        """Per-replica state for :class:`ShardHealth` (no RPCs)."""
        seqs = self._known_seqs()
        top = max(seqs) if seqs else None
        return tuple(
            ReplicaHealth(
                address=r.client.address,
                state=r.state,
                ewma_latency_ms=(
                    r.ewma_latency * 1000.0
                    if r.ewma_latency is not None
                    else None
                ),
                in_flight=r.client.in_flight,
                failures=r.failures,
                applied_seq=r.applied_seq,
                seq_lag=(
                    top - r.applied_seq
                    if top is not None and r.applied_seq is not None
                    else None
                ),
                repairs=r.repairs,
                last_repair_seconds=r.last_repair_seconds,
            )
            for r in self._replicas
        )

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #

    async def _timed(self, replica: _Replica, op, fields, arrays, deadline=None):
        """One replica RPC, feeding the latency EWMA and histogram.

        An overload rejection or deadline shed raises before the
        latency note on purpose: both return fast and would drag the
        EWMA down, making the *saturated* replica look like the
        healthiest.
        """
        started = time.perf_counter()
        try:
            response = await replica.client.call(
                op, fields, arrays, deadline=deadline
            )
        except ShardUnavailableError:
            replica.failures += 1
            raise
        self._note_latency(replica, time.perf_counter() - started)
        return response

    def _note_latency(self, replica: _Replica, elapsed: float) -> None:
        alpha = self.latency_alpha
        previous = replica.ewma_latency
        replica.ewma_latency = (
            elapsed
            if previous is None
            else (1.0 - alpha) * previous + alpha * elapsed
        )
        if self._replica_seconds is not None:
            address = replica.client.address
            child = self._latency_children.get(address)
            if child is None:
                child = self._latency_children[address] = (
                    self._replica_seconds.labels(
                        shard=self._shard_label(), replica=address
                    )
                )
            child.observe(elapsed)

    async def _read(self, op, fields, arrays, deadline=None):
        """Healthiest-first read with in-call failover to siblings.

        Darkening is **deferred**: a replica that fails with
        :class:`ShardUnavailableError` is a *suspect* and only becomes
        dark once a sibling succeeds within the same pass —
        differential evidence that this replica specifically is down.
        When every candidate fails together the pass is
        indistinguishable from group-wide saturation (co-timeouts under
        load, a shared dependency stalling), so it counts one
        :attr:`overload_events` signal and leaves replica states alone
        rather than darkening N siblings and scheduling needless
        repairs. An :class:`~repro.exceptions.OverloadedError` never
        darkens either — the server is alive, just refusing admission —
        it fails over to the next sibling and surfaces only when every
        replica refused. A
        :class:`~repro.exceptions.DeadlineExceededError` propagates
        immediately without failover: an expired budget is equally
        expired at every sibling.
        """
        candidates = self._read_candidates()
        failure: ShardUnavailableError | None = None
        overloaded: OverloadedError | None = None
        suspects: list[_Replica] = []
        for position, replica in enumerate(candidates):
            try:
                response = await self._timed(
                    replica, op, fields, arrays, deadline=deadline
                )
            except ShardUnavailableError as dark:
                suspects.append(replica)
                failure = dark
                if position + 1 < len(candidates):
                    self.failovers += 1
                continue
            except OverloadedError as saturated:
                overloaded = saturated
                if position + 1 < len(candidates):
                    self.failovers += 1
                continue
            for suspect in suspects:
                self._mark_dark(suspect)
            if replica.state != "catching_up":
                # A catching-up replica only appears here as the last
                # resort (no active sibling); serving one stale read
                # must not re-admit it to the rotation.
                self._mark_active(replica)
            return response
        self.overload_events += 1
        if overloaded is not None:
            raise overloaded
        detail = f" (last: {failure})" if failure is not None else ""
        raise ShardUnavailableError(
            f"all {len(self._replicas)} replicas of shard "
            f"{self._shard_index} are unreachable{detail}",
            shard_index=self._shard_index,
        )

    async def _fanout(self, op, fields, arrays):
        """Write to every replica; succeed when at least one did.

        Dark replicas are included on purpose: a restarted standby
        starts applying the live stream with its first acknowledged
        write. Whether that acknowledgement re-admits it to the read
        rotation is the catch-up gate's call
        (:meth:`_gate_acknowledged`): an ack whose journal seq trails
        its siblings' proves missed writes, so the replica surfaces as
        ``catching_up`` and a background repair replays its gap first.
        """
        replicas = list(self._replicas)
        results = await asyncio.gather(
            *(self._timed(r, op, fields, arrays) for r in replicas),
            return_exceptions=True,
        )
        response = None
        hard_failure: BaseException | None = None
        acknowledged: list[tuple[_Replica, int | None]] = []
        for replica, result in zip(replicas, results):
            if isinstance(result, ShardUnavailableError):
                self._mark_dark(replica)
            elif isinstance(result, BaseException):
                # A live server refused the request (bad write, server
                # bug): not an availability event — the replica stays
                # in its state, the failure is counted, and it is
                # raised only when no sibling accepted the write.
                replica.failures += 1
                hard_failure = hard_failure or result
            else:
                acknowledged.append((replica, _response_seq(result)))
                if response is None:
                    response = result
        self._gate_acknowledged(acknowledged)
        if response is not None:
            return response
        if hard_failure is not None:
            raise hard_failure
        raise ShardUnavailableError(
            f"no replica of shard {self._shard_index} accepted {op!r} "
            f"({len(replicas)} tried)",
            shard_index=self._shard_index,
        )

    async def probe(self):
        """Contact *every* replica with a ``health`` RPC.

        Refreshes states in one concurrent round — the one read path
        that reaches dark replicas unconditionally, so a health probe
        is also how a recovered replica rejoins without waiting for a
        write. The same catch-up gate as the write path applies: a
        replica answering with a ``journal_seq`` behind its siblings'
        is stale (e.g. freshly restarted from an old snapshot) and
        becomes ``catching_up``, not active. Returns the healthiest
        live replica's response; raises
        :class:`ShardUnavailableError` only when the whole group is
        dark.
        """
        replicas = list(self._replicas)
        results = await asyncio.gather(
            *(self._timed(r, "health", None, None) for r in replicas),
            return_exceptions=True,
        )
        answers: dict[int, object] = {}
        acknowledged: list[tuple[_Replica, int | None]] = []
        for index, (replica, result) in enumerate(zip(replicas, results)):
            if isinstance(result, ShardUnavailableError):
                self._mark_dark(replica)
            elif isinstance(result, BaseException):
                raise result
            else:
                acknowledged.append(
                    (replica, _response_seq(result, key="journal_seq"))
                )
                answers[index] = result
        self._gate_acknowledged(acknowledged)
        for replica in self._read_candidates():
            index = self._replicas.index(replica)
            if index in answers:
                return answers[index]
        if not answers:
            raise ShardUnavailableError(
                f"all {len(self._replicas)} replicas of shard "
                f"{self._shard_index} are unreachable",
                shard_index=self._shard_index,
            )
        # Unreachable: every live replica is in answers, and the first
        # read candidate of a group with any live replica is live.
        return next(iter(answers.values()))  # pragma: no cover

    # ------------------------------------------------------------------ #
    # anti-entropy repair
    # ------------------------------------------------------------------ #

    def _schedule_repair(self, replica: _Replica) -> None:
        """Kick off a background catch-up repair (at most one per replica)."""
        task = replica.repair_task
        if task is not None and not task.done():
            return
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            # Sync caller (state poked from a test): the next probe or
            # anti-entropy round picks the replica up instead.
            return
        replica.repair_task = loop.create_task(self._repair_replica(replica))

    async def _repair_replica(self, replica: _Replica) -> bool:
        source = self._best_source(exclude=replica)
        if source is None:
            return False
        try:
            return await self._repair_from(source, replica)
        except asyncio.CancelledError:
            raise
        except ShardUnavailableError:
            return False
        except Exception:  # noqa: BLE001 - a failed repair must never
            # take the group down; the next round retries
            replica.failures += 1
            return False

    def _best_source(self, exclude: _Replica) -> _Replica | None:
        """The repair source: active, most-applied, healthiest sibling."""
        candidates = [
            r
            for r in self._replicas
            if r is not exclude and r.state == "active"
        ]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda r: (
                -(r.applied_seq if r.applied_seq is not None else -1),
                self._score(r),
            ),
        )

    async def repair(self) -> dict:
        """One full anti-entropy round: digest exchange + repairs.

        Every replica is asked for its ``digest``; the active replica
        with the highest seq (healthiest on ties) becomes the source
        of truth, and every live sibling whose digest differs — or
        whose seq lags — is repaired toward it. Returns a per-address
        report (state, seq, digest, repair outcome) for operators
        (``ides-experiment serve repair``).
        """
        replicas = list(self._replicas)
        results = await asyncio.gather(
            *(self._timed(r, "digest", None, None) for r in replicas),
            return_exceptions=True,
        )
        report: dict[str, dict] = {}
        live: list[tuple[_Replica, object, int | None]] = []
        for replica, result in zip(replicas, results):
            address = replica.client.address
            if isinstance(result, ShardUnavailableError):
                self._mark_dark(replica)
                report[address] = {"state": replica.state, "error": str(result)}
            elif isinstance(result, BaseException):
                replica.failures += 1
                report[address] = {"state": replica.state, "error": str(result)}
            else:
                fields = _response_fields(result)
                digest = fields.get("digest")
                seq = _response_seq(result)
                if seq is not None:
                    replica.applied_seq = seq
                live.append((replica, digest, seq))
                report[address] = {
                    "state": replica.state,
                    "seq": seq,
                    "digest": digest,
                }
        if not live:
            return report
        source = self._elect_source(live)
        source_digest = next(d for r, d, _ in live if r is source)
        source_seq = next(s for r, _, s in live if r is source)
        self._mark_active(source)
        report[source.client.address]["role"] = "source"
        report[source.client.address]["state"] = source.state
        for replica, digest, seq in live:
            if replica is source:
                continue
            address = replica.client.address
            converged = (
                digest is not None
                and digest == source_digest
                and (seq == source_seq or seq is None or source_seq is None)
            )
            if converged:
                self._mark_active(replica)
            else:
                try:
                    report[address]["repaired"] = await self._repair_from(
                        source, replica
                    )
                except asyncio.CancelledError:
                    raise
                except ShardUnavailableError:
                    report[address]["repaired"] = False
                except Exception as failed:  # noqa: BLE001 - keep the round
                    replica.failures += 1
                    report[address]["repaired"] = False
                    report[address]["error"] = str(failed)
            report[address]["state"] = replica.state
            report[address]["seq"] = replica.applied_seq
        return report

    def _elect_source(self, live) -> _Replica:
        """Source of truth: active first, then highest seq, then score."""

        def rank(item):
            replica, _digest, seq = item
            return (
                0 if replica.state == "active" else 1,
                -(seq if seq is not None else -1),
                self._score(replica),
            )

        return min(live, key=rank)[0]

    async def _repair_call(self, replica: _Replica, op, fields=None, arrays=None):
        """One repair-path RPC; an unreachable peer goes dark."""
        try:
            return await self._timed(replica, op, fields, arrays)
        except ShardUnavailableError:
            self._mark_dark(replica)
            raise

    async def _repair_from(self, source: _Replica, target: _Replica) -> bool:
        """Catch ``target`` up to ``source``; True when digest-equal.

        Serialized per group — two interleaved repairs of one slice
        would race their replayed writes and seq stamps.
        """
        if self._repair_lock is None:
            self._repair_lock = asyncio.Lock()
        async with self._repair_lock:
            try:
                return await self._repair_from_locked(source, target)
            except ValidationError as unsupported:
                if "unknown operation" in str(unsupported):
                    # A pre-journal server in the pair: convergence is
                    # unverifiable, so keep the legacy
                    # resurrect-on-acknowledgement contract rather than
                    # wedging the replica out of rotation forever.
                    self._mark_active(target)
                    return True
                raise

    async def _repair_from_locked(
        self, source: _Replica, target: _Replica
    ) -> bool:
        started = time.perf_counter()
        for _ in range(REPAIR_ROUNDS):
            src = _response_fields(
                await self._repair_call(source, "digest", None, None)
            )
            tgt = _response_fields(
                await self._repair_call(target, "digest", None, None)
            )
            src_digest, tgt_digest = src.get("digest"), tgt.get("digest")
            src_seq = src.get("seq") if isinstance(src.get("seq"), int) else None
            tgt_seq = tgt.get("seq") if isinstance(tgt.get("seq"), int) else None
            if src_seq is not None:
                source.applied_seq = src_seq
            if tgt_seq is not None:
                target.applied_seq = tgt_seq
            if src_digest is None or tgt_digest is None:
                # One side cannot prove content (no digest support):
                # nothing to verify against — legacy contract.
                self._mark_active(target)
                return True
            if src_digest == tgt_digest:
                if (
                    src_seq is not None
                    and tgt_seq is not None
                    and src_seq != tgt_seq
                ):
                    # Content equal but the counters disagree — replay
                    # stamps can land above the source's own high-water
                    # mark when the target interleaved writes of its
                    # own. Stamp whichever side trails up to the max
                    # with the no-op entry, or the next write ack would
                    # demote the trailing replica right back.
                    high = max(src_seq, tgt_seq)
                    behind = target if tgt_seq < src_seq else source
                    await self._repair_call(
                        behind,
                        "delete",
                        {"id": SEQ_ALIGN_ID, "seq": high},
                        None,
                    )
                    behind.applied_seq = high
                self._mark_active(target)
                target.repairs += 1
                target.last_repair_seconds = time.perf_counter() - started
                return True
            self._mark_catching_up(target)
            if src_seq is None or tgt_seq is None or tgt_seq >= src_seq:
                # Equal stream length, different content: replay cannot
                # explain the difference — true divergence, re-seed.
                await self._reseed(source, target)
                continue
            if not await self._replay(source, target, since=tgt_seq):
                # The source's journal no longer covers the gap.
                await self._reseed(source, target)
        return False

    async def _replay(
        self, source: _Replica, target: _Replica, since: int
    ) -> bool:
        """Replay source's journal after ``since`` onto target.

        Entries re-apply under their original ops (updates as puts —
        the target may have missed the original registration) with the
        source's seq as the replay stamp. Returns False when the
        source reports the gap truncated (caller re-seeds).
        """
        cursor = int(since)
        while True:
            reply = await self._repair_call(
                source, "journal_since", {"since": cursor}, None
            )
            fields = _response_fields(reply)
            if fields.get("truncated"):
                return False
            entries = fields.get("entries")
            if not isinstance(entries, list) or not entries:
                return True
            arrays = _response_arrays(reply)
            advanced = cursor
            for index, meta in enumerate(entries):
                if not isinstance(meta, dict):
                    return True
                seq = meta.get("seq")
                stamp = seq if isinstance(seq, int) else None
                ids = meta.get("ids") or []
                if meta.get("op") == "delete":
                    for host_id in ids:
                        await self._repair_call(
                            target, "delete", {"id": host_id, "seq": stamp}, None
                        )
                else:
                    await self._repair_call(
                        target,
                        "put_many",
                        {"ids": ids, "seq": stamp},
                        {
                            "outgoing": arrays[f"out_{index}"],
                            "incoming": arrays[f"in_{index}"],
                        },
                    )
                if stamp is not None:
                    advanced = max(advanced, stamp)
            if advanced <= cursor:
                # No seq progress (malformed entries): bail out and let
                # the digest check decide.
                return True
            cursor = advanced

    async def _reseed(self, source: _Replica, target: _Replica) -> None:
        """Ship a full copy of source's store to target over the wire.

        The fallback when replay cannot converge: delete the hosts the
        source does not hold, re-put everything it does (chunked far
        under the frame limit), and stamp the target's journal to the
        source's high-water mark.
        """
        stamp = _response_seq(
            await self._repair_call(source, "digest", None, None)
        )
        export = await self._repair_call(source, "export", None, None)
        fields = _response_fields(export)
        ids = fields.get("ids")
        if not isinstance(ids, list):
            raise ValidationError(
                f"replica {source.client.address} export carried no ids"
            )
        arrays = _response_arrays(export)
        outgoing, incoming = arrays.get("outgoing"), arrays.get("incoming")
        target_ids = (
            _response_fields(
                await self._repair_call(target, "ids", None, None)
            ).get("ids")
            or []
        )
        keep = set(ids)
        for host_id in target_ids:
            if host_id not in keep:
                await self._repair_call(
                    target, "delete", {"id": host_id}, None
                )
        for start in range(0, len(ids), RESEED_CHUNK):
            stop = start + RESEED_CHUNK
            await self._repair_call(
                target,
                "put_many",
                {"ids": ids[start:stop]},
                {
                    "outgoing": outgoing[start:stop],
                    "incoming": incoming[start:stop],
                },
            )
        if stamp is not None:
            await self._repair_call(
                target, "delete", {"id": SEQ_ALIGN_ID, "seq": stamp}, None
            )
            target.applied_seq = stamp

    def start_anti_entropy(self, interval: float) -> None:
        """Run :meth:`repair` every ``interval`` seconds in the background.

        Must be called with a running event loop (e.g. right after
        ``connect_replica_router``); :meth:`close` cancels the loop.
        """
        if not interval > 0:
            raise ValidationError(
                f"anti-entropy interval must be > 0, got {interval}"
            )
        if (
            self._anti_entropy_task is not None
            and not self._anti_entropy_task.done()
        ):
            return
        self._anti_entropy_task = asyncio.get_running_loop().create_task(
            self._anti_entropy_loop(float(interval))
        )

    async def _anti_entropy_loop(self, interval: float) -> None:
        while True:
            await asyncio.sleep(interval)
            try:
                await self.repair()
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - the loop must outlive a
                # failed round; divergence detection is retried forever
                self.anti_entropy_failures += 1

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #

    def _shard_label(self) -> str:
        return (
            str(self._shard_index)
            if self._shard_index is not None
            else self.address
        )

    def bind_metrics(self, registry) -> None:
        """Expose the group and every member client.

        Per-replica latency lands in ``ides_replica_rpc_seconds``
        (labeled by shard and replica address); replica states,
        failover and per-replica failure counts become scrape-time
        collector samples. Member clients bind their own
        ``ides_client_*`` series as usual.
        """
        self._replica_seconds = registry.histogram(
            "ides_replica_rpc_seconds",
            "Per-replica RPC latency observed by the replica group.",
            labels=("shard", "replica"),
        )
        for replica in self._replicas:
            replica.client.bind_metrics(registry)

        def collect():
            shard = self._shard_label()
            samples = [
                Sample(
                    "ides_replica_failovers_total", "counter",
                    "Reads retried on a sibling after a replica failed.",
                    (("shard", shard),), self.failovers,
                ),
                Sample(
                    "ides_replica_group_overload_total", "counter",
                    "Read passes where every sibling failed together "
                    "(group saturation, not independent dark replicas).",
                    (("shard", shard),), self.overload_events,
                ),
            ]
            known = self._known_seqs()
            top = max(known) if known else None
            for replica in self._replicas:
                labels = (
                    ("shard", shard),
                    ("replica", replica.client.address),
                )
                state_value = {"active": 1.0, "catching_up": 0.5}.get(
                    replica.state, 0.0
                )
                samples.append(Sample(
                    "ides_replica_state", "gauge",
                    "Replica availability: 1 active, 0.5 catching up, "
                    "0 dark.",
                    labels, state_value,
                ))
                samples.append(Sample(
                    "ides_replica_failures_total", "counter",
                    "Calls this replica failed.",
                    labels, replica.failures,
                ))
                samples.append(Sample(
                    "ides_replica_repairs_total", "counter",
                    "Anti-entropy repairs that converged this replica.",
                    labels, replica.repairs,
                ))
                if top is not None and replica.applied_seq is not None:
                    samples.append(Sample(
                        "ides_replica_seq_lag", "gauge",
                        "Journal entries this replica trails the "
                        "most-applied sibling by.",
                        labels, float(max(0, top - replica.applied_seq)),
                    ))
            return samples

        registry.register_collector(collect)


async def connect_replica_router(
    replica_addresses: Sequence[Sequence],
    handshake: bool = True,
    reprobe_seconds: float = 1.0,
    anti_entropy_seconds: float | None = None,
    **options: object,
) -> ShardedQueryRouter:
    """Build a router whose per-slice client is a :class:`ReplicaGroup`.

    Args:
        replica_addresses: one sequence of addresses per hash slice, in
            shard order — ``replica_addresses[i]`` lists the replicas
            all serving shard ``i`` of ``len(replica_addresses)``.
        handshake: verify the cluster topology before returning (the
            ping reaches each slice's healthiest replica).
        reprobe_seconds: dark-replica read sideline window, forwarded
            to every group.
        anti_entropy_seconds: when set, start every group's background
            digest-exchange repair loop at this interval (see
            :meth:`ReplicaGroup.start_anti_entropy`); None leaves
            repair purely write-gated and operator-triggered.
        **options: forwarded exactly as :func:`connect_router` does —
            client options (``pool_size``, ``timeout``, ``retries``,
            ``retry_backoff``, ``retry_budget``, ``max_in_flight``) to
            the member clients, the rest to the router. Passing one
            :class:`~repro.serving.transport.client.RetryBudget`
            instance shares a single token bucket across every member
            client of every group — a cluster-wide cap on retry
            amplification. Member clients are created with
            ``shard_index=None`` so their telemetry is labeled per
            replica address; slice attribution on errors comes from
            the group.
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
    groups = []
    for addresses in replica_addresses:
        clients = [
            RemoteShardClient(*_parse_address(address), **client_options)
            for address in addresses
        ]
        groups.append(
            ReplicaGroup(clients, reprobe_seconds=reprobe_seconds)
        )
    router = ShardedQueryRouter(groups, **options)
    if handshake:
        try:
            await router.handshake()
        except Exception:
            await router.close()
            raise
    if anti_entropy_seconds is not None:
        for group in groups:
            group.start_anti_entropy(anti_entropy_seconds)
    return router
