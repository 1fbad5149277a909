"""Spectral diagnostics: why low-rank models fit distance matrices.

The paper's central assumption (Section 3) is that "many rows in the
distance matrix are linearly dependent, or nearly so", i.e. the matrix
has low *effective* rank. These diagnostics quantify that assumption
for any data set and back the ``ablate-rank`` experiment.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .._validation import as_matrix, check_fraction
from ..linalg import singular_spectrum

__all__ = [
    "ReplicaHealth",
    "ServiceHealth",
    "ShardHealth",
    "SpectrumDiagnostics",
    "spectrum_diagnostics",
    "effective_rank",
    "rank_for_energy",
    "energy_captured",
]


def effective_rank(matrix: object) -> float:
    """Spectral-entropy effective rank (Roy & Vetterli, 2007).

    ``exp(H(p))`` where ``p`` is the singular-value distribution; equals
    ``k`` for a matrix with ``k`` equal singular values and degrades
    smoothly as the spectrum concentrates. A 110-host matrix with
    effective rank ~4 is why ``d = 10`` reconstructs it almost exactly.
    """
    values = singular_spectrum(as_matrix(matrix, name="matrix"))
    total = values.sum()
    if total == 0.0:
        return 0.0
    probabilities = values / total
    positive = probabilities[probabilities > 0]
    entropy = -np.sum(positive * np.log(positive))
    return float(np.exp(entropy))


def energy_captured(matrix: object, rank: int) -> float:
    """Fraction of squared Frobenius norm captured by the top ``rank``.

    Equals ``1 - (residual of best rank-k approximation)^2 / ||D||_F^2``
    by the Eckart-Young theorem.
    """
    values = singular_spectrum(as_matrix(matrix, name="matrix"))
    squared = values**2
    total = squared.sum()
    if total == 0.0:
        return 1.0
    rank = max(0, min(int(rank), squared.size))
    return float(squared[:rank].sum() / total)


def rank_for_energy(matrix: object, energy: float = 0.99) -> int:
    """Smallest rank capturing at least ``energy`` of the squared norm."""
    target = check_fraction(energy, name="energy")
    values = singular_spectrum(as_matrix(matrix, name="matrix"))
    squared = values**2
    total = squared.sum()
    if total == 0.0:
        return 0
    cumulative = np.cumsum(squared) / total
    return int(np.searchsorted(cumulative, target) + 1)


@dataclass(frozen=True)
class SpectrumDiagnostics:
    """Bundle of spectral statistics for one distance matrix.

    Attributes:
        shape: matrix shape.
        singular_values: full descending spectrum.
        effective_rank: spectral-entropy effective rank.
        rank_90 / rank_99: smallest rank capturing 90% / 99% energy.
        top10_energy: energy fraction captured at rank 10 (the paper's
            recommended dimension).
    """

    shape: tuple[int, int]
    singular_values: np.ndarray
    effective_rank: float
    rank_90: int
    rank_99: int
    top10_energy: float

    def __str__(self) -> str:
        return (
            f"shape={self.shape} eff_rank={self.effective_rank:.2f} "
            f"rank90={self.rank_90} rank99={self.rank_99} "
            f"energy@10={self.top10_energy:.4f}"
        )


@dataclass(frozen=True)
class ReplicaHealth:
    """Health of one replica inside a shard's replica group.

    Attributes:
        address: the replica server's ``host:port``.
        state: ``"active"`` (serving reads), ``"dark"`` (failed its
            last contact; sidelined until a reprobe or a successful
            write resurrects it), or ``"catching_up"`` (answering
            again but behind its siblings' journal; excluded from the
            read rotation until an anti-entropy repair converges it).
        ewma_latency_ms: smoothed RPC latency as seen by the group's
            health scorer, or None before the first completed call.
        in_flight: RPCs currently outstanding on the replica's client.
        failures: calls this replica failed (each one triggered a
            failover to a sibling or a counted write miss).
        applied_seq: the replica's journal high-water mark as last
            observed by the group, or None before any seq was seen.
        seq_lag: how many journal entries this replica trails the
            most-applied sibling by (0 when caught up, None when
            either side's seq is unknown).
        repairs: anti-entropy repairs that converged this replica.
        last_repair_seconds: wall-clock duration of the most recent
            successful repair, or None when never repaired.
    """

    address: str
    state: str
    ewma_latency_ms: float | None = None
    in_flight: int = 0
    failures: int = 0
    applied_seq: int | None = None
    seq_lag: int | None = None
    repairs: int = 0
    last_repair_seconds: float | None = None

    def to_dict(self) -> dict:
        """Plain-JSON form (the ``--json`` health surfaces)."""
        return asdict(self)

    def __str__(self) -> str:
        latency = (
            f" {self.ewma_latency_ms:.1f}ms"
            if self.ewma_latency_ms is not None
            else ""
        )
        lag = f" lag={self.seq_lag}" if self.seq_lag else ""
        return f"{self.address}:{self.state}{latency}{lag}"


@dataclass(frozen=True)
class ShardHealth:
    """Health of one shard of a distributed directory.

    Each :class:`~repro.serving.transport.ShardServer` of a
    cross-process deployment reports its own served-work counters, and
    an unreachable shard is recorded with ``reachable=False`` rather
    than silently dropped — a router health report must show *which*
    partition of the directory is dark.

    Attributes:
        shard_index: the shard's slot in the hash space.
        n_hosts: hosts stored on the shard (0 when unreachable).
        queries_served / pairs_evaluated: the shard's own engine
            counters, or None when the shard could not be contacted.
        address: ``host:port`` of the shard server.
        reachable: False when the shard could not be contacted (for a
            replica group: when *every* replica is dark).
        replicas: per-replica :class:`ReplicaHealth` entries when the
            shard is served by a replica group (empty for a single
            unreplicated server).
        failovers: reads this shard retried on a sibling replica after
            the preferred replica failed.
        overload_rejections: requests the shard server refused at
            admission because it was saturated (None when the server
            predates admission control).
        deadline_shed: requests the shard server dropped because their
            propagated deadline expired while queued (None when
            untracked).
        group_overload_events: read passes in which *every* replica of
            the shard's group failed together — a group-saturation
            signal, deliberately distinct from per-replica dark
            markings (0 for unreplicated shards).
    """

    shard_index: int
    n_hosts: int
    queries_served: int | None = None
    pairs_evaluated: int | None = None
    address: str | None = None
    reachable: bool = True
    replicas: tuple[ReplicaHealth, ...] = ()
    failovers: int = 0
    overload_rejections: int | None = None
    deadline_shed: int | None = None
    group_overload_events: int = 0

    def to_dict(self) -> dict:
        """Plain-JSON form (the ``--json`` health surfaces)."""
        data = asdict(self)
        data["replicas"] = [replica.to_dict() for replica in self.replicas]
        return data

    @property
    def dark_replicas(self) -> int:
        """Replicas currently sidelined as dark (0 when unreplicated)."""
        return sum(1 for replica in self.replicas if replica.state == "dark")

    def __str__(self) -> str:
        location = f"@{self.address}" if self.address else ""
        replicas = ""
        if self.replicas:
            detail = ",".join(str(replica) for replica in self.replicas)
            replicas = f" replicas[{detail}]"
            if self.failovers:
                replicas += f" failovers={self.failovers}"
        if not self.reachable:
            return f"shard{self.shard_index}{location}:UNREACHABLE{replicas}"
        served = (
            f" queries={self.queries_served}"
            if self.queries_served is not None
            else ""
        )
        return (
            f"shard{self.shard_index}{location}:{self.n_hosts}hosts"
            f"{served}{replicas}"
        )


@dataclass(frozen=True)
class ServiceHealth:
    """Operational counters of a running distance-query service.

    Produced by :meth:`repro.serving.DistanceService.health` and printed
    by the CLI ``serve`` commands and ``benchmarks/bench_serving.py``.
    Plain numbers only, so the core layer stays independent of the
    serving implementation.

    Attributes:
        n_hosts: hosts in the vector store (landmarks included).
        n_landmarks: hosts acting as the landmark reference set.
        dimension: model dimension ``d``.
        n_shards: shard count of a routed deployment (0 for a
            single-process service).
        shard_occupancy: hosts per shard (empty when unsharded).
        queries_served: engine calls answered since start/reset.
        pairs_evaluated: (source, destination) pairs predicted.
        cache_hits / cache_misses: point-query cache outcomes.
        cache_size / cache_max_entries: cache occupancy and capacity.
        cache_admitted / cache_rejected: admission-gate outcomes for
            insert offers (rejected stays 0 unless the cache runs a
            doorkeeper admission policy).
        vectors_refreshed: cumulative host-vector updates applied
            through the bulk refresh path.
        refresh_batches: bulk refresh flushes applied.
        seconds_since_refresh: age of the newest refresh flush, or
            None when no refresh ever ran.
        max_vector_age_seconds / mean_vector_age_seconds: staleness of
            the stored vectors (time since each host's last write), or
            None when the service does not track write times.
        shards: per-shard :class:`ShardHealth` entries (empty when
            unsharded); a cross-process router fills per-shard served
            counters and reachability here.
        update_sink_failures: vector-update fan-outs to attached
            replicas (see
            :meth:`~repro.serving.DistanceService.add_update_sink`)
            that raised — replication lag the operator must see.
        update_sink_failures_by_sink: the same failures attributed to
            the sink that raised, as sorted ``(sink_name, count)``
            pairs — a flapping replica is identifiable by name instead
            of hiding inside one global counter. A failure is only
            counted after the service's one bounded in-line retry also
            failed.
        update_sink_last_error: the most recent failure reason per
            sink, as sorted ``(sink_name, "ErrorType: message")``
            pairs — *why* a sink is flapping, not just how often.
        stale_served: point queries answered from a TTL-expired cache
            entry because the owning shard was overloaded (brownout
            degradation; 0 when the service never browned out).
        deadline_rejected: queries refused because their latency
            budget had already expired when they arrived.
    """

    n_hosts: int
    n_landmarks: int
    dimension: int
    n_shards: int
    shard_occupancy: tuple[int, ...]
    queries_served: int
    pairs_evaluated: int
    cache_hits: int
    cache_misses: int
    cache_size: int
    cache_max_entries: int
    cache_admitted: int = 0
    cache_rejected: int = 0
    vectors_refreshed: int = 0
    refresh_batches: int = 0
    seconds_since_refresh: float | None = None
    max_vector_age_seconds: float | None = None
    mean_vector_age_seconds: float | None = None
    shards: tuple[ShardHealth, ...] = ()
    update_sink_failures: int = 0
    update_sink_failures_by_sink: tuple[tuple[str, int], ...] = ()
    update_sink_last_error: tuple[tuple[str, str], ...] = ()
    stale_served: int = 0
    deadline_rejected: int = 0

    def to_dict(self) -> dict:
        """Plain-JSON form (the ``--json`` health surfaces).

        Shards become a list of dicts and the per-sink failure pairs
        become a name -> count mapping; derived rates ride along.
        """
        data = asdict(self)
        data["shard_occupancy"] = list(self.shard_occupancy)
        data["shards"] = [shard.to_dict() for shard in self.shards]
        data["update_sink_failures_by_sink"] = dict(
            self.update_sink_failures_by_sink
        )
        data["update_sink_last_error"] = dict(self.update_sink_last_error)
        data["cache_hit_rate"] = self.cache_hit_rate
        data["shard_imbalance"] = self.shard_imbalance
        data["unreachable_shards"] = self.unreachable_shards
        return data

    @property
    def cache_hit_rate(self) -> float:
        """Cache hits over lookups (0.0 when never queried)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def shard_imbalance(self) -> float:
        """Max over mean shard occupancy (1.0 = perfectly balanced)."""
        if not self.shard_occupancy or sum(self.shard_occupancy) == 0:
            return 1.0
        mean = sum(self.shard_occupancy) / len(self.shard_occupancy)
        return max(self.shard_occupancy) / mean

    @property
    def unreachable_shards(self) -> int:
        """Shards that could not be contacted (0 for local stores)."""
        return sum(1 for shard in self.shards if not shard.reachable)

    def __str__(self) -> str:
        shards = (
            f" shards={self.n_shards} imbalance={self.shard_imbalance:.2f}"
            if self.n_shards
            else ""
        )
        if self.unreachable_shards:
            shards += f" unreachable={self.unreachable_shards}"
        if self.update_sink_failures:
            shards += f" sink_failures={self.update_sink_failures}"
            if self.update_sink_failures_by_sink:
                detail = ",".join(
                    f"{name}={count}"
                    for name, count in self.update_sink_failures_by_sink
                )
                shards += f"({detail})"
        admission = (
            f" cache_rejected={self.cache_rejected}"
            if self.cache_rejected
            else ""
        )
        if self.stale_served:
            admission += f" stale_served={self.stale_served}"
        if self.deadline_rejected:
            admission += f" deadline_rejected={self.deadline_rejected}"
        refresh = ""
        if self.refresh_batches:
            age = (
                f" refresh_age={self.seconds_since_refresh:.1f}s"
                if self.seconds_since_refresh is not None
                else ""
            )
            refresh = (
                f" refreshed={self.vectors_refreshed}"
                f"/{self.refresh_batches}batches{age}"
            )
        staleness = (
            f" max_vector_age={self.max_vector_age_seconds:.1f}s"
            if self.max_vector_age_seconds is not None
            else ""
        )
        return (
            f"hosts={self.n_hosts} landmarks={self.n_landmarks} "
            f"d={self.dimension}{shards} queries={self.queries_served} "
            f"pairs={self.pairs_evaluated} "
            f"cache_hit_rate={self.cache_hit_rate:.3f} "
            f"cache={self.cache_size}/{self.cache_max_entries}"
            f"{admission}{refresh}{staleness}"
        )


def spectrum_diagnostics(matrix: object) -> SpectrumDiagnostics:
    """Compute :class:`SpectrumDiagnostics` for one matrix."""
    data = as_matrix(matrix, name="matrix")
    return SpectrumDiagnostics(
        shape=data.shape,
        singular_values=singular_spectrum(data),
        effective_rank=effective_rank(data),
        rank_90=rank_for_energy(data, 0.90),
        rank_99=rank_for_energy(data, 0.99),
        top10_energy=energy_captured(data, 10),
    )
