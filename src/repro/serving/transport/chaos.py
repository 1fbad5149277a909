"""Deterministic fault injection for the transport tier.

The SIGKILL chaos gate (``tools/smoke_failover.py``) proves the
failover contracts against real processes, but wall-clock chaos is
slow and non-reproducible — a flaky divergence bug that shows up once
per hundred CI runs is effectively unprovable there. This module makes
the same fault classes **deterministic and fast**: a seeded
:class:`ChaosSchedule` turns a PRNG stream into a reproducible
sequence of per-call fault decisions, and :class:`ChaosClient` wraps
any object with the shard-client surface (a real
:class:`~repro.serving.transport.client.RemoteShardClient`, a replica
group member, a test fake) and applies them:

* **drop** — the call never reaches the server; the caller sees
  :class:`~repro.exceptions.ShardUnavailableError`, exactly the signal
  a dead frame produces after the retry budget.
* **delay** — the call is held for ``delay_seconds`` before being
  forwarded (tail-latency injection for the EWMA scoring paths).
* **duplicate** — the call is forwarded twice (the wire vocabulary is
  idempotent by contract; duplication proves it, and proves the
  journal's seq gating self-heals when one replica sees a write
  twice).
* **refuse writes** — mutating ops (``put_many`` / ``update_many`` /
  ``delete``) are answered with
  :class:`~repro.exceptions.RemoteShardError` without touching the
  server, modeling a live server that rejects writes on schedule — the
  divergence generator: one replica applies a write its sibling
  refused.
* **slow reads** — non-mutating ops stall for ``slow_read_seconds``
  before being forwarded, modeling a server that is alive but
  queue-saturated: the fault that deadline budgets, per-attempt
  timeouts and retry budgets exist to bound. Distinct from **delay**,
  which applies to every op class.

Decisions are drawn in a fixed order per call regardless of which
faults are enabled, so the decision *stream* depends only on the seed
and the number of calls — two runs with the same seed and the same
call sequence replay identically (the property the hypothesis suite
pins down).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass

from ...exceptions import (
    RemoteShardError,
    ShardUnavailableError,
    ValidationError,
)

__all__ = ["ChaosClient", "ChaosDecision", "ChaosSchedule", "WRITE_OPS"]

#: Mutating wire operations — the ones ``refuse_writes`` applies to.
WRITE_OPS = frozenset({"put_many", "update_many", "delete"})


@dataclass(frozen=True)
class ChaosDecision:
    """The faults drawn for one call (several may fire together)."""

    drop: bool = False
    delay: bool = False
    duplicate: bool = False
    refuse_write: bool = False
    slow_read: bool = False


class ChaosSchedule:
    """Seeded, replayable stream of per-call fault decisions.

    Args:
        seed: PRNG seed — the whole schedule's identity.
        drop: probability a call is dropped.
        delay: probability a call is delayed by ``delay_seconds``.
        duplicate: probability a call is forwarded twice.
        refuse_writes: probability a *write* call is refused by the
            "server" (reads never draw a refusal fault, but the PRNG
            position advances identically either way).
        delay_seconds: how long a delayed call is held.
        slow_read: probability a *read* call stalls for
            ``slow_read_seconds`` before being forwarded (writes never
            draw a slow-read fault, but the PRNG position advances
            identically either way).
        slow_read_seconds: how long a slowed read stalls.
    """

    def __init__(
        self,
        seed: int = 0,
        drop: float = 0.0,
        delay: float = 0.0,
        duplicate: float = 0.0,
        refuse_writes: float = 0.0,
        delay_seconds: float = 0.0,
        slow_read: float = 0.0,
        slow_read_seconds: float = 0.0,
    ):
        for name, value in (
            ("drop", drop),
            ("delay", delay),
            ("duplicate", duplicate),
            ("refuse_writes", refuse_writes),
            ("slow_read", slow_read),
        ):
            if not 0.0 <= float(value) <= 1.0:
                raise ValidationError(
                    f"{name} must be a probability in [0, 1], got {value}"
                )
        if delay_seconds < 0:
            raise ValidationError(
                f"delay_seconds must be >= 0, got {delay_seconds}"
            )
        if slow_read_seconds < 0:
            raise ValidationError(
                f"slow_read_seconds must be >= 0, got {slow_read_seconds}"
            )
        self.seed = int(seed)
        self.drop = float(drop)
        self.delay = float(delay)
        self.duplicate = float(duplicate)
        self.refuse_writes = float(refuse_writes)
        self.delay_seconds = float(delay_seconds)
        self.slow_read = float(slow_read)
        self.slow_read_seconds = float(slow_read_seconds)
        self._rng = random.Random(self.seed)
        #: Every decision drawn, in draw order — the replay transcript.
        self.history: list[ChaosDecision] = []

    def decide(self, op: str) -> ChaosDecision:
        """Draw the fault decision for one call.

        Five PRNG draws happen unconditionally and in a fixed order,
        so the stream position after N calls depends only on the seed
        and N — never on which probabilities are zero or which ops
        were called.
        """
        draws = (
            self._rng.random(),
            self._rng.random(),
            self._rng.random(),
            self._rng.random(),
            self._rng.random(),
        )
        decision = ChaosDecision(
            drop=draws[0] < self.drop,
            delay=draws[1] < self.delay,
            duplicate=draws[2] < self.duplicate,
            refuse_write=(op in WRITE_OPS) and draws[3] < self.refuse_writes,
            slow_read=(op not in WRITE_OPS) and draws[4] < self.slow_read,
        )
        self.history.append(decision)
        return decision

    def reset(self) -> None:
        """Rewind to the start of the schedule (same seed, fresh stream)."""
        self._rng = random.Random(self.seed)
        self.history.clear()


class ChaosClient:
    """A shard client wrapper that injects a schedule's faults.

    Duck-types the client surface replica groups and routers dispatch
    against (``call`` / ``close`` / ``address`` / ``shard_index`` /
    pool attributes); everything not intercepted delegates to the
    wrapped client, so a :class:`ChaosClient` slots anywhere a
    :class:`RemoteShardClient` does.
    """

    def __init__(self, client, schedule: ChaosSchedule):
        self._client = client
        self.schedule = schedule
        self.dropped = 0
        self.delayed = 0
        self.duplicated = 0
        self.refused_writes = 0
        self.slowed_reads = 0

    @property
    def shard_index(self):
        return getattr(self._client, "shard_index", None)

    @shard_index.setter
    def shard_index(self, value) -> None:
        # Replica groups assign the slice index through this attribute;
        # it must land on the wrapped client so error attribution and
        # telemetry labels stay correct.
        self._client.shard_index = value

    def __getattr__(self, name: str):
        # bind_metrics, address, pool gauges, fake-specific helpers …
        return getattr(self._client, name)

    async def call(self, op, fields=None, arrays=None, deadline=None):
        decision = self.schedule.decide(op)
        if decision.refuse_write:
            self.refused_writes += 1
            raise RemoteShardError(
                f"chaos schedule refused write {op!r} "
                f"(seed {self.schedule.seed})"
            )
        if decision.drop:
            self.dropped += 1
            raise ShardUnavailableError(
                f"chaos schedule dropped {op!r} (seed {self.schedule.seed})",
                shard_index=getattr(self._client, "shard_index", None),
            )
        if decision.delay:
            self.delayed += 1
            if self.schedule.delay_seconds:
                await asyncio.sleep(self.schedule.delay_seconds)
        if decision.slow_read:
            self.slowed_reads += 1
            if self.schedule.slow_read_seconds:
                await asyncio.sleep(self.schedule.slow_read_seconds)
        if decision.duplicate:
            self.duplicated += 1
            await self._client.call(op, fields, arrays, deadline=deadline)
        return await self._client.call(op, fields, arrays, deadline=deadline)

    async def close(self) -> None:
        await self._client.close()
