"""Per-shard update journal: the replication tier's convergence ledger.

Every mutating operation a :class:`~repro.serving.transport.ShardServer`
applies (``put_many`` / ``update_many`` / ``delete``) is assigned a
**monotone per-shard sequence number** and recorded as a
:class:`JournalEntry` in a :class:`ShardJournal`. The journal is what
turns replica convergence from a hope into a checkable contract:

* the **high-water mark** (the last applied seq) is surfaced in the
  ``health`` document, so a replica group can see at a glance which
  sibling has applied the most of the shared write stream;
* ``journal_since(seq)`` (a wire RPC) replays the retained entries a
  lagging sibling missed, so a restarted replica catches up by
  re-applying exactly the writes of its dark window;
* :func:`store_digest` hashes a store's full content in an
  order-independent way, so two replicas can prove bit-equality with
  one small RPC instead of shipping slabs.

The journal is two tiers. The **in-memory ring** is always on: a
bounded deque of the most recent ``capacity`` entries, cheap enough to
keep on every write. The **on-disk segment journal** is optional
(``directory=...``): every entry is additionally appended as one JSON
line to the current segment file — single-line ``O_APPEND`` writes are
atomic on Linux (the same idiom as the trace exporter in
:mod:`~repro.serving.observability.tracing`), so a crash can tear at
most the final line, and the tolerant loader skips it. Segments rotate
at ``segment_max_entries`` lines and only the newest ``max_segments``
are retained, so disk use is bounded.

Durability contract (see ``docs/architecture.md``): the journal is a
*catch-up accelerator*, not a write-ahead log. Entries are recorded
after the store mutation succeeds, rings and segment chains are
bounded, and a replay gap is always detectable — ``entries_since``
reports ``truncated=True`` whenever an entry the caller needs has been
evicted, which tells the repairer to fall back to a full re-seed over
the wire. The convergence authority is the digest comparison, never
the journal alone.

Sequence numbers normally advance by one per applied write. A repair
replay may *stamp* an entry with the source's seq (``append(...,
seq=N)``) so that a caught-up replica lands on the same high-water
mark as its sibling; the journal keeps monotonicity by taking
``max(N, high_water + 1)``.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import deque

import numpy as np

from ..exceptions import ValidationError

__all__ = [
    "JOURNAL_OPS",
    "JournalEntry",
    "ShardJournal",
    "apply_entry",
    "store_digest",
]

#: The mutating wire operations a journal records.
JOURNAL_OPS = ("put_many", "update_many", "delete")

#: Default bound on entries returned by one ``entries_since`` call —
#: the per-response chunk size of the ``journal_since`` RPC.
REPLAY_CHUNK = 64

_SEGMENT_PREFIX = "journal-"
_SEGMENT_SUFFIX = ".jsonl"


class JournalEntry:
    """One applied mutation: seq, op, host ids and (for puts) vectors.

    ``outgoing`` / ``incoming`` are ``(len(ids), d)`` float64 arrays
    for ``put_many`` / ``update_many`` and ``None`` for ``delete``.
    Entries are immutable by convention — they are shared with the
    ring, the wire encoder and the disk writer.
    """

    __slots__ = ("seq", "op", "ids", "outgoing", "incoming")

    def __init__(self, seq, op, ids, outgoing=None, incoming=None):
        if op not in JOURNAL_OPS:
            raise ValidationError(
                f"journal op must be one of {JOURNAL_OPS}, got {op!r}"
            )
        self.seq = int(seq)
        self.op = op
        self.ids = list(ids)
        self.outgoing = outgoing
        self.incoming = incoming

    def to_line(self) -> str:
        """One JSON line for the on-disk segment journal.

        Python float ``repr`` round-trips IEEE doubles exactly, so a
        reloaded entry re-applies bit-identically.
        """
        payload = {"seq": self.seq, "op": self.op, "ids": self.ids}
        if self.outgoing is not None:
            payload["outgoing"] = np.asarray(self.outgoing, dtype=np.float64).tolist()
            payload["incoming"] = np.asarray(self.incoming, dtype=np.float64).tolist()
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_line(cls, line: str) -> "JournalEntry | None":
        """Decode one segment line; ``None`` for torn/alien lines."""
        line = line.strip()
        if not line:
            return None
        try:
            payload = json.loads(line)
            outgoing = payload.get("outgoing")
            incoming = payload.get("incoming")
            return cls(
                seq=payload["seq"],
                op=payload["op"],
                ids=payload["ids"],
                outgoing=(
                    None
                    if outgoing is None
                    else np.asarray(outgoing, dtype=np.float64)
                ),
                incoming=(
                    None
                    if incoming is None
                    else np.asarray(incoming, dtype=np.float64)
                ),
            )
        except (ValueError, KeyError, TypeError):
            return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JournalEntry(seq={self.seq}, op={self.op!r}, "
            f"ids={len(self.ids)})"
        )


class ShardJournal:
    """Bounded mutation journal for one shard replica.

    Args:
        capacity: entries retained in the in-memory ring; older entries
            are evicted (and their eviction recorded, so replay gaps
            are detectable).
        directory: optional segment-journal directory. When set, every
            appended entry is also written as one JSON line, existing
            segments are loaded at construction (restoring the
            high-water mark across restarts), and
            :meth:`replay_into` can re-apply the loaded entries to a
            freshly seeded store.
        segment_max_entries: lines per segment file before rotation.
        max_segments: newest segment files retained after rotation.
    """

    def __init__(
        self,
        capacity: int = 4096,
        directory: str | None = None,
        segment_max_entries: int = 1024,
        max_segments: int = 8,
    ):
        if int(capacity) < 1:
            raise ValidationError(f"capacity must be >= 1, got {capacity}")
        if int(segment_max_entries) < 1:
            raise ValidationError(
                f"segment_max_entries must be >= 1, got {segment_max_entries}"
            )
        if int(max_segments) < 1:
            raise ValidationError(
                f"max_segments must be >= 1, got {max_segments}"
            )
        self.capacity = int(capacity)
        self.directory = directory
        self.segment_max_entries = int(segment_max_entries)
        self.max_segments = int(max_segments)
        self._ring: deque[JournalEntry] = deque()
        self._lock = threading.Lock()
        self._high_water = 0
        #: Highest seq ever evicted from the ring (or unrecoverable
        #: from disk at load time): anything at or below it cannot be
        #: replayed from here.
        self._evicted_through = 0
        self.evicted = 0
        self.appended = 0
        self._segment_index = 0
        self._segment_entries = 0
        self._segment_file = None
        #: Entries loaded from disk at construction, in order — the
        #: one-shot payload of :meth:`replay_into`.
        self._boot_entries: list[JournalEntry] = []
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            self._load_segments()

    # ------------------------------------------------------------------ #
    # append / read
    # ------------------------------------------------------------------ #

    @property
    def high_water(self) -> int:
        """The last applied sequence number (0 before any write)."""
        return self._high_water

    @property
    def first_seq(self) -> int:
        """Oldest seq still retained in the ring (0 when empty)."""
        with self._lock:
            return self._ring[0].seq if self._ring else 0

    def __len__(self) -> int:
        return len(self._ring)

    def append(self, op, ids, outgoing=None, incoming=None, seq=None) -> int:
        """Record one applied mutation; returns its sequence number.

        ``seq`` is the optional replay stamp: a repairer re-applying a
        sibling's entry passes the sibling's seq so both replicas land
        on the same high-water mark. Monotonicity always holds — an
        explicit seq at or below the current high water is bumped past
        it.
        """
        if outgoing is not None:
            outgoing = np.asarray(outgoing, dtype=np.float64)
            incoming = np.asarray(incoming, dtype=np.float64)
        with self._lock:
            next_seq = self._high_water + 1
            if seq is not None:
                next_seq = max(int(seq), next_seq)
            entry = JournalEntry(next_seq, op, ids, outgoing, incoming)
            self._high_water = next_seq
            self._ring.append(entry)
            self.appended += 1
            while len(self._ring) > self.capacity:
                evicted = self._ring.popleft()
                self._evicted_through = max(self._evicted_through, evicted.seq)
                self.evicted += 1
            if self.directory is not None:
                self._write_segment_line(entry)
        return entry.seq

    def entries_since(self, seq: int, limit: int | None = None):
        """Retained entries with sequence number above ``seq``.

        Returns ``(entries, truncated)``: up to ``limit`` entries in
        seq order, and whether any entry the caller needs (seq above
        ``seq``) has already been evicted — the signal that replay
        cannot close the gap and a full re-seed is required.
        """
        seq = int(seq)
        if seq < 0:
            raise ValidationError(f"seq must be >= 0, got {seq}")
        if limit is None:
            limit = REPLAY_CHUNK
        if int(limit) < 1:
            raise ValidationError(f"limit must be >= 1, got {limit}")
        with self._lock:
            truncated = seq < self._evicted_through
            entries = [e for e in self._ring if e.seq > seq]
        return entries[: int(limit)], truncated

    def stats(self) -> dict:
        """Counters for health documents and metrics collectors."""
        return {
            "seq": self._high_water,
            "entries": len(self._ring),
            "first_seq": self.first_seq,
            "appended": self.appended,
            "evicted": self.evicted,
            "segments": self._segment_count(),
        }

    # ------------------------------------------------------------------ #
    # boot replay
    # ------------------------------------------------------------------ #

    def replay_into(self, store) -> int:
        """Re-apply the entries loaded from disk to ``store`` (once).

        Entries are applied in seq order; puts are idempotent
        overwrites, so replaying writes the snapshot already contains
        is safe. Returns the number of entries applied and drops the
        boot buffer.
        """
        entries, self._boot_entries = self._boot_entries, []
        for entry in entries:
            apply_entry(store, entry)
        return len(entries)

    # ------------------------------------------------------------------ #
    # disk segments
    # ------------------------------------------------------------------ #

    def _segment_path(self, index: int) -> str:
        return os.path.join(
            self.directory, f"{_SEGMENT_PREFIX}{index:06d}{_SEGMENT_SUFFIX}"
        )

    def _segment_files(self) -> list[str]:
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return sorted(
            os.path.join(self.directory, name)
            for name in names
            if name.startswith(_SEGMENT_PREFIX)
            and name.endswith(_SEGMENT_SUFFIX)
        )

    def _segment_count(self) -> int:
        if self.directory is None:
            return 0
        return len(self._segment_files())

    def _load_segments(self) -> None:
        """Replay existing segment files: restore seq and boot entries."""
        loaded: list[JournalEntry] = []
        for path in self._segment_files():
            base = os.path.basename(path)
            try:
                index = int(
                    base[len(_SEGMENT_PREFIX): -len(_SEGMENT_SUFFIX)]
                )
            except ValueError:
                continue
            self._segment_index = max(self._segment_index, index)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    lines = handle.readlines()
            except OSError:
                continue
            count = 0
            for line in lines:
                entry = JournalEntry.from_line(line)
                # Skip torn lines and out-of-order leftovers.
                if entry is None or (loaded and entry.seq <= loaded[-1].seq):
                    continue
                loaded.append(entry)
                count += 1
            if index == self._segment_index:
                self._segment_entries = count
        if not loaded:
            return
        self._boot_entries = loaded
        self._high_water = loaded[-1].seq
        # Anything before the first retained line is unrecoverable from
        # this journal (older segments were pruned).
        self._evicted_through = max(0, loaded[0].seq - 1)
        for entry in loaded[-self.capacity:]:
            self._ring.append(entry)
        if len(loaded) > self.capacity:
            self._evicted_through = max(
                self._evicted_through, loaded[-self.capacity - 1].seq
            )

    def _write_segment_line(self, entry: JournalEntry) -> None:
        """One write() per entry: O_APPEND keeps concurrent lines whole."""
        if self._segment_file is None:
            self._segment_file = open(  # noqa: SIM115 - lifetime exceeds scope
                self._segment_path(self._segment_index), "a", encoding="utf-8"
            )
        try:
            self._segment_file.write(entry.to_line() + "\n")
            self._segment_file.flush()
        except OSError:  # pragma: no cover - disk full / revoked path
            return
        self._segment_entries += 1
        if self._segment_entries >= self.segment_max_entries:
            self._rotate_segment()

    def _rotate_segment(self) -> None:
        try:
            self._segment_file.close()
        except OSError:  # pragma: no cover - teardown race
            pass
        self._segment_file = None
        self._segment_index += 1
        self._segment_entries = 0
        files = self._segment_files()
        while len(files) >= self.max_segments:
            oldest = files.pop(0)
            try:
                os.remove(oldest)
            except OSError:  # pragma: no cover - concurrent cleanup
                break

    def close(self) -> None:
        """Close the current segment file handle (if any)."""
        if self._segment_file is not None:
            try:
                self._segment_file.close()
            except OSError:  # pragma: no cover - teardown race
                pass
            self._segment_file = None


# ---------------------------------------------------------------------- #
# replay + digest helpers
# ---------------------------------------------------------------------- #


def apply_entry(store, entry: JournalEntry) -> None:
    """Apply one journal entry to a vector store.

    Puts and updates are both idempotent overwrites through
    ``put_many`` (an ``update_many`` replayed onto a store that never
    saw the original ``put`` must still land); deletes remove each
    listed host.
    """
    if entry.op == "delete":
        for host_id in entry.ids:
            store.delete(host_id)
        return
    store.put_many(entry.ids, entry.outgoing, entry.incoming)


def store_digest(store) -> str:
    """Order-independent sha256 over a store's full content.

    Two replicas of one slice hold the same hosts with the same
    float64 vectors exactly when their digests match — host insertion
    order (which legitimately differs across replicas) is normalized
    away by sorting on ``repr(host_id)``.

    The hash reads a length prefix (dimension, host count and the byte
    length of the id block), the sorted ids' reprs joined by NUL — the
    repr of a str or int never holds a raw NUL, so the block splits
    back into exactly one id per host — and then the ``outgoing`` and
    ``incoming`` rows in that order as little-endian float64 slabs:
    four ``update`` calls in all, not four per host.
    """
    ids, outgoing, incoming = store.export()
    keys = list(map(repr, ids))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    names = "\x00".join(map(keys.__getitem__, order)).encode()
    rows = np.array(order, dtype=np.intp)
    digest = hashlib.sha256()
    digest.update(f"{store.dimension}:{len(keys)}:{len(names)}\n".encode())
    digest.update(names)
    digest.update(np.ascontiguousarray(outgoing[rows], dtype="<f8"))
    digest.update(np.ascontiguousarray(incoming[rows], dtype="<f8"))
    return digest.hexdigest()
