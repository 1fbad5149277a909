"""Distributed tracing: spans, context propagation, JSONL export.

One traced query produces a *connected span tree* across process
boundaries::

    frontend:k_nearest                (frontend process, root)
      router:k_nearest                (same process, scatter-gather)
        rpc:gather   shard=1          (the source row's fetch)
          server:gather               (shard process 1)
            engine:gather
        rpc:nearest  shard=0          (one per _ShardConnection RPC)
          server:nearest              (shard process 0)
            engine:nearest            (store/engine time)
        rpc:nearest  shard=1
          server:nearest              (shard process 1)
            engine:nearest

Propagation inside a process rides a ``contextvars.ContextVar``, which
asyncio tasks inherit naturally; across the wire the active span is
carried as an optional ``"trace"`` object in the request JSON header
(see ``docs/wire-protocol.md``) — peers that predate tracing simply
ignore the extra key, so the field can never break framing.

Each process keeps its finished spans in a bounded in-memory buffer
(:meth:`Tracer.tail`) and, when an export path is configured, appends
every span as one JSON line.  Single-line ``O_APPEND`` writes are
atomic on Linux for these sizes, so the frontend, router and all shard
processes can safely share one export file; readers reassemble the tree
by ``trace_id``/``parent_id`` (see :func:`load_spans` /
:func:`build_trace_trees`).

Spans slower than ``slow_ms`` additionally land in a slow-query log
(:meth:`Tracer.slow_queries`) so "why was that one query slow" is
answerable without replaying traffic.

The disabled tracer (the default) costs one attribute check per
instrumentation site: :meth:`Tracer.span` returns a shared no-op
context manager, which is what keeps the ≤5%% instrumentation-overhead
budget honest.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import NamedTuple

__all__ = [
    "Span",
    "TraceContext",
    "Tracer",
    "build_trace_trees",
    "configure_tracing",
    "current_context",
    "format_trace_tree",
    "get_tracer",
    "load_spans",
]

#: Wire header key carrying the trace context (optional).
TRACE_FIELD = "trace"

_current_span: contextvars.ContextVar[TraceContext | None] = contextvars.ContextVar(
    "repro_current_span", default=None
)


# Span ids are a random per-process prefix plus a counter: unique
# across the processes of one deployment without paying an os.urandom
# syscall per span (ids are minted on the query hot path). The prefix
# is re-seeded when the pid changes so forked shard processes do not
# inherit the parent's id sequence. Trace ids are minted once per
# root, so full entropy is affordable there.
_id_pid: int | None = None
_id_prefix = ""
_id_counter = itertools.count(1)


def _new_trace_id() -> str:
    return os.urandom(16).hex()


def _new_span_id() -> str:
    global _id_pid, _id_prefix, _id_counter
    pid = os.getpid()
    if pid != _id_pid:
        _id_prefix = os.urandom(8).hex()
        _id_counter = itertools.count(1)
        _id_pid = pid
    return f"{_id_prefix}{next(_id_counter):08x}"


class TraceContext(NamedTuple):
    """The propagated identity of an active span: trace id + span id.

    A ``NamedTuple`` rather than a dataclass: one context is minted per
    span on the query hot path, and tuple construction is the cheapest
    immutable record Python offers.
    """

    trace_id: str
    span_id: str

    def header(self) -> dict[str, str]:
        """The wire-header representation (the ``"trace"`` field value)."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_fields(cls, fields: dict) -> TraceContext | None:
        """Extract a context from a decoded request header, if present.

        Tolerant by design: a missing, malformed or partial ``trace``
        field yields ``None`` — tracing is best-effort and must never
        fail a request.
        """
        raw = fields.get(TRACE_FIELD)
        if not isinstance(raw, dict):
            return None
        trace_id, span_id = raw.get("trace_id"), raw.get("span_id")
        if not isinstance(trace_id, str) or not isinstance(span_id, str):
            return None
        return cls(trace_id=trace_id, span_id=span_id)


#: Wall-clock minus monotonic time, sampled once per process: spans
#: derive their wall-clock ``start_time`` from one ``perf_counter``
#: reading instead of paying two clock calls each.
_WALL_OFFSET = time.time() - time.perf_counter()


class Span:
    """One timed operation in a trace, and its own context manager.

    ``start_time`` is wall-clock (``time.time`` epoch) so spans from
    different processes on one machine order sensibly; ``duration`` is
    measured with ``time.perf_counter`` for resolution.

    The record and the context manager are one ``__slots__`` object:
    spans are minted on the query hot path, and a separate "active
    span" wrapper would double the per-span allocations.
    """

    __slots__ = (
        "name",
        "context",
        "parent_id",
        "service",
        "start_time",
        "duration",
        "status",
        "attributes",
        "_tracer",
        "_token",
        "_started",
    )

    def __init__(
        self,
        name: str,
        context: TraceContext,
        parent_id: str | None = None,
        service: str = "",
        attributes: dict | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.name = name
        self.context = context
        self.parent_id = parent_id
        self.service = service
        self.start_time = 0.0
        self.duration = 0.0
        self.status = "ok"
        self.attributes = dict(attributes) if attributes else {}
        self._tracer = tracer
        self._token = None
        self._started = 0.0

    def set_attribute(self, key: str, value) -> None:
        self.attributes[key] = value

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.context.trace_id,
            "span_id": self.context.span_id,
            "parent_id": self.parent_id,
            "service": self.service,
            "start_time": self.start_time,
            "duration": self.duration,
            "status": self.status,
            "attributes": self.attributes,
        }

    def __enter__(self) -> Span:
        self._token = _current_span.set(self.context)
        self._started = time.perf_counter()
        # One clock read per span: wall time is derived from the
        # monotonic reading via a process-wide offset (NTP slew within
        # a process lifetime is far below span granularity).
        self.start_time = _WALL_OFFSET + self._started
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self._started
        if exc_type is not None:
            self.status = "error"
            self.attributes.setdefault("error", exc_type.__name__)
        _current_span.reset(self._token)
        if self._tracer is not None:
            self._tracer._record(self)
        return False


class _NoopSpan:
    """Shared do-nothing span/context-manager for the disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set_attribute(self, key: str, value) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """Creates spans, buffers them, exports JSONL, keeps a slow-query log."""

    def __init__(
        self,
        service: str = "",
        enabled: bool = True,
        max_spans: int = 2048,
        export_path: str | os.PathLike | None = None,
        slow_ms: float | None = None,
    ) -> None:
        self.service = service
        self.enabled = enabled
        self.slow_ms = slow_ms
        self._spans: deque[Span] = deque(maxlen=max_spans)
        self._slow: deque[dict] = deque(maxlen=256)
        self._lock = threading.Lock()
        self._export_path = Path(export_path) if export_path else None
        self._export_file = None
        #: Whether recording has sinks that need the lock (slow-query
        #: log, export file); without them ``_record`` stays lock-free.
        self._locked_sinks = slow_ms is not None or export_path is not None
        self.spans_recorded = 0
        self.spans_dropped = 0
        self.slow_queries = 0

    # -- span creation -----------------------------------------------------

    def span(
        self,
        name: str,
        parent: TraceContext | None = None,
        attributes: dict | None = None,
    ):
        """Start a span as a context manager.

        ``parent`` overrides the ambient context (used when a request
        carried a remote parent or when a queued request re-activates
        its submitter's context); otherwise the current context-variable
        value is the parent.  Disabled tracers return a shared no-op.
        """
        if not self.enabled:
            return _NOOP_SPAN
        if parent is None:
            parent = _current_span.get()
        if parent is None:
            context = TraceContext(_new_trace_id(), _new_span_id())
            parent_id = None
        else:
            context = TraceContext(parent.trace_id, _new_span_id())
            parent_id = parent.span_id
        return Span(name, context, parent_id, self.service, attributes, self)

    def current(self) -> TraceContext | None:
        """The ambient trace context, if tracing is enabled and active."""
        if not self.enabled:
            return None
        return _current_span.get()

    # -- recording / export ------------------------------------------------

    def _record(self, span: Span) -> None:
        # Fast path: deque appends (and maxlen eviction) are atomic
        # under the GIL, and the stat counters are best-effort, so a
        # tracer with neither slow-query log nor export file never
        # takes the lock on the hot path.
        spans = self._spans
        if len(spans) == spans.maxlen:
            self.spans_dropped += 1
        spans.append(span)
        self.spans_recorded += 1
        if not self._locked_sinks:
            return
        with self._lock:
            if self.slow_ms is not None and span.duration * 1000.0 >= self.slow_ms:
                self.slow_queries += 1
                self._slow.append(span.to_dict())
            if self._export_path is not None:
                if self._export_file is None:
                    self._export_file = open(
                        self._export_path, "a", encoding="utf-8"
                    )
                # One write() call per span: O_APPEND keeps concurrent
                # processes' lines whole in a shared export file.
                self._export_file.write(
                    json.dumps(span.to_dict(), sort_keys=True) + "\n"
                )
                self._export_file.flush()

    def tail(self, limit: int = 50) -> list[dict]:
        """The most recent finished spans, oldest first."""
        with self._lock:
            spans = list(self._spans)[-limit:]
        return [span.to_dict() for span in spans]

    def slow_tail(self, limit: int = 50) -> list[dict]:
        """The most recent slow-query records, oldest first."""
        with self._lock:
            return list(self._slow)[-limit:]

    def export_jsonl(self, path: str | os.PathLike) -> int:
        """Dump the buffered spans to ``path`` as JSONL; returns the count."""
        spans = self.tail(limit=self._spans.maxlen or 0)
        with open(path, "a", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
        return len(spans)

    def close(self) -> None:
        with self._lock:
            if self._export_file is not None:
                self._export_file.close()
                self._export_file = None

    def stats_samples(self):
        """Registry-collector samples for the tracer's own counters."""
        from .metrics import Sample

        labels = (("service", self.service),) if self.service else ()
        return [
            Sample(
                "ides_tracer_spans_recorded_total",
                "counter",
                "Finished spans recorded by this tracer.",
                labels,
                self.spans_recorded,
            ),
            Sample(
                "ides_tracer_spans_dropped_total",
                "counter",
                "Spans evicted from the bounded in-memory buffer.",
                labels,
                self.spans_dropped,
            ),
            Sample(
                "ides_tracer_slow_queries_total",
                "counter",
                "Spans at or above the slow-query threshold.",
                labels,
                self.slow_queries,
            ),
        ]


_default_tracer = Tracer(enabled=False)
_tracer_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The process-wide tracer (disabled until configured)."""
    return _default_tracer


def current_context() -> TraceContext | None:
    """The ambient trace context of the process-wide tracer, or None.

    Flat fast path for per-query capture sites (the frontend reads
    this once per submitted query): one global read, one attribute
    check, and — only when tracing is on — one context-variable get.
    """
    if not _default_tracer.enabled:
        return None
    return _current_span.get()


def configure_tracing(
    enabled: bool = True,
    service: str = "",
    max_spans: int = 2048,
    export_path: str | os.PathLike | None = None,
    slow_ms: float | None = None,
) -> Tracer:
    """Install (and return) a new process-wide tracer."""
    global _default_tracer
    tracer = Tracer(
        service=service,
        enabled=enabled,
        max_spans=max_spans,
        export_path=export_path,
        slow_ms=slow_ms,
    )
    with _tracer_lock:
        previous = _default_tracer
        _default_tracer = tracer
    previous.close()
    return tracer


# -- offline span-tree tooling (trace-tail CLI, e2e tests) -----------------


def load_spans(path: str | os.PathLike) -> list[dict]:
    """Read a JSONL span export, skipping torn/blank lines."""
    spans = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                spans.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return spans


def build_trace_trees(spans: list[dict]) -> dict[str, list[dict]]:
    """Group spans by trace id and nest children under parents.

    Returns ``{trace_id: [root, ...]}`` where every span dict gains a
    ``"children"`` list (sorted by start time).  Spans whose parent is
    absent from the export (e.g. buffer-evicted) surface as roots so no
    data is silently dropped.
    """
    by_trace: dict[str, list[dict]] = {}
    for span in spans:
        by_trace.setdefault(span.get("trace_id", "?"), []).append(span)

    trees: dict[str, list[dict]] = {}
    for trace_id, members in by_trace.items():
        by_id = {}
        for span in members:
            node = dict(span)
            node["children"] = []
            by_id[span.get("span_id")] = node
        roots = []
        for node in by_id.values():
            parent = by_id.get(node.get("parent_id"))
            if parent is None:
                roots.append(node)
            else:
                parent["children"].append(node)
        for node in by_id.values():
            node["children"].sort(key=lambda child: child.get("start_time", 0.0))
        roots.sort(key=lambda root: root.get("start_time", 0.0))
        trees[trace_id] = roots
    return trees


def format_trace_tree(roots: list[dict], indent: str = "  ") -> str:
    """Human-readable rendering of one trace's span tree."""
    lines: list[str] = []

    def visit(node: dict, depth: int) -> None:
        duration_ms = node.get("duration", 0.0) * 1000.0
        service = node.get("service") or "-"
        status = node.get("status", "ok")
        flag = "" if status == "ok" else f" [{status}]"
        lines.append(
            f"{indent * depth}{node.get('name', '?')}  "
            f"{duration_ms:.3f} ms  ({service}){flag}"
        )
        for child in node.get("children", ()):
            visit(child, depth + 1)

    for root in roots:
        visit(root, 0)
    return "\n".join(lines)
