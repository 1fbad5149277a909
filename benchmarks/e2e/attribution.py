"""Per-layer self time from a traced round's span export.

The benchmark wraps every frontend call in a ``bench:<op>`` root span;
the serving stack adds ``frontend:`` / ``router:`` / ``rpc:`` spans in
the benchmark process and ``server:`` / ``engine:`` spans in the shard
processes.
All of them land in one JSONL file and are regrouped into trees with
:func:`repro.serving.observability.build_trace_trees`.

Wall time is attributed with a **sweep line** over each tree: every
instant of an op is charged to the open spans that have no open child
at that instant (the deepest open span on each concurrently open
branch), split equally among them. Children are clipped to their
parent's interval first, so a shard span whose clock reads a few
microseconds outside its RPC span cannot leak time. Subtracting summed
child durations instead would count the concurrent ``rpc:gather`` legs
of one scatter-gather twice and drive the router's self time negative.

A coalesced point request has no child spans of its own: the frontend
resolves it inside a ``frontend:batch`` span parented on the *first*
request of the batch. Such a request is charged the layer split of the
batch subtree that resolved it — dispatch cycles run one at a time, so
that is the latest batch ending at or before the request ends — and the
rest of its wall time is ``queue_wait`` (submit until the batch
returned, plus wake-up after it).
"""

from __future__ import annotations

import bisect

#: Span-name prefix -> layer. ``bench:`` roots are the benchmark's own
#: request envelopes, so their self time is time no layer below claimed:
#: the wait for a dispatch cycle. Any other prefix maps to ``other``.
LAYER_OF_PREFIX = {
    "bench": "queue_wait",
    "frontend": "frontend",
    "router": "router",
    "rpc": "client",
    "server": "server",
    "engine": "engine",
}

LAYERS = ("queue_wait", "frontend", "router", "client", "server", "engine")

#: Attribute the benchmark sets on a root whose request the frontend
#: answered from its cache at submit time (no dispatch cycle involved).
CACHE_HIT = "cache_hit"


def layer_of(name: str) -> str:
    """The layer a span belongs to, from its ``prefix:`` name."""
    prefix, _, _ = str(name).partition(":")
    return LAYER_OF_PREFIX.get(prefix, "other")


def _end(span: dict) -> float:
    return span["start_time"] + span["duration"]


def _clipped_intervals(top: dict) -> list[tuple[float, float, int, int, str]]:
    """``(start, end, id, parent_id, layer)`` for ``top``'s subtree,
    each child clipped to its (already clipped) parent."""
    intervals = []
    stack = [(top, top["start_time"], _end(top), -1)]
    while stack:
        node, low, high, parent = stack.pop()
        index = len(intervals)
        intervals.append((low, high, index, parent, layer_of(node["name"])))
        for child in node.get("children", ()):
            start = max(low, child["start_time"])
            end = min(high, _end(child))
            if end > start:
                stack.append((child, start, end, index))
    return intervals


def sweep_self_times(top: dict) -> dict[str, float]:
    """Seconds of ``top``'s wall time charged to each layer.

    The values sum to ``top``'s duration: every instant belongs to at
    least one open span (``top`` itself is open throughout).
    """
    intervals = _clipped_intervals(top)
    totals: dict[str, float] = {}
    if len(intervals) == 1:
        totals[intervals[0][4]] = intervals[0][1] - intervals[0][0]
        return totals
    bounds = sorted({b for low, high, *_ in intervals for b in (low, high)})
    for left, right in zip(bounds, bounds[1:]):
        open_ids = [
            index
            for low, high, index, _, _ in intervals
            if low <= left and high >= right
        ]
        busy_parents = {intervals[i][3] for i in open_ids}
        leaves = [i for i in open_ids if i not in busy_parents]
        share = (right - left) / len(leaves)
        for i in leaves:
            layer = intervals[i][4]
            totals[layer] = totals.get(layer, 0.0) + share
    return totals


def _walk(roots: list[dict]):
    stack = list(roots)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.get("children", ()))


def attribute_ops(trees: dict[str, list[dict]]) -> dict:
    """Attribute every ``bench:`` root of a traced round.

    Args:
        trees: ``{trace_id: [root, ...]}`` from ``build_trace_trees``.

    Returns:
        ``{"ops", "mean_latency_s", "mean_served_s", "layers", "charged",
        "other_roots"}``: ``layers`` maps each layer to its mean seconds
        per op (the values sum to ``mean_latency_s``); ``mean_served_s``
        is the mean duration of the spans that served each op (its
        direct children, or its resolving batch), so ``mean_latency_s -
        mean_served_s`` is the queue wait a plain timer would infer;
        ``charged`` counts requests charged to a resolving batch, and
        ``other_roots`` counts roots that are not bench ops — write
        traffic, health probes, or spans whose parent was evicted from a
        buffer and surfaced as a root.
    """
    roots = [root for members in trees.values() for root in members]
    batches = sorted(
        (node for node in _walk(roots) if node["name"] == "frontend:batch"),
        key=_end,
    )
    batch_ends = [_end(batch) for batch in batches]
    batch_splits: dict[int, dict[str, float]] = {}

    totals = dict.fromkeys(LAYERS, 0.0)
    ops = charged = other_roots = 0
    latency = served = 0.0
    for root in roots:
        if not root["name"].startswith("bench:"):
            other_roots += 1
            continue
        ops += 1
        latency += root["duration"]
        if root.get("children"):
            split = sweep_self_times(root)
            served += sum(
                max(
                    0.0,
                    min(_end(child), _end(root))
                    - max(child["start_time"], root["start_time"]),
                )
                for child in root["children"]
            )
        elif root.get("attributes", {}).get(CACHE_HIT):
            split = {"frontend": root["duration"]}
        else:
            batch = _resolving_batch(root, batches, batch_ends)
            if batch is None:
                split = {"queue_wait": root["duration"]}
            else:
                charged += 1
                served += batch["duration"]
                split = batch_splits.get(id(batch))
                if split is None:
                    split = batch_splits[id(batch)] = sweep_self_times(batch)
                split = {
                    **split,
                    "queue_wait": split.get("queue_wait", 0.0)
                    + root["duration"]
                    - batch["duration"],
                }
        for layer, seconds in split.items():
            totals[layer] = totals.get(layer, 0.0) + seconds
    return {
        "ops": ops,
        "mean_latency_s": latency / ops if ops else 0.0,
        "mean_served_s": served / ops if ops else 0.0,
        "layers": {
            layer: seconds / ops if ops else 0.0
            for layer, seconds in totals.items()
        },
        "charged": charged,
        "other_roots": other_roots,
    }


def _resolving_batch(root: dict, batches: list[dict], batch_ends: list[float]):
    """The latest batch ending at or before ``root`` ends, provided it
    started after the request was submitted (else None)."""
    position = bisect.bisect_right(batch_ends, _end(root)) - 1
    if position < 0 or batches[position]["start_time"] < root["start_time"]:
        return None
    return batches[position]
