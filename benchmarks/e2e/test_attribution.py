"""Sweep-line attribution on hand-built span lists."""

from __future__ import annotations

import pytest

from attribution import attribute_ops, layer_of, sweep_self_times
from repro.serving.observability import build_trace_trees


def span(name, span_id, start, end, parent=None, trace="t", **attributes):
    return {
        "name": name,
        "trace_id": trace,
        "span_id": span_id,
        "parent_id": parent,
        "start_time": start,
        "duration": end - start,
        "attributes": attributes,
    }


def tree(spans):
    (roots,) = build_trace_trees(spans).values()
    return roots


def test_layer_of_maps_prefixes():
    assert layer_of("bench:point") == "queue_wait"
    assert layer_of("frontend:batch") == "frontend"
    assert layer_of("router:pairs") == "router"
    assert layer_of("rpc:gather") == "client"
    assert layer_of("server:gather") == "server"
    assert layer_of("engine:gather") == "engine"
    assert layer_of("mystery") == "other"


def test_overlapping_scatter_children_share_instants():
    (root,) = tree(
        [
            span("bench:point", "r", 0, 10),
            span("frontend:pairs", "f", 1, 9, "r"),
            span("router:pairs", "t", 2, 8, "f"),
            span("rpc:gather", "a", 3, 7, "t"),
            span("rpc:gather", "b", 3, 5, "t"),
            span("server:gather", "s", 4, 6, "a"),
        ]
    )
    split = sweep_self_times(root)
    # [3,4] two rpc legs; [4,5] rpc b beside server; [5,6] server; [6,7] rpc a.
    assert split == pytest.approx(
        {"queue_wait": 2, "frontend": 2, "router": 2, "client": 2.5, "server": 1.5}
    )


def test_concurrent_legs_never_drive_the_parent_negative():
    (root,) = tree(
        [
            span("router:pairs", "t", 0, 6),
            span("rpc:gather", "a", 1, 5.5, "t"),
            span("rpc:gather", "b", 0.5, 6, "t"),
        ]
    )
    split = sweep_self_times(root)
    # Subtracting summed children would give 6 - 4.5 - 5.5 = -4.
    assert split["router"] == pytest.approx(0.5)
    assert sum(split.values()) == pytest.approx(6)


def test_cross_process_children_are_clipped_to_their_parent():
    (root,) = tree(
        [
            span("bench:k_nearest", "r", 0, 10),
            span("rpc:nearest", "c", 3, 7, "r"),
            # The shard's clock reads slightly outside the RPC.
            span("server:nearest", "s", 2.9, 7.2, "c"),
            span("engine:nearest", "e", 6.5, 7.4, "s"),
        ]
    )
    split = sweep_self_times(root)
    # The RPC is never a leaf: its server child covers all of it.
    assert split == pytest.approx({"queue_wait": 6, "server": 3.5, "engine": 0.5})


def test_evicted_parent_surfaces_as_an_other_root():
    spans = [
        span("bench:point", "r", 0, 4),
        span("frontend:point", "f", 1, 3, "r"),
        # Its router parent was evicted from a buffer.
        span("rpc:point", "c", 1.5, 2.5, "gone"),
    ]
    report = attribute_ops(build_trace_trees(spans))
    assert report["ops"] == 1
    assert report["other_roots"] == 1
    assert report["layers"]["queue_wait"] == pytest.approx(2)
    assert report["layers"]["frontend"] == pytest.approx(2)
    assert sum(report["layers"].values()) == pytest.approx(report["mean_latency_s"])


def test_coalesced_requests_are_charged_their_resolving_batch():
    spans = [
        # The batch is parented on the first request of the cycle.
        span("bench:point", "r0", 0.5, 5.5, trace="t0"),
        span("frontend:batch", "b", 2, 4, "r0", trace="t0"),
        span("router:pairs", "p", 2.5, 3.5, "b", trace="t0"),
        # Two more requests in the same cycle: no children of their own.
        span("bench:point", "r1", 0, 5, trace="t1"),
        span("bench:point", "r2", 1, 6, trace="t2"),
        # Submitted after the batch was cut: not resolved by it.
        span("bench:point", "r3", 2.5, 4.5, trace="t3"),
        # Answered from the frontend cache at submit time.
        span("bench:point", "r4", 7, 7.5, trace="t4", cache_hit=True),
    ]
    report = attribute_ops(build_trace_trees(spans))
    assert report["ops"] == 5
    assert report["charged"] == 2
    layers = {name: seconds * 5 for name, seconds in report["layers"].items()}
    # r0, r1, r2 each: frontend 1 + router 1 + queue 3; r3 all queue;
    # r4 all frontend.
    assert layers["frontend"] == pytest.approx(3 + 0.5)
    assert layers["router"] == pytest.approx(3)
    assert layers["queue_wait"] == pytest.approx(9 + 2)
    assert sum(layers.values()) == pytest.approx(5 + 5 + 5 + 2 + 0.5)
