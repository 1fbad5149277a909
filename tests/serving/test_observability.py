"""Unit tests for the observability plane: metrics, tracing, HTTP, CLI.

Covers the :class:`MetricsRegistry` primitives and both exposition
formats, the tracer's span lifecycle (context propagation, bounded
buffer, JSONL export, slow-query log), wire-level trace-header
compatibility in both directions and for both protocol versions
(the ``trace`` header field is optional and may never break framing),
per-sink update-failure attribution, and the ``serve health --json`` /
``serve metrics`` / ``serve trace-tail`` CLI surfaces.
"""

import asyncio
import json
import threading

import numpy as np
import pytest

from repro.cli import main
from repro.serving import (
    AsyncDistanceFrontend,
    DistanceService,
    MetricsRegistry,
    TelemetryServer,
    TraceContext,
    Tracer,
    build_trace_trees,
    configure_tracing,
    format_trace_tree,
    get_tracer,
    load_spans,
    parse_prometheus_text,
    scrape,
)
from repro.serving.observability.tracing import TRACE_FIELD, current_context
from repro.serving.transport.client import RemoteShardClient
from repro.serving.transport.server import ShardServer


def run(coroutine):
    return asyncio.run(coroutine)


@pytest.fixture(autouse=True)
def _tracing_disabled_after():
    """Every test leaves the process-wide tracer disabled."""
    yield
    configure_tracing(enabled=False)


def build_service(n_hosts: int = 30, dimension: int = 4) -> DistanceService:
    rng = np.random.default_rng(11)
    ids = [f"h{i}" for i in range(n_hosts)]
    return DistanceService.from_vectors(
        ids,
        rng.random((n_hosts, dimension)) + 0.5,
        rng.random((n_hosts, dimension)) + 0.5,
        landmark_ids=ids[:6],
    )


# --------------------------------------------------------------------- #
# metrics registry
# --------------------------------------------------------------------- #


class TestMetricsRegistry:
    def test_counter_gauge_histogram_round_trip(self):
        registry = MetricsRegistry()
        calls = registry.counter("t_calls_total", "calls", labels=("op",))
        depth = registry.gauge("t_depth", "depth")
        seconds = registry.histogram("t_seconds", "latency")

        calls.labels(op="gather").inc()
        calls.labels(op="gather").inc(2)
        calls.labels(op="ping").inc()
        depth.set(7)
        for value in (0.001, 0.002, 0.004, 0.4):
            seconds.observe(value)

        parsed = parse_prometheus_text(registry.render_prometheus())
        assert parsed["t_calls_total"][(("op", "gather"),)] == 3.0
        assert parsed["t_calls_total"][(("op", "ping"),)] == 1.0
        assert parsed["t_depth"][()] == 7.0
        assert parsed["t_seconds_count"][()] == 4.0
        assert parsed["t_seconds_sum"][()] == pytest.approx(0.407)

    def test_histogram_quantiles_are_ordered(self):
        registry = MetricsRegistry()
        seconds = registry.histogram("t_q_seconds", "latency")
        for i in range(1, 200):
            seconds.observe(i / 1000.0)
        child = seconds.labels()
        assert child.count == 199
        p50 = child.quantile(0.5)
        p90 = child.quantile(0.9)
        p99 = child.quantile(0.99)
        assert 0.0 < p50 <= p90 <= p99

    def test_render_json_contains_quantile_snapshots(self):
        registry = MetricsRegistry()
        seconds = registry.histogram("t_j_seconds", "latency")
        seconds.observe(0.25)
        payload = json.loads(registry.render_json())
        families = {family["name"]: family for family in payload["metrics"]}
        sample = families["t_j_seconds"]["samples"][0]
        assert sample["count"] == 1
        assert "p50" in sample and "p99" in sample

    def test_collector_samples_appear_only_at_scrape_time(self):
        registry = MetricsRegistry()
        state = {"value": 0}

        def collect():
            from repro.serving.observability.metrics import Sample

            return [
                Sample("t_collected_total", "counter", "collected",
                       (("who", "me"),), state["value"])
            ]

        registry.register_collector(collect)
        state["value"] = 41
        parsed = parse_prometheus_text(registry.render_prometheus())
        assert parsed["t_collected_total"][(("who", "me"),)] == 41.0

    def test_duplicate_family_with_same_type_is_shared(self):
        registry = MetricsRegistry()
        first = registry.counter("t_dup_total", "dup")
        second = registry.counter("t_dup_total", "dup")
        first.inc()
        second.inc()
        parsed = parse_prometheus_text(registry.render_prometheus())
        assert parsed["t_dup_total"][()] == 2.0

    def test_label_values_are_escaped_in_exposition(self):
        registry = MetricsRegistry()
        calls = registry.counter("t_esc_total", "esc", labels=("path",))
        calls.labels(path='a"b\\c\nd').inc()
        text = registry.render_prometheus()
        assert '\\"' in text and "\\n" in text
        # The escaped value survives the (non-unescaping) test parser as
        # one well-formed series — the exposition never leaks a raw
        # newline or quote into the sample line.
        parsed = parse_prometheus_text(text)
        [(labelkey, value)] = parsed["t_esc_total"].items()
        assert value == 1.0
        assert labelkey[0][0] == "path"


# --------------------------------------------------------------------- #
# tracing
# --------------------------------------------------------------------- #


class TestTracer:
    def test_span_tree_nests_via_context_variable(self):
        tracer = Tracer(service="unit", enabled=True)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.context.trace_id == outer.context.trace_id
        assert inner.parent_id == outer.context.span_id
        assert outer.parent_id is None
        names = [span["name"] for span in tracer.tail()]
        assert names == ["inner", "outer"]  # completion order

    def test_explicit_parent_overrides_ambient(self):
        tracer = Tracer(service="unit", enabled=True)
        remote = TraceContext(trace_id="t" * 32, span_id="s" * 16)
        with tracer.span("ambient"):
            with tracer.span("child", parent=remote) as child:
                pass
        assert child.context.trace_id == "t" * 32
        assert child.parent_id == "s" * 16

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("ignored") as span:
            span.set_attribute("k", "v")
        assert tracer.tail() == []
        assert tracer.spans_recorded == 0
        assert tracer.current() is None

    def test_span_ids_unique_and_well_formed(self):
        tracer = Tracer(enabled=True, max_spans=512)
        for _ in range(64):
            with tracer.span("s"):
                pass
        ids = [span["span_id"] for span in tracer.tail(limit=512)]
        assert len(set(ids)) == 64
        assert all(len(i) == 24 and int(i, 16) >= 0 for i in ids)

    def test_error_status_and_attribute_on_exception(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        [span] = tracer.tail()
        assert span["status"] == "error"
        assert span["attributes"]["error"] == "ValueError"

    def test_bounded_buffer_counts_drops(self):
        tracer = Tracer(enabled=True, max_spans=4)
        for _ in range(7):
            with tracer.span("s"):
                pass
        assert tracer.spans_recorded == 7
        assert tracer.spans_dropped == 3
        assert len(tracer.tail(limit=100)) == 4

    def test_slow_query_log_threshold(self):
        tracer = Tracer(enabled=True, slow_ms=0.0)
        with tracer.span("slowish"):
            pass
        assert tracer.slow_queries == 1
        [entry] = tracer.slow_tail()
        assert entry["name"] == "slowish"

    def test_jsonl_export_and_reload(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        tracer = Tracer(service="unit", enabled=True, export_path=path)
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        tracer.close()
        spans = load_spans(path)
        assert [span["name"] for span in spans] == ["b", "a"]
        trees = build_trace_trees(spans)
        [(trace_id, roots)] = trees.items()
        assert roots[0]["name"] == "a"
        assert roots[0]["children"][0]["name"] == "b"
        rendered = format_trace_tree(roots)
        assert "a" in rendered and "  b" in rendered

    def test_load_spans_skips_torn_lines(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text(
            json.dumps({"name": "ok", "trace_id": "t", "span_id": "s"})
            + "\n{ torn line\n\n"
        )
        spans = load_spans(path)
        assert [span["name"] for span in spans] == ["ok"]

    def test_orphan_spans_surface_as_roots(self):
        spans = [
            {"name": "orphan", "trace_id": "t1", "span_id": "s2",
             "parent_id": "missing", "start_time": 2.0},
            {"name": "root", "trace_id": "t1", "span_id": "s1",
             "parent_id": None, "start_time": 1.0},
        ]
        trees = build_trace_trees(spans)
        assert [root["name"] for root in trees["t1"]] == ["root", "orphan"]

    def test_configure_tracing_swaps_process_tracer(self):
        tracer = configure_tracing(enabled=True, service="swap-test")
        assert get_tracer() is tracer
        with tracer.span("visible"):
            assert current_context() is not None
        assert current_context() is None
        replacement = configure_tracing(enabled=False)
        assert get_tracer() is replacement

    def test_trace_context_header_round_trip(self):
        context = TraceContext(trace_id="a" * 32, span_id="b" * 16)
        fields = {TRACE_FIELD: context.header(), "other": 1}
        assert TraceContext.from_fields(fields) == context
        assert TraceContext.from_fields({}) is None
        assert TraceContext.from_fields({TRACE_FIELD: "garbage"}) is None
        assert TraceContext.from_fields({TRACE_FIELD: {"trace_id": 3}}) is None


# --------------------------------------------------------------------- #
# trace-header wire compatibility (both directions)
# --------------------------------------------------------------------- #


async def _wire_scenario(
    client_tracing: bool,
    server_metrics: bool,
    inject=None,
):
    """Round-trip a gather through a real server; returns (values, tracer)."""
    registry = MetricsRegistry()
    server = ShardServer(dimension=3, shard_index=0, n_shards=1)
    await server.start()
    if server_metrics:
        server.bind_metrics(registry)
    tracer = configure_tracing(enabled=client_tracing, service="compat")
    client = RemoteShardClient(*server.address, timeout=10.0)
    try:
        await client.call(
            "put_many",
            {"ids": ["a", "b"]},
            {
                "outgoing": np.ones((2, 3)),
                "incoming": np.ones((2, 3)) * 2.0,
            },
        )
        fields = {"out": ["a", "b"]}
        if inject is not None:
            fields[TRACE_FIELD] = inject
        response = await client.call("gather", fields)
        return response, tracer, registry
    finally:
        await client.close()
        await server.stop()
        configure_tracing(enabled=False)


class TestTraceHeaderCompatibility:
    def test_traced_client_against_untraced_server(self):
        """A peer that predates tracing ignores the extra header key."""
        response, tracer, _ = run(
            _wire_scenario(client_tracing=True, server_metrics=False)
        )
        assert response.arrays["outgoing"].shape == (2, 3)
        names = [span["name"] for span in tracer.tail()]
        assert "rpc:gather" in names

    def test_untraced_client_against_instrumented_server(self):
        """No trace field on the wire: the server still answers and
        accounts the request in its metrics."""
        response, _, registry = run(
            _wire_scenario(client_tracing=False, server_metrics=True)
        )
        assert response.arrays["outgoing"].shape == (2, 3)
        parsed = parse_prometheus_text(registry.render_prometheus())
        assert parsed["ides_server_requests_total"][(("op", "gather"),)] == 1.0

    @pytest.mark.parametrize(
        "inject",
        ["garbage", {"trace_id": 7}, {"span_id": "only-half"}, []],
    )
    def test_malformed_trace_field_never_breaks_framing(self, inject):
        """A malformed ``trace`` value degrades to an unparented span —
        the request itself must still succeed."""
        response, _, _ = run(
            _wire_scenario(client_tracing=False, server_metrics=True,
                           inject=inject)
        )
        assert response.arrays["outgoing"].shape == (2, 3)

    def test_server_span_parents_on_client_span(self):
        """Cross-boundary propagation: the server's span must chain to
        the client's rpc span through the wire header."""
        _, tracer, _ = run(
            _wire_scenario(client_tracing=True, server_metrics=True)
        )
        spans = {span["name"]: span for span in tracer.tail(limit=100)}
        rpc = spans["rpc:gather"]
        server_span = spans["server:gather"]
        engine_span = spans["engine:gather"]
        assert server_span["trace_id"] == rpc["trace_id"]
        assert server_span["parent_id"] == rpc["span_id"]
        assert engine_span["parent_id"] == server_span["span_id"]


# --------------------------------------------------------------------- #
# frontend span parenting
# --------------------------------------------------------------------- #


class TestFrontendTracing:
    def test_batch_span_chains_to_submitter(self):
        service = build_service()
        ids = service.known_hosts()
        tracer = configure_tracing(enabled=True, service="frontend-test")

        async def scenario():
            async with AsyncDistanceFrontend(service) as frontend:
                with tracer.span("client:request") as root:
                    futures = [
                        frontend.submit(ids[i], ids[i + 1]) for i in range(4)
                    ]
                    for future in futures:
                        await future
                return root

        root = run(scenario())
        spans = tracer.tail(limit=100)
        frontend_spans = [
            span for span in spans
            if span["name"] in ("frontend:batch", "frontend:point")
        ]
        assert frontend_spans, [span["name"] for span in spans]
        for span in frontend_spans:
            assert span["trace_id"] == root.context.trace_id
            assert span["parent_id"] == root.context.span_id

    def test_scan_cycle_runs_in_one_batch_span(self):
        """A cycle of k-NN requests is one sized ``frontend:batch``
        span; a k-NN request alone in its cycle keeps its
        ``frontend:k_nearest`` span."""
        service = build_service()
        ids = service.known_hosts()
        tracer = configure_tracing(enabled=True, service="frontend-test")

        async def scenario():
            async with AsyncDistanceFrontend(service) as frontend:
                with tracer.span("client:request") as root:
                    await asyncio.gather(
                        *(frontend.k_nearest(ids[i], 3) for i in range(3))
                    )
                    await frontend.k_nearest(ids[5], 3)
                return root

        root = run(scenario())
        spans = [
            span for span in tracer.tail(limit=100)
            if span["name"].startswith("frontend:")
        ]
        assert [span["name"] for span in spans] == [
            "frontend:batch", "frontend:k_nearest"
        ]
        assert spans[0]["attributes"]["size"] == 3
        for span in spans:
            assert span["parent_id"] == root.context.span_id


# --------------------------------------------------------------------- #
# per-sink failure attribution
# --------------------------------------------------------------------- #


class _ExplodingSink:
    sink_name = "exploder"

    def __call__(self, host_ids, outgoing, incoming):
        raise RuntimeError("sink down")


class _QuietSink:
    def __init__(self):
        self.calls = 0

    def __call__(self, host_ids, outgoing, incoming):
        self.calls += 1


class TestPerSinkFailures:
    def test_failures_attributed_by_sink_name(self):
        service = build_service()
        quiet = _QuietSink()
        service.add_update_sink(quiet)  # auto-named sink-0
        service.add_update_sink(_ExplodingSink())  # named via sink_name
        ids = service.known_hosts()[:2]
        service.apply_vector_updates(
            ids, np.ones((2, 4)), np.ones((2, 4))
        )
        health = service.health()
        assert quiet.calls == 1
        assert health.update_sink_failures == 1
        assert dict(health.update_sink_failures_by_sink) == {"exploder": 1}
        assert "exploder=1" in str(health)
        assert health.to_dict()["update_sink_failures_by_sink"] == {
            "exploder": 1
        }


# --------------------------------------------------------------------- #
# telemetry HTTP plane
# --------------------------------------------------------------------- #


class TestTelemetryServer:
    def test_endpoints_serve_metrics_health_and_traces(self):
        registry = MetricsRegistry()
        registry.counter("t_http_total", "hits").inc(5)
        tracer = Tracer(service="httpd", enabled=True)
        with tracer.span("probe"):
            pass

        async def scenario():
            server = TelemetryServer(
                registry=registry,
                tracer=tracer,
                health=lambda: {"status": "ok", "shard": 0},
            )
            host, port = await server.start()
            target = f"{host}:{port}"
            try:
                text = await asyncio.to_thread(scrape, target)
                health = await asyncio.to_thread(scrape, target, "/health")
                traces = await asyncio.to_thread(scrape, target, "/trace")
                as_json = await asyncio.to_thread(
                    scrape, target, "/metrics.json"
                )
                missing_status = None
                try:
                    await asyncio.to_thread(scrape, target, "/nope")
                except OSError as error:
                    missing_status = str(error)
                return text, health, traces, as_json, missing_status
            finally:
                await server.stop()

        text, health, traces, as_json, missing = run(scenario())
        assert parse_prometheus_text(text)["t_http_total"][()] == 5.0
        assert json.loads(health)["status"] == "ok"
        assert any(
            span["name"] == "probe" for span in json.loads(traces)["spans"]
        )
        assert json.loads(as_json)["metrics"]
        assert missing is not None  # unknown path is an HTTP error


# --------------------------------------------------------------------- #
# CLI surfaces
# --------------------------------------------------------------------- #


class TestCli:
    def test_serve_health_json(self, tmp_path, capsys):
        service = build_service()
        snapshot = tmp_path / "svc.npz"
        service.save(snapshot)
        assert main(["serve", "health", str(snapshot), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_hosts"] == 30
        assert "cache_hit_rate" in payload
        assert payload["update_sink_failures_by_sink"] == {}

    def test_serve_metrics_scrapes_a_live_endpoint(self, capsys):
        registry = MetricsRegistry()
        registry.counter("t_cli_total", "hits").inc(3)
        ready: "queue.Queue" = __import__("queue").Queue()
        done = threading.Event()

        def serve():
            async def body():
                server = TelemetryServer(registry=registry)
                host, port = await server.start()
                ready.put((host, port))
                await asyncio.to_thread(done.wait)
                await server.stop()

            asyncio.run(body())

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        host, port = ready.get(timeout=10)
        try:
            assert main(["serve", "metrics", f"{host}:{port}"]) == 0
            out = capsys.readouterr().out
            assert parse_prometheus_text(out)["t_cli_total"][()] == 3.0
        finally:
            done.set()
            thread.join(timeout=10)

    def test_serve_metrics_unreachable_returns_2(self, capsys):
        assert main(
            ["serve", "metrics", "127.0.0.1:9", "--timeout", "0.2"]
        ) == 2
        assert "scrape failed" in capsys.readouterr().err

    def test_serve_trace_tail_renders_trees(self, tmp_path, capsys):
        export = tmp_path / "spans.jsonl"
        tracer = Tracer(service="cli", enabled=True, export_path=export)
        with tracer.span("query:a"):
            with tracer.span("query:a:child"):
                pass
        tracer.close()
        assert main(["serve", "trace-tail", str(export)]) == 0
        out = capsys.readouterr().out
        assert "query:a" in out and "query:a:child" in out
        assert "1/1 traces" in out

    def test_serve_trace_tail_missing_trace_id(self, tmp_path, capsys):
        export = tmp_path / "spans.jsonl"
        tracer = Tracer(service="cli", enabled=True, export_path=export)
        with tracer.span("only"):
            pass
        tracer.close()
        code = main(
            ["serve", "trace-tail", str(export), "--trace", "not-there"]
        )
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_serve_trace_tail_empty_export(self, tmp_path, capsys):
        export = tmp_path / "empty.jsonl"
        export.write_text("")
        assert main(["serve", "trace-tail", str(export)]) == 2
        assert "no spans" in capsys.readouterr().err
