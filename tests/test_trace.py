"""End-to-end request tracing: span trees across threads and processes.

Unit half: the :mod:`repro.obs.trace` contract — head-based sampling
decided once at the root, error traces committed regardless of the
decision, bounded collector views, contextvar propagation, picklable
span contexts, and the worker-side drain/ingest handshake.

Integration half: the acceptance path — 16 concurrent clients against
a two-worker :class:`~repro.serve.router.ServiceRouter` behind the
HTTP front end at sample rate 1.0, asserting the full queue-wait →
batch-execute → engine-decode → join parentage re-assembled across
process boundaries, `X-Repro-Trace-Id` correlation, the `/readyz`
probe, and `--log-json` structured access lines.
"""

from __future__ import annotations

import functools
import io
import json
import pickle
import random
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs.trace import (
    DEFAULT_CAPACITY,
    DEFAULT_SLOWEST,
    NULL_SPAN,
    SpanContext,
    TraceCollector,
    Tracer,
    configure_tracing,
    current_context,
    current_span,
    get_tracer,
    span_tree,
)
from repro.serve.http import start_http_server
from repro.serve.router import RouteSpec, ServiceRouter, build_pipeline

_EXAMPLES = [
    ["Justin Trudeau", "jtrudeau"],
    ["Stephen Harper", "sharper"],
    ["Paul Martin", "pmartin"],
]


@pytest.fixture(autouse=True)
def _pristine_global_tracer():
    """Restore the process-global tracer's config after every test.

    Save/restore rather than hard-reset: the class-scoped e2e server
    fixture configures rate 1.0 once for the whole class, and a reset
    to 0.0 after the first test would silently unsample the rest.
    """
    tracer = get_tracer()
    rate, collector = tracer.sample_rate, tracer.collector
    yield
    tracer.sample_rate = rate
    tracer.collector = collector


def _tracer(
    sample_rate: float = 1.0, capacity: int = 16, slowest: int = 4
) -> Tracer:
    return Tracer(
        TraceCollector(capacity=capacity, slowest=slowest),
        sample_rate=sample_rate,
        rng=random.Random(7),
    )


class TestSampling:
    def test_rate_one_commits_the_tree_on_root_finish(self):
        tracer = _tracer(1.0)
        root = tracer.start_trace("request")
        child = tracer.start_span("work", parent=root)
        child.finish()
        assert len(tracer.collector) == 0  # nothing until the root closes
        root.finish()
        snap = tracer.collector.snapshot()
        assert snap["collected"] == 1
        trace = snap["recent"][0]
        assert trace["sampled"] is True
        assert [s["name"] for s in trace["spans"]] == ["request", "work"]

    def test_rate_zero_drops_ok_traces_but_keeps_ids(self):
        tracer = _tracer(0.0)
        root = tracer.start_trace("request")
        assert root.trace_id and not root.sampled
        assert tracer.start_span("work", parent=root) is NULL_SPAN
        root.finish()
        assert len(tracer.collector) == 0

    def test_errored_root_commits_even_unsampled(self):
        tracer = _tracer(0.0)
        root = tracer.start_trace("request")
        root.set_error("boom")
        root.finish()
        trace = tracer.collector.snapshot()["recent"][0]
        assert trace["status"] == "error"
        assert trace["sampled"] is False
        assert trace["spans"][0]["attributes"]["error_detail"] == "boom"

    def test_force_sample_overrides_the_rate(self):
        tracer = _tracer(0.0)
        assert tracer.start_trace("r", force_sample=True).sampled
        assert not _tracer(1.0).start_trace("r", force_sample=False).sampled

    def test_fractional_rate_is_per_root(self):
        tracer = _tracer(0.5)
        decisions = {
            tracer.start_trace("r").sampled for _ in range(200)
        }
        assert decisions == {True, False}

    def test_configure_tracing_validates_the_rate(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            configure_tracing(sample_rate=1.5)


class TestSpans:
    def test_finish_is_idempotent(self):
        tracer = _tracer(1.0)
        root = tracer.start_trace("request")
        root.finish()
        first = root.duration_s
        root.finish(status="error")
        assert root.duration_s == first
        assert root.status == "ok"
        assert tracer.collector.snapshot()["collected"] == 1

    def test_record_span_uses_explicit_monotonic_times(self):
        tracer = _tracer(1.0)
        root = tracer.start_trace("request")
        tracer.record_span(
            "queue_wait", root, start=10.0, end=10.25, attributes={"n": 3}
        )
        root.finish()
        trace = tracer.collector.snapshot()["recent"][0]
        waited = trace["spans"][1]
        assert waited["name"] == "queue_wait"
        assert waited["duration_s"] == pytest.approx(0.25)
        assert waited["attributes"] == {"n": 3}

    def test_span_context_manager_marks_errors_and_reraises(self):
        tracer = _tracer(1.0)
        root = tracer.start_trace("request")
        with pytest.raises(RuntimeError):
            with tracer.activate(root):
                with tracer.span("work"):
                    raise RuntimeError("nope")
        root.finish()
        trace = tracer.collector.snapshot()["recent"][0]
        work = trace["spans"][1]
        assert work["status"] == "error"
        assert "RuntimeError" in work["attributes"]["error_detail"]

    def test_null_span_is_inert(self):
        NULL_SPAN.set_attribute("k", 1)
        NULL_SPAN.set_attributes({"k": 1})
        NULL_SPAN.set_error("x")
        NULL_SPAN.finish()
        assert NULL_SPAN.context is None
        assert NULL_SPAN.sampled is False

    def test_span_context_pickles_and_parents(self):
        tracer = _tracer(1.0)
        root = tracer.start_trace("request")
        ctx = pickle.loads(pickle.dumps(root.context))
        assert ctx == SpanContext(root.trace_id, root.span_id, True)
        child = tracer.start_span("remote", parent=ctx)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id


class TestContextPropagation:
    def test_activate_installs_and_restores(self):
        tracer = _tracer(1.0)
        assert current_span() is None
        root = tracer.start_trace("request")
        with tracer.activate(root):
            assert current_span() is root
            assert current_context() == root.context
            child = tracer.start_span("work")  # parent defaults to current
            assert child.parent_id == root.span_id
        assert current_span() is None

    def test_unsampled_current_context_is_none(self):
        tracer = _tracer(0.0)
        with tracer.activate(tracer.start_trace("request")):
            assert current_span() is not None
            assert current_context() is None

    def test_activating_null_span_leaves_context_alone(self):
        tracer = _tracer(1.0)
        with tracer.activate(NULL_SPAN):
            assert current_span() is None


class TestDrainIngest:
    def test_worker_spans_splice_into_the_parent_trace(self):
        parent = _tracer(1.0)
        worker = _tracer(1.0)
        root = parent.start_trace("request")
        # Worker side: only the picklable context crosses the pipe.
        remote = worker.start_span("worker.execute", parent=root.context)
        inner = worker.start_span("engine.decode", parent=remote)
        inner.finish()
        remote.finish()
        shipped = worker.drain(root.trace_id)
        assert [s["name"] for s in shipped] == [
            "engine.decode",
            "worker.execute",
        ]
        assert worker.drain(root.trace_id) == []  # drained means gone
        parent.ingest(shipped)
        root.finish()
        trace = parent.collector.snapshot()["recent"][0]
        tree = span_tree(trace)
        worker_span = tree[root.span_id][0]
        assert worker_span["name"] == "worker.execute"
        assert tree[worker_span["span_id"]][0]["name"] == "engine.decode"


class TestCollector:
    def test_ring_bounds_and_collected_counter(self):
        collector = TraceCollector(capacity=2, slowest=0)
        for i in range(5):
            collector.add({"trace_id": str(i), "duration_s": float(i)})
        assert len(collector) == 2
        snap = collector.snapshot()
        assert snap["collected"] == 5
        assert [t["trace_id"] for t in snap["recent"]] == ["4", "3"]
        assert snap["slowest"] == []

    def test_slowest_keeps_the_worst_by_duration(self):
        collector = TraceCollector(capacity=2, slowest=2)
        for i, duration in enumerate((0.1, 9.0, 0.2, 5.0)):
            collector.add({"trace_id": str(i), "duration_s": duration})
        slowest = collector.snapshot()["slowest"]
        assert [t["duration_s"] for t in slowest] == [9.0, 5.0]

    def test_snapshot_limit_and_clear(self):
        collector = TraceCollector(capacity=8, slowest=8)
        for i in range(4):
            collector.add({"trace_id": str(i), "duration_s": 1.0})
        snap = collector.snapshot(limit=2)
        assert len(snap["recent"]) == 2
        collector.clear()
        assert collector.snapshot()["collected"] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceCollector(capacity=0)
        with pytest.raises(ValueError):
            TraceCollector(slowest=-1)

    def test_span_tree_indexes_by_parent(self):
        trace = {
            "spans": [
                {"span_id": "a", "parent_id": None},
                {"span_id": "b", "parent_id": "a"},
                {"span_id": "c", "parent_id": "a"},
            ]
        }
        tree = span_tree(trace)
        assert tree[None][0]["span_id"] == "a"
        assert [s["span_id"] for s in tree["a"]] == ["b", "c"]


def _post_json(base: str, path: str, payload: dict):
    request = urllib.request.Request(
        base + path,
        json.dumps(payload).encode("utf-8"),
        {"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return json.load(response), dict(response.headers)


def _get_json(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path) as response:
        return json.load(response)


def _wait_for_traces(
    base: str, trace_ids: set[str], timeout_s: float = 5.0
) -> dict:
    """Poll ``/debug/traces`` until every id committed (or time out).

    The root span commits *after* the response body is flushed, so a
    client can observe its own response a beat before the collector
    holds the trace — real scrapers never notice, tests would.
    """
    deadline = time.monotonic() + timeout_s
    while True:
        snap = _get_json(base, "/debug/traces")
        seen = {t["trace_id"] for t in snap["recent"]}
        if trace_ids <= seen or time.monotonic() > deadline:
            return snap
        time.sleep(0.01)


class TestEndToEndTracing:
    """The acceptance path: 16 clients, 2 worker processes, rate 1.0."""

    @pytest.fixture(scope="class")
    def traced_server(self):
        configure_tracing(sample_rate=1.0, capacity=512, slowest=16)
        router = ServiceRouter(
            [
                RouteSpec(
                    "pretrained",
                    functools.partial(
                        build_pipeline, model="pretrained", seed=0
                    ),
                )
            ],
            n_workers=2,
            service_kwargs={"max_wait_ms": 1.0},
        )
        log_stream = io.StringIO()
        server = start_http_server(
            router, log_json=True, log_stream=log_stream
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}", router, log_stream
        server.shutdown()
        server.server_close()
        router.close()
        configure_tracing(
            sample_rate=0.0,
            capacity=DEFAULT_CAPACITY,
            slowest=DEFAULT_SLOWEST,
        )

    def test_sixteen_clients_full_parentage_across_workers(
        self, traced_server
    ):
        base, _, _ = traced_server
        # A target column past the AutoJoiner threshold (256), so the
        # worker runs the indexed join path and its phase spans.
        targets = [f"target-{i:04d}" for i in range(300)] + ["jchretien"]

        def one(i: int) -> str:
            body, headers = _post_json(
                base,
                "/v1/join",
                {
                    "sources": [f"Jean Chretien-{i}"],
                    "targets": targets,
                    "examples": _EXAMPLES,
                },
            )
            assert body["mode"] == "argmin"
            return headers["X-Repro-Trace-Id"]

        with ThreadPoolExecutor(max_workers=16) as pool:
            trace_ids = [
                future.result()
                for future in [pool.submit(one, i) for i in range(16)]
            ]
        assert len(set(trace_ids)) == 16

        snap = _wait_for_traces(base, set(trace_ids))
        traces = {t["trace_id"]: t for t in snap["recent"]}
        assert set(trace_ids) <= set(traces), "traces lost from the ring"

        full_chains = 0
        for trace_id in trace_ids:
            trace = traces[trace_id]
            assert trace["sampled"] is True
            tree = span_tree(trace)
            root = tree[None][0]
            assert root["name"] == "POST /v1/join"
            assert root["attributes"]["status"] == 200
            assert root["attributes"]["route"] == "pretrained"
            # Root -> the hop into a worker process.
            hop = tree[root["span_id"]]
            assert [s["name"] for s in hop] == ["worker.execute"]
            worker = hop[0]
            assert isinstance(worker["attributes"]["pid"], int)
            # Worker-side service: queue wait + this request's slice of
            # the batch, re-parented under the cross-process hop.
            names = {s["name"] for s in tree[worker["span_id"]]}
            assert "serve.queue_wait" in names
            assert "serve.batch_execute" in names
            batch = next(
                s
                for s in tree[worker["span_id"]]
                if s["name"] == "serve.batch_execute"
            )
            under_batch = {
                s["name"] for s in tree.get(batch["span_id"], [])
            }
            if {"engine.decode", "join.join_many"} <= under_batch:
                # This request was its batch's primary: it carries the
                # engine and join children directly.
                join = next(
                    s
                    for s in tree[batch["span_id"]]
                    if s["name"] == "join.join_many"
                )
                phases = {
                    s["name"] for s in tree.get(join["span_id"], [])
                }
                assert {
                    "join.index_build",
                    "join.candidate_filter",
                    "join.kernel_sweep",
                } <= phases
                assert join["attributes"]["probes"] >= 1
                full_chains += 1
            else:
                # Coalesced rider: the batch work lives in the primary
                # trace, linked by id instead of duplicated.
                assert "batch_primary_trace_id" in batch["attributes"]
        assert full_chains >= 1, "no batch primary captured the full chain"

    def test_sampled_topk_request_carries_join_phase_spans(
        self, traced_server
    ):
        # Top-k runs the same call frame as argmin, so its trace must
        # show the join phases too (it used to emit no join.* spans).
        base, _, _ = traced_server
        targets = [f"target-{i:04d}" for i in range(300)] + ["jchretien"]
        body, headers = _post_json(
            base,
            "/v1/join",
            {
                "sources": ["Jean Chretien"],
                "targets": targets,
                "examples": _EXAMPLES,
                "mode": "topk",
                "k": 3,
            },
        )
        assert body["mode"] == "topk"
        trace_id = headers["X-Repro-Trace-Id"]
        snap = _wait_for_traces(base, {trace_id})
        trace = next(t for t in snap["recent"] if t["trace_id"] == trace_id)
        names = {span["name"] for span in trace["spans"]}
        assert {"join.join_many", "join.kernel_sweep"} <= names

    def test_trace_header_matches_collector_and_limit_param(
        self, traced_server
    ):
        base, _, _ = traced_server
        _, headers = _post_json(
            base,
            "/v1/transform",
            {"sources": ["Kim Campbell"], "examples": _EXAMPLES},
        )
        trace_id = headers["X-Repro-Trace-Id"]
        _wait_for_traces(base, {trace_id})
        snap = _get_json(base, "/debug/traces?limit=1")
        assert len(snap["recent"]) == 1
        assert snap["recent"][0]["trace_id"] == trace_id
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get_json(base, "/debug/traces?limit=nope")
        assert excinfo.value.code == 400

    def test_readyz_reports_live_worker_topology(self, traced_server):
        base, _, _ = traced_server
        body = _get_json(base, "/readyz")
        assert body["ready"] is True
        assert body["routes"] == ["pretrained"]
        assert body["workers"] == {
            "n_workers": 2,
            "alive": 2,
            "restarts": 0,
        }

    def test_healthz_carries_schema_version(self, traced_server):
        base, _, _ = traced_server
        body = _get_json(base, "/healthz")
        assert body == {"schema_version": 1, "ok": True}

    def test_json_access_log_lines_carry_the_trace_id(
        self, traced_server
    ):
        base, _, log_stream = traced_server
        _, headers = _post_json(
            base,
            "/v1/transform",
            {"sources": ["Jean Charest"], "examples": _EXAMPLES},
        )
        trace_id = headers["X-Repro-Trace-Id"]
        # The log line lands just after the response is flushed; poll.
        deadline = time.monotonic() + 5.0
        mine: list[dict] = []
        while not mine and time.monotonic() < deadline:
            lines = [
                json.loads(line)
                for line in log_stream.getvalue().splitlines()
                if line.strip()
            ]
            mine = [line for line in lines if line["trace_id"] == trace_id]
            if not mine:
                time.sleep(0.01)
        assert len(mine) == 1
        entry = mine[0]
        assert entry["method"] == "POST"
        assert entry["path"] == "/v1/transform"
        assert entry["route"] == "pretrained"
        assert entry["status"] == 200
        assert entry["duration_ms"] > 0


class TestReadyzNotReady:
    def test_closed_router_fails_readiness_but_stays_live(self):
        router = ServiceRouter(
            [
                RouteSpec(
                    "pretrained",
                    functools.partial(
                        build_pipeline, model="pretrained", seed=0
                    ),
                )
            ],
            n_workers=0,
            service_kwargs={"max_wait_ms": 1.0},
        )
        server = start_http_server(router)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            body = _get_json(base, "/readyz")
            assert body["ready"] is True
            assert body["workers"] == {
                "n_workers": 0,
                "alive": 0,
                "restarts": 0,
            }
            router.close()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get_json(base, "/readyz")
            assert excinfo.value.code == 503
            assert json.load(excinfo.value)["ready"] is False
            # Liveness still answers 200: the process is up.
            assert _get_json(base, "/healthz")["ok"] is False
        finally:
            server.shutdown()
            server.server_close()
            router.close()
