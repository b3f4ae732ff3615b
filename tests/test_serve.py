"""Serving layer: equivalence, lifecycle, caching, and the HTTP front.

The service's contract is that coalescing is *invisible*: whatever the
interleaving of concurrent clients, every response is byte-identical to
a direct ``DTTPipeline`` call with the same request.  These tests
enforce that at 1 / 4 / 16 clients for the occurrence-dependent
surrogate, the incremental transformer (whose prompts genuinely pool
across requests), and a mixed ensemble — plus the request lifecycle
(deadlines, cancellation, backpressure, clean shutdown with in-flight
work), the TTL + LRU result cache, and the stdlib JSON front end.
"""

from __future__ import annotations

import http.client
import io
import json
import socket
import struct
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.pipeline import DTTPipeline, model_fingerprint
from repro.exceptions import (
    DeadlineExceededError,
    JoinError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.model.config import TINY_CONFIG
from repro.model.seq2seq import ByteSeq2SeqModel
from repro.obs.trace import get_tracer
from repro.serve.cache import ResultCache, column_key, examples_fingerprint
from repro.serve.http import start_http_server
from repro.serve.router import RouteSpec, ServiceRouter
from repro.serve.service import TransformService, kernel_pairs_total
from repro.surrogate.llm import GPT3Surrogate
from repro.surrogate.pretrained import PretrainedDTT
from repro.types import ExamplePair

_EXAMPLES = [
    ExamplePair("Justin Trudeau", "jtrudeau"),
    ExamplePair("Stephen Harper", "sharper"),
    ExamplePair("Paul Martin", "pmartin"),
    ExamplePair("Jean Chretien", "jchretien"),
]
_TARGETS = ("jchretien", "kcampbell", "jtrudeau", "sharper", "pmartin")


def _surrogate_pipeline() -> DTTPipeline:
    return DTTPipeline(PretrainedDTT(seed=0), n_trials=3, seed=1)


def _requests() -> list[tuple[str, tuple, dict]]:
    """A mixed transform/join request stream (kind, args, kwargs)."""
    stream: list[tuple[str, tuple, dict]] = []
    for row in ("Kim Campbell", "Paul Martin", "Justin Trudeau"):
        stream.append(("transform", ([row, "Jean Chretien"], _EXAMPLES), {}))
        stream.append(
            ("join", ([row], list(_TARGETS), _EXAMPLES), {})
        )
    # Repeats: the memoized path must stay byte-identical too.
    stream.append(stream[0])
    stream.append(stream[1])
    return stream


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class SlowModel:
    """A gate-controlled model for lifecycle tests."""

    name = "slow"

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.gate.set()
        self.calls = 0

    def generate(self, prompts: list[str]) -> list[str]:
        self.calls += 1
        self.gate.wait(timeout=5.0)
        return [f"out-{i}" for i in range(len(prompts))]


class TestByteEquivalence:
    @pytest.mark.parametrize("clients", [1, 4, 16])
    def test_surrogate_pipeline_matches_direct_calls(self, clients):
        direct = _surrogate_pipeline()
        stream = _requests()
        expected = [
            direct.transform_column(*args, **kwargs)
            if kind == "transform"
            else direct.join(*args, **kwargs)
            for kind, args, kwargs in stream
        ]
        with TransformService(_surrogate_pipeline()) as service:
            with ThreadPoolExecutor(max_workers=clients) as pool:
                futures = [
                    pool.submit(
                        service.transform if kind == "transform" else service.join,
                        *args,
                        **kwargs,
                    )
                    for kind, args, kwargs in stream
                ]
                results = [future.result() for future in futures]
        assert results == expected

    def test_incremental_model_coalesces_and_matches(self):
        # The transformer's prompts pool across requests into shared
        # micro-batches; greedy decoding keeps that invisible.
        def pipeline() -> DTTPipeline:
            return DTTPipeline(
                ByteSeq2SeqModel(TINY_CONFIG), n_trials=2, seed=3
            )

        sources = [f"row-{i:02d}" for i in range(12)]
        direct = pipeline()
        expected = [
            direct.transform_column([value], _EXAMPLES) for value in sources
        ]
        with TransformService(pipeline()) as service:
            assert service.row_cacheable  # all models incremental
            # The scheduler pops only under this lock, so every request
            # is queued before it can start a batch.
            with service._cond:
                futures = [
                    service.submit_transform([value], _EXAMPLES)
                    for value in sources
                ]
            results = [future.result(timeout=30) for future in futures]
        assert results == expected
        stats = service.stats()
        assert stats.batches < stats.batched_requests  # real coalescing

    def test_mixed_ensemble_matches_direct_calls(self):
        def pipeline() -> DTTPipeline:
            return DTTPipeline(
                [PretrainedDTT(seed=0), GPT3Surrogate(seed=0)],
                n_trials=2,
                seed=5,
            )

        direct = pipeline()
        expected = direct.transform_column(
            ["Kim Campbell", "Kim Campbell"], _EXAMPLES
        )
        with TransformService(pipeline()) as service:
            assert not service.row_cacheable  # surrogates in the mix
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(
                        service.transform,
                        ["Kim Campbell", "Kim Campbell"],
                        _EXAMPLES,
                    )
                    for _ in range(4)
                ]
                results = [future.result() for future in futures]
        assert all(result == expected for result in results)

    def test_join_groups_coalesce_by_target_column(self):
        direct = _surrogate_pipeline()
        expected_a = direct.join(["Kim Campbell"], list(_TARGETS), _EXAMPLES)
        other_targets = ["kcampbell", "xyz"]
        expected_b = direct.join(["Kim Campbell"], other_targets, _EXAMPLES)
        with TransformService(_surrogate_pipeline()) as service:
            # Queued under the scheduler's lock: one batch, two groups.
            with service._cond:
                futures_a = [
                    service.submit_join(
                        ["Kim Campbell"], list(_TARGETS), _EXAMPLES
                    )
                    for _ in range(2)
                ]
                futures_b = [
                    service.submit_join(
                        ["Kim Campbell"], other_targets, _EXAMPLES
                    )
                    for _ in range(2)
                ]
            results_a = [f.result(timeout=30) for f in futures_a]
            results_b = [f.result(timeout=30) for f in futures_b]
            stats = service.stats()
            joins = service.metrics.snapshot()["join_calls_total"]
        assert all(r == expected_a for r in results_a)
        assert all(r == expected_b for r in results_b)
        assert (stats.batches, stats.batched_requests) == (1, 4)
        assert joins == 2  # one joiner call per target column


class TestLifecycle:
    def test_deadline_expiry(self):
        clock = FakeClock()
        service = TransformService(_surrogate_pipeline(), clock=clock)
        try:
            # Stall the scheduler with a gate so the deadline passes
            # before the batch starts.
            model = SlowModel()
            stalling = TransformService(DTTPipeline(model, n_trials=1, seed=0))
            model.gate.clear()
            first = stalling.submit_transform(["a"], _EXAMPLES)
            time.sleep(0.05)  # scheduler is now blocked inside the gate
            # Meanwhile: a request whose deadline is already expired by
            # the fake clock at execution time.
            future = service.submit_transform(
                ["Kim Campbell"], _EXAMPLES, timeout=5.0
            )
            future.result()  # sanity: live deadline succeeds
            clock.advance(10.0)
            expired = service.submit_transform(
                ["Kim Campbell"], _EXAMPLES, timeout=-1.0
            )
            with pytest.raises(DeadlineExceededError):
                expired.result(timeout=5.0)
            assert service.stats().deadline_expired == 1
            model.gate.set()
            first.result(timeout=5.0)
            stalling.close()
        finally:
            service.close()

    def test_backpressure_rejection(self):
        model = SlowModel()
        service = TransformService(
            DTTPipeline(model, n_trials=1, seed=0),
            max_queue=1,
        )
        try:
            model.gate.clear()
            running = service.submit_transform(["a"], _EXAMPLES)
            time.sleep(0.05)  # let the scheduler pick it up and block
            queued = service.submit_transform(["b"], _EXAMPLES)
            with pytest.raises(ServiceOverloadedError):
                service.submit_transform(["c"], _EXAMPLES)
            assert service.stats().rejected == 1
            model.gate.set()
            assert len(running.result(timeout=5.0)) == 1
            assert len(queued.result(timeout=5.0)) == 1
        finally:
            model.gate.set()
            service.close()

    def test_cancellation_before_batch_starts(self):
        model = SlowModel()
        service = TransformService(DTTPipeline(model, n_trials=1, seed=0))
        try:
            model.gate.clear()
            running = service.submit_transform(["a"], _EXAMPLES)
            time.sleep(0.05)
            doomed = service.submit_transform(["b"], _EXAMPLES)
            assert doomed.cancel()
            model.gate.set()
            running.result(timeout=5.0)
            service.close()
            assert service.stats().cancelled == 1
            # The cancelled request never reached the model.
            assert model.calls == 1
        finally:
            model.gate.set()
            service.close()

    def test_clean_shutdown_completes_in_flight_requests(self):
        model = SlowModel()
        service = TransformService(DTTPipeline(model, n_trials=1, seed=0))
        model.gate.clear()
        futures = [
            service.submit_transform([f"row-{i}"], _EXAMPLES) for i in range(5)
        ]
        time.sleep(0.05)
        closer = threading.Thread(target=service.close)
        closer.start()
        time.sleep(0.05)
        model.gate.set()
        closer.join(timeout=5.0)
        assert not closer.is_alive()
        for future in futures:
            assert len(future.result(timeout=1.0)) == 1
        with pytest.raises(ServiceClosedError):
            service.submit_transform(["late"], _EXAMPLES)

    def test_lone_request_starts_without_waiting_for_company(self):
        # No hold window: a lone request starts as soon as the scheduler
        # is free, so even a clock that never moves cannot stall it.
        clock = FakeClock()
        with TransformService(_surrogate_pipeline(), clock=clock) as service:
            future = service.submit_join(
                ["Kim Campbell"], list(_TARGETS), _EXAMPLES
            )
            assert len(future.result(timeout=5)) == 1

    def test_empty_sources_resolve_without_a_batch(self):
        with TransformService(_surrogate_pipeline()) as service:
            assert service.transform([], _EXAMPLES) == []
            assert service.join([], list(_TARGETS), _EXAMPLES) == []
            assert service.stats().batches == 0

    def test_empty_targets_rejected_at_submit(self):
        with TransformService(_surrogate_pipeline()) as service:
            with pytest.raises(JoinError):
                service.submit_join(["a"], [], _EXAMPLES)

    def test_close_is_idempotent(self):
        service = TransformService(_surrogate_pipeline())
        service.close()
        service.close()
        assert service.closed


class TestResultCaching:
    def test_repeat_requests_hit_the_cache(self):
        with TransformService(_surrogate_pipeline()) as service:
            first = service.transform(["Kim Campbell"], _EXAMPLES)
            again = service.transform(["Kim Campbell"], _EXAMPLES)
            assert again == first
            stats = service.stats()
            assert stats.cache_hits >= 1
            # The hit skipped generation: engine prompts counted once.
            assert stats.engine_prompts == 3  # n_trials=3, one row

    def test_ttl_expiry_forces_recompute(self):
        clock = FakeClock()
        with TransformService(
            _surrogate_pipeline(),
            cache_kwargs={"ttl_seconds": 30.0},
            clock=clock,
        ) as service:
            first = service.transform(["Kim Campbell"], _EXAMPLES)
            assert service.stats().cache_hits == 0
            assert service.transform(["Kim Campbell"], _EXAMPLES) == first
            assert service.stats().cache_hits == 1
            clock.advance(31.0)
            assert service.transform(["Kim Campbell"], _EXAMPLES) == first
            stats = service.stats()
            assert stats.cache_expirations >= 1
            assert stats.engine_prompts == 6  # computed twice overall

    def test_examples_change_misses(self):
        with TransformService(_surrogate_pipeline()) as service:
            service.transform(["Kim Campbell"], _EXAMPLES)
            service.transform(["Kim Campbell"], _EXAMPLES[:-1])
            assert service.stats().cache_hits == 0

    def test_row_granular_keys_for_incremental_models(self):
        pipeline = DTTPipeline(ByteSeq2SeqModel(TINY_CONFIG), n_trials=1, seed=2)
        with TransformService(pipeline) as service:
            assert service.row_cacheable
            first = service.transform(["aaa", "bbb"], _EXAMPLES)
            # A different request shape reusing row 0's (position,
            # value) pair still hits that row's entry.
            partial = service.transform(["aaa", "zzz"], _EXAMPLES)
            assert partial[0] == first[0]
            assert service.stats().cache_hits == 1


class TestResultCache:
    def test_lru_and_byte_bounds(self):
        from repro.types import Prediction

        cache = ResultCache(max_entries=2, max_bytes=1 << 20)
        for i in range(3):
            cache.put((i,), (Prediction(source=str(i), value="v"),))
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get((0,)) is None  # evicted (oldest)
        assert cache.get((2,)) is not None

        tight = ResultCache(max_entries=10, max_bytes=1)
        tight.put(("a",), (Prediction(source="s", value="v"),))
        tight.put(("b",), (Prediction(source="s", value="v"),))
        assert len(tight) == 1  # newest always kept

    def test_ttl_and_sweep(self):
        from repro.types import Prediction

        clock = FakeClock()
        cache = ResultCache(ttl_seconds=10.0, clock=clock)
        cache.put(("k",), (Prediction(source="s", value="v"),))
        assert cache.get(("k",)) is not None
        clock.advance(11.0)
        assert cache.get(("k",)) is None
        assert cache.expirations == 1
        cache.put(("k2",), (Prediction(source="s", value="v"),))
        clock.advance(11.0)
        assert cache.sweep() == 1
        assert len(cache) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)
        with pytest.raises(ValueError):
            ResultCache(max_bytes=0)
        with pytest.raises(ValueError):
            ResultCache(ttl_seconds=0)


class TestColumnKey:
    """``column_key`` is the target column's part of a join-cache key."""

    def test_same_length_mutation_changes_key(self):
        # The same-length in-place edit is the classic staleness hole:
        # equal row count, equal lengths, different content.
        assert column_key(("aaa", "bbb", "ccc")) != column_key(
            ("aaa", "zzz", "ccc")
        )

    def test_value_boundaries_are_unambiguous(self):
        # Length-prefixed encoding: shifting characters across value
        # boundaries must not collide.
        assert column_key(("ab", "c")) != column_key(("a", "bc"))
        assert column_key(("ab",)) != column_key(("a", "b"))

    def test_row_order_matters(self):
        assert column_key(("a", "b")) != column_key(("b", "a"))

    def test_equal_columns_agree_across_container_types(self):
        assert column_key(["ab", "cd"]) == column_key(("ab", "cd"))

    def test_lone_surrogates_hash(self):
        assert column_key(("a\ud800b",)) != column_key(("ab",))


class TestFingerprints:
    def test_examples_fingerprint_is_order_and_content_sensitive(self):
        pool = [ExamplePair("a", "b"), ExamplePair("c", "d")]
        assert examples_fingerprint(pool) == examples_fingerprint(list(pool))
        assert examples_fingerprint(pool) != examples_fingerprint(pool[::-1])
        assert examples_fingerprint(pool) != examples_fingerprint(
            [ExamplePair("a", "b"), ExamplePair("c", "x")]
        )
        # Length-prefixed framing: moving a character across the
        # source/target boundary, or across two pairs, changes the key.
        assert examples_fingerprint(
            [ExamplePair("ab", "c")]
        ) != examples_fingerprint([ExamplePair("a", "bc")])
        assert examples_fingerprint(pool) != examples_fingerprint(
            [ExamplePair("a", "bc"), ExamplePair("", "d")]
        )

    def test_model_fingerprint_tracks_weights(self):
        model = ByteSeq2SeqModel(TINY_CONFIG)
        before = model.fingerprint()
        assert before == ByteSeq2SeqModel(TINY_CONFIG).fingerprint()
        parameter = model.network.parameters()[0]
        parameter.value[...] += 1.0
        assert model.fingerprint() != before

    def test_surrogate_fingerprints_track_parameters(self):
        assert (
            PretrainedDTT(seed=0).fingerprint()
            == PretrainedDTT(seed=0).fingerprint()
        )
        assert (
            PretrainedDTT(seed=0).fingerprint()
            != PretrainedDTT(seed=1).fingerprint()
        )
        assert (
            GPT3Surrogate(seed=0).fingerprint()
            != GPT3Surrogate(seed=1).fingerprint()
        )

    def test_pipeline_fingerprint_covers_decoding_config(self):
        base = _surrogate_pipeline().fingerprint()
        assert base == _surrogate_pipeline().fingerprint()
        assert base != DTTPipeline(
            PretrainedDTT(seed=0), n_trials=4, seed=1
        ).fingerprint()

    def test_model_fingerprint_fallback(self):
        model = SlowModel()
        assert "SlowModel" in model_fingerprint(model)


class TestMainEntryPoint:
    def test_build_router_from_cli_options(self):
        # Every CLI start goes through build_router; --serve-workers 0
        # (the default) means one in-process service per route.
        import argparse

        import repro.serve.__main__ as entry

        captured = None

        def capture(router, host, port, verbose, **kwargs):
            # Replaces serve_http; the HTTP front-end knobs ride in
            # kwargs and must carry the CLI defaults.
            nonlocal captured
            captured = (router, host, port, verbose)
            assert kwargs["max_request_bytes"] == 16 << 20
            assert kwargs["request_timeout_s"] == 30.0
            router.close()

        original = entry.serve_http
        entry.serve_http = capture
        try:
            entry.main(
                [
                    "--port",
                    "0",
                    "--model",
                    "ensemble",
                    "--n-trials",
                    "2",
                    "--max-queue",
                    "7",
                    "--cache-ttl-s",
                    "60",
                    "--quiet",
                ]
            )
            # The batching window is gone, and so is its flag.
            with pytest.raises(SystemExit):
                entry.main(["--port", "0", "--max-wait-ms", "1.5", "--quiet"])
        finally:
            entry.serve_http = original
        router, host, port, verbose = captured
        assert router.closed
        assert port == 0 and verbose is False
        assert router.n_workers == 0
        assert router.default_route == "ensemble"
        service = router._routes["ensemble"].service
        assert service.closed
        assert service.max_queue == 7
        assert service.result_cache.ttl_seconds == 60
        assert len(service.pipeline.models) == 2
        # And the default single-model path constructs too.
        args = argparse.Namespace(
            model="pretrained",
            route=None,
            serve_workers=0,
            seed=0,
            context_size=2,
            n_trials=1,
            max_batch_rows=16,
            max_queue=4,
            default_timeout_s=None,
            cache_max_entries=8,
            cache_ttl_s=None,
        )
        router = entry.build_router(args)
        try:
            service = router._routes["pretrained"].service
            assert len(service.pipeline.models) == 1
        finally:
            router.close()


class TestHttpFrontEnd:
    @pytest.fixture()
    def server(self, request):
        """A one-route router; ``param`` = its worker count (default 0)."""
        router = ServiceRouter(
            [RouteSpec("default", _surrogate_pipeline)],
            n_workers=getattr(request, "param", 0),
        )
        server = start_http_server(router)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}"
        server.shutdown()
        server.server_close()
        router.close()

    @staticmethod
    def _post(base: str, path: str, payload: dict) -> dict:
        request = urllib.request.Request(
            base + path,
            json.dumps(payload).encode("utf-8"),
            {"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            return json.load(response)

    def test_transform_join_stats_and_health(self, server):
        examples = [pair.as_tuple() for pair in _EXAMPLES]
        transform = self._post(
            server,
            "/v1/transform",
            {"sources": ["Kim Campbell"], "examples": examples},
        )
        direct = _surrogate_pipeline().transform_column(
            ["Kim Campbell"], _EXAMPLES
        )
        assert transform["predictions"][0]["value"] == direct[0].value
        assert transform["predictions"][0]["votes"] == direct[0].votes

        join = self._post(
            server,
            "/v1/join",
            {
                "sources": ["Kim Campbell"],
                "targets": list(_TARGETS),
                "examples": examples,
            },
        )
        assert join["results"][0]["matched"] == "kcampbell"

        with urllib.request.urlopen(server + "/v1/stats") as response:
            stats = json.load(response)
        assert stats["requests"] == 2
        with urllib.request.urlopen(server + "/healthz") as response:
            assert json.load(response)["ok"] is True

    def test_error_mapping(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(server, "/v1/transform", {"sources": "nope"})
        assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(
                server,
                "/v1/join",
                {
                    "sources": ["a"],
                    "targets": [],
                    "examples": [["x", "y"], ["p", "q"]],
                },
            )
        assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(server, "/v1/nope", {"sources": []})
        assert excinfo.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server + "/nope")
        assert excinfo.value.code == 404

    def test_metrics_endpoint_exposes_live_state(self, server):
        examples = [pair.as_tuple() for pair in _EXAMPLES]
        payload = {"sources": ["Kim Campbell"], "examples": examples}
        self._post(server, "/v1/transform", payload)
        self._post(server, "/v1/transform", payload)  # row cached now

        with urllib.request.urlopen(server + "/metrics") as response:
            content_type = response.headers["Content-Type"]
            body = response.read().decode("utf-8")
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"
        # Latency histograms: cumulative buckets, +Inf, sum, count.
        assert "# TYPE serve_request_latency_seconds histogram" in body
        assert 'serve_request_latency_seconds_bucket{le="+Inf"} 2' in body
        assert "serve_request_latency_seconds_count 2" in body
        assert "serve_queue_wait_seconds_count 2" in body
        # Occupancy: two single-request batches, one row each.
        assert 'serve_batch_occupancy_requests_bucket{le="1"} 2' in body
        assert 'serve_batch_occupancy_rows_bucket{le="1"} 2' in body
        # Gauges read live state (queue drained by now).
        assert "# TYPE serve_queue_depth gauge" in body
        assert "serve_queue_depth 0" in body
        # Cache counters: the repeated row hit the result cache once.
        assert "# TYPE serve_cache_hits_total counter" in body
        assert "serve_cache_hits_total 1" in body
        assert "serve_requests_total 2" in body

    def test_keep_alive_replies_do_not_stall(self, server):
        """Back-to-back requests on one connection answer in compute time.

        A reply whose body goes out as a second segment waits for the
        client's delayed ACK of the headers (Nagle), about 44 ms each;
        one write per reply answers well under 1 ms.
        """
        split = urllib.parse.urlsplit(server)
        connection = http.client.HTTPConnection(split.hostname, split.port)
        join = json.dumps(
            {
                "sources": ["Kim Campbell"],
                "targets": list(_TARGETS),
                "examples": [pair.as_tuple() for pair in _EXAMPLES],
            }
        ).encode("utf-8")
        requests = {
            "healthz": ("GET", "/healthz", None),
            "join": ("POST", "/v1/join", join),
        }
        try:
            for name, (method, path, body) in requests.items():
                elapsed_ms = []
                for _ in range(20):
                    started = time.perf_counter()
                    connection.request(method, path, body)
                    response = connection.getresponse()
                    response.read()
                    elapsed_ms.append((time.perf_counter() - started) * 1e3)
                    assert response.status == 200
                median_ms = sorted(elapsed_ms)[len(elapsed_ms) // 2]
                assert median_ms < 20.0, (name, elapsed_ms)
        finally:
            connection.close()

    @pytest.mark.parametrize("server", [0, 2], indirect=True)
    def test_stats_nests_the_metrics_snapshot(self, server):
        """Behind workers the block is the per-worker snapshots, summed."""
        examples = [pair.as_tuple() for pair in _EXAMPLES]
        self._post(
            server,
            "/v1/transform",
            {"sources": ["Kim Campbell"], "examples": examples},
        )
        with urllib.request.urlopen(server + "/v1/stats") as response:
            stats = json.load(response)
        assert stats["requests"] == 1  # legacy flat fields intact
        metrics = stats["metrics"]
        latency = metrics["serve_request_latency_seconds"]
        assert latency["count"] == 1
        assert latency["sum"] >= 0.0
        assert latency["buckets"][-1]["le"] == pytest.approx(1e-4 * 2**20)
        assert metrics["serve_queue_depth"] == 0
        assert metrics["serve_requests_total"] == 1


class TestHttpHardening:
    """Malformed framing must map to 4xx responses, never hangs or 500s."""

    @pytest.fixture()
    def server(self):
        router = ServiceRouter([RouteSpec("default", _surrogate_pipeline)])
        server = start_http_server(
            router,
            max_request_bytes=256,
            request_timeout_s=0.5,
            log_json=True,
            log_stream=io.StringIO(),
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield host, port, router, server
        server.shutdown()
        server.server_close()
        router.close()

    @staticmethod
    def _raw(host: str, port: int, request: bytes, half_close: bool = False):
        """Send raw bytes; return the status code of the response."""
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(request)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
            reader = sock.makefile("rb")
            status_line = reader.readline().decode("latin-1")
        assert status_line.startswith("HTTP/1."), status_line
        return int(status_line.split()[1])

    @staticmethod
    def _request(headers: list[str], body: bytes = b"") -> bytes:
        lines = ["POST /v1/transform HTTP/1.1", "Host: t", *headers, "", ""]
        return "\r\n".join(lines).encode("latin-1") + body

    def test_malformed_content_length_is_400(self, server):
        host, port, *_ = server
        request = self._request(["Content-Length: banana"])
        assert self._raw(host, port, request) == 400

    def test_missing_content_length_is_400(self, server):
        host, port, *_ = server
        assert self._raw(host, port, self._request([])) == 400

    def test_nonpositive_content_length_is_400(self, server):
        host, port, *_ = server
        request = self._request(["Content-Length: -5"])
        assert self._raw(host, port, request) == 400

    def test_oversized_body_is_413_without_reading_it(self, server):
        host, port, *_ = server
        # Declared far beyond max_request_bytes=256; no body is sent at
        # all, so a 413 here proves the server rejected on the header.
        request = self._request(["Content-Length: 1000000"])
        assert self._raw(host, port, request) == 413

    def test_truncated_body_is_400(self, server):
        host, port, *_ = server
        request = self._request(["Content-Length: 100"], body=b'{"sour')
        assert self._raw(host, port, request, half_close=True) == 400

    def test_stalled_body_times_out_as_408(self, server):
        host, port, *_ = server
        # Declares 100 bytes, sends 6, keeps the socket open: the read
        # timeout (0.5 s here) must turn the stall into a 408 instead
        # of pinning the worker thread forever.
        request = self._request(["Content-Length: 100"], body=b'{"sour')
        assert self._raw(host, port, request) == 408

    def test_closed_service_submit_is_503(self, server):
        host, port, router, _ = server
        router.close()
        body = json.dumps(
            {
                "sources": ["Kim Campbell"],
                "examples": [pair.as_tuple() for pair in _EXAMPLES],
            }
        ).encode("utf-8")
        request = self._request(
            [f"Content-Length: {len(body)}", "Content-Type: application/json"],
            body=body,
        )
        assert self._raw(host, port, request) == 503

    @staticmethod
    def _reset(sock: socket.socket) -> None:
        """Close with ``SO_LINGER`` 0: the server sees a reset, not a FIN."""
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.close()

    @staticmethod
    def _count_finished(http_server) -> threading.Semaphore:
        """Release the returned semaphore as each connection finishes.

        ``socketserver`` calls ``shutdown_request`` once per connection,
        after ``handle_error`` when an exception left the handler.
        """
        finished = threading.Semaphore(0)
        shutdown_request = http_server.shutdown_request

        def count_finished(request) -> None:
            shutdown_request(request)
            finished.release()

        http_server.shutdown_request = count_finished
        return finished

    def test_client_reset_never_reaches_the_error_printer(self, server):
        host, port, _, http_server = server
        errors = []
        http_server.handle_error = lambda request, address: errors.append(
            address
        )
        finished = self._count_finished(http_server)
        for _ in range(5):
            # A reset after a served keep-alive request ...
            sock = socket.create_connection((host, port), timeout=5.0)
            sock.sendall(b"GET /v1/stats HTTP/1.1\r\nHost: t\r\n\r\n")
            response = http.client.HTTPResponse(sock)
            response.begin()
            response.read()
            assert response.status == 200
            self._reset(sock)
            # ... and a reset mid-body on a POST that declares 100 bytes.
            sock = socket.create_connection((host, port), timeout=5.0)
            sock.sendall(
                self._request(["Content-Length: 100"], body=b'{"sour')
            )
            self._reset(sock)
        for _ in range(10):
            assert finished.acquire(timeout=5.0)
        assert errors == []

    def test_client_reset_mid_body_is_not_a_server_error(self, server):
        # A client that resets while its body is read has nobody left
        # to answer: its request must neither log a 500 nor commit an
        # errored trace, although the tracer samples nothing here.
        host, port, _, http_server = server
        tracer = get_tracer()
        assert tracer.sample_rate == 0.0
        committed = tracer.collector.collected
        finished = self._count_finished(http_server)
        for _ in range(5):
            sock = socket.create_connection((host, port), timeout=5.0)
            sock.sendall(
                self._request(["Content-Length: 100"], body=b'{"sour')
            )
            self._reset(sock)
        for _ in range(5):
            assert finished.acquire(timeout=5.0)
        log = [
            json.loads(line)
            for line in http_server.log_stream.getvalue().splitlines()
        ]
        assert [record["status"] for record in log if record["status"]] == []
        assert tracer.collector.collected == committed

    def test_http09_get_is_a_bare_body(self, server):
        host, port, *_ = server
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(b"GET /healthz\r\n\r\n")
            body = sock.makefile("rb").read()
        assert json.loads(body) == {"schema_version": 1, "ok": True}


class TestTopKServing:
    """Mode-aware coalescing must stay invisible to every client."""

    @pytest.mark.parametrize("clients", [1, 4, 16])
    def test_topk_matches_direct_pipeline(self, clients):
        direct = _surrogate_pipeline()
        rows = ["Kim Campbell", "Paul Martin", "Justin Trudeau"]
        expected = {}
        for row in rows:
            predictions = direct.transform_column([row], _EXAMPLES)
            expected[row] = direct.joiner.join_topk(
                predictions, list(_TARGETS), k=3, margin=0.2
            )
        with TransformService(_surrogate_pipeline()) as service:
            with ThreadPoolExecutor(max_workers=clients) as pool:
                futures = {
                    pool.submit(
                        service.join,
                        [row],
                        list(_TARGETS),
                        _EXAMPLES,
                        mode="topk",
                        k=3,
                        margin=0.2,
                    ): row
                    for row in rows * 4
                }
                for future, row in futures.items():
                    assert future.result() == expected[row], row

    @pytest.mark.parametrize("clients", [1, 4])
    def test_reverse_matches_direct_pipeline(self, clients):
        from repro.core.joiner import invert_matches

        direct = _surrogate_pipeline()
        rows = ["Kim Campbell", "Paul Martin"]
        expected = {}
        for row in rows:
            predictions = direct.transform_column([row], _EXAMPLES)
            matches = direct.joiner.join_many(
                [p.value for p in predictions], list(_TARGETS)
            )
            expected[row] = invert_matches(matches, list(_TARGETS))
        with TransformService(_surrogate_pipeline()) as service:
            with ThreadPoolExecutor(max_workers=clients) as pool:
                futures = {
                    pool.submit(
                        service.join,
                        [row],
                        list(_TARGETS),
                        _EXAMPLES,
                        mode="reverse",
                    ): row
                    for row in rows * 3
                }
                for future, row in futures.items():
                    assert future.result() == expected[row], row

    def test_distinct_modes_never_share_a_group(self):
        # One batch, same targets, three modes: each request must get
        # its own mode's result shape.
        direct = _surrogate_pipeline()
        expected_argmin = direct.join(["Kim Campbell"], list(_TARGETS), _EXAMPLES)
        with TransformService(_surrogate_pipeline()) as service:
            # Queued under the scheduler's lock, so all three share a batch.
            with service._cond:
                argmin = service.submit_join(
                    ["Kim Campbell"], list(_TARGETS), _EXAMPLES
                )
                topk = service.submit_join(
                    ["Kim Campbell"],
                    list(_TARGETS),
                    _EXAMPLES,
                    mode="topk",
                    k=2,
                )
                reverse = service.submit_join(
                    ["Kim Campbell"],
                    list(_TARGETS),
                    _EXAMPLES,
                    mode="reverse",
                )
            assert argmin.result(timeout=30) == expected_argmin
            topk_result = topk.result(timeout=30)
            assert len(topk_result) == 1
            assert len(topk_result[0].candidates) <= 2
            reverse_result = reverse.result(timeout=30)
            assert len(reverse_result) == len(_TARGETS)
            stats = service.stats()
            joins = service.metrics.snapshot()["join_calls_total"]
        assert (stats.batches, stats.batched_requests) == (1, 3)
        assert joins == 3  # one joiner call per mode

    def test_topk_join_credits_its_own_kernel_pairs(self):
        # An argmin join then a top-k join: each must publish its own
        # JoinStats, so the service's per-backend totals grow by exactly
        # what the kernels scored (a top-k call used to re-credit the
        # previous argmin call's stale stats).
        from repro.index.kernels import pairs_scored_snapshot

        targets = [f"target-{i:04d}" for i in range(300)] + list(_TARGETS)

        def scored() -> int:
            return sum(pairs_scored_snapshot().values())

        def credited(service: TransformService) -> int:
            return sum(kernel_pairs_total(service.metrics.snapshot()).values())

        with TransformService(_surrogate_pipeline()) as service:
            scored_before = scored()
            service.join(["Kim Campbell"], targets, _EXAMPLES)
            after_argmin = credited(service)
            assert after_argmin == scored() - scored_before
            service.join(["Paul Martin"], targets, _EXAMPLES, mode="topk", k=3)
            assert credited(service) > after_argmin
            assert credited(service) == scored() - scored_before
            assert service.last_join_stats.exact_matches == 0

    def test_small_column_join_publishes_stats(self):
        # The default joiner indexes every column, so a five-row target
        # column moves the join counters like a large one.
        with TransformService(_surrogate_pipeline()) as service:
            assert service.last_join_stats is None
            service.join(["Kim Campbell"], list(_TARGETS), _EXAMPLES)
            assert service.last_join_stats.probes == 1
            assert "join_calls_total 1" in service.metrics_text()

    def test_submit_validation(self):
        with TransformService(_surrogate_pipeline()) as service:
            with pytest.raises(JoinError):
                service.submit_join(
                    ["a"], list(_TARGETS), _EXAMPLES, mode="nearest"
                )
            with pytest.raises(JoinError):
                service.submit_join(["a"], list(_TARGETS), _EXAMPLES, k=0)
            with pytest.raises(JoinError):
                service.submit_join(["a"], list(_TARGETS), _EXAMPLES, k=True)
            for bad_margin in (-0.1, float("nan")):
                with pytest.raises(JoinError):
                    service.submit_join(
                        ["a"], list(_TARGETS), _EXAMPLES, margin=bad_margin
                    )


class TestHttpJoinSchema:
    """Versioned payloads and structured validation errors."""

    @pytest.fixture()
    def server(self):
        router = ServiceRouter([RouteSpec("default", _surrogate_pipeline)])
        server = start_http_server(router)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}"
        server.shutdown()
        server.server_close()
        router.close()

    @staticmethod
    def _post(base: str, path: str, payload: dict) -> dict:
        request = urllib.request.Request(
            base + path,
            json.dumps(payload).encode("utf-8"),
            {"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            return json.load(response)

    def _post_error(self, base: str, path: str, payload: dict) -> dict:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(base, path, payload)
        assert excinfo.value.code == 400
        body = json.load(excinfo.value)
        error = body["error"]
        assert set(error) <= {"code", "field", "detail"}
        assert error["code"] and error["detail"]
        return error

    def _join_payload(self, **overrides) -> dict:
        payload = {
            "sources": ["Kim Campbell"],
            "targets": list(_TARGETS),
            "examples": [pair.as_tuple() for pair in _EXAMPLES],
        }
        payload.update(overrides)
        return payload

    def test_responses_carry_schema_version(self, server):
        examples = [pair.as_tuple() for pair in _EXAMPLES]
        transform = self._post(
            server,
            "/v1/transform",
            {"sources": ["Kim Campbell"], "examples": examples},
        )
        assert transform["schema_version"] == 1
        join = self._post(server, "/v1/join", self._join_payload())
        assert join["schema_version"] == 1
        assert join["mode"] == "argmin"

    def test_topk_over_http_matches_direct(self, server):
        direct = _surrogate_pipeline()
        predictions = direct.transform_column(["Kim Campbell"], _EXAMPLES)
        expected = direct.joiner.join_topk(
            predictions, list(_TARGETS), k=3, margin=0.2
        )
        body = self._post(
            server,
            "/v1/join",
            self._join_payload(mode="topk", k=3, margin=0.2),
        )
        assert body["mode"] == "topk"
        assert body["results"] == [r.to_dict() for r in expected]

    def test_reverse_over_http_groups_and_unmatched(self, server):
        body = self._post(
            server, "/v1/join", self._join_payload(mode="reverse")
        )
        assert body["mode"] == "reverse"
        grouped = {
            index for group in body["groups"] for index in group["sources"]
        }
        assert grouped | set(body["unmatched"]) == {0}
        for group in body["groups"]:
            assert group["target"] in _TARGETS
            assert group["sources"]

    def test_unknown_field_is_structured_400(self, server):
        error = self._post_error(
            server, "/v1/join", self._join_payload(topk=3)
        )
        assert error["code"] == "unknown_field"
        assert error["field"] == "topk"

    def test_unknown_transform_field_is_structured_400(self, server):
        error = self._post_error(
            server,
            "/v1/transform",
            {"sources": ["a"], "examples": [], "targets": ["b"]},
        )
        assert error["code"] == "unknown_field"
        assert error["field"] == "targets"

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"mode": "nearest"}, "mode"),
            ({"mode": 3}, "mode"),
            ({"k": 0}, "k"),
            ({"k": "2"}, "k"),
            ({"k": True}, "k"),
            ({"margin": -0.5}, "margin"),
            ({"margin": "wide"}, "margin"),
            ({"margin": True}, "margin"),
            ({"sources": "nope"}, "sources"),
            ({"targets": [1, 2]}, "targets"),
            ({"timeout_s": True}, "timeout_s"),
            ({"timeout_s": float("nan")}, "timeout_s"),
            ({"timeout_s": float("inf")}, "timeout_s"),
            ({"margin": float("nan")}, "margin"),
            ({"margin": float("inf")}, "margin"),
        ],
    )
    def test_invalid_values_are_structured_400(self, server, overrides, field):
        error = self._post_error(
            server, "/v1/join", self._join_payload(**overrides)
        )
        assert error["code"] == "invalid_value"
        assert error["field"] == field

    def test_empty_targets_is_structured_400(self, server):
        error = self._post_error(
            server, "/v1/join", self._join_payload(targets=[])
        )
        assert error["code"] == "invalid_request"

    def test_not_found_is_structured(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(server, "/v1/nope", {"sources": []})
        assert excinfo.value.code == 404
        assert json.load(excinfo.value)["error"]["code"] == "not_found"
