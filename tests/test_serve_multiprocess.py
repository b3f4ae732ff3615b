"""Tests for the multi-process, multi-pipeline serving tier.

Covers the PR-9 contract end to end: byte-equivalence between the
worker-pool router and the single-process path at every worker count ×
client count, worker crash containment (structured failure + respawn),
per-route cache isolation, join-result cache hit/expiry semantics, and
the new HTTP surface (``/v1/models``, ``model`` selectors, the
``worker_crashed``/``unknown_model`` error codes, labeled metrics), and
the pool's throughput floor against in-process serving (slow lane).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
import re
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.core.pipeline import DTTPipeline
from repro.exceptions import (
    DeadlineExceededError,
    ServiceOverloadedError,
    UnknownModelError,
    WorkerCrashedError,
)
from repro.index.kernels import KERNEL_BACKENDS
from repro.model.config import DTTModelConfig
from repro.model.seq2seq import ByteSeq2SeqModel
from repro.obs.metrics import merge_labeled_snapshots
from repro.serve.http import start_http_server
from repro.serve.router import RouteSpec, ServiceRouter, build_pipeline
from repro.serve.service import TransformService
from repro.types import ExamplePair

from timing import check_floor, median_seconds

_EXAMPLES = (
    ExamplePair("Justin Trudeau", "jtrudeau"),
    ExamplePair("Stephen Harper", "sharper"),
    ExamplePair("Paul Martin", "pmartin"),
)
_TARGETS = ("jchretien", "kcampbell", "bmulroney", "jturner")


def _route(name: str = "pretrained", seed: int = 0) -> RouteSpec:
    return RouteSpec(
        name,
        functools.partial(build_pipeline, model="pretrained", seed=seed),
    )


def _sources(tag: str, count: int) -> list[str]:
    return [f"{tag} Chretien-{i}" for i in range(count)]


def _concurrent_transforms(
    router, sources: list[str], clients: int
) -> list:
    results: list = [None] * len(sources)

    def one(i: int) -> None:
        results[i] = router.transform([sources[i]], _EXAMPLES)

    with ThreadPoolExecutor(max_workers=clients) as pool:
        for future in [pool.submit(one, i) for i in range(len(sources))]:
            future.result()
    return results


class FileGatedModel:
    """A model the test holds and releases across process boundaries.

    A prompt mentioning ``hold`` drops an ``entered-<pid>-<n>`` marker
    in ``gate_dir`` and blocks until a ``release`` file appears there;
    one mentioning ``boom`` raises.  Plain files work under fork and
    spawn alike, and the instance pickles.
    """

    name = "file-gated"

    def __init__(self, gate_dir: str) -> None:
        self.gate_dir = Path(gate_dir)
        self.calls = 0

    def generate(self, prompts: list[str]) -> list[str]:
        self.calls += 1
        if any("boom" in prompt for prompt in prompts):
            raise RuntimeError("model exploded")
        if any("hold" in prompt for prompt in prompts):
            marker = f"entered-{os.getpid()}-{self.calls}"
            (self.gate_dir / marker).touch()
            _wait_until(lambda: (self.gate_dir / "release").exists())
        return [f"out-{i}" for i in range(len(prompts))]


def _gated_pipeline(gate_dir: str) -> DTTPipeline:
    return DTTPipeline(FileGatedModel(gate_dir), n_trials=1, seed=0)


def _wait_until(condition, timeout_s: float = 20.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.005)


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(scope="module")
def reference():
    """Single-process reference outputs for the shared request sets."""
    service = TransformService(build_pipeline())
    out = {
        "transforms": {},
        "join": service.join(
            _sources("ref", 4), _TARGETS, _EXAMPLES
        ),
        "topk": service.join(
            _sources("ref", 4), _TARGETS, _EXAMPLES, mode="topk", k=2
        ),
        "reverse": service.join(
            _sources("ref", 4), _TARGETS, _EXAMPLES, mode="reverse"
        ),
    }
    for clients in (1, 4, 16):
        sources = _sources(f"c{clients}", 12)
        out["transforms"][clients] = [
            service.transform([value], _EXAMPLES) for value in sources
        ]
    service.close()
    return out


class TestWorkerPoolEquivalence:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_byte_equivalence_across_workers_and_clients(
        self, n_workers, reference
    ):
        router = ServiceRouter([_route()], n_workers=n_workers)
        try:
            for clients in (1, 4, 16):
                sources = _sources(f"c{clients}", 12)
                results = _concurrent_transforms(router, sources, clients)
                assert results == reference["transforms"][clients], (
                    f"diverged at workers={n_workers} clients={clients}"
                )
            # Joins cross the same pipe; all three modes must match.
            sources = _sources("ref", 4)
            assert (
                router.join(sources, _TARGETS, _EXAMPLES)
                == reference["join"]
            )
            assert (
                router.join(
                    sources, _TARGETS, _EXAMPLES, mode="topk", k=2
                )
                == reference["topk"]
            )
            assert (
                router.join(sources, _TARGETS, _EXAMPLES, mode="reverse")
                == reference["reverse"]
            )
        finally:
            router.close()

    def test_closed_router_reports_closed(self):
        router = ServiceRouter([_route()], n_workers=1)
        assert not router.closed
        router.close()
        assert router.closed


class TestWorkerCrash:
    def test_inflight_requests_fail_with_worker_crashed(self, tmp_path):
        router = ServiceRouter(
            [
                RouteSpec(
                    "gated",
                    functools.partial(_gated_pipeline, str(tmp_path)),
                )
            ],
            n_workers=1,
        )
        try:
            pool = router._pool
            # A well-formed request, held inside the worker's model so
            # the kill below cannot lose a race with the reply.
            args = (("hold me",), _EXAMPLES, None)
            future = pool.submit(
                "request", ("gated", "transform", args, {}, None)
            )
            _wait_until(lambda: any(tmp_path.glob("entered-*")))
            pool.workers[0].process.kill()
            with pytest.raises(WorkerCrashedError):
                future.result(30)
        finally:
            router.close()

    def test_pool_respawns_after_crash(self, reference):
        router = ServiceRouter([_route()], n_workers=1)
        try:
            pool = router._pool
            sources = _sources("c1", 12)
            assert router.transform([sources[0]], _EXAMPLES) == (
                reference["transforms"][1][0]
            )
            victim = pool.workers[0]
            victim.process.kill()
            victim.process.join()
            # Dispatch respawns before placing work; the replacement
            # rebuilds the identical pipeline from the factory.
            assert router.transform([sources[1]], _EXAMPLES) == (
                reference["transforms"][1][1]
            )
            assert pool.restarts == 1
            assert router.stats()["workers"]["restarts"] == 1
        finally:
            router.close()


class TestFreshStartWorkers:
    """Workers that start from a clean interpreter (``inherited=None``)."""

    def test_non_fork_start_method_with_live_threads(self, monkeypatch, reference):
        # Forking a multi-threaded process can deadlock workers on
        # inherited locks, so the pool must fall back to a fresh-start
        # method — and stay byte-identical through it.  Fresh-start
        # workers get no prebuilt pipelines: each rebuilds its routes
        # from the picklable factories.
        from multiprocessing.context import ForkProcess

        from repro.serve import workers

        monkeypatch.setattr(workers.threading, "active_count", lambda: 2)
        assert workers.pool_context().get_start_method() != "fork"
        router = ServiceRouter([_route()], n_workers=2)
        try:
            assert not any(
                isinstance(worker.process, ForkProcess)
                for worker in router._pool.workers
            )
            sources = _sources("c4", 12)
            assert (
                _concurrent_transforms(router, sources, 4)
                == reference["transforms"][4]
            )
            assert (
                router.join(_sources("ref", 4), _TARGETS, _EXAMPLES)
                == reference["join"]
            )
        finally:
            router.close()

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_workers_inherit_backend(self, monkeypatch, reference, backend):
        # Nothing tells a worker which kernel to use: the joiner it
        # builds reads REPRO_KERNEL_BACKEND from the environment the
        # worker started with.  ``spawn`` starts it with the parent's
        # environment as it is now (a forkserver child would have the
        # server's), and a spawned worker builds its own joiner.
        import multiprocessing

        from repro.serve import workers

        monkeypatch.setenv("REPRO_KERNEL_BACKEND", backend)
        monkeypatch.setattr(
            workers, "pool_context", lambda: multiprocessing.get_context("spawn")
        )
        router = ServiceRouter([_route()], n_workers=1)
        try:
            assert (
                router.join(_sources("ref", 4), _TARGETS, _EXAMPLES)
                == reference["join"]
            )
            join = router.stats()["join"]
            assert join["last_join"]["kernel_backend"] == backend
            assert join["last_join"]["pending"] > 0
            assert set(join["kernel_pairs_total"]) == {backend}
        finally:
            router.close()


class TestCounterConservation:
    @pytest.mark.parametrize("n_workers", [0, 2])
    def test_every_accepted_request_reaches_one_terminal_counter(
        self, n_workers, tmp_path
    ):
        """requests == batched + cancelled + expired; batched == ok + failed.

        Holds per route, summed across workers, over every way a
        request can end.  A cancelled future only exists in-process:
        behind workers the service-side future never leaves the worker.
        """
        factory = functools.partial(_gated_pipeline, str(tmp_path))
        router = ServiceRouter(
            [RouteSpec("gated", factory)], n_workers, {"max_queue": 1}
        )
        service = router._routes["gated"].service  # None behind workers
        width = max(1, n_workers)
        ok = 0
        try:
            with ThreadPoolExecutor(max_workers=2 * width) as clients:
                router.transform(["plain"], _EXAMPLES)
                for mode in ("argmin", "topk", "reverse"):
                    router.join(["plain"], _TARGETS, _EXAMPLES, mode=mode)
                ok += 4
                with pytest.raises(RuntimeError, match="exploded"):
                    router.transform(["boom"], _EXAMPLES)
                with pytest.raises(DeadlineExceededError):
                    router.transform(["late"], _EXAMPLES, timeout=-1.0)
                assert router.transform([], _EXAMPLES) == []
                # Block every scheduler inside the model, then fill
                # every queue (max_queue=1), then overflow one.
                held = []
                for i in range(width):
                    held.append(
                        clients.submit(
                            router.transform, [f"hold-{i}"], _EXAMPLES
                        )
                    )
                    _wait_until(
                        lambda: len(list(tmp_path.glob("entered-*"))) > i
                    )
                if n_workers == 0:
                    doomed = service.submit_transform(["doomed"], _EXAMPLES)
                    assert doomed.cancel()
                    queued = []
                else:
                    queued = [
                        clients.submit(
                            router.transform, [f"queued-{i}"], _EXAMPLES
                        )
                        for i in range(width)
                    ]
                _wait_until(
                    lambda: router.stats()["metrics"]["serve_queue_depth"]
                    == width
                )
                with pytest.raises(ServiceOverloadedError):
                    router.transform(["overflow"], _EXAMPLES)
                (tmp_path / "release").touch()
                for future in held + queued:
                    assert len(future.result(30)) == 1
                ok += len(held) + len(queued)
            if n_workers == 0:
                # Drain: the cancelled request is only counted when the
                # scheduler pops it, after the held batch finishes.
                router.close()
            stats = router.stats()
        finally:
            (tmp_path / "release").touch()
            router.close()
        route = stats["routes"]["gated"]["stats"]
        assert {k: stats[k] for k in route} == route  # one route: top = sum
        assert route["failed"] == 1
        assert route["deadline_expired"] == 1
        assert route["rejected"] == 1
        assert route["cancelled"] == (1 if n_workers == 0 else 0)
        assert route["requests"] == (
            route["batched_requests"]
            + route["cancelled"]
            + route["deadline_expired"]
        )
        assert route["batched_requests"] == ok + route["failed"]
        # The view and the registry series it is read from agree.
        assert stats["metrics"]["serve_requests_total"] == route["requests"]


class TestRouting:
    def test_resolve_by_name_fingerprint_and_prefix(self):
        router = ServiceRouter([_route("a", seed=0), _route("b", seed=1)])
        try:
            models = {m["name"]: m for m in router.models()}
            fp_a = models["a"]["fingerprint"]
            assert models["a"]["default"] is True
            assert router.resolve(None) == "a"
            assert router.resolve("b") == "b"
            assert router.resolve(fp_a) == "a"
            assert router.resolve(fp_a[:12]) == "a"
            with pytest.raises(UnknownModelError):
                router.resolve("nonexistent")
            with pytest.raises(UnknownModelError):
                # Too short for prefix matching.
                router.resolve(fp_a[:4])
        finally:
            router.close()

    def test_distinct_fingerprints_per_route(self):
        router = ServiceRouter([_route("a", seed=0), _route("b", seed=1)])
        try:
            fps = [m["fingerprint"] for m in router.models()]
            assert len(set(fps)) == 2
        finally:
            router.close()

    def test_per_route_cache_isolation_inprocess(self):
        router = ServiceRouter([_route("a", seed=0), _route("b", seed=1)])
        try:
            sources = ["Jean Chretien"]
            first = router.transform(sources, _EXAMPLES, model="a")
            again = router.transform(sources, _EXAMPLES, model="a")
            assert first == again
            other = router.transform(sources, _EXAMPLES, model="b")
            stats = router.stats()["routes"]
            # Route a served its repeat from its own cache; route b's
            # identical request was a miss in b's cache — a's entries
            # never leak across the route boundary.
            assert stats["a"]["stats"]["cache_hits"] >= 1
            assert stats["b"]["stats"]["cache_hits"] == 0
            assert stats["b"]["stats"]["cache_misses"] >= 1
            assert other is not None
        finally:
            router.close()

    def test_per_route_cache_isolation_worker_pool(self):
        router = ServiceRouter(
            [_route("a", seed=0), _route("b", seed=1)],
            n_workers=1,
        )
        try:
            sources = ["Jean Chretien"]
            first = router.transform(sources, _EXAMPLES, model="a")
            # The repeat is a parent-side hit: the worker never sees it.
            again = router.transform(sources, _EXAMPLES, model="a")
            assert first == again
            router.transform(sources, _EXAMPLES, model="b")
            caches = router.stats()["router_caches"]
            assert caches["a"]["transform"]["hits"] == 1
            assert caches["b"]["transform"]["hits"] == 0
            assert caches["b"]["transform"]["misses"] == 1
            per_route = router.stats()["routes"]
            assert per_route["a"]["stats"]["requests"] == 1
            assert per_route["b"]["stats"]["requests"] == 1
        finally:
            router.close()

    @pytest.mark.parametrize("n_workers", [0, 1])
    def test_one_cache_config_reaches_every_tier(self, n_workers):
        router = ServiceRouter(
            [_route()], n_workers, {"cache_kwargs": {"max_entries": 1}}
        )
        try:
            for i in range(3):
                router.transform([f"Kim Campbell {i}"], _EXAMPLES)
            stats = router.stats()
            assert stats["cache_entries"] <= 1
            route = router._routes["pretrained"]
            if n_workers == 0:
                # An in-process service memoizes in its own caches; a
                # parent-side tier in front of it would never be read.
                assert route.transform_cache is None
                assert route.join_cache is None
                assert "router_caches" not in stats
            else:
                caches = stats["router_caches"]["pretrained"]
                assert caches["transform"]["entries"] == 1
                assert caches["transform"]["misses"] == 3
        finally:
            router.close()


class TestJoinResultCache:
    def test_join_cache_hit_skips_engine_and_joiner(self):
        service = TransformService(build_pipeline())
        try:
            sources = ["Jean Chretien", "Kim Campbell"]
            first = service.join(sources, _TARGETS, _EXAMPLES)
            cold = service.stats()
            second = service.join(sources, _TARGETS, _EXAMPLES)
            warm = service.stats()
            assert [r.to_dict() for r in second] == [
                r.to_dict() for r in first
            ]
            assert warm.join_cache_hits == cold.join_cache_hits + 1
            # A hit never touches the engine or the joiner.
            assert warm.engine_prompts == cold.engine_prompts
            assert warm.joined_rows == cold.joined_rows
        finally:
            service.close()

    def test_join_cache_keys_cover_query_surface(self):
        service = TransformService(build_pipeline())
        try:
            sources = ["Jean Chretien"]
            service.join(sources, _TARGETS, _EXAMPLES, mode="topk", k=2)
            # Same request except k: must miss, not reuse k=2's entry.
            service.join(sources, _TARGETS, _EXAMPLES, mode="topk", k=3)
            stats = service.stats()
            assert stats.join_cache_hits == 0
            assert stats.join_cache_misses == 2
        finally:
            service.close()

    def test_join_cache_ttl_expiry(self):
        clock = FakeClock()
        service = TransformService(
            build_pipeline(), cache_kwargs={"ttl_seconds": 60.0}, clock=clock
        )
        try:
            sources = ["Jean Chretien"]
            first = service.join(sources, _TARGETS, _EXAMPLES)
            clock.advance(30.0)
            assert [
                r.to_dict()
                for r in service.join(sources, _TARGETS, _EXAMPLES)
            ] == [r.to_dict() for r in first]
            assert service.stats().join_cache_hits == 1
            clock.advance(61.0)
            recomputed = service.join(sources, _TARGETS, _EXAMPLES)
            stats = service.stats()
            assert stats.join_cache_hits == 1
            assert service.join_cache.expirations >= 1
            assert [r.to_dict() for r in recomputed] == [
                r.to_dict() for r in first
            ]
        finally:
            service.close()

    def test_reverse_mode_cached_groups_are_fresh_lists(self):
        service = TransformService(build_pipeline())
        try:
            sources = ["Jean Chretien", "Kim Campbell"]
            first = service.join(
                sources, _TARGETS, _EXAMPLES, mode="reverse"
            )
            first[0].append(999)  # caller mutates its copy
            second = service.join(
                sources, _TARGETS, _EXAMPLES, mode="reverse"
            )
            assert 999 not in second[0]
            assert service.stats().join_cache_hits == 1
        finally:
            service.close()


class TestHttpMultiRoute:
    @pytest.fixture()
    def server(self):
        router = ServiceRouter([_route("a", seed=0), _route("b", seed=1)])
        server = start_http_server(router)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield f"http://{host}:{port}", router
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

    @staticmethod
    def _get(base: str, path: str) -> dict:
        with urllib.request.urlopen(base + path) as response:
            return json.load(response)

    def test_models_listing(self, server):
        base, _ = server
        body = self._get(base, "/v1/models")
        assert body["schema_version"] == 1
        assert body["n_workers"] == 0
        names = [m["name"] for m in body["models"]]
        assert names == ["a", "b"]
        assert body["models"][0]["default"] is True
        assert all(len(m["fingerprint"]) == 64 for m in body["models"])

    def test_model_selector_query_and_body(self, server):
        base, router = server
        examples = [pair.as_tuple() for pair in _EXAMPLES]
        payload = {"sources": ["Jean Chretien"], "examples": examples}
        via_query = self._post(base, "/v1/transform?model=b", payload)
        via_body = self._post(
            base, "/v1/transform", {**payload, "model": "b"}
        )
        assert via_query == via_body
        # And a fingerprint selector resolves like the name.
        fp = router.models()[1]["fingerprint"]
        via_fp = self._post(base, f"/v1/transform?model={fp}", payload)
        assert via_fp == via_query

    def test_unknown_model_is_structured_404(self, server):
        base, _ = server
        examples = [pair.as_tuple() for pair in _EXAMPLES]
        with pytest.raises(urllib.error.HTTPError) as info:
            self._post(
                base,
                "/v1/transform?model=nope",
                {"sources": ["x"], "examples": examples},
            )
        assert info.value.code == 404
        body = json.load(info.value)
        assert body["error"]["code"] == "unknown_model"

    def test_conflicting_selectors_are_rejected(self, server):
        base, _ = server
        examples = [pair.as_tuple() for pair in _EXAMPLES]
        with pytest.raises(urllib.error.HTTPError) as info:
            self._post(
                base,
                "/v1/transform?model=a",
                {"sources": ["x"], "examples": examples, "model": "b"},
            )
        assert info.value.code == 400
        assert json.load(info.value)["error"]["field"] == "model"

    def test_worker_crash_maps_to_structured_503(self, server):
        base, router = server
        examples = [pair.as_tuple() for pair in _EXAMPLES]

        def crash(*args, **kwargs):
            raise WorkerCrashedError("worker 0 died with this in flight")

        original = router.transform
        router.transform = crash
        try:
            with pytest.raises(urllib.error.HTTPError) as info:
                self._post(
                    base,
                    "/v1/transform",
                    {"sources": ["x"], "examples": examples},
                )
        finally:
            router.transform = original
        assert info.value.code == 503
        assert json.load(info.value)["error"]["code"] == "worker_crashed"

    def test_stats_carries_routes_and_workers_blocks(self, server):
        base, _ = server
        body = self._get(base, "/v1/stats")
        assert body["workers"]["n_workers"] == 0
        assert set(body["routes"]) == {"a", "b"}
        assert "requests" in body  # compat: flat ServeStats fields

    def test_multi_route_metrics_are_labeled(self, server):
        base, _ = server
        with urllib.request.urlopen(base + "/metrics") as response:
            text = response.read().decode()
        assert 'serve_requests_total{route="a"}' in text
        assert 'serve_requests_total{route="b"}' in text


class TestLabeledSnapshots:
    def test_counter_gauge_histogram_rendering(self):
        snapshot = {
            "x_total": 3,
            "depth": 1.5,
            "lat_seconds": {
                "buckets": [{"le": 0.1, "count": 2}],
                "count": 3,
                "sum": 0.4,
                "mean": 0.1333,
            },
        }
        text = merge_labeled_snapshots(
            [
                ({"worker": "0", "route": "a"}, snapshot),
                ({"worker": "1", "route": "a"}, snapshot),
            ]
        )
        assert "# TYPE x_total counter" in text
        assert 'x_total{worker="0",route="a"} 3' in text
        assert 'x_total{worker="1",route="a"} 3' in text
        assert "# TYPE depth gauge" in text
        assert 'depth{worker="1",route="a"} 1.5' in text
        assert "# TYPE lat_seconds histogram" in text
        assert 'lat_seconds_bucket{worker="0",route="a",le="0.1"} 2' in text
        assert 'lat_seconds_bucket{worker="0",route="a",le="+Inf"} 3' in text
        assert 'lat_seconds_sum{worker="0",route="a"} 0.4' in text
        assert 'lat_seconds_count{worker="1",route="a"} 3' in text
        # One TYPE line per metric, not per label set.
        assert text.count("# TYPE x_total counter") == 1

    def test_label_values_are_escaped(self):
        text = merge_labeled_snapshots(
            [({"route": 'we"ird\\name'}, {"x_total": 1})]
        )
        assert 'route="we\\"ird\\\\name"' in text


_GOLDEN_PAGE = Path(__file__).parent / "golden" / "metrics_inprocess.txt"
#: Sample values the golden cannot pin: wall-clock histograms, the
#: cache's ``sys.getsizeof``-based byte estimate, and the per-backend
#: kernel pair counts (they move with ``REPRO_KERNEL_BACKEND``).
_MASKED_SAMPLE = re.compile(
    r"^(\w*(?:_seconds|_bytes|kernel_pairs)\w*(?:\{[^}]*\})?) \S+$", re.M
)


def _golden_request_sequence(router) -> None:
    """The fixed sequence behind ``golden/metrics_inprocess.txt``.

    The 300 filler targets make the joins real blocked-engine work, so
    the ``join_*`` counters move.
    """
    targets = [f"target-{i:04d}" for i in range(300)] + list(_TARGETS)
    sources = _sources("golden", 2)
    router.transform(["Kim Campbell"], _EXAMPLES)
    router.transform(["Kim Campbell"], _EXAMPLES)  # result-cache hit
    router.join(sources, targets, _EXAMPLES)
    router.join(sources, targets, _EXAMPLES, mode="topk", k=3)
    router.join(sources, targets, _EXAMPLES, mode="reverse")
    router.join(sources, targets, _EXAMPLES)  # join-cache hit


def _exposition_after_golden_sequence(n_workers: int) -> str:
    router = ServiceRouter([_route()], n_workers=n_workers)
    try:
        _golden_request_sequence(router)
        return router.metrics_text()
    finally:
        router.close()


class TestMetricsExpositionGolden:
    """``/metrics`` is a wire format: names, HELP, TYPE and order are pinned.

    The fixture was recorded at commit ``365c01c`` (before the counters
    moved into the registry), so passing means the move changed nothing
    a scraper can see.
    """

    def test_inprocess_page_matches_the_recorded_page(self):
        page = _exposition_after_golden_sequence(0)
        assert _MASKED_SAMPLE.sub(r"\1 <masked>", page) == (
            _GOLDEN_PAGE.read_text(encoding="utf-8")
        )

    def test_two_workers_emit_the_same_series_with_labels(self):
        type_line = re.compile(r"^# TYPE (\w+) (\w+)$", re.M)
        page = _exposition_after_golden_sequence(2)
        assert set(type_line.findall(page)) == set(
            type_line.findall(_GOLDEN_PAGE.read_text(encoding="utf-8"))
        )
        samples = [
            line for line in page.splitlines() if not line.startswith("#")
        ]
        assert samples
        for line in samples:
            assert re.match(
                r'\w+\{worker="[01]",route="pretrained"[,}]', line
            ), line


# The pool's throughput floor: one route in-process against 4 worker
# processes in the same run.  The route is the tiny incremental
# transformer (per-step overhead dominates, which is what cross-request
# batching amortizes) with a full-length decode budget, driven by 16
# clients issuing single-row transforms.
_FLOOR_SEED = 59
_FLOOR_CLIENTS = 16
_WAVE_REQUESTS = 64
_WAVE_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789 .-_/"
_FLOOR_MODEL = DTTModelConfig(
    dim=32,
    n_heads=2,
    encoder_layers=2,
    decoder_layers=1,
    ffn_hidden=64,
    max_input_length=96,
    max_output_length=48,
)
_MIN_SPEEDUP_AT_4_WORKERS = 2.0


def _floor_pipeline() -> DTTPipeline:
    return DTTPipeline(
        ByteSeq2SeqModel(_FLOOR_MODEL), n_trials=1, seed=_FLOOR_SEED
    )


def _wave(index: int) -> list[str]:
    """The ``index``-th wave: 64 requests no other wave contains."""
    rng = random.Random(_FLOOR_SEED * 100003 + index)
    sources = []
    for i in range(_WAVE_REQUESTS):
        length = rng.randint(6, 14)
        source = "".join(rng.choice(_WAVE_ALPHABET) for _ in range(length))
        sources.append(f"{source}-{index}-{i}")
    return sources


def _timed_waves(workers: int) -> tuple[float, dict[str, list]]:
    """Median seconds per wave at ``workers``, and every reply it got.

    Each timed call sends a wave no earlier one sent, so no cache tier
    answers a request and the figure is pure scheduling.
    """
    replies: dict[str, list] = {}
    wave_ids = itertools.count()
    router = ServiceRouter(
        [RouteSpec("bench", _floor_pipeline)],
        n_workers=workers,
        service_kwargs={"max_queue": 4 * _WAVE_REQUESTS},
    )
    try:
        with ThreadPoolExecutor(max_workers=_FLOOR_CLIENTS) as clients:

            def send_wave() -> None:
                sources = _wave(next(wave_ids))
                futures = [
                    clients.submit(router.transform, [source], _EXAMPLES)
                    for source in sources
                ]
                for source, future in zip(sources, futures):
                    replies[source] = future.result()

            send_wave()  # untimed: workers imported, BLAS warm, threads up
            seconds = median_seconds(send_wave)
    finally:
        router.close()
    return seconds, replies


@pytest.mark.slow
def test_four_workers_double_inprocess_throughput():
    direct = _floor_pipeline()
    expected: dict[str, list] = {}
    seconds = {}
    for workers in (0, 4):
        seconds[workers], replies = _timed_waves(workers)
        for source, reply in replies.items():
            if source not in expected:
                expected[source] = direct.transform_column([source], _EXAMPLES)
            assert reply == expected[source], (workers, source)
    check_floor(
        "speedup[serve_workers=4]",
        seconds[0] / seconds[4],
        _MIN_SPEEDUP_AT_4_WORKERS,
        min_cores=4,
    )
