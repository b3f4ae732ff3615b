"""Observability primitives and the run-manifest schema.

The metrics side enforces the scrape contract: fixed log-spaced
buckets, cumulative ``le`` semantics, callback-backed counters that
never double-count, and a Prometheus text rendering a real scraper can
parse.  The manifest side enforces the reproduction contract: a
verdict that fails on every regression class of the repo benchmark
``reproduce_all.py`` exists to catch, and names the workload at fault.
The slow-lane floor check fails below a floor with the reading in the
message, and skips a floor the host lacks the cores to measure.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.obs.manifest import (
    MANIFEST_VERSION,
    build_manifest,
    new_run_id,
    provenance,
    save_manifest,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_OCCUPANCY_BUCKETS,
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    log_spaced_buckets,
    merge_labeled_snapshots,
)

from timing import check_floor


class TestBuckets:
    def test_log_spacing(self):
        assert log_spaced_buckets(1.0, 2.0, 4) == (1.0, 2.0, 4.0, 8.0)

    def test_defaults_cover_the_service_ranges(self):
        # 100 µs up past 100 s; 1 up to 1024 rows.
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(1e-4)
        assert DEFAULT_LATENCY_BUCKETS[-1] > 100.0
        assert DEFAULT_OCCUPANCY_BUCKETS == tuple(
            float(2**i) for i in range(11)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            log_spaced_buckets(0.0, 2.0, 4)
        with pytest.raises(ValueError):
            log_spaced_buckets(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            log_spaced_buckets(1.0, 2.0, 0)


class TestCounterAndGauge:
    def test_counter_monotone(self):
        counter = Counter("events_total")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_callback_counter_reads_live_and_rejects_inc(self):
        state = {"hits": 7}
        counter = Counter("hits_total", fn=lambda: state["hits"])
        assert counter.value == 7
        state["hits"] = 9
        assert counter.value == 9
        with pytest.raises(ValueError):
            counter.inc()

    def test_gauge_set_and_callback(self):
        gauge = Gauge("depth")
        gauge.set(5.0)
        assert gauge.value == 5.0
        live = Gauge("depth_live", fn=lambda: 3)
        assert live.value == 3.0


class TestLatencyHistogram:
    def test_cumulative_le_semantics(self):
        hist = LatencyHistogram("lat", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 3.0, 100.0):
            hist.observe(value)
        snap = hist.snapshot()
        # le=1.0 includes the observation AT the bound (Prometheus
        # semantics), le=4.0 includes everything but the overflow.
        assert [b["count"] for b in snap["buckets"]] == [2, 3, 4]
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(106.0)
        assert snap["mean"] == pytest.approx(21.2)

    def test_negative_observations_clamp_to_zero(self):
        hist = LatencyHistogram("lat", buckets=(1.0,))
        hist.observe(-5.0)
        snap = hist.snapshot()
        assert snap["buckets"][0]["count"] == 1
        assert snap["sum"] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyHistogram("lat", buckets=())
        with pytest.raises(ValueError):
            LatencyHistogram("lat", buckets=(2.0, 1.0))


class TestMetricsRegistry:
    def test_idempotent_registration(self):
        registry = MetricsRegistry(prefix="x_")
        first = registry.counter("events_total")
        second = registry.counter("events_total")
        assert first is second
        with pytest.raises(ValueError):
            registry.gauge("events_total")

    def test_snapshot_shapes(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc(2)
        registry.gauge("b").set(1.5)
        registry.histogram("c", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["a_total"] == 2
        assert snap["b"] == 1.5
        assert snap["c"]["count"] == 1

    def test_prometheus_text_rendering(self):
        registry = MetricsRegistry(prefix="serve_")
        registry.counter("hits_total", "cache hits").inc(3)
        registry.gauge("depth", "queue depth").set(2.0)
        hist = registry.histogram("lat_seconds", "latency", buckets=(0.5, 1.0))
        hist.observe(0.25)
        hist.observe(2.0)
        text = registry.render_text()
        lines = text.splitlines()
        assert "# HELP serve_hits_total cache hits" in lines
        assert "# TYPE serve_hits_total counter" in lines
        assert "serve_hits_total 3" in lines
        assert "# TYPE serve_depth gauge" in lines
        assert "serve_depth 2" in lines
        assert "# TYPE serve_lat_seconds histogram" in lines
        assert 'serve_lat_seconds_bucket{le="0.5"} 1' in lines
        assert 'serve_lat_seconds_bucket{le="1"} 1' in lines
        assert 'serve_lat_seconds_bucket{le="+Inf"} 2' in lines
        assert "serve_lat_seconds_sum 2.25" in lines
        assert "serve_lat_seconds_count 2" in lines
        assert text.endswith("\n")


class TestProvenance:
    def test_fields_present_and_sane(self):
        prov = provenance()
        assert prov["cpu_count"] >= 1
        assert prov["cpu_affinity"] >= 1
        assert prov["python"].count(".") == 2
        assert prov["numpy"]
        assert prov["recorded_unix"] > 1.7e9

    def test_run_ids_sort_by_time_and_never_collide(self):
        early = new_run_id(now=1_700_000_000.0)
        late = new_run_id(now=1_800_000_000.0)
        assert early < late
        assert new_run_id(now=0.0) != new_run_id(now=0.0)


def _passing_benchmark() -> dict:
    def workload(attempted: int) -> dict:
        return {
            "correct": True,
            "attempted": attempted,
            "failed": 0,
            "metrics": {"rows_per_s": 90.0, "p50_ms": 15.0},
        }

    return {
        "exit_code": 0,
        "workloads": {"offline_join": workload(25), "serve_join": workload(74)},
    }


class TestBuildManifest:
    def test_all_green_verdict_passes(self):
        manifest = build_manifest(
            "run-1", provenance(), _passing_benchmark(), mode="smoke"
        )
        assert manifest["verdict"] == {"passed": True, "failures": []}
        assert manifest["manifest_version"] == MANIFEST_VERSION
        assert manifest["benchmark"] == _passing_benchmark()

    def test_every_regression_class_fails_the_verdict(self):
        benchmark = _passing_benchmark()
        benchmark["exit_code"] = 1
        benchmark["workloads"]["offline_join"].update(correct=False, failed=3)
        verdict = build_manifest("run-2", {}, benchmark)["verdict"]
        assert verdict == {
            "passed": False,
            "failures": [
                "repo benchmark: exited with 1",
                "repo benchmark offline_join: 3 of 25 output checks failed",
            ],
        }

    @pytest.mark.parametrize(
        ("damage", "failure"),
        [
            (
                {"workloads": {"serve_join": {
                    "correct": False, "attempted": 74, "failed": 2}}},
                "repo benchmark serve_join: 2 of 74 output checks failed",
            ),
            ({"workloads": {}}, "repo benchmark: no results.json"),
            ({"exit_code": 1}, "repo benchmark: exited with 1"),
        ],
    )
    def test_benchmark_block_fails_the_verdict(self, damage, failure):
        benchmark = {**_passing_benchmark(), **damage}
        verdict = build_manifest("run-4", {}, benchmark)["verdict"]
        assert verdict == {"passed": False, "failures": [failure]}

    def test_save_load_round_trip(self, tmp_path):
        manifest = build_manifest(
            "run-3",
            provenance(),
            _passing_benchmark(),
            eval_rows=[{"dataset": "WT", "f1": 0.9}],
        )
        path = tmp_path / "run_manifest.json"
        save_manifest(manifest, path)
        assert json.loads(path.read_text()) == manifest


class TestCallbackDegradation:
    def test_raising_callback_degrades_one_series_not_the_scrape(self):
        reg = MetricsRegistry(prefix="serve_")
        reg.counter("requests_total", "handled").inc(3)

        def boom() -> float:
            raise RuntimeError("backend went away")

        reg.gauge("queue_depth", "depth", fn=boom)
        text = reg.render_text()
        # The healthy series still renders; the broken one is skipped.
        assert "serve_requests_total 3" in text
        assert "serve_queue_depth" not in text
        assert reg.callback_errors.value == 1
        # The error counter renders before the gauge raises, so the
        # increment from scrape N appears on scrape N+1 — standard
        # counter-lag semantics, not a lost sample.
        assert "obs_callback_errors_total 1" in reg.render_text()

    def test_snapshot_degrades_the_same_way(self):
        reg = MetricsRegistry()

        def boom() -> int:
            raise RuntimeError("nope")

        reg.counter("broken_total", fn=boom)
        reg.gauge("fine", "ok").set(7.0)
        snap = reg.snapshot()
        assert "broken_total" not in snap
        assert snap["fine"] == 7.0
        assert reg.callback_errors.value == 1


class TestMergeLabeledSnapshots:
    def test_empty_input_renders_empty_page(self):
        assert merge_labeled_snapshots([]) == ""

    def test_disjoint_metric_names_each_render_once(self):
        merged = merge_labeled_snapshots(
            [
                ({"worker": "0"}, {"serve_requests_total": 4}),
                ({"worker": "1"}, {"engine_batches_total": 2}),
            ]
        )
        assert '# TYPE serve_requests_total counter' in merged
        assert 'serve_requests_total{worker="0"} 4' in merged
        assert 'engine_batches_total{worker="1"} 2' in merged
        assert merged.count("# TYPE") == 2

    def test_mismatched_histogram_bounds_refuse_to_merge(self):
        def hist(le: float) -> dict:
            return {
                "buckets": [{"le": le, "count": 1}],
                "sum": 0.5,
                "count": 2,
            }

        with pytest.raises(ValueError, match="mismatched bucket"):
            merge_labeled_snapshots(
                [
                    ({"worker": "0"}, {"latency_seconds": hist(1.0)}),
                    ({"worker": "1"}, {"latency_seconds": hist(2.0)}),
                ]
            )


class TestCheckFloors:
    def test_all_floors_held(self):
        check_floor("mpairs_per_s", 1.1, 0.32, cores=8)
        check_floor("mpairs_per_s", 0.32, 0.32, cores=1)

    def test_below_floor_fails_with_detail(self):
        with pytest.raises(AssertionError, match="mpairs_per_s 0.10 < floor 0.32"):
            check_floor("mpairs_per_s", 0.1, 0.32)

    def test_min_cores_unmet_skips_instead_of_failing(self):
        # A starved host recording speedup 0.5 must not fail the gated
        # bar it could never meet — the floor is skipped with a reason.
        with pytest.raises(pytest.skip.Exception, match="needs >= 4 cores"):
            check_floor(
                "speedup[serve_workers=4]", 0.5, 2.0, min_cores=4, cores=1
            )
        with pytest.raises(AssertionError, match="0.50 < floor 2.0"):
            check_floor(
                "speedup[serve_workers=4]", 0.5, 2.0, min_cores=4, cores=4
            )


class TestReproduceAll:
    """``scripts/reproduce_all.py`` with the repo benchmark stubbed out."""

    @pytest.fixture()
    def reproduce_all(self):
        spec = importlib.util.spec_from_file_location(
            "reproduce_all",
            Path(__file__).resolve().parent.parent
            / "scripts"
            / "reproduce_all.py",
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @staticmethod
    def _run(reproduce_all, monkeypatch, tmp_path, benchmark: dict):
        monkeypatch.setattr(reproduce_all, "run_benchmark", lambda smoke: benchmark)
        out = tmp_path / "manifest.json"
        code = reproduce_all.main(["--smoke", "--skip-eval", "--out", str(out)])
        return code, json.loads(out.read_text())

    def test_correct_workload_writes_a_passing_manifest(
        self, reproduce_all, monkeypatch, tmp_path
    ):
        workload = {"correct": True, "attempted": 25, "failed": 0, "metrics": {}}
        benchmark = {"exit_code": 0, "workloads": {"offline_join": workload}}
        code, manifest = self._run(reproduce_all, monkeypatch, tmp_path, benchmark)
        assert code == 0
        assert manifest["manifest_version"] == 3
        assert "benches" not in manifest
        assert manifest["benchmark"] == benchmark
        assert manifest["verdict"] == {"passed": True, "failures": []}

    def test_failing_workload_is_named_in_the_verdict(
        self, reproduce_all, monkeypatch, tmp_path, capsys
    ):
        workload = {"correct": False, "attempted": 74, "failed": 2, "metrics": {}}
        benchmark = {"exit_code": 0, "workloads": {"serve_join": workload}}
        code, manifest = self._run(reproduce_all, monkeypatch, tmp_path, benchmark)
        assert code == 1
        assert manifest["verdict"]["failures"] == [
            "repo benchmark serve_join: 2 of 74 output checks failed"
        ]
        assert "VERDICT: FAIL" in capsys.readouterr().out
