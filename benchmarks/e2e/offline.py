"""The two offline workloads: one batch job, repeated while the clock runs.

``offline_join`` is the paper's headline use case as a batch job: JAB
abbreviations transformed by the ``pretrained`` pipeline and joined into
a large canonical-title column through the blocked joiner, with a cold
index on every call (a batch user pays the build).  ``offline_transform``
is the core seq2seq path as one large batch through ``GenerationEngine``.

Each timed call runs the *same* seeded job, so the calls of one run
differ only by machine noise and the run reports their median.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass

import numpy as np

import spans
from loadgen import percentile, windows
from procs import vm_hwm_mib
from workloads import (
    build_join_pipeline,
    build_neural_pipeline,
    jab_dataset,
    jab_probes,
    syn_examples,
    syn_rows,
)

from repro.core.joiner import EditDistanceJoiner
from repro.index import IndexCache, IndexedJoiner, pairs_scored_snapshot
from repro.obs.trace import configure_tracing, get_tracer

JOIN_SAMPLE_ROWS = 6
#: Consecutive timed calls per window; a run reports its calmest window.
CALM_WINDOW = 3
PREFIX_CHECK_PROMPTS = 4


@dataclass(frozen=True)
class OfflineSpec:
    name: str
    rows: int
    smoke_rows: int
    n_targets: int = 0
    smoke_targets: int = 0


SPECS = {
    "offline_join": OfflineSpec(
        "offline_join", rows=40, smoke_rows=24, n_targets=3000, smoke_targets=400
    ),
    "offline_transform": OfflineSpec("offline_transform", rows=20, smoke_rows=3),
}


def _digest(payload: list) -> str:
    return hashlib.sha256(json.dumps(payload).encode("utf-8")).hexdigest()


class OfflineRun:
    """Set-up state and the timed call of one offline workload."""

    def __init__(self, spec: OfflineSpec, seed: int, seconds: float, smoke: bool):
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.rng = np.random.default_rng([seed, 4])
        self.start_decode_s = 0.0
        rows = spec.smoke_rows if smoke else spec.rows
        if spec.name == "offline_join":
            n_targets = spec.smoke_targets if smoke else spec.n_targets
            self.targets, self.examples = jab_dataset(n_targets)
            self.sources, self.expected = jab_probes(self.rng, self.targets, rows)
            self.pipeline = build_join_pipeline()
        else:
            self.targets = []
            self.sources = syn_rows(seed, rows)
            self.examples = syn_examples()
            self.pipeline = build_neural_pipeline()
        # The first pass at a given batch shape runs up to 1.6x slower
        # than every later one (allocator and BLAS warm-up), so one full
        # discarded pass is part of set-up.
        self.call()

    def call(self) -> list:
        """One timed batch job; returns its full, digestible output."""
        if self.spec.name == "offline_join":
            # Cold index: a fresh private cache for every call.
            self.pipeline.joiner = IndexedJoiner(cache=IndexCache())
            self._wrap_joiner()
            return self.pipeline.join(
                self.sources, self.targets, self.examples, expected=self.expected
            )
        return self.pipeline.transform_column(self.sources, self.examples)

    # -- bench-side spans around the public calls (traced run only) --------

    _traced = False

    def enable_tracing(self) -> None:
        """Wrap the public calls on the instances this run built.

        ``prepare_prompts`` / ``aggregate_candidates`` / ``joiner.join``
        get bench-made spans (no-ops outside a sampled trace); the
        program's own ``engine.decode`` and ``join.*`` spans land under
        the same root.  ``model.start_decode`` is only timed: it runs
        inside ``engine.decode``, where a span would double-book.
        """
        configure_tracing(sample_rate=1.0, capacity=256)
        self._traced = True
        tracer = get_tracer()
        pipeline = self.pipeline

        def spanned(name, function):
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return function(*args, **kwargs)

            return wrapper

        pipeline.prepare_prompts = spanned(
            "core.prepare_prompts", pipeline.prepare_prompts
        )
        pipeline.aggregate_candidates = spanned(
            "core.aggregate", pipeline.aggregate_candidates
        )
        model = pipeline.models[0]
        start_decode = getattr(model, "start_decode", None)
        if start_decode is not None:

            def timed_start_decode(prompt_ids):
                started = time.perf_counter()
                try:
                    return start_decode(prompt_ids)
                finally:
                    self.start_decode_s += time.perf_counter() - started

            model.start_decode = timed_start_decode
        self._wrap_joiner()

    def _wrap_joiner(self) -> None:
        if not self._traced:
            return
        tracer = get_tracer()
        joiner = self.pipeline.joiner
        inner = joiner.join

        def wrapper(*args, **kwargs):
            with tracer.span("core.join"):
                return inner(*args, **kwargs)

        joiner.join = wrapper

    def traced_call(self) -> tuple[list, dict]:
        """One call under a ``bench.request`` root; returns its trace."""
        tracer = get_tracer()
        root = tracer.start_trace("bench.request", force_sample=True)
        try:
            with tracer.activate(root):
                result = self.call()
        finally:
            root.finish()
        trace = tracer.collector.snapshot(1)["recent"][0]
        if trace["trace_id"] != root.trace_id:
            raise RuntimeError("traced call did not commit its trace")
        return result, trace

    # -- output checks -------------------------------------------------------

    def serialize(self, result: list) -> list:
        return [item.to_dict() for item in result]

    def check(self, results: list[list]) -> tuple[int, int, list[str]]:
        """``(attempted, failed, notes)``: every call equals the first,
        and the first passes the reference check of its workload."""
        notes: list[str] = []
        attempted = failed = 0
        first = self.serialize(results[0])
        for i, result in enumerate(results[1:], start=1):
            attempted += 1
            if self.serialize(result) != first:
                failed += 1
                notes.append(f"call {i} differs from call 0")
        if self.spec.name == "offline_join":
            # Eq. 5 reference: the brute scalar scan, fed the same
            # predictions, on a seeded sample of rows.
            picks = sorted(
                int(i)
                for i in self.rng.choice(
                    len(self.sources),
                    size=min(JOIN_SAMPLE_ROWS, len(self.sources)),
                    replace=False,
                )
            )
            brute = EditDistanceJoiner().join_many(
                [results[0][i].predicted for i in picks], self.targets
            )
            for i, (matched, distance) in zip(picks, brute, strict=True):
                attempted += 1
                got = results[0][i]
                if (got.matched, got.distance) != (matched, distance):
                    failed += 1
                    notes.append(
                        f"row {i}: blocked {(got.matched, got.distance)} "
                        f"!= brute {(matched, distance)}"
                    )
        else:
            subtasks, prompts = self.pipeline.prepare_prompts(
                self.sources, self.examples
            )
            row0 = [
                prompt
                for task, prompt in zip(subtasks, prompts, strict=True)
                if task.row_index == 0
            ][:PREFIX_CHECK_PROMPTS]
            reference = self.pipeline.models[0].generate_full_prefix(row0)
            got = list(results[0][0].candidates[: len(row0)])
            attempted += len(row0)
            for i, (want, have) in enumerate(zip(reference, got, strict=True)):
                if want != have:
                    failed += 1
                    notes.append(f"prompt {i}: engine output != full-prefix decode")
        return attempted + 1, failed, notes  # +1: the first call itself

    def sizes(self) -> dict:
        return {
            "rows": len(self.sources),
            "targets": len(self.targets),
            "examples": len(self.examples),
            "trials": self.pipeline.decomposer.n_trials,
        }


def _time_for_another(walls: list[float], started: float, seconds: float) -> bool:
    """Start a call only if it should end within ``seconds`` (two at least)."""
    if len(walls) < 2:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + statistics.median(walls) <= seconds


def calm_wall(walls: list[float]) -> float:
    """The lowest median of ``CALM_WINDOW`` consecutive calls.

    The host's speed drops by tens of percent for seconds at a time;
    the calmest stretch of a run repeats from run to run where the
    median over the whole run does not.
    """
    return min(statistics.median(w) for w in windows(walls, CALM_WINDOW))


def end_to_end(run: OfflineRun, emit) -> dict:
    """Timed calls until ``--seconds`` have passed; the calmest stretch counts."""
    walls: list[float] = []
    results: list[list] = []
    started = time.perf_counter()
    while _time_for_another(walls, started, run.seconds):
        call_started = time.perf_counter()
        result = run.call()
        walls.append(time.perf_counter() - call_started)
        results.append(result)
    peak_rss = vm_hwm_mib()
    attempted, failed, notes = run.check(results)
    emit(f"calls {len(walls)} walls_s {[round(w, 4) for w in walls]}")
    emit(
        f"whole_run p50_ms {statistics.median(walls) * 1000.0:.1f} "
        f"p90_ms {percentile(walls, 90) * 1000.0:.1f}"
    )
    return {
        "metrics": {
            "rows_per_s": len(run.sources) / min(walls),
            "p50_ms": calm_wall(walls) * 1000.0,
            "peak_rss_mb": peak_rss,
        },
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "digest": _digest(run.serialize(results[0])),
        "sizes": run.sizes(),
    }


def _call_metrics(run: OfflineRun, trace: dict, wall: float, before: dict) -> dict:
    """Per-layer numbers of one traced call."""
    pipeline = run.pipeline
    laps = pipeline.stopwatch.laps
    delta = {k: laps.get(k, 0.0) - before["laps"].get(k, 0.0) for k in laps}
    prompts = len(run.sources) * pipeline.decomposer.n_trials
    out: dict[str, float] = {
        "core.prepare_prompts_ms": delta.get("decompose", 0.0) * 1000.0,
        "core.aggregate_ms": delta.get("aggregate", 0.0) * 1000.0,
        "core.predict_share": delta.get("predict", 0.0) / wall,
        "core.join_share": delta.get("join", 0.0) / wall,
        "infer.start_decode_ms": (run.start_decode_s - before["start_decode_s"])
        * 1000.0,
    }
    decode = [
        s for s in spans.spans_named(trace, "engine.decode")
        if s["attributes"].get("decoded_rows", 0)
    ]
    decode_ms = sum(s["duration_s"] for s in decode) * 1000.0
    row_steps = sum(s["attributes"]["row_steps"] for s in decode)
    decoded = sum(s["attributes"]["decoded_rows"] for s in decode)
    asked = sum(s["attributes"]["prompts"] for s in decode)
    out["infer.decode_ms"] = decode_ms
    out["infer.row_steps"] = float(row_steps)
    out["infer.decoded_share"] = decoded / asked if asked else 0.0
    out["infer.us_per_row_step"] = decode_ms * 1000.0 / row_steps if row_steps else 0.0
    out["surrogate.ms_per_prompt"] = (
        0.0 if decode else delta.get("predict", 0.0) * 1000.0 / prompts
    )
    book = spans.build_ledger([trace])
    rows = book.row_totals()
    out["index.cache.build_s"] = rows.get("index.cache.build", 0.0)
    out["index.qgram.candidate_filter_s"] = rows.get(
        "index.qgram.candidate_filter", 0.0
    )
    sweep_s = rows.get("index.joiner.kernel_sweep", 0.0)
    out["index.joiner.kernel_sweep_s"] = sweep_s
    stats = getattr(pipeline.joiner, "last_join_stats", None)
    scored = {
        name: count - before["pairs"].get(name, 0)
        for name, count in pairs_scored_snapshot().items()
    }
    pairs = sum(scored.values())
    if stats is not None and run.spec.name == "offline_join":
        lookups = stats.cache_hits + stats.cache_misses
        out["index.cache.hit_ratio"] = stats.cache_hits / lookups if lookups else 0.0
        out["index.joiner.pairs_per_probe"] = (
            pairs / stats.pending if stats.pending else 0.0
        )
        out["index.joiner.exact_match_share"] = (
            stats.exact_matches / stats.unique_probes if stats.unique_probes else 0.0
        )
        out["index.parallel.shards"] = float(stats.shards)
        out["index.joiner.mode_ms.argmin"] = delta.get("join", 0.0) * 1000.0
    for backend in ("reference", "bitparallel", "banded"):
        out[f"index.kernels.pairs_scored.{backend}"] = float(scored.get(backend, 0))
    out["index.kernels.ns_per_pair"] = sweep_s * 1e9 / pairs if pairs else 0.0
    shares = book.layer_shares()
    for layer in ("serve", "infer", "surrogate", "index", "core"):
        out[f"layer.{layer}_share"] = shares.get(layer, 0.0)
    out["layer.infer_miss_share"] = shares.get("infer", 0.0)
    out["obs.unattributed_share"] = shares.get(spans.UNATTRIBUTED, 0.0)
    return out


def per_layer(run: OfflineRun, emit, out_dir) -> dict:
    """Alternate untraced and traced calls; per-layer medians of the latter."""
    run.enable_tracing()
    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    per_call: list[dict] = []
    traces: list[dict] = []
    results: list[list] = []
    started = time.perf_counter()
    while _time_for_another(
        [u + t for u, t in zip(untraced_walls, traced_walls, strict=True)],
        started,
        run.seconds,
    ):
        call_started = time.perf_counter()
        results.append(run.call())
        untraced_walls.append(time.perf_counter() - call_started)
        before = {
            "laps": dict(run.pipeline.stopwatch.laps),
            "pairs": pairs_scored_snapshot(),
            "start_decode_s": run.start_decode_s,
        }
        call_started = time.perf_counter()
        result, trace = run.traced_call()
        wall = time.perf_counter() - call_started
        traced_walls.append(wall)
        results.append(result)
        traces.append(trace)
        per_call.append(_call_metrics(run, trace, wall, before))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"trace-{run.spec.name}.json").write_text(
        json.dumps({"recent": traces})
    )
    attempted, failed, notes = run.check(results)
    metrics = {
        key: statistics.median(call.get(key, 0.0) for call in per_call)
        for key in {k for call in per_call for k in call}
    }
    untraced = statistics.median(untraced_walls)
    metrics["obs.tracing_overhead_share"] = (
        statistics.median(traced_walls) - untraced
    ) / untraced
    metrics["bench.p50_ms"] = untraced * 1000.0
    metrics["bench.p90_ms"] = percentile(untraced_walls, 90) * 1000.0
    metrics["bench.failed_share"] = failed / attempted
    emit(f"calls untraced {len(untraced_walls)} traced {len(traced_walls)}")
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "digest": _digest(run.serialize(results[0])),
        "sizes": run.sizes(),
    }
