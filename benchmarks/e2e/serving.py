"""The two serve workloads: real HTTP against a subprocess server.

``serve_join`` drives the in-process tier (``python -m repro.serve``
defaults, ``pretrained`` route) with small ``/v1/join`` requests that
all carry the same target column; ``serve_transform_workers`` drives a
``neural`` route behind ``ServiceRouter(n_workers=2)`` with one-row
``/v1/transform`` requests.  Each run is: set-up (inputs, reference
answers from an identically built pipeline, server start, warm-up), an
open-loop Poisson phase, a closed-loop saturation phase, a stats/trace
harvest, and the output checks.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass

import numpy as np

import spans
from loadgen import (
    PhaseResult,
    Sample,
    n_clients,
    percentile,
    run_closed_loop,
    run_open_loop,
    windows,
)
from procs import ServerProcess
from workloads import (
    TOPK_K,
    TOPK_MARGIN,
    Request,
    arrival_offsets,
    build_neural_pipeline,
    join_requests,
    transform_requests,
)

from repro.serve.http import SCHEMA_VERSION
from repro.serve.router import build_pipeline

#: Share of ``--seconds`` given to the open-loop phase; the closed loop
#: takes what is left once the last scheduled request has been answered.
OPEN_SHARE = 0.7
MIN_CLOSED_S = 2.0
#: Share of first-occurrence requests checked against direct calls.
REFERENCE_SHARE = 0.10
N_WARM = 6
#: Consecutive arrivals (open loop) and completions (closed loop) per
#: window; a run reports its calmest window.
OPEN_WINDOW = 12
CLOSED_WINDOW = 16


@dataclass(frozen=True)
class ServeSpec:
    """What distinguishes one serve workload from the other."""

    name: str
    tier: str
    rate_rps: float
    replay_share: float
    slo_ms: float
    #: Generous closed-loop pool size per second (never cycled).
    pool_rps: float
    n_targets: int = 0
    probes_per_request: int = 0


SPECS = {
    "serve_join": ServeSpec(
        name="serve_join",
        tier="inprocess",
        rate_rps=8.0,
        replay_share=0.25,
        slo_ms=400.0,
        pool_rps=90.0,
        n_targets=500,
        probes_per_request=2,
    ),
    "serve_transform_workers": ServeSpec(
        name="serve_transform_workers",
        tier="workers",
        rate_rps=5.0,
        replay_share=0.25,
        slo_ms=500.0,
        pool_rps=80.0,
    ),
}

SMOKE_SCALE = {"n_targets": 300, "probes_per_request": 2}


class ServeRun:
    """Set-up state of one serve workload run (inputs, references, server)."""

    def __init__(self, spec: ServeSpec, seed: int, seconds: float, smoke: bool):
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        rng = np.random.default_rng([seed, 3])
        open_s = seconds * OPEN_SHARE
        n_open = max(12, round(spec.rate_rps * open_s))
        self.offsets = arrival_offsets(spec.rate_rps, n_open)
        n_total = n_open + int(spec.pool_rps * max(MIN_CLOSED_S, seconds - open_s))
        if spec.tier == "inprocess":
            shape = SMOKE_SCALE if smoke else {
                "n_targets": spec.n_targets,
                "probes_per_request": spec.probes_per_request,
            }
            requests, warm, self.targets, self.examples = join_requests(
                seed, n_total, N_WARM, replay_share=spec.replay_share, **shape
            )
            self.reference_pipeline = build_pipeline("pretrained")
        else:
            requests, warm, self.examples = transform_requests(
                seed, n_total, N_WARM, spec.replay_share
            )
            self.targets = []
            self.reference_pipeline = build_neural_pipeline()
        self.open_requests = requests[:n_open]
        self.closed_requests = requests[n_open:]
        self.warm_requests = warm
        self.by_index = {r.index: r for r in requests}
        self.expected = self._reference_bodies(rng)
        self.server: ServerProcess | None = None
        self.warm_stats: dict = {}

    # -- reference answers --------------------------------------------------

    def _reference_bodies(self, rng: np.random.Generator) -> dict[int, bytes]:
        """Direct-call answers for a seeded sample of first occurrences."""
        originals = [r for r in self.open_requests if r.replay_of is None]
        n_sample = max(2, round(len(originals) * REFERENCE_SHARE))
        picks = rng.choice(len(originals), size=n_sample, replace=False)
        return {
            originals[int(i)].index: self._direct(originals[int(i)])
            for i in sorted(picks)
        }

    def _direct(self, request: Request) -> bytes:
        """The response body a direct ``DTTPipeline`` call implies."""
        pipeline = self.reference_pipeline
        payload = request.payload
        sources = payload["sources"]
        predictions = pipeline.transform_column(sources, self.examples)
        if request.mode == "transform":
            body: dict = {
                "schema_version": SCHEMA_VERSION,
                "predictions": [p.to_dict() for p in predictions],
            }
            return json.dumps(body).encode("utf-8")
        targets = payload["targets"]
        body = {"schema_version": SCHEMA_VERSION, "mode": request.mode}
        if request.mode == "reverse":
            groups = pipeline.joiner.reverse_many(
                [p.value for p in predictions], targets
            )
            matched = {i for group in groups for i in group}
            body["groups"] = [
                {"row": row, "target": targets[row], "sources": group}
                for row, group in enumerate(groups)
                if group
            ]
            body["unmatched"] = [
                i for i in range(len(sources)) if i not in matched
            ]
        elif request.mode == "topk":
            results = pipeline.joiner.join_topk(
                predictions, targets, k=TOPK_K, margin=TOPK_MARGIN
            )
            body["results"] = [r.to_dict() for r in results]
        else:
            results = pipeline.joiner.join(predictions, targets)
            body["results"] = [r.to_dict() for r in results]
        return json.dumps(body).encode("utf-8")

    # -- server -------------------------------------------------------------

    def start_server(self, trace_sample_rate: float) -> ServerProcess:
        capacity = len(self.open_requests) + len(self.closed_requests) + 64
        self.server = ServerProcess(self.spec.tier, trace_sample_rate, capacity)
        try:
            warm = run_closed_loop(
                self.server.host, self.server.port, self.warm_requests, 60.0,
                name="warm",
            )
            if warm.succeeded != len(self.warm_requests):
                raise RuntimeError(f"warm-up failed: {warm.counts()}")
            self.warm_stats = self.server.get_json("/v1/stats")
        except BaseException:
            self.close()
            raise
        return self.server

    def close(self) -> None:
        if self.server is not None:
            server, self.server = self.server, None
            server.close()

    # -- phases -------------------------------------------------------------

    def open_loop(self, n: int | None = None) -> PhaseResult:
        assert self.server is not None
        n = len(self.open_requests) if n is None else n
        return run_open_loop(
            self.server.host, self.server.port,
            self.open_requests[:n], self.offsets[:n],
        )

    def closed_loop(self, duration_s: float) -> PhaseResult:
        assert self.server is not None
        return run_closed_loop(
            self.server.host, self.server.port, self.closed_requests, duration_s
        )

    # -- checks -------------------------------------------------------------

    def check(self, phases: list[PhaseResult]) -> tuple[int, int, list[str]]:
        """``(attempted, failed, notes)`` over every request of ``phases``.

        A request fails when it errored, timed out, was refused, differs
        from the first response to the same body, or differs from the
        direct-call reference.
        """
        first_body: dict[int, bytes] = {}
        attempted = failed = 0
        notes: list[str] = []
        samples = [s for phase in phases for s in phase.samples]
        for sample in sorted(samples, key=lambda s: s.index):
            attempted += 1
            request = self.by_index[sample.index]
            if not sample.ok:
                failed += 1
                notes.append(
                    f"request {sample.index}: status {sample.status} {sample.error}"
                )
                continue
            origin = request.replay_of if request.replay_of is not None else sample.index
            if origin in first_body and first_body[origin] != sample.body:
                failed += 1
                notes.append(f"request {sample.index}: replay differs from first")
                continue
            first_body.setdefault(origin, sample.body)
            expected = self.expected.get(origin)
            if expected is not None and expected != sample.body:
                failed += 1
                notes.append(f"request {sample.index}: differs from direct call")
        return attempted, failed, notes

    def digest(self, phase: PhaseResult) -> str:
        """sha256 over the open-loop response bodies, in request order."""
        digest = hashlib.sha256()
        for sample in sorted(phase.samples, key=lambda s: s.index):
            digest.update(str(sample.index).encode())
            digest.update(b"\x00")
            digest.update(sample.body)
            digest.update(b"\x00")
        return digest.hexdigest()


def _ms(values: list[float]) -> list[float]:
    return [v * 1000.0 for v in values]


def calm_p50_ms(phase: PhaseResult) -> float:
    """The lowest median latency of ``OPEN_WINDOW`` consecutive arrivals.

    The host's speed drops by tens of percent for seconds at a time;
    the calmest stretch of a run repeats from run to run where the
    median over the whole phase does not.
    """
    ordered = sorted(phase.samples, key=lambda s: s.index)
    return 1000.0 * min(
        statistics.median(s.latency_s for s in window)
        for window in windows(ordered, OPEN_WINDOW)
    )


def calm_rows_per_s(run: ServeRun, phase: PhaseResult) -> float:
    """The highest rate of correct rows over ``CLOSED_WINDOW`` completions."""
    done = sorted(
        (s.done_at, run.by_index[s.index].rows) for s in phase.samples if s.ok
    )
    return max(
        sum(rows for _, rows in window[1:]) / (window[-1][0] - window[0][0])
        for window in windows(done, CLOSED_WINDOW + 1)
    )


def open_loop_stats(run: ServeRun, phase: PhaseResult) -> dict[str, float]:
    """Whole-phase statistics of the open loop (latency from due time)."""
    latencies = _ms([s.latency_s for s in phase.samples])
    late = _ms([s.late_s for s in phase.samples])
    misses = sum(
        1
        for s in phase.samples
        if not s.ok or s.latency_s * 1000.0 > run.spec.slo_ms
    )
    p50 = percentile(latencies, 50)
    late_p95 = percentile(late, 95)
    return {
        "p50_ms": p50,
        "p90_ms": percentile(latencies, 90),
        "slo_miss_share": misses / max(1, phase.sent),
        "generator_late_ms": late_p95,
        "loadgen_valid": float(late_p95 <= 0.10 * p50),
    }


def measure(run: ServeRun) -> tuple[PhaseResult, PhaseResult]:
    """Open loop, then the closed loop for what is left of ``--seconds``."""
    started = time.monotonic()
    open_phase = run.open_loop()
    remaining = run.seconds - (time.monotonic() - started)
    closed_phase = run.closed_loop(max(MIN_CLOSED_S, remaining))
    return open_phase, closed_phase


def end_to_end(run: ServeRun, emit) -> dict:
    """The untraced measurement: end-to-end metrics plus check results."""
    assert run.server is not None
    open_phase, closed_phase = measure(run)
    peak_rss = run.server.peak_rss_mib()
    stats = run.server.get_json("/v1/stats")
    run.close()
    attempted, failed, notes = run.check([open_phase, closed_phase])
    metrics = {
        "p50_ms": calm_p50_ms(open_phase),
        "rows_per_s": calm_rows_per_s(run, closed_phase),
        "peak_rss_mb": peak_rss,
    }
    whole = open_loop_stats(run, open_phase)
    whole["saturation_rps"] = closed_phase.succeeded / closed_phase.duration_s
    whole["cache_hit_ratio"] = cache_hit_ratio(run, stats)
    emit("whole_run " + " ".join(f"{k} {v:.4g}" for k, v in whole.items()))
    if not whole["loadgen_valid"]:
        emit("INVALID generator_late_ms p95 above 10% of p50_ms")
    for phase in (open_phase, closed_phase):
        emit(f"phase {phase.name} {json.dumps(phase.counts())}")
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "digest": run.digest(open_phase),
        "sizes": sizes(run),
    }


def sizes(run: ServeRun) -> dict:
    return {
        "open_requests": len(run.open_requests),
        "rate_rps": run.spec.rate_rps,
        "replay_share": run.spec.replay_share,
        "clients": n_clients(),
        "targets": len(run.targets),
        "request_bytes": len(run.open_requests[0].body),
        "slo_ms": run.spec.slo_ms,
    }


def cache_hit_ratio(run: ServeRun, stats: dict) -> float:
    """Hits / lookups, since warm-up, of the cache tier the replays land in."""

    def lookups(snapshot: dict) -> tuple[int, int]:
        if run.spec.tier == "inprocess":
            return snapshot["join_cache_hits"], snapshot["join_cache_misses"]
        tier = snapshot["router_caches"]["neural"]["transform"]
        return tier["hits"], tier["misses"]

    hits, misses = (
        now - warm for now, warm in zip(lookups(stats), lookups(run.warm_stats))
    )
    return hits / max(1, hits + misses)


# -- the traced run -----------------------------------------------------------


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _is_miss(request: Request) -> bool:
    return request.replay_of is None


def _is_hit(request: Request) -> bool:
    return request.replay_of is not None


class TracedPhase:
    """The open-loop samples of a traced server, each paired with its trace."""

    def __init__(self, run: ServeRun, phase: PhaseResult, traces: dict[str, dict]):
        self.paired: list[tuple[Sample, Request, dict]] = [
            (sample, run.by_index[sample.index], traces[sample.trace_id])
            for sample in phase.samples
            if sample.ok and sample.trace_id in traces
        ]
        self.book = spans.build_ledger([trace for _, _, trace in self.paired])
        self.ledgers = {t.trace_id: t for t in self.book.traces}

    def root_ms(self, trace: dict) -> float:
        return self.ledgers[trace["trace_id"]].duration_s * 1000.0

    def row_ms(self, row: str, which=None) -> list[float]:
        """Per-request self time booked to ``row``, in ms."""
        return [
            self.ledgers[trace["trace_id"]].rows.get(row, 0.0) * 1000.0
            for _, request, trace in self.paired
            if which is None or which(request)
        ]

    def spans_named(self, name: str) -> list[dict]:
        return [
            span
            for _, _, trace in self.paired
            for span in spans.spans_named(trace, name)
        ]


def _serve_rows(
    run: ServeRun, traced: TracedPhase, phases: list[PhaseResult],
    before: dict, after: dict,
) -> dict[str, float]:
    """``serve.*``: HTTP, service, caches and the worker hop."""
    out: dict[str, float] = {}
    if run.spec.tier == "workers":
        # The root's self time also holds the pipe hop here, so the
        # HTTP share is calibrated on replays, whose root does nothing
        # but parse, look up and serialize.
        out["serve.http.self_ms"] = _median(
            [traced.root_ms(t) for _, r, t in traced.paired if _is_hit(r)]
        )
        hops = [
            traced.root_ms(trace)
            - sum(s["duration_s"] for s in worker) * 1000.0
            for _, request, trace in traced.paired
            if _is_miss(request)
            and (worker := spans.spans_named(trace, "worker.execute"))
        ]
        out["serve.workers.hop_ms"] = max(
            0.0, _median(hops) - out["serve.http.self_ms"]
        )
    else:
        out["serve.http.self_ms"] = _median(traced.row_ms("serve.http.self", _is_miss))
        out["serve.workers.hop_ms"] = 0.0
    out["serve.http.wire_gap_ms"] = _median(
        [s.service_s * 1000.0 - traced.root_ms(t) for s, _, t in traced.paired]
    )
    out["serve.http.request_kb"] = (
        statistics.fmean(len(r.body) for r in run.open_requests) / 1024.0
    )
    waits = traced.row_ms("serve.service.queue_wait", _is_miss)
    out["serve.service.queue_wait_p50_ms"] = percentile(waits, 50) if waits else 0.0
    out["serve.service.queue_wait_p95_ms"] = percentile(waits, 95) if waits else 0.0
    out["serve.service.batch_self_ms"] = _median(
        traced.row_ms("serve.service.batch_self", _is_miss)
    )
    batches = after["batches"] - before["batches"]
    out["serve.service.requests_per_batch"] = (
        (after["batched_requests"] - before["batched_requests"]) / batches
        if batches
        else 0.0
    )
    out["serve.service.rejected"] = float(after["rejected"])
    out["serve.service.deadline_expired"] = float(after["deadline_expired"])
    # Read after the open loop: the closed loop replays originals of
    # the open-loop half this run never sent.
    hit_ratio = cache_hit_ratio(run, before)
    out["serve.cache.result_hit_ratio"] = hit_ratio if run.spec.tier == "workers" else 0.0
    out["serve.cache.join_hit_ratio"] = hit_ratio if run.spec.tier == "inprocess" else 0.0
    out["serve.cache.hit_p50_ms"] = _median(
        [s.latency_s * 1000.0 for s, r, _ in traced.paired if _is_hit(r)]
    )
    out["serve.workers.crashes"] = float(
        sum(
            1
            for phase in phases
            for s in phase.samples
            if s.status == 503 and b"worker_crashed" in s.body
        )
    )
    return out


def _engine_rows(traced: TracedPhase) -> dict[str, float]:
    """``infer.*`` / ``surrogate.*`` from the ``engine.decode`` spans."""
    decode_ms: list[float] = []
    surrogate_per_prompt: list[float] = []
    row_steps = prompts = decoded = 0
    for span in traced.spans_named("engine.decode"):
        attrs = span["attributes"]
        ms = span["duration_s"] * 1000.0
        if attrs.get("decoded_rows", 0):
            decode_ms.append(ms)
            row_steps += attrs["row_steps"]
            prompts += attrs["prompts"]
            decoded += attrs["decoded_rows"]
        elif attrs.get("prompts"):
            surrogate_per_prompt.append(ms / attrs["prompts"])
    return {
        "infer.decode_ms": _median(decode_ms),
        "infer.row_steps": float(row_steps),
        "infer.decoded_share": decoded / prompts if prompts else 0.0,
        "infer.us_per_row_step": (
            sum(decode_ms) * 1000.0 / row_steps if row_steps else 0.0
        ),
        "surrogate.ms_per_prompt": _median(surrogate_per_prompt),
    }


def _index_rows(traced: TracedPhase, stats: dict) -> dict[str, float]:
    """``index.*`` from the join spans and the stats endpoint."""
    book = traced.book
    join_spans = traced.spans_named("join.join_many")

    def total(attribute: str) -> int:
        return sum(s["attributes"].get(attribute, 0) for s in join_spans)

    lookups = total("cache_hits") + total("cache_misses")
    pairs = sum(
        sum(s["attributes"].get("kernel_pairs", {}).values()) for s in join_spans
    )
    sweep_s = sum(book.row_values("index.joiner.kernel_sweep"))
    out = {
        "index.cache.build_s": sum(book.row_values("index.cache.build")),
        "index.cache.hit_ratio": total("cache_hits") / lookups if lookups else 0.0,
        "index.qgram.candidate_filter_s": sum(
            book.row_values("index.qgram.candidate_filter")
        ),
        "index.joiner.kernel_sweep_s": sweep_s,
        "index.joiner.pairs_per_probe": (
            pairs / total("pending") if total("pending") else 0.0
        ),
        "index.joiner.exact_match_share": (
            total("exact_matches") / total("unique_probes")
            if total("unique_probes")
            else 0.0
        ),
        "index.kernels.ns_per_pair": sweep_s * 1e9 / pairs if pairs else 0.0,
        "index.parallel.shards": float(
            max((s["attributes"].get("shards", 0) for s in join_spans), default=0)
        ),
    }
    scored = stats.get("join", {}).get("kernel_pairs_total", {})
    for backend in ("reference", "bitparallel", "banded"):
        out[f"index.kernels.pairs_scored.{backend}"] = float(scored.get(backend, 0))
    # Time in the joiner per request, by mode: the batch span minus the
    # engine pass under it (top-k emits no join.* spans of its own).
    for mode in ("argmin", "topk", "reverse"):
        values = []
        for _, request, trace in traced.paired:
            if request.mode != mode or _is_hit(request):
                continue
            batch = spans.spans_named(trace, "serve.batch_execute")
            if not batch or "batch_primary_trace_id" in batch[0]["attributes"]:
                continue
            engine = sum(
                s["duration_s"] for s in spans.spans_named(trace, "engine.decode")
            )
            values.append((batch[0]["duration_s"] - engine) * 1000.0)
        out[f"index.joiner.mode_ms.{mode}"] = _median(values)
    return out


def _share_rows(traced: TracedPhase) -> dict[str, float]:
    """``layer.*_share`` and the unattributed remainder."""
    shares = traced.book.layer_shares()
    misses = spans.Ledger(
        [traced.ledgers[t["trace_id"]] for _, r, t in traced.paired if _is_miss(r)]
    )
    out = {
        f"layer.{layer}_share": shares.get(layer, 0.0)
        for layer in ("serve", "infer", "surrogate", "index", "core")
    }
    out["layer.infer_miss_share"] = misses.layer_shares().get("infer", 0.0)
    out["obs.unattributed_share"] = shares.get(spans.UNATTRIBUTED, 0.0)
    return out


def per_layer(run: ServeRun, emit, out_dir) -> dict:
    """The traced measurement: per-layer metrics from spans and stats.

    Two servers, one after the other, both given the same requests on
    the same schedule: first with sampling off (the reference the
    tracing overhead is taken against), then with sampling at 1.0.
    """
    n_half = max(12, len(run.open_requests) // 2)
    run.start_server(0.0)
    try:
        untraced = run.open_loop(n_half)
    finally:
        run.close()

    run.start_server(1.0)
    try:
        open_phase = run.open_loop(n_half)
        before = run.server.get_json("/v1/stats")
        closed_phase = run.closed_loop(
            max(MIN_CLOSED_S, run.seconds * (1 - OPEN_SHARE))
        )
        after = run.server.get_json("/v1/stats")
        payload = run.server.get_json("/debug/traces?limit=100000")
    finally:
        run.close()
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"trace-{run.spec.name}.json").write_text(json.dumps(payload))

    phases = [untraced, open_phase, closed_phase]
    attempted, failed, notes = run.check(phases)
    traced = TracedPhase(
        run, open_phase, {t["trace_id"]: t for t in payload["recent"]}
    )
    metrics = {
        **_serve_rows(run, traced, phases, before, after),
        **_engine_rows(traced),
        **_index_rows(traced, after),
        **_share_rows(traced),
    }
    untraced_p50 = calm_p50_ms(untraced)
    metrics["obs.tracing_overhead_share"] = (
        calm_p50_ms(open_phase) - untraced_p50
    ) / untraced_p50
    # Whole-phase statistics, the conventional reading next to the
    # calm-window end-to-end metrics: latency with tracing off.
    reference = open_loop_stats(run, untraced)
    metrics["bench.p50_ms"] = reference["p50_ms"]
    metrics["bench.p90_ms"] = reference["p90_ms"]
    metrics["bench.slo_miss_share"] = reference["slo_miss_share"]
    metrics["bench.generator_late_ms"] = reference["generator_late_ms"]
    metrics["bench.loadgen_valid"] = reference["loadgen_valid"]
    metrics["bench.failed_share"] = failed / max(1, attempted)
    metrics["bench.saturation_rps"] = closed_phase.succeeded / closed_phase.duration_s
    for phase in phases:
        emit(f"phase {phase.name} {json.dumps(phase.counts())}")
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "digest": run.digest(open_phase),
        "sizes": sizes(run),
    }
