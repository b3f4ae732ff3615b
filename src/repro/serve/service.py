"""The long-lived transform-join service with cross-request micro-batching.

:class:`TransformService` turns the one-shot :class:`~repro.core.pipeline.
DTTPipeline` into a serving subsystem: concurrent callers submit
``transform`` / ``join`` requests, and a scheduler thread coalesces
every request queued while it was busy (up to ``max_batch_rows`` source
rows) into **one** execution — a single
:meth:`~repro.core.pipeline.DTTPipeline.predict` call over all
requests' prompts, and a single joiner call per distinct
``(target column, mode, k, margin)`` group — joins support the full
redesigned query surface (``argmin`` / ``topk`` / ``reverse``, see
:meth:`TransformService.submit_join`).  Coalescing is execution-driven:
no request is held back waiting for company, so an idle service starts
a lone request at once, while under load the requests that arrive
during one batch form the next.  p50 latency stays near the
single-request cost while throughput scales with concurrency, because
the engine's micro-batches vectorize across requests and the join
amortizes its index work across every probe of the batch.

**Byte-equivalence.**  Service results are byte-identical to calling
the pipeline directly, whatever the interleaving:

* The per-request stages (context decomposition, serialization,
  aggregation) run exactly as ``transform_column`` runs them — context
  sampling is keyed on the row position, never on what else shares the
  batch.
* The prediction stage is the pipeline's own ``predict``, handed one
  prompt group per request: incremental models (the KV-cached
  transformer) decode each unique prompt greedily, as a pure function
  of the prompt, so their prompts are pooled across requests into one
  engine job; occurrence-dependent models (the surrogates draw fresh
  corruption samples for repeated prompts *within one call*) get one
  engine job per request, preserving their per-call semantics exactly.

The same determinism is what makes the **result cache** sound: when
every model is incremental, results memoize per ``(pipeline
fingerprint, example-pool fingerprint, row position, value)``; with an
occurrence-dependent model in the ensemble, rows of one request are not
independent, so memoization coarsens to whole-request keys.  Either
way a hit returns exactly what recomputation would.

Request lifecycle: every submit returns a
:class:`concurrent.futures.Future` (cancellable until its batch
starts), carries an optional deadline (expired requests fail with
:class:`~repro.exceptions.DeadlineExceededError` instead of wasting a
batch slot), and passes through a bounded queue —
:class:`~repro.exceptions.ServiceOverloadedError` is backpressure, not
a crash.  :meth:`TransformService.close` drains everything already
queued, then stops the scheduler.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Mapping, Sequence
from concurrent.futures import Future
from dataclasses import asdict, dataclass, fields
from typing import Literal

from repro.core.interface import IncrementalSequenceModel
from repro.core.join_config import JOIN_MODES
from repro.core.joiner import invert_matches
from repro.core.pipeline import DTTPipeline
from repro.core.serializer import SubTask
from repro.exceptions import (
    DeadlineExceededError,
    JoinError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.index.kernels import KERNEL_BACKENDS
from repro.infer.engine import EngineStats
from repro.obs.metrics import (
    DEFAULT_OCCUPANCY_BUCKETS,
    Counter,
    MetricsRegistry,
)
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    SpanContext,
    current_context,
    get_tracer,
)
from repro.serve.cache import (
    JoinResultCache,
    ResultCache,
    examples_fingerprint,
    join_cache_key,
)
from repro.types import ExamplePair, Prediction

#: ``JoinStats`` fields accumulated into the registry (for
#: ``EngineStats`` it is every field).
_JOIN_FIELDS = (
    "probes",
    "unique_probes",
    "exact_matches",
    "empty_probes",
    "pending",
)


@dataclass(frozen=True)
class ServeStats:
    """A read-only view of the service's registry series.

    Built by :meth:`from_snapshot`; the registry
    (:attr:`TransformService.metrics`) is the only place counts live.

    Attributes:
        requests: Requests accepted (rejected submits and requests
            with no ``sources``, answered without queueing, excluded).
        transform_requests: Accepted ``transform`` requests.
        join_requests: Accepted ``join`` requests.
        rows: Source rows across accepted requests.
        joined_rows: Probe rows joined into target columns.
        batches: Micro-batches executed.
        batched_requests: Requests that reached execution (so
            ``batched_requests / batches`` is the realized coalescing
            factor).
        rejected: Submits refused with ``ServiceOverloadedError``.
        cancelled: Requests cancelled before their batch started.
        deadline_expired: Requests whose deadline passed before
            execution.
        failed: Requests failed by an execution error.
        cache_hits: Result-cache hits (rows or whole requests,
            depending on the caching granularity).
        cache_misses: Result-cache misses.
        cache_evictions: Result-cache LRU/byte-bound evictions.
        cache_expirations: Result-cache TTL expirations.
        cache_entries: Entries currently cached.
        cache_bytes: Approximate bytes currently cached.
        join_cache_hits: Join-result cache hits (whole join requests
            served without touching the engine or the joiner).
        join_cache_misses: Join-result cache misses.
        join_cache_entries: Join results currently cached.
        engine_prompts: Prompts handed to the generation engine.
        engine_decoded_rows: Unique rows the engine actually decoded.
        engine_chunks: Decode micro-batches the engine scheduled.
        engine_steps: Decode steps across all micro-batches.
        engine_row_steps: Per-row decode operations actually paid
            (compaction makes this less than rows x steps).
    """

    requests: int = 0
    transform_requests: int = 0
    join_requests: int = 0
    rows: int = 0
    joined_rows: int = 0
    batches: int = 0
    batched_requests: int = 0
    rejected: int = 0
    cancelled: int = 0
    deadline_expired: int = 0
    failed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_expirations: int = 0
    cache_entries: int = 0
    cache_bytes: int = 0
    join_cache_hits: int = 0
    join_cache_misses: int = 0
    join_cache_entries: int = 0
    engine_prompts: int = 0
    engine_decoded_rows: int = 0
    engine_chunks: int = 0
    engine_steps: int = 0
    engine_row_steps: int = 0

    def as_dict(self) -> dict:
        """JSON-friendly dict form."""
        return asdict(self)

    @classmethod
    def from_snapshot(cls, snapshot: Mapping) -> ServeStats:
        """Read the fields out of a serving-registry snapshot.

        Field ``f`` is the series ``serve_<f>_total`` (``serve_<f>`` for
        the three point-in-time fields).  The snapshot may be one
        service's or a :func:`~repro.obs.metrics.sum_snapshots` total
        across workers; a series it lacks reads 0.
        """
        gauges = ("cache_entries", "cache_bytes", "join_cache_entries")
        values = {}
        for field in fields(cls):
            suffix = "" if field.name in gauges else "_total"
            series = f"serve_{field.name}{suffix}"
            values[field.name] = int(snapshot.get(series, 0))
        return cls(**values)


def kernel_pairs_total(snapshot: Mapping) -> dict[str, int]:
    """Pairs scored per kernel backend, for the backends that scored any."""
    counts = {
        backend: snapshot.get(f"join_kernel_pairs_{backend}_total", 0)
        for backend in KERNEL_BACKENDS
    }
    return {backend: count for backend, count in counts.items() if count}


class _Request:
    """One queued request and its delivery future."""

    __slots__ = (
        "kind",
        "sources",
        "examples",
        "targets",
        "mode",
        "k",
        "margin",
        "future",
        "deadline",
        "submitted_at",
        "trace_ctx",
        "span",
    )

    def __init__(
        self,
        kind: Literal["transform", "join"],
        sources: tuple[str, ...],
        examples: tuple[ExamplePair, ...],
        targets: tuple[str, ...] | None,
        deadline: float | None,
        submitted_at: float = 0.0,
        mode: str = "argmin",
        k: int = 1,
        margin: float | None = None,
        trace_ctx: SpanContext | None = None,
    ) -> None:
        self.kind = kind
        self.sources = sources
        self.examples = examples
        self.targets = targets
        self.mode = mode
        self.k = k
        self.margin = margin
        self.future: Future = Future()
        self.deadline = deadline
        self.submitted_at = submitted_at
        #: Sampled trace context captured at submit time (``None`` when
        #: tracing is off — every span call then short-circuits).
        self.trace_ctx = trace_ctx
        #: The live ``serve.batch_execute`` span while this request is
        #: executing; finished right before its future resolves so
        #: cross-process span fan-in never races the reply.
        self.span: Span | None = None


class _Plan:
    """Per-request execution state inside one micro-batch."""

    __slots__ = (
        "request",
        "predictions",
        "subtasks",
        "prompts",
        "cache_keys",
        "join_key",
    )

    def __init__(self, request: _Request) -> None:
        self.request = request
        #: Per-row predictions; cache hits pre-filled, the rest ``None``.
        self.predictions: list[Prediction | None] = [None] * len(
            request.sources
        )
        self.subtasks: list[SubTask] = []
        self.prompts: list[str] = []
        #: Row-granular cache keys (row-cacheable pipelines only).
        self.cache_keys: list[tuple] | None = None
        #: Whole-request join-cache key (join requests only).
        self.join_key: tuple | None = None


class TransformService:
    """Thread-safe serving front of one :class:`DTTPipeline`.

    Args:
        pipeline: The pipeline to serve.  The service owns it: nothing
            else may call it while the service is live (all execution
            is serialized on the scheduler thread).  Coalescing and
            memoization both rely on its engine's greedy decoding,
            which is the only kind there is.
        max_batch_rows: Source-row cap per micro-batch.  A batch takes
            every request queued when the scheduler comes free, up to
            this cap; it never waits for more to arrive.
        max_queue: Pending-request bound; submits beyond it fail fast
            with :class:`ServiceOverloadedError`.
        default_timeout: Default per-request deadline in seconds
            (``None`` = no deadline unless the caller passes one).
        result_cache: The memoized result cache; ``None`` builds a
            default :class:`ResultCache`.  Pass a cache with
            ``ttl_seconds`` to bound staleness.
        join_cache: The join-result cache tier; ``None`` builds a
            default :class:`JoinResultCache`.  Join requests memoize
            end-to-end (transform *and* Eq. 5 resolution) at
            whole-request granularity, keyed by
            :func:`~repro.serve.cache.join_cache_key`.
        clock: Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        pipeline: DTTPipeline,
        max_batch_rows: int = 256,
        max_queue: int = 256,
        default_timeout: float | None = None,
        result_cache: ResultCache | None = None,
        join_cache: JoinResultCache | None = None,
        clock=time.monotonic,
    ) -> None:
        if max_batch_rows < 1:
            raise ValueError(
                f"max_batch_rows must be >= 1, got {max_batch_rows}"
            )
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.pipeline = pipeline
        self.max_batch_rows = max_batch_rows
        self.max_queue = max_queue
        self.default_timeout = default_timeout
        # Explicit None check: an empty ResultCache is len() == 0 and
        # therefore falsy, so ``or`` would silently discard it.
        self.result_cache = (
            result_cache if result_cache is not None else ResultCache()
        )
        self.join_cache = (
            join_cache if join_cache is not None else JoinResultCache()
        )
        self._clock = clock
        #: Snapshot of the pipeline's content fingerprint; models must
        #: not be retrained while the service is live (build a new
        #: service after training — the fingerprint covers weights).
        self.model_fingerprint = pipeline.fingerprint()
        #: Row-granular memoization is exact only when every model's
        #: outputs are a pure per-prompt function; the surrogates draw
        #: occurrence-indexed samples within a call, so their presence
        #: coarsens caching to whole-request keys.
        self.row_cacheable = all(
            isinstance(model, IncrementalSequenceModel)
            for model in pipeline.models
        )
        self.last_join_stats = None
        #: Start time and unsettled requests of the batch in execution
        #: (scheduler thread only).
        self._open_batch = (0.0, 0)
        self._queue: deque[_Request] = deque()
        self.metrics = self._build_metrics()
        self._cond = threading.Condition()
        self._closing = False
        self._thread = threading.Thread(
            target=self._run, name="transform-service", daemon=True
        )
        self._thread.start()

    def _build_metrics(self) -> MetricsRegistry:
        """The service's registry — the only store of its event counts.

        Event sites ``inc()`` the stored counters in ``self._count``
        (keyed by series name); :meth:`stats` is a view of its
        ``snapshot()``.
        Gauges and the counts the caches own read live through
        callbacks, and a count exported under two names is one stored
        counter plus a read-through alias: an event is counted once.
        Histograms are observed on the scheduler thread.
        """
        registry = MetricsRegistry(prefix="serve_")
        self._queue_wait = registry.histogram(
            "queue_wait_seconds",
            "submit-to-batch-start wait per executed request",
        )
        self._request_latency = registry.histogram(
            "request_latency_seconds",
            "submit-to-completion latency per executed request",
        )
        self._batch_execute = registry.histogram(
            "batch_execute_seconds",
            "wall time of each coalesced micro-batch execution",
        )
        self._batch_requests = registry.histogram(
            "batch_occupancy_requests",
            "requests coalesced into each micro-batch",
            buckets=DEFAULT_OCCUPANCY_BUCKETS,
        )
        self._batch_rows = registry.histogram(
            "batch_occupancy_rows",
            "source rows coalesced into each micro-batch",
            buckets=DEFAULT_OCCUPANCY_BUCKETS,
        )
        registry.gauge(
            "queue_depth",
            "requests waiting for a batch slot right now",
            fn=lambda: len(self._queue),
        )
        registry.gauge(
            "cache_entries",
            "result-cache entries currently held",
            fn=lambda: len(self.result_cache),
        )
        registry.gauge(
            "cache_bytes",
            "approximate bytes held by the result cache",
            fn=lambda: self.result_cache.total_bytes,
        )
        for name in (
            "hits",
            "misses",
            "evictions",
            "expirations",
        ):
            registry.counter(
                f"cache_{name}_total",
                f"result-cache {name}",
                fn=lambda n=name: getattr(self.result_cache, n),
            )
            registry.counter(
                f"join_cache_{name}_total",
                f"join-result-cache {name}",
                fn=lambda n=name: getattr(self.join_cache, n),
            )
        registry.gauge(
            "join_cache_entries",
            "join-result-cache entries currently held",
            fn=lambda: len(self.join_cache),
        )
        self._count: dict[str, Counter] = {}

        def stored(name: str, help: str) -> None:
            self._count[name] = registry.counter(name, help, prefix="")

        def alias(name: str, help: str) -> None:
            """Export the stored bare ``name`` as ``serve_<name>`` too."""
            registry.counter(
                name, help, fn=lambda: self._count[name].value
            )

        for field in (
            "requests",
            "transform_requests",
            "join_requests",
            "rows",
            "joined_rows",
            "batches",
            "batched_requests",
            "rejected",
            "cancelled",
            "deadline_expired",
            "failed",
        ):
            stored(f"serve_{field}_total", f"see ServeStats.{field}")
        engine_fields = [field.name for field in fields(EngineStats)]
        for field in engine_fields:
            alias(
                f"engine_{field}_total", f"see ServeStats.engine_{field}"
            )
        pairs_series = "join_kernel_pairs_{}_total"
        pairs_help = (
            "candidate pairs scored by the {} "
            "edit-distance kernel across all joins"
        )
        for backend in KERNEL_BACKENDS:
            alias(pairs_series.format(backend), pairs_help.format(backend))
        # The EngineStats and JoinStats counters under their own metric
        # namespaces, merged with the same per-worker/per-route labels
        # as the serve_* series by the router's scrape endpoint.
        for field in engine_fields:
            stored(
                f"engine_{field}_total",
                f"see EngineStats.{field} (cumulative across batches)",
            )
        for field in ("calls", *_JOIN_FIELDS):
            stored(
                f"join_{field}_total",
                f"see JoinStats.{field} (cumulative across joins)",
            )
        for backend in KERNEL_BACKENDS:
            stored(pairs_series.format(backend), pairs_help.format(backend))
        return registry

    # -- submission --------------------------------------------------------

    def submit_transform(
        self,
        sources: Sequence[str],
        examples: Sequence[ExamplePair],
        timeout: float | None = None,
    ) -> Future:
        """Enqueue a transform; the future resolves to ``list[Prediction]``."""
        return self._submit("transform", sources, examples, None, timeout)

    def submit_join(
        self,
        sources: Sequence[str],
        targets: Sequence[str],
        examples: Sequence[ExamplePair],
        timeout: float | None = None,
        *,
        mode: str = "argmin",
        k: int = 1,
        margin: float | None = None,
    ) -> Future:
        """Enqueue a join; the future's type depends on ``mode``.

        ``"argmin"`` resolves to ``list[JoinResult]`` (the classic
        Eq. 5 join), ``"topk"`` to ``list[TopKJoinResult]`` with up to
        ``k`` ranked candidates per row and optional ``margin``
        abstention, ``"reverse"`` to ``list[list[int]]`` — one group of
        source-row indices per target row.  Requests sharing
        ``(targets, mode, k, margin)`` within a micro-batch coalesce
        into one joiner call.
        """
        if not targets:
            raise JoinError("cannot join into an empty target column")
        if mode not in JOIN_MODES:
            raise JoinError(f"mode must be one of {JOIN_MODES}, got {mode!r}")
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise JoinError(f"k must be an int >= 1, got {k!r}")
        if margin is not None and not margin >= 0:  # NaN too
            raise JoinError(f"margin must be >= 0, got {margin}")
        return self._submit(
            "join",
            sources,
            examples,
            tuple(targets),
            timeout,
            mode=mode,
            k=k,
            margin=margin,
        )

    def transform(
        self,
        sources: Sequence[str],
        examples: Sequence[ExamplePair],
        timeout: float | None = None,
    ) -> list[Prediction]:
        """Blocking :meth:`submit_transform`."""
        return self.submit_transform(sources, examples, timeout).result()

    def join(
        self,
        sources: Sequence[str],
        targets: Sequence[str],
        examples: Sequence[ExamplePair],
        timeout: float | None = None,
        *,
        mode: str = "argmin",
        k: int = 1,
        margin: float | None = None,
    ) -> list:
        """Blocking :meth:`submit_join`."""
        return self.submit_join(
            sources, targets, examples, timeout, mode=mode, k=k, margin=margin
        ).result()

    def _submit(
        self,
        kind: Literal["transform", "join"],
        sources: Sequence[str],
        examples: Sequence[ExamplePair],
        targets: tuple[str, ...] | None,
        timeout: float | None,
        mode: str = "argmin",
        k: int = 1,
        margin: float | None = None,
    ) -> Future:
        timeout = timeout if timeout is not None else self.default_timeout
        now = self._clock()
        deadline = now + timeout if timeout is not None else None
        request = _Request(
            kind,
            tuple(sources),
            tuple(examples),
            targets,
            deadline,
            submitted_at=now,
            mode=mode,
            k=k,
            margin=margin,
            trace_ctx=current_context(),
        )
        with self._cond:
            if self._closing:
                raise ServiceClosedError("service is shut down")
            if not request.sources:
                # The pipeline's empty-input fast path, answered at the
                # door: no queue slot, no batch, and — like a rejected
                # submit — not an accepted request in any counter.
                request.future.set_result([])
                return request.future
            if len(self._queue) >= self.max_queue:
                self._count["serve_rejected_total"].inc()
                raise ServiceOverloadedError(
                    f"request queue is full ({self.max_queue} pending)"
                )
            self._count["serve_requests_total"].inc()
            self._count[f"serve_{kind}_requests_total"].inc()
            self._count["serve_rows_total"].inc(len(request.sources))
            self._queue.append(request)
            self._cond.notify_all()
        return request.future

    # -- the scheduler loop ------------------------------------------------

    def _run(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            self._execute(batch)
            self.result_cache.sweep()
            self.join_cache.sweep()

    def _next_batch(self) -> list[_Request] | None:
        """Wait for work, then pop what is queued, up to the row cap."""
        with self._cond:
            while not self._queue:
                if self._closing:
                    return None
                self._cond.wait()
            batch = [self._queue.popleft()]
            rows = len(batch[0].sources)
            while self._queue and rows < self.max_batch_rows:
                rows += len(self._queue[0].sources)
                batch.append(self._queue.popleft())
            return batch

    def _execute(self, batch: list[_Request]) -> None:
        ready: list[_Request] = []
        tracer = get_tracer()
        now = self._clock()
        for request in batch:
            if not request.future.set_running_or_notify_cancel():
                self._count["serve_cancelled_total"].inc()
                continue
            if request.deadline is not None and now > request.deadline:
                tracer.record_span(
                    "serve.queue_wait",
                    request.trace_ctx,
                    request.submitted_at,
                    now,
                    attributes={"deadline_expired": True},
                    status="error",
                )
                self._count["serve_deadline_expired_total"].inc()
                request.future.set_exception(
                    DeadlineExceededError(
                        "deadline expired before the batch started"
                    )
                )
                continue
            ready.append(request)
        if not ready:
            return
        self._count["serve_batches_total"].inc()
        self._count["serve_batched_requests_total"].inc(len(ready))
        for request in ready:
            self._queue_wait.observe(now - request.submitted_at)
            tracer.record_span(
                "serve.queue_wait",
                request.trace_ctx,
                request.submitted_at,
                now,
                attributes={"batch_requests": len(ready)},
            )
        self._batch_requests.observe(len(ready))
        self._batch_rows.observe(
            sum(len(request.sources) for request in ready)
        )
        self._open_batch = (now, len(ready))
        try:
            self._execute_ready(ready)
        except Exception as error:  # the futures carry it to callers
            for request in ready:
                if not request.future.done():
                    self._count["serve_failed_total"].inc()
                    self._settle(request, "error", repr(error))
                    request.future.set_exception(error)

    def _settle(
        self, request: _Request, status: str = "ok", detail: str = ""
    ) -> None:
        """Close a request's books; call right before resolving its future.

        Resolving the future releases the caller, who may read
        ``/v1/stats`` at once, and can synchronously trigger the
        worker-side reply path (which drains finished spans into the
        reply) — so the request's latency, the batch's wall time once
        its last request settles, and the execution span are all
        recorded here, never after ``set_result`` / ``set_exception``.
        """
        done = self._clock()
        self._request_latency.observe(done - request.submitted_at)
        started, unsettled = self._open_batch
        self._open_batch = (started, unsettled - 1)
        if unsettled == 1:
            self._batch_execute.observe(done - started)
        span = request.span
        if span is None:
            return
        request.span = None
        if status == "error":
            span.set_error(detail)
        span.finish()

    def _execute_ready(self, ready: list[_Request]) -> None:
        """One coalesced pass over every survivable request."""
        tracer = get_tracer()
        plans: list[_Plan] = []
        for request in ready:
            plan = _Plan(request)
            span = tracer.start_span(
                "serve.batch_execute",
                parent=request.trace_ctx,
                attributes={
                    "kind": request.kind,
                    "rows": len(request.sources),
                },
            )
            request.span = span if isinstance(span, Span) else None
            try:
                if self._serve_join_from_cache(plan):
                    continue
                self._resolve_cache_and_prompts(plan)
            except Exception as error:  # per-request isolation
                self._count["serve_failed_total"].inc()
                self._settle(request, "error", repr(error))
                request.future.set_exception(error)
                continue
            plans.append(plan)
        if not plans:
            return
        # The engine pass and the coalesced joins run once for the whole
        # batch, so their spans parent under ONE request's span — the
        # first traced one; every other traced request's span records
        # the primary's trace id instead (the span-link pattern).
        primary = next(
            (p.request.span for p in plans if p.request.span is not None),
            None,
        )
        if primary is not None:
            for plan in plans:
                span = plan.request.span
                if span is not None and span is not primary:
                    span.set_attribute("batch_primary_trace_id", primary.trace_id)
        with tracer.activate(primary if primary is not None else NULL_SPAN):
            self._generate(plans)
            self._deliver(plans)

    def _serve_join_from_cache(self, plan: _Plan) -> bool:
        """Resolve a join request from the join-result cache tier.

        A hit skips the whole pipeline — no prompts, no engine pass, no
        Eq. 5 resolution — and is byte-identical to recomputing because
        the key covers everything the output depends on (pipeline
        fingerprint, example pool, sources, target-column content,
        mode, ``k``, ``margin``).  Returns ``True`` when the future was
        resolved here.
        """
        request = plan.request
        if request.kind != "join":
            return False
        assert request.targets is not None
        plan.join_key = join_cache_key(
            self.model_fingerprint,
            examples_fingerprint(request.examples),
            request.sources,
            request.targets,
            request.mode,
            request.k,
            request.margin,
        )
        cached = self.join_cache.get(plan.join_key)
        if cached is None:
            return False
        if request.span is not None:
            request.span.set_attribute("join_cache_hit", True)
        self._settle(request)
        if request.mode == "reverse":
            # Stored as immutable row tuples; callers get fresh lists.
            request.future.set_result([list(group) for group in cached])
        else:
            request.future.set_result(list(cached))
        return True

    def _resolve_cache_and_prompts(self, plan: _Plan) -> None:
        """Fill cache hits and build prompts for the remaining rows."""
        request = plan.request
        pool_fp = examples_fingerprint(request.examples)
        if self.row_cacheable:
            plan.cache_keys = [
                (self.model_fingerprint, pool_fp, row, value)
                for row, value in enumerate(request.sources)
            ]
            for row, key in enumerate(plan.cache_keys):
                cached = self.result_cache.get(key)
                if cached is not None:
                    plan.predictions[row] = cached[0]
        else:
            plan.cache_keys = [
                (self.model_fingerprint, pool_fp, request.sources)
            ]
            cached = self.result_cache.get(plan.cache_keys[0])
            if cached is not None:
                plan.predictions = list(cached)
        pending_rows = {
            row
            for row, prediction in enumerate(plan.predictions)
            if prediction is None
        }
        if not pending_rows:
            return
        subtasks, prompts = self.pipeline.prepare_prompts(
            request.sources, request.examples
        )
        # Context sampling is keyed on the row position alone, so rows
        # already served from cache can be dropped without changing any
        # other row's prompts.
        for task, prompt in zip(subtasks, prompts, strict=True):
            if task.row_index in pending_rows:
                plan.subtasks.append(task)
                plan.prompts.append(prompt)

    def _generate(self, plans: list[_Plan]) -> None:
        """One :meth:`DTTPipeline.predict` call over every plan's prompts.

        Each plan is one prompt group, so every request's candidates are
        exactly those of a direct ``transform_column`` call.
        """
        active = [plan for plan in plans if plan.prompts]
        candidates, stats = self.pipeline.predict(
            [plan.prompts for plan in active]
        )
        for field, count in asdict(EngineStats.merged(stats)).items():
            self._count[f"engine_{field}_total"].inc(count)
        for plan, candidate_lists in zip(active, candidates, strict=True):
            request = plan.request
            fresh = self.pipeline.aggregate_candidates(
                request.sources, plan.subtasks, candidate_lists
            )
            # aggregate_candidates votes every row; rows not pending
            # here were cache hits, whose stored predictions win.
            for task in plan.subtasks:
                plan.predictions[task.row_index] = fresh[task.row_index]

    def _deliver(self, plans: list[_Plan]) -> None:
        """Store cache entries, resolve transforms, run coalesced joins."""
        join_groups: dict[tuple, list[_Plan]] = {}
        for plan in plans:
            request = plan.request
            predictions = plan.predictions
            assert all(p is not None for p in predictions)
            if self.row_cacheable:
                assert plan.cache_keys is not None
                for key, prediction in zip(
                    plan.cache_keys, predictions, strict=True
                ):
                    self.result_cache.put(key, (prediction,))
            else:
                assert plan.cache_keys is not None
                self.result_cache.put(plan.cache_keys[0], predictions)
            if request.kind == "transform":
                self._settle(request)
                request.future.set_result(list(predictions))
            else:
                assert request.targets is not None
                key = (
                    request.targets,
                    request.mode,
                    request.k,
                    request.margin,
                )
                join_groups.setdefault(key, []).append(plan)
        for (targets, mode, k, margin), group in join_groups.items():
            flat = [
                prediction
                for plan in group
                for prediction in plan.predictions
            ]
            joiner = self.pipeline.joiner
            if mode == "topk":
                results = joiner.join_topk(flat, targets, k=k, margin=margin)
            elif mode == "reverse":
                # One forward join over the whole group; each request
                # gets its own inversion of its slice, so per-request
                # results never depend on what else shared the batch.
                results = joiner.join_many([p.value for p in flat], targets)
            else:
                results = joiner.join(flat, targets)
            self._count["serve_joined_rows_total"].inc(len(flat))
            stats = getattr(joiner, "last_join_stats", None)
            self.last_join_stats = stats
            if stats is not None:
                for name, count in stats.kernel_pairs:
                    self._count[f"join_kernel_pairs_{name}_total"].inc(count)
                self._count["join_calls_total"].inc()
                for field in _JOIN_FIELDS:
                    self._count[f"join_{field}_total"].inc(
                        getattr(stats, field)
                    )
            offset = 0
            for plan in group:
                request = plan.request
                span = results[offset : offset + len(plan.predictions)]
                offset += len(plan.predictions)
                if mode == "reverse":
                    groups = invert_matches(span, targets)
                    if plan.join_key is not None:
                        self.join_cache.put(
                            plan.join_key,
                            (tuple(g) for g in groups),
                        )
                    self._settle(request)
                    request.future.set_result(groups)
                else:
                    if plan.join_key is not None:
                        self.join_cache.put(plan.join_key, span)
                    self._settle(request)
                    request.future.set_result(list(span))

    # -- observability and lifecycle ---------------------------------------

    def stats(self) -> ServeStats:
        """The service counters, read out of one registry snapshot."""
        return ServeStats.from_snapshot(self.metrics.snapshot())

    def metrics_snapshot(self) -> dict:
        """JSON-friendly export of every metric (histograms included)."""
        return self.metrics.snapshot()

    def metrics_text(self) -> str:
        """The Prometheus text exposition of the service's metrics."""
        return self.metrics.render_text()

    @property
    def closed(self) -> bool:
        """Whether shutdown finished (scheduler stopped, queue drained)."""
        return self._closing and not self._thread.is_alive()

    def close(self, timeout: float | None = None) -> None:
        """Drain queued requests, stop the scheduler, release resources.

        Requests already queued complete normally (a clean shutdown
        never drops accepted work); new submits fail with
        :class:`ServiceClosedError`.  Idempotent.  With a ``timeout``,
        the call may return while the scheduler is still draining.
        """
        with self._cond:
            self._closing = True
            self._cond.notify_all()
        self._thread.join(timeout)

    def __enter__(self) -> TransformService:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
