"""Serving-tier worker processes hosting :class:`TransformService` replicas.

The single-process serving layer is one GIL-bound interpreter: however
well its micro-batching amortizes scheduling, decode and join compute
for concurrent requests ultimately serialize on one core.  A
:class:`ServeWorkerPool` makes the tier **shared-nothing horizontal**:
it is a :class:`~repro.procs.WorkerPool` — the one process pool, which
owns start-up, the pipe protocol, crash containment and respawn —
whose N worker *processes* each run the full per-route
:class:`~repro.serve.service.TransformService` stack (pipeline,
micro-batching scheduler, result + join caches) behind
:func:`_serve_handler`.  Fork-started workers inherit the parent's
built pipelines copy-on-write; fresh-start and respawned ones rebuild
them from the picklable, deterministic factories.  Either way every
worker's pipeline is content-identical and each request runs inside
exactly one byte-equivalent ``TransformService``, so results at any
worker count are byte-identical to the single-process path.  A worker
that dies fails only its in-flight requests, with
:class:`~repro.exceptions.WorkerCrashedError` (HTTP 503).

Ops: ``"request"`` submits ``(route, kind, args, kwargs, trace_ctx)``
to the route's ``submit_<kind>`` (``transform`` / ``join``) and
replies ``(ok, result_or_error, spans)`` once the service resolves it;
``"snapshot"`` reads every route's registry (:func:`snapshot_services`,
the one source behind ``/v1/stats`` and ``/metrics``).

**Cross-process tracing.**  The request's trace context is the
parent's sampled :class:`~repro.obs.trace.SpanContext` (or ``None``);
the worker opens a ``worker.execute`` span re-parented to it, activates
it around the service submit (so queue-wait / batch-execute / engine /
join spans all land under it), and ships every finished span of the
trace back in the reply's ``spans`` slot.  The router ingests them
before it returns, so by the time the HTTP root span closes the whole
tree — whichever worker ran it — commits as one trace.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from collections.abc import Callable, Mapping
from concurrent.futures import Future

from repro.core.pipeline import DTTPipeline
from repro.obs.trace import Span, get_tracer
from repro.procs import Handler, WorkerPool
from repro.serve.cache import JoinResultCache, ResultCache
from repro.serve.service import TransformService

#: Zero-argument, picklable constructor of one route's pipeline.  Must
#: be deterministic: every call (in any process) builds a pipeline with
#: the same fingerprint, or byte-equivalence across workers is void.
PipelineFactory = Callable[[], DTTPipeline]


def build_service(
    pipeline: DTTPipeline, service_kwargs: Mapping
) -> TransformService:
    """Construct one ``TransformService`` from picklable kwargs.

    Cache objects hold locks and cannot cross a spawn pickle, so the
    pool ships cache *parameters* instead: the special keys
    ``result_cache_kwargs`` / ``join_cache_kwargs`` (dicts of
    ``max_entries`` / ``max_bytes`` / ``ttl_seconds``) are popped here
    and turned into per-service cache instances; everything else passes
    through to :class:`~repro.serve.service.TransformService` verbatim.
    The router's in-process mode builds through the same function, so
    both deployment shapes accept the same configuration.
    """
    kwargs = dict(service_kwargs)
    result_cache_kwargs = kwargs.pop("result_cache_kwargs", None)
    join_cache_kwargs = kwargs.pop("join_cache_kwargs", None)
    if result_cache_kwargs is not None:
        kwargs["result_cache"] = ResultCache(**result_cache_kwargs)
    if join_cache_kwargs is not None:
        kwargs["join_cache"] = JoinResultCache(**join_cache_kwargs)
    return TransformService(pipeline, **kwargs)


def snapshot_services(services: Mapping[str, TransformService]) -> dict:
    """``route -> {"metrics", "last_join"}``: one read of serve-side state.

    ``metrics`` is the route's registry snapshot — every count
    ``/v1/stats`` and ``/metrics`` report derives from it — and
    ``last_join`` the most recent ``JoinStats`` as a dict (or ``None``),
    the one per-call value the registry does not hold.
    """
    out = {}
    for name, service in services.items():
        last = service.last_join_stats
        out[name] = {
            "metrics": service.metrics_snapshot(),
            "last_join": last.as_dict() if last is not None else None,
        }
    return out


def _execute(services: Mapping[str, TransformService], payload) -> Future:
    """Submit one request under a ``worker.execute`` span.

    The returned future resolves to ``(ok, result_or_error, spans)``
    once the service's future does: the span finishes then (the service
    closed its own spans before resolving), and every finished span of
    the trace drains into the reply so the parent can re-assemble the
    tree.
    """
    route, kind, args, kwargs, trace_ctx = payload
    tracer = get_tracer()
    span = tracer.start_span(
        "worker.execute",
        parent=trace_ctx,
        attributes={"route": route, "op": kind, "pid": os.getpid()},
    )
    submit = getattr(services[route], f"submit_{kind}")
    with tracer.activate(span):
        future = submit(*args, **kwargs)
    outcome: Future = Future()

    def finish(done: Future) -> None:
        error = done.exception()
        spans = None
        if isinstance(span, Span):
            if error is not None:
                span.set_error(repr(error))
            span.finish()
            spans = tracer.drain(span.trace_id)
        if error is None:
            outcome.set_result((True, done.result(), spans))
        else:
            outcome.set_result((False, error, spans))

    future.add_done_callback(finish)
    return outcome


def _serve_handler(
    factories: dict[str, PipelineFactory],
    service_kwargs: dict,
    pipelines: dict[str, DTTPipeline] | None,
) -> Handler:
    """Build one worker's per-route services; return its op handler.

    ``pipelines`` is the parent's built set under the ``fork`` start
    method (copy-on-write); fresh interpreters build from ``factories``
    instead.  A request replies from the service future's done callback
    (on the service's scheduler thread), so one worker pipelines many
    concurrent requests through its own micro-batching.
    """
    # Under fork, this child inherits the parent tracer's RNG state;
    # without a reseed its span ids would be identical to the parent's
    # next draws, colliding with the request ids they parent under.
    get_tracer().reseed()
    if pipelines is None:
        pipelines = {name: factory() for name, factory in factories.items()}
    for pipeline in pipelines.values():
        # Nesting policy: the serve worker is the unit of parallelism,
        # so a joiner it hosts resolves in-process.  N serve workers x
        # M join workers on N cores is nobody's intent, and a daemonic
        # process may not have children at all.
        joiner = pipeline.joiner
        joiner.config = dataclasses.replace(joiner.config, n_workers=1)
    services = {
        name: build_service(pipeline, service_kwargs)
        for name, pipeline in pipelines.items()
    }

    def handle(op: str, payload: object) -> object:
        if op == "request":
            return _execute(services, payload)
        if op == "snapshot":
            return snapshot_services(services)
        if op == "shutdown":
            for service in services.values():
                try:
                    service.close()
                except Exception:
                    pass
            return None
        raise ValueError(f"unknown worker op {op!r}")

    return handle


class ServeWorkerPool(WorkerPool):
    """N worker processes, each running the full per-route service stack.

    Args:
        factories: ``route name -> pipeline factory``.  Factories must
            be picklable (module-level callables or
            :func:`functools.partial` over picklable parts) and
            deterministic — they are what spawn-start and respawned
            workers rebuild from.
        n_workers: Worker process count (>= 1).
        prebuilt: The parent's already-built pipelines, keyed like
            ``factories``.  Under the ``fork`` start method these ride
            into workers copy-on-write, skipping the rebuild; ignored
            otherwise.
        service_kwargs: Keyword arguments for each worker's
            :class:`~repro.serve.service.TransformService` instances
            (``max_batch_rows``, ``max_queue``, cache settings, ...).

    Dispatch, respawn and shutdown are :class:`~repro.procs.WorkerPool`'s.
    """

    def __init__(
        self,
        factories: Mapping[str, PipelineFactory],
        n_workers: int,
        prebuilt: Mapping[str, DTTPipeline] | None = None,
        service_kwargs: dict | None = None,
    ) -> None:
        if not factories:
            raise ValueError("ServeWorkerPool requires at least one route")
        super().__init__(
            functools.partial(
                _serve_handler, dict(factories), dict(service_kwargs or {})
            ),
            n_workers,
            inherited=dict(prebuilt) if prebuilt else None,
            name="serve-worker",
        )
