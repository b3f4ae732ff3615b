"""Pre-fork worker processes hosting :class:`TransformService` replicas.

The single-process serving layer is one GIL-bound interpreter: however
well its micro-batching amortizes scheduling, decode and join compute
for concurrent requests ultimately serialize on one core.  This module
makes the tier **shared-nothing horizontal**: a
:class:`ServeWorkerPool` owns N worker *processes*, each running the
full per-route :class:`~repro.serve.service.TransformService` stack —
pipeline, micro-batching scheduler, result + join caches — and the
parent dispatches whole requests to the least-loaded live worker over
stdlib :mod:`multiprocessing` pipes.

**Fork-first startup.**  Worker start-method policy is shared with the
join engine's :class:`~repro.index.parallel.JoinWorkerPool` (see
:func:`~repro.index.parallel.pool_context`): when ``fork`` is available
and the parent is still single-threaded, workers inherit the parent's
**already-built pipelines copy-on-write** — model weights, tokenizer
tables, and any q-gram indexes the parent's process-level
:class:`~repro.index.cache.IndexCache` holds arrive without a byte of
serialization or a second build.  Otherwise (or when a crashed worker
is respawned into a now-threaded parent) workers start from a clean
interpreter and rebuild their pipelines from the picklable factories,
which are deterministic by construction — so either path produces
byte-identical services.

**Byte-equivalence.**  Results at any worker count are byte-identical
to the single-process path: each request executes inside exactly one
worker's ``TransformService`` (itself byte-identical to direct pipeline
calls, whatever coalescing happens around it), every worker's pipeline
is content-identical (same factory, or the same forked memory), and no
result ever depends on which worker served it.

**Crash containment.**  A worker that dies (OOM kill, segfault, bug)
fails only its in-flight requests — each gets a
:class:`~repro.exceptions.WorkerCrashedError`, surfaced by the HTTP
tier as a structured 503 — and the pool respawns a replacement before
dispatching new work.  The blast radius of a crash is one worker's
in-flight batch, never the service.

Wire protocol (parent -> worker): ``(request_id, op, payload)`` tuples
over a duplex pipe; replies are ``(request_id, ok, result_or_error,
spans)``.  Ops: ``"request"`` submits ``(route, kind, args, kwargs,
trace_ctx)`` to the route's ``submit_<kind>`` (``transform`` / ``join``);
``"snapshot"`` reads every route's registry (:func:`snapshot_services`,
the one source behind ``/v1/stats`` and ``/metrics``); ``"shutdown"``
drains and exits.

**Cross-process tracing.**  Request payloads carry the parent's sampled
:class:`~repro.obs.trace.SpanContext` (or ``None``) as their last
element; the worker opens a ``worker.execute`` span re-parented to it,
activates it around the service submit (so queue-wait / batch-execute /
engine / join spans all land under it), and ships every finished span
of the trace back in the reply's ``spans`` slot.  The parent ingests
them into its tracer *before* resolving the dispatch future, so by the
time the HTTP root span closes the whole tree — whichever worker ran it
— commits as one trace.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections.abc import Callable, Mapping
from concurrent.futures import Future
from typing import TYPE_CHECKING

from repro.core.pipeline import DTTPipeline
from repro.exceptions import ServiceClosedError, WorkerCrashedError
from repro.index.parallel import pool_context
from repro.obs.trace import Span, get_tracer

if TYPE_CHECKING:
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
    from repro.serve.cache import JoinResultCache, ResultCache
    from repro.serve.service import TransformService

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


def _worker_main(
    conn,
    pipelines: dict[str, DTTPipeline] | None,
    factories: dict[str, PipelineFactory],
    service_kwargs: dict,
) -> None:
    """One worker process: per-route services behind a reply loop.

    ``pipelines`` is non-``None`` only under the ``fork`` start method,
    where the parent's built pipelines ride in copy-on-write; fresh
    interpreters build from ``factories`` instead.  The request op submits
    to the route's service and replies from the future's done callback
    (on the service's scheduler thread), so one worker pipelines many
    concurrent requests through its own micro-batching — the parent
    never waits for one reply before sending the next request.
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
        pipeline.joiner.n_workers = 1
    services = {
        name: build_service(pipeline, service_kwargs)
        for name, pipeline in pipelines.items()
    }
    send_lock = threading.Lock()

    def reply(
        request_id: int,
        ok: bool,
        payload: object,
        spans: list[dict] | None = None,
    ) -> None:
        """Send one framed reply; a vanished parent is not an error."""
        try:
            with send_lock:
                conn.send((request_id, ok, payload, spans))
        except (BrokenPipeError, OSError):
            pass  # the parent is gone; nothing left to tell
        except Exception:
            # Unpicklable payload (a model bug carrying live state):
            # degrade to a picklable description, never a silent drop.
            reply(request_id, False, RuntimeError(repr(payload)))

    def reply_future(request_id: int, future: Future, span: object) -> None:
        """Relay a completed future — result or error.

        ``span`` is the request's ``worker.execute`` span: it finishes
        here (the service closed its own spans before resolving the
        future), and every finished span of the trace drains into the
        reply so the parent can re-assemble the tree.
        """
        error = future.exception()
        spans = None
        if isinstance(span, Span):
            if error is not None:
                span.set_error(repr(error))
            span.finish()
            spans = get_tracer().drain(span.trace_id)
        if error is None:
            reply(request_id, True, future.result(), spans)
        else:
            reply(request_id, False, error, spans)

    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break  # parent died; exit with it
            request_id, op, payload = message
            if op == "shutdown":
                reply(request_id, True, "bye")
                break
            try:
                if op == "request":
                    route, kind, args, kwargs, trace_ctx = payload
                    tracer = get_tracer()
                    span = tracer.start_span(
                        "worker.execute",
                        parent=trace_ctx,
                        attributes={
                            "route": route,
                            "op": kind,
                            "pid": os.getpid(),
                        },
                    )
                    submit = getattr(services[route], f"submit_{kind}")
                    with tracer.activate(span):
                        future = submit(*args, **kwargs)
                    future.add_done_callback(
                        lambda f, rid=request_id, s=span: reply_future(
                            rid, f, s
                        )
                    )
                elif op == "snapshot":
                    reply(request_id, True, snapshot_services(services))
                else:
                    raise ValueError(f"unknown worker op {op!r}")
            except Exception as error:  # submit-time failures
                reply(request_id, False, error)
    finally:
        for service in services.values():
            try:
                service.close()
            except Exception:
                pass
        conn.close()


class WorkerHandle:
    """The parent-side endpoint of one worker process.

    Owns the process, the pipe, the in-flight future table, and a
    reader thread that resolves futures as replies arrive.  A dead
    worker (EOF on the pipe, or the process exiting) fails every
    pending future with :class:`WorkerCrashedError`; the pool replaces
    the handle before dispatching new work.
    """

    def __init__(self, worker_id: int, process, conn) -> None:
        self.worker_id = worker_id
        self.process = process
        self._conn = conn
        self._pending: dict[int, Future] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._alive = True
        self._reader: threading.Thread | None = None

    def start_reader(self) -> None:
        """Start the reply-reader thread (after every fork happened).

        Split from construction so a pool creating several fork-start
        workers can start **all** processes before any parent thread
        exists — forking a threaded parent is the deadlock hazard
        :func:`~repro.index.parallel.pool_context` exists to avoid.
        """
        self._reader = threading.Thread(
            target=self._read_replies,
            name=f"serve-worker-{self.worker_id}-reader",
            daemon=True,
        )
        self._reader.start()

    @property
    def alive(self) -> bool:
        """Whether the worker can still accept work."""
        return self._alive and self.process.is_alive()

    @property
    def inflight(self) -> int:
        """Requests dispatched to this worker and not yet answered."""
        with self._lock:
            return len(self._pending)

    def submit(self, op: str, payload: object) -> Future:
        """Send one op to the worker; the future resolves on its reply."""
        future: Future = Future()
        future.set_running_or_notify_cancel()
        with self._lock:
            if not self._alive:
                future.set_exception(
                    WorkerCrashedError(
                        f"worker {self.worker_id} (pid "
                        f"{self.process.pid}) is dead"
                    )
                )
                return future
            request_id = next(self._ids)
            self._pending[request_id] = future
            try:
                self._conn.send((request_id, op, payload))
            except (BrokenPipeError, OSError):
                del self._pending[request_id]
                self._fail_pending_locked()
                future.set_exception(
                    WorkerCrashedError(
                        f"worker {self.worker_id} (pid "
                        f"{self.process.pid}) died mid-send"
                    )
                )
        return future

    def _read_replies(self) -> None:
        while True:
            try:
                request_id, ok, payload, spans = self._conn.recv()
            except (EOFError, OSError):
                break
            if spans:
                # Splice worker-side spans into the parent's tracer
                # BEFORE resolving the future: the HTTP handler closes
                # the root span right after the future resolves, and
                # the whole tree must be buffered by then.
                get_tracer().ingest(spans)
            with self._lock:
                future = self._pending.pop(request_id, None)
            if future is None:
                continue  # already failed by a crash marker
            if ok:
                future.set_result(payload)
            else:
                future.set_exception(payload)
        with self._lock:
            self._fail_pending_locked()

    def _fail_pending_locked(self) -> None:
        """Fail every in-flight future; caller holds ``self._lock``."""
        self._alive = False
        pending = list(self._pending.values())
        self._pending.clear()
        for future in pending:
            future.set_exception(
                WorkerCrashedError(
                    f"worker {self.worker_id} (pid {self.process.pid}) "
                    "died with this request in flight"
                )
            )

    def shutdown(self, timeout: float = 5.0) -> None:
        """Ask the worker to drain and exit; escalate to kill on stall."""
        if self.alive:
            try:
                self.submit("shutdown", None).result(timeout)
            except Exception:
                pass
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout)
        with self._lock:
            self._fail_pending_locked()
        try:
            self._conn.close()
        except OSError:
            pass


class ServeWorkerPool:
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
            (``max_wait_ms``, ``max_queue``, cache settings, ...).

    Dispatch is least-inflight among live workers; dead workers are
    respawned before new work is placed.  ``close()`` drains and stops
    every worker; the pool is unusable afterwards.
    """

    def __init__(
        self,
        factories: Mapping[str, PipelineFactory],
        n_workers: int,
        prebuilt: Mapping[str, DTTPipeline] | None = None,
        service_kwargs: dict | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if not factories:
            raise ValueError("ServeWorkerPool requires at least one route")
        self.factories = dict(factories)
        self.n_workers = n_workers
        self.service_kwargs = dict(service_kwargs or {})
        self._lock = threading.Lock()
        self._closed = False
        self.restarts = 0
        self._ids = itertools.count()
        context = pool_context()
        self._fork_started = context.get_start_method() == "fork"
        inherited = dict(prebuilt) if self._fork_started and prebuilt else None
        # Start every process before any reader thread exists: the
        # fork-safety decision above assumed a single-threaded parent.
        handles = [
            self._spawn(context, inherited) for _ in range(n_workers)
        ]
        for handle in handles:
            handle.start_reader()
        self._handles: list[WorkerHandle] = handles

    def _spawn(
        self,
        context,
        pipelines: dict[str, DTTPipeline] | None,
    ) -> WorkerHandle:
        """Start one worker process (reader not yet running)."""
        parent_conn, child_conn = context.Pipe(duplex=True)
        worker_id = next(self._ids)
        process = context.Process(
            target=_worker_main,
            args=(child_conn, pipelines, self.factories, self.service_kwargs),
            name=f"serve-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the worker holds its own end now
        return WorkerHandle(worker_id, process, parent_conn)

    def _respawn_locked(self, slot: int) -> WorkerHandle:
        """Replace a dead worker; caller holds ``self._lock``.

        Respawn always takes the spawn-safe path (the parent has reader
        threads by now, so ``fork`` is off the table) and rebuilds from
        the factories — another reason factories must be deterministic.
        """
        dead = self._handles[slot]
        try:
            dead.shutdown(timeout=0.5)
        except Exception:
            pass
        context = pool_context()
        handle = self._spawn(context, None)
        handle.start_reader()
        self._handles[slot] = handle
        self.restarts += 1
        return handle

    @property
    def workers(self) -> list[WorkerHandle]:
        """The live handle list (snapshot; slots may respawn)."""
        with self._lock:
            return list(self._handles)

    def submit(self, op: str, payload: object) -> Future:
        """Dispatch one request to the least-loaded live worker."""
        with self._lock:
            if self._closed:
                raise ServiceClosedError("worker pool is shut down")
            for slot, handle in enumerate(self._handles):
                if not handle.alive:
                    self._respawn_locked(slot)
            handle = min(self._handles, key=lambda h: h.inflight)
        return handle.submit(op, payload)

    def broadcast(self, op: str, timeout: float = 10.0) -> dict[int, object]:
        """Send a control op to every live worker; skip the unresponsive.

        Returns ``worker_id -> reply`` for the workers that answered
        within ``timeout``; a crashed or stalled worker is simply
        absent (callers report coverage, the pool's dispatch path
        handles respawning).
        """
        with self._lock:
            if self._closed:
                return {}
            handles = [h for h in self._handles if h.alive]
        futures = [(h.worker_id, h.submit(op, None)) for h in handles]
        replies: dict[int, object] = {}
        for worker_id, future in futures:
            try:
                replies[worker_id] = future.result(timeout)
            except Exception:
                continue
        return replies

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run; a closed pool rejects work."""
        return self._closed

    def close(self) -> None:
        """Drain and stop every worker; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._handles)
        for handle in handles:
            handle.shutdown()
