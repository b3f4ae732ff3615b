"""Serving-tier worker processes: the repository's one process pool.

The single-process serving layer is one GIL-bound interpreter: its
micro-batching coalesces concurrent requests, but their compute still
serializes on one core.  A :class:`ServeWorkerPool` makes the tier
**shared-nothing horizontal**: each of its N worker *processes* runs
:func:`_worker_main`, which builds every route's
:class:`~repro.serve.service.TransformService` (pipeline, scheduler,
result + join caches) and answers over a duplex :mod:`multiprocessing`
pipe.  Each request runs inside exactly one byte-equivalent service, so
results at any worker count are byte-identical to the in-process path.

Wire protocol (parent -> worker): ``(request_id, op, payload)``; replies
are ``(request_id, ok, value_or_error)``.  ``"request"`` submits
``(route, kind, args, kwargs, trace_ctx)`` to the route's
``submit_<kind>`` and replies ``(ok, result_or_error, spans)`` from the
service future's done callback, so one worker holds many requests in
flight; ``"snapshot"`` reads every route's registry
(:func:`snapshot_services`, behind ``/v1/stats`` and ``/metrics``);
``"shutdown"`` closes the services and ends the loop.

Every worker starts at pool construction, **fork-first**
(:func:`pool_context`): forked workers inherit the parent's built
pipelines copy-on-write, fresh-start and respawned ones rebuild them
from the picklable, deterministic factories.  A worker that dies fails
only its in-flight requests, with
:class:`~repro.exceptions.WorkerCrashedError` (HTTP 503), and is
respawned before new work is placed.

**Cross-process tracing.**  The worker opens a ``worker.execute`` span
under the parent's sampled :class:`~repro.obs.trace.SpanContext`,
activates it around the service submit (so queue-wait / batch /
engine / join spans land under it), and ships the trace's finished
spans back in the reply; the router ingests them before the HTTP root
span closes, so the whole tree commits as one trace.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
import os
import threading
import weakref
from collections.abc import Callable, Mapping
from concurrent.futures import Future

from repro.core.pipeline import DTTPipeline
from repro.exceptions import ServiceClosedError, WorkerCrashedError
from repro.obs.trace import Span, get_tracer
from repro.serve.service import TransformService

#: Zero-argument, picklable constructor of one route's pipeline.  Must
#: be deterministic: every call (in any process) builds a pipeline with
#: the same fingerprint, or byte-equivalence across workers is void.
PipelineFactory = Callable[[], DTTPipeline]


def pool_context() -> multiprocessing.context.BaseContext:
    """Pick a start method: ``fork`` when it is safe, else a fresh start.

    ``fork`` is preferred — cheap startup, and the parent's built state
    (index caches, model weights) arrives copy-on-write — but forking a
    multi-threaded process is a deadlock hazard: any lock held by
    another thread at fork time (the index cache's own lock included)
    stays held forever in the child.  With other threads alive (a
    service's scheduler, a caller's thread pool, the pool's own reader
    threads at respawn), fall back to ``forkserver``/``spawn``, which
    start workers from a clean interpreter.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods and threading.active_count() == 1:
        return multiprocessing.get_context("fork")
    if "forkserver" in methods:
        return multiprocessing.get_context("forkserver")
    return multiprocessing.get_context("spawn")


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


def _execute(
    services: Mapping[str, TransformService],
    payload,
    respond: Callable[[tuple], None],
) -> None:
    """Submit one request under a ``worker.execute`` span.

    ``respond`` receives ``(ok, result_or_error, spans)`` once the
    service's future resolves: the span finishes then (the service
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

    def finish(done: Future) -> None:
        error = done.exception()
        spans = None
        if isinstance(span, Span):
            if error is not None:
                span.set_error(repr(error))
            span.finish()
            spans = tracer.drain(span.trace_id)
        if error is None:
            respond((True, done.result(), spans))
        else:
            respond((False, error, spans))

    future.add_done_callback(finish)


def _worker_main(
    conn,
    factories: Mapping[str, PipelineFactory],
    service_kwargs: dict,
    pipelines: dict[str, DTTPipeline] | None,
) -> None:
    """One worker process: every route's service behind a reply loop.

    ``pipelines`` is the parent's built set under the ``fork`` start
    method (copy-on-write); fresh interpreters build from ``factories``
    instead.
    """
    # Under fork, this child inherits the parent tracer's RNG state;
    # without a reseed its span ids would be identical to the parent's
    # next draws, colliding with the request ids they parent under.
    get_tracer().reseed()
    if pipelines is None:
        pipelines = {name: factory() for name, factory in factories.items()}
    services = {
        name: TransformService(pipeline, **service_kwargs)
        for name, pipeline in pipelines.items()
    }
    send_lock = threading.Lock()

    def reply(request_id: int, ok: bool, value: object) -> None:
        """Send one framed reply; a vanished parent is not an error."""
        try:
            with send_lock:
                conn.send((request_id, ok, value))
        except (BrokenPipeError, OSError):
            pass  # the parent is gone; nothing left to tell
        except Exception:
            # Unpicklable value (a bug carrying live state): degrade to
            # a picklable description, never a silent drop.
            reply(request_id, False, RuntimeError(repr(value)))

    try:
        while True:
            try:
                request_id, op, payload = conn.recv()
            except (EOFError, OSError):
                break  # parent died; exit with it
            if op == "shutdown":
                reply(request_id, True, "bye")
                break
            try:
                if op == "request":
                    respond = functools.partial(reply, request_id, True)
                    _execute(services, payload, respond)
                elif op == "snapshot":
                    reply(request_id, True, snapshot_services(services))
                else:
                    raise ValueError(f"unknown worker op {op!r}")
            except Exception as error:
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

    def start_reader(self) -> None:
        """Start the reply-reader thread (after every fork happened)."""
        threading.Thread(
            target=self._read_replies,
            name=f"{self.process.name}-reader",
            daemon=True,
        ).start()

    @property
    def alive(self) -> bool:
        """Whether the worker can still accept work."""
        return self._alive and self.process.is_alive()

    @property
    def inflight(self) -> int:
        """Requests dispatched to this worker and not yet answered."""
        with self._lock:
            return len(self._pending)

    def _crashed(self, detail: str) -> WorkerCrashedError:
        return WorkerCrashedError(
            f"worker {self.worker_id} (pid {self.process.pid}) {detail}"
        )

    def submit(self, op: str, payload: object) -> Future:
        """Send one op to the worker; the future resolves on its reply."""
        future: Future = Future()
        future.set_running_or_notify_cancel()
        with self._lock:
            if not self._alive:
                future.set_exception(self._crashed("is dead"))
                return future
            request_id = next(self._ids)
            self._pending[request_id] = future
            try:
                self._conn.send((request_id, op, payload))
            except (BrokenPipeError, OSError):
                del self._pending[request_id]
                self._fail_pending_locked()
                future.set_exception(self._crashed("died mid-send"))
        return future

    def _read_replies(self) -> None:
        while True:
            try:
                request_id, ok, value = self._conn.recv()
            except (EOFError, OSError):
                break
            with self._lock:
                future = self._pending.pop(request_id, None)
            if future is None:
                continue  # already failed by a crash marker
            if ok:
                future.set_result(value)
            else:
                future.set_exception(value)
        # The reader owns closing the pipe: closing it under a blocked
        # recv() would crash this thread instead of ending it.
        with self._lock:
            self._fail_pending_locked()
            self._conn.close()

    def _fail_pending_locked(self) -> None:
        """Fail every in-flight future; caller holds ``self._lock``."""
        self._alive = False
        pending = list(self._pending.values())
        self._pending.clear()
        for future in pending:
            future.set_exception(
                self._crashed("died with this request in flight")
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


def _shutdown_all(handles: list[WorkerHandle]) -> None:
    for handle in handles:
        handle.shutdown()


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
        service_kwargs: Picklable keyword arguments for each worker's
            :class:`~repro.serve.service.TransformService` instances
            (``max_batch_rows``, ``max_queue``, ``cache_kwargs``, ...).

    Dispatch is least-inflight among live workers; dead workers are
    respawned before new work is placed.  ``close()`` drains and stops
    every worker, and so does garbage collection of an unclosed pool.
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
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self.restarts = 0
        self._factories = dict(factories)
        self._service_kwargs = dict(service_kwargs or {})
        self._lock = threading.Lock()
        self._ids = itertools.count()
        context = pool_context()
        pipelines = None
        if prebuilt and context.get_start_method() == "fork":
            pipelines = dict(prebuilt)
        # Start every process before any reader thread exists: the
        # fork decision above assumed a single-threaded parent.
        self._handles = [
            self._spawn(context, pipelines) for _ in range(n_workers)
        ]
        for handle in self._handles:
            handle.start_reader()
        # Holds the handle list, not the pool, so an unclosed pool that
        # is garbage-collected still stops its workers.
        self._finalizer = weakref.finalize(self, _shutdown_all, self._handles)

    def _spawn(self, context, pipelines) -> WorkerHandle:
        """Start one worker process (reader not yet running)."""
        parent_conn, child_conn = context.Pipe(duplex=True)
        worker_id = next(self._ids)
        process = context.Process(
            target=_worker_main,
            args=(child_conn, self._factories, self._service_kwargs, pipelines),
            name=f"serve-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the worker holds its own end now
        return WorkerHandle(worker_id, process, parent_conn)

    def _respawn_locked(self, slot: int) -> None:
        """Replace a dead worker; caller holds ``self._lock``.

        The parent has reader threads by now, so :func:`pool_context`
        never picks ``fork`` here, and the child rebuilds its pipelines
        from the factories.
        """
        self._handles[slot].shutdown(timeout=0.5)
        handle = self._spawn(pool_context(), None)
        handle.start_reader()
        self._handles[slot] = handle
        self.restarts += 1

    @property
    def workers(self) -> list[WorkerHandle]:
        """The live handle list (snapshot; slots may respawn)."""
        with self._lock:
            return list(self._handles)

    def submit(self, op: str, payload: object) -> Future:
        """Dispatch one op to the least-loaded live worker."""
        with self._lock:
            if self.closed:
                raise ServiceClosedError("worker pool is shut down")
            for slot, handle in enumerate(self._handles):
                if not handle.alive:
                    self._respawn_locked(slot)
            handle = min(self._handles, key=lambda h: h.inflight)
        return handle.submit(op, payload)

    def broadcast(self, op: str, timeout: float = 10.0) -> dict[int, object]:
        """Send ``op`` to every live worker; skip the unresponsive.

        Returns ``worker_id -> reply`` for the workers that answered
        within ``timeout``; a crashed or stalled worker is simply
        absent (callers report coverage, :meth:`submit` respawns).
        """
        with self._lock:
            if self.closed:
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
        return not self._finalizer.alive

    def close(self) -> None:
        """Drain and stop every worker; idempotent."""
        self._finalizer()
