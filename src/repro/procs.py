"""Worker processes behind one pipe protocol: the repository's process pool.

One client runs on this module: the serving tier's worker processes
(:class:`~repro.serve.workers.ServeWorkerPool`).  A :class:`WorkerPool`
starts its N processes at construction and talks to each over a duplex
:mod:`multiprocessing` pipe; each process runs :func:`_worker_main`, a
reply loop around a **handler built in the child**.

**Handler.**  ``make_handler(inherited)`` runs once in each child and
returns ``handler(op, payload)``, which returns the reply value or a
:class:`~concurrent.futures.Future` of it (the loop replies from the
future's done callback, so one worker can hold many requests in
flight).  An exception the handler raises, or sets on its future,
travels back and is raised by the parent's future.  When the loop stops
— a ``"shutdown"`` op, or the parent gone — it calls
``handler("shutdown", None)`` once so the handler can release what it
holds.

Wire protocol (parent -> worker): ``(request_id, op, payload)`` tuples;
replies are ``(request_id, ok, value_or_error)``.

**Fork-first startup.**  :func:`pool_context` picks ``fork`` while the
parent is single-threaded, and every process starts before the pool's
first reader thread exists, so no fork ever happens late.  Fork-started
children receive ``inherited`` — the parent's built state (the
pipelines) — copy-on-write; fresh-start children receive ``None``
and build their own from the handler's picklable arguments.

**Crash containment.**  A worker that dies (OOM kill, signal, bug)
fails only its in-flight futures, each with
:class:`~repro.exceptions.WorkerCrashedError`, and :meth:`WorkerPool.submit`
respawns it (spawn-safe, with ``inherited=None``) before placing new
work.
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
import weakref
from collections.abc import Callable
from concurrent.futures import Future

from repro.exceptions import ServiceClosedError, WorkerCrashedError

#: ``handler(op, payload) -> value | Future``, built in the child.
Handler = Callable[[str, object], object]


def pool_context() -> multiprocessing.context.BaseContext:
    """Pick a start method: ``fork`` when it is safe, else a fresh start.

    ``fork`` is preferred — cheap startup, and the parent's built state
    (index caches, model weights) arrives copy-on-write — but forking a
    multi-threaded process is a deadlock hazard: any lock held by
    another thread at fork time (the index cache's own lock included)
    stays held forever in the child.  With other threads alive (the
    serving layer's scheduler, a caller's thread pool, a pool's own
    reader threads at respawn), fall back to ``forkserver``/``spawn``,
    which start workers from a clean interpreter.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods and threading.active_count() == 1:
        return multiprocessing.get_context("fork")
    if "forkserver" in methods:
        return multiprocessing.get_context("forkserver")
    return multiprocessing.get_context("spawn")


def _worker_main(
    conn,
    make_handler: Callable[[object], Handler],
    inherited: object,
) -> None:
    """One worker process: the handler behind a reply loop."""
    handler = make_handler(inherited)
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

    def reply_future(request_id: int, future: Future) -> None:
        error = future.exception()
        if error is None:
            reply(request_id, True, future.result())
        else:
            reply(request_id, False, error)

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
                result = handler(op, payload)
            except Exception as error:
                reply(request_id, False, error)
                continue
            if isinstance(result, Future):
                result.add_done_callback(
                    lambda f, rid=request_id: reply_future(rid, f)
                )
            else:
                reply(request_id, True, result)
    finally:
        try:
            handler("shutdown", None)
        finally:
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


class WorkerPool:
    """N worker processes, each running ``make_handler(inherited)``.

    Args:
        make_handler: Picklable callable run once in each child; it
            returns the child's :data:`Handler`.  Fresh-start and
            respawned children call it with ``None``, so it must be
            able to build everything from its own arguments.
        n_workers: Worker process count (>= 1).
        inherited: The parent's built state, handed to fork-started
            children copy-on-write (never pickled); ignored otherwise.
        name: Process-name prefix (``<name>-<id>``).

    Dispatch is least-inflight among live workers; dead workers are
    respawned before new work is placed.  ``close()`` drains and stops
    every worker, and so does garbage collection of an unclosed pool.
    """

    def __init__(
        self,
        make_handler: Callable[[object], Handler],
        n_workers: int,
        inherited: object = None,
        name: str = "worker",
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self.restarts = 0
        self._make_handler = make_handler
        self._name = name
        self._lock = threading.Lock()
        self._ids = itertools.count()
        context = pool_context()
        if context.get_start_method() != "fork":
            inherited = None
        # Start every process before any reader thread exists: the
        # fork decision above assumed a single-threaded parent.
        self._handles = [
            self._spawn(context, inherited) for _ in range(n_workers)
        ]
        for handle in self._handles:
            handle.start_reader()
        # Holds the handle list, not the pool, so an unclosed pool that
        # is garbage-collected still stops its workers.
        self._finalizer = weakref.finalize(self, _shutdown_all, self._handles)

    def _spawn(self, context, inherited: object) -> WorkerHandle:
        """Start one worker process (reader not yet running)."""
        parent_conn, child_conn = context.Pipe(duplex=True)
        worker_id = next(self._ids)
        process = context.Process(
            target=_worker_main,
            args=(child_conn, self._make_handler, inherited),
            name=f"{self._name}-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the worker holds its own end now
        return WorkerHandle(worker_id, process, parent_conn)

    def _respawn_locked(self, slot: int) -> None:
        """Replace a dead worker; caller holds ``self._lock``.

        The parent has reader threads by now, so :func:`pool_context`
        never picks ``fork`` here, and the child builds its state from
        ``make_handler``'s arguments alone.
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
