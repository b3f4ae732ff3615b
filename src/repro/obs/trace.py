"""Zero-dependency structured request tracing for the serving tier.

A **trace** is the tree of timed spans one request produces as it
crosses the serving stack: the HTTP layer opens a *root span* per
request, the :class:`~repro.serve.service.TransformService` scheduler
adds queue-wait and batch-execute children,
:func:`repro.infer.engine.generate` adds one decode span per job, and
the Eq. 5 join layer adds index-build / candidate-filter / kernel-sweep
spans tagged with its :class:`~repro.index.joiner.JoinStats`
counters.  Serve worker processes serialize their span context over the
dispatch pipe and ship finished spans back with each reply, so a trace
fans back in with correct parentage whichever worker served it.

Three design constraints shape everything here:

* **Unmeasurable when off.**  Sampling is *head-based*: the root span
  decides once, at request start, whether this trace records.  An
  unsampled trace creates exactly one lightweight :class:`Span` (the
  root, so ``X-Repro-Trace-Id`` and log correlation still work) and
  every child-span call short-circuits to the shared :data:`NULL_SPAN`
  — no allocation, no clock reads, no lock traffic on the request
  path.  The repo benchmark's ``obs.tracing_overhead_share`` row
  (``serve_join``) measures what sampling costs when it is on.
* **Errors always surface.**  Whatever the sample rate, a trace whose
  root finishes with ``status="error"`` (5xx responses, deadline
  breaches, worker crashes) is committed to the collector — root-only
  when the trace was unsampled, with full children when it was.
* **Process-agnostic.**  A :class:`SpanContext` is a tiny frozen
  dataclass that pickles across the worker pipe; remote children carry
  the originating trace/span ids, so the parent's collector can splice
  worker-side spans into the right tree.  Span ``start`` times are
  per-process monotonic clocks (only durations are comparable across
  processes); ``wall_start`` is stamped for cross-process ordering.

The module owns a process-global :class:`Tracer` (``get_tracer()``),
configured by the serving CLI's ``--trace-sample-rate`` via
:func:`configure_tracing`.  Nothing here imports anything outside the
standard library.
"""

from __future__ import annotations

import contextlib
import random
import threading
import time
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass

#: Wire version of the ``/debug/traces`` payload.
TRACE_SCHEMA_VERSION = 1

#: Default collector capacity (recent traces kept) and slowest-set size.
DEFAULT_CAPACITY = 256
DEFAULT_SLOWEST = 32

#: Open traces the tracer will buffer spans for before dropping the
#: oldest — a leak guard for traces whose root never finishes (a worker
#: whose parent died mid-request, a crashed handler thread).
_MAX_PENDING_TRACES = 512


@dataclass(frozen=True)
class SpanContext:
    """The picklable identity of a span: what crosses threads and pipes.

    Attributes:
        trace_id: Id shared by every span of one request's trace.
        span_id: This span's own id (children cite it as ``parent_id``).
        sampled: The head-based sampling decision, made once at the
            root; remote children honour it without re-rolling.
    """

    trace_id: str
    span_id: str
    sampled: bool


class Span:
    """One timed, attributed node of a trace tree.

    Spans are created through a :class:`Tracer` (never directly), carry
    monotonic ``start``/``duration_s`` plus a wall-clock ``wall_start``
    for cross-process ordering, and report themselves to their tracer
    exactly once on :meth:`finish`.  All methods are safe to call on
    the no-op :data:`NULL_SPAN` too, so instrumentation sites never
    need a conditional.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "sampled",
        "start",
        "wall_start",
        "duration_s",
        "status",
        "attributes",
        "_tracer",
        "_finished",
    )

    def __init__(
        self,
        tracer: Tracer,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        sampled: bool,
        attributes: dict | None = None,
        start: float | None = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.sampled = sampled
        self.start = time.monotonic() if start is None else start
        self.wall_start = time.time()
        self.duration_s: float | None = None
        self.status = "ok"
        self.attributes: dict = dict(attributes) if attributes else {}
        self._tracer = tracer
        self._finished = False

    @property
    def context(self) -> SpanContext:
        """This span's picklable identity (for pipes and threads)."""
        return SpanContext(self.trace_id, self.span_id, self.sampled)

    def set_attribute(self, key: str, value: object) -> None:
        """Attach one typed attribute (JSON-friendly values only)."""
        self.attributes[key] = value

    def set_attributes(self, attributes: dict) -> None:
        """Attach several attributes at once."""
        self.attributes.update(attributes)

    def set_error(self, detail: str = "") -> None:
        """Mark the span failed; error traces are always collected."""
        self.status = "error"
        if detail:
            self.attributes["error_detail"] = detail

    def finish(
        self, status: str | None = None, end: float | None = None
    ) -> None:
        """Close the span (idempotent) and report it to the tracer."""
        if self._finished:
            return
        self._finished = True
        if status is not None:
            self.status = status
        self.duration_s = (
            time.monotonic() if end is None else end
        ) - self.start
        self._tracer._on_finish(self)

    def to_dict(self) -> dict:
        """JSON-friendly form (what crosses the worker pipe)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "wall_start": self.wall_start,
            "duration_s": self.duration_s,
            "status": self.status,
            "attributes": self.attributes,
        }


class _NullSpan:
    """The shared no-op span: every method returns immediately.

    Handed out for children of unsampled (or absent) parents, so
    instrumentation sites call the same API whatever the sampling
    decision — the cost of tracing-off is one identity check.
    """

    __slots__ = ()

    name = ""
    trace_id = ""
    span_id = ""
    parent_id = None
    sampled = False
    status = "ok"
    duration_s = None

    @property
    def context(self) -> SpanContext | None:
        """No identity: a null span cannot parent anything."""
        return None

    def set_attribute(self, key: str, value: object) -> None:
        """No-op."""

    def set_attributes(self, attributes: dict) -> None:
        """No-op."""

    def set_error(self, detail: str = "") -> None:
        """No-op."""

    def finish(
        self, status: str | None = None, end: float | None = None
    ) -> None:
        """No-op."""


#: The singleton no-op span (identity-comparable: ``span is NULL_SPAN``).
NULL_SPAN = _NullSpan()

_CURRENT_SPAN: ContextVar[Span | None] = ContextVar(
    "repro_current_span", default=None
)


def current_context() -> SpanContext | None:
    """The active *sampled* span's context, or ``None``.

    The propagation helper request paths use: it returns ``None`` both
    when no trace is active and when the active trace is unsampled, so
    callers can store the result and skip all downstream tracing work
    on a single ``is None`` check.
    """
    span = _CURRENT_SPAN.get()
    if span is None or not span.sampled:
        return None
    return span.context


class TraceCollector:
    """A thread-safe bounded store of finished traces.

    Keeps two views: a ring of the most recent traces (``capacity``)
    and the slowest-N by root duration since process start — the pair
    the ``/debug/traces`` endpoint serves.  Adding is O(capacity) worst
    case (slowest-list insertion) under one lock; the serving tier only
    pays it for sampled or errored traces.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        slowest: int = DEFAULT_SLOWEST,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if slowest < 0:
            raise ValueError(f"slowest must be >= 0, got {slowest}")
        self.capacity = capacity
        self.max_slowest = slowest
        self._recent: deque[dict] = deque(maxlen=capacity)
        self._slowest: list[dict] = []
        self._lock = threading.Lock()
        self.collected = 0

    def add(self, trace: dict) -> None:
        """Record one finished trace (see :meth:`Tracer._commit`)."""
        with self._lock:
            self.collected += 1
            self._recent.append(trace)
            if self.max_slowest:
                self._slowest.append(trace)
                self._slowest.sort(
                    key=lambda t: t.get("duration_s") or 0.0, reverse=True
                )
                del self._slowest[self.max_slowest :]

    def snapshot(self, limit: int | None = None) -> dict:
        """The ``/debug/traces`` body: recent + slowest, newest first."""
        with self._lock:
            recent = list(self._recent)
            slowest = list(self._slowest)
            collected = self.collected
        recent.reverse()
        if limit is not None:
            recent = recent[:limit]
            slowest = slowest[:limit]
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "collected": collected,
            "recent": recent,
            "slowest": slowest,
        }

    def clear(self) -> None:
        """Drop every stored trace (tests and bench isolation)."""
        with self._lock:
            self._recent.clear()
            self._slowest.clear()
            self.collected = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._recent)


class Tracer:
    """Creates spans, buffers them per trace, commits finished traces.

    Args:
        collector: Destination for finished traces; ``None`` builds a
            default :class:`TraceCollector`.
        sample_rate: Head-based sampling probability in ``[0, 1]``.
            ``0.0`` (the default) records nothing except errored
            traces' roots; ``1.0`` records every trace.
        rng: Sampling source (injectable for tests).

    Finished spans buffer in a per-trace pending table; when a trace's
    *root* finishes, the whole tree commits to the collector iff the
    trace was sampled or the root errored.  Worker processes — whose
    roots live in the parent — instead :meth:`drain` their finished
    spans into each reply, and the parent :meth:`ingest`\\ s them back
    into the still-open trace.
    """

    def __init__(
        self,
        collector: TraceCollector | None = None,
        sample_rate: float = 0.0,
        rng: random.Random | None = None,
    ) -> None:
        self.collector = (
            collector if collector is not None else TraceCollector()
        )
        self.sample_rate = float(sample_rate)
        self._rng = rng if rng is not None else random.Random()
        self._lock = threading.Lock()
        # trace_id -> finished span dicts, insertion-ordered so the
        # oldest open trace is the one evicted by the leak guard.
        self._pending: dict[str, list[dict]] = {}

    # -- span creation -----------------------------------------------------

    def _new_id(self) -> str:
        return f"{self._rng.getrandbits(64):016x}"

    def reseed(self) -> None:
        """Re-seed the id generator from OS entropy.

        Must be called in a child process after ``fork``: the child
        inherits this RNG's state, so without reseeding its first id
        draws are *identical* to the parent's next draws — worker span
        ids would collide with the very request ids they parent under,
        corrupting every assembled tree.
        """
        self._rng.seed()

    def start_trace(
        self,
        name: str,
        attributes: dict | None = None,
        force_sample: bool | None = None,
    ) -> Span:
        """Open a new trace's root span (always a real :class:`Span`).

        The head-based sampling decision happens here and nowhere else:
        ``force_sample`` overrides the rate (tests, the bench's traced
        replay), otherwise the trace samples with probability
        ``sample_rate``.  Unsampled roots stay cheap — children will be
        :data:`NULL_SPAN` — but still exist, so every response can
        carry a trace id and an errored request can still commit.
        """
        if force_sample is not None:
            sampled = force_sample
        elif self.sample_rate >= 1.0:
            sampled = True
        elif self.sample_rate <= 0.0:
            sampled = False
        else:
            sampled = self._rng.random() < self.sample_rate
        return Span(
            self,
            name,
            trace_id=self._new_id(),
            span_id=self._new_id(),
            parent_id=None,
            sampled=sampled,
            attributes=attributes,
        )

    def start_span(
        self,
        name: str,
        parent: Span | SpanContext | None = None,
        attributes: dict | None = None,
    ) -> Span | _NullSpan:
        """Open a child span under ``parent`` (default: current span).

        Returns :data:`NULL_SPAN` when there is no parent or the parent
        is unsampled — the zero-cost path every instrumentation site
        takes while tracing is off.
        """
        if parent is None:
            parent = _CURRENT_SPAN.get()
        if parent is None or not parent.sampled:
            return NULL_SPAN
        return Span(
            self,
            name,
            trace_id=parent.trace_id,
            span_id=self._new_id(),
            parent_id=parent.span_id,
            sampled=True,
            attributes=attributes,
        )

    def record_span(
        self,
        name: str,
        parent: Span | SpanContext | None,
        start: float,
        end: float,
        attributes: dict | None = None,
        status: str = "ok",
    ) -> None:
        """Record a span retroactively from explicit monotonic times.

        For phases whose boundaries are only known after the fact —
        queue wait is measured when the batch starts, not while the
        request sits in the queue.  No-op without a sampled parent.
        """
        if parent is None or not parent.sampled:
            return
        span = Span(
            self,
            name,
            trace_id=parent.trace_id,
            span_id=self._new_id(),
            parent_id=parent.span_id,
            sampled=True,
            attributes=attributes,
            start=start,
        )
        span.finish(status=status, end=end)

    @contextlib.contextmanager
    def activate(self, span: Span | _NullSpan):
        """Make ``span`` the context's current span for the ``with`` body.

        Only real spans are installed; activating :data:`NULL_SPAN`
        leaves the context untouched (so nested instrumentation keeps
        short-circuiting on the unsampled path).
        """
        if not isinstance(span, Span):
            yield span
            return
        token = _CURRENT_SPAN.set(span)
        try:
            yield span
        finally:
            _CURRENT_SPAN.reset(token)

    @contextlib.contextmanager
    def span(
        self,
        name: str,
        parent: Span | SpanContext | None = None,
        attributes: dict | None = None,
    ):
        """``start_span`` + ``activate`` + ``finish`` in one context.

        Exceptions mark the span errored and re-raise.
        """
        child = self.start_span(name, parent=parent, attributes=attributes)
        try:
            with self.activate(child):
                yield child
        except BaseException as error:
            child.set_error(repr(error))
            child.finish()
            raise
        else:
            child.finish()

    # -- trace assembly ----------------------------------------------------

    def _on_finish(self, span: Span) -> None:
        """Buffer a finished span; commit the trace when its root closes."""
        record = span.to_dict()
        is_root = span.parent_id is None
        with self._lock:
            spans = self._pending.setdefault(span.trace_id, [])
            if not is_root:
                # Only sampled spans buffer (unsampled children are
                # NULL_SPAN and never reach here), so the guard below
                # is about errored-unsampled roots, not children.
                if span.sampled:
                    spans.append(record)
                while len(self._pending) > _MAX_PENDING_TRACES:
                    self._pending.pop(next(iter(self._pending)))
                return
            children = self._pending.pop(span.trace_id, [])
        if span.sampled or span.status == "error":
            self._commit(record, children, span.sampled)

    def _commit(
        self, root: dict, children: list[dict], sampled: bool
    ) -> None:
        trace = {
            "trace_id": root["trace_id"],
            "name": root["name"],
            "status": root["status"],
            "duration_s": root["duration_s"],
            "wall_start": root["wall_start"],
            "sampled": sampled,
            "spans": [root, *children],
        }
        self.collector.add(trace)

    def drain(self, trace_id: str) -> list[dict]:
        """Remove and return the finished spans buffered for one trace.

        The worker-side half of cross-process tracing: the root lives
        in the parent, so the worker drains its finished spans into the
        reply instead of waiting for a root that will never close here.
        """
        with self._lock:
            return self._pending.pop(trace_id, [])

    def ingest(self, spans: list[dict]) -> None:
        """Splice remote finished spans into their still-open traces.

        The parent-side half: spans shipped back in worker replies are
        buffered under their original trace ids, so when the root
        finishes (the HTTP handler responds) they commit as one tree.
        """
        if not spans:
            return
        with self._lock:
            for record in spans:
                self._pending.setdefault(record["trace_id"], []).append(
                    record
                )
            while len(self._pending) > _MAX_PENDING_TRACES:
                self._pending.pop(next(iter(self._pending)))


_GLOBAL_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer every subsystem records through."""
    return _GLOBAL_TRACER


def configure_tracing(
    sample_rate: float | None = None,
    capacity: int | None = None,
    slowest: int | None = None,
) -> Tracer:
    """Reconfigure the global tracer in place; returns it.

    ``capacity``/``slowest`` rebuild the collector (dropping stored
    traces); ``sample_rate`` takes effect for the next root span.  The
    serving CLI calls this once at startup from
    ``--trace-sample-rate``; tests call it around each case.
    """
    tracer = _GLOBAL_TRACER
    if sample_rate is not None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {sample_rate}"
            )
        tracer.sample_rate = float(sample_rate)
    if capacity is not None or slowest is not None:
        tracer.collector = TraceCollector(
            capacity=capacity if capacity is not None else DEFAULT_CAPACITY,
            slowest=slowest if slowest is not None else DEFAULT_SLOWEST,
        )
    return tracer
