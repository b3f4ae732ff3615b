"""An honest HTTP load generator: open-loop Poisson, then closed loop.

* **Open loop** — arrivals follow a Poisson schedule fixed before the
  phase starts (``workloads.arrival_offsets``).  A request's latency runs from its *due*
  time, not from when a client thread got round to sending it, so a
  stall that delays later requests is charged to them (no coordinated
  omission).  How late the generator itself ran is reported as
  ``generator_late_ms``.
* **Closed loop** — each client sends its next request the moment the
  previous reply arrives: the saturation throughput at ``C`` clients.

Bodies are encoded before the clock starts, every client thread keeps
one persistent ``http.client`` connection (as real clients do; the
server's split header/body writes then cost what they cost), and the
whole generator is one process: ``C = min(nproc, 4)`` threads in the
closed loop, ``2C`` in the open loop.
"""

from __future__ import annotations

import http.client
import math
import os
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from workloads import Request

#: Per-request socket timeout; a reply slower than this is a failure.
REQUEST_TIMEOUT_S = 20.0


def n_clients() -> int:
    """``C = min(nproc, 4)`` client threads."""
    try:
        cores = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cores = os.cpu_count() or 1
    return max(1, min(cores, 4))


@dataclass
class Sample:
    """One request's outcome, as the client saw it."""

    index: int
    status: int | None  # None = transport failure / timeout
    latency_s: float  # open loop: from due time; closed loop: from send
    late_s: float  # actual send - due (0 in the closed loop)
    service_s: float  # from actual send to last body byte
    done_at: float  # monotonic time of the last body byte
    body: bytes
    trace_id: str | None
    error: str = ""

    @property
    def refused(self) -> bool:
        return self.status == 429

    @property
    def ok(self) -> bool:
        return self.status == 200


@dataclass
class PhaseResult:
    """Everything one phase produced."""

    name: str
    duration_s: float
    samples: list[Sample] = field(default_factory=list)

    @property
    def sent(self) -> int:
        return len(self.samples)

    @property
    def succeeded(self) -> int:
        return sum(1 for s in self.samples if s.ok)

    @property
    def refused(self) -> int:
        return sum(1 for s in self.samples if s.refused)

    @property
    def failed(self) -> int:
        return self.sent - self.succeeded - self.refused

    def counts(self) -> dict:
        return {
            "sent": self.sent,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "refused": self.refused,
        }


class _Client:
    """One keep-alive connection; reconnects only after a transport error."""

    def __init__(self, host: str, port: int) -> None:
        self._address = (host, port)
        self._conn: http.client.HTTPConnection | None = None

    def send(self, request: Request) -> tuple[int | None, bytes, str | None, str]:
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    *self._address, timeout=REQUEST_TIMEOUT_S
                )
            self._conn.request(
                "POST",
                request.path,
                body=request.body,
                headers={"Content-Type": "application/json"},
            )
            response = self._conn.getresponse()
            body = response.read()
            return (
                response.status,
                body,
                response.getheader("X-Repro-Trace-Id"),
                "",
            )
        except (OSError, http.client.HTTPException) as error:
            self.close()
            return None, b"", None, repr(error)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _run_clients(host: str, port: int, work, n_threads: int) -> None:
    """Run ``work(client)`` on ``n_threads``, each with its own connection."""
    errors: list[BaseException] = []

    def body() -> None:
        client = _Client(host, port)
        try:
            work(client)
        except BaseException as error:  # surfaced to the caller below
            errors.append(error)
        finally:
            client.close()

    threads = [
        threading.Thread(target=body, name=f"loadgen-{i}", daemon=True)
        for i in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def run_open_loop(
    host: str,
    port: int,
    requests: Sequence[Request],
    offsets: Sequence[float],
    name: str = "open",
) -> PhaseResult:
    """Send ``requests[i]`` at ``offsets[i]``; time each from its due time."""
    if len(requests) != len(offsets):
        raise ValueError("one offset per request")
    samples: list[Sample | None] = [None] * len(requests)
    cursor = iter(range(len(requests)))
    cursor_lock = threading.Lock()
    started = time.monotonic() + 0.05  # let every thread reach its wait

    def work(client: _Client) -> None:
        while True:
            with cursor_lock:
                i = next(cursor, None)
            if i is None:
                return
            due = started + offsets[i]
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            sent = time.monotonic()
            status, body, trace_id, error = client.send(requests[i])
            done = time.monotonic()
            samples[i] = Sample(
                requests[i].index, status, done - due, sent - due,
                done - sent, done, body, trace_id, error,
            )

    # Twice the closed-loop client count: arrivals are independent
    # users, so a due request should rarely find every connection busy.
    _run_clients(host, port, work, 2 * n_clients())
    duration = time.monotonic() - started
    return PhaseResult(name, duration, [s for s in samples if s is not None])


def run_closed_loop(
    host: str,
    port: int,
    requests: Sequence[Request],
    duration_s: float,
    name: str = "closed",
) -> PhaseResult:
    """Each client sends back-to-back until ``duration_s`` has passed.

    Stops early when the pre-encoded pool runs out (the caller sizes the
    pool so it does not; cycling would turn fresh requests into cache
    hits and flatter the result).
    """
    samples: list[Sample] = []
    lock = threading.Lock()
    cursor = iter(range(len(requests)))
    started = time.monotonic()
    deadline = started + duration_s

    def work(client: _Client) -> None:
        while time.monotonic() < deadline:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            sent = time.monotonic()
            status, body, trace_id, error = client.send(requests[i])
            done = time.monotonic()
            sample = Sample(
                requests[i].index, status, done - sent, 0.0,
                done - sent, done, body, trace_id, error,
            )
            with lock:
                samples.append(sample)

    _run_clients(host, port, work, n_clients())
    # Throughput is taken over the span in which replies arrived, so a
    # last request that overruns the deadline is not free.
    duration = time.monotonic() - started
    return PhaseResult(name, duration, samples)


def windows(values: Sequence, size: int) -> list[Sequence]:
    """Every run of ``size`` consecutive values (the whole, if shorter)."""
    return [values[i : i + size] for i in range(max(1, len(values) - size + 1))]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
