"""A stdlib JSON/HTTP front end over :class:`TransformService`.

Deliberately dependency-free (``http.server`` + ``json``): the point is
that the serving subsystem is drivable end-to-end — start a server,
``curl`` a transform or join, read the stats — without installing
anything.  The threading server gives each connection its own thread,
and those threads are exactly the concurrent clients the service's
micro-batching scheduler coalesces.

Endpoints (all bodies JSON; successful responses carry
``"schema_version": 1``):

* ``POST /v1/transform`` — ``{"sources": [...], "examples": [[s, t],
  ...], "timeout_s": 30.0?}`` → ``{"schema_version", "predictions":
  [{"source", "value", "votes", "candidates"}]}``.  Multi-route
  deployments pick a pipeline with ``?model=<selector>`` (or a
  ``"model"`` body field): a route name, full pipeline fingerprint, or
  unambiguous fingerprint prefix — see ``GET /v1/models``.
* ``POST /v1/join`` — transform body plus ``"targets": [...]`` and the
  optional query-surface fields ``"mode"`` (``"argmin"`` | ``"topk"``
  | ``"reverse"``, default ``"argmin"``), ``"k"`` (int >= 1) and
  ``"margin"`` (number >= 0).  ``argmin`` returns ``{"results":
  [{"source", "predicted", "matched", "expected", "distance",
  "correct"}]}``; ``topk`` adds per-result ``"margin"`` and ranked
  ``"candidates": [{"value", "distance", "row"}]``; ``reverse``
  returns ``{"groups": [{"row", "target", "sources": [...]}],
  "unmatched": [...]}`` over source-row indices.
* ``GET /v1/models`` — the routes this deployment fronts:
  ``{"schema_version", "models": [{"name", "fingerprint", "default"}],
  "n_workers"}``.
* ``GET /v1/stats`` — the service's :class:`ServeStats` snapshot, plus
  a ``"join"`` block — ``"last_join"``, the last join's
  :class:`~repro.index.joiner.JoinStats` as a dict (``probes``,
  ``unique_probes``, ``exact_matches``, ``empty_probes``, ``pending``,
  ``shards`` (always 0), ``cache_hits``, ``cache_misses``,
  ``kernel_backend``, ``kernel_pairs``), and ``"kernel_pairs_total"``,
  cumulative pairs scored per kernel backend — and a ``"metrics"``
  block with the latency/occupancy histograms and live gauges.
* ``GET /metrics`` — the same metrics in the Prometheus text
  exposition format (scrape-friendly plain text).
* ``GET /healthz`` — liveness: the process is up and the backend is
  not shut down.
* ``GET /readyz`` — readiness: worker pool fully up, every route
  resolvable, restart count (503 with the same body when not ready).
* ``GET /debug/traces`` — recent + slowest-N traces from the tracing
  subsystem (see :mod:`repro.obs.trace`; ``?limit=`` bounds both
  lists).

Every ``POST /v1/*`` request runs under a root span whose id is
returned in the ``X-Repro-Trace-Id`` response header; with
``--trace-sample-rate`` > 0 the whole span tree (queue wait, batch
execution, engine decode, join phases — across worker processes) lands
in ``/debug/traces``.  With ``log_json`` enabled the server emits one
structured access-log line per request (method, path, route, status,
duration_ms, trace_id) for log↔trace correlation.

Every error body is structured: ``{"error": {"code", "detail",
"field"?}}`` — ``code`` is a stable machine-readable slug, ``field``
names the offending request field when one is known.  Mapping:
malformed requests (bad JSON, bad ``Content-Length``, truncated
bodies, unknown or ill-typed fields) → 400, oversized bodies → 413, a
client stalling mid-body past the read timeout → 408, an unknown or
ambiguous ``model`` selector → 404, queue backpressure → 429, expired
deadlines → 504, a closed service or a worker process crashing with
the request in flight → 503 (the latter with code ``worker_crashed``;
the pool respawns the worker, so retrying is safe).
Body reads are bounded in both bytes (``max_request_bytes``) and time
(``request_timeout_s``), so a hostile or broken client can neither
balloon memory nor pin a handler thread forever.
"""

from __future__ import annotations

import json
import math
import sys
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.core.join_config import JOIN_MODES
from repro.exceptions import (
    DeadlineExceededError,
    ReproError,
    ServiceClosedError,
    ServiceOverloadedError,
    UnknownModelError,
    WorkerCrashedError,
)
from repro.obs.trace import Span, get_tracer
from repro.serve.router import ServiceRouter
from repro.serve.service import TransformService
from repro.types import ExamplePair

_MAX_BODY_BYTES = 16 << 20
_READ_TIMEOUT_S = 30.0

#: Wire-format version stamped into every successful response.
SCHEMA_VERSION = 1

#: Every path the server answers — the docs checker asserts each one is
#: covered by ``docs/http_api.md``, so adding an endpoint here without
#: documenting it fails CI.
PUBLIC_ENDPOINTS = (
    "/v1/transform",
    "/v1/join",
    "/v1/models",
    "/v1/stats",
    "/metrics",
    "/healthz",
    "/readyz",
    "/debug/traces",
)

_TRANSFORM_FIELDS = frozenset({"sources", "examples", "timeout_s", "model"})
_JOIN_FIELDS = _TRANSFORM_FIELDS | {"targets", "mode", "k", "margin"}


class _BadRequest(ValueError):
    """Client-side request shape error (mapped to a structured 400)."""

    def __init__(
        self, detail: str, code: str = "bad_request", field: str | None = None
    ) -> None:
        super().__init__(detail)
        self.code = code
        self.field = field


class _PayloadTooLarge(ValueError):
    """Declared body exceeds the configured bound (mapped to 413)."""


def _error_body(code: str, detail: str, field: str | None = None) -> dict:
    """The one structured error shape every error path returns."""
    error: dict = {"code": code, "detail": detail}
    if field is not None:
        error["field"] = field
    return {"error": error}


def _check_fields(payload: dict, allowed: frozenset[str]) -> None:
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise _BadRequest(
            f"unknown field(s): {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}",
            code="unknown_field",
            field=unknown[0],
        )


def _string_list(payload: dict, field: str) -> list[str]:
    values = payload.get(field)
    if not isinstance(values, list) or not all(
        isinstance(v, str) for v in values
    ):
        raise _BadRequest(
            f"{field!r} must be a list of strings",
            code="invalid_value",
            field=field,
        )
    return values


def _example_pairs(payload: dict) -> list[ExamplePair]:
    raw = payload.get("examples")
    if not isinstance(raw, list):
        raise _BadRequest(
            "'examples' must be a list of [source, target] pairs",
            code="invalid_value",
            field="examples",
        )
    pairs: list[ExamplePair] = []
    for item in raw:
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not all(isinstance(part, str) for part in item)
        ):
            raise _BadRequest(
                "'examples' must be a list of [source, target] string pairs",
                code="invalid_value",
                field="examples",
            )
        pairs.append(ExamplePair(item[0], item[1]))
    return pairs


def _timeout(payload: dict) -> float | None:
    timeout = payload.get("timeout_s")
    if timeout is None:
        return None
    if (
        not isinstance(timeout, (int, float))
        or isinstance(timeout, bool)
        or not math.isfinite(timeout)
        or timeout <= 0
    ):
        raise _BadRequest(
            "'timeout_s' must be a positive finite number",
            code="invalid_value",
            field="timeout_s",
        )
    return float(timeout)


def _join_mode(payload: dict) -> str:
    mode = payload.get("mode", "argmin")
    if not isinstance(mode, str) or mode not in JOIN_MODES:
        raise _BadRequest(
            f"'mode' must be one of {list(JOIN_MODES)}, got {mode!r}",
            code="invalid_value",
            field="mode",
        )
    return mode


def _join_k(payload: dict) -> int:
    k = payload.get("k", 1)
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise _BadRequest(
            f"'k' must be an integer >= 1, got {k!r}",
            code="invalid_value",
            field="k",
        )
    return k


def _model_selector(payload: dict, query: dict[str, list[str]]) -> str | None:
    """The route selector: ``?model=`` query param or ``"model"`` field.

    Either spelling works; sending both only works when they agree (a
    silent precedence rule would make one of them a no-op).  ``None``
    means the default route.
    """
    from_query = query.get("model", [None])[-1]
    from_body = payload.get("model")
    if from_body is not None and not isinstance(from_body, str):
        raise _BadRequest(
            "'model' must be a string (route name or fingerprint prefix)",
            code="invalid_value",
            field="model",
        )
    if (
        from_query is not None
        and from_body is not None
        and from_query != from_body
    ):
        raise _BadRequest(
            f"conflicting model selectors: query says {from_query!r}, "
            f"body says {from_body!r}",
            code="invalid_value",
            field="model",
        )
    return from_body if from_body is not None else from_query


def _join_margin(payload: dict) -> float | None:
    margin = payload.get("margin")
    if margin is None:
        return None
    if (
        not isinstance(margin, (int, float))
        or isinstance(margin, bool)
        or not math.isfinite(margin)
        or margin < 0
    ):
        raise _BadRequest(
            f"'margin' must be a finite number >= 0, got {margin!r}",
            code="invalid_value",
            field="margin",
        )
    return float(margin)


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Maps the JSON API onto the owning server's ``service``."""

    server: TransformServiceServer
    protocol_version = "HTTP/1.1"

    #: Per-request state (reset at the top of each do_GET/do_POST; one
    #: handler serves many requests over a keep-alive connection).
    _root_span: Span | None = None
    _last_status: int | None = None
    _log_route: str | None = None

    # -- plumbing ---------------------------------------------------------

    def setup(self) -> None:
        """Apply the server's socket timeout before any read.

        ``StreamRequestHandler`` applies ``self.timeout`` to the socket
        during setup, bounding every blocking read — without it a
        client that stalls mid-body pins this handler thread forever.
        """
        self.timeout = self.server.request_timeout_s
        super().setup()

    def log_message(self, format: str, *args: object) -> None:
        """Log the request line only when the server is verbose."""
        if self.server.verbose:
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: dict) -> None:
        self._last_status = status
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self._root_span is not None:
            self.send_header("X-Repro-Trace-Id", self._root_span.trace_id)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, body: str, content_type: str) -> None:
        self._last_status = status
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        if self._root_span is not None:
            self.send_header("X-Repro-Trace-Id", self._root_span.trace_id)
        self.end_headers()
        self.wfile.write(data)

    def _access_log(self, method: str, path: str, started: float) -> None:
        """One structured JSON access-log line (``log_json`` mode only)."""
        if not self.server.log_json:
            return
        record = {
            "method": method,
            "path": path,
            "route": self._log_route,
            "status": self._last_status,
            "duration_ms": round((time.monotonic() - started) * 1000.0, 3),
            "trace_id": (
                self._root_span.trace_id
                if self._root_span is not None
                else None
            ),
        }
        try:
            stream = self.server.log_stream
            stream.write(json.dumps(record) + "\n")
            stream.flush()
        except (OSError, ValueError):
            pass  # a closed log stream must never fail the request

    def _read_json(self) -> dict:
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            raise _BadRequest("request body required")
        try:
            length = int(raw_length)
        except ValueError:
            # Unparseable framing: without a length the body cannot be
            # delimited, so the connection must close after the error.
            self.close_connection = True
            raise _BadRequest(
                f"malformed Content-Length header: {raw_length!r}"
            ) from None
        if length <= 0:
            raise _BadRequest("request body required")
        if length > self.server.max_request_bytes:
            # The body was never read; unread bytes poison keep-alive.
            self.close_connection = True
            raise _PayloadTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{self.server.max_request_bytes}-byte limit"
            )
        data = self.rfile.read(length)
        if len(data) < length:
            # The client closed early: a truncated body, not a batch of
            # whatever bytes did arrive.
            self.close_connection = True
            raise _BadRequest(
                f"request body truncated: got {len(data)} of "
                f"{length} declared bytes"
            )
        try:
            payload = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _BadRequest(f"invalid JSON body: {error}") from error
        if not isinstance(payload, dict):
            raise _BadRequest("request body must be a JSON object")
        return payload

    # -- endpoints --------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server's contract
        """Serve the read-only endpoints: models, stats, metrics, health."""
        self._root_span = None
        self._last_status = None
        self._log_route = None
        started = time.monotonic()
        try:
            split = urlsplit(self.path)
            path = split.path
            router = self.server.router
            if path == "/healthz":
                self._send_json(
                    200,
                    {
                        "schema_version": SCHEMA_VERSION,
                        "ok": not router.closed,
                    },
                )
            elif path == "/readyz":
                readiness = router.readiness()
                self._send_json(
                    200 if readiness["ready"] else 503,
                    {"schema_version": SCHEMA_VERSION, **readiness},
                )
            elif path == "/debug/traces":
                self._handle_debug_traces(parse_qs(split.query))
            elif path == "/v1/models":
                self._send_json(
                    200,
                    {
                        "schema_version": SCHEMA_VERSION,
                        "models": router.models(),
                        "n_workers": router.n_workers,
                    },
                )
            elif path == "/v1/stats":
                self._send_json(200, router.stats())
            elif path == "/metrics":
                self._send_text(
                    200,
                    router.metrics_text(),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            else:
                self._send_json(
                    404,
                    _error_body("not_found", f"unknown path {self.path!r}"),
                )
        finally:
            self._access_log("GET", urlsplit(self.path).path, started)

    def _handle_debug_traces(self, query: dict[str, list[str]]) -> None:
        """Serve the trace collector's recent + slowest-N snapshot."""
        raw_limit = query.get("limit", [None])[-1]
        limit: int | None = None
        if raw_limit is not None:
            try:
                limit = int(raw_limit)
            except ValueError:
                limit = None
            if limit is None or limit < 0:
                self._send_json(
                    400,
                    _error_body(
                        "invalid_value",
                        f"'limit' must be an integer >= 0, got {raw_limit!r}",
                        field="limit",
                    ),
                )
                return
        self._send_json(200, get_tracer().collector.snapshot(limit))

    def do_POST(self) -> None:  # noqa: N802 - http.server's contract
        """Dispatch transform/join requests, mapping errors to the table.

        Every POST runs under a fresh root span: its trace id rides the
        ``X-Repro-Trace-Id`` response header, and a 5xx outcome marks
        the span errored — which commits the trace even when sampling
        left it unrecorded.
        """
        split = urlsplit(self.path)
        tracer = get_tracer()
        span = tracer.start_trace(f"POST {split.path}")
        self._root_span = span
        self._last_status = None
        self._log_route = None
        started = time.monotonic()
        try:
            with tracer.activate(span):
                self._dispatch_post(split)
        finally:
            status = self._last_status
            span.set_attributes(
                {
                    "method": "POST",
                    "path": split.path,
                    "status": status,
                    "route": self._log_route,
                }
            )
            if status is not None and status >= 500:
                span.set_error(f"status {status}")
            span.finish()
            self._access_log("POST", split.path, started)
            self._root_span = None

    def _dispatch_post(self, split) -> None:
        """The POST body: parse, route, and map errors to statuses."""
        try:
            query = parse_qs(split.query)
            payload = self._read_json()
            if split.path == "/v1/transform":
                self._handle_transform(payload, query)
            elif split.path == "/v1/join":
                self._handle_join(payload, query)
            else:
                self._send_json(
                    404,
                    _error_body("not_found", f"unknown path {self.path!r}"),
                )
        except _BadRequest as error:
            self._send_json(
                400, _error_body(error.code, str(error), error.field)
            )
        except _PayloadTooLarge as error:
            self._send_json(413, _error_body("payload_too_large", str(error)))
        except TimeoutError as error:
            # The socket timed out mid-body: the client stalled, and
            # the half-read stream can carry no further requests.
            self.close_connection = True
            self._send_json(
                408,
                _error_body(
                    "request_timeout",
                    f"timed out reading request body: {error}",
                ),
            )
        except ServiceOverloadedError as error:
            self._send_json(429, _error_body("overloaded", str(error)))
        except DeadlineExceededError as error:
            self._send_json(504, _error_body("deadline_exceeded", str(error)))
        except UnknownModelError as error:
            self._send_json(404, _error_body("unknown_model", str(error)))
        except WorkerCrashedError as error:
            # A worker died with this request in flight; the pool has
            # already respawned a replacement, so a retry is safe.
            self._send_json(503, _error_body("worker_crashed", str(error)))
        except ServiceClosedError as error:
            self._send_json(503, _error_body("service_closed", str(error)))
        except ReproError as error:
            # Library-level rejection of a well-formed HTTP request
            # (empty example pool, empty target column, ...).
            self._send_json(400, _error_body("invalid_request", str(error)))
        except Exception as error:
            # Anything else (a failing model inside the batch, a bug):
            # the client must still get a status line, not a dropped
            # keep-alive connection.
            self._send_json(
                500, _error_body("internal", f"internal error: {error}")
            )

    def _handle_transform(
        self, payload: dict, query: dict[str, list[str]]
    ) -> None:
        _check_fields(payload, _TRANSFORM_FIELDS)
        router = self.server.router
        route = router.resolve(_model_selector(payload, query))
        self._log_route = route
        predictions = router.transform(
            _string_list(payload, "sources"),
            _example_pairs(payload),
            timeout=_timeout(payload),
            model=route,
        )
        self._send_json(
            200,
            {
                "schema_version": SCHEMA_VERSION,
                "predictions": [p.to_dict() for p in predictions],
            },
        )

    def _handle_join(
        self, payload: dict, query: dict[str, list[str]]
    ) -> None:
        _check_fields(payload, _JOIN_FIELDS)
        mode = _join_mode(payload)
        sources = _string_list(payload, "sources")
        targets = _string_list(payload, "targets")
        router = self.server.router
        route = router.resolve(_model_selector(payload, query))
        self._log_route = route
        results = router.join(
            sources,
            targets,
            _example_pairs(payload),
            timeout=_timeout(payload),
            mode=mode,
            k=_join_k(payload),
            margin=_join_margin(payload),
            model=route,
        )
        body: dict = {"schema_version": SCHEMA_VERSION, "mode": mode}
        if mode == "reverse":
            # ``results`` is one group of source-row indices per target
            # row; ship the non-empty groups plus the leftover sources.
            matched: set[int] = set()
            groups = []
            for row, group in enumerate(results):
                if group:
                    groups.append(
                        {"row": row, "target": targets[row], "sources": group}
                    )
                    matched.update(group)
            body["groups"] = groups
            body["unmatched"] = [
                i for i in range(len(sources)) if i not in matched
            ]
        else:
            body["results"] = [r.to_dict() for r in results]
        self._send_json(200, body)


class TransformServiceServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one serving backend.

    Args:
        address: ``(host, port)`` to bind.
        service: The backend every handler dispatches into — either a
            :class:`~repro.serve.router.ServiceRouter` (multi-route
            and/or multi-process), or a bare :class:`TransformService`,
            which is adopted as a single-route router
            (:meth:`ServiceRouter.from_service`) without behavior
            change.
        verbose: Log each request line.
        max_request_bytes: Declared-body bound; larger requests are
            refused with 413 before any body byte is read.
        request_timeout_s: Socket timeout applied to every handler
            connection — bounds body reads and idle keep-alives alike.
        log_json: Emit one structured JSON access-log line per request
            (method, path, route, status, duration_ms, trace_id).
        log_stream: Destination for the JSON access log (default
            ``sys.stderr``); anything with ``write``/``flush`` works.
    """

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: TransformService | ServiceRouter,
        verbose: bool = False,
        max_request_bytes: int = _MAX_BODY_BYTES,
        request_timeout_s: float = _READ_TIMEOUT_S,
        log_json: bool = False,
        log_stream=None,
    ) -> None:
        if max_request_bytes < 1:
            raise ValueError(
                f"max_request_bytes must be >= 1, got {max_request_bytes}"
            )
        if request_timeout_s <= 0:
            raise ValueError(
                f"request_timeout_s must be positive, got {request_timeout_s}"
            )
        super().__init__(address, ServiceRequestHandler)
        #: The backend exactly as handed in (kept for callers that
        #: reach through the server to their service).
        self.service = service
        #: What handlers dispatch into: always a router.
        self.router = (
            service
            if isinstance(service, ServiceRouter)
            else ServiceRouter.from_service(service)
        )
        self.verbose = verbose
        self.max_request_bytes = max_request_bytes
        self.request_timeout_s = request_timeout_s
        self.log_json = log_json
        self.log_stream = log_stream if log_stream is not None else sys.stderr


def start_http_server(
    service: TransformService | ServiceRouter,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
    max_request_bytes: int = _MAX_BODY_BYTES,
    request_timeout_s: float = _READ_TIMEOUT_S,
    log_json: bool = False,
    log_stream=None,
) -> TransformServiceServer:
    """Bind and return a server (port 0 picks a free one); not yet serving.

    The caller drives ``serve_forever`` — usually on a thread for tests
    and examples (``server.server_address`` reports the bound port), or
    via :func:`serve_http` for a foreground process.
    """
    return TransformServiceServer(
        (host, port),
        service,
        verbose=verbose,
        max_request_bytes=max_request_bytes,
        request_timeout_s=request_timeout_s,
        log_json=log_json,
        log_stream=log_stream,
    )


def serve_http(
    service: TransformService | ServiceRouter,
    host: str = "127.0.0.1",
    port: int = 8080,
    verbose: bool = True,
    max_request_bytes: int = _MAX_BODY_BYTES,
    request_timeout_s: float = _READ_TIMEOUT_S,
    log_json: bool = False,
    log_stream=None,
) -> None:
    """Serve in the foreground until interrupted, then shut down cleanly."""
    server = start_http_server(
        service,
        host,
        port,
        verbose=verbose,
        max_request_bytes=max_request_bytes,
        request_timeout_s=request_timeout_s,
        log_json=log_json,
        log_stream=log_stream,
    )
    bound_host, bound_port = server.server_address[:2]
    print(f"serving on http://{bound_host}:{bound_port} (Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        service.close()
