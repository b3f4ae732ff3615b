"""Thread-safe metric primitives with a Prometheus-compatible exporter.

The serving tier needs three shapes of telemetry:

* :class:`Counter` — monotone event counts (requests, cache hits,
  evictions);
* :class:`Gauge` — point-in-time readings (queue depth, cache bytes),
  either set explicitly or read live from a callback;
* :class:`LatencyHistogram` — value distributions over **fixed
  log-spaced buckets**, chosen once at construction so concurrent
  observers only ever increment integers (no rebucketing, no
  per-observation allocation, one lock per observe).

A :class:`MetricsRegistry` owns a set of named metrics and renders them
two ways: :meth:`MetricsRegistry.snapshot` returns a JSON-friendly dict
(nested under the service's ``/v1/stats``), and
:meth:`MetricsRegistry.render_text` emits the Prometheus text exposition
format (``# TYPE`` comments, cumulative ``_bucket{le="..."}`` series,
``_sum`` / ``_count``) for the ``/metrics`` scrape endpoint — readable
by Prometheus, VictoriaMetrics, or a plain ``curl``.

Instrumentation must be invisible to results: nothing here touches the
values flowing through the service, and every operation is O(buckets)
or better, so the byte-equivalence suites run with metrics enabled.
"""

from __future__ import annotations

import bisect
import math
import threading
from collections.abc import Callable, Sequence


def log_spaced_buckets(
    start: float, factor: float, count: int
) -> tuple[float, ...]:
    """``count`` bucket upper bounds: ``start * factor**i``.

    Args:
        start: First (smallest) upper bound, e.g. ``1e-4`` seconds.
        factor: Geometric growth per bucket (> 1).
        count: Number of finite bounds (an implicit ``+Inf`` bucket is
            always appended by the histogram).
    """
    if start <= 0:
        raise ValueError(f"start must be positive, got {start}")
    if factor <= 1.0:
        raise ValueError(f"factor must be > 1, got {factor}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return tuple(start * factor**i for i in range(count))


#: Default latency bounds: 100 µs to ~105 s in x2 steps (21 buckets).
#: Wide enough for a warm-cache hit and a cold 20k-row join alike.
DEFAULT_LATENCY_BUCKETS = log_spaced_buckets(1e-4, 2.0, 21)

#: Default occupancy bounds: 1 to 1024 in x2 steps, for rows-per-batch
#: and requests-per-batch distributions.
DEFAULT_OCCUPANCY_BUCKETS = log_spaced_buckets(1.0, 2.0, 11)


class Counter:
    """A monotone, thread-safe event counter.

    Args:
        name: Metric name (Prometheus conventions: ``snake_case``,
            ``_total`` suffix).
        help: One-line description for the ``# HELP`` comment.
        fn: Optional zero-argument callback; when given, reads report
            the callback's value instead of a stored one (``inc`` is
            then invalid): how a stored counter exports under a second
            name, or another object's count exports live, counted once.
    """

    __slots__ = ("name", "help", "_value", "_fn", "_lock")
    kind = "counter"

    def __init__(
        self,
        name: str,
        help: str = "",
        fn: Callable[[], int] | None = None,
    ) -> None:
        self.name = name
        self.help = help
        self._value = 0
        self._fn = fn
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if self._fn is not None:
            raise ValueError(
                f"counter {self.name!r} reads from a callback; inc() "
                "would be silently ignored"
            )
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        if self._fn is not None:
            return int(self._fn())
        return self._value


class Gauge:
    """A point-in-time reading: set explicitly or computed on read.

    Args:
        name: Metric name (Prometheus conventions: ``snake_case``).
        help: One-line description for the ``# HELP`` comment.
        fn: Optional zero-argument callback; when given, every read
            calls it instead of using the stored value, so the gauge
            always reports live state (queue depth, cache entries)
            without the service having to push updates.
    """

    __slots__ = ("name", "help", "_value", "_fn", "_lock")
    kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str = "",
        fn: Callable[[], float] | None = None,
    ) -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._fn = fn
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value


class LatencyHistogram:
    """Fixed log-spaced-bucket histogram of observed values.

    Buckets are chosen at construction and never change; an observation
    is one ``bisect`` plus two integer adds under a lock.  Snapshots
    report *cumulative* bucket counts (Prometheus ``le`` semantics: the
    count at bound ``b`` includes every observation ``<= b``) plus the
    running sum and count, from which mean and coarse quantiles follow.

    Args:
        name: Metric name; rendered with ``_bucket``/``_sum``/``_count``
            suffixes in text format.
        help: One-line description.
        buckets: Ascending finite upper bounds; an implicit ``+Inf``
            bucket catches everything beyond the last bound.
    """

    __slots__ = ("name", "help", "bounds", "_counts", "_sum", "_count", "_lock")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be ascending: {bounds}")
        self.name = name
        self.help = help
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 = the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation (negative values clamp to zero)."""
        if value < 0.0:
            value = 0.0
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def snapshot(self) -> dict:
        """Cumulative bucket counts plus sum/count, JSON-friendly."""
        with self._lock:
            counts = list(self._counts)
            total = self._count
            observed_sum = self._sum
        cumulative = []
        running = 0
        for bound, count in zip(self.bounds, counts):
            running += count
            cumulative.append({"le": bound, "count": running})
        return {
            "buckets": cumulative,
            "count": total,
            "sum": observed_sum,
            "mean": observed_sum / total if total else 0.0,
        }

    def quantile(self, q: float) -> float:
        """Coarse quantile: the upper bound of the bucket holding ``q``.

        Accurate to one bucket width — good enough for dashboards and
        floor checks; the raw buckets are exported for anything finer.
        Returns 0.0 when empty; the last finite bound when ``q`` lands
        in the overflow bucket.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        snap = self.snapshot()
        if snap["count"] == 0:
            return 0.0
        rank = math.ceil(q * snap["count"])
        for bucket in snap["buckets"]:
            if bucket["count"] >= rank:
                return bucket["le"]
        return self.bounds[-1]


def _format_number(value: float) -> str:
    """Prometheus-style number formatting (integers stay integral)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition rules."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labels: dict[str, str], extra: str = "") -> str:
    """Render ``{key="value",...}`` (values escaped); nothing when empty."""
    parts = [
        f'{key}="{_escape_label_value(str(value))}"'
        for key, value in labels.items()
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _group_by_name(
    labeled: Sequence[tuple[dict[str, str], dict]],
) -> dict[str, list[tuple[dict[str, str], object]]]:
    """``name -> [(labels, payload), ...]`` in first-seen name order.

    Histogram samples sharing a name must share bucket bounds: mixed
    bounds would render a series Prometheus silently mis-aggregates,
    so that raises :class:`ValueError` instead.
    """
    by_name: dict[str, list[tuple[dict[str, str], object]]] = {}
    for labels, snapshot in labeled:
        for name, payload in snapshot.items():
            by_name.setdefault(name, []).append((labels, payload))
    for name, samples in by_name.items():
        bounds = {
            tuple(bucket["le"] for bucket in payload["buckets"])
            for _, payload in samples
            if isinstance(payload, dict)
        }
        if len(bounds) > 1:
            raise ValueError(
                f"histogram {name!r} has mismatched bucket "
                f"boundaries across sources; refusing to merge"
            )
    return by_name


def sum_snapshots(snapshots: Sequence[dict]) -> dict:
    """Add registry snapshots series by series (the cross-worker fan-in).

    Counters and gauges add; histograms add per bucket plus ``count``
    and ``sum`` (``mean`` follows).  A series missing from a snapshot
    counts as zero, and one snapshot sums to an equal copy of itself.
    """
    out: dict[str, object] = {}
    grouped = _group_by_name([({}, snapshot) for snapshot in snapshots])
    for name, samples in grouped.items():
        payloads = [payload for _, payload in samples]
        if not isinstance(payloads[0], dict):
            out[name] = sum(payloads)
            continue
        count = sum(p["count"] for p in payloads)
        total = sum(p["sum"] for p in payloads)
        out[name] = {
            "buckets": [
                {"le": column[0]["le"], "count": sum(b["count"] for b in column)}
                for column in zip(*(p["buckets"] for p in payloads))
            ],
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
        }
    return out


def merge_labeled_snapshots(
    labeled: Sequence[tuple[dict[str, str], dict]],
    describe: dict[str, tuple[str, str]] | None = None,
) -> str:
    """Render per-source registry snapshots as one exposition page.

    The multi-process serving tier has one
    :class:`MetricsRegistry` *per route per worker*; a scrape endpoint
    must present them as one page.  Each input pairs a label set (e.g.
    ``{"worker": "0", "route": "default"}``, or ``{}`` for bare
    samples) with the JSON snapshot of one registry
    (:meth:`MetricsRegistry.snapshot`), and the output is
    Prometheus text exposition 0.0.4 with one ``# TYPE`` block per
    metric name and one sample per label set — so ``sum by (route)
    (serve_requests_total)`` works exactly as it would against any
    multi-replica exporter.  An empty input renders an empty page (no
    trailing newline — there are no samples to terminate).

    ``describe`` maps names to ``(kind, help)``.  A name it lacks gets
    no ``# HELP`` line and its kind from the snapshot shape: a dict
    payload is a histogram (``_bucket``/``_sum``/``_count`` series,
    ``le`` last), a ``_total`` name a counter, anything else a gauge.
    """
    by_name = _group_by_name(labeled)
    if not by_name:
        return ""
    lines: list[str] = []
    for name, samples in by_name.items():
        if isinstance(samples[0][1], dict):
            kind = "histogram"
        elif name.endswith("_total"):
            kind = "counter"
        else:
            kind = "gauge"
        kind, help = (describe or {}).get(name, (kind, ""))
        if help:
            lines.append(f"# HELP {name} {help}")
        lines.append(f"# TYPE {name} {kind}")
        for labels, payload in samples:
            plain = _render_labels(labels)
            if not isinstance(payload, dict):
                lines.append(
                    f"{name}{plain} "
                    f"{_format_number(payload)}"  # type: ignore[arg-type]
                )
                continue
            buckets = [
                (_format_number(bucket["le"]), bucket["count"])
                for bucket in payload["buckets"]
            ]
            for le, count in [*buckets, ("+Inf", payload["count"])]:
                rendered = _render_labels(labels, f'le="{le}"')
                lines.append(f"{name}_bucket{rendered} {count}")
            lines.append(f"{name}_sum{plain} {_format_number(payload['sum'])}")
            lines.append(f"{name}_count{plain} {payload['count']}")
    return "\n".join(lines) + "\n"


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    Creation methods are idempotent per name (asking twice returns the
    same object), so instrumentation sites can be written without
    coordinating construction order.  Each method accepts a per-metric
    ``prefix`` override (``None`` means the registry default) so one
    registry can host series from several subsystems — the serving
    registry carries ``serve_*`` alongside unprefixed ``engine_*`` and
    ``join_*`` names.

    Callback-backed metrics are rendered defensively: a callback that
    raises degrades *that one series* (skipped from the page, with the
    always-present ``obs_callback_errors_total`` counter incremented)
    instead of failing the whole scrape.
    """

    def __init__(self, prefix: str = "") -> None:
        self.prefix = prefix
        self._metrics: dict[str, Counter | Gauge | LatencyHistogram] = {}
        self._lock = threading.Lock()
        self.callback_errors = self._register(
            Counter(
                "obs_callback_errors_total",
                "Metric callbacks that raised during a read "
                "(each skips its series for that scrape)",
            )
        )

    def _register(self, metric):
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if type(existing) is not type(metric):
                    raise ValueError(
                        f"metric {metric.name!r} already registered as "
                        f"{type(existing).__name__}"
                    )
                return existing
            self._metrics[metric.name] = metric
            return metric

    def _full_name(self, name: str, prefix: str | None) -> str:
        return (self.prefix if prefix is None else prefix) + name

    def counter(
        self,
        name: str,
        help: str = "",
        fn: Callable[[], int] | None = None,
        prefix: str | None = None,
    ) -> Counter:
        return self._register(
            Counter(self._full_name(name, prefix), help, fn=fn)
        )

    def gauge(
        self,
        name: str,
        help: str = "",
        fn: Callable[[], float] | None = None,
        prefix: str | None = None,
    ) -> Gauge:
        return self._register(
            Gauge(self._full_name(name, prefix), help, fn=fn)
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        prefix: str | None = None,
    ) -> LatencyHistogram:
        return self._register(
            LatencyHistogram(
                self._full_name(name, prefix), help, buckets=buckets
            )
        )

    def snapshot(self) -> dict:
        """JSON-friendly snapshot of every metric, keyed by name.

        A callback-backed metric whose callback raises is omitted from
        the snapshot (and counted in ``obs_callback_errors_total``).
        """
        with self._lock:
            metrics = list(self._metrics.values())
        out: dict[str, object] = {}
        for metric in metrics:
            if isinstance(metric, LatencyHistogram):
                out[metric.name] = metric.snapshot()
                continue
            try:
                out[metric.name] = metric.value
            except Exception:
                self.callback_errors.inc()
        return out

    def render_text(self) -> str:
        """The Prometheus text exposition format (version 0.0.4).

        A callback-backed metric whose callback raises is skipped for
        this scrape (and counted in ``obs_callback_errors_total``); the
        rest of the page renders normally.
        """
        with self._lock:
            describe = {
                metric.name: (metric.kind, metric.help)
                for metric in self._metrics.values()
            }
        return merge_labeled_snapshots([({}, self.snapshot())], describe)
