"""The span ledger: turn ``/debug/traces`` payloads into per-layer time.

A trace is the span tree of one request (``repro.obs.trace``): every
span has a name, a monotonic ``start``, a ``duration_s`` and the id of
the span that caused it.  The ledger answers *where did the root's time
go* without touching the program:

* **Self time** of a span is its duration minus the *union* of its
  children's intervals, so overlapping children are not subtracted
  twice; an interval two siblings share is owned by the one that
  started first.
* **Foreign clocks.**  Worker-process spans are spliced into the
  parent's trace with their own ``start``; when such a child does not
  overlap its parent at all it is placed at the parent's end, keeping
  its duration (only durations are comparable across processes).  The
  real tree puts ``serve.queue_wait`` / ``serve.batch_execute`` *under*
  ``worker.execute``, and nothing here assumes otherwise.
* **Micro-batch riders.**  Only the batch's primary request carries the
  engine/join children; a rider's ``serve.batch_execute`` has the
  attribute ``batch_primary_trace_id`` and no children.  Its self time
  is time spent waiting for shared work, booked as ``rider_wait`` so
  batch work is attributed once.
* Every span's self time lands in exactly one layer (by span name) or
  in ``unattributed``, so the rows sum to the root duration.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

UNATTRIBUTED = "unattributed"
RIDER_WAIT = "serve.service.rider_wait"

#: Span name -> ledger row.  Root spans of the HTTP tier are matched by
#: prefix (``POST /v1/...``).  A name not listed here is unattributed.
_ROWS = {
    "serve.queue_wait": "serve.service.queue_wait",
    "serve.batch_execute": "serve.service.batch_self",
    "worker.execute": "serve.workers.hop",
    "join.join_many": "index.joiner.self",
    "join.index_build": "index.cache.build",
    "join.candidate_filter": "index.qgram.candidate_filter",
    "join.kernel_sweep": "index.joiner.kernel_sweep",
    "core.prepare_prompts": "core.prepare_prompts",
    "core.aggregate": "core.aggregate",
    "core.join": "core.join_glue",
}


def row_of(span: dict) -> str:
    """The ledger row a span's self time belongs to."""
    name = span["name"]
    if name.startswith("POST "):
        return "serve.http.self"
    if name == "engine.decode":
        # The engine span also wraps non-incremental models' own
        # ``generate``; those decode no rows inside the engine.
        decoded = span.get("attributes", {}).get("decoded_rows", 0)
        return "infer.decode" if decoded else "surrogate.generate"
    if name == "serve.batch_execute" and "batch_primary_trace_id" in span.get(
        "attributes", {}
    ):
        return RIDER_WAIT
    return _ROWS.get(name, UNATTRIBUTED)


def layer_of(row: str) -> str:
    """``index.joiner.self`` -> ``index``; unattributed stays itself."""
    return row.split(".", 1)[0]


def _interval(span: dict) -> tuple[float, float]:
    start = float(span["start"])
    return start, start + float(span["duration_s"] or 0.0)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


@dataclass
class TraceLedger:
    """Self time per span and per row for one trace."""

    trace_id: str
    root: dict
    self_s: dict[str, float] = field(default_factory=dict)  # by span_id
    rows: dict[str, float] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return float(self.root["duration_s"] or 0.0)


def ledger(trace: dict) -> TraceLedger:
    """Attribute one trace's root duration to rows by self time."""
    spans = trace["spans"]
    roots = [s for s in spans if s["parent_id"] is None]
    if len(roots) != 1:
        raise ValueError(f"trace {trace.get('trace_id')} has {len(roots)} roots")
    root = roots[0]
    known = {s["span_id"] for s in spans}
    children: dict[str | None, list[dict]] = defaultdict(list)
    for span in spans:
        if span is root:
            continue
        # An orphan (its parent span was dropped) hangs off the root.
        parent = span["parent_id"] if span["parent_id"] in known else root["span_id"]
        children[parent].append(span)

    result = TraceLedger(trace["trace_id"], root)
    rows: dict[str, float] = defaultdict(float)

    def visit(span: dict, lo: float, hi: float, shift: float) -> None:
        """Book ``span``'s self time.

        ``[lo, hi]`` is where the span sits on the root's clock and
        ``shift`` is what takes its own clock there.
        """
        placed: list[tuple[float, float, float, dict]] = []
        for child in children.get(span["span_id"], []):
            c_lo, c_hi = _interval(child)
            c_lo, c_hi, c_shift = c_lo + shift, c_hi + shift, shift
            length = min(c_hi - c_lo, hi - lo)
            if min(c_hi, hi) - max(c_lo, lo) <= 0 < length:
                # Foreign clock: no overlap at all.  Keep the duration,
                # sit it against the parent's end (the reply path); its
                # own children then move with it.
                c_shift += hi - c_hi
                c_lo, c_hi = hi - length, hi
            placed.append((max(c_lo, lo), min(c_hi, hi), c_shift, child))
        covered = 0.0
        cursor = lo
        for c_lo, c_hi, c_shift, child in sorted(placed, key=lambda p: p[:2]):
            # An interval two siblings share is owned by the one that
            # started first, so the children's union is counted once.
            c_lo = max(c_lo, cursor)
            c_hi = max(c_hi, c_lo)
            cursor = c_hi
            covered += c_hi - c_lo
            visit(child, c_lo, c_hi, c_shift)
        self_time = max(0.0, (hi - lo) - covered)
        result.self_s[span["span_id"]] = self_time
        rows[row_of(span)] += self_time

    visit(root, *_interval(root), 0.0)
    result.rows = dict(rows)
    return result


@dataclass
class Ledger:
    """Row totals over many traces, plus per-trace detail."""

    traces: list[TraceLedger]

    @property
    def total_s(self) -> float:
        return sum(t.duration_s for t in self.traces)

    def row_totals(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for trace in self.traces:
            for row, seconds in trace.rows.items():
                totals[row] += seconds
        return dict(totals)

    def layer_shares(self) -> dict[str, float]:
        """Share of summed root time per layer; sums to 1 with unattributed."""
        total = self.total_s
        shares: dict[str, float] = defaultdict(float)
        if total <= 0:
            return {}
        for row, seconds in self.row_totals().items():
            shares[layer_of(row)] += seconds / total
        return dict(shares)

    def row_values(self, row: str) -> list[float]:
        """Per-trace seconds booked to ``row`` (traces without it omitted)."""
        return [t.rows[row] for t in self.traces if row in t.rows]


def build_ledger(traces: list[dict]) -> Ledger:
    """Ledger over every trace that has a finished root."""
    return Ledger(
        [
            ledger(t)
            for t in traces
            if any(
                s["parent_id"] is None and s["duration_s"] is not None
                for s in t["spans"]
            )
        ]
    )


def spans_named(trace: dict, name: str) -> list[dict]:
    return [s for s in trace["spans"] if s["name"] == name]
