"""Unit tests of the span ledger (``python -m pytest benchmarks/e2e``)."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def span(name, span_id, parent_id, start, duration, **attributes):
    return {
        "name": name,
        "span_id": span_id,
        "parent_id": parent_id,
        "start": start,
        "duration_s": duration,
        "attributes": attributes,
    }


def trace(trace_id, *items):
    return {"trace_id": trace_id, "spans": list(items)}


def test_self_time_is_duration_minus_children():
    book = spans.ledger(
        trace(
            "t",
            span("POST /v1/join", "r", None, 10.0, 1.0),
            span("serve.queue_wait", "q", "r", 10.1, 0.2),
            span("serve.batch_execute", "b", "r", 10.3, 0.6),
            span("join.join_many", "j", "b", 10.4, 0.4),
            span("join.kernel_sweep", "k", "j", 10.5, 0.25),
        )
    )
    assert book.rows["serve.http.self"] == pytest.approx(0.2)
    assert book.rows["serve.service.queue_wait"] == pytest.approx(0.2)
    assert book.rows["serve.service.batch_self"] == pytest.approx(0.2)
    assert book.rows["index.joiner.self"] == pytest.approx(0.15)
    assert book.rows["index.joiner.kernel_sweep"] == pytest.approx(0.25)
    assert sum(book.rows.values()) == pytest.approx(book.duration_s)


def test_overlapping_children_are_subtracted_once():
    book = spans.ledger(
        trace(
            "t",
            span("POST /v1/join", "r", None, 0.0, 1.0),
            span("join.candidate_filter", "a", "r", 0.1, 0.5),
            span("join.kernel_sweep", "b", "r", 0.4, 0.4),
        )
    )
    # Union of [0.1, 0.6] and [0.4, 0.8] is 0.7; the shared 0.2 belongs
    # to the child that started first.
    assert book.rows["serve.http.self"] == pytest.approx(0.3)
    assert book.rows["index.qgram.candidate_filter"] == pytest.approx(0.5)
    assert book.rows["index.joiner.kernel_sweep"] == pytest.approx(0.2)
    assert sum(book.rows.values()) == pytest.approx(1.0)


def test_worker_spans_on_a_foreign_clock_keep_their_duration():
    # The real tree: queue_wait / batch_execute sit *under* worker.execute,
    # whose start comes from the worker process's own monotonic clock.
    book = spans.ledger(
        trace(
            "t",
            span("POST /v1/transform", "r", None, 100.0, 0.30),
            span("worker.execute", "w", "r", 5000.0, 0.25),
            span("serve.queue_wait", "q", "w", 5000.0, 0.05),
            span("serve.batch_execute", "b", "w", 5000.05, 0.20),
            span("engine.decode", "e", "b", 5000.06, 0.18, decoded_rows=5),
        )
    )
    assert book.rows["serve.http.self"] == pytest.approx(0.05)
    assert book.rows["serve.workers.hop"] == pytest.approx(0.0)
    assert book.rows["serve.service.queue_wait"] == pytest.approx(0.05)
    assert book.rows["infer.decode"] == pytest.approx(0.18)
    assert sum(book.rows.values()) == pytest.approx(0.30)


def test_batch_work_is_attributed_once_not_per_rider():
    primary = trace(
        "p",
        span("POST /v1/transform", "r1", None, 0.0, 0.5),
        span("serve.batch_execute", "b1", "r1", 0.1, 0.4),
        span("engine.decode", "e1", "b1", 0.1, 0.4, decoded_rows=10),
    )
    rider = trace(
        "q",
        span("POST /v1/transform", "r2", None, 0.0, 0.5),
        span(
            "serve.batch_execute", "b2", "r2", 0.1, 0.4,
            batch_primary_trace_id="p",
        ),
    )
    totals = spans.build_ledger([primary, rider]).row_totals()
    assert totals["infer.decode"] == pytest.approx(0.4)
    assert totals[spans.RIDER_WAIT] == pytest.approx(0.4)
    assert "serve.service.batch_self" not in totals or totals[
        "serve.service.batch_self"
    ] == pytest.approx(0.0)


def test_surrogate_and_unknown_spans():
    book = spans.ledger(
        trace(
            "t",
            span("bench.request", "r", None, 0.0, 1.0),
            span("engine.decode", "e", "r", 0.0, 0.3, decoded_rows=0, prompts=4),
            span("something.new", "x", "r", 0.3, 0.2),
        )
    )
    assert book.rows["surrogate.generate"] == pytest.approx(0.3)
    assert book.rows[spans.UNATTRIBUTED] == pytest.approx(0.7)


def test_layer_shares_sum_to_one_within_one_percent():
    traces = [
        trace(
            f"t{i}",
            span("POST /v1/join", "r", None, 0.0, 1.0 + i),
            span("serve.queue_wait", "q", "r", 0.0, 0.1 * i),
            span("serve.batch_execute", "b", "r", 0.5, 0.4),
            span("orphan.child", "o", "dropped-parent", 0.95, 0.01),
        )
        for i in range(4)
    ]
    shares = spans.build_ledger(traces).layer_shares()
    assert sum(shares.values()) == pytest.approx(1.0, abs=0.01)
    assert shares[spans.UNATTRIBUTED] > 0.0


def test_unfinished_and_rootless_traces_are_skipped_or_rejected():
    unfinished = trace("u", span("POST /v1/join", "r", None, 0.0, None))
    assert spans.build_ledger([unfinished]).traces == []
    with pytest.raises(ValueError):
        spans.ledger(trace("n", span("a", "1", "0", 0.0, 1.0)))
