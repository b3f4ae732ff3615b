"""Perf-smoke guards for the blocked join engine and the inference encoder.

Deliberately generous budgets — wall-clock for the join (the indexed
join on 5k targets typically finishes in well under a second), traced
bytes for the encoder — so genuine regressions — e.g. the index silently
degenerating to a full scan per query, the batched kernel falling back
to scalar work, or inference holding activations for a backward pass
that never comes — surface in tier-1 runs without flakiness on slow
machines.  Deselect with ``-m 'not slow'``.
"""

from __future__ import annotations

import random
import time
import tracemalloc

import numpy as np
import pytest
from repro.utils.fuzz import random_edits, random_unicode_string

from repro.index import IndexedJoiner
from repro.model import ByteSeq2SeqModel

_TARGET_ROWS = 5000
_QUERIES = 40
_BUDGET_SECONDS = 15.0


@pytest.mark.slow
def test_indexed_join_on_5k_targets_stays_within_budget():
    rng = random.Random(1234)
    targets = [
        random_unicode_string(rng, max_length=18, min_length=6)
        for _ in range(_TARGET_ROWS)
    ]
    queries = [
        random_edits(rng, rng.choice(targets), rng.randint(0, 3))
        for _ in range(_QUERIES)
    ]
    joiner = IndexedJoiner()
    started = time.perf_counter()
    for query in queries:
        matched, distance = joiner.match(query, targets)
        assert matched is not None
        assert distance <= 3 + 18  # sanity, not the point of the guard
    elapsed = time.perf_counter() - started
    assert elapsed < _BUDGET_SECONDS, (
        f"indexed join took {elapsed:.2f}s for {_QUERIES} queries over "
        f"{_TARGET_ROWS} targets (budget {_BUDGET_SECONDS}s)"
    )


@pytest.mark.slow
def test_inference_encode_peak_memory_and_nothing_retained():
    # One (64, 192) encode of the benchmark's model shape (the default
    # config).  The training forward peaks at 637 MiB here and leaves
    # 481 MiB in module caches; the no-grad forward measures 108 MiB
    # and leaves nothing.
    network = ByteSeq2SeqModel().network
    ids = np.random.default_rng(0).integers(4, 200, size=(64, 192))
    mask = np.ones(ids.shape)
    mib = 1024 * 1024
    tracemalloc.start()
    try:
        memory = network.infer_encode(ids, mask)
        del memory
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200 * mib, f"inference encode peaked at {peak / mib:.0f} MiB"
    assert held < mib, f"{held / mib:.1f} MiB still allocated after encode"
