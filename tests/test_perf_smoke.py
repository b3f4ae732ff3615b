"""Perf-smoke guards for the blocked join engine and the inference encoder.

Deliberately generous budgets — wall-clock for the join (the indexed
join on 5k targets typically finishes in well under a second), traced
bytes for the encoder and the pair sweep — so genuine regressions — e.g.
the index silently degenerating to a full scan per query, the batched
kernel falling back to scalar work, a copy of the probe riding along
with every candidate pair, or inference holding activations for a
backward pass that never comes — surface in tier-1 runs without
flakiness on slow machines.  Deselect with ``-m 'not slow'``.
"""

from __future__ import annotations

import random
import time
import tracemalloc

import numpy as np
import pytest
from repro.utils.fuzz import random_edits, random_unicode_string

from repro.index import IndexedJoiner, QGramIndex
from repro.index.kernel import encode_strings
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


def _pair_sweep_peak(index: QGramIndex, query_length: int) -> int:
    """Traced peak bytes of one 2-probe ``_pair_distances`` call over the column."""
    rng = random.Random(query_length)
    probes = [
        "".join(rng.choice("abcdefghij ") for _ in range(query_length))
        for _ in range(2)
    ]
    probe_codes, probe_lengths = encode_strings(probes)
    n_values = len(index.values)
    vids = np.tile(np.arange(n_values), 2)
    probe_rep = np.repeat(np.arange(2), n_values)
    joiner = IndexedJoiner()
    # A vacuous cap keeps every pair in the length window: all of them
    # are swept, none settles early.
    cap = 2 * query_length
    # numpy imports a few helpers lazily on the first call that needs
    # them (~1 MiB, once per process): not the sweep's memory.
    joiner._pair_distances(
        probe_codes, probe_lengths, probe_rep[:1], vids[:1], index, cap
    )
    tracemalloc.start()
    try:
        distances = joiner._pair_distances(
            probe_codes, probe_lengths, probe_rep, vids, index, cap
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert distances.size == vids.size
    assert int(distances.min()) > 0
    return peak


@pytest.mark.slow
def test_pair_sweep_memory_does_not_carry_a_query_copy_per_pair(monkeypatch):
    # 2 probes x 20 000 values = 40 000 pairs.  The kernel takes the
    # probe table and one id per pair; when it took one *copy of the
    # probe's code row* per pair (and sorted that matrix to find the
    # distinct probes again) the peak of this call grew by 537 KiB from
    # m = 40 to m = 64 — 4 * m bytes per pair per chunk, twice over.
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "bitparallel")
    rng = random.Random(7)
    index = QGramIndex(
        [
            "".join(rng.choice("abcdefghij ") for _ in range(40)) + f"{i:05d}"
            for i in range(20_000)
        ],
        q=2,
    )
    n_pairs = 2 * len(index.values)
    peak_40 = _pair_sweep_peak(index, 40)
    peak_64 = _pair_sweep_peak(index, 64)
    kib = 1024
    assert abs(peak_64 - peak_40) < 16 * kib, (peak_40, peak_64)
    # What the call may hold: four n-sized int64 vectors (distances,
    # cumulative cells and the length gathers behind them), and per
    # chunk of _PAIR_CELL_BUDGET cells three uint32 copies of the
    # candidate block (gathered by the joiner, re-gathered longest
    # first, transposed) and the int32 symbol-id matrix — 16 bytes a
    # cell where the same-length sweep held 24 — plus the sweep's ten
    # uint64 words a pair (a chunk is ~46-cell pairs here).
    cells = IndexedJoiner._PAIR_CELL_BUDGET
    budget = 4 * 8 * n_pairs + (3 * 4 + 4) * cells + 10 * 8 * (cells // 46) + 64 * kib
    assert peak_40 < budget, f"pair sweep peaked at {peak_40 / kib:.0f} KiB"
