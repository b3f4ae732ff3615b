"""Perf-smoke guards for the blocked join engine and the inference encoder.

Deliberately generous budgets — wall-clock for the join (the indexed
join on 5k targets typically finishes in well under a second), traced
bytes for the encoder, the pair sweep and the index build, and a
throughput floor a third of the recorded median for the bit-parallel
pair sweep — so genuine regressions — e.g. the index silently
degenerating to a full scan per query, the batched kernel falling back
to scalar work, a copy of the probe riding along with every candidate
pair, an index build padded to its longest value, or inference holding
activations for a backward pass that never comes — surface in tier-1
runs without flakiness on slow machines.  Deselect with
``-m 'not slow'``.
"""

from __future__ import annotations

import random
import time
import tracemalloc

import numpy as np
import pytest

from repro.datagen.benchmarks.journals import JOURNAL_TITLES
from repro.index.joiner import IndexedJoiner
from repro.index.kernel import encode_strings
from repro.index.kernels import get_backend
from repro.index.qgram import QGramIndex
from repro.model.seq2seq import ByteSeq2SeqModel

from fuzz import random_edits, random_unicode_string
from timing import check_floor, median_seconds

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


# Traced peak of one index build, in bytes per code point of the column:
# measured at 47 (numpy 2.4, q = 2 and 4) on the column below; the budget
# is twice that, rounded up.
_BUILD_BYTES_PER_CODE_POINT = 96


@pytest.mark.slow
def test_index_build_memory_is_flat_in_code_points():
    # 2 000 short values and one 1 MiB cell.  The build works on the
    # column's code points laid end to end; a matrix padded to the longest
    # value (2 001 x 2**20 uint32 cells, 8 GiB) would pass the budget
    # thousands of times over.
    rng = random.Random(11)
    column = [
        random_unicode_string(rng, max_length=16, min_length=4) for _ in range(2000)
    ]
    column.append("".join(rng.choices("abcdefghij ", k=1 << 20)))
    code_points = sum(map(len, column))
    # numpy imports a few helpers lazily on first use: not the build's memory.
    QGramIndex(column[:10], q=2)
    for q in (2, 4):
        tracemalloc.start()
        try:
            index = QGramIndex(column, q=q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert index.vids.size == code_points - (q - 1) * len(column)
        per_code_point = peak / code_points
        assert per_code_point < _BUILD_BYTES_PER_CODE_POINT, per_code_point


# The pair sweep's throughput floor, on one wide stratum's chunk of the
# JAB shape: 20 noised probes of m = 27 (one 64-bit word) against a
# journal-title column scaled to 4 000 rows, 100 candidates each from
# the cap's length window, cap 2 — 2 000 pairs.  An absolute rate, not
# a ratio over the reference DP: the oracle is kept plain on purpose, so
# a ratio over it moves when the oracle does.
_SWEEP_SEED = 31
_SWEEP_COLUMN_ROWS = 4000
_SWEEP_M, _SWEEP_CAP = 27, 2
_SWEEP_PROBES, _SWEEP_PER_PROBE = 20, 100
# Recorded median 0.96 Mpairs/s (the 2-core host: the middle of three
# full sweeps reading 0.67 / 0.96 / 1.04, beside ten smoke readings of
# 0.67-1.35); the floor is one third of it.
_MIN_MPAIRS_PER_S = 0.32


def _scaled_titles(rng: np.random.Generator, n_rows: int) -> list[str]:
    """The canonical titles, scaled past the real pool from their own words."""
    vocabulary = sorted({word for title in JOURNAL_TITLES for word in title.split()})
    titles = list(JOURNAL_TITLES)
    seen = set(titles)
    while len(titles) < n_rows:
        n_words = int(rng.integers(2, 6))
        picks = rng.integers(0, len(vocabulary), size=n_words)
        title = " ".join(vocabulary[int(i)] for i in picks)
        if title not in seen:
            seen.add(title)
            titles.append(title)
    return titles[:n_rows]


def _sweep_chunk(rng: np.random.Generator, values: list[str]) -> tuple:
    """One pair-door call: what ``IndexedJoiner._pair_distances`` hands the kernel.

    Each probe scores its own (noised) base value plus other values drawn
    from the cap's length window around ``_SWEEP_M``; ids come in
    ascending runs.
    """
    m, cap = _SWEEP_M, _SWEEP_CAP
    window = [value for value in values if abs(len(value) - m) <= cap]
    probes, candidates = [], []
    for _ in range(_SWEEP_PROBES):
        base = window[int(rng.integers(0, len(window)))]
        chars = list(base[:m].ljust(m, "x"))
        for _ in range(int(rng.integers(0, cap + 1))):
            letter = chr(ord("a") + int(rng.integers(0, 26)))
            chars[int(rng.integers(0, m))] = letter  # letter drawn first
        probes.append("".join(chars))
        others = rng.integers(0, len(window), size=_SWEEP_PER_PROBE - 1)
        candidates += [base, *(window[int(i)] for i in others)]
    query_rows, query_lengths = encode_strings(probes)
    query_ids = np.repeat(np.arange(_SWEEP_PROBES), _SWEEP_PER_PROBE)
    cand_codes, cand_lengths = encode_strings(candidates)
    return query_rows, query_lengths, query_ids, cand_codes, cand_lengths


@pytest.mark.slow
def test_bitparallel_pair_sweep_floor():
    # Seed offsets as first recorded: the column draws from seed + 1,
    # the chunk from seed + the probe count.
    rng = np.random.default_rng(_SWEEP_SEED + 1)
    values = _scaled_titles(rng, _SWEEP_COLUMN_ROWS)
    chunk = _sweep_chunk(np.random.default_rng(_SWEEP_SEED + _SWEEP_PROBES), values)
    bitparallel = get_backend("bitparallel")
    # Equivalence before any clock is trusted.
    want = get_backend("reference").edit_distance_pairs(*chunk, _SWEEP_CAP)
    got = bitparallel.edit_distance_pairs(*chunk, _SWEEP_CAP)
    assert np.array_equal(got, want)
    seconds = median_seconds(
        lambda: bitparallel.edit_distance_pairs(*chunk, _SWEEP_CAP)
    )
    n_pairs = _SWEEP_PROBES * _SWEEP_PER_PROBE
    mpairs_per_s = n_pairs / seconds / 1e6
    check_floor("mpairs_per_s", mpairs_per_s, _MIN_MPAIRS_PER_S)
