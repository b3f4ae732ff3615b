"""The bag-distance filter: a proven lower bound, and joins it leaves intact.

``QGramIndex.bag_bounds`` orders the joiner's candidates and keeps a pair
above the cap from the kernel, so its one obligation is ``bound <= edit
distance``.  The oracle here is the scalar
:func:`repro.text.edit_distance.edit_distance`, which shares no code
with ``index/``.  The generated columns carry what
could break a histogram: astral characters, combining marks, lone
surrogates, empty strings, lengths on both sides of one 64-bit word,
probe characters the column never uses, and an alphabet wide enough
that bins fold.  A second oracle, ``collections.Counter``, pins the
bound to the exact bag distance whenever nothing folds.

The joiner-level case is an abbreviation column where the kernel never
sees most of the pairs the bound orders, checked against the brute scan.
"""

from __future__ import annotations

import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.join_config import JoinConfig
from repro.core.joiner import EditDistanceJoiner
from repro.datagen.benchmarks.journals import JOURNAL_TITLES, PROFILES
from repro.index.cache import IndexCache
from repro.index.joiner import IndexedJoiner
from repro.index.kernel import encode_strings
from repro.index.qgram import HISTOGRAM_BINS, QGramIndex
from repro.text.edit_distance import edit_distance

from join_strategies import CHARS, FOREIGN, WIDE, strings

def _bounds(index: QGramIndex, probes: list[str]) -> np.ndarray:
    """``(len(probes), len(index))`` bounds: every probe against every value."""
    probe_codes, probe_lengths = encode_strings(probes)
    n = len(index.values)
    probe_rep = np.repeat(np.arange(len(probes)), n)
    vids = np.tile(np.arange(n), len(probes))
    return index.bag_bounds(probe_codes, probe_lengths, probe_rep, vids).reshape(
        len(probes), n
    )


def _bag_distance(a: str, b: str) -> int:
    """Bartolini et al.'s bag distance over exact characters."""
    x, y = Counter(a), Counter(b)
    return max(sum((x - y).values()), sum((y - x).values()))


class TestBoundProperty:
    @pytest.mark.parametrize("dense", (True, False), ids=("matrix", "no_matrix"))
    @pytest.mark.parametrize("wide", (False, True), ids=("narrow", "folded"))
    @settings(max_examples=40, deadline=None)
    @given(
        column=st.lists(strings(CHARS), min_size=1, max_size=6),
        probes=st.lists(strings(CHARS + FOREIGN), min_size=1, max_size=5),
    )
    def test_bound_never_exceeds_the_scalar_distance(self, dense, wide, column, probes):
        if wide:
            column = [*column, WIDE]
            probes = [*probes, WIDE[::-1], WIDE[:40] + "z"]
        # A negative budget takes the no-matrix path, where batches are
        # encoded on demand; the histograms must not depend on it.
        budget = QGramIndex._DENSE_BUDGET if dense else -1
        with mock.patch.object(QGramIndex, "_DENSE_BUDGET", budget):
            index = QGramIndex(column)
        assert (index._codes is None) is not dense
        assert (len(set("".join(index.values))) > HISTOGRAM_BINS) is wide
        bounds = _bounds(index, probes)
        for i, probe in enumerate(probes):
            for j, value in enumerate(index.values):
                bag = _bag_distance(probe, value)
                assert 0 <= bounds[i, j] <= bag <= edit_distance(probe, value)
                if not wide:
                    # Nothing folds: the bound is the bag distance itself.
                    assert bounds[i, j] == bag, (probe, value)

    def test_empty_column_value_and_empty_probe(self):
        index = QGramIndex(["", "abc", "\U0001f600\u0301"])
        bounds = _bounds(index, ["", "ab", "\U0001f600"])
        assert bounds.tolist() == [[0, 3, 2], [2, 1, 2], [1, 3, 1]]

    def test_probe_counts_clip_instead_of_wrapping(self):
        # The longest value is 5, so histograms are uint8: a probe's 256
        # 'a's must clip, not wrap to 0 and share nothing.
        index = QGramIndex(["aaaaa", "ab"])
        assert index.histograms.dtype == np.uint8
        assert _bounds(index, ["a" * 256]).tolist() == [[251, 255]]


def _abbreviation_column():
    """``(targets, probes)``: titles, and abbreviations of some of them.

    Abbreviations share word prefixes with many titles but few
    characters by count with most, which is the bound's home ground.
    """
    rng = random.Random(30)
    words = sorted({word for title in JOURNAL_TITLES for word in title.split()})
    targets = list(JOURNAL_TITLES)
    seen = set(targets)
    while len(targets) < 300:
        title = " ".join(rng.choice(words) for _ in range(rng.randint(2, 5)))
        if title not in seen:
            seen.add(title)
            targets.append(title)
    noise = np.random.default_rng(30)
    profiles = list(PROFILES.values())
    probes = [
        profiles[i % len(profiles)](targets[rng.randrange(len(targets))], noise)
        for i in range(16)
    ]
    return targets, probes


class TestJoinerOnAbbreviations:
    @pytest.fixture(scope="class")
    def column(self):
        targets, probes = _abbreviation_column()
        brute = EditDistanceJoiner(JoinConfig())
        want = {
            "join_many": brute.join_many(probes, targets),
            "topk_many": brute.topk_many(probes, targets, k=3),
            "reverse_many": brute.reverse_many(probes, targets),
        }
        return targets, probes, want

    @staticmethod
    def _queries(joiner, targets, probes):
        return {
            "join_many": joiner.join_many(probes, targets),
            "topk_many": joiner.topk_many(probes, targets, k=3),
            "reverse_many": joiner.reverse_many(probes, targets),
        }

    def test_serial_matches_brute_and_the_bound_settles_most_pairs(
        self, column, monkeypatch
    ):
        # Every candidate pair is bounded before any is swept; the
        # bound orders them and keeps the kernel off most.
        targets, probes, want = column
        joiner = IndexedJoiner(cache=IndexCache())
        offered = []
        inner = QGramIndex.bag_bounds

        def counting(self, codes, lengths, rep, vids):
            offered.append(vids.size)
            return inner(self, codes, lengths, rep, vids)

        monkeypatch.setattr(QGramIndex, "bag_bounds", counting)
        assert joiner.join_many(probes, targets) == want["join_many"]
        swept = sum(dict(joiner.last_join_stats.kernel_pairs).values())
        assert 2 * swept < sum(offered), (swept, sum(offered))
        got = self._queries(joiner, targets, probes)
        for query in want:
            assert got[query] == want[query], query
