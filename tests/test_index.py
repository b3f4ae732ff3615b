"""Property/fuzz tests for the blocked-join kernel and q-gram index.

One seeded harness generates a few thousand random unicode string pairs
(half derived by a known number of edits so small distances are well
represented) and checks:

* ``edit_distance_capped`` agrees with ``edit_distance`` whenever the
  true distance is within the cap, and exceeds the cap otherwise;
* the batched numpy kernel ``edit_distance_pairs`` agrees with the
  scalar capped DP on every pair;
* ``QGramIndex.candidates_many`` is complete — every value within the
  cap is in the candidate set — for arbitrary columns with duplicates
  and empty strings.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.index.kernel import edit_distance_pairs, encode_strings
from repro.index.qgram import QGramIndex
from repro.text.edit_distance import edit_distance, edit_distance_capped

from fuzz import FUZZ_ALPHABET, random_edits, random_unicode_string

_SEED = 20260728


def _score_one(query: str, candidates: list[str], cap: int) -> np.ndarray:
    """One query against ``candidates`` through the pair door: ``p = 1``."""
    query_rows, query_lengths = encode_strings([query])
    cand_codes, cand_lengths = encode_strings(candidates)
    ids = np.zeros(len(candidates), dtype=np.int64)
    return edit_distance_pairs(
        query_rows, query_lengths, ids, cand_codes, cand_lengths, cap
    )


def _candidates(index: QGramIndex, query: str, cap: int) -> np.ndarray:
    """One query's candidate ids: a one-probe call."""
    return index.candidates_many([query], cap)[0]


def _pair_stream(rng: random.Random, count: int):
    """Yield ``(a, b, cap)`` with a mix of near and far pairs."""
    for _ in range(count):
        a = random_unicode_string(rng)
        if rng.random() < 0.5:
            b = random_edits(rng, a, rng.randint(0, 4))
        else:
            b = random_unicode_string(rng)
        yield a, b, rng.randint(0, 7)


class TestCappedFuzz:
    def test_capped_agrees_with_exact(self):
        rng = random.Random(_SEED)
        for a, b, cap in _pair_stream(rng, 3000):
            exact = edit_distance(a, b)
            capped = edit_distance_capped(a, b, cap)
            if exact <= cap:
                assert capped == exact, (a, b, cap)
            else:
                assert capped > cap, (a, b, cap)


class TestBatchedKernel:
    def test_agrees_with_scalar_fuzz(self):
        rng = random.Random(_SEED + 1)
        for _ in range(150):
            query = random_unicode_string(rng)
            candidates = [
                random_edits(rng, query, rng.randint(0, 4))
                if rng.random() < 0.6
                else random_unicode_string(rng)
                for _ in range(rng.randint(1, 24))
            ]
            cap = rng.randint(0, 7)
            batched = _score_one(query, candidates, cap)
            for got, candidate in zip(batched, candidates):
                scalar = edit_distance_capped(query, candidate, cap)
                expected = scalar if scalar <= cap else cap + 1
                assert got == expected, (query, candidate, cap)

    def test_empty_candidate_list(self):
        result = _score_one("abc", [], 3)
        assert result.shape == (0,)
        assert result.dtype == np.int64

    def test_empty_query_and_empty_candidates(self):
        assert list(_score_one("", ["", "ab", "abcd"], 3)) == [0, 2, 4]
        assert list(_score_one("xy", ["", "xy"], 5)) == [2, 0]

    def test_over_cap_clamps_to_cap_plus_one(self):
        assert list(_score_one("aaaa", ["zzzz", "aaab"], 2)) == [3, 1]

    def test_cap_zero(self):
        assert list(_score_one("ab", ["ab", "ac"], 0)) == [0, 1]

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            _score_one("a", ["b"], -1)

    def test_astral_plane_characters(self):
        # Each emoji is one code point; the kernel must not split
        # surrogates or let the pad value collide with real characters.
        assert list(_score_one("\U0001F600x", ["\U0001F600x", "x"], 3)) == [0, 1]

    def test_lone_surrogates_match_scalar_path(self):
        # Lone surrogates (surrogateescape artifacts) are rejected by a
        # strict UTF-32 encode; encode_strings passes them through as
        # their own code points, so the kernel agrees with the scalar
        # DP, which compares characters directly.
        probe = "alph\ud800a"
        candidates = ["alpha", "alph\ud800a", "\udc80\udc80", ""]
        got = _score_one(probe, candidates, 6)
        expected = [
            min(edit_distance_capped(probe, c, 6), 7) for c in candidates
        ]
        assert list(got) == expected


class TestEncodeStrings:
    def test_shapes_and_padding(self):
        codes, lengths = encode_strings(["ab", "", "abcd"])
        assert codes.shape == (3, 4)
        assert list(lengths) == [2, 0, 4]
        assert codes[0, 0] == ord("a")
        # Padding is outside the unicode range.
        assert codes[1, 0] > 0x10FFFF

    def test_all_empty(self):
        codes, lengths = encode_strings(["", ""])
        assert codes.shape == (2, 0)
        assert list(lengths) == [0, 0]
        assert list(_score_one("ab", ["", ""], 5)) == [2, 2]


class TestQGramIndex:
    def test_candidates_complete_fuzz(self):
        rng = random.Random(_SEED + 2)
        for _ in range(120):
            targets = [
                random_unicode_string(rng, max_length=10)
                for _ in range(rng.randint(1, 40))
            ]
            # Force duplicates and empties into the column.
            targets += [rng.choice(targets) for _ in range(rng.randint(0, 4))]
            targets += [""] * rng.randint(0, 2)
            rng.shuffle(targets)
            index = QGramIndex(targets, q=rng.choice((2, 3)))
            query = (
                random_edits(rng, rng.choice(targets), rng.randint(0, 3))
                if rng.random() < 0.6
                else random_unicode_string(rng)
            )
            cap = rng.randint(0, 6)
            candidate_ids = set(_candidates(index, query, cap).tolist())
            for vid, value in enumerate(index.values):
                if edit_distance(query, value) <= cap:
                    assert vid in candidate_ids, (query, value, cap, targets)

    def test_vacuous_bound_returns_all_length_compatible(self):
        index = QGramIndex(["ab", "abcdefgh", "x"], q=2)
        # len(query)=1 < q: the count filter is vacuous; only the
        # length filter applies.
        ids = _candidates(index, "z", 1)
        assert [index.values[i] for i in ids] == ["ab", "x"]

    def test_duplicates_collapse_to_one_value(self):
        index = QGramIndex(["dup", "other", "dup", "dup"], q=2)
        assert len(index) == 2
        vid = index.value_id("dup")
        assert index.first_rows[vid] == 0

    def test_value_id_exact_lookup(self):
        index = QGramIndex(["alpha", "beta"], q=2)
        assert index.value_id("beta") == 1
        assert index.value_id("gamma") is None

    def test_candidates_ascending_and_deterministic(self):
        targets = [f"row{i:03d}" for i in range(50)]
        index = QGramIndex(targets, q=2)
        ids = _candidates(index, "row01", 2)
        assert list(ids) == sorted(ids.tolist())
        assert list(ids) == list(_candidates(index, "row01", 2))

    def test_no_shared_grams_means_no_candidates(self):
        index = QGramIndex(["aaaa", "bbbb"], q=2)
        assert _candidates(index, "zzzz", 1).size == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            QGramIndex(["a"], q=0)
        with pytest.raises(ValueError):
            _candidates(QGramIndex(["a"], q=2), "a", -1)

    def test_alphabet_exercises_multiple_planes(self):
        # Guard: the fuzz alphabet really covers BMP and astral planes.
        assert any(ord(ch) > 0xFFFF for ch in FUZZ_ALPHABET)
        assert any(0x7F < ord(ch) <= 0xFFFF for ch in FUZZ_ALPHABET)


def _reference_postings(values: list[str], q: int) -> dict[str, list[int]]:
    """Dict-of-lists postings keyed on the gram strings themselves."""
    postings: dict[str, list[int]] = {}
    for vid, value in enumerate(values):
        for i in range(len(value) - q + 1):
            postings.setdefault(value[i : i + q], []).append(vid)
    return postings


def _reference_candidates(
    targets: list[str], queries: list[str], q: int, cap: int
) -> list[np.ndarray]:
    """Length and count filters over :func:`_reference_postings`."""
    values = list(dict.fromkeys(targets))
    postings = _reference_postings(values, q)
    lengths = np.array([len(v) for v in values], dtype=np.int64)
    out = []
    for query in queries:
        admitted = np.abs(lengths - len(query)) <= cap
        bound = (len(query) - q + 1) - cap * q
        if bound > 0:
            counts = np.zeros(len(values), dtype=np.int64)
            for gram in {query[i : i + q] for i in range(len(query) - q + 1)}:
                for vid in postings.get(gram, ()):
                    counts[vid] += 1
            admitted &= counts >= bound
        out.append(np.flatnonzero(admitted))
    return out


def _wide_column() -> tuple[list[str], list[str]]:
    """10 000 values over 60 000 distinct CJK code points (BMP and astral)."""
    rng = random.Random(_SEED + 5)
    wide = [chr(0x4E00 + i) for i in range(20_000)]
    wide += [chr(0x20000 + i) for i in range(40_000)]
    targets = ["".join(wide[i : i + 6]) for i in range(0, len(wide), 6)]
    queries = [
        random_edits(rng, rng.choice(targets), rng.randint(0, 2), "".join(wide[:40]))
        for _ in range(40)
    ]
    return targets, queries


def _hostile_column() -> tuple[list[str], list[str]]:
    """Lone surrogates, astral and combining characters, duplicates, empties."""
    rng = random.Random(_SEED + 6)
    chars = ["a", "b", " ", "\ud800", "\udfff", "\U0001f600", "\U00010348", "\u0301"]
    targets = ["".join(rng.choices(chars, k=rng.randint(0, 9))) for _ in range(80)]
    targets += targets[:10] + ["", ""]
    # Probes also use characters the column lacks, above and below its top.
    foreign = chars + ["z", "\U0010ffff", "\ud801"]
    queries = ["".join(rng.choices(foreign, k=rng.randint(0, 11))) for _ in range(40)]
    return targets, [*queries, "", *targets[:5]]


class TestPostingsCSR:
    """The sorted CSR postings against a dict built from gram strings."""

    @pytest.mark.parametrize(
        ("column", "q"),
        [
            (_wide_column, 4),
            (_hostile_column, 1),
            (_hostile_column, 2),
            (_hostile_column, 3),
            # Longer than every value: the column has no gram at all.
            (_hostile_column, 12),
        ],
    )
    def test_candidates_equal_the_dict_reference(self, column, q):
        targets, queries = column()
        index = QGramIndex(targets, q=q)
        postings = _reference_postings(index.values, q)
        # One key per distinct gram, ascending, and every occurrence kept.
        assert index.gram_keys.size == len(postings)
        assert list(index.gram_keys) == sorted(index.gram_keys)
        assert index.vids.size == sum(map(len, postings.values()))
        assert sorted(np.diff(index.indptr).tolist()) == sorted(
            map(len, postings.values())
        )
        for cap in range(9):
            got = index.candidates_many(queries, cap)
            want = _reference_candidates(targets, queries, q, cap)
            for query, a, b in zip(queries, got, want):
                assert np.array_equal(a, b), (query, cap)

    def test_wide_alphabet_keys_stay_exact_past_2_63(self):
        targets, _ = _wide_column()
        index = QGramIndex(targets, q=4)
        radix = len(set("".join(targets))) + 1
        # Base ** q alone passes int64, and so do the column's own keys.
        assert radix**4 >= 2**63
        assert index.gram_keys.dtype == object
        assert max(index.gram_keys) >= 2**63
        # A value's own grams all find it, at the tightest cap.
        for vid in (0, 1, len(index) - 1):
            ids = index.candidates_many([index.values[vid]], 0)[0]
            assert ids.tolist() == [vid]
