"""Tests for Levenshtein edit distance, including property-based checks."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.edit_distance import (
    edit_distance,
    edit_distance_capped,
    normalized_edit_distance,
)

short_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=24
)


class TestEditDistance:
    @pytest.mark.parametrize(
        ("a", "b", "expected"),
        [
            ("", "", 0),
            ("a", "", 1),
            ("", "abc", 3),
            ("abc", "abc", 0),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("intention", "execution", 5),
            ("abc", "cba", 2),
            ("Hello", "olleH", 4),
        ],
    )
    def test_known_distances(self, a, b, expected):
        assert edit_distance(a, b) == expected

    def test_unicode(self):
        assert edit_distance("café", "cafe") == 1

    @given(short_text, short_text)
    @settings(max_examples=150)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @given(short_text)
    @settings(max_examples=50)
    def test_identity(self, a):
        assert edit_distance(a, a) == 0

    @given(short_text, short_text)
    @settings(max_examples=100)
    def test_bounds(self, a, b):
        distance = edit_distance(a, b)
        assert abs(len(a) - len(b)) <= distance <= max(len(a), len(b))

    @given(short_text, short_text, short_text)
    @settings(max_examples=80)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    @given(short_text, short_text, st.characters(min_codepoint=32, max_codepoint=126))
    @settings(max_examples=80)
    def test_single_append_changes_by_at_most_one(self, a, b, ch):
        base = edit_distance(a, b)
        assert abs(edit_distance(a + ch, b) - base) <= 1

    def test_seeded_fuzz_matches_banded_scalar_dp(self):
        # The pure-Python banded DP with a vacuous cap is an independent
        # implementation of the same recurrence.
        rng = random.Random(4242)
        alphabet = "abcAB .-é漢\U0001F600\U00010348\ud800\udfff"
        for _ in range(400):
            a = "".join(
                rng.choice(alphabet) for _ in range(rng.choice((0, 1, 3, 9, 40)))
            )
            b = list(a)
            for _ in range(rng.randint(0, 6)):
                pos = rng.randint(0, len(b))
                if b and rng.random() < 0.5:
                    b.pop(min(pos, len(b) - 1))
                else:
                    b.insert(pos, rng.choice(alphabet))
            b = "".join(b) if rng.random() < 0.9 else ""
            want = edit_distance_capped(a, b, cap=len(a) + len(b))
            assert edit_distance(a, b) == want, (a, b)
            assert edit_distance(b, a) == want, (b, a)


class TestEditDistanceCapped:
    @given(short_text, short_text, st.integers(min_value=0, max_value=30))
    @settings(max_examples=200)
    def test_agrees_with_exact_within_cap(self, a, b, cap):
        exact = edit_distance(a, b)
        capped = edit_distance_capped(a, b, cap)
        if exact <= cap:
            assert capped == exact
        else:
            assert capped > cap

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError):
            edit_distance_capped("a", "b", -1)

    def test_early_exit_on_length_gap(self):
        assert edit_distance_capped("a" * 50, "a", 3) == 4


class TestNormalizedEditDistance:
    def test_normalizes_by_target_length(self):
        assert normalized_edit_distance("ab", "abcd") == pytest.approx(0.5)

    def test_empty_target_uses_prediction_length(self):
        assert normalized_edit_distance("abc", "") == pytest.approx(1.0)

    def test_both_empty(self):
        assert normalized_edit_distance("", "") == 0.0

    def test_can_exceed_one(self):
        # Predictions longer than the target can exceed 1.0 (as in the
        # paper's Syn-RV row where ANED approaches 0.85 on average).
        assert normalized_edit_distance("aaaa", "b") == 4.0
