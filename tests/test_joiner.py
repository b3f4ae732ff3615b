"""Tests for the edit-distance joiner (Eq. 5)."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.join_config import JoinConfig
from repro.core.joiner import EditDistanceJoiner
from repro.exceptions import JoinError
from repro.index.joiner import IndexedJoiner
from repro.text.edit_distance import edit_distance
from repro.types import Prediction

short = st.text(alphabet="abcdef01", min_size=1, max_size=10)


class TestMatch:
    def test_exact_match(self):
        joiner = EditDistanceJoiner()
        value, distance = joiner.match("abc", ["xyz", "abc", "abd"])
        assert value == "abc"
        assert distance == 0

    def test_closest_match_wins(self):
        joiner = EditDistanceJoiner()
        value, distance = joiner.match("jchretien", ["jtrudeau", "jchretein", "kcampbell"])
        assert value == "jchretein"
        assert distance == 2

    def test_empty_prediction_unmatched(self):
        joiner = EditDistanceJoiner()
        assert joiner.match("", ["a"]) == (None, 0)

    def test_empty_target_column_rejected(self):
        with pytest.raises(JoinError):
            EditDistanceJoiner().match("abc", [])

    def test_max_distance_rejects_far_matches(self):
        joiner = EditDistanceJoiner(JoinConfig(max_distance=1))
        value, distance = joiner.match("aaaa", ["zzzz"])
        assert value is None
        assert distance == 4

    def test_normalized_threshold(self):
        joiner = EditDistanceJoiner(JoinConfig(normalized_threshold=0.25))
        value, _ = joiner.match("abcd", ["abce"])  # distance 1/4 = 0.25: kept
        assert value == "abce"
        value, _ = joiner.match("abcd", ["abzz"])  # 2/4 = 0.5: rejected
        assert value is None

    def test_tie_prefers_earlier_target(self):
        joiner = EditDistanceJoiner()
        value, _ = joiner.match("ab", ["ac", "ad"])
        assert value == "ac"

    def test_tie_break_deterministic_after_sentinel_simplification(self):
        # Regression for the removed "cannot happen" re-scan branch: the
        # sentinel always loses to the first candidate, so a column of
        # equidistant targets must deterministically yield row 0, and a
        # single far-away target must still be returned with its true
        # distance.
        joiner = EditDistanceJoiner()
        assert joiner.match("x", ["ax", "bx", "cx", "dx"]) == ("ax", 1)
        assert joiner.match("x", ["dx", "cx", "bx", "ax"]) == ("dx", 1)
        assert joiner.match("abc", ["zzzzzz"]) == ("zzzzzz", 6)
        # Duplicates of the winner do not perturb the choice.
        assert joiner.match("x", ["ax", "ax", "bx"]) == ("ax", 1)

    @pytest.mark.parametrize("joiner_type", [EditDistanceJoiner, IndexedJoiner])
    def test_reassigned_config_takes_effect(self, joiner_type):
        # The thresholds live only in ``config``: replacing it (the idiom
        # a serve worker uses for ``n_workers``) reconfigures the joiner.
        joiner = joiner_type()
        assert joiner.join_many(["abd"], ["abc", "xyz"]) == [("abc", 1)]
        joiner.config = dataclasses.replace(joiner.config, max_distance=0)
        assert joiner.join_many(["abd"], ["abc", "xyz"]) == [(None, 1)]
        assert joiner.match("abd", ["abc", "xyz"]) == (None, 1)
        joiner.config = dataclasses.replace(
            joiner.config, max_distance=None, normalized_threshold=0.2
        )
        assert joiner.match("abd", ["abc", "xyz"]) == (None, 1)
        assert joiner.topk_join_many(["abd"], ["abc", "xyz"])[0].matched is None

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            EditDistanceJoiner(JoinConfig(max_distance=-1))
        with pytest.raises(ValueError):
            EditDistanceJoiner(JoinConfig(normalized_threshold=-0.5))

    @given(short, st.lists(short, min_size=1, max_size=8))
    @settings(max_examples=150)
    def test_agrees_with_bruteforce_argmin(self, predicted, targets):
        joiner = EditDistanceJoiner()
        value, distance = joiner.match(predicted, targets)
        best = min(edit_distance(predicted, t) for t in targets)
        assert distance == best
        assert edit_distance(predicted, value) == best


class TestMatchMany:
    def test_bounds_filtering(self):
        joiner = EditDistanceJoiner()
        matches = joiner.match_many("abc", ["abc", "abd", "azz"], lower=0, upper=1)
        assert [m[0] for m in matches] == ["abc", "abd"]

    def test_lower_bound_excludes_exact(self):
        joiner = EditDistanceJoiner()
        matches = joiner.match_many("abc", ["abc", "abd"], lower=1, upper=1)
        assert [m[0] for m in matches] == ["abd"]

    def test_sorted_by_distance(self):
        joiner = EditDistanceJoiner()
        matches = joiner.match_many("abc", ["abz", "abc"], lower=0, upper=2)
        distances = [d for _, d in matches]
        assert distances == sorted(distances)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            EditDistanceJoiner().match_many("a", ["b"], lower=2, upper=1)

    @pytest.mark.parametrize(
        ("predicted", "lower", "upper"),
        [("a", -2, -1), ("", -2, -1), ("a", -1, 1), ("", -1, 0)],
    )
    def test_negative_bounds_rejected_at_the_door(self, predicted, lower, upper):
        # Checked before any scan: neither the DP's cap check nor the
        # empty-prediction shortcut may answer a negative bound.
        with pytest.raises(ValueError, match="0 <= lower <= upper"):
            EditDistanceJoiner().match_many(predicted, ["b"], lower, upper)

    def test_empty_prediction(self):
        assert EditDistanceJoiner().match_many("", ["a"], 0, 3) == []


class TestJoin:
    def test_join_builds_results(self):
        joiner = EditDistanceJoiner()
        predictions = [
            Prediction(source="s1", value="aaa"),
            Prediction(source="s2", value=""),
        ]
        results = joiner.join(predictions, ["aaa", "bbb"], expected=["aaa", "bbb"])
        assert results[0].correct
        assert results[1].matched is None
        assert not results[1].correct

    def test_join_expected_misaligned(self):
        joiner = EditDistanceJoiner()
        with pytest.raises(JoinError):
            joiner.join([Prediction(source="s", value="v")], ["t"], expected=[])
