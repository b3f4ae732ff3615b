"""Tests for prediction aggregation (Eq. 3-4) and the §5.7 ensemble pool."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregator import Aggregator
from repro.core.pipeline import DTTPipeline
from repro.text.edit_distance import normalized_edit_distance


def _reference_break_ties(tied: list[str], all_candidates: list[str]) -> str:
    """The pre-memoization O(n²) tie-break, kept as the oracle."""

    def consensus_score(value: str) -> float:
        distances = [
            normalized_edit_distance(value, other)
            for other in all_candidates
            if other != value
        ]
        if not distances:
            return 0.0
        return -sum(distances) / len(distances)

    order = {value: all_candidates.index(value) for value in tied}
    return max(tied, key=lambda v: (consensus_score(v), -order[v]))


class _StaticModel:
    """A SequenceModel returning a fixed answer for every prompt."""

    def __init__(self, answer: str, name: str = "static") -> None:
        self._answer = answer
        self._name = name

    @property
    def name(self) -> str:
        return self._name

    def generate(self, prompts):
        return [self._answer for _ in prompts]


class TestAggregator:
    def test_majority_wins(self):
        prediction = Aggregator().aggregate("s", ["a", "b", "a", "a", "c"])
        assert prediction.value == "a"
        assert prediction.votes == 3

    def test_empty_candidates_abstain(self):
        prediction = Aggregator().aggregate("s", [])
        assert prediction.value == ""

    def test_all_empty_candidates_abstain(self):
        prediction = Aggregator().aggregate("s", ["", "", ""])
        assert prediction.value == ""

    def test_empties_never_beat_content(self):
        prediction = Aggregator().aggregate("s", ["", "", "", "x"])
        assert prediction.value == "x"

    def test_tie_broken_towards_consensus(self):
        # 'abcd' ties with 'zzzz' at 2 votes each, but 'abce' is close
        # to 'abcd', so 'abcd' has the higher consensus.
        candidates = ["abcd", "abcd", "zzzz", "zzzz", "abce"]
        prediction = Aggregator().aggregate("s", candidates)
        assert prediction.value == "abcd"

    def test_deterministic_tie_break(self):
        a = Aggregator().aggregate("s", ["x", "y"])
        b = Aggregator().aggregate("s", ["x", "y"])
        assert a.value == b.value

    def test_candidates_preserved(self):
        prediction = Aggregator().aggregate("s", ["a", "b"])
        assert prediction.candidates == ("a", "b")

    @given(
        st.lists(
            st.sampled_from(["ab", "abc", "abd", "xyz", "xzy", "q"]),
            min_size=2,
            max_size=14,
        )
    )
    @settings(max_examples=150)
    def test_memoized_tie_break_matches_reference(self, candidates):
        # The memoized consensus scoring (pairwise distance cache +
        # first-occurrence map) must pick the same winner as the
        # original repeated-scan implementation on any multiset.
        counts = Counter(candidates)
        best_count = max(counts.values())
        tied = [v for v, c in counts.items() if c == best_count]
        got = Aggregator()._break_ties(tied, candidates)
        assert got == _reference_break_ties(tied, candidates)

    @given(st.lists(st.sampled_from(["a", "b", "c", ""]), min_size=1, max_size=12))
    @settings(max_examples=100)
    def test_winner_has_max_votes(self, candidates):
        prediction = Aggregator().aggregate("s", candidates)
        non_empty = [c for c in candidates if c]
        if not non_empty:
            assert prediction.value == ""
        else:
            max_count = max(non_empty.count(v) for v in set(non_empty))
            assert non_empty.count(prediction.value) == max_count


class TestPredict:
    """``DTTPipeline.predict`` pools every model's trials per prompt."""

    def test_pools_model_outputs(self):
        pipeline = DTTPipeline([_StaticModel("a", "m1"), _StaticModel("b", "m2")])
        candidates, _ = pipeline.predict([["p1", "p2"]])
        assert candidates == [[["a", "b"], ["a", "b"]]]

    def test_name_joins_models(self):
        pipeline = DTTPipeline([_StaticModel("a", "m1"), _StaticModel("b", "m2")])
        assert pipeline.name == "DTT[m1+m2]"

    def test_requires_models(self):
        with pytest.raises(ValueError):
            DTTPipeline([])

    def test_consistent_model_dominates_vote(self):
        # Two trials per model via pooled candidates: the self-consistent
        # model's answer should win the aggregate (paper §5.7).
        aggregator = Aggregator()
        pooled = ["same", "same", "same", "noise1", "noise2", "noise3"]
        assert aggregator.aggregate("s", pooled).value == "same"
