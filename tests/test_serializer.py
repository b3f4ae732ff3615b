"""Tests for the decomposer and prompt serializer (§4.1)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.serializer import Decomposer, PromptSerializer
from repro.exceptions import SerializationError
from repro.types import ExamplePair

clean = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126, exclude_characters="<>"),
    max_size=16,
)


class TestPromptSerializer:
    def test_paper_example(self, pm_examples):
        serializer = PromptSerializer()
        prompt = serializer.serialize(pm_examples[:2], "Jean Chretien")
        assert prompt == (
            "<sos>Justin Trudeau<tr>jtrudeau<eoe>"
            "Stephen Harper<tr>sharper<eoe>"
            "Jean Chretien<tr><eos>"
        )

    def test_parse_roundtrip(self, pm_examples):
        serializer = PromptSerializer()
        prompt = serializer.serialize(pm_examples, "Kim Campbell")
        context, query = serializer.parse(prompt)
        assert context == pm_examples
        assert query == "Kim Campbell"

    @given(st.lists(st.tuples(clean, clean), min_size=1, max_size=4), clean)
    @settings(max_examples=100)
    def test_roundtrip_arbitrary(self, pairs, query):
        serializer = PromptSerializer()
        context = [ExamplePair(s, t) for s, t in pairs]
        parsed_context, parsed_query = serializer.parse(
            serializer.serialize(context, query)
        )
        assert parsed_context == context
        assert parsed_query == query

    @pytest.mark.parametrize(
        "bad",
        [
            "no markers at all",
            "<sos>missing eos",
            "missing sos<eos>",
            "<sos>a<tr>b<eoe>c<eos>",  # query lacks trailing <tr>
            "<sos>a<eoe>b<tr><eos>",  # example lacks <tr>
        ],
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(SerializationError):
            PromptSerializer().parse(bad)


class TestDecomposer:
    def test_decompose_needs_enough_examples(self, pm_examples):
        with pytest.raises(SerializationError):
            Decomposer(context_size=5).decompose(["a"], pm_examples)

    def test_decompose_counts(self, pm_examples):
        decomposer = Decomposer(context_size=2, n_trials=5, seed=1)
        subtasks = decomposer.decompose(["a", "b"], pm_examples)
        assert len(subtasks) == 10
        assert {t.row_index for t in subtasks} == {0, 1}
        assert {t.trial for t in subtasks} == set(range(5))

    def test_contexts_have_distinct_examples(self, pm_examples):
        decomposer = Decomposer(context_size=2, n_trials=8, seed=2)
        for task in decomposer.decompose(["query"], pm_examples):
            assert task.context[0] != task.context[1]

    def test_deterministic_under_seed(self, pm_examples):
        a = Decomposer(seed=3).decompose(["q"], pm_examples)
        b = Decomposer(seed=3).decompose(["q"], pm_examples)
        assert a == b

    def test_different_rows_get_different_context_streams(self, pm_examples):
        decomposer = Decomposer(context_size=2, n_trials=4, seed=0)
        tasks = decomposer.decompose(["q1", "q2"], pm_examples)
        first = [t.context for t in tasks if t.row_index == 0]
        second = [t.context for t in tasks if t.row_index == 1]
        assert first != second

    def test_empty_pool_rejected(self):
        with pytest.raises(SerializationError):
            Decomposer().decompose(["q"], [])

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Decomposer(context_size=0)
        with pytest.raises(ValueError):
            Decomposer(n_trials=0)
