"""Tests for the knowledge base."""

from __future__ import annotations

import pytest

from repro.exceptions import KnowledgeBaseError
from repro.kb.builtin import build_default_kb
from repro.kb.store import KnowledgeBase, Relation, knows_fact


class TestRelation:
    def test_lookup(self):
        relation = Relation("r", {"a": "1", "b": "2"})
        assert relation.lookup("a") == "1"
        assert relation.lookup("missing") is None

    def test_len(self):
        assert len(Relation("r", {"a": "1"})) == 1


class TestKnowledgeBase:
    def test_duplicate_relation_rejected(self):
        kb = KnowledgeBase()
        kb.add_relation(Relation("r"))
        with pytest.raises(KnowledgeBaseError):
            kb.add_relation(Relation("r"))

    def test_unknown_relation(self):
        with pytest.raises(KnowledgeBaseError):
            KnowledgeBase().relation("nope")

    def test_find_relation(self):
        kb = KnowledgeBase()
        kb.add_relation(Relation("r1", {"a": "1"}))
        kb.add_relation(Relation("r2", {"a": "1", "b": "2"}))
        assert kb.find_relation("a", "1") == ["r1", "r2"]
        assert kb.find_relation("b", "2") == ["r2"]

    def test_infer_from_examples_unique(self):
        kb = KnowledgeBase()
        kb.add_relation(Relation("r1", {"a": "1", "b": "2"}))
        relation = kb.infer_from_examples([("a", "1"), ("b", "2")])
        assert relation is not None and relation.name == "r1"

    def test_infer_tolerates_one_noisy_example(self):
        kb = KnowledgeBase()
        kb.add_relation(Relation("r1", {"a": "1", "b": "2", "c": "3"}))
        relation = kb.infer_from_examples(
            [("a", "1"), ("b", "2"), ("c", "GARBAGE")]
        )
        assert relation is not None and relation.name == "r1"

    def test_infer_rejects_mostly_wrong(self):
        kb = KnowledgeBase()
        kb.add_relation(Relation("r1", {"a": "1"}))
        assert kb.infer_from_examples([("a", "x"), ("b", "y")]) is None

    def test_infer_empty(self):
        assert KnowledgeBase().infer_from_examples([]) is None


class TestDefaultKB:
    def test_expected_relations_present(self):
        kb = build_default_kb()
        names = kb.relation_names()
        for expected in (
            "state_to_abbreviation",
            "country_to_capital",
            "country_to_citizen",
            "isbn_to_author",
            "city_to_zip",
        ):
            assert expected in names

    def test_well_known_facts(self):
        kb = build_default_kb()
        assert kb.lookup("state_to_abbreviation", "Texas") == "TX"
        assert kb.lookup("country_to_capital", "Canada") == "Ottawa"
        assert kb.lookup("country_to_citizen", "Netherlands") == "Dutch"
        assert kb.lookup("month_to_number", "March") == "03"

    def test_parametric_relations_flagged(self):
        kb = build_default_kb()
        assert kb.relation("isbn_to_author").parametric
        assert kb.relation("city_to_zip").parametric
        assert not kb.relation("country_to_capital").parametric

    def test_parametric_relations_deterministic(self):
        a = build_default_kb(seed=9).relation("isbn_to_author").pairs
        b = build_default_kb(seed=9).relation("isbn_to_author").pairs
        assert a == b

    def test_parametric_relations_vary_with_seed(self):
        a = build_default_kb(seed=1).relation("isbn_to_author").pairs
        b = build_default_kb(seed=2).relation("isbn_to_author").pairs
        assert a != b

    def test_relation_sizes(self):
        kb = build_default_kb()
        assert len(kb.relation("state_to_abbreviation")) == 50
        assert len(kb.relation("month_to_number")) == 12
        assert len(kb.relation("isbn_to_author")) >= 100


class TestKnowsFact:
    def test_deterministic(self):
        assert knows_fact("m", "r", "s", 0.5) == knows_fact("m", "r", "s", 0.5)

    def test_boundary_coverages(self):
        assert not knows_fact("m", "r", "s", 0.0)
        assert knows_fact("m", "r", "s", 1.0)

    def test_coverage_fraction_approximate(self):
        known = sum(
            1 for i in range(1000) if knows_fact("m", "r", f"s{i}", 0.3)
        )
        assert 230 <= known <= 370

    def test_models_have_different_knowledge(self):
        facts_a = {knows_fact("model-a", "r", f"s{i}", 0.5) for i in range(20)}
        facts_b = [knows_fact("model-b", "r", f"s{i}", 0.5) for i in range(20)]
        assert len(facts_a) == 2 or any(facts_b)  # sanity: both vary
