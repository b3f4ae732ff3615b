"""Tests for the baseline joiners: CST, AFJ, Ditto, DataXFormer."""

from __future__ import annotations

from repro.baselines._units import (
    ULiteral,
    ULower,
    USplit,
    USubstr,
    UnitTransformation,
    coverage,
    synthesize_transformations,
)
from repro.baselines.afj import AFJJoiner
from repro.baselines.cst import CSTJoiner
from repro.baselines.dataxformer import DataXFormerJoiner
from repro.baselines.ditto import DittoJoiner
from repro.kb.builtin import build_default_kb
from repro.types import ExamplePair


def _examples(*pairs: tuple[str, str]) -> list[ExamplePair]:
    return [ExamplePair(s, t) for s, t in pairs]


class TestUnitLanguage:
    def test_usubstr(self):
        assert USubstr(1, False, 3, False).apply("abcde") == "bc"

    def test_usubstr_from_end(self):
        assert USubstr(3, True, None, False).apply("abcde") == "cde"

    def test_usubstr_out_of_bounds(self):
        assert USubstr(10, False, 12, False).apply("abc") is None

    def test_usplit(self):
        assert USplit("-", 1, False).apply("a-b-c") == "b"
        assert USplit("-", 0, True).apply("a-b-c") == "c"

    def test_usplit_missing_part(self):
        assert USplit("-", 5, False).apply("a-b") is None

    def test_ulower_is_whole_input(self):
        assert ULower().apply("AbC dEf") == "abc def"

    def test_transformation_concatenates(self):
        transformation = UnitTransformation(
            units=(USplit(" ", 1, False), ULiteral(", "), USplit(" ", 0, False))
        )
        assert transformation.apply("John Smith") == "Smith, John"

    def test_literal_only_detection(self):
        assert UnitTransformation(units=(ULiteral("x"),)).literal_only
        assert not UnitTransformation(units=(ULower(),)).literal_only

    def test_synthesis_explains_pair(self):
        for transformation in synthesize_transformations("John Smith", "Smith, John"):
            assert transformation.apply("John Smith") == "Smith, John"

    def test_synthesis_cannot_reverse(self):
        # Anchors need length >= 2, so per-character reversal is out of
        # the language (the mechanism behind CST's 0 F1 on Syn-RV).
        results = synthesize_transformations("abcdefgh", "hgfedcba")
        valid = [t for t in results if t.apply("abcdefgh") == "hgfedcba"]
        assert all(t.literal_only for t in valid) or not valid

    def test_coverage(self):
        transformation = UnitTransformation(units=(ULower(),))
        pairs = [("Ab", "ab"), ("CD", "cd"), ("x", "WRONG")]
        assert coverage(transformation, pairs) == 2


class TestCST:
    def test_learns_single_rule(self):
        joiner = CSTJoiner()
        examples = _examples(("John Smith", "Smith"), ("Mary Jones", "Jones"))
        transformations = joiner.learn(examples)
        assert transformations
        assert transformations[0].apply("Alice Brown") == "Brown"

    def test_learns_multiple_rules(self):
        # CST keeps a ranked *set* of transformations (unlike Auto-join).
        joiner = CSTJoiner(min_coverage=1)
        examples = _examples(
            ("a-b", "a"), ("c-d", "c"), ("e:f", "f"), ("g:h", "h")
        )
        transformations = joiner.learn(examples)
        outputs = {t.apply("x-y") for t in transformations} | {
            t.apply("x:y") for t in transformations
        }
        assert "x" in outputs and "y" in outputs

    def test_join_exact_matches_only(self):
        joiner = CSTJoiner()
        examples = _examples(("ab cd", "cd"), ("ef gh", "gh"))
        output = joiner.join_table(
            ["ij kl", "zz zz"], ["kl", "other"], examples
        )
        assert output.matches[0] == "kl"
        assert output.matches[1] is None  # 'zz' not in targets

    def test_literal_only_candidates_filtered(self):
        joiner = CSTJoiner()
        # Targets unrelated to sources: only literal programs exist.
        examples = _examples(("aaa", "qqq"), ("bbb", "www"))
        transformations = joiner.learn(examples)
        assert all(not t.literal_only for t in transformations)

    def test_name(self):
        assert CSTJoiner().name == "CST"


class TestAFJ:
    def test_fuzzy_join_on_similar_text(self):
        joiner = AFJJoiner()
        sources = ["Justin Trudeau", "Stephen Harper"]
        targets = ["trudeau, justin", "harper, stephen", "unrelated zzz"]
        output = joiner.join_table(sources, targets, [])
        assert output.matches[0] == "trudeau, justin"
        assert output.matches[1] == "harper, stephen"

    def test_no_matches_for_dissimilar_text(self):
        joiner = AFJJoiner()
        sources = ["aaaa bbbb", "cccc dddd"]
        targets = ["zzzz 9999", "xxxx 8888"]
        output = joiner.join_table(sources, targets, [])
        assert all(m is None for m in output.matches)

    def test_substring_targets_match(self):
        joiner = AFJJoiner()
        sources = ["abcdefghijkl", "mnopqrstuvwx"]
        targets = ["cdefghij", "opqrstuv"]
        output = joiner.join_table(sources, targets, [])
        assert output.matches[0] == "cdefghij"

    def test_ignores_examples(self):
        joiner = AFJJoiner()
        with_examples = joiner.join_table(["abc"], ["abc"], _examples(("x", "y")))
        without = joiner.join_table(["abc"], ["abc"], [])
        assert with_examples.matches == without.matches


class TestDitto:
    def test_matches_similar_pairs(self):
        joiner = DittoJoiner()
        examples = _examples(
            ("Justin Trudeau", "trudeau justin"),
            ("Stephen Harper", "harper stephen"),
            ("Paul Martin", "martin paul"),
            ("Jean Chretien", "chretien jean"),
        )
        output = joiner.join_table(
            ["Kim Campbell"], ["campbell kim", "trudeau justin"], examples
        )
        assert output.matches == ("campbell kim",)

    def test_produces_no_predictions(self):
        joiner = DittoJoiner()
        examples = _examples(("a b", "b a"), ("c d", "d c"))
        output = joiner.join_table(["e f"], ["f e"], examples)
        assert output.predictions is None

    def test_deterministic(self):
        joiner = DittoJoiner(seed=4)
        examples = _examples(("ab cd", "cd"), ("ef gh", "gh"), ("ij kl", "kl"))
        a = joiner.join_table(["mn op"], ["op", "zz"], examples)
        b = joiner.join_table(["mn op"], ["op", "zz"], examples)
        assert a.matches == b.matches


class TestDataXFormer:
    def test_kb_relation_join(self):
        kb = build_default_kb()
        joiner = DataXFormerJoiner(kb=kb, kb_coverage=1.0)
        examples = _examples(("Texas", "TX"), ("Ohio", "OH"), ("Iowa", "IA"))
        output = joiner.join_table(
            ["California", "Nevada"], ["CA", "NV", "TX"], examples
        )
        assert output.matches == ("CA", "NV")

    def test_parametric_relations_work_for_kb_systems(self):
        kb = build_default_kb()
        relation = kb.relation("isbn_to_author")
        subjects = sorted(relation.pairs)[:5]
        examples = _examples(*[(s, relation.pairs[s]) for s in subjects[:3]])
        joiner = DataXFormerJoiner(kb=kb, kb_coverage=1.0)
        output = joiner.join_table(
            [subjects[3]], [relation.pairs[subjects[3]]], examples
        )
        assert output.matches == (relation.pairs[subjects[3]],)

    def test_coverage_limits_recall(self):
        kb = build_default_kb()
        relation = kb.relation("state_to_abbreviation")
        examples = _examples(("Texas", "TX"), ("Ohio", "OH"), ("Iowa", "IA"))
        subjects = sorted(relation.pairs)
        full = DataXFormerJoiner(kb=kb, kb_coverage=1.0).join_table(
            subjects, list(relation.pairs.values()), examples
        )
        partial = DataXFormerJoiner(kb=kb, kb_coverage=0.3).join_table(
            subjects, list(relation.pairs.values()), examples
        )
        matched_full = sum(1 for m in full.matches if m)
        matched_partial = sum(1 for m in partial.matches if m)
        assert matched_partial < matched_full

    def test_unknown_relation_yields_no_matches(self):
        joiner = DataXFormerJoiner(kb_coverage=1.0)
        examples = _examples(("foo", "bar"), ("baz", "qux"))
        output = joiner.join_table(["x"], ["y"], examples)
        assert output.matches == (None,)
