"""Tests for the pretrained-DTT and GPT-3 surrogates."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.serializer import Decomposer, PromptSerializer
from repro.surrogate import GPT3Surrogate, PretrainedDTT, TrainingProfile
from repro.surrogate.errors import corrupt, mapping_difficulty, scrambled_copy
from repro.surrogate.profiles import DEFAULT_PROFILE, LONG_PROFILE
from repro.text.naturalness import naturalness
from repro.types import ExamplePair

_SER = PromptSerializer()


def _prompt(pairs: list[tuple[str, str]], query: str) -> str:
    return _SER.serialize([ExamplePair(s, t) for s, t in pairs], query)


class TestErrors:
    def test_mapping_difficulty_bounds(self):
        assert mapping_difficulty("abc", "abc") == 0.0
        assert mapping_difficulty("abc", "xyz") == 1.0
        assert 0.0 < mapping_difficulty("abcdef", "abcxyz") < 1.0

    def test_corrupt_zero_rate_is_identity(self):
        rng = np.random.default_rng(0)
        assert corrupt("hello", 0.0, rng) == "hello"

    def test_corrupt_high_rate_changes_text(self):
        rng = np.random.default_rng(0)
        assert corrupt("hello world foo bar", 0.9, rng) != "hello world foo bar"

    def test_corrupt_deterministic_under_rng(self):
        a = corrupt("some text here", 0.3, np.random.default_rng(5))
        b = corrupt("some text here", 0.3, np.random.default_rng(5))
        assert a == b

    def test_scrambled_copy_preserves_multiset_mostly(self):
        rng = np.random.default_rng(1)
        text = "abcdefghijkl"
        scrambled = scrambled_copy(text, rng)
        assert sorted(scrambled) == sorted(text)

    def test_scrambled_copy_short_inputs(self):
        rng = np.random.default_rng(2)
        assert scrambled_copy("ab", rng) == "ab"


class TestTrainingProfile:
    def test_maturity_schedule(self):
        assert TrainingProfile(n_groupings=0).maturity == 0.0
        assert TrainingProfile(n_groupings=2000).maturity == 1.0
        assert TrainingProfile(n_groupings=10000).maturity == 1.0
        mid = TrainingProfile(n_groupings=500).maturity
        assert 0.0 < mid < 1.0

    def test_untrained_flag(self):
        assert TrainingProfile(n_groupings=0).is_untrained
        assert not DEFAULT_PROFILE.is_untrained

    def test_families_unlock_with_maturity(self):
        weak = TrainingProfile(n_groupings=100).enabled_families()
        strong = DEFAULT_PROFILE.enabled_families()
        assert weak <= strong
        assert "general" in strong
        assert "case" in strong

    def test_base_error_decreases(self):
        errors = [
            TrainingProfile(n_groupings=n).base_error
            for n in (0, 500, 1000, 2000)
        ]
        assert errors == sorted(errors, reverse=True)

    def test_overfit_bias_after_plateau(self):
        assert DEFAULT_PROFILE.overfit_bias == 0.0
        assert TrainingProfile(n_groupings=10000).overfit_bias > 0.0

    def test_length_penalty(self):
        profile = DEFAULT_PROFILE
        assert profile.length_penalty(20, difficulty=0.5) == 0.0
        assert profile.length_penalty(60, difficulty=0.5) > 0.0
        assert LONG_PROFILE.length_penalty(60, difficulty=0.5) == 0.0
        # Harder mappings are hit harder by length generalization.
        assert profile.length_penalty(60, 0.9) > profile.length_penalty(60, 0.1)

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ValueError):
            TrainingProfile(n_groupings=-1)
        with pytest.raises(ValueError):
            TrainingProfile(min_length=10, max_length=5)


class TestPretrainedDTT:
    def test_paper_example(self, pretrained_model):
        prompt = _prompt(
            [("Justin Trudeau", "jtrudeau"), ("Paul Martin", "pmartin")],
            "Jean Chretien",
        )
        assert pretrained_model.generate([prompt]) == ["jchretien"]

    def test_deterministic(self, pretrained_model):
        prompt = _prompt([("ab", "AB"), ("cd", "CD")], "xy")
        assert pretrained_model.generate([prompt]) == pretrained_model.generate(
            [prompt]
        )

    def test_malformed_prompt_abstains(self, pretrained_model):
        assert pretrained_model.generate(["not a prompt"]) == [""]

    def test_untrained_model_outputs_garbage(self):
        model = PretrainedDTT(profile=TrainingProfile(n_groupings=0))
        prompt = _prompt([("ab", "AB"), ("cd", "CD")], "hello world")
        output = model.generate([prompt])[0]
        assert output != "HELLO WORLD"

    def test_kb_prior_answers_some_semantic_facts(self):
        # Recalled facts still pass through the auto-regressive decoder,
        # so single trials may carry a character error; the pipeline's
        # aggregation recovers the clean answer.
        from repro.core.pipeline import DTTPipeline

        model = PretrainedDTT(fact_coverage=1.0)
        pipeline = DTTPipeline(model, seed=2)
        examples = [
            ExamplePair("France", "Paris"),
            ExamplePair("Japan", "Tokyo"),
            ExamplePair("Italy", "Rome"),
        ]
        predictions = pipeline.transform_column(["Germany"], examples)
        assert predictions[0].value == "Berlin"

    def test_kb_prior_disabled_at_zero_coverage(self):
        model = PretrainedDTT(fact_coverage=0.0)
        prompt = _prompt(
            [("France", "Paris"), ("Japan", "Tokyo")], "Germany"
        )
        assert model.generate([prompt]) != ["Berlin"]

    def test_kb_prior_never_answers_parametric_relations(self):
        model = PretrainedDTT(fact_coverage=1.0)
        kb = model.kb
        relation = kb.relation("isbn_to_author")
        subjects = sorted(relation.pairs)
        prompt = _prompt(
            [
                (subjects[0], relation.pairs[subjects[0]]),
                (subjects[1], relation.pairs[subjects[1]]),
            ],
            subjects[2],
        )
        assert model.generate([prompt]) != [relation.pairs[subjects[2]]]

    def test_name_property(self, pretrained_model):
        assert pretrained_model.name == "DTT"


class TestGPT3Surrogate:
    def test_world_knowledge(self):
        model = GPT3Surrogate(fact_coverage=1.0)
        prompt = _prompt(
            [("Alberta", "AB"), ("Ontario", "ON")], "Quebec"
        )
        # Not a US state; falls back to textual.  Use states instead:
        prompt = _prompt(
            [("Texas", "TX"), ("Ohio", "OH")], "California"
        )
        assert model.generate([prompt]) == ["CA"]

    def test_parametric_relations_hallucinate(self):
        model = GPT3Surrogate(fact_coverage=1.0)
        relation = model.kb.relation("city_to_zip")
        subjects = sorted(relation.pairs)
        prompt = _prompt(
            [
                (subjects[0], relation.pairs[subjects[0]]),
                (subjects[1], relation.pairs[subjects[1]]),
            ],
            subjects[2],
        )
        output = model.generate([prompt])[0]
        assert output != relation.pairs[subjects[2]]
        assert len(output) == 5  # plausible zip format (hallucinated)

    def test_natural_text_pattern_following(self):
        model = GPT3Surrogate(seed=3)
        prompt = _prompt(
            [("John Smith", "Smith, John"), ("Mary Jones", "Jones, Mary")],
            "Alice Brown",
        )
        assert model.generate([prompt]) == ["Brown, Alice"]

    def test_cannot_reverse(self):
        model = GPT3Surrogate()
        prompt = _prompt([("abcdef", "fedcba"), ("123456", "654321")], "qwerty")
        assert model.generate([prompt]) != ["ytrewq"]

    def test_deterministic(self):
        model = GPT3Surrogate(seed=1)
        prompt = _prompt([("ab", "xy"), ("cd", "zw")], "ef")
        assert model.generate([prompt]) == model.generate([prompt])

    def test_name_property(self):
        assert GPT3Surrogate().name == "GPT3"


class TestContextMemo:
    def test_induces_once_per_distinct_context(self, monkeypatch):
        names = [
            ("Justin Trudeau", "jtrudeau"),
            ("Stephen Harper", "sharper"),
            ("Paul Martin", "pmartin"),
            ("Jean Chretien", "jchretien"),
            ("Kim Campbell", "kcampbell"),
            ("Brian Mulroney", "bmulroney"),
            ("John Turner", "jturner"),
            ("Joe Clark", "clarkj"),  # noisy: its contexts take the fallback
        ]
        pool = [ExamplePair(s, t) for s, t in names]
        sources = [f"Person{i} Family{i * 7}" for i in range(40)]
        subtasks = Decomposer(context_size=2, n_trials=5, seed=1).decompose(
            sources, pool
        )
        prompts = [_SER.serialize(task.context, task.query) for task in subtasks]
        assert len(prompts) == 200

        model = PretrainedDTT(seed=0)
        engine = model._engine
        exact_calls = []
        induce_exact = engine._induce_exact

        def counting(pairs):
            exact_calls.append(pairs)
            return induce_exact(pairs)

        monkeypatch.setattr(engine, "_induce_exact", counting)
        outputs = model.generate(prompts)
        # 8 * 7 ordered 2-example contexts, however many prompts ask.
        assert 0 < len(exact_calls) <= 56

        cold = PretrainedDTT(seed=0)
        cold_engine = cold._engine
        induce = cold_engine.induce

        def forgetful(context):
            cold_engine._induce_pairs.cache_clear()
            return induce(context)

        monkeypatch.setattr(cold_engine, "induce", forgetful)
        assert cold.generate(prompts) == outputs


class TestNaturalness:
    def test_natural_names_score_high(self):
        assert naturalness("Justin Trudeau") > 0.7

    def test_random_soup_scores_low(self):
        assert naturalness("xT!qd0@7n^=Zw*") < 0.5

    def test_digits_are_not_penalized_much(self):
        assert naturalness("780-555-1234") > 0.6

    def test_empty_string(self):
        assert naturalness("") == 1.0

    def test_range(self):
        for text in ("abc", "ABC!!!", "   ", "a1b2c3"):
            assert 0.0 <= naturalness(text) <= 1.0
