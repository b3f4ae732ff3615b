"""Tests for the pretrained-DTT and GPT-3 surrogates."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.serializer import Decomposer, PromptSerializer
from repro.surrogate import GPT3Surrogate, PretrainedDTT, TrainingProfile, errors
from repro.surrogate.errors import corrupt, mapping_difficulties, scrambled_copy
from repro.surrogate.profiles import DEFAULT_PROFILE, LONG_PROFILE
from repro.text.naturalness import naturalness
from repro.types import ExamplePair

_SER = PromptSerializer()


def _prompt(pairs: list[tuple[str, str]], query: str) -> str:
    return _SER.serialize([ExamplePair(s, t) for s, t in pairs], query)


class TestErrors:
    def test_mapping_difficulty_bounds(self):
        same, changed, partial, empty, again = mapping_difficulties(
            [("abc", "abc"), ("abc", "xyz"), ("abcdef", "abcxyz"), ("", ""),
             ("abc", "xyz")]
        )
        assert same == 0.0
        assert changed == again == 1.0
        assert 0.0 < partial < 1.0
        assert empty == 0.0
        assert mapping_difficulties([]) == []

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


def _pinned_prompts() -> list[str]:
    """Hand-built regime probes, registry slices, then repeats."""
    from repro.datagen.benchmarks.registry import get_dataset
    from repro.kb import build_default_kb

    zips = build_default_kb().relation("city_to_zip").pairs
    cities = sorted(zips)
    hand = [
        _prompt([(c, zips[c]) for c in cities[:2]], cities[2]),  # parametric
        _prompt([("Justin Trudeau", "jtrudeau"), ("Paul Martin", "pmartin")],
                "Jean Chretien"),
        _prompt([("ab", "AB"), ("cd", "CD")], "hello world"),
        _prompt([("abcdef", "fedcba"), ("123456", "654321")], "qwerty"),
        _prompt([("abcdef", "fedcba")], "reversal-of-one"),
        _prompt([("Paul", "zz9"), ("Anna", "q")], "Bob"),
        _prompt([], "no examples to follow"),  # no program: the fallback
        _prompt([("France", "Paris"), ("Japan", "Tokyo"), ("Italy", "Rome")],
                "Germany"),
        _prompt([("Texas", "TX"), ("Ohio", "OH")], "California"),
        _prompt([("John Smith", "Smith, John"), ("Mary Jones", "Jones, Mary")],
                "Alice Brown"),
        _prompt([("John Smith", "Smith, John")], "Alice Brown"),
        _prompt([("alpha beta", "ALPHA BETA"), ("gamma", "GAMMA")],
                "a rather long query string that exceeds the trained length range"),
        _prompt([("café au lait", "CAFÉ AU LAIT"), ("naïve", "NAÏVE")],
                "été \U0001F600"),
        _prompt([("x-1", "x_1"), ("y-2", "y_2")], "z-3-4-5"),
        "not a prompt",
        "",
        _prompt([("ab", "AB"), ("cd", "CD")], "lone \ud800 surrogate"),
    ]
    sliced = []
    for name in ("WT", "SS", "KBWT", "Syn", "Syn-RV", "JAB"):
        table = get_dataset(name, seed=0, scale=0.05)[0]
        pool = [
            ExamplePair(s, t)
            for s, t in zip(table.sources[:8], table.targets[:8], strict=True)
        ]
        tasks = Decomposer(context_size=2, n_trials=3, seed=1).decompose(
            list(table.sources[8:14]), pool
        )
        sliced += [_SER.serialize(task.context, task.query) for task in tasks]
    return hand + sliced + hand[:3] + hand[:1]


_PINNED_MODELS = {
    "dtt_default": lambda: PretrainedDTT(seed=0),
    "dtt_untrained": lambda: PretrainedDTT(
        profile=TrainingProfile(n_groupings=0), seed=1
    ),
    "dtt_mid": lambda: PretrainedDTT(
        profile=TrainingProfile(n_groupings=500), seed=2
    ),
    "dtt_overfit": lambda: PretrainedDTT(
        profile=TrainingProfile(n_groupings=10000), seed=4
    ),
    "dtt_long": lambda: PretrainedDTT(profile=LONG_PROFILE, seed=5),
    "dtt_facts": lambda: PretrainedDTT(fact_coverage=1.0, seed=3),
    "gpt3": lambda: GPT3Surrogate(seed=0),
    "gpt3_facts": lambda: GPT3Surrogate(fact_coverage=1.0, seed=6),
}
# sha256 of ``json.dumps(model.generate(_pinned_prompts()))``, recorded
# before the difficulty scoring was batched.  A moved digest means the
# change altered what the surrogates emit: fix the change, not the digest.
_DIGESTS = {
    "dtt_default": "98372f4c7a4799c789d1890478b36d0b644f9deae5c6ccc3b9245ff06b507b39",
    "dtt_facts": "d2e06ea2a9b7f7edbdff8e8016e5742f7aa01d91a946bcbe2eac425e0839a758",
    "dtt_long": "97769249436df77c34c6a37f9c0c82dafa505cb568c0e0ec00fe67e4884e202d",
    "dtt_mid": "b1bbdf628722d17c7309d846670c3fc9c89fb84f5c6682513a7d2ab743af9c37",
    "dtt_overfit": "d59b329dc8c3eafda847558b9ad7efe2c8c36b7feaaf6128bac22f5fd8e3c495",
    "dtt_untrained": "aabd00593196b3e0a9891616342ea90e5414c94b2cd5c0b3bf8839774cc8babd",
    "gpt3": "ee309cc3426eef76d9f4339dac26f896a8f22634b17e48193b8322b2f44702a6",
    "gpt3_facts": "c6a33356a850d213f5fe5bf9a2cd4f3f91d39623f9d992a0353f8540f2d8c74a",
}


class TestPinnedOutputs:
    @pytest.mark.parametrize("key", sorted(_PINNED_MODELS))
    def test_generate_digest(self, key):
        outputs = _PINNED_MODELS[key]().generate(_pinned_prompts())
        digest = hashlib.sha256(json.dumps(outputs).encode("ascii")).hexdigest()
        assert digest == _DIGESTS[key]


class TestBatchedDifficulty:
    @pytest.mark.parametrize("key", ["dtt_default", "dtt_mid", "gpt3"])
    def test_one_scoring_call_on_distinct_pairs(self, monkeypatch, key):
        calls = []
        edit_distances = errors.edit_distances

        def counting(pairs):
            calls.append(list(pairs))
            return edit_distances(pairs)

        monkeypatch.setattr(errors, "edit_distances", counting)
        prompts = _pinned_prompts()
        _PINNED_MODELS[key]().generate(prompts)
        assert len(calls) == 1
        (scored,) = calls
        assert scored and len(set(scored)) == len(scored)
        # Repeated prompts share their clean output, hence their pair.
        assert len(scored) < len(prompts)


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
