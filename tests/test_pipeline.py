"""End-to-end tests of the DTT pipeline (Figure 2)."""

from __future__ import annotations

import pytest

from repro.core.pipeline import DTTPipeline
from repro.surrogate.llm import GPT3Surrogate
from repro.surrogate.pretrained import PretrainedDTT
from repro.types import ExamplePair


class TestTransformColumn:
    def test_paper_running_example(self, pretrained_model, pm_examples):
        pipeline = DTTPipeline(pretrained_model, seed=1)
        predictions = pipeline.transform_column(
            ["Jean Chretien", "Kim Campbell"], pm_examples
        )
        assert [p.value for p in predictions] == ["jchretien", "kcampbell"]
        assert all(p.votes >= 3 for p in predictions)

    def test_empty_sources(self, pretrained_model, pm_examples):
        pipeline = DTTPipeline(pretrained_model)
        assert pipeline.transform_column([], pm_examples) == []

    def test_prediction_order_matches_input(self, pretrained_model, pm_examples):
        pipeline = DTTPipeline(pretrained_model, seed=2)
        sources = ["Kim Campbell", "Jean Chretien"]
        predictions = pipeline.transform_column(sources, pm_examples)
        assert [p.source for p in predictions] == sources

    def test_trial_count_controls_candidates(self, pretrained_model, pm_examples):
        pipeline = DTTPipeline(pretrained_model, n_trials=3, seed=3)
        predictions = pipeline.transform_column(["Jean Chretien"], pm_examples)
        assert len(predictions[0].candidates) == 3

    def test_multi_model_doubles_candidates(self, pm_examples):
        pipeline = DTTPipeline(
            [PretrainedDTT(seed=0), GPT3Surrogate(seed=0)], n_trials=2, seed=4
        )
        predictions = pipeline.transform_column(["Jean Chretien"], pm_examples)
        assert len(predictions[0].candidates) == 4

    def test_requires_model(self):
        with pytest.raises(ValueError):
            DTTPipeline([])

    def test_name_mentions_models(self, pretrained_model):
        assert "DTT" in DTTPipeline(pretrained_model).name

    def test_stopwatch_records_stages(self, pretrained_model, pm_examples):
        pipeline = DTTPipeline(pretrained_model, seed=5)
        pipeline.transform_column(["Jean Chretien"], pm_examples)
        assert {"decompose", "predict", "aggregate"} <= set(
            pipeline.stopwatch.laps
        )


class TestJoin:
    def test_join_with_imperfect_predictions(self, pretrained_model, pm_examples):
        # Even if the model's output differs slightly, the edit-distance
        # join should still find the right row (the paper's key point).
        pipeline = DTTPipeline(pretrained_model, seed=6)
        targets = ["jchretien", "kcampbell", "jtrudeau", "sharper", "pmartin"]
        results = pipeline.join(
            ["Jean Chretien", "Kim Campbell"],
            targets,
            pm_examples,
            expected=["jchretien", "kcampbell"],
        )
        assert all(r.correct for r in results)

    def test_join_without_expected(self, pretrained_model, pm_examples):
        pipeline = DTTPipeline(pretrained_model, seed=7)
        results = pipeline.join(["Jean Chretien"], ["jchretien"], pm_examples)
        assert results[0].matched == "jchretien"
        assert results[0].expected == ""

    def test_join_records_time(self, pretrained_model, pm_examples):
        pipeline = DTTPipeline(pretrained_model, seed=8)
        pipeline.join(["Jean Chretien"], ["jchretien"], pm_examples)
        assert "join" in pipeline.stopwatch.laps
