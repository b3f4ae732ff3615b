"""Tests for automatic example generation by token matching (§2)."""

from __future__ import annotations

import pytest

from repro.datagen.auto_examples import AutoExampleGenerator
from repro.datagen.benchmarks.registry import get_dataset


class TestAutoExampleGenerator:
    def test_pairs_rows_sharing_tokens(self):
        generator = AutoExampleGenerator()
        sources = ["Justin Trudeau", "Stephen Harper", "Paul Martin"]
        targets = ["trudeau, justin", "harper, stephen", "martin, paul"]
        examples = generator.example_pool(sources, targets)
        mapping = {e.source: e.target for e in examples}
        assert mapping["Justin Trudeau"] == "trudeau, justin"
        assert mapping["Stephen Harper"] == "harper, stephen"

    def test_each_row_used_once(self):
        generator = AutoExampleGenerator()
        sources = ["alpha one", "alpha two"]
        targets = ["alpha one x", "alpha two y"]
        examples = generator.generate(sources, targets)
        assert len({e.pair.source for e in examples}) == len(examples)
        assert len({e.pair.target for e in examples}) == len(examples)

    def test_no_overlap_no_examples(self):
        generator = AutoExampleGenerator()
        assert generator.example_pool(["aaa bbb"], ["ccc ddd"]) == []

    def test_scores_sorted_descending(self):
        generator = AutoExampleGenerator(min_score=0.1)
        sources = ["green apple pie", "blue sky"]
        targets = ["green apple pie recipe", "blue bird"]
        examples = generator.generate(sources, targets)
        scores = [e.score for e in examples]
        assert scores == sorted(scores, reverse=True)

    def test_max_examples_cap(self):
        generator = AutoExampleGenerator(max_examples=1)
        sources = ["tok1 a", "tok2 b"]
        targets = ["tok1 c", "tok2 d"]
        assert len(generator.generate(sources, targets)) == 1

    def test_invalid_min_score(self):
        with pytest.raises(ValueError):
            AutoExampleGenerator(min_score=2.0)

    def test_generated_examples_can_drive_the_pipeline(self):
        # End-to-end: auto-generate (noisy) examples on a benchmark
        # table, run DTT with them — the §2 "no user examples" workflow.
        from repro.core.pipeline import DTTPipeline
        from repro.metrics.join_metrics import score_join
        from repro.surrogate.pretrained import PretrainedDTT

        table = get_dataset("WT", seed=4, scale=0.2)[1]  # last-first topic
        pool_rows, test_rows = table.split()
        generator = AutoExampleGenerator()
        examples = generator.example_pool(
            [r.source for r in pool_rows], [r.target for r in pool_rows]
        )
        assert len(examples) >= 3
        pipeline = DTTPipeline(PretrainedDTT(), seed=4)
        results = pipeline.join(
            [r.source for r in test_rows],
            list(table.targets),
            examples,
            expected=[r.target for r in test_rows],
        )
        assert score_join(results).f1 > 0.5
