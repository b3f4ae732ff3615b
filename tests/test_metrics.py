"""Tests for join metrics, edit metrics, and report averaging (§5.4)."""

from __future__ import annotations

import pytest

from repro.datagen.benchmarks.registry import get_dataset
from repro.metrics.edit_metrics import score_edits
from repro.metrics.join_metrics import score_join
from repro.metrics.report import TableReport, average_reports
from repro.text.edit_distance import edit_distance, normalized_edit_distance
from repro.types import JoinResult


def _result(matched: str | None, expected: str) -> JoinResult:
    return JoinResult(source="s", predicted="p", matched=matched, expected=expected)


class TestScoreJoin:
    def test_perfect(self):
        scores = score_join([_result("t", "t")] * 4)
        assert scores.precision == scores.recall == scores.f1 == 1.0

    def test_unmatched_rows_hit_recall_not_precision(self):
        results = [_result("t", "t"), _result(None, "t")]
        scores = score_join(results)
        assert scores.precision == 1.0
        assert scores.recall == 0.5
        assert scores.f1 == pytest.approx(2 / 3)

    def test_wrong_match_hits_both(self):
        results = [_result("u", "t"), _result("t", "t")]
        scores = score_join(results)
        assert scores.precision == 0.5
        assert scores.recall == 0.5

    def test_empty_results(self):
        scores = score_join([])
        assert scores.f1 == 0.0
        assert scores.total == 0

    def test_no_matches(self):
        scores = score_join([_result(None, "t")])
        assert scores.precision == 0.0
        assert scores.f1 == 0.0


class TestScoreEdits:
    def test_exact_predictions(self):
        scores = score_edits(["abc", "d"], ["abc", "d"])
        assert scores.aed == 0.0
        assert scores.aned == 0.0

    def test_known_values(self):
        scores = score_edits(["ab"], ["abcd"])
        assert scores.aed == 2.0
        assert scores.aned == pytest.approx(0.5)

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            score_edits(["a"], [])

    def test_empty_inputs(self):
        scores = score_edits([], [])
        assert scores.count == 0

    @pytest.mark.parametrize("name", ["WT", "Syn-RV", "JAB"])
    def test_one_dp_matches_the_two_list_computation(self, name):
        table = get_dataset(name, seed=0, scale=0.05)[0]
        predictions = list(table.sources) + ["", "x", table.targets[0]]
        targets = list(table.targets) + ["", "", table.targets[0]]
        pairs = list(zip(predictions, targets, strict=True))
        distances = [edit_distance(p, t) for p, t in pairs]
        normalized = [normalized_edit_distance(p, t) for p, t in pairs]
        scores = score_edits(predictions, targets)
        assert scores.aed == sum(distances) / len(distances)
        assert scores.aned == sum(normalized) / len(normalized)


class TestAverageReports:
    def _table(self, f1: float, aned: float) -> TableReport:
        from repro.metrics.edit_metrics import EditScores
        from repro.metrics.join_metrics import JoinScores

        return TableReport(
            table="t",
            method="m",
            join=JoinScores(
                precision=f1, recall=f1, f1=f1, matched=1, correct=1, total=1
            ),
            edits=EditScores(aed=aned * 10, aned=aned, count=1),
            seconds=1.0,
        )

    def test_averages(self):
        report = average_reports("D", "m", [self._table(1.0, 0.0), self._table(0.5, 0.4)])
        assert report.f1 == pytest.approx(0.75)
        assert report.aned == pytest.approx(0.2)
        assert report.seconds == pytest.approx(2.0)
        assert report.tables == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_reports("D", "m", [])

    def test_handles_missing_edit_scores(self):
        from repro.metrics.join_metrics import JoinScores

        table = TableReport(
            table="t",
            method="m",
            join=JoinScores(
                precision=1.0, recall=1.0, f1=1.0, matched=1, correct=1, total=1
            ),
            edits=None,
        )
        report = average_reports("D", "m", [table])
        assert report.aned == 0.0
