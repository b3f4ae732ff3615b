"""Integration tests: the full system on scaled-down paper benchmarks.

These assert the *shape* claims the reproduction targets at small scale
so they run in CI time.
"""

from __future__ import annotations

import pytest

from repro.baselines.afj import AFJJoiner
from repro.baselines.cst import CSTJoiner
from repro.core.pipeline import DTTPipeline
from repro.datagen.benchmarks.registry import get_dataset
from repro.eval.runner import DTTJoinerAdapter, evaluate_on_dataset
from repro.metrics.join_metrics import score_join
from repro.surrogate.pretrained import PretrainedDTT
from repro.types import ExamplePair


@pytest.fixture(scope="module")
def dtt_adapter() -> DTTJoinerAdapter:
    return DTTJoinerAdapter(PretrainedDTT(), name="DTT", seed=3)


class TestHeadlineShapes:
    def test_dtt_strong_on_spreadsheet_data(self, dtt_adapter):
        tables = get_dataset("SS", seed=9, scale=0.12)
        report = evaluate_on_dataset(dtt_adapter, tables)
        assert report.f1 > 0.85

    def test_dtt_beats_cst_on_webtables(self, dtt_adapter):
        tables = get_dataset("WT", seed=9, scale=0.2)
        dtt = evaluate_on_dataset(dtt_adapter, tables)
        cst = evaluate_on_dataset(CSTJoiner(), tables)
        assert dtt.f1 > cst.f1

    def test_only_dtt_survives_reversal(self, dtt_adapter):
        tables = get_dataset("Syn-RV", seed=9, scale=0.4)
        dtt = evaluate_on_dataset(dtt_adapter, tables)
        cst = evaluate_on_dataset(CSTJoiner(), tables)
        afj = evaluate_on_dataset(AFJJoiner(), tables)
        assert dtt.f1 > 0.3
        assert cst.f1 < 0.1
        assert afj.f1 < 0.1

    def test_reversal_high_aned_yet_joinable(self, dtt_adapter):
        # The paper's observation: ANED can be large while join F1 stays
        # moderate, because the edit-distance join tolerates errors.
        tables = get_dataset("Syn-RV", seed=9, scale=0.4)
        report = evaluate_on_dataset(dtt_adapter, tables)
        assert report.aned > 0.3
        # Most predicted characters are wrong, yet the join recovers a
        # sizable fraction of rows (paper: ANED 0.85 with F1 0.63).
        assert report.f1 >= 0.3
        assert report.f1 >= report.aned * 0.4

    def test_everyone_weak_on_kbwt(self, dtt_adapter):
        tables = get_dataset("KBWT", seed=9, scale=0.15)
        dtt = evaluate_on_dataset(dtt_adapter, tables)
        assert dtt.f1 < 0.6

    def test_noise_robustness(self, dtt_adapter):
        tables = get_dataset("SS", seed=9, scale=0.1)
        clean = evaluate_on_dataset(dtt_adapter, tables)
        noisy = evaluate_on_dataset(dtt_adapter, tables, noise_ratio=0.4)
        assert clean.f1 - noisy.f1 < 0.25


class TestDownstreamTasks:
    def test_missing_value_imputation(self):
        # §4.4 / §6: exact predictions make DTT a candidate for
        # missing-value imputation.
        model = PretrainedDTT(seed=0)
        pipeline = DTTPipeline(model, seed=1)
        examples = [
            ExamplePair("2021-03-05", "05/03/2021"),
            ExamplePair("1999-12-31", "31/12/1999"),
            ExamplePair("2010-07-22", "22/07/2010"),
        ]
        predictions = pipeline.transform_column(["2024-01-15"], examples)
        assert predictions[0].value == "15/01/2024"

    def test_error_detection_via_disagreement(self):
        # A row whose given target disagrees with the model's prediction
        # is an error candidate (paper §1: error detection use case).
        model = PretrainedDTT(seed=0)
        pipeline = DTTPipeline(model, seed=2)
        examples = [
            ExamplePair("alpha", "ALPHA"),
            ExamplePair("beta", "BETA"),
            ExamplePair("gamma", "GAMMA"),
        ]
        rows = {"delta": "DELTA", "epsilon": "EPSILON", "zeta": "ZETTA"}
        predictions = pipeline.transform_column(list(rows), examples)
        flagged = [
            p.source for p in predictions if p.value != rows[p.source]
        ]
        assert flagged == ["zeta"]

    def test_join_metrics_end_to_end(self):
        model = PretrainedDTT(seed=0)
        pipeline = DTTPipeline(model, seed=3)
        table = get_dataset("SS", seed=10, scale=0.1)[0]
        pool, test_rows = table.split()
        results = pipeline.join(
            [r.source for r in test_rows],
            list(table.targets),
            pool,
            expected=[r.target for r in test_rows],
        )
        scores = score_join(results)
        assert scores.total == len(test_rows)
        assert scores.f1 > 0.5
