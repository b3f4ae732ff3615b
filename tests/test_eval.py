"""Tests for the evaluation runner, table rendering, and experiments."""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.baselines.cst import CSTJoiner
from repro.eval.runner import DTTJoinerAdapter, evaluate_on_dataset, evaluate_on_table
from repro.eval.tables import render_dataset_table
from repro.infer.engine import EngineStats
from repro.surrogate.pretrained import PretrainedDTT
from repro.types import TablePair


@pytest.fixture(scope="module")
def small_table() -> TablePair:
    names = [
        ("Justin Trudeau", "jtrudeau"), ("Stephen Harper", "sharper"),
        ("Paul Martin", "pmartin"), ("Jean Chretien", "jchretien"),
        ("Kim Campbell", "kcampbell"), ("Brian Mulroney", "bmulroney"),
        ("John Turner", "jturner"), ("Pierre Trudeau", "ptrudeau"),
        ("Joe Clark", "jclark"), ("Lester Pearson", "lpearson"),
        ("John Diefenbaker", "jdiefenbaker"), ("Louis Laurent", "llaurent"),
    ]
    return TablePair(
        name="pm",
        sources=tuple(n for n, _ in names),
        targets=tuple(u for _, u in names),
        dataset="PM",
    )


class TestEvaluateOnTable:
    def test_dtt_scores_high_on_clean_table(self, small_table):
        adapter = DTTJoinerAdapter(PretrainedDTT(), name="DTT", seed=1)
        report = evaluate_on_table(adapter, small_table)
        assert report.join.f1 > 0.8
        assert report.edits is not None
        assert report.seconds > 0.0

    def test_noise_injection_applies_to_examples_only(self, small_table):
        adapter = DTTJoinerAdapter(PretrainedDTT(), name="DTT", seed=1)
        clean = evaluate_on_table(adapter, small_table, noise_ratio=0.0)
        noisy = evaluate_on_table(adapter, small_table, noise_ratio=0.9, noise_seed=5)
        assert noisy.join.f1 <= clean.join.f1 + 1e-9

    def test_baseline_without_predictions_has_no_edits(self, small_table):
        report = evaluate_on_table(CSTJoiner(), small_table)
        assert report.edits is None

    def test_empty_test_split_reports_its_own_counters(self, small_table):
        # A 1-row table splits into one example and no test rows; its
        # report must carry zeroed engine counters and no join stats,
        # not the previous table's.
        def head(rows: int) -> TablePair:
            return TablePair(
                name=f"pm{rows}",
                sources=small_table.sources[:rows],
                targets=small_table.targets[:rows],
                dataset="PM",
            )

        adapter = DTTJoinerAdapter(PretrainedDTT(), seed=1)
        full = evaluate_on_table(adapter, head(8))
        assert full.stats["engine"]["prompts"] == 20
        assert full.stats["join"]["probes"] == 4
        empty = evaluate_on_table(adapter, head(1))
        assert empty.stats == {"engine": asdict(EngineStats())}

    def test_method_name_recorded(self, small_table):
        report = evaluate_on_table(CSTJoiner(), small_table)
        assert report.method == "CST"


class TestEvaluateOnDataset:
    def test_averages_tables(self, small_table):
        adapter = DTTJoinerAdapter(PretrainedDTT(), name="DTT", seed=2)
        report = evaluate_on_dataset(adapter, [small_table, small_table])
        assert report.tables == 2
        assert 0.0 <= report.f1 <= 1.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            evaluate_on_dataset(CSTJoiner(), [])


class TestRenderTable:
    def test_renders_all_columns(self, small_table):
        adapter = DTTJoinerAdapter(PretrainedDTT(), name="DTT", seed=3)
        report = evaluate_on_dataset(adapter, [small_table])
        text = render_dataset_table(
            {"PM": {"DTT": report}},
            methods=["DTT"],
            columns=("P", "R", "F", "AED", "ANED"),
            title="demo",
        )
        assert "demo" in text
        assert "DTT:F" in text
        assert "PM" in text

    def test_missing_method_renders_dash(self, small_table):
        adapter = DTTJoinerAdapter(PretrainedDTT(), name="DTT", seed=3)
        report = evaluate_on_dataset(adapter, [small_table])
        text = render_dataset_table(
            {"PM": {"DTT": report}}, methods=["DTT", "CST"], columns=("F",)
        )
        assert "-" in text

    def test_unknown_column_rejected(self):
        with pytest.raises(ValueError):
            render_dataset_table({}, methods=[], columns=("bogus",))


class TestExperimentsSmoke:
    """Tiny-scale smoke runs of every experiment definition."""

    def test_table1(self):
        from repro.eval.experiments import run_table1

        result = run_table1(scale=0.08, seed=11, datasets=("SS", "Syn-RP"))
        assert set(result) == {"SS", "Syn-RP"}
        assert "DTT" in result["SS"]

    def test_table2(self):
        from repro.eval.experiments import run_table2

        result = run_table2(
            scale=0.08, seed=11, example_counts=(2,), datasets=("Syn-RP",)
        )
        assert "GPT3-2e" in result["Syn-RP"]
        assert "GPT3-DTT-2e" in result["Syn-RP"]

    def test_figure5(self):
        from repro.eval.experiments import run_figure5

        result = run_figure5(
            scale=0.08, seed=11, noise_ratios=(0.0, 0.4), datasets=("SS",)
        )
        assert result["DTT"]["SS"][0].f1 == 0.0  # drop at ratio 0 is 0

    def test_figure6(self):
        from repro.eval.experiments import run_figure6

        result = run_figure6(scale=0.05, seed=11, trial_counts=(2, 3))
        assert "WT" in result and "WT-n" in result

    def test_figure4(self):
        from repro.eval.experiments import run_figure4

        curves = run_figure4(
            scale=0.08, seed=11, sample_counts=(0, 2000), datasets=("Syn-RP",)
        )
        points = {p.x: p for p in curves["Syn-RP"]}
        assert points[2000].f1 >= points[0].f1
