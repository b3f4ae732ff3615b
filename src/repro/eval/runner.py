"""Runs a join method over benchmark tables and scores it (paper §5.3).

The protocol follows the paper's setup: each table's rows are split into
two halves — an example pool ``S_e`` and a test set ``S_t`` — the method
joins the test sources into the **full** target column, and the metrics
of §5.4 are computed per table, then averaged per dataset.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import asdict

from repro.baselines.base import JoinOutput, TableJoiner
from repro.core.interface import SequenceModel
from repro.core.joiner import EditDistanceJoiner
from repro.core.pipeline import DTTPipeline
from repro.datagen.benchmarks.noise import inject_example_noise
from repro.infer.engine import EngineStats
from repro.metrics.edit_metrics import score_edits
from repro.metrics.join_metrics import score_join
from repro.metrics.report import DatasetReport, TableReport, average_reports
from repro.types import ExamplePair, JoinResult, TablePair


class DTTJoinerAdapter:
    """Adapts a :class:`DTTPipeline` to the :class:`TableJoiner` protocol.

    Args:
        model: Model or list of models for the pipeline.
        context_size: Examples per sub-task context.
        n_trials: Trials per row per model.
        seed: Context-sampling seed.
        name: Report name; defaults to the pipeline's.
        joiner: Joiner instance forwarded to the pipeline (``None`` =
            the pipeline's default :class:`~repro.index.joiner.IndexedJoiner`).
    """

    def __init__(
        self,
        model: SequenceModel | Sequence[SequenceModel],
        context_size: int = 2,
        n_trials: int = 5,
        seed: int = 0,
        name: str | None = None,
        joiner: EditDistanceJoiner | None = None,
    ) -> None:
        self.pipeline = DTTPipeline(
            model,
            context_size=context_size,
            n_trials=n_trials,
            seed=seed,
            joiner=joiner,
        )
        self._name = name or self.pipeline.name

    @property
    def name(self) -> str:
        return self._name

    def join_table(
        self,
        sources: Sequence[str],
        targets: Sequence[str],
        examples: Sequence[ExamplePair],
    ) -> JoinOutput:
        predictions = self.pipeline.transform_column(sources, examples)
        results = self.pipeline.joiner.join(predictions, targets)
        # Execution counters ride along with the scores: the generation
        # engine's scheduling stats (totals across every model of the
        # ensemble, plus the per-model breakdown) and the join engine's
        # batch / cache / kernel-pair stats, all from this table's run.
        per_model = self.pipeline.last_engine_stats
        stats: dict = {"engine": asdict(EngineStats.merged(per_model))}
        if len(per_model) > 1:
            # A list, not a name-keyed dict: ensembling two instances
            # of one model class (e.g. differently seeded DTTs) is
            # legitimate, and duplicate names must not drop entries.
            stats["engine_per_model"] = [
                {"model": model.name, **asdict(model_stats)}
                for model, model_stats in zip(
                    self.pipeline.models, per_model, strict=True
                )
            ]
        join_stats = getattr(self.pipeline.joiner, "last_join_stats", None)
        if join_stats is not None:
            stats["join"] = join_stats.as_dict()
        return JoinOutput(
            matches=tuple(r.matched for r in results),
            predictions=tuple(p.value for p in predictions),
            stats=stats,
        )


def evaluate_on_table(
    joiner: TableJoiner,
    table: TablePair,
    split_fraction: float = 0.5,
    noise_ratio: float = 0.0,
    noise_seed: int = 0,
) -> TableReport:
    """Evaluate one method on one table pair.

    Args:
        joiner: The method under test.
        table: The benchmark table pair.
        split_fraction: Fraction of rows forming the example pool (§5.3
            uses equal halves).
        noise_ratio: Fraction of example targets replaced by random text
            (§5.10); test rows stay clean.
        noise_seed: Seed for the noise injection.
    """
    example_pool, test_rows = table.split(split_fraction)
    if noise_ratio > 0.0:
        example_pool = inject_example_noise(
            example_pool, noise_ratio, seed=noise_seed
        )
    sources = [row.source for row in test_rows]
    expected = [row.target for row in test_rows]
    # Passed through as the TablePair's own tuple: the blocked joiner's
    # process-level IndexCache keys on column *content*, so repeated
    # evaluations of the same table — across methods, noise settings,
    # or whole runner invocations — reuse one q-gram index, and the
    # tuple makes each cache lookup a zero-copy key build.
    targets = table.targets

    started = time.perf_counter()
    output = joiner.join_table(sources, targets, example_pool)
    elapsed = time.perf_counter() - started

    results = [
        JoinResult(
            source=source,
            predicted=(
                output.predictions[i] if output.predictions is not None else ""
            ),
            matched=output.matches[i],
            expected=expected[i],
        )
        for i, source in enumerate(sources)
    ]
    edits = (
        score_edits(list(output.predictions), expected)
        if output.predictions is not None
        else None
    )
    return TableReport(
        table=table.name,
        method=joiner.name,
        join=score_join(results),
        edits=edits,
        seconds=elapsed,
        stats=output.stats,
    )


def manifest_rows(reports: Sequence[DatasetReport]) -> list[dict]:
    """Flatten dataset reports into run-manifest eval rows.

    One JSON-friendly dict per dataset/method pair, scores rounded to
    four places so manifests diff cleanly across runs: score changes
    show up, float noise does not.
    """
    return [
        {
            "dataset": report.dataset,
            "method": report.method,
            "precision": round(report.precision, 4),
            "recall": round(report.recall, 4),
            "f1": round(report.f1, 4),
            "aed": round(report.aed, 4),
            "aned": round(report.aned, 4),
            "seconds": round(report.seconds, 4),
            "tables": report.tables,
        }
        for report in reports
    ]


def evaluate_on_dataset(
    joiner: TableJoiner,
    tables: Sequence[TablePair],
    split_fraction: float = 0.5,
    noise_ratio: float = 0.0,
    noise_seed: int = 0,
) -> DatasetReport:
    """Evaluate one method over a dataset; averages follow §5.4."""
    if not tables:
        raise ValueError("dataset has no tables")
    reports = [
        evaluate_on_table(
            joiner,
            table,
            split_fraction=split_fraction,
            noise_ratio=noise_ratio,
            noise_seed=noise_seed,
        )
        for table in tables
    ]
    return average_reports(tables[0].dataset or "dataset", joiner.name, reports)
