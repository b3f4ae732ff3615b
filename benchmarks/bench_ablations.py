"""Ablations of DTT's design choices.

Not a paper artifact — these quantify the contribution of each
framework component the paper motivates qualitatively:

* context size 1 vs 2 vs 3 (§4.1 argues 2 resolves most ambiguity);
* aggregation on (5 trials) vs off (1 trial), clean and noisy (§4.3);
* the edit-distance join vs exact-match joining (§4.4).
"""

from __future__ import annotations

from conftest import persist

from repro.baselines.base import JoinOutput
from repro.datagen.benchmarks import get_dataset
from repro.eval.runner import DTTJoinerAdapter, evaluate_on_dataset
from repro.surrogate import PretrainedDTT

_SCALE = 0.25
_SEED = 7


def test_ablation_context_size(benchmark, results_dir):
    def run():
        rows = {}
        for k in (1, 2, 3):
            adapter = DTTJoinerAdapter(
                PretrainedDTT(seed=_SEED), context_size=k, seed=_SEED,
                name=f"k={k}",
            )
            rows[k] = {
                name: evaluate_on_dataset(
                    adapter, get_dataset(name, seed=_SEED, scale=_SCALE)
                ).f1
                for name in ("WT", "SS", "Syn")
            }
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Ablation: context size (examples per sub-task)"]
    lines.append("k".ljust(4) + "".join(f"{d:>8s}" for d in ("WT", "SS", "Syn")))
    for k, values in rows.items():
        lines.append(
            str(k).ljust(4) + "".join(f"{values[d]:8.3f}" for d in values)
        )
    persist(results_dir, "ablation_context_size", "\n".join(lines))

    # Two examples resolve the §4.1 ambiguity that one cannot — clearest
    # on the synthetic transformations.  (On WT, k=1 can edge out k=2 by
    # a few points: single-example contexts never mix the conditional
    # per-row rules, a quirk of multi-rule tables.)
    assert rows[2]["Syn"] > rows[1]["Syn"]
    assert rows[2]["WT"] >= rows[1]["WT"] - 0.06
    assert rows[3]["Syn"] >= rows[2]["Syn"] - 0.05


def test_ablation_aggregation(benchmark, results_dir):
    def run():
        rows = {}
        for trials in (1, 5):
            adapter = DTTJoinerAdapter(
                PretrainedDTT(seed=_SEED), n_trials=trials, seed=_SEED,
                name=f"t={trials}",
            )
            tables = get_dataset("SS", seed=_SEED, scale=_SCALE)
            rows[trials] = {
                "clean": evaluate_on_dataset(adapter, tables).f1,
                "noisy60": evaluate_on_dataset(
                    adapter, tables, noise_ratio=0.6, noise_seed=_SEED
                ).f1,
            }
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Ablation: aggregation trials (SS, clean vs 60% example noise)"]
    for trials, values in rows.items():
        lines.append(
            f"trials={trials}  clean={values['clean']:.3f}  "
            f"noisy60={values['noisy60']:.3f}"
        )
    persist(results_dir, "ablation_aggregation", "\n".join(lines))

    # Aggregation is what buys noise robustness (§4.3/§5.10).
    assert rows[5]["noisy60"] > rows[1]["noisy60"]


class _ExactMatchAdapter:
    """DTT predictions joined by exact equality instead of Eq. 5."""

    def __init__(self) -> None:
        self._inner = DTTJoinerAdapter(
            PretrainedDTT(seed=_SEED), seed=_SEED, name="DTT-exact"
        )

    @property
    def name(self) -> str:
        return "DTT-exact"

    def join_table(self, sources, targets, examples) -> JoinOutput:
        predictions = self._inner.pipeline.transform_column(sources, examples)
        target_set = set(targets)
        matches = tuple(
            p.value if p.value in target_set else None for p in predictions
        )
        return JoinOutput(
            matches=matches, predictions=tuple(p.value for p in predictions)
        )


def test_ablation_join_strategy(benchmark, results_dir):
    def run():
        tables = get_dataset("Syn-RV", seed=_SEED, scale=0.5)
        eq5 = evaluate_on_dataset(
            DTTJoinerAdapter(PretrainedDTT(seed=_SEED), seed=_SEED, name="DTT"),
            tables,
        )
        exact = evaluate_on_dataset(_ExactMatchAdapter(), tables)
        return {"eq5": eq5.f1, "exact": exact.f1}

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    persist(
        results_dir,
        "ablation_join_strategy",
        "Ablation: Eq.5 edit-distance join vs exact match (Syn-RV)\n"
        f"eq5={rows['eq5']:.3f}  exact={rows['exact']:.3f}",
    )
    # The edit-distance join is what tolerates imperfect predictions —
    # on the hard dataset it recovers rows exact matching cannot (§5.5).
    assert rows["eq5"] >= rows["exact"]
