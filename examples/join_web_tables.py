"""Join simulated web tables end-to-end and score every method.

Reproduces a slice of the paper's Table 1 on the WT benchmark: DTT
against CST, Auto-FuzzyJoin, and Ditto, with per-dataset precision /
recall / F1.

Run:  python examples/join_web_tables.py
"""

from __future__ import annotations

from repro.baselines.afj import AFJJoiner
from repro.baselines.cst import CSTJoiner
from repro.baselines.ditto import DittoJoiner
from repro.datagen.benchmarks.registry import get_dataset
from repro.eval.runner import DTTJoinerAdapter, evaluate_on_dataset
from repro.surrogate.pretrained import PretrainedDTT

SCALE = 0.3  # fraction of the full benchmark, for a quick demo
SEED = 0


def main() -> None:
    tables = get_dataset("WT", seed=SEED, scale=SCALE)
    print(
        f"WT benchmark: {len(tables)} table pairs, topics "
        f"{sorted({t.topic for t in tables})[:6]} ..."
    )
    sample = tables[0]
    print(f"\nSample rows from {sample.name!r}:")
    for source, target in list(zip(sample.sources, sample.targets))[:4]:
        print(f"  {source!r} -> {target!r}")

    methods = [
        DTTJoinerAdapter(PretrainedDTT(), name="DTT", seed=SEED),
        CSTJoiner(),
        AFJJoiner(),
        DittoJoiner(),
    ]
    print(f"\n{'method':10s} {'P':>7s} {'R':>7s} {'F1':>7s} {'ANED':>7s}")
    for method in methods:
        report = evaluate_on_dataset(method, tables)
        print(
            f"{method.name:10s} {report.precision:7.3f} {report.recall:7.3f} "
            f"{report.f1:7.3f} {report.aned:7.3f}"
        )


if __name__ == "__main__":
    main()
