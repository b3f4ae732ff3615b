"""Noise robustness via multi-trial aggregation (paper §5.10).

Automatically generated example pairs often contain garbage.  This demo
corrupts a growing fraction of the example pool and shows how DTT's
decompose-and-vote design keeps the join accurate while CST degrades.

Run:  python examples/noisy_examples.py
"""

from __future__ import annotations

from repro.baselines.cst import CSTJoiner
from repro.datagen.benchmarks.registry import get_dataset
from repro.eval.runner import DTTJoinerAdapter, evaluate_on_dataset
from repro.surrogate.pretrained import PretrainedDTT

NOISE_RATIOS = (0.0, 0.2, 0.4, 0.6, 0.8)


def main() -> None:
    tables = get_dataset("SS", seed=1, scale=0.15)
    print(f"SS benchmark sample: {len(tables)} tables")
    methods = [
        DTTJoinerAdapter(PretrainedDTT(), name="DTT", seed=1),
        CSTJoiner(),
    ]
    header = "noise ratio " + "".join(f"{r:>8.1f}" for r in NOISE_RATIOS)
    print(header)
    for method in methods:
        f1_values = []
        for ratio in NOISE_RATIOS:
            report = evaluate_on_dataset(
                method, tables, noise_ratio=ratio, noise_seed=1
            )
            f1_values.append(report.f1)
        print(
            f"{method.name:11s} "
            + "".join(f"{value:8.3f}" for value in f1_values)
        )
    print(
        "\nDTT stays near-perfect through 40% noise thanks to the "
        "decompose-and-vote design (Figure 5 of the paper); at this tiny "
        "demo scale the example pools are small, so the extreme-noise "
        "points are choppier than the full benchmark in "
        "benchmarks/bench_figure5.py."
    )


if __name__ == "__main__":
    main()
