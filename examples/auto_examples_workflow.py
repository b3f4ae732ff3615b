"""The no-user-examples workflow: auto-generate examples, then join (§2).

When nobody labels example pairs, Auto-join/CST-style *token matching*
can bootstrap them from the two unjoined columns — at the cost of noise
and invalid pairs, which DTT's aggregation absorbs (§5.10).

Run:  python examples/auto_examples_workflow.py
"""

from __future__ import annotations

from repro.core.pipeline import DTTPipeline
from repro.datagen.auto_examples import AutoExampleGenerator
from repro.datagen.benchmarks.registry import get_dataset
from repro.metrics.join_metrics import score_join
from repro.surrogate.pretrained import PretrainedDTT


def main() -> None:
    table = get_dataset("WT", seed=4, scale=0.2)[1]  # a name-rearrange topic
    pool_rows, test_rows = table.split()
    print(f"table {table.name!r}: no user-provided examples available")

    generator = AutoExampleGenerator(min_score=0.25)
    generated = generator.generate(
        [r.source for r in pool_rows], [r.target for r in pool_rows]
    )
    print(f"\nauto-generated {len(generated)} example pairs, e.g.:")
    for auto in generated[:4]:
        print(
            f"  {auto.pair.source!r} <-> {auto.pair.target!r} "
            f"(score {auto.score:.2f})"
        )

    pipeline = DTTPipeline(PretrainedDTT(), seed=4)
    results = pipeline.join(
        [r.source for r in test_rows],
        list(table.targets),
        [auto.pair for auto in generated],
        expected=[r.target for r in test_rows],
    )
    scores = score_join(results)
    print(
        f"\njoin quality with auto-generated examples: "
        f"P={scores.precision:.3f} R={scores.recall:.3f} F1={scores.f1:.3f}"
    )


if __name__ == "__main__":
    main()
