"""Quickstart: transform a column from a few examples (paper §2).

The running example of the paper: given three (name, user id) pairs,
predict the user ids of the remaining prime ministers, then join the
columns.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.core.pipeline import DTTPipeline
from repro.surrogate.pretrained import PretrainedDTT
from repro.types import ExamplePair

EXAMPLES = [
    ExamplePair("Justin Trudeau", "jtrudeau"),
    ExamplePair("Stephen Harper", "sharper"),
    ExamplePair("Paul Martin", "pmartin"),
]
REMAINING = ["Jean Chretien", "Kim Campbell", "Brian Mulroney"]
TARGET_COLUMN = [
    "jtrudeau", "sharper", "pmartin", "jchretien", "kcampbell", "bmulroney",
]


def main() -> None:
    model = PretrainedDTT()
    pipeline = DTTPipeline(model, context_size=2, n_trials=5, seed=0)

    print("Missing-value prediction (paper §2):")
    predictions = pipeline.transform_column(REMAINING, EXAMPLES)
    for prediction in predictions:
        print(
            f"  {prediction.source:18s} -> {prediction.value:12s} "
            f"({prediction.votes}/{len(prediction.candidates)} trials agree)"
        )

    print("\nHeterogeneous join (paper §4.4, Eq. 5):")
    results = pipeline.join(REMAINING, TARGET_COLUMN, EXAMPLES)
    for result in results:
        print(
            f"  {result.source:18s} -> predicted {result.predicted!r}, "
            f"matched {result.matched!r} (edit distance {result.distance})"
        )


if __name__ == "__main__":
    main()
