"""Missing-value imputation and error detection (paper §1, §4.4, §6).

Two downstream tasks beyond joining:

1. **Imputation** — a spreadsheet column of reformatted dates has gaps;
   DTT fills them from the populated rows.
2. **Error detection** — rows whose given value disagrees with the
   model's confident prediction are flagged as suspect.

Run:  python examples/missing_values.py
"""

from __future__ import annotations

from repro.core.pipeline import DTTPipeline
from repro.surrogate.pretrained import PretrainedDTT
from repro.types import ExamplePair

# A spreadsheet with a partially filled 'EU format' column.
ROWS: list[tuple[str, str | None]] = [
    ("2021-03-05", "05/03/2021"),
    ("1999-12-31", "31/12/1999"),
    ("2010-07-22", "22/07/2010"),
    ("2024-01-15", None),  # missing
    ("2018-11-02", None),  # missing
    ("2005-06-30", "30/06/2005"),
    ("2012-09-08", "08/09/2012"),
    ("2020-02-29", "92/02/2020"),  # transposed digits — an entry error
]


def main() -> None:
    pipeline = DTTPipeline(PretrainedDTT(), seed=0)
    examples = [
        ExamplePair(src, val) for src, val in ROWS if val is not None
    ]

    print("Filling missing values:")
    missing = [src for src, val in ROWS if val is None]
    for prediction in pipeline.transform_column(missing, examples):
        print(f"  {prediction.source} -> {prediction.value}")

    print("\nScanning populated rows for entry errors:")
    populated = [(src, val) for src, val in ROWS if val is not None]
    predictions = pipeline.transform_column([s for s, _ in populated], examples)
    for (source, given), prediction in zip(populated, predictions):
        if prediction.value != given and prediction.consistency >= 0.6:
            print(
                f"  SUSPECT row: {source} recorded as {given!r}, "
                f"model predicts {prediction.value!r} "
                f"({prediction.votes}/{len(prediction.candidates)} trials)"
            )


if __name__ == "__main__":
    main()
