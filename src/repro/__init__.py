"""repro — a reproduction of DTT (SIGMOD 2024).

DTT transforms tabular data from a source formatting into a target
formatting from a few examples, enabling heterogeneous joins,
missing-value imputation, and error detection.

Quickstart::

    from repro import DTTPipeline, PretrainedDTT, ExamplePair

    model = PretrainedDTT()
    pipeline = DTTPipeline(model)
    examples = [
        ExamplePair("Justin Trudeau", "jtrudeau"),
        ExamplePair("Stephen Harper", "sharper"),
        ExamplePair("Paul Martin", "pmartin"),
    ]
    predictions = pipeline.transform_column(
        ["Jean Chretien", "Kim Campbell"], examples
    )
"""

from repro.types import ExamplePair, JoinResult, Prediction, TablePair
from repro.core import (
    Aggregator,
    Decomposer,
    DTTPipeline,
    EditDistanceJoiner,
    PromptSerializer,
    SequenceModel,
)
from repro.index import AutoJoiner, IndexedJoiner, make_joiner
from repro.serve import ResultCache, TransformService
from repro.surrogate import GPT3Surrogate, PretrainedDTT, TrainingProfile
from repro.metrics import score_edits, score_join
from repro.datagen.benchmarks import dataset_names, get_dataset

__version__ = "1.0.0"

__all__ = [
    "ExamplePair",
    "TablePair",
    "Prediction",
    "JoinResult",
    "DTTPipeline",
    "SequenceModel",
    "PromptSerializer",
    "Decomposer",
    "Aggregator",
    "EditDistanceJoiner",
    "IndexedJoiner",
    "AutoJoiner",
    "make_joiner",
    "TransformService",
    "ResultCache",
    "PretrainedDTT",
    "GPT3Surrogate",
    "TrainingProfile",
    "score_join",
    "score_edits",
    "get_dataset",
    "dataset_names",
    "__version__",
]
