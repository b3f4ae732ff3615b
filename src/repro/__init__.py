"""repro — a reproduction of DTT (SIGMOD 2024).

DTT transforms tabular data from a source formatting into a target
formatting from a few examples, enabling heterogeneous joins,
missing-value imputation, and error detection.

Quickstart::

    from repro.core.pipeline import DTTPipeline
    from repro.surrogate.pretrained import PretrainedDTT
    from repro.types import ExamplePair

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
