"""Multi-model aggregation: DTT + GPT-3 in one framework (paper §5.7).

The fine-tuned model excels at textual transformations; the large
general-purpose LLM carries world knowledge (state abbreviations,
capitals).  Pooling equally weighted trials from both lets the
aggregator pick whichever model is consistent on each table.

Run:  python examples/multi_model_ensemble.py
"""

from __future__ import annotations

from repro.core.pipeline import DTTPipeline
from repro.surrogate.llm import GPT3Surrogate
from repro.surrogate.pretrained import PretrainedDTT
from repro.types import ExamplePair

TEXTUAL_EXAMPLES = [
    ExamplePair("Gerard Little", "g.little"),
    ExamplePair("Norm Adams", "n.adams"),
    ExamplePair("Julie Lauzon", "j.lauzon"),
]
SEMANTIC_EXAMPLES = [
    ExamplePair("Texas", "TX"),
    ExamplePair("Ohio", "OH"),
    ExamplePair("Maine", "ME"),
]


def run(pipeline: DTTPipeline, label: str) -> None:
    textual = pipeline.transform_column(["Max Anderson"], TEXTUAL_EXAMPLES)[0]
    semantic = pipeline.transform_column(["Florida"], SEMANTIC_EXAMPLES)[0]
    print(
        f"{label:12s} textual: {textual.value!r:14s} "
        f"semantic: {semantic.value!r:8s} "
        f"(consistency {textual.consistency:.1f}/{semantic.consistency:.1f})"
    )


def main() -> None:
    dtt_only = DTTPipeline(PretrainedDTT(), seed=0)
    gpt_only = DTTPipeline(GPT3Surrogate(), seed=0)
    combined = DTTPipeline([PretrainedDTT(), GPT3Surrogate()], seed=0)

    print("name -> user id (textual) and state -> abbreviation (semantic):")
    run(dtt_only, "DTT")
    run(gpt_only, "GPT3")
    run(combined, "DTT+GPT3")
    print(
        "\nThe ensemble tracks the better model on each task — the "
        "aggregator selects the output with the higher cross-trial "
        "consistency (Table 3 of the paper)."
    )


if __name__ == "__main__":
    main()
