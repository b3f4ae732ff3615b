"""Train the byte-level seq2seq transformer from scratch (paper §4.2, §5.1).

Generates a small corpus of transformation groupings, fine-tunes the
numpy encoder-decoder on serialized subsets, and plugs the trained model
into the same DTT pipeline used everywhere else.  This exercises the
paper's full training recipe at laptop scale (the released-checkpoint
behaviour in the benchmarks is provided by the PretrainedDTT stand-in).

Run:  python examples/train_model.py          (~1-2 minutes on CPU)
"""

from __future__ import annotations

from repro import DTTPipeline, ExamplePair
from repro.datagen.training import TrainingDataGenerator
from repro.model import ByteSeq2SeqModel, Trainer
from repro.model.config import DTTModelConfig


def main() -> None:
    # A deliberately easy training distribution so the tiny model
    # converges quickly: short inputs, shallow transformations.
    generator = TrainingDataGenerator(
        seed=3, min_length=4, max_length=8, pairs_per_grouping=8
    )
    instances = generator.generate_instances(
        grouping_count=120, subsets_per_grouping=6
    )
    print(f"training instances: {len(instances)}")

    config = DTTModelConfig(
        dim=48,
        n_heads=4,
        encoder_layers=2,
        decoder_layers=1,
        ffn_hidden=96,
        max_input_length=96,
        max_output_length=24,
    )
    model = ByteSeq2SeqModel(config)
    print(f"model parameters: {model.network.n_parameters:,}")

    trainer = Trainer(model, learning_rate=3e-3, batch_size=32, patience=3)
    report = trainer.fit(instances, epochs=6)
    print("train loss per epoch:", [f"{x:.3f}" for x in report.train_losses])
    print("validation loss     :", [f"{x:.3f}" for x in report.validation_losses])

    # The trained network drops into the identical pipeline.
    pipeline = DTTPipeline(model, seed=0)
    examples = [ExamplePair("abcd", "ABCD"), ExamplePair("wxyz", "WXYZ"),
                ExamplePair("pqrs", "PQRS")]
    predictions = pipeline.transform_column(["lmno"], examples)
    print(f"\npipeline with the trained transformer: 'lmno' -> "
          f"{predictions[0].value!r} (uppercase mapping)")


if __name__ == "__main__":
    main()
