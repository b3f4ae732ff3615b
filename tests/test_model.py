"""Tests for the trainable byte-level seq2seq model and its trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen.training import TrainingInstance
from repro.exceptions import ModelError
from repro.model.config import TINY_CONFIG, DTTModelConfig
from repro.model.seq2seq import ByteSeq2SeqModel
from repro.model.trainer import Trainer


class TestConfig:
    def test_defaults_are_unbalanced(self):
        config = DTTModelConfig()
        assert config.encoder_layers >= config.decoder_layers

    def test_balanced_violation_rejected(self):
        with pytest.raises(ModelError):
            DTTModelConfig(encoder_layers=1, decoder_layers=2)

    def test_head_divisibility(self):
        with pytest.raises(ModelError):
            DTTModelConfig(dim=30, n_heads=4)


class TestByteSeq2SeqModel:
    def test_prepare_batch_shapes(self):
        model = ByteSeq2SeqModel(TINY_CONFIG)
        prompts = ["<sos>a<tr>A<eoe>b<tr><eos>", "<sos>cc<tr>CC<eoe>dd<tr><eos>"]
        labels = ["B", "DD"]
        input_ids, input_mask, decoder_in, targets, target_mask = (
            model.prepare_batch(prompts, labels)
        )
        assert input_ids.shape[0] == 2
        assert decoder_in.shape == targets.shape
        assert decoder_in[0, 0] == model.tokenizer.vocab.sos_id
        # First target of row 0 is 'B', last real target is <eos>.
        assert targets[0, 0] == model.tokenizer.encode_text("B")[0]

    def test_labels_truncated_to_max_output(self):
        config = DTTModelConfig(
            dim=32, n_heads=2, encoder_layers=1, decoder_layers=1,
            ffn_hidden=32, max_input_length=64, max_output_length=4,
        )
        model = ByteSeq2SeqModel(config)
        _, _, decoder_in, targets, _ = model.prepare_batch(
            ["<sos>a<tr><eos>"], ["abcdefghij"]
        )
        assert decoder_in.shape[1] <= 4

    def test_generate_returns_one_output_per_prompt(self):
        model = ByteSeq2SeqModel(TINY_CONFIG)
        outputs = model.generate(["<sos>a<tr><eos>", "<sos>b<tr><eos>"])
        assert len(outputs) == 2
        assert all(isinstance(o, str) for o in outputs)

    def test_generate_empty_batch(self):
        assert ByteSeq2SeqModel(TINY_CONFIG).generate([]) == []

    def test_generate_deterministic(self):
        model = ByteSeq2SeqModel(TINY_CONFIG)
        prompt = ["<sos>ab<tr>AB<eoe>cd<tr><eos>"]
        assert model.generate(prompt) == model.generate(prompt)

    def test_loss_decreases_with_steps(self):
        model = ByteSeq2SeqModel(TINY_CONFIG)
        from repro.nn.optim import Adam

        optimizer = Adam(model.network.parameters(), 3e-3)
        prompts = ["<sos>ab<tr>AB<eoe>cd<tr><eos>"] * 4
        labels = ["CD"] * 4
        first = None
        last = None
        for _ in range(25):
            optimizer.zero_grad()
            loss = model.loss_and_backward(prompts, labels)
            optimizer.step()
            if first is None:
                first = loss
            last = loss
        assert last < first * 0.5

    def test_inference_between_forward_and_backward_keeps_gradients(self):
        # Regression: generate() used to run the training encoder, which
        # overwrote every cache forward() had left for backward().
        from repro.nn.loss import masked_cross_entropy

        prompts = ["<sos>ab<tr>AB<eoe>cd<tr><eos>", "<sos>efg<tr>EFG<eoe>h<tr><eos>"]
        labels = ["CD", "H"]

        def gradients(interleave: bool) -> list[np.ndarray]:
            model = ByteSeq2SeqModel(TINY_CONFIG)
            input_ids, input_mask, decoder_in, targets, target_mask = (
                model.prepare_batch(prompts, labels)
            )
            logits = model.network.forward(input_ids, decoder_in, input_mask)
            if interleave:
                model.generate(["<sos>a much longer and different prompt<tr><eos>"])
                model.generate_full_prefix(prompts[:1])
                model.evaluate_loss(prompts[:1], labels[:1])
            _, grad_logits = masked_cross_entropy(logits, targets, target_mask)
            model.network.backward(grad_logits)
            return [p.grad.copy() for p in model.network.parameters()]

        for plain, interleaved in zip(
            gradients(False), gradients(True), strict=True
        ):
            assert np.array_equal(plain, interleaved)

    def test_implements_sequence_model_protocol(self):
        from repro.core.interface import SequenceModel

        assert isinstance(ByteSeq2SeqModel(TINY_CONFIG), SequenceModel)


class TestTrainer:
    def _copy_task_instances(self) -> list[TrainingInstance]:
        items = "abcdefgh"
        return [
            TrainingInstance(
                prompt=f"<sos>{a}<tr>{a}<eoe>{b}<tr>{b}<eoe>{c}<tr><eos>",
                label=c,
            )
            for a in items
            for b in items
            for c in items[:4]
            if a != b
        ]

    def test_training_reduces_loss(self):
        model = ByteSeq2SeqModel(TINY_CONFIG)
        trainer = Trainer(model, learning_rate=3e-3, batch_size=32)
        report = trainer.fit(self._copy_task_instances(), epochs=3)
        assert report.epochs_run == 3
        assert report.train_losses[-1] < report.train_losses[0]

    def test_learns_copy_task(self):
        model = ByteSeq2SeqModel(TINY_CONFIG)
        trainer = Trainer(model, learning_rate=3e-3, batch_size=32)
        trainer.fit(self._copy_task_instances(), epochs=8)
        outputs = model.generate(
            ["<sos>a<tr>a<eoe>b<tr>b<eoe>c<tr><eos>"]
        )
        assert outputs == ["c"]

    def test_early_stopping(self):
        model = ByteSeq2SeqModel(TINY_CONFIG)
        trainer = Trainer(model, learning_rate=0.0, patience=2)
        report = trainer.fit(self._copy_task_instances()[:40], epochs=20)
        assert report.epochs_run < 20

    def test_no_instances_rejected(self):
        trainer = Trainer(ByteSeq2SeqModel(TINY_CONFIG))
        with pytest.raises(ValueError):
            trainer.fit([], epochs=1)

    def test_invalid_validation_fraction(self):
        with pytest.raises(ValueError):
            Trainer(ByteSeq2SeqModel(TINY_CONFIG), validation_fraction=1.0)
