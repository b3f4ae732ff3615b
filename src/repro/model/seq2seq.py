"""Byte-level sequence-to-sequence model over the numpy transformer.

Implements the :class:`~repro.core.interface.IncrementalSequenceModel`
protocol: ``generate`` consumes serialized DTT prompts and emits decoded
strings, so a trained instance plugs into
:class:`~repro.core.pipeline.DTTPipeline` exactly like the pretrained
stand-in or the GPT-3 surrogate — and because the model exposes
``tokenize_prompts`` / ``start_decode``, the generation engine owns its
decode loop (KV-cached incremental steps, prompt dedupe, one step loop
per micro-batch, live compaction).  ``generate_full_prefix`` keeps the
original O(T²) re-decode loop as the equivalence reference and benchmark
baseline.  Both run the network's no-grad ``infer`` side; only
``loss_and_backward`` calls the caching training ``forward``.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from repro.infer.engine import GenerationEngine
from repro.infer.session import DecodeSession
from repro.model.config import DTTModelConfig
from repro.nn.loss import masked_cross_entropy
from repro.nn.serialization import load_weights, save_weights
from repro.nn.transformer import Seq2SeqTransformer
from repro.tokenizer import ByteTokenizer

_DEFAULT_ENGINE: GenerationEngine | None = None


def _default_engine() -> GenerationEngine:
    """The shared greedy engine behind engine-less ``generate`` calls."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = GenerationEngine()
    return _DEFAULT_ENGINE


class ByteSeq2SeqModel:
    """Trainable byte-level encoder-decoder (paper §4.2).

    Args:
        config: Hyper-parameters; defaults to the laptop-scale config.
        tokenizer: Byte tokenizer; a default instance is created.
        engine: Generation engine driving :meth:`generate`.  When set,
            it also takes precedence over a pipeline-level scheduling
            engine for this model's jobs (most specific wins); when
            omitted, the model decodes greedily — byte-identical to the
            full-prefix reference — and defers to whichever engine
            schedules it.
    """

    def __init__(
        self,
        config: DTTModelConfig | None = None,
        tokenizer: ByteTokenizer | None = None,
        engine: GenerationEngine | None = None,
    ) -> None:
        self.config = config or DTTModelConfig()
        self.tokenizer = tokenizer or ByteTokenizer()
        self.engine = engine
        self.network = Seq2SeqTransformer(
            vocab_size=self.tokenizer.vocab_size,
            dim=self.config.dim,
            n_heads=self.config.n_heads,
            encoder_layers=self.config.encoder_layers,
            decoder_layers=self.config.decoder_layers,
            ffn_hidden=self.config.ffn_hidden,
            max_length=max(
                self.config.max_input_length, self.config.max_output_length
            ),
            seed=self.config.seed,
        )

    @property
    def name(self) -> str:
        return "ByteSeq2Seq"

    def fingerprint(self) -> str:
        """Content fingerprint: architecture config plus current weights.

        Hashes every parameter's name, shape, and bytes, so two models
        agree exactly when (and only when) they would generate the same
        outputs.  Recomputed on every call — training mutates weights in
        place, so the fingerprint must never be cached here; callers
        that memoize on it (the serving layer) snapshot it at service
        construction.
        """
        digest = hashlib.sha256()
        digest.update(b"repro.byteseq2seq")
        digest.update(repr(self.config).encode("utf-8"))
        for parameter in self.network.parameters():
            digest.update(parameter.name.encode("utf-8"))
            digest.update(repr(parameter.value.shape).encode("utf-8"))
            digest.update(np.ascontiguousarray(parameter.value).tobytes())
        return digest.hexdigest()

    # -- training -----------------------------------------------------------

    def prepare_batch(
        self, prompts: list[str], labels: list[str]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Tokenize and pad a (prompts, labels) batch for teacher forcing.

        Returns:
            ``(input_ids, input_mask, decoder_in, decoder_targets,
            target_mask)``.  The decoder input starts with ``<sos>`` and
            the targets end with ``<eos>`` (shifted by one).
        """
        vocab = self.tokenizer.vocab
        encoded_inputs = [
            self.tokenizer.encode(p)[: self.config.max_input_length]
            for p in prompts
        ]
        input_ids, input_mask = self.tokenizer.pad_batch(encoded_inputs)

        label_limit = self.config.max_output_length - 1
        encoded_labels = [
            self.tokenizer.encode_text(label)[:label_limit] for label in labels
        ]
        decoder_in_seqs = [[vocab.sos_id] + ids for ids in encoded_labels]
        target_seqs = [ids + [vocab.eos_id] for ids in encoded_labels]
        decoder_in, _ = self.tokenizer.pad_batch(decoder_in_seqs)
        targets, target_mask = self.tokenizer.pad_batch(target_seqs)
        return input_ids, input_mask, decoder_in, targets, target_mask

    def loss_and_backward(self, prompts: list[str], labels: list[str]) -> float:
        """One teacher-forced pass: returns the loss, gradients are left
        in the network's parameters (caller runs the optimizer)."""
        input_ids, input_mask, decoder_in, targets, target_mask = (
            self.prepare_batch(prompts, labels)
        )
        logits = self.network.forward(input_ids, decoder_in, input_mask)
        loss, grad_logits = masked_cross_entropy(logits, targets, target_mask)
        self.network.backward(grad_logits)
        return loss

    def evaluate_loss(self, prompts: list[str], labels: list[str]) -> float:
        """Loss without touching gradients or caches (for validation)."""
        input_ids, input_mask, decoder_in, targets, target_mask = (
            self.prepare_batch(prompts, labels)
        )
        memory = self.network.infer_encode(input_ids, input_mask)
        logits = self.network.infer_decode(decoder_in, memory, input_mask)
        loss, _ = masked_cross_entropy(logits, targets, target_mask)
        return loss

    # -- inference ----------------------------------------------------------

    def generate(self, prompts: list[str]) -> list[str]:
        """Auto-regressive decoding through the generation engine.

        The engine steps the decoder incrementally against per-layer KV
        caches; in greedy mode the outputs are byte-identical to
        :meth:`generate_full_prefix`.  Uses the model's own engine when
        one was configured, else a shared default greedy engine.
        """
        engine = self.engine or _default_engine()
        return engine.generate(self, prompts)

    def tokenize_prompts(self, prompts: list[str]) -> list[list[int]]:
        """Tokenize prompts, truncated to ``max_input_length``."""
        return [
            self.tokenizer.encode(p)[: self.config.max_input_length]
            for p in prompts
        ]

    def start_decode(self, prompt_ids: Sequence[Sequence[int]]) -> DecodeSession:
        """Encode a tokenized micro-batch and open a decode session."""
        return DecodeSession(
            self.network,
            self.tokenizer,
            prompt_ids,
            max_steps=self.config.max_output_length - 1,
        )

    def generate_full_prefix(self, prompts: list[str]) -> list[str]:
        """Greedy decoding that re-decodes the full prefix every step.

        The pre-engine O(T²) reference path: kept for the equivalence
        suite (``tests/test_generation.py``) and as the reference the
        repo benchmark's ``offline_transform`` workload checks against.
        """
        if not prompts:
            return []
        vocab = self.tokenizer.vocab
        input_ids, input_mask = self.tokenizer.pad_batch(
            self.tokenize_prompts(prompts)
        )
        memory = self.network.infer_encode(input_ids, input_mask)

        batch = len(prompts)
        sequences = np.full((batch, 1), vocab.sos_id, dtype=np.int64)
        finished = np.zeros(batch, dtype=bool)
        for _ in range(self.config.max_output_length - 1):
            logits = self.network.infer_decode(sequences, memory, input_mask)
            next_ids = logits[:, -1, :].argmax(axis=-1)
            next_ids = np.where(finished, vocab.pad_id, next_ids)
            sequences = np.concatenate([sequences, next_ids[:, None]], axis=1)
            finished |= next_ids == vocab.eos_id
            if finished.all():
                break
        return [
            self.tokenizer.decode(row[1:], strip_special=True)
            for row in sequences
        ]

    # -- persistence ----------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Save network weights to ``path`` (``.npz``)."""
        save_weights(self.network, path)

    def load(self, path: str | Path) -> None:
        """Load network weights saved by :meth:`save`."""
        load_weights(self.network, path)
