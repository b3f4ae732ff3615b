"""Tests for the numpy deep-learning stack: layers, attention, loss and
the optimizer — including finite-difference gradient checks."""

from __future__ import annotations

import re
import time
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import ModelError, ShapeError
from repro.model.config import TINY_CONFIG
from repro.model.seq2seq import ByteSeq2SeqModel
from repro.nn import functional
from repro.nn.attention import MultiHeadAttention
from repro.nn.functional import (
    gelu,
    gelu_backward,
    softmax,
    softmax_backward,
    standardize,
)
from repro.nn.layers import Dense, Embedding, LayerNorm
from repro.nn.loss import masked_cross_entropy
from repro.nn.optim import Adam, clip_gradients
from repro.nn.parameter import Module, Parameter
from repro.nn.transformer import FeedForward, Seq2SeqTransformer


def _numeric_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        up = f()
        flat[i] = old - eps
        down = f()
        flat[i] = old
        grad_flat[i] = (up - down) / (2 * eps)
    return grad


class TestFunctional:
    def test_softmax_sums_to_one(self):
        probs = softmax(np.random.default_rng(0).normal(size=(3, 5)))
        assert np.allclose(probs.sum(axis=-1), 1.0)

    def test_softmax_stability(self):
        probs = softmax(np.array([1e4, 1e4 + 1.0]))
        assert np.isfinite(probs).all()

    def test_softmax_backward_matches_numeric(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4,))
        upstream = rng.normal(size=(4,))

        def scalar() -> float:
            return float((softmax(x) * upstream).sum())

        analytic = softmax_backward(softmax(x), upstream)
        numeric = _numeric_gradient(scalar, x)
        assert np.allclose(analytic, numeric, atol=1e-6)

    def test_gelu_backward_matches_numeric(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6,))
        upstream = rng.normal(size=(6,))

        def scalar() -> float:
            return float((gelu(x) * upstream).sum())

        analytic = gelu_backward(x, upstream)
        numeric = _numeric_gradient(scalar, x)
        assert np.allclose(analytic, numeric, atol=1e-6)


    def test_softmax_out_overwrites_scores_with_the_same_bits(self):
        scores = np.random.default_rng(8).normal(size=(2, 3, 5))
        expected = softmax(scores)
        assert softmax(scores, out=scores) is scores
        assert np.array_equal(scores, expected)

    def test_gelu_matches_the_tanh_formula(self):
        x = np.random.default_rng(9).normal(scale=3.0, size=(64,))
        inner = np.sqrt(2.0 / np.pi) * (x + 0.044715 * x * x * x)
        assert np.array_equal(gelu(x), 0.5 * x * (1.0 + np.tanh(inner)))

    def test_standardize_keeps_the_bits_of_mean_and_var(self):
        x = np.random.default_rng(10).normal(2.0, 3.0, size=(3, 7, 64))
        inv_std = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
        normalized, got_inv_std = standardize(x, 1e-5)
        assert np.array_equal(got_inv_std, inv_std)
        assert np.array_equal(
            normalized, (x - x.mean(axis=-1, keepdims=True)) * inv_std
        )

    def test_no_array_power_other_than_square(self):
        """``x**3`` costs a libm ``pow`` per element: 39x ``tanh`` where
        three multiplies cost 3x.  Guard the source and the clock."""
        source = Path(functional.__file__).read_text()
        assert not re.findall(r"\*\*\s*(?!2\b)\S+", source)
        assert "np.power" not in source and "np.float_power" not in source

        x = np.random.default_rng(11).normal(size=1_000_000)

        def best_of_5(function) -> float:
            best = float("inf")
            for _ in range(5):
                started = time.perf_counter()
                function(x)
                best = min(best, time.perf_counter() - started)
            return best

        assert best_of_5(gelu) < 10 * best_of_5(np.tanh)


class TestParameter:
    def test_accumulate_shape_checked(self):
        parameter = Parameter(np.zeros((2, 2)), name="p")
        with pytest.raises(ShapeError):
            parameter.accumulate(np.zeros(3))

    def test_zero_grad(self):
        parameter = Parameter(np.zeros(2))
        parameter.accumulate(np.ones(2))
        parameter.zero_grad()
        assert (parameter.grad == 0).all()

    def test_module_collects_nested_parameters(self):
        class Inner(Module):
            def __init__(self):
                self.w = Parameter(np.zeros(1))

        class Outer(Module):
            def __init__(self):
                self.blocks = [Inner(), Inner()]
                self.bias = Parameter(np.zeros(2))

        outer = Outer()
        params = outer.parameters()
        assert len(params) == 3
        names = {p.name for p in params}
        assert "blocks.0.w" in names and "bias" in names

    def test_n_parameters(self):
        class M(Module):
            def __init__(self):
                self.w = Parameter(np.zeros((3, 4)))

        assert M().n_parameters == 12


class TestDense:
    def test_forward_shape(self):
        dense = Dense(4, 6, np.random.default_rng(0))
        out = dense.forward(np.zeros((2, 3, 4)))
        assert out.shape == (2, 3, 6)

    def test_gradients_match_numeric(self):
        rng = np.random.default_rng(3)
        dense = Dense(3, 2, rng)
        x = rng.normal(size=(2, 3))
        upstream = rng.normal(size=(2, 2))

        def scalar() -> float:
            return float((dense.forward(x) * upstream).sum())

        scalar()
        dense.weight.zero_grad()
        dense.bias.zero_grad()
        dx = dense.backward(upstream)
        assert np.allclose(
            dense.weight.grad, _numeric_gradient(scalar, dense.weight.value), atol=1e-6
        )
        assert np.allclose(
            dense.bias.grad, _numeric_gradient(scalar, dense.bias.value), atol=1e-6
        )
        assert np.allclose(dx, _numeric_gradient(scalar, x), atol=1e-6)


class TestEmbedding:
    def test_lookup(self):
        embedding = Embedding(10, 4, np.random.default_rng(0))
        out = embedding.forward(np.array([[1, 2], [3, 1]]))
        assert out.shape == (2, 2, 4)
        assert np.allclose(out[0, 0], embedding.table.value[1])

    def test_scatter_add_gradient(self):
        embedding = Embedding(5, 2, np.random.default_rng(1))
        ids = np.array([[0, 0, 1]])
        embedding.forward(ids)
        embedding.backward(np.ones((1, 3, 2)))
        # Token 0 used twice: accumulates gradient 2, token 1 once.
        assert np.allclose(embedding.table.grad[0], 2.0)
        assert np.allclose(embedding.table.grad[1], 1.0)
        assert np.allclose(embedding.table.grad[2], 0.0)


class TestLayerNorm:
    def test_output_is_normalized(self):
        norm = LayerNorm(8)
        out = norm.forward(np.random.default_rng(0).normal(2.0, 3.0, size=(4, 8)))
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-7)
        assert np.allclose(out.std(axis=-1), 1.0, atol=1e-3)

    def test_gradients_match_numeric(self):
        rng = np.random.default_rng(4)
        norm = LayerNorm(5)
        x = rng.normal(size=(2, 5))
        upstream = rng.normal(size=(2, 5))

        def scalar() -> float:
            return float((norm.forward(x) * upstream).sum())

        scalar()
        norm.gain.zero_grad()
        norm.shift.zero_grad()
        dx = norm.backward(upstream)
        assert np.allclose(dx, _numeric_gradient(scalar, x), atol=1e-5)
        assert np.allclose(
            norm.gain.grad, _numeric_gradient(scalar, norm.gain.value), atol=1e-5
        )


class TestAttention:
    def test_dim_must_divide(self):
        with pytest.raises(ModelError):
            MultiHeadAttention(10, 3, np.random.default_rng(0))

    def test_self_attention_shapes(self):
        attention = MultiHeadAttention(8, 2, np.random.default_rng(0))
        out = attention.forward(np.random.default_rng(1).normal(size=(2, 5, 8)))
        assert out.shape == (2, 5, 8)

    def test_causal_mask_blocks_future(self):
        rng = np.random.default_rng(2)
        attention = MultiHeadAttention(8, 2, rng, causal=True)
        x = rng.normal(size=(1, 4, 8))
        base = attention.forward(x)
        # Changing a future position must not affect earlier outputs.
        x2 = x.copy()
        x2[0, 3] += 10.0
        out2 = attention.forward(x2)
        assert np.allclose(base[0, :3], out2[0, :3])

    def test_key_mask_excludes_padding(self):
        rng = np.random.default_rng(3)
        attention = MultiHeadAttention(8, 2, rng)
        x = rng.normal(size=(1, 3, 8))
        mask = np.array([[1.0, 1.0, 0.0]])
        out = attention.forward(x, key_mask=mask)
        x2 = x.copy()
        x2[0, 2] += 100.0
        out2 = attention.forward(x2, key_mask=mask)
        # Padding token's content must not leak into outputs of tokens 0-1.
        assert np.allclose(out[0, :2], out2[0, :2])

    def test_cross_attention_gradients_numeric(self):
        rng = np.random.default_rng(5)
        attention = MultiHeadAttention(4, 2, rng)
        q = rng.normal(size=(1, 2, 4))
        kv = rng.normal(size=(1, 3, 4))
        upstream = rng.normal(size=(1, 2, 4))

        def scalar() -> float:
            return float((attention.forward(q, keys_values=kv) * upstream).sum())

        scalar()
        for p in attention.parameters():
            p.zero_grad()
        dq, dkv = attention.backward(upstream)
        assert np.allclose(dq, _numeric_gradient(scalar, q), atol=1e-6)
        assert np.allclose(dkv, _numeric_gradient(scalar, kv), atol=1e-6)


class TestLoss:
    def test_perfect_prediction_low_loss(self):
        logits = np.full((1, 2, 3), -20.0)
        logits[0, 0, 1] = 20.0
        logits[0, 1, 2] = 20.0
        loss, grad = masked_cross_entropy(logits, np.array([[1, 2]]))
        assert loss < 1e-6
        assert np.allclose(grad, 0.0, atol=1e-6)

    def test_mask_excludes_positions(self):
        logits = np.zeros((1, 2, 3))
        targets = np.array([[0, 1]])
        full, _ = masked_cross_entropy(logits, targets)
        masked, _ = masked_cross_entropy(
            logits, targets, mask=np.array([[1.0, 0.0]])
        )
        assert full == pytest.approx(masked)  # uniform logits: same per-pos loss

    def test_all_masked(self):
        loss, grad = masked_cross_entropy(
            np.zeros((1, 1, 2)), np.array([[0]]), np.zeros((1, 1))
        )
        assert loss == 0.0
        assert (grad == 0).all()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            masked_cross_entropy(np.zeros((1, 2, 3)), np.zeros((1, 3), dtype=int))

    def test_gradient_matches_numeric(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(1, 2, 4))
        targets = np.array([[1, 3]])

        def scalar() -> float:
            return masked_cross_entropy(logits, targets)[0]

        _, grad = masked_cross_entropy(logits, targets)
        assert np.allclose(grad, _numeric_gradient(scalar, logits), atol=1e-6)


class TestOptimizers:
    def _quadratic_parameter(self) -> Parameter:
        return Parameter(np.array([4.0, -3.0]), name="x")

    def test_adam_minimizes_quadratic(self):
        parameter = self._quadratic_parameter()
        optimizer = Adam([parameter], learning_rate=0.3)
        for _ in range(300):
            optimizer.zero_grad()
            parameter.accumulate(2 * parameter.value)
            optimizer.step()
        assert np.allclose(parameter.value, 0.0, atol=1e-3)

    def test_clip_gradients(self):
        parameter = Parameter(np.zeros(4))
        parameter.accumulate(np.full(4, 10.0))
        norm = clip_gradients([parameter], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(parameter.grad) == pytest.approx(1.0)

    def test_clip_noop_under_norm(self):
        parameter = Parameter(np.zeros(2))
        parameter.accumulate(np.array([0.3, 0.4]))
        clip_gradients([parameter], max_norm=1.0)
        assert np.allclose(parameter.grad, [0.3, 0.4])


class TestTransformerEndToEnd:
    def test_full_gradient_check(self):
        model = Seq2SeqTransformer(
            vocab_size=12, dim=8, n_heads=2, encoder_layers=1,
            decoder_layers=1, ffn_hidden=16, max_length=8, seed=0,
        )
        rng = np.random.default_rng(7)
        inputs = rng.integers(0, 12, size=(2, 4))
        targets_in = rng.integers(0, 12, size=(2, 3))
        labels = rng.integers(0, 12, size=(2, 3))

        def scalar() -> float:
            logits = model.forward(inputs, targets_in)
            loss, _ = masked_cross_entropy(logits, labels)
            return loss

        logits = model.forward(inputs, targets_in)
        _, grad_logits = masked_cross_entropy(logits, labels)
        model.zero_grad()
        model.backward(grad_logits)
        # Spot-check a handful of parameters against finite differences.
        params = model.parameters()
        for index in (0, len(params) // 2, len(params) - 1):
            parameter = params[index]
            numeric = _numeric_gradient(scalar, parameter.value, eps=1e-5)
            assert np.allclose(parameter.grad, numeric, atol=1e-4), parameter.name

    def test_length_guard(self):
        model = Seq2SeqTransformer(vocab_size=8, max_length=4)
        with pytest.raises(ModelError):
            model.encode(np.zeros((1, 5), dtype=int))

    def test_unbalanced_requirement_is_constructible(self):
        model = Seq2SeqTransformer(
            vocab_size=8, encoder_layers=3, decoder_layers=1
        )
        assert len(model.encoder_blocks) == 3
        assert len(model.decoder_blocks) == 1


class TestInferenceForward:
    """``infer`` is ``forward`` minus the caches: same bits, no state."""

    @staticmethod
    def _network() -> Seq2SeqTransformer:
        return Seq2SeqTransformer(
            vocab_size=40, dim=16, n_heads=4, encoder_layers=3,
            decoder_layers=1, ffn_hidden=32, max_length=64, seed=5,
        )

    @staticmethod
    def _ragged_batch(rng: np.random.Generator):
        # One row with a single real token, lengths on both sides of the
        # engine's 16-token bucket boundary, one row with no padding.
        lengths = [1, 15, 16, 17, 33, 48]
        ids = rng.integers(4, 40, size=(len(lengths), max(lengths)))
        mask = np.zeros(ids.shape)
        for row, length in enumerate(lengths):
            mask[row, :length] = 1.0
            ids[row, length:] = 0
        return ids, mask

    def test_infer_encode_equals_training_encode_bit_for_bit(self):
        network = self._network()
        ids, mask = self._ragged_batch(np.random.default_rng(12))
        assert np.array_equal(
            network.infer_encode(ids, mask), network.encode(ids, mask)
        )
        assert np.array_equal(network.infer_encode(ids), network.encode(ids))

    def test_infer_decode_equals_training_decode_bit_for_bit(self):
        network = self._network()
        rng = np.random.default_rng(13)
        ids, mask = self._ragged_batch(rng)
        targets = rng.integers(4, 40, size=(ids.shape[0], 9))
        memory = network.encode(ids, mask)
        assert np.array_equal(
            network.infer_decode(targets, memory, mask),
            network.decode(targets, memory, mask),
        )

    def test_inference_leaves_no_activation_behind(self):
        model = ByteSeq2SeqModel(TINY_CONFIG)
        prompts = ["<sos>ab<tr>AB<eoe>cd<tr><eos>", "<sos>x<tr><eos>"]
        assert model.generate(prompts) == model.generate_full_prefix(prompts)
        model.evaluate_loss(prompts, ["CD", "X"])

        def modules(module: Module):
            yield module
            for value in vars(module).values():
                for item in value if isinstance(value, list) else [value]:
                    if isinstance(item, Module):
                        yield from modules(item)

        caches = {
            Dense: "_x",
            Embedding: "_ids",
            LayerNorm: "_cache",
            MultiHeadAttention: "_cache",
            FeedForward: "_pre_activation",
            Seq2SeqTransformer: "_cache",
        }
        seen = set()
        for module in modules(model.network):
            attribute = caches.get(type(module))
            if attribute is not None:
                seen.add(type(module))
                assert getattr(module, attribute) is None, (module, attribute)
        assert seen == set(caches)
