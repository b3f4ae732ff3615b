"""Pre-LN transformer blocks and the full encoder-decoder model.

The architecture mirrors ByT5's design choices at reduced scale:
byte-level vocabulary, learned positional embeddings, pre-layer-norm
blocks, and an *unbalanced* stack — the encoder deeper than the decoder
— which the paper adopts for character-level inputs (§4.2).

Every module has a training ``forward`` — the only method that caches
activations for ``backward`` — and a no-grad ``infer`` that runs the
same kernels (``nn/functional.py``) and keeps nothing, so the two agree
bit for bit.  On the model, :meth:`Seq2SeqTransformer.encode` /
:meth:`~Seq2SeqTransformer.decode` are the teacher-forcing pair and
:meth:`~Seq2SeqTransformer.infer_encode` /
:meth:`~Seq2SeqTransformer.infer_decode` their inference twins.

Generation decodes incrementally on top of ``infer_encode``:
:meth:`start_decoder_state` + :meth:`decode_step` carry a
:class:`DecoderState` — per-block self-attention KV caches, one-time
cross-attention K/V projections of the encoder memory, and a position
offset — so each generated token costs O(T) instead of re-decoding the
O(T²) growing prefix.  The step carries ``(batch, dim)`` activations,
so every projection is one GEMM, and everything a step would recompute
is a per-session constant: each block's fused q/k/v weight on its
:class:`DecoderBlockState`, the memory's additive key-mask bias and its
zero-real-keys flags on the :class:`DecoderState`.  ``decode_step`` is
within 1e-12 of ``infer_decode``'s last position, with equal argmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ModelError
from repro.nn.attention import KVCache, MultiHeadAttention, key_mask_bias
from repro.nn.functional import gelu, gelu_backward
from repro.nn.layers import Dense, Embedding, LayerNorm
from repro.nn.parameter import Module


class FeedForward(Module):
    """Position-wise two-layer MLP with GELU."""

    def __init__(self, dim: int, hidden: int, rng: np.random.Generator) -> None:
        self.expand = Dense(dim, hidden, rng)
        self.contract = Dense(hidden, dim, rng)
        self._pre_activation: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        pre = self.expand.forward(x)
        self._pre_activation = pre
        return self.contract.forward(gelu(pre))

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Forward without caching activations (inference hot path)."""
        return self.contract.infer(gelu(self.expand.infer(x)))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        assert self._pre_activation is not None
        grad_hidden = self.contract.backward(grad_output)
        grad_pre = gelu_backward(self._pre_activation, grad_hidden)
        return self.expand.backward(grad_pre)


class EncoderBlock(Module):
    """Pre-LN encoder block: self-attention + FFN with residuals."""

    def __init__(
        self, dim: int, n_heads: int, ffn_hidden: int, rng: np.random.Generator
    ) -> None:
        self.attn_norm = LayerNorm(dim)
        self.attention = MultiHeadAttention(dim, n_heads, rng, causal=False)
        self.ffn_norm = LayerNorm(dim)
        self.ffn = FeedForward(dim, ffn_hidden, rng)

    def forward(self, x: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
        attended = self.attention.forward(self.attn_norm.forward(x), key_mask=mask)
        x = x + attended
        x = x + self.ffn.forward(self.ffn_norm.forward(x))
        return x

    def infer(self, x: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
        """:meth:`forward` without caching activations (inference path)."""
        x = x + self.attention.infer(self.attn_norm.infer(x), key_mask=mask)
        x += self.ffn.infer(self.ffn_norm.infer(x))
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = grad_output + self.ffn_norm.backward(
            self.ffn.backward(grad_output)
        )
        grad_attn, _ = self.attention.backward(grad)
        return grad + self.attn_norm.backward(grad_attn)


@dataclass
class DecoderBlockState:
    """Per-block incremental decode state.

    Attributes:
        self_kv: Growing KV cache of the block's causal self-attention.
        cross_keys: Pre-projected encoder-memory keys
            ``(batch, heads, mem_len, head_dim)``.
        cross_values: Pre-projected encoder-memory values.
        qkv_weight: The self-attention's query / key / value weights
            side by side, ``(dim, 3 * dim)`` — a copy made when the
            session opens, never a view of the parameters (training
            mutates those in place; a session never outlives an
            optimizer step).
        qkv_bias: The matching ``(3 * dim,)`` bias.
    """

    self_kv: KVCache
    cross_keys: np.ndarray
    cross_values: np.ndarray
    qkv_weight: np.ndarray
    qkv_bias: np.ndarray

    def select(self, keep: np.ndarray) -> None:
        """Keep only the batch rows flagged in boolean ``keep``."""
        self.self_kv.select(keep)
        self.cross_keys = self.cross_keys[keep]
        self.cross_values = self.cross_values[keep]


@dataclass
class DecoderState:
    """Whole-decoder incremental state: one entry per decoder block.

    Attributes:
        blocks: Per-block KV caches and cross projections.
        memory_bias: ``(batch, 1, 1, mem_len)`` additive form of the
            encoder padding mask, ``(1 - mask) * -1e9`` (None without a
            mask): a padded memory column carries exactly zero weight.
        memory_empty: ``(batch,)`` flags of the rows whose memory has no
            real key (None without a mask).
        position: Index of the *next* position to decode (0 = ``<sos>``).
    """

    blocks: list[DecoderBlockState]
    memory_bias: np.ndarray | None
    memory_empty: np.ndarray | None
    position: int = 0

    @property
    def batch_size(self) -> int:
        return self.blocks[0].cross_keys.shape[0]

    def select(self, keep: np.ndarray) -> None:
        """Compact the batch down to the rows flagged in boolean ``keep``.

        Used by the generation engine to drop finished rows out of the
        micro-batch mid-decode.
        """
        for block in self.blocks:
            block.select(keep)
        if self.memory_bias is not None:
            self.memory_bias = self.memory_bias[keep]
            self.memory_empty = self.memory_empty[keep]


class DecoderBlock(Module):
    """Pre-LN decoder block: causal self-attn, cross-attn, FFN."""

    def __init__(
        self, dim: int, n_heads: int, ffn_hidden: int, rng: np.random.Generator
    ) -> None:
        self.self_norm = LayerNorm(dim)
        self.self_attention = MultiHeadAttention(dim, n_heads, rng, causal=True)
        self.cross_norm = LayerNorm(dim)
        self.cross_attention = MultiHeadAttention(dim, n_heads, rng, causal=False)
        self.ffn_norm = LayerNorm(dim)
        self.ffn = FeedForward(dim, ffn_hidden, rng)

    def forward(
        self,
        x: np.ndarray,
        memory: np.ndarray,
        memory_mask: np.ndarray | None,
    ) -> np.ndarray:
        x = x + self.self_attention.forward(self.self_norm.forward(x))
        x = x + self.cross_attention.forward(
            self.cross_norm.forward(x), keys_values=memory, key_mask=memory_mask
        )
        x = x + self.ffn.forward(self.ffn_norm.forward(x))
        return x

    def infer(
        self,
        x: np.ndarray,
        memory: np.ndarray,
        memory_mask: np.ndarray | None,
    ) -> np.ndarray:
        """:meth:`forward` without caching activations (inference path)."""
        x = x + self.self_attention.infer(self.self_norm.infer(x))
        x += self.cross_attention.infer(
            self.cross_norm.infer(x), keys_values=memory, key_mask=memory_mask
        )
        x += self.ffn.infer(self.ffn_norm.infer(x))
        return x

    def start_state(self, memory: np.ndarray, capacity: int) -> DecoderBlockState:
        """Build this block's incremental state for a decode micro-batch."""
        cross_keys, cross_values = self.cross_attention.project_kv(memory)
        batch = memory.shape[0]
        attn = self.self_attention
        projections = (attn.query_proj, attn.key_proj, attn.value_proj)
        return DecoderBlockState(
            self_kv=KVCache(batch, attn.n_heads, capacity, attn.head_dim),
            cross_keys=cross_keys,
            cross_values=cross_values,
            qkv_weight=np.concatenate([p.weight.value for p in projections], axis=1),
            qkv_bias=np.concatenate([p.bias.value for p in projections]),
        )

    def step(
        self,
        x: np.ndarray,
        state: DecoderBlockState,
        memory_bias: np.ndarray | None,
        memory_empty: np.ndarray | None,
    ) -> np.ndarray:
        """Incremental forward for one position ``(batch, dim)``."""
        attn = self.self_attention
        qkv = self.self_norm.infer(x) @ state.qkv_weight
        qkv += state.qkv_bias
        # (batch, 3, heads, 1, head_dim): q, k, v of the new position.
        qkv = qkv.reshape(x.shape[0], 3, attn.n_heads, 1, attn.head_dim)
        state.self_kv.append(qkv[:, 1], qkv[:, 2])
        x = x + attn.attend_step(qkv[:, 0], *state.self_kv.view())
        x += self.cross_attention.attend_step(
            self.cross_attention.query_proj.infer(self.cross_norm.infer(x)),
            state.cross_keys,
            state.cross_values,
            memory_bias,
            memory_empty,
        )
        x += self.ffn.infer(self.ffn_norm.infer(x))
        return x

    def backward(self, grad_output: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Returns ``(d_input, d_memory)``."""
        grad = grad_output + self.ffn_norm.backward(self.ffn.backward(grad_output))
        grad_cross_q, grad_memory = self.cross_attention.backward(grad)
        grad = grad + self.cross_norm.backward(grad_cross_q)
        grad_self, _ = self.self_attention.backward(grad)
        grad = grad + self.self_norm.backward(grad_self)
        assert grad_memory is not None
        return grad, grad_memory


class Seq2SeqTransformer(Module):
    """Byte-level encoder-decoder transformer (the DTT model class).

    Args:
        vocab_size: Token vocabulary size (specials + 256 bytes).
        dim: Model width.
        n_heads: Attention heads.
        encoder_layers: Encoder depth.
        decoder_layers: Decoder depth (ByT5-style unbalanced stacks use
            a deeper encoder; the default ratio here is 2:1).
        ffn_hidden: FFN hidden width.
        max_length: Longest supported sequence (positional table size).
        seed: Initializer seed.
    """

    def __init__(
        self,
        vocab_size: int,
        dim: int = 64,
        n_heads: int = 4,
        encoder_layers: int = 2,
        decoder_layers: int = 1,
        ffn_hidden: int = 128,
        max_length: int = 256,
        seed: int = 0,
    ) -> None:
        if encoder_layers < 1 or decoder_layers < 1:
            raise ModelError("encoder and decoder need at least one layer each")
        rng = np.random.default_rng(seed)
        self.vocab_size = vocab_size
        self.dim = dim
        self.max_length = max_length
        self.token_embedding = Embedding(vocab_size, dim, rng)
        self.position_embedding = Embedding(max_length, dim, rng)
        self.decoder_token_embedding = Embedding(vocab_size, dim, rng)
        self.decoder_position_embedding = Embedding(max_length, dim, rng)
        self.encoder_blocks = [
            EncoderBlock(dim, n_heads, ffn_hidden, rng)
            for _ in range(encoder_layers)
        ]
        self.encoder_norm = LayerNorm(dim)
        self.decoder_blocks = [
            DecoderBlock(dim, n_heads, ffn_hidden, rng)
            for _ in range(decoder_layers)
        ]
        self.decoder_norm = LayerNorm(dim)
        self.output_proj = Dense(dim, vocab_size, rng)
        self._cache: tuple | None = None

    # -- training forward (caches activations for backward) ----------------

    def encode(
        self, input_ids: np.ndarray, input_mask: np.ndarray | None = None
    ) -> np.ndarray:
        """Encode input token ids into memory states."""
        self._check_length(input_ids.shape[1])
        positions = np.arange(input_ids.shape[1])[None, :].repeat(
            input_ids.shape[0], axis=0
        )
        x = self.token_embedding.forward(input_ids) + self.position_embedding.forward(
            positions
        )
        for block in self.encoder_blocks:
            x = block.forward(x, input_mask)
        return self.encoder_norm.forward(x)

    def decode(
        self,
        target_ids: np.ndarray,
        memory: np.ndarray,
        memory_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Decode (teacher-forced) target ids into logits."""
        self._check_length(target_ids.shape[1])
        positions = np.arange(target_ids.shape[1])[None, :].repeat(
            target_ids.shape[0], axis=0
        )
        y = self.decoder_token_embedding.forward(
            target_ids
        ) + self.decoder_position_embedding.forward(positions)
        for block in self.decoder_blocks:
            y = block.forward(y, memory, memory_mask)
        return self.output_proj.forward(self.decoder_norm.forward(y))

    # -- inference (no activation caches) -----------------------------------

    def infer_encode(
        self, input_ids: np.ndarray, input_mask: np.ndarray | None = None
    ) -> np.ndarray:
        """:meth:`encode` without caching activations, bit for bit."""
        length = input_ids.shape[1]
        self._check_length(length)
        x = self.token_embedding.infer(input_ids)
        x += self.position_embedding.infer(np.arange(length))
        for block in self.encoder_blocks:
            x = block.infer(x, input_mask)
        return self.encoder_norm.infer(x)

    def infer_decode(
        self,
        target_ids: np.ndarray,
        memory: np.ndarray,
        memory_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """:meth:`decode` without caching activations, bit for bit.

        Re-decodes the whole prefix; :meth:`decode_step` is the O(T)
        incremental form of the same computation.
        """
        length = target_ids.shape[1]
        self._check_length(length)
        y = self.decoder_token_embedding.infer(target_ids)
        y += self.decoder_position_embedding.infer(np.arange(length))
        for block in self.decoder_blocks:
            y = block.infer(y, memory, memory_mask)
        return self.output_proj.infer(self.decoder_norm.infer(y))

    def start_decoder_state(
        self,
        memory: np.ndarray,
        memory_mask: np.ndarray | None = None,
        capacity: int | None = None,
    ) -> DecoderState:
        """Initialize incremental decoding over encoded ``memory``.

        Projects the encoder memory into every block's cross-attention
        K/V once and allocates the self-attention KV caches.

        Args:
            memory: ``(batch, mem_len, dim)`` encoder output.
            memory_mask: ``(batch, mem_len)`` padding mask.
            capacity: Maximum decode steps (defaults to ``max_length``).
        """
        if capacity is None:
            capacity = self.max_length
        self._check_length(capacity)
        bias = empty = None
        if memory_mask is not None:
            bias = key_mask_bias(memory_mask)
            empty = ~memory_mask.any(axis=-1)
        return DecoderState(
            blocks=[
                block.start_state(memory, capacity)
                for block in self.decoder_blocks
            ],
            memory_bias=bias,
            memory_empty=empty,
        )

    def decode_step(
        self, token_ids: np.ndarray, state: DecoderState
    ) -> np.ndarray:
        """Decode one token per row and return next-token logits.

        Equivalent to the last position of :meth:`decode` over the full
        prefix, but costs O(prefix) instead of O(prefix²): self-attention
        K/V come from the per-block caches in ``state`` and the encoder
        memory's cross K/V were projected once at state creation.

        Args:
            token_ids: ``(batch,)`` current tokens (``<sos>`` first).
            state: Mutable decode state; advanced by one position.

        Returns:
            ``(batch, vocab_size)`` logits for the next token.
        """
        self._check_length(state.position + 1)
        y = self.decoder_token_embedding.infer(token_ids)
        y += self.decoder_position_embedding.infer(state.position)
        for block, block_state in zip(self.decoder_blocks, state.blocks, strict=True):
            y = block.step(y, block_state, state.memory_bias, state.memory_empty)
        state.position += 1
        return self.output_proj.infer(self.decoder_norm.infer(y))

    def forward(
        self,
        input_ids: np.ndarray,
        target_ids: np.ndarray,
        input_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Full teacher-forced forward pass returning logits."""
        memory = self.encode(input_ids, input_mask)
        logits = self.decode(target_ids, memory, input_mask)
        self._cache = (input_mask,)
        return logits

    # -- backward ----------------------------------------------------------

    def backward(self, grad_logits: np.ndarray) -> None:
        """Backprop from logits gradient through decoder then encoder."""
        grad = self.decoder_norm.backward(self.output_proj.backward(grad_logits))
        grad_memory_total: np.ndarray | None = None
        for block in reversed(self.decoder_blocks):
            grad, grad_memory = block.backward(grad)
            if grad_memory_total is None:
                grad_memory_total = grad_memory
            else:
                grad_memory_total = grad_memory_total + grad_memory
        self.decoder_token_embedding.backward(grad)
        self.decoder_position_embedding.backward(grad)

        assert grad_memory_total is not None
        grad_enc = self.encoder_norm.backward(grad_memory_total)
        for block in reversed(self.encoder_blocks):
            grad_enc = block.backward(grad_enc)
        self.token_embedding.backward(grad_enc)
        self.position_embedding.backward(grad_enc)

    def _check_length(self, length: int) -> None:
        if length > self.max_length:
            raise ModelError(
                f"sequence length {length} exceeds max_length {self.max_length}"
            )
