"""Multi-head attention with hand-derived backward pass.

Supports self-attention (queries, keys, values from one sequence),
cross-attention (keys/values from encoder memory), causal masking for
the auto-regressive decoder, and key padding masks.

Three execution styles share the projection weights; the two batch
styles also share one score kernel (:meth:`MultiHeadAttention._weights`):

* the **training** path (:meth:`MultiHeadAttention.forward`) attends a
  full query sequence and caches activations for :meth:`backward` — it
  is the only path that writes a cache;
* the **no-grad batch** path (:meth:`MultiHeadAttention.infer`) is the
  same arithmetic, bit for bit, and keeps nothing; and
* the **incremental** path (:meth:`MultiHeadAttention.attend_step`)
  attends one already-projected query per row, ``(batch, dim)``, against
  split-head keys/values — a :class:`KVCache` of the decoded prefix or
  the one-time projection of the encoder memory — which is what makes
  auto-regressive decoding O(T) per step instead of O(T²).  Step
  activations are 2-D, so every projection around it is one GEMM; the
  masks arrive as an additive bias the decode state computed once.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelError
from repro.nn.functional import softmax, softmax_backward
from repro.nn.layers import Dense
from repro.nn.parameter import Module

_NEG_INF = -1e9

# One process-level additive causal mask, grown to the largest shape
# requested (rounded up to soften reallocation churn) and served as
# read-only top-aligned views, so repeated full-prefix decodes retain a
# single max_length² array instead of one mask per prefix length.
_CAUSAL_BIAS: np.ndarray = np.empty((0, 0))
_CAUSAL_GROWTH = 64


def causal_bias(q_len: int, kv_len: int) -> np.ndarray:
    """Return the cached additive causal mask ``(1 - tril) * -1e9``.

    The returned array is a read-only ``(q_len, kv_len)`` view; row
    ``i`` admits keys ``j <= i`` (top-aligned, matching
    ``np.tril(np.ones((q_len, kv_len)))``).
    """
    global _CAUSAL_BIAS
    size = max(q_len, kv_len)
    if _CAUSAL_BIAS.shape[0] < size:
        size = -(-size // _CAUSAL_GROWTH) * _CAUSAL_GROWTH
        bias = (1.0 - np.tril(np.ones((size, size)))) * _NEG_INF
        bias.setflags(write=False)
        _CAUSAL_BIAS = bias
    return _CAUSAL_BIAS[:q_len, :kv_len]


def key_mask_bias(key_mask: np.ndarray) -> np.ndarray:
    """Additive ``(batch, 1, 1, kv_len)`` form of a 1.0-is-real key mask.

    The term :meth:`MultiHeadAttention._weights` adds per call; a decode
    session computes it once (:class:`~repro.nn.transformer.DecoderState`).
    """
    return (1.0 - key_mask[:, None, None, :]) * _NEG_INF


class KVCache:
    """Preallocated per-layer key/value store for incremental decoding.

    Keys and values are appended one step at a time (already split into
    heads) and read back as views, so the decode loop never reprojects
    or copies the growing prefix.

    Args:
        batch: Batch size of the decode micro-batch.
        n_heads: Attention heads.
        capacity: Maximum number of steps that will be appended.
        head_dim: Per-head width.
    """

    def __init__(self, batch: int, n_heads: int, capacity: int, head_dim: int) -> None:
        self.keys = np.zeros((batch, n_heads, capacity, head_dim))
        self.values = np.zeros((batch, n_heads, capacity, head_dim))
        self.length = 0

    def append(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Append one step of projected keys/values ``(batch, heads, 1, hd)``."""
        step = keys.shape[2]
        if self.length + step > self.keys.shape[2]:
            raise ModelError(
                f"KV cache overflow: {self.length} + {step} exceeds "
                f"capacity {self.keys.shape[2]}"
            )
        self.keys[:, :, self.length : self.length + step] = keys
        self.values[:, :, self.length : self.length + step] = values
        self.length += step

    def view(self) -> tuple[np.ndarray, np.ndarray]:
        """Views of the filled prefix ``(batch, heads, length, head_dim)``."""
        return self.keys[:, :, : self.length], self.values[:, :, : self.length]

    def select(self, keep: np.ndarray) -> None:
        """Keep only the batch rows flagged in boolean ``keep``."""
        self.keys = self.keys[keep]
        self.values = self.values[keep]


class MultiHeadAttention(Module):
    """Scaled dot-product attention over ``n_heads`` heads.

    Args:
        dim: Model width (must divide evenly by ``n_heads``).
        n_heads: Number of attention heads.
        rng: Initializer random source.
        causal: Apply a lower-triangular mask (decoder self-attention).
    """

    def __init__(
        self,
        dim: int,
        n_heads: int,
        rng: np.random.Generator,
        causal: bool = False,
    ) -> None:
        if dim % n_heads != 0:
            raise ModelError(f"dim {dim} not divisible by n_heads {n_heads}")
        self.dim = dim
        self.n_heads = n_heads
        self.head_dim = dim // n_heads
        self._scale = 1.0 / np.sqrt(self.head_dim)
        self.causal = causal
        self.query_proj = Dense(dim, dim, rng)
        self.key_proj = Dense(dim, dim, rng)
        self.value_proj = Dense(dim, dim, rng)
        self.output_proj = Dense(dim, dim, rng)
        self._cache: tuple | None = None

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        batch, length, _ = x.shape
        return x.reshape(batch, length, self.n_heads, self.head_dim).transpose(
            0, 2, 1, 3
        )

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        batch, _, length, _ = x.shape
        return x.transpose(0, 2, 1, 3).reshape(batch, length, self.dim)

    def forward(
        self,
        queries: np.ndarray,
        keys_values: np.ndarray | None = None,
        key_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Attend ``queries`` over ``keys_values`` (self-attend if None).

        Args:
            queries: ``(batch, q_len, dim)``.
            keys_values: ``(batch, kv_len, dim)`` or None for self-attn.
            key_mask: ``(batch, kv_len)`` with 1.0 for real tokens.  A
                row with *zero* real keys is degenerate: every score is
                ``-1e9`` and the softmax falls back to a uniform average
                over padding positions.  Callers must not feed fully
                padded rows through this batch path (the incremental
                :meth:`attend_step` defines the result as a zero
                context instead).
        """
        source = queries if keys_values is None else keys_values
        q = self._split_heads(self.query_proj.forward(queries))
        k = self._split_heads(self.key_proj.forward(source))
        v = self._split_heads(self.value_proj.forward(source))
        probs = self._weights(q, k, key_mask, self.causal)
        context = probs @ v
        output = self.output_proj.forward(self._merge_heads(context))
        self._cache = (q, k, v, probs, self._scale, keys_values is None)
        return output

    def infer(
        self,
        queries: np.ndarray,
        keys_values: np.ndarray | None = None,
        key_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """:meth:`forward` without caching activations (inference path).

        Bit-identical to :meth:`forward` on the same inputs, fully
        padded rows included.
        """
        source = queries if keys_values is None else keys_values
        q = self._split_heads(self.query_proj.infer(queries))
        keys, values = self.project_kv(source)
        context = self._weights(q, keys, key_mask, self.causal) @ values
        return self.output_proj.infer(self._merge_heads(context))

    def _weights(
        self,
        q: np.ndarray,
        k: np.ndarray,
        key_mask: np.ndarray | None,
        causal: bool,
    ) -> np.ndarray:
        """Attention probabilities ``softmax(q kᵀ / sqrt(head_dim) + masks)``.

        The one score kernel behind every path; the ``(batch, heads,
        q_len, kv_len)`` score tensor is scaled, masked and normalized
        in place.
        """
        scores = q @ k.transpose(0, 1, 3, 2)
        scores *= self._scale
        if key_mask is not None:
            scores += (1.0 - key_mask[:, None, None, :]) * _NEG_INF
        if causal:
            scores += causal_bias(scores.shape[-2], scores.shape[-1])
        return softmax(scores, out=scores)

    # -- incremental decoding ---------------------------------------------

    def project_kv(self, source: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Project ``source`` into split-head keys/values once.

        Used for cross-attention: the encoder memory is fixed for the
        whole decode, so its K/V projections are computed one time and
        reused by every :meth:`attend_step` call.
        """
        keys = self._split_heads(self.key_proj.infer(source))
        values = self._split_heads(self.value_proj.infer(source))
        return keys, values

    def attend_step(
        self,
        q: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        key_bias: np.ndarray | None = None,
        empty: np.ndarray | None = None,
    ) -> np.ndarray:
        """Attend one decode position per row; returns ``(batch, dim)``.

        No causal mask: every cached position precedes the query.

        Args:
            q: ``(batch, dim)`` queries, already projected.
            keys: ``(batch, heads, kv_len, head_dim)``.
            values: ``(batch, heads, kv_len, head_dim)``.
            key_bias: ``(batch, 1, 1, kv_len)`` additive key mask,
                ``(1 - mask) * -1e9``; a masked column carries exactly
                zero weight (its ``exp`` underflows to 0.0).
            empty: ``(batch,)`` flags of rows with zero real keys.  Such
                a row yields a *zero* context vector (only the output
                projection's bias survives) instead of the batch path's
                degenerate uniform-over-padding mix.
        """
        batch = q.shape[0]
        q = q.reshape(batch, self.n_heads, 1, self.head_dim)
        scores = q @ keys.transpose(0, 1, 3, 2)
        scores *= self._scale
        if key_bias is not None:
            scores += key_bias
        context = (softmax(scores, out=scores) @ values).reshape(batch, self.dim)
        if empty is not None:
            context[empty] = 0.0
        return self.output_proj.infer(context)

    def backward(self, grad_output: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Backprop; returns ``(d_queries, d_keys_values)``.

        ``d_keys_values`` is ``None`` for self-attention (already folded
        into ``d_queries``).
        """
        assert self._cache is not None, "forward must run before backward"
        q, k, v, probs, scale, is_self = self._cache
        grad_context = self._split_heads(self.output_proj.backward(grad_output))

        grad_probs = grad_context @ v.transpose(0, 1, 3, 2)
        grad_v = probs.transpose(0, 1, 3, 2) @ grad_context
        grad_scores = softmax_backward(probs, grad_probs, axis=-1)
        grad_q = (grad_scores @ k) * scale
        grad_k = (grad_scores.transpose(0, 1, 3, 2) @ q) * scale

        d_queries = self.query_proj.backward(self._merge_heads(grad_q))
        d_source = self.key_proj.backward(self._merge_heads(grad_k))
        d_source = d_source + self.value_proj.backward(self._merge_heads(grad_v))
        if is_self:
            return d_queries + d_source, None
        return d_queries, d_source
