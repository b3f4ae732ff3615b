"""Basic layers: dense, embedding, layer norm.

Each layer's ``forward`` caches what its ``backward`` needs; layers are
single-use per step (call forward, then backward, then the optimizer).
``infer`` is the same arithmetic with nothing kept: it never touches a
cache, so inference can run between a ``forward`` and its ``backward``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import standardize
from repro.nn.parameter import Module, Parameter


def init_matrix(
    rng: np.random.Generator, fan_in: int, fan_out: int
) -> np.ndarray:
    """Glorot-uniform initialization."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Dense(Module):
    """Affine map ``y = x @ W + b`` over the last axis."""

    def __init__(
        self, in_features: int, out_features: int, rng: np.random.Generator
    ) -> None:
        self.weight = Parameter(init_matrix(rng, in_features, out_features))
        self.bias = Parameter(np.zeros(out_features))
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return self.infer(x)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Forward without caching activations (inference hot path)."""
        out = x @ self.weight.value
        out += self.bias.value
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        assert self._x is not None, "forward must run before backward"
        x = self._x
        flat_x = x.reshape(-1, x.shape[-1])
        flat_grad = grad_output.reshape(-1, grad_output.shape[-1])
        self.weight.accumulate(flat_x.T @ flat_grad)
        self.bias.accumulate(flat_grad.sum(axis=0))
        return grad_output @ self.weight.value.T


class Embedding(Module):
    """Token-id to vector lookup with scatter-add gradients."""

    def __init__(
        self, vocab_size: int, dim: int, rng: np.random.Generator
    ) -> None:
        self.table = Parameter(rng.normal(0.0, 0.02, size=(vocab_size, dim)))
        self._ids: np.ndarray | None = None

    def forward(self, ids: np.ndarray) -> np.ndarray:
        self._ids = ids
        return self.infer(ids)

    def infer(self, ids: np.ndarray) -> np.ndarray:
        """Lookup without caching ids (inference hot path)."""
        return self.table.value[ids]

    def backward(self, grad_output: np.ndarray) -> None:
        assert self._ids is not None, "forward must run before backward"
        grad = np.zeros_like(self.table.value)
        flat_grad = grad_output.reshape(-1, grad_output.shape[-1])
        np.add.at(grad, self._ids.reshape(-1), flat_grad)
        self.table.accumulate(grad)


class LayerNorm(Module):
    """Layer normalization over the last axis."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        self.gain = Parameter(np.ones(dim))
        self.shift = Parameter(np.zeros(dim))
        self.eps = eps
        self._cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        normalized, inv_std = standardize(x, self.eps)
        self._cache = (normalized, inv_std, x)
        return normalized * self.gain.value + self.shift.value

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Normalize without caching activations (inference hot path)."""
        out, _ = standardize(x, self.eps)
        out *= self.gain.value
        out += self.shift.value
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        assert self._cache is not None, "forward must run before backward"
        normalized, inv_std, x = self._cache
        dim = x.shape[-1]
        flat_norm = normalized.reshape(-1, dim)
        flat_grad = grad_output.reshape(-1, dim)
        self.gain.accumulate((flat_grad * flat_norm).sum(axis=0))
        self.shift.accumulate(flat_grad.sum(axis=0))
        grad_norm = grad_output * self.gain.value
        # d/dx of (x - mean) / std, the standard layer-norm backward.
        mean_grad = grad_norm.mean(axis=-1, keepdims=True)
        mean_grad_norm = (grad_norm * normalized).mean(axis=-1, keepdims=True)
        return inv_std * (grad_norm - mean_grad - normalized * mean_grad_norm)
