"""Stateless numerical functions with hand-derived gradients.

Each operation is defined once here and shared by the training
``forward`` and the no-grad ``infer`` paths of every layer, so the two
agree bit for bit.  The kernels work in place on their own temporaries
to keep the allocation count (and the inference peak) low; an in-place
rewrite keeps the operation order, so it does not change the result.
"""

from __future__ import annotations

import numpy as np

_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)
_GELU_CUBIC = 0.044715


def softmax(
    x: np.ndarray, axis: int = -1, out: np.ndarray | None = None
) -> np.ndarray:
    """Numerically stable softmax.

    ``out`` follows the ufunc convention; pass ``out=x`` to overwrite
    freshly computed scores instead of allocating the result.
    """
    out = np.subtract(x, np.maximum.reduce(x, axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=axis, keepdims=True)
    return out


def softmax_backward(
    probs: np.ndarray, grad_output: np.ndarray, axis: int = -1
) -> np.ndarray:
    """Gradient of softmax given its output ``probs``."""
    dot = (grad_output * probs).sum(axis=axis, keepdims=True)
    return probs * (grad_output - dot)


def _gelu_tanh(x: np.ndarray) -> np.ndarray:
    """``tanh(sqrt(2/pi) * (x + 0.044715 * x^3))``, the GELU gate.

    The cube is two multiplies: the power operator sends every element
    through libm ``pow``, an order of magnitude slower than the ``tanh``.
    """
    inner = x * x
    inner *= x
    inner *= _GELU_CUBIC
    inner += x
    inner *= _SQRT_2_OVER_PI
    return np.tanh(inner, out=inner)


def gelu(x: np.ndarray) -> np.ndarray:
    """GELU activation (tanh approximation, as in most transformers)."""
    gate = _gelu_tanh(x)
    gate += 1.0
    gate *= 0.5 * x
    return gate


def gelu_backward(x: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
    """Gradient of the tanh-approximated GELU."""
    tanh_inner = _gelu_tanh(x)
    sech2 = 1.0 - tanh_inner**2
    d_inner = _SQRT_2_OVER_PI * (1.0 + 3 * _GELU_CUBIC * x**2)
    derivative = 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * d_inner
    return grad_output * derivative


def standardize(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Zero-mean, unit-variance ``x`` over the last axis.

    Returns ``(normalized, inv_std)``, both freshly allocated.  One pass
    over ``x``: the centered values feed the variance and then become
    the result, with the reductions ``np.mean``/``np.var`` would run.
    """
    count = x.shape[-1]
    centered = x - np.add.reduce(x, axis=-1, keepdims=True) / count
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / count
    inv_std = 1.0 / np.sqrt(var + eps)
    centered *= inv_std
    return centered, inv_std


def relu(x: np.ndarray) -> np.ndarray:
    """ReLU activation."""
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
    """Gradient of ReLU."""
    return grad_output * (x > 0.0)
