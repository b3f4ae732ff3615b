"""The Adam optimizer, plus global-norm gradient clipping."""

from __future__ import annotations

import numpy as np

from repro.nn.parameter import Parameter


def clip_gradients(parameters: list[Parameter], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm.
    """
    total = 0.0
    for parameter in parameters:
        total += float((parameter.grad**2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for parameter in parameters:
            parameter.grad *= scale
    return norm


class Adam:
    """Adam optimizer (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        parameters: list[Parameter],
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        self.parameters = parameters
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._step_count = 0
        self._m = [np.zeros_like(p.value) for p in parameters]
        self._v = [np.zeros_like(p.value) for p in parameters]

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for parameter, m, v in zip(self.parameters, self._m, self._v, strict=True):
            m *= self.beta1
            m += (1.0 - self.beta1) * parameter.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * parameter.grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            parameter.value -= self.learning_rate * m_hat / (
                np.sqrt(v_hat) + self.eps
            )

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.zero_grad()
