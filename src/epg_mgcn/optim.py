"""First-order training: Adam with bias correction.

The update is the standard one at the Kingma & Ba (2015) constants
``BETA1``, ``BETA2`` and ``EPSILON``; only the learning rate varies (the
trainer drives it from the decay schedule). :class:`Adam` holds the step
counter and the moment buffers of a named parameter set as plain
attributes, which the trainer checkpoint records and restores.
"""

from __future__ import annotations

import numpy as np

from .autograd import Tensor
from .errors import UsageError

__all__ = ["BETA1", "BETA2", "EPSILON", "Adam"]

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    """Adam over a name -> Tensor parameter mapping.

    Deterministic: identical parameters, gradients, moments and step count
    produce identical updates. ``learning_rate`` may be reassigned between
    steps; ``step_count`` is the number of steps taken.
    """

    def __init__(self, params: dict[str, Tensor], learning_rate: float = 1e-3):
        self.params = params
        self.learning_rate = learning_rate
        self.step_count = 0
        self.first_moment = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.second_moment = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        """Apply one update; every parameter must carry a gradient."""
        self.step_count += 1
        for name, p in self.params.items():
            if p.grad is None:
                raise UsageError(f"parameter '{name}' has no gradient")
            grad = p.grad
            m = BETA1 * self.first_moment[name] + (1.0 - BETA1) * grad
            v = BETA2 * self.second_moment[name] + (1.0 - BETA2) * grad * grad
            m_hat = m / (1.0 - BETA1**self.step_count)
            v_hat = v / (1.0 - BETA2**self.step_count)
            p.data = p.data - self.learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)
            self.first_moment[name], self.second_moment[name] = m, v
