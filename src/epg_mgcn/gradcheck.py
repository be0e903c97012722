"""Finite-difference verification of analytic gradients.

Central differences (f(w+eps) - f(w-eps)) / 2eps are compared elementwise
against the backward pass, with relative error measured against
max(|analytic|, |numeric|, 1e-8). Perturbed re-evaluations run with
``requires_grad`` switched off so no graph is built for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autograd import Tensor
from .errors import NumericError, UsageError

__all__ = ["GradCheckReport", "finite_diff_check"]


@dataclass
class GradCheckReport:
    """Per-parameter maximum relative error between analytic and numeric grads."""

    epsilon: float
    tolerance: float
    per_parameter: dict[str, float] = field(default_factory=dict)

    @property
    def max_rel_error(self) -> float:
        return max(self.per_parameter.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"gradient check: {status} "
                 f"(max rel err {self.max_rel_error:.3e}, tol {self.tolerance:.1e})"]
        for name, err in sorted(self.per_parameter.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {err:.3e}  {name}")
        return "\n".join(lines)


def finite_diff_check(loss_fn, params: dict[str, Tensor], epsilon: float = 1e-5,
                      tolerance: float = 1e-6) -> GradCheckReport:
    """Compare the backward pass of ``loss_fn`` against central differences.

    ``loss_fn`` takes no arguments, reads the current parameter values, and
    returns a scalar Tensor; it must be deterministic. All tensors in
    ``params`` are gradient-checked; raises NumericError if any evaluation is
    non-finite.
    """
    loss = loss_fn()
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise UsageError("loss_fn must return a scalar Tensor")
    if not math.isfinite(loss.item()):
        raise NumericError("loss is not finite at the unperturbed point")
    for p in params.values():
        p.grad = None
    loss.backward()
    analytic = {}
    for name, p in params.items():
        if p.grad is None:
            raise UsageError(f"parameter '{name}' received no gradient from loss_fn")
        analytic[name] = p.grad.copy()

    report = GradCheckReport(epsilon=epsilon, tolerance=tolerance)
    flags = {name: p.requires_grad for name, p in params.items()}
    try:
        for p in params.values():
            p.requires_grad = False
        for name, p in params.items():
            numeric = np.zeros_like(p.data)
            flat = p.data.reshape(-1)
            num_flat = numeric.reshape(-1)
            for i in range(flat.size):
                saved = flat[i]
                flat[i] = saved + epsilon
                f_plus = loss_fn().item()
                flat[i] = saved - epsilon
                f_minus = loss_fn().item()
                flat[i] = saved
                if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                    raise NumericError(
                        f"loss is not finite when perturbing '{name}'[{i}]"
                    )
                num_flat[i] = (f_plus - f_minus) / (2.0 * epsilon)
            denom = np.maximum(np.maximum(np.abs(analytic[name]), np.abs(numeric)), 1e-8)
            rel = np.abs(analytic[name] - numeric) / denom
            report.per_parameter[name] = float(rel.max()) if rel.size else 0.0
    finally:
        for name, p in params.items():
            p.requires_grad = flags[name]
    return report
