"""Graph-node ops that only test oracles use, built on ``epg_mgcn.autograd``.

The network calls none of them. They compose the GRU step that the
single-node ``autograd.gru_cell`` replaced, and they give the autograd
tests a dense product, smooth activations and a transpose to chain.
"""

import numpy as np

from epg_mgcn.autograd import Tensor, _make, as_tensor, mul, tsum
from epg_mgcn.errors import DimensionError


def matmul(a, b) -> Tensor:
    """Matrix product of 1-D/2-D operands with numpy semantics.

    Supports (m,k)@(k,n), (k,)@(k,n), and (m,k)@(k,); gradients accumulate to
    both operands.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim not in (1, 2) or b.ndim not in (1, 2):
        raise DimensionError(
            f"matmul supports 1-D/2-D operands, got {a.shape} @ {b.shape}"
        )
    if a.shape[-1] != b.shape[0]:
        raise DimensionError(
            f"matmul: inner dimensions disagree: {a.shape} @ {b.shape}"
        )
    out_data = a.data @ b.data

    def backward(g):
        if a.ndim == 2 and b.ndim == 2:
            ga = g @ b.data.T
            gb = a.data.T @ g
        elif a.ndim == 1 and b.ndim == 2:
            ga = b.data @ g
            gb = np.outer(a.data, g)
        else:  # a 2-D, b 1-D
            ga = np.outer(g, b.data)
            gb = a.data.T @ g
        if a.requires_grad:
            a._accumulate(ga)
        if b.requires_grad:
            b._accumulate(gb)

    return _make(out_data, (a, b), backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), backward)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (1.0 - out_data * out_data))

    return _make(out_data, (a,), backward)


def tmean(a) -> Tensor:
    a = as_tensor(a)
    return mul(tsum(a), 1.0 / a.data.size)


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    out_data = np.transpose(a.data, axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.transpose(g, inverse))

    return _make(out_data, (a,), backward)
