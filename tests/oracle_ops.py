"""Graph-node ops that only test oracles use, built on ``epg_mgcn.autograd``.

The network calls none of them. ``gru_cell`` is the per-step GRU node that
the recurrence nodes ``autograd.gru_scan`` and ``autograd.gru_rollout``
replaced; the others compose the GRU step that it replaced in turn, and
give the autograd tests a dense product, a difference, smooth activations,
a reshape and a transpose to chain.
"""

from typing import Iterable

import numpy as np

from epg_mgcn.autograd import GRUParams, Tensor, _make, _unbroadcast, as_tensor, mul, tsum
from epg_mgcn.errors import DimensionError, UsageError


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


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.shape))

    return _make(out_data, (a, b), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.shape))

    return _make(out_data, (a,), backward)


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


def stack(tensors: Iterable, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise UsageError("stack() needs at least one tensor")
    shapes = {t.shape for t in tensors}
    if len(shapes) != 1:
        raise DimensionError(f"stack() requires identical shapes, got {sorted(shapes)}")
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        slices = np.moveaxis(g, axis, 0)
        for t, gs in zip(tensors, slices):
            if t.requires_grad:
                t._accumulate(gs)

    return _make(out_data, tensors, backward)


def _outer(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``a^T d`` for batched rows (B, m), (B, n); the outer product for
    vectors (m,), (n,). Either way the (m, n) weight gradient."""
    return a.T @ d if a.ndim == 2 else np.outer(a, d)


def gru_cell(x, h, params: GRUParams) -> Tensor:
    """One GRU step as one graph node, with the gate convention of
    ``autograd.gru_cell``. ``x`` is (C_in,) or (B, C_in); ``h`` matches
    with (C_h,) or (B, C_h). Its parents are ``x``, ``h`` and the nine
    parameters in ``GRUParams.FIELDS`` order. The three input projections
    are one product with ``[w_z|w_r|w_h]`` and the two gate projections of
    ``h`` one product with ``[u_z|u_r]``; the backward closure keeps only
    the (B, C_h) activations and rebuilds the concatenated weights.
    """
    x, h = as_tensor(x), as_tensor(h)
    if x.ndim != h.ndim or (x.ndim == 2 and x.shape[0] != h.shape[0]):
        raise DimensionError(
            f"gru_cell: input and hidden batch shapes disagree: {x.shape} vs {h.shape}"
        )
    weights = [getattr(params, f) for f in GRUParams.FIELDS]
    w_z, u_z, b_z, w_r, u_r, b_r, w_h, u_h, b_h = weights
    if x.ndim not in (1, 2) or x.shape[-1] != w_z.shape[0] or h.shape[-1] != u_z.shape[0]:
        raise DimensionError(
            f"gru_cell: input {x.shape} and hidden {h.shape} do not fit "
            f"w_z {w_z.shape} and u_z {u_z.shape}"
        )

    def w_in():  # [w_z|w_r|w_h], (C_in, 3C)
        return np.concatenate([w_z.data, w_r.data, w_h.data], axis=1)

    def u_zr():  # [u_z|u_r], (C, 2C)
        return np.concatenate([u_z.data, u_r.data], axis=1)

    c = h.shape[-1]
    xd, hd = x.data, h.data
    xw = xd @ w_in()
    hu = hd @ u_zr()
    z = 1.0 / (1.0 + np.exp(-(xw[..., :c] + hu[..., :c] + b_z.data)))
    r = 1.0 / (1.0 + np.exp(-(xw[..., c : 2 * c] + hu[..., c:] + b_r.data)))
    rh = r * hd
    n = np.tanh(xw[..., 2 * c :] + rh @ u_h.data + b_h.data)
    out_data = (1.0 - z) * hd + z * n

    def backward(g):
        dn = g * z * (1.0 - n * n)  # at the tanh input
        drh = dn @ u_h.data.T
        dr = drh * hd * r * (1.0 - r)  # at the sigmoid inputs
        dz = g * (n - hd) * z * (1.0 - z)
        d_in = np.concatenate([dz, dr, dn], axis=-1)  # (..., 3C)
        d_zr = d_in[..., : 2 * c]
        dw = _outer(xd, d_in)
        du = _outer(hd, d_zr)
        db = d_in.sum(axis=0) if d_in.ndim == 2 else d_in
        for t, gt in [(w_z, dw[:, :c]), (w_r, dw[:, c : 2 * c]), (w_h, dw[:, 2 * c :]),
                      (u_z, du[:, :c]), (u_r, du[:, c:]), (u_h, _outer(rh, dn)),
                      (b_z, db[:c]), (b_r, db[c : 2 * c]), (b_h, db[2 * c :])]:
            if t.requires_grad:
                t._accumulate(gt)
        if x.requires_grad:
            x._accumulate(d_in @ w_in().T)
        if h.requires_grad:
            dh = g * (1.0 - z) + drh * r
            h._accumulate(dh + d_zr @ u_zr().T)

    return _make(out_data, [x, h] + weights, backward)
