"""Minimal reverse-mode differentiation core.

Holds only the primitives the prediction network calls: elementwise
``add``, ``sub``, ``mul`` and ``relu`` (with numpy broadcasting), a full
``tsum``, ``reshape``, indexing, ``stack`` and ``concat``, the
block-diagonal product of the spatial mixing, same-padded temporal
convolution (without a bias: the graph-conv blocks use none), per-position
channel mixing over the last axis (1x1 convolution), and a GRU cell.
Composed ops that only test oracles use live with the tests.
Tensors wrap contiguous numpy arrays; every operation is deterministic and
the backward pass visits nodes in reverse topological order, so identical
inputs give bitwise-identical outputs and gradients.

No hardware acceleration: each primitive is one graph node with its own
backward, checked against finite differences (``gradcheck``) and against a
composed or loop oracle in the tests. Inside a primitive, the hot paths are
lowered to BLAS matrix products (``temporal_conv`` on time-major (N, T, C)
input via one product with every tap's kernel side by side plus shifted
sums, ``channel_mix`` via one 2-D product, ``gru_cell`` via one product for
the three input projections and one for the two gate projections of the
hidden state), because per-tap, per-element or per-gate graph nodes
dominate the run time at the model's sizes. ``gru_cell`` is one node with a
hand-written backward; its gate convention is the one in its docstring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, UsageError

__all__ = [
    "Tensor",
    "GRUParams",
    "as_tensor",
    "add",
    "sub",
    "mul",
    "block_matmul",
    "relu",
    "tsum",
    "reshape",
    "stack",
    "concat",
    "temporal_conv",
    "channel_mix",
    "gru_cell",
]

_FLOAT_DTYPES = (np.float32, np.float64)


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.dtype not in _FLOAT_DTYPES:
        arr = arr.astype(np.float64)
    return arr


class Tensor:
    """An n-dimensional array participating in reverse-mode differentiation.

    After :meth:`backward` on a scalar result, ``grad`` (same shape as
    ``data``) holds the gradient on that result and on every reachable leaf
    with ``requires_grad``; interior nodes have freed theirs.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        """Reset the gradient buffer to zeros (allocating it if absent)."""
        self.grad = np.zeros_like(self.data)

    def _grad_buffer(self) -> np.ndarray:
        """The gradient buffer, allocated as zeros on first use."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:  # a copy of the first write, never a view of g
            self.grad = np.empty_like(self.data)
            self.grad[...] = g
        else:
            self.grad += g

    def backward(self) -> None:
        """Backpropagate from a scalar, filling ``grad`` on reachable leaves.

        The pass consumes the graph: once a node's backward has run, the
        node drops its closure, its parents and (unless it is this root) its
        gradient, so the tape's memory is released as the pass proceeds.
        A second backward through any consumed node raises UsageError
        instead of silently leaving the leaves without gradients.
        """
        if self.data.size != 1:
            raise UsageError(
                f"backward() requires a scalar tensor, got shape {self.shape}"
            )
        order = _toposort(self)
        if any(node._backward is _consumed for node in order):
            raise UsageError(
                "backward() reached a graph that an earlier backward() "
                "consumed; run the forward pass again"
            )
        self._accumulate(np.ones_like(self.data))
        while order:
            node = order.pop()
            if node._backward is None:
                continue
            node._backward(node.grad)
            node._backward = _consumed
            node._parents = ()
            if node is not self:
                node.grad = None

    def __repr__(self) -> str:
        req = ", requires_grad=True" if self.requires_grad else ""
        nm = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{req}{nm})"

    def __getitem__(self, key):
        return _getitem(self, key)


def as_tensor(value) -> Tensor:
    """Wrap ``value`` as a constant Tensor unless it already is one."""
    return value if isinstance(value, Tensor) else Tensor(value)


def _consumed(_g):
    """Marks a node whose backward has already run (see Tensor.backward)."""
    raise UsageError("backward() through a consumed graph node")


def _toposort(root: Tensor) -> list[Tensor]:
    # Iterative DFS: recurrent decoders build chains deep enough to threaten
    # the interpreter recursion limit.
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def _make(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

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


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _make(out_data, (a, b), backward)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def block_matmul(blocks, x) -> Tensor:
    """``block_diag(*blocks) @ x`` without forming the block-diagonal matrix.

    ``blocks`` are constant square arrays (n_s, n_s) and ``x`` is (sum n_s,
    F); block s multiplies the rows of ``x`` from ``n_0 + ... + n_{s-1}``
    on, so a batch of scenes mixes each scene's agents with one product per
    scene's adjacency. Only ``x`` receives a gradient, ``blocks[s]^T @ g``
    on the same rows.
    """
    x = as_tensor(x)
    blocks = [np.asarray(b) for b in blocks]
    square = all(b.ndim == 2 and b.shape[0] == b.shape[1] for b in blocks)
    if x.ndim != 2 or not square or sum(len(b) for b in blocks) != len(x.data):
        raise DimensionError(
            f"block_matmul: blocks {[b.shape for b in blocks]} do not tile "
            f"the rows of {x.shape}"
        )
    spans, lo = [], 0
    for b in blocks:
        spans.append((b, lo, lo + len(b)))
        lo += len(b)
    # products straight into row slices of the result: no per-block copy
    out_data = np.empty(x.shape, dtype=np.result_type(x.data, *blocks))
    for b, lo, hi in spans:
        np.matmul(b, x.data[lo:hi], out=out_data[lo:hi])

    def backward(g):
        if x.requires_grad:
            gx = np.empty_like(g)
            for b, lo, hi in spans:
                np.matmul(b.T, g[lo:hi], out=gx[lo:hi])
            x._accumulate(gx)

    return _make(out_data, (x,), backward)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def relu(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (a.data > 0))

    return _make(out_data, (a,), backward)


# ---------------------------------------------------------------------------
# reductions and shape manipulation
# ---------------------------------------------------------------------------


def tsum(a) -> Tensor:
    """The sum of every element, a scalar."""
    a = as_tensor(a)
    out_data = a.data.sum()

    def backward(g):
        if a.requires_grad:
            a._accumulate(np.full_like(a.data, float(g)))

    return _make(out_data, (a,), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g.reshape(a.shape))

    return _make(out_data, (a,), backward)


def _is_basic_key(key) -> bool:
    """True when ``key`` indexes by integers, slices, ``None`` and ``...``
    only, so each element of ``a[key]`` is a distinct element of ``a``."""
    parts = key if isinstance(key, tuple) else (key,)
    return all(
        k is None or k is Ellipsis or isinstance(k, slice)
        or isinstance(k, (int, np.integer))
        for k in parts
    )


def _getitem(a: Tensor, key) -> Tensor:
    out_data = a.data[key]
    if np.isscalar(out_data) or out_data.ndim == 0:
        out_data = np.asarray(out_data)
    basic = _is_basic_key(key)

    # Add into the slice of the parent's gradient instead of scattering into
    # a zero buffer of the parent's size: a scan that reads every frame of a
    # (B, C, T) input would otherwise move O(T^2) memory in backward.
    def backward(g):
        if basic:
            a._grad_buffer()[key] += g
        else:  # index arrays may repeat an element, which must accumulate
            np.add.at(a._grad_buffer(), key, g)

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


def concat(tensors: Iterable, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise UsageError("concat() needs at least one tensor")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(lo, hi)
                t._accumulate(g[tuple(index)])

    return _make(out_data, tensors, backward)


# ---------------------------------------------------------------------------
# convolution primitives
# ---------------------------------------------------------------------------


def temporal_conv(x, kernel) -> Tensor:
    """Same-padded convolution over the time axis of time-major features.

    ``x`` has shape (N, T, C_in) and ``kernel`` (C_out, C_in, K) with K odd;
    each of the N rows is convolved independently, zero padding K//2 frames
    on each side so the time length is preserved. Returns (N, T, C_out).

    Lowered to one matrix product and K shifted sums: ``x`` as (N*T, C_in)
    times the kernel as ``Wcat`` (C_in, K*C_out) gives every tap at every
    frame, and tap j's output is added s = j - K//2 frames earlier, dropping
    what would come from the padding. Backward shifts ``g`` the other way
    into the (N*T, K*C_out) tap gradient and takes two products with it.
    The closure keeps only ``x``; ``Wcat`` is rebuilt when backward runs.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    if (x.ndim != 3 or kernel.ndim != 3 or x.shape[1] == 0
            or kernel.shape[1] != x.shape[2] or kernel.shape[2] % 2 != 1):
        raise DimensionError(
            f"temporal_conv expects x (N,T,C) with T >= 1 and kernel "
            f"(C_out,C,K) with the same channel count C and K odd, got "
            f"{x.shape} and {kernel.shape}"
        )
    n, t, c_in = x.shape
    c_out, _, k = kernel.shape
    pad = k // 2
    # tap j adds input frames [lo + s, hi + s) onto output frames [lo, hi)
    taps = [(j, max(0, pad - j), min(t, t + pad - j)) for j in range(k)]
    taps = [(j, lo, hi, j - pad) for j, lo, hi in taps if lo < hi]

    def w_cat():  # (C_in, K*C_out): column j*C_out + o is kernel[o, :, j]
        return kernel.data.transpose(1, 2, 0).reshape(c_in, k * c_out)

    taps_out = (x.data.reshape(n * t, c_in) @ w_cat()).reshape(n, t, k, c_out)
    out_data = taps_out[:, :, pad].astype(x.data.dtype, order="C")
    for j, lo, hi, s in taps:
        if j != pad:
            out_data[:, lo:hi] += taps_out[:, lo + s : hi + s, j]

    def backward(g):
        g_taps = np.zeros((n, t, k, c_out), dtype=g.dtype)
        for j, lo, hi, s in taps:
            g_taps[:, lo + s : hi + s, j] = g[:, lo:hi]
        g_taps = g_taps.reshape(n * t, k * c_out)
        if x.requires_grad:
            x._accumulate((g_taps @ w_cat().T).reshape(n, t, c_in))
        if kernel.requires_grad:
            gw = x.data.reshape(n * t, c_in).T @ g_taps
            kernel._accumulate(gw.reshape(c_in, k, c_out).transpose(2, 0, 1))

    return _make(out_data, [x, kernel], backward)


def channel_mix(x, weight, bias=None) -> Tensor:
    """Per-position linear map across the last axis (a 1x1 convolution).

    ``weight`` has shape (C_out, C_in) where C_in is the last axis of ``x``;
    every other position is mapped independently, so ``x`` as (M, C_in)
    gives one 2-D product ``x @ W^T`` forward and two in backward. Used for
    the coordinate embedding, the spatial channel map, the plan embedding
    and the decoders' per-step maps.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    if weight.ndim != 2:
        raise DimensionError(f"channel_mix: weight must be 2-D, got {weight.shape}")
    c_out, c_in = weight.shape
    if x.ndim == 0 or x.shape[-1] != c_in:
        raise DimensionError(
            f"channel_mix: last axis of input {x.shape} does not match "
            f"weight {weight.shape}, which expects {c_in}"
        )
    x2 = x.data.reshape(-1, c_in)
    out_data = x2 @ weight.data.T
    parents = [x, weight]
    if bias is not None:
        bias = as_tensor(bias)
        if bias.shape != (c_out,):
            raise DimensionError(f"channel_mix: bias shape {bias.shape} != ({c_out},)")
        out_data += bias.data
        parents.append(bias)

    def backward(g):
        g2 = g.reshape(-1, c_out)
        if weight.requires_grad:
            weight._accumulate(g2.T @ x2)
        if x.requires_grad:
            x._accumulate((g2 @ weight.data).reshape(x.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g2.sum(axis=0))

    return _make(out_data.reshape(x.shape[:-1] + (c_out,)), parents, backward)


# ---------------------------------------------------------------------------
# recurrent cell
# ---------------------------------------------------------------------------


@dataclass
class GRUParams:
    """Weights of one GRU cell.

    Input-to-hidden weights ``w_*`` are stored as (C_in, C_h) and
    hidden-to-hidden ``u_*`` as (C_h, C_h), so both single vectors (C_in,)
    and batched rows (B, C_in) go through the same ``x @ w`` product.
    """

    w_z: Tensor
    u_z: Tensor
    b_z: Tensor
    w_r: Tensor
    u_r: Tensor
    b_r: Tensor
    w_h: Tensor
    u_h: Tensor
    b_h: Tensor

    FIELDS = ("w_z", "u_z", "b_z", "w_r", "u_r", "b_r", "w_h", "u_h", "b_h")


def _outer(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``a^T d`` for batched rows (B, m), (B, n); the outer product for
    vectors (m,), (n,). Either way the (m, n) weight gradient."""
    return a.T @ d if a.ndim == 2 else np.outer(a, d)


def gru_cell(x, h, params: GRUParams) -> Tensor:
    """One GRU step with the fixed gate convention

        z = sigmoid(x w_z + h u_z + b_z)
        r = sigmoid(x w_r + h u_r + b_r)
        n = tanh(x w_h + (r * h) u_h + b_h)
        h' = (1 - z) * h + z * n

    ``x`` is (C_in,) or (B, C_in); ``h`` matches with (C_h,) or (B, C_h).

    One graph node with a hand-written backward; its parents are ``x``,
    ``h`` and the nine parameters in ``GRUParams.FIELDS`` order. The three
    input projections are one product with ``[w_z|w_r|w_h]`` and the two
    gate projections of ``h`` one product with ``[u_z|u_r]``. The backward
    closure keeps only the (B, C_h) activations: the concatenated weights
    are rebuilt when backward runs, because holding a copy per step until
    then raises peak memory in training.
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
