"""Minimal reverse-mode differentiation core.

Holds only the primitives the prediction network calls: elementwise
``add``, ``mul`` and ``relu`` (with numpy broadcasting), a full ``tsum``,
indexing and ``concat``, the block-diagonal product
of the spatial mixing, same-padded temporal convolution (without a bias:
the graph-conv blocks use none), per-position channel mixing over the last
axis (1x1 convolution), and the two GRU recurrences: ``gru_scan`` (an
encoder over T frames) and ``gru_rollout`` (a decoder that feeds its
positions back). Composed ops that only test oracles use live with the
tests. Tensors wrap contiguous numpy arrays; every operation is
deterministic and the backward pass visits nodes in reverse topological
order, so identical inputs give bitwise-identical outputs and gradients.

No hardware acceleration: each primitive is one graph node with its own
backward, checked against finite differences (``gradcheck``) and against a
composed or loop oracle in the tests. Inside a primitive, the hot paths are
lowered to BLAS matrix products (``temporal_conv`` on time-major (N, T, C)
input via one product with every tap's kernel side by side plus shifted
sums, ``channel_mix`` via one 2-D product, ``gru_scan`` via one product for
every frame's input projections before the recurrence), because per-tap,
per-element, per-gate or per-step graph nodes dominate the run time at the
model's sizes. ``gru_cell`` is not a node and not exported: it is the
array-level step that both recurrences run at every step, looked up in this
module at call time; its gate convention is the one in its docstring.
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
    "mul",
    "block_matmul",
    "relu",
    "tsum",
    "concat",
    "temporal_conv",
    "channel_mix",
    "gru_scan",
    "gru_rollout",
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
    ...), its trailing axes taken as one of F columns; block s multiplies
    the rows of ``x`` from ``n_0 + ... + n_{s-1}`` on, so a batch of scenes
    mixes each scene's agents with one product per scene's adjacency. Only
    ``x`` receives a gradient, ``blocks[s]^T @ g`` on the same rows.
    """
    x = as_tensor(x)
    blocks = [np.asarray(b) for b in blocks]
    square = all(b.ndim == 2 and b.shape[0] == b.shape[1] for b in blocks)
    if x.ndim < 2 or not square or sum(len(b) for b in blocks) != len(x.data):
        raise DimensionError(
            f"block_matmul: blocks {[b.shape for b in blocks]} do not tile "
            f"the rows of {x.shape}"
        )
    bounds = np.cumsum([0] + [len(b) for b in blocks])
    flat = (len(x.data), int(np.prod(x.shape[1:])))  # (N, F), also when N is 0

    def mix(matrices, a, dtype):
        """``matrices[s]`` times block s's rows of ``a`` as (N, F), each
        product written straight into its rows of the result."""
        out = np.empty(a.shape, dtype=dtype)
        rows, out_rows = a.reshape(flat), out.reshape(flat)
        for m, lo, hi in zip(matrices, bounds[:-1], bounds[1:]):
            np.matmul(m, rows[lo:hi], out=out_rows[lo:hi])
        return out

    out_data = mix(blocks, x.data, np.result_type(x.data, *blocks))

    def backward(g):
        if x.requires_grad:
            x._accumulate(mix([b.T for b in blocks], g, g.dtype))

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

    def backward(g):  # adds into the parent's gradient, never a fresh buffer
        if basic:
            a._grad_buffer()[key] += g
        else:  # index arrays may repeat an element, which must accumulate
            np.add.at(a._grad_buffer(), key, g)

    return _make(out_data, (a,), backward)


def concat(tensors: Iterable) -> Tensor:
    """Join tensors along their first axis."""
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise UsageError("concat() needs at least one tensor")
    out_data = np.concatenate([t.data for t in tensors])
    offsets = np.cumsum([0] + [len(t.data) for t in tensors])

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t._accumulate(g[lo:hi])

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
# recurrences
# ---------------------------------------------------------------------------


@dataclass
class GRUParams:
    """Weights of one GRU cell: input-to-hidden ``w_*`` (C_in, C_h) and
    hidden-to-hidden ``u_*`` (C_h, C_h), applied to rows as ``x @ w``."""

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


def _gru_arrays(params: GRUParams) -> tuple:
    """``[w_z|w_r|w_h]`` (C_in, 3C), ``[u_z|u_r]`` (C, 2C), ``[b_z|b_r]``,
    ``u_h`` and ``b_h``: concatenated once per node call, not per step."""
    p = params
    return (np.concatenate([p.w_z.data, p.w_r.data, p.w_h.data], axis=1),
            np.concatenate([p.u_z.data, p.u_r.data], axis=1),
            np.concatenate([p.b_z.data, p.b_r.data]), p.u_h.data, p.b_h.data)


def _gru_buffers(h0: Tensor, steps: int, dtype) -> tuple:
    """Hidden states (steps + 1, B, C) from ``h0``, gates ``[z|r]``
    (steps, B, 2C) and candidates (steps, B, C), for :func:`gru_cell`."""
    (b, c), shape = h0.shape, (steps, len(h0.data))
    hs = np.empty((steps + 1, b, c), dtype)
    hs[0] = h0.data
    return hs, np.empty(shape + (2 * c,), dtype), np.empty(shape + (c,), dtype)


def gru_cell(xw, h, arrays, zr, n, h_next) -> None:
    """One GRU step on arrays, with the fixed gate convention

        z = sigmoid(x w_z + h u_z + b_z),  r = sigmoid(x w_r + h u_r + b_r)
        n = tanh(x w_h + (r * h) u_h + b_h),  h' = (1 - z) * h + z * n

    The step kernel of :func:`gru_scan` and :func:`gru_rollout`, not a
    graph node: from ``xw`` = x [w_z|w_r|w_h] (B, 3C), ``h`` (B, C) and
    :func:`_gru_arrays`, it writes ``[z|r]`` (one pass) into ``zr``, n into
    ``n`` and h' into ``h_next``, in place and in the order above."""
    _, u_zr, b_zr, u_h, b_h = arrays
    c = h.shape[-1]
    np.matmul(h, u_zr, out=zr)
    np.add(xw[:, : 2 * c], zr, out=zr)
    zr += b_zr
    np.negative(zr, out=zr)
    np.exp(zr, out=zr)
    zr += 1.0
    np.divide(1.0, zr, out=zr)
    z, r = zr[:, :c], zr[:, c:]
    rh = r * h
    np.matmul(rh, u_h, out=n)
    np.add(xw[:, 2 * c :], n, out=n)
    n += b_h
    np.tanh(n, out=n)
    np.subtract(1.0, z, out=h_next)
    h_next *= h
    h_next += np.multiply(z, n, out=rh)


def _gru_cell_grad(g, h, zr, n, arrays, d) -> np.ndarray:
    """Backward of one :func:`gru_cell` step from the gradient ``g`` on h':
    writes the gradient at the gate inputs, ``[dz|dr|dn]``, into ``d``
    (B, 3C) and returns the gradient on ``h``."""
    _, u_zr, _, u_h, _ = arrays
    c = h.shape[-1]
    z, r = zr[:, :c], zr[:, c:]
    d[:, 2 * c :] = g * z * (1.0 - n * n)  # at the tanh input
    drh = d[:, 2 * c :] @ u_h.T
    d[:, c : 2 * c] = drh * h * r * (1.0 - r)  # at the sigmoid inputs
    d[:, :c] = g * (n - h) * z * (1.0 - z)
    return g * (1.0 - z) + drh * r + d[:, : 2 * c] @ u_zr.T


def _gru_weight_grads(params: GRUParams, x2, hs, r, d) -> None:
    """Accumulate the nine weight gradients, one product over all M = T*B
    rows each, from the steps' inputs ``x2`` (M, C_in), hidden states and
    reset gates ``hs``, ``r`` (T, B, C) and gate-input gradients ``d``."""
    c = hs.shape[-1]
    dw = x2.T @ d
    du = hs.reshape(-1, c).T @ d[:, : 2 * c]
    db = d.sum(axis=0)
    p = params
    for t, gt in [(p.w_z, dw[:, :c]), (p.w_r, dw[:, c : 2 * c]), (p.w_h, dw[:, 2 * c :]),
                  (p.u_z, du[:, :c]), (p.u_r, du[:, c:]),
                  (p.u_h, (r * hs).reshape(-1, c).T @ d[:, 2 * c :]),
                  (p.b_z, db[:c]), (p.b_r, db[c : 2 * c]), (p.b_h, db[2 * c :])]:
        if t.requires_grad:
            t._accumulate(gt)


def gru_scan(xs, h0, params: GRUParams) -> Tensor:
    """Run a GRU over the T frames of ``xs`` (B, T, C_in) from ``h0`` (B, C)
    and return the final hidden state (B, C): one node, whose parents are
    ``xs``, ``h0`` and the nine ``GRUParams.FIELDS``. The input projections
    of all frames are one (T*B, C_in) product before the recurrence, and
    backward keeps only the hidden-state products in its loop over frames.
    The closure keeps the (T, B, C) activations, not the joined weights."""
    xs, h0 = as_tensor(xs), as_tensor(h0)
    c_in, c = params.w_z.shape
    if xs.ndim != 3 or xs.shape[2] != c_in or h0.shape != (len(xs.data), c):
        raise DimensionError(f"gru_scan: xs {xs.shape} and h0 {h0.shape} do not fit "
                             f"(B, T, {c_in}) and (B, {c})")
    b, t, _ = xs.shape
    arrays = _gru_arrays(params)

    def frame_rows():  # (T*B, C_in), frame after frame
        return xs.data.transpose(1, 0, 2).reshape(t * b, c_in)

    xw = (frame_rows() @ arrays[0]).reshape(t, b, 3 * c)
    hs, zr, n = _gru_buffers(h0, t, np.result_type(xw, h0.data))
    for k in range(t):
        gru_cell(xw[k], hs[k], arrays, zr[k], n[k], hs[k + 1])

    def backward(g):
        arrays = _gru_arrays(params)
        d = np.empty((t, b, 3 * c), dtype=g.dtype)
        for k in reversed(range(t)):
            g = _gru_cell_grad(g, hs[k], zr[k], n[k], arrays, d[k])
        d = d.reshape(t * b, 3 * c)
        _gru_weight_grads(params, frame_rows(), hs[:t], zr[:, :, c:], d)
        if xs.requires_grad:
            xs._accumulate((d @ arrays[0].T).reshape(t, b, c_in).transpose(1, 0, 2))
        if h0.requires_grad:
            h0._accumulate(g)

    weights = [getattr(params, f) for f in GRUParams.FIELDS]
    return _make(hs[t], [xs, h0] + weights, backward)


def gru_rollout(pos0, h0, params: GRUParams, embed_weight, embed_bias,
                out_weight, out_bias, steps: int) -> Tensor:
    """Roll a GRU decoder out for ``steps`` steps from positions ``pos0``
    (B, 2) and hidden state ``h0`` (B, C); returns the positions (B, steps,
    2). A step embeds the position (``embed_weight`` (C_in, 2) and its
    bias, as :func:`channel_mix` does), runs :func:`gru_cell`, maps h' to a
    displacement (``out_weight`` (2, C) and its bias) and adds it on. One
    node, whose parents are ``pos0``, ``h0``, the nine ``GRUParams.FIELDS``
    and the four maps; as the positions feed back, backward's loop also
    carries the input path, and each weight gradient is one product."""
    pos0, h0 = as_tensor(pos0), as_tensor(h0)
    maps = [as_tensor(m) for m in (embed_weight, embed_bias, out_weight, out_bias)]
    e_w, e_b, o_w, o_b = maps
    c_in, c = params.w_z.shape
    b = len(pos0.data)
    if (pos0.shape != (b, 2) or h0.shape != (b, c) or e_w.shape != (c_in, 2)
            or o_w.shape != (2, c)):
        raise DimensionError(
            f"gru_rollout: positions {pos0.shape}, hidden {h0.shape}, embed {e_w.shape} "
            f"and out {o_w.shape} do not fit (B, 2), (B, {c}), ({c_in}, 2) and (2, {c})")
    arrays = _gru_arrays(params)
    hs, zr, n = _gru_buffers(h0, steps, np.result_type(pos0.data, h0.data, arrays[0]))
    pos, inp = np.empty((steps + 1, b, 2), hs.dtype), np.empty((steps, b, c_in), hs.dtype)
    pos[0] = pos0.data
    for k in range(steps):
        np.matmul(pos[k], e_w.data.T, out=inp[k])
        inp[k] += e_b.data
        gru_cell(inp[k] @ arrays[0], hs[k], arrays, zr[k], n[k], hs[k + 1])
        delta = hs[k + 1] @ o_w.data.T
        delta += o_b.data
        np.add(pos[k], delta, out=pos[k + 1])

    def backward(g):
        arrays = _gru_arrays(params)
        d = np.empty((steps, b, 3 * c), dtype=g.dtype)
        d_inp, d_delta = np.empty(inp.shape, g.dtype), np.empty(pos[1:].shape, g.dtype)
        dpos, dh = np.zeros((b, 2), g.dtype), np.zeros((b, c), g.dtype)
        for k in reversed(range(steps)):
            dpos += g[:, k]  # now the gradient on pos[k + 1]
            d_delta[k] = dpos
            dh = _gru_cell_grad(dh + dpos @ o_w.data, hs[k], zr[k], n[k], arrays, d[k])
            np.matmul(d[k], arrays[0].T, out=d_inp[k])
            dpos += d_inp[k] @ e_w.data
        rows = steps * b
        _gru_weight_grads(params, inp.reshape(rows, c_in), hs[:steps], zr[:, :, c:],
                          d.reshape(rows, 3 * c))
        d_delta, d_inp = d_delta.reshape(rows, 2), d_inp.reshape(rows, c_in)
        for t, gt in [(e_w, d_inp.T @ pos[:steps].reshape(rows, 2)),
                      (e_b, d_inp.sum(axis=0)),
                      (o_w, d_delta.T @ hs[1:].reshape(rows, c)),
                      (o_b, d_delta.sum(axis=0)), (pos0, dpos), (h0, dh)]:
            if t.requires_grad:
                t._accumulate(gt)

    weights = [getattr(params, f) for f in GRUParams.FIELDS]
    out_data = np.ascontiguousarray(pos[1:].transpose(1, 0, 2))
    return _make(out_data, [pos0, h0] + weights + maps, backward)
