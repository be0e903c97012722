"""Tests for the reverse-mode core: forward values against brute-force
oracles, gradients against finite differences, determinism."""

import re
from pathlib import Path

import numpy as np
import pytest

import oracle_ops as ops
from epg_mgcn import autograd as ag
from epg_mgcn import model
from epg_mgcn.autograd import GRUParams, Tensor
from epg_mgcn.errors import DimensionError, UsageError
from epg_mgcn.gradcheck import finite_diff_check


def fd_grad(fn, x, eps=1e-6):
    """Central-difference gradient of a scalar numpy function."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = fn(x)
        flat[i] = orig - eps
        fm = fn(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * eps)
    return g


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ops.matmul(a, b).data, b.data)

    def test_projector_zeroes_row(self):
        p = Tensor([[1.0, 0.0], [0.0, 0.0]])
        m = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(
            ops.matmul(p, m).data, [[5.0, 6.0], [0.0, 0.0]]
        )

    def test_against_triple_loop(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        out = ops.matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, expected, atol=1e-12, rtol=0)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            ops.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_gradients(self):
        rng = np.random.default_rng(11)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        ag.tsum(ops.matmul(a, b)).backward()
        ga = fd_grad(lambda x: (x @ b.data).sum(), a.data.copy())
        gb = fd_grad(lambda x: (a.data @ x).sum(), b.data.copy())
        np.testing.assert_allclose(a.grad, ga, atol=1e-8)
        np.testing.assert_allclose(b.grad, gb, atol=1e-8)

    def test_vector_cases(self):
        rng = np.random.default_rng(3)
        v = Tensor(rng.normal(size=4), requires_grad=True)
        m = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        out = ops.matmul(v, m)
        assert out.shape == (3,)
        ag.tsum(out).backward()
        np.testing.assert_allclose(v.grad, m.data.sum(axis=1), atol=1e-12)
        w = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        u = Tensor(rng.normal(size=4), requires_grad=True)
        out2 = ops.matmul(w, u)
        assert out2.shape == (5,)
        ag.tsum(out2).backward()
        np.testing.assert_allclose(u.grad, w.data.sum(axis=0), atol=1e-12)


def dense_block_diag(blocks):
    """The block-diagonal matrix itself: the oracle for ``block_matmul``."""
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    lo = 0
    for b in blocks:
        out[lo:lo + b.shape[0], lo:lo + b.shape[0]] = b
        lo += b.shape[0]
    return out


class TestBlockMatmul:
    @pytest.mark.parametrize("sizes", [(1,), (3,), (1, 4, 2), (5, 1, 1, 7)])
    def test_matches_dense_block_diag_product(self, sizes):
        rng = np.random.default_rng(sum(sizes))
        blocks = [rng.normal(size=(n, n)) for n in sizes]
        x = Tensor(rng.normal(size=(sum(sizes), 6)), requires_grad=True)
        g = rng.normal(size=(sum(sizes), 6))
        out = ag.block_matmul(blocks, x)
        ag.tsum(ag.mul(out, g)).backward()
        dense = dense_block_diag(blocks)
        np.testing.assert_allclose(out.data, dense @ x.data, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(x.grad, dense.T @ g, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("sizes", [(3,), (1, 4, 2)])
    def test_mixes_the_rows_of_a_three_axis_input(self, sizes):
        """Trailing axes are one axis of columns: time-major (N, T, C)
        features mix as (N, T*C), bitwise as the 2-D product."""
        rng = np.random.default_rng(sum(sizes))
        blocks = [rng.normal(size=(n, n)) for n in sizes]
        x = Tensor(rng.normal(size=(sum(sizes), 3, 4)), requires_grad=True)
        flat = Tensor(x.data.reshape(sum(sizes), 12), requires_grad=True)
        g = rng.normal(size=(sum(sizes), 3, 4))
        out = ag.block_matmul(blocks, x)
        ag.tsum(ag.mul(out, g)).backward()
        ag.tsum(ag.mul(ag.block_matmul(blocks, flat), g.reshape(-1, 12))).backward()
        dense = dense_block_diag(blocks)
        np.testing.assert_allclose(out.data, np.einsum("ij,jtc->itc", dense, x.data),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(x.grad, np.einsum("ji,jtc->itc", dense, g),
                                   rtol=1e-12, atol=1e-12)
        assert x.grad.tobytes() == flat.grad.tobytes()

    def test_no_blocks_mix_no_rows(self):
        x = Tensor(np.zeros((0, 3, 4)), requires_grad=True)
        out = ag.block_matmul([], x)
        ag.tsum(out).backward()
        assert out.shape == x.grad.shape == (0, 3, 4)

    def test_one_block_equals_matmul_bitwise(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 5))
        x = Tensor(rng.normal(size=(5, 8)), requires_grad=True)
        y = Tensor(x.data.copy(), requires_grad=True)
        out = ag.block_matmul([a], x)
        ref = ops.matmul(Tensor(a), y)
        ag.tsum(out).backward()
        ag.tsum(ref).backward()
        assert out.data.tobytes() == ref.data.tobytes()
        assert x.grad.tobytes() == y.grad.tobytes()

    def test_float32_stays_float32(self):
        rng = np.random.default_rng(4)
        blocks = [rng.normal(size=(n, n)).astype(np.float32) for n in (2, 3)]
        x = Tensor(rng.normal(size=(5, 4)).astype(np.float32), requires_grad=True)
        out = ag.block_matmul(blocks, x)
        ag.tsum(out).backward()
        assert out.data.dtype == np.float32
        assert x.grad.dtype == np.float32

    @pytest.mark.parametrize("blocks, rows", [
        ([np.eye(2), np.eye(2)], 5),
        ([np.zeros((2, 3))], 2),
        ([np.eye(2)], 3),
    ])
    def test_blocks_must_tile_the_rows(self, blocks, rows):
        with pytest.raises(DimensionError, match="do not tile"):
            ag.block_matmul(blocks, Tensor(np.zeros((rows, 4))))


class TestTemporalConv:
    def test_center_tap_identity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 5, 3))
        kernel = np.zeros((3, 3, 3))
        for c in range(3):
            kernel[c, c, 1] = 1.0  # center tap, identity channel map
        out = ag.temporal_conv(Tensor(x), Tensor(kernel))
        np.testing.assert_allclose(out.data, x, atol=1e-15)

    def test_box_kernel_hand_sum(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1))
        kernel = Tensor(np.ones((1, 1, 3)))
        out = ag.temporal_conv(x, kernel)
        np.testing.assert_allclose(out.data.ravel(), [3.0, 6.0, 5.0], atol=1e-15)

    def test_against_sliding_window_oracle(self):
        rng = np.random.default_rng(5)
        n, ci, co, t, k = 3, 2, 4, 7, 3
        x = rng.normal(size=(n, t, ci))
        kernel = rng.normal(size=(co, ci, k))
        pad = k // 2
        xp = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
        expected = np.zeros((n, t, co))
        for b in range(n):
            for o in range(co):
                for tt in range(t):
                    acc = 0.0
                    for i in range(ci):
                        for j in range(k):
                            acc += kernel[o, i, j] * xp[b, tt + j, i]
                    expected[b, tt, o] = acc
        out = ag.temporal_conv(Tensor(x), Tensor(kernel))
        np.testing.assert_allclose(out.data, expected, atol=1e-12, rtol=0)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError, match=r"\(N,T,C\).*channel.*\(1, 4, 2\)"):
            ag.temporal_conv(Tensor(np.zeros((1, 4, 2))), Tensor(np.zeros((3, 5, 3))))

    def test_empty_time_axis_names_shape(self):
        with pytest.raises(DimensionError, match=r"\(N,T,C\) with T >= 1.*\(2, 0, 3\)"):
            ag.temporal_conv(Tensor(np.zeros((2, 0, 3))), Tensor(np.zeros((4, 3, 3))))

    def test_even_kernel_width(self):
        with pytest.raises(DimensionError, match=r"\(N,T,C\).*K odd.*\(2, 4, 3\)"):
            ag.temporal_conv(Tensor(np.zeros((2, 4, 3))), Tensor(np.zeros((4, 3, 2))))

    def test_gradients(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        kernel = Tensor(rng.normal(size=(4, 3, 3)), requires_grad=True)
        loss = lambda: ag.tsum(
            ag.mul(ag.temporal_conv(x, kernel), ag.temporal_conv(x, kernel))
        )
        report = finite_diff_check(loss, {"x": x, "k": kernel},
                                   epsilon=1e-6, tolerance=1e-7)
        assert report.passed, report.summary()

    def test_backward_closure_holds_no_column_sized_array(self):
        rng = np.random.default_rng(4)
        n, t, c, k = 5, 6, 8, 3
        x = Tensor(rng.normal(size=(n, t, c)), requires_grad=True)
        kernel = Tensor(rng.normal(size=(c, c, k)), requires_grad=True)
        out = ag.temporal_conv(x, kernel)
        arrays = held_arrays(out._backward)
        assert any(a is x.data for a in arrays)
        shapes = [a.shape for a in arrays]
        assert all(a.size < n * t * k * c for a in arrays), shapes
        assert (n, t + k - 1, c) not in shapes, shapes


def held_arrays(fn) -> list:
    """Every numpy array a closure keeps alive: cell contents, the data of
    Tensors, and what lists, tuples and nested closures hold."""
    found, seen = [], set()

    def visit(v):
        if id(v) in seen:
            return
        seen.add(id(v))
        if isinstance(v, np.ndarray):
            found.append(v)
        elif isinstance(v, Tensor):
            visit(v.data)
        elif isinstance(v, (list, tuple)):
            for item in v:
                visit(item)
        elif callable(v) and getattr(v, "__closure__", None):
            for cell in v.__closure__:
                visit(cell.cell_contents)

    visit(fn)
    return found


def _im2col(xp: np.ndarray, k: int) -> np.ndarray:
    """Unfold a padded (N, C_in, T + K - 1) input into the (N*T, C_in*K)
    column matrix whose row ``n*T + t`` is the window ``xp[n, :, t:t+K]``,
    flattened as ``i*K + j`` to match ``kernel.reshape(C_out, C_in*K)``."""
    n, c_in, width = xp.shape
    windows = np.lib.stride_tricks.sliding_window_view(xp, k, axis=2)
    return windows.transpose(0, 2, 1, 3).reshape(n * (width - k + 1), c_in * k)


def im2col_temporal_conv(x, kernel, bias=None) -> Tensor:
    """Oracle: the channel-major im2col convolution that the time-major
    ``temporal_conv`` replaced, one graph node on ``x`` (N, C_in, T) giving
    (N, C_out, T). Forward is one product of the unfolded padded input with
    the kernel as (C_out, C_in*K); backward folds ``g @ kernel`` back over
    the K taps and takes the kernel gradient as ``g^T @ cols``."""
    x, kernel = ag.as_tensor(x), ag.as_tensor(kernel)
    n, c_in, t = x.shape
    c_out, _, k = kernel.shape
    pad = k // 2
    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad)))
    w2 = kernel.data.reshape(c_out, c_in * k)
    out_data = (_im2col(xp, k) @ w2.T).reshape(n, t, c_out).transpose(0, 2, 1)
    out_data = out_data.astype(x.data.dtype, order="C")
    parents = [x, kernel]
    if bias is not None:
        bias = ag.as_tensor(bias)
        out_data = out_data + bias.data[None, :, None]
        parents.append(bias)

    def backward(g):
        g2 = g.transpose(0, 2, 1).reshape(n * t, c_out)
        if x.requires_grad:
            gcols = (g2 @ w2).reshape(n, t, c_in, k)
            gxp = np.zeros_like(xp)
            for j in range(k):
                gxp[:, :, j : j + t] += gcols[:, :, :, j].transpose(0, 2, 1)
            x._accumulate(gxp[:, :, pad : pad + t])
        if kernel.requires_grad:
            gk = g2.T @ _im2col(xp, k)
            kernel._accumulate(gk.reshape(c_out, c_in, k))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2)))

    return ag._make(out_data, parents, backward)


def per_tap_temporal_conv(x, kernel, bias, g):
    """Oracle: the per-tap einsum formulation of the same-padded temporal
    convolution on time-major (N, T, C) arrays. Returns the output and the
    gradients of sum(out * g) with respect to x, kernel and bias."""
    n, t, _ = x.shape
    c_out, _, k = kernel.shape
    pad = k // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
    out = np.zeros((n, t, c_out), dtype=x.dtype)
    for j in range(k):
        out += np.einsum("oi,nti->nto", kernel[:, :, j], xp[:, j : j + t])
    if bias is not None:
        out = out + bias
    gxp = np.zeros_like(xp)
    gk = np.zeros_like(kernel)
    for j in range(k):
        gxp[:, j : j + t] += np.einsum("oi,nto->nti", kernel[:, :, j], g)
        gk[:, :, j] = np.einsum("nto,nti->oi", g, xp[:, j : j + t])
    gb = None if bias is None else g.sum(axis=(0, 1))
    return out, gxp[:, pad : pad + t], gk, gb


def channel_major_oracle(x, kernel, bias, g):
    """``im2col_temporal_conv`` on the (N, C, T) transposes of time-major
    arrays; the output and the gradients of sum(out * g), back in (N, T, C)."""
    xt = Tensor(x.transpose(0, 2, 1).copy(), requires_grad=True)
    kt = Tensor(kernel, requires_grad=True)
    bt = None if bias is None else Tensor(bias, requires_grad=True)
    out = im2col_temporal_conv(xt, kt, bt)
    ag.tsum(ag.mul(out, g.transpose(0, 2, 1))).backward()
    return (out.data.transpose(0, 2, 1), xt.grad.transpose(0, 2, 1), kt.grad,
            None if bias is None else bt.grad)


def max_relative_error(actual, expected):
    """Largest absolute difference relative to the largest expected value."""
    return np.max(np.abs(actual - expected)) / np.max(np.abs(expected))


class TestTemporalConvMatchesPerTapOracle:
    """The time-major tap-product lowering against the per-tap einsum
    path; the subclass below repeats every case against the channel-major
    im2col node that this lowering replaced. A ``with_bias`` case adds a
    per-channel bias after the convolution as a broadcast ``add`` node,
    which the oracles fold into their own convolution."""

    oracle = staticmethod(per_tap_temporal_conv)

    def run_both(self, shape, with_bias, dtype):
        n, c_in, c_out, t, k = shape
        rng = np.random.default_rng(sum(shape) + with_bias)
        x = rng.normal(size=(n, t, c_in)).astype(dtype)
        kernel = rng.normal(size=(c_out, c_in, k)).astype(dtype)
        bias = rng.normal(size=c_out).astype(dtype) if with_bias else None
        g = rng.normal(size=(n, t, c_out)).astype(dtype)
        xt = Tensor(x, requires_grad=True)
        kt = Tensor(kernel, requires_grad=True)
        bt = Tensor(bias, requires_grad=True) if with_bias else None
        out = ag.temporal_conv(xt, kt)
        if with_bias:
            out = ag.add(out, bt)
        ag.tsum(ag.mul(out, g)).backward()
        actual = (out.data, xt.grad, kt.grad, bt.grad if with_bias else None)
        return actual, self.oracle(x, kernel, bias, g)

    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("shape", [
        (1, 2, 3, 1, 3),
        (3, 2, 4, 7, 3),
        (4, 64, 64, 6, 3),
        (60, 64, 64, 6, 3),
        (3, 2, 4, 7, 1),
        (3, 2, 4, 7, 5),
        (2, 3, 4, 2, 5),  # T < K: every window overlaps the padding
        (2, 3, 4, 2, 7),  # taps that see only padding
    ])
    def test_float64_within_1e12(self, shape, with_bias):
        actual, expected = self.run_both(shape, with_bias, np.float64)
        for name, a, e in zip(("out", "x.grad", "kernel.grad", "bias.grad"),
                              actual, expected):
            if e is None:
                assert a is None
                continue
            assert a.shape == e.shape, name
            assert max_relative_error(a, e) <= 1e-12, name

    @pytest.mark.parametrize("with_bias", [False, True])
    def test_float32_stays_float32(self, with_bias):
        actual, expected = self.run_both((4, 8, 6, 6, 3), with_bias, np.float32)
        for a, e in zip(actual, expected):
            if e is None:
                continue
            assert a.dtype == np.float32
            assert max_relative_error(a, e) <= 1e-5


class TestTemporalConvMatchesIm2colOracle(TestTemporalConvMatchesPerTapOracle):
    oracle = staticmethod(channel_major_oracle)


class TestChannelMix:
    def test_against_per_position_oracle(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 5, 2))
        w = rng.normal(size=(6, 2))
        b = rng.normal(size=6)
        out = ag.channel_mix(Tensor(x), Tensor(w), Tensor(b))
        expected = np.zeros((3, 5, 6))
        for n in range(3):
            for o in range(6):
                for t in range(5):
                    expected[n, t, o] = b[o] + sum(
                        w[o, i] * x[n, t, i] for i in range(2)
                    )
        np.testing.assert_allclose(out.data, expected, atol=1e-12, rtol=0)

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError, match="channel_mix"):
            ag.channel_mix(Tensor(np.zeros((3, 4))), Tensor(np.zeros((2, 5))))

    def test_gradients(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=5), requires_grad=True)
        loss = lambda: ag.tsum(
            ag.mul(ag.channel_mix(x, w, b), ag.channel_mix(x, w, b))
        )
        report = finite_diff_check(loss, {"x": x, "w": w, "b": b},
                                   epsilon=1e-6, tolerance=1e-7)
        assert report.passed, report.summary()


class TestGRUCell:
    def zero_params(self, cx, ch):
        return GRUParams(*[
            Tensor(np.zeros(shape), requires_grad=True)
            for shape in [(cx, ch), (ch, ch), (ch,)] * 3
        ])

    def random_params(self, rng, cx, ch, requires_grad=True):
        return GRUParams(*[
            Tensor(rng.normal(size=shape), requires_grad=requires_grad)
            for shape in [(cx, ch), (ch, ch), (ch,)] * 3
        ])

    def test_zero_params_halves_hidden(self):
        h = Tensor([1.0, -2.0, 3.0])
        x = Tensor([0.5, 0.5])
        out = ag.gru_cell(x, h, self.zero_params(2, 3))
        np.testing.assert_allclose(out.data, 0.5 * h.data, atol=1e-15)

    def test_zero_params_zero_hidden(self):
        out = ag.gru_cell(Tensor([1.0, 2.0]), Tensor([0.0, 0.0, 0.0]),
                          self.zero_params(2, 3))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-15)

    def test_against_elementwise_oracle(self):
        rng = np.random.default_rng(8)
        cx, ch = 3, 4
        p = self.random_params(rng, cx, ch)
        x = rng.normal(size=cx)
        h = rng.normal(size=ch)

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        expected = np.zeros(ch)
        for j in range(ch):
            zj = sig(sum(x[i] * p.w_z.data[i, j] for i in range(cx))
                     + sum(h[i] * p.u_z.data[i, j] for i in range(ch))
                     + p.b_z.data[j])
            rj_all = [sig(sum(x[i] * p.w_r.data[i, q] for i in range(cx))
                          + sum(h[i] * p.u_r.data[i, q] for i in range(ch))
                          + p.b_r.data[q]) for q in range(ch)]
            nj = np.tanh(sum(x[i] * p.w_h.data[i, j] for i in range(cx))
                         + sum(rj_all[i] * h[i] * p.u_h.data[i, j] for i in range(ch))
                         + p.b_h.data[j])
            expected[j] = (1 - zj) * h[j] + zj * nj
        out = ag.gru_cell(Tensor(x), Tensor(h), p)
        np.testing.assert_allclose(out.data, expected, atol=1e-12, rtol=0)

    def test_batch_shape_mismatch(self):
        rng = np.random.default_rng(14)
        p = self.random_params(rng, 2, 3, requires_grad=False)
        with pytest.raises(DimensionError, match="gru_cell"):
            ag.gru_cell(Tensor(np.zeros((4, 2))), Tensor(np.zeros((5, 3))), p)

    def test_batched_matches_per_row(self):
        rng = np.random.default_rng(12)
        p = self.random_params(rng, 2, 3, requires_grad=False)
        xb = rng.normal(size=(4, 2))
        hb = rng.normal(size=(4, 3))
        batched = ag.gru_cell(Tensor(xb), Tensor(hb), p)
        for row in range(4):
            single = ag.gru_cell(Tensor(xb[row]), Tensor(hb[row]), p)
            np.testing.assert_allclose(batched.data[row], single.data, atol=1e-14)

    def test_gradients(self):
        rng = np.random.default_rng(13)
        p = self.random_params(rng, 2, 3)
        x = Tensor(rng.normal(size=2), requires_grad=True)
        h = Tensor(rng.normal(size=3), requires_grad=True)
        params = {"x": x, "h": h}
        params.update({f: getattr(p, f) for f in GRUParams.FIELDS})
        loss = lambda: ag.tsum(ag.mul(ag.gru_cell(x, h, p), ag.gru_cell(x, h, p)))
        report = finite_diff_check(loss, params, epsilon=1e-6, tolerance=1e-6)
        assert report.passed, report.summary()


def composed_gru_cell(x, h, params: GRUParams) -> Tensor:
    """Oracle: the GRU step composed from primitive graph nodes, the path
    the single-node ``gru_cell`` replaced."""
    x, h = ag.as_tensor(x), ag.as_tensor(h)
    z = ops.sigmoid(ag.add(ag.add(ops.matmul(x, params.w_z), ops.matmul(h, params.u_z)),
                           params.b_z))
    r = ops.sigmoid(ag.add(ag.add(ops.matmul(x, params.w_r), ops.matmul(h, params.u_r)),
                           params.b_r))
    n = ops.tanh(ag.add(ag.add(ops.matmul(x, params.w_h),
                               ops.matmul(ag.mul(r, h), params.u_h)), params.b_h))
    return ag.add(ag.mul(ag.sub(1.0, z), h), ag.mul(z, n))


def random_gru_params(rng, cx, ch, dtype=np.float64, frozen=()):
    """Normal random GRU weights; the fields named in ``frozen`` get
    ``requires_grad=False``."""
    shapes = {"w": (cx, ch), "u": (ch, ch), "b": (ch,)}
    return GRUParams(**{
        f: Tensor(rng.normal(size=shapes[f[0]]).astype(dtype),
                  requires_grad=f not in frozen)
        for f in GRUParams.FIELDS
    })


class TestGRUCellMatchesComposedOracle:
    """The single-node cell with its hand-written backward against the
    composed path it replaced."""

    @staticmethod
    def run(cell, batch, cx, ch, dtype, frozen=(), seed=0):
        """Output and gradients of sum(cell(x, h) * g) for x, h and the nine
        parameters; the parameters named in ``frozen`` get none."""
        rng = np.random.default_rng(seed)
        lead = () if batch is None else (batch,)
        x = Tensor(rng.normal(size=lead + (cx,)).astype(dtype), requires_grad=True)
        h = Tensor(rng.normal(size=lead + (ch,)).astype(dtype), requires_grad=True)
        params = random_gru_params(rng, cx, ch, dtype, frozen)
        g = rng.normal(size=lead + (ch,)).astype(dtype)
        out = cell(x, h, params)
        ag.tsum(ag.mul(out, g)).backward()
        grads = {"x": x.grad, "h": h.grad}
        grads.update({f: getattr(params, f).grad for f in GRUParams.FIELDS})
        return out.data, grads

    @pytest.mark.parametrize("batch,cx,ch", [
        (None, 3, 4),  # 1-D input
        (1, 4, 4),
        (7, 5, 3),  # C_in != C_h
        (7, 64, 64),
    ])
    @pytest.mark.parametrize("frozen", [(), ("w_r", "u_h", "b_z")])
    def test_float64_within_1e12(self, batch, cx, ch, frozen):
        out, grads = self.run(ag.gru_cell, batch, cx, ch, np.float64, frozen)
        want_out, want = self.run(composed_gru_cell, batch, cx, ch, np.float64, frozen)
        assert out.shape == want_out.shape
        assert max_relative_error(out, want_out) <= 1e-12
        for name, expected in want.items():
            if expected is None:
                assert grads[name] is None, name
                continue
            assert grads[name].shape == expected.shape, name
            assert max_relative_error(grads[name], expected) <= 1e-12, name

    @pytest.mark.parametrize("batch", [None, 7])
    def test_float32_stays_float32(self, batch):
        out, grads = self.run(ag.gru_cell, batch, 5, 3, np.float32)
        want_out, want = self.run(composed_gru_cell, batch, 5, 3, np.float64)
        assert out.dtype == np.float32
        assert max_relative_error(out, want_out) <= 1e-5
        for name, expected in want.items():
            assert grads[name].dtype == np.float32, name
            assert max_relative_error(grads[name], expected) <= 1e-5, name

    @pytest.mark.parametrize("cx,ch", [(4, 3), (3, 5)])
    def test_width_mismatch_names_shapes(self, cx, ch):
        params = random_gru_params(np.random.default_rng(5), 3, 4)
        with pytest.raises(DimensionError, match=r"gru_cell: input \(2, %d\)" % cx):
            ag.gru_cell(Tensor(np.zeros((2, cx))), Tensor(np.zeros((2, ch))), params)

    def test_one_node_with_eleven_parents(self, monkeypatch):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        h = Tensor(rng.normal(size=(2, 4)))
        params = random_gru_params(rng, 3, 4)
        created = []
        original = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            created.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        out = ag.gru_cell(x, h, params)
        monkeypatch.undo()
        assert created == [out]
        expected = [x, h] + [getattr(params, f) for f in GRUParams.FIELDS]
        assert len(out._parents) == 11
        assert all(a is b for a, b in zip(out._parents, expected))

    def test_backward_closure_holds_no_weight_sized_array(self):
        rng = np.random.default_rng(4)
        batch, cx, ch = 2, 16, 8
        x = Tensor(rng.normal(size=(batch, cx)), requires_grad=True)
        h = Tensor(rng.normal(size=(batch, ch)), requires_grad=True)
        out = ag.gru_cell(x, h, random_gru_params(rng, cx, ch))
        held = [cell.cell_contents for cell in out._backward.__closure__]
        arrays = [v for v in held if isinstance(v, np.ndarray)]
        arrays += [a for v in held if isinstance(v, (list, tuple))
                   for a in v if isinstance(a, np.ndarray)]
        assert arrays
        assert all(a.size < cx * 3 * ch for a in arrays), [a.shape for a in arrays]


class TestShapeOps:
    def test_getitem_slice_grad(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        ag.tsum(x[1:, :2]).backward()
        expected = np.zeros((3, 4))
        expected[1:, :2] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_stack_and_concat_grads(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(2 * np.ones(3), requires_grad=True)
        ag.tsum(ag.mul(ag.stack([a, b]), ag.stack([a, b]))).backward()
        np.testing.assert_allclose(a.grad, 2 * a.data)
        np.testing.assert_allclose(b.grad, 2 * b.data)
        a.grad = b.grad = None
        ag.tsum(ag.mul(ag.concat([a, b]), ag.concat([a, b]))).backward()
        np.testing.assert_allclose(a.grad, 2 * a.data)
        np.testing.assert_allclose(b.grad, 2 * b.data)

    def test_getitem_row_indices_accumulate_duplicates(self):
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        ag.tsum(x[np.array([0, 0, 2])]).backward()
        np.testing.assert_array_equal(x.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])

    def test_overlapping_slices_both_accumulate(self):
        x = Tensor(np.arange(10.0).reshape(5, 2), requires_grad=True)
        w1 = np.arange(6.0).reshape(3, 2)
        w2 = -np.arange(8.0).reshape(4, 2)
        ag.tsum(ag.add(ag.tsum(ag.mul(x[0:3], w1)),
                       ag.tsum(ag.mul(x[1:5], w2)))).backward()
        expected = np.zeros((5, 2))
        expected[0:3] += w1
        expected[1:5] += w2
        np.testing.assert_array_equal(x.grad, expected)

    def test_getitem_index_array_accumulates_duplicates(self):
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        ag.tsum(x[[0, 0, 2], 1]).backward()
        np.testing.assert_array_equal(x.grad, [[0.0, 2.0], [0.0, 0.0], [0.0, 1.0]])

    def test_mul_broadcast_grad(self):
        x = Tensor(np.array([1.0, 2.0]).reshape(1, 2, 1), requires_grad=True)
        ag.tsum(ag.mul(x, np.ones((3, 2, 4)))).backward()
        np.testing.assert_array_equal(x.grad, 12.0 * np.ones((1, 2, 1)))

    def test_transpose_grad(self):
        x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        y = ops.transpose(x, (2, 0, 1))
        assert y.shape == (4, 2, 3)
        ag.tsum(ag.mul(y, y)).backward()
        np.testing.assert_allclose(x.grad, 2 * x.data)


class TestChainAndDeterminism:
    def test_chain_composition_matches_fd(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)

        def loss():
            y = ops.tanh(ops.matmul(x, w))
            z = ag.relu(ag.add(y, 0.1))
            return ops.tmean(ag.mul(z, z))

        report = finite_diff_check(loss, {"x": x, "w": w},
                                   epsilon=1e-6, tolerance=1e-6)
        assert report.passed, report.summary()

    def test_shared_subgraph_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        y = ag.mul(x, x)  # x^2
        z = ag.add(y, ag.mul(3.0, x))  # x^2 + 3x
        ag.tsum(z).backward()
        np.testing.assert_allclose(x.grad, [7.0])  # 2x + 3 at x=2

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(30)
        x = rng.normal(size=(5, 4))
        w = rng.normal(size=(4, 4))

        def run():
            xt = Tensor(x.copy(), requires_grad=True)
            wt = Tensor(w.copy(), requires_grad=True)
            out = ag.tsum(ops.sigmoid(ops.matmul(xt, wt)))
            out.backward()
            return out.data.copy(), xt.grad.copy(), wt.grad.copy()

        o1, gx1, gw1 = run()
        o2, gx2, gw2 = run()
        assert o1.tobytes() == o2.tobytes()
        assert gx1.tobytes() == gx2.tobytes()
        assert gw1.tobytes() == gw2.tobytes()

    def test_randomized_primitive_gradients(self):
        # every primitive in one composite graph, against central differences
        rng = np.random.default_rng(31)
        x = Tensor(rng.normal(size=(2, 6, 3)), requires_grad=True)
        kernel = Tensor(rng.normal(size=(3, 3, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)

        def loss():
            a = ag.temporal_conv(x, kernel)
            b = ag.channel_mix(a, w)
            c = ops.transpose(b, (1, 0, 2))
            d = ag.reshape(c, (12, 4))
            e = d[[0, 5, 5, 11]]
            return ops.tmean(ag.mul(ops.tanh(e), ops.sigmoid(e)))

        report = finite_diff_check(loss, {"x": x, "kernel": kernel, "w": w},
                                   epsilon=1e-6, tolerance=1e-6)
        assert report.passed, report.summary()


class TestAccumulate:
    def test_first_write_is_a_copy_of_the_upstream_array(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        root = ag.reshape(x, ())  # x's gradient arrives as a view of root's
        root.backward()
        root.grad[...] = 5.0  # root keeps its gradient; mutate it
        np.testing.assert_array_equal(x.grad, [1.0])
        assert not np.shares_memory(x.grad, root.grad)

    def test_node_backward_does_not_alias_g(self):
        x = Tensor(np.zeros((2, 3), dtype=np.float32), requires_grad=True)
        out = ops.transpose(x, (1, 0))
        g = np.arange(6.0).reshape(3, 2)
        out._backward(g)
        g[...] = -1.0
        np.testing.assert_array_equal(x.grad, np.arange(6.0).reshape(3, 2).T)
        assert x.grad.dtype == np.float32 and x.grad.flags.c_contiguous


class TestArgumentChecks:
    def test_integer_input_becomes_float64(self):
        assert Tensor([1, 2]).data.dtype == np.float64

    def test_repr_names_shape_flag_and_name(self):
        assert repr(Tensor(np.zeros((2, 3)))) == "Tensor(shape=(2, 3))"
        assert repr(Tensor(np.zeros(2), requires_grad=True, name="w")) == (
            "Tensor(shape=(2,), requires_grad=True, name='w')")

    def test_backward_needs_a_scalar(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(UsageError, match=re.escape(
                "backward() requires a scalar tensor, got shape (3,)")):
            ag.mul(w, w).backward()

    @pytest.mark.parametrize("call, error, named", [
        (lambda: ag.stack([]), UsageError, "stack() needs at least one tensor"),
        (lambda: ag.stack([np.zeros(2), np.zeros(3)]), DimensionError,
         "stack() requires identical shapes, got [(2,), (3,)]"),
        (lambda: ag.concat([]), UsageError, "concat() needs at least one tensor"),
        (lambda: ag.channel_mix(np.zeros((2, 3)), np.zeros(3)), DimensionError,
         "channel_mix: weight must be 2-D, got (3,)"),
        (lambda: ag.channel_mix(np.zeros((2, 3)), np.zeros((4, 3)), np.zeros(3)),
         DimensionError, "channel_mix: bias shape (3,) != (4,)"),
    ], ids=["empty stack", "ragged stack", "empty concat", "1-D weight",
            "short bias"])
    def test_bad_arguments_are_refused(self, call, error, named):
        with pytest.raises(error, match=re.escape(named)):
            call()


class TestBackwardConsumesGraph:
    def test_second_backward_raises(self):
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = ag.tsum(ag.mul(ops.tanh(w), w))
        loss.backward()
        first = w.grad.copy()
        with pytest.raises(UsageError, match="consumed"):
            loss.backward()
        np.testing.assert_array_equal(w.grad, first)

    def test_backward_through_a_consumed_subgraph_raises(self):
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        shared = ops.tanh(w)
        ag.tsum(shared).backward()
        with pytest.raises(UsageError, match="consumed"):
            ag.tsum(ag.mul(shared, 2.0)).backward()

    def test_interior_grads_freed_leaves_and_root_kept(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        hidden = ops.matmul(x, w)
        act = ops.sigmoid(hidden)
        loss = ag.tsum(act)
        loss.backward()
        s = act.data
        np.testing.assert_allclose(x.grad, (s * (1 - s)) @ w.data.T, atol=1e-12)
        np.testing.assert_allclose(w.grad, x.data.T @ (s * (1 - s)), atol=1e-12)
        np.testing.assert_array_equal(loss.grad, 1.0)
        for interior in (hidden, act):
            assert interior.grad is None
            assert interior._parents == ()


def test_every_primitive_has_a_caller_in_the_model():
    source = Path(model.__file__).read_text(encoding="utf-8")
    called = set(re.findall(r"\bag\.(\w+)\(", source))
    primitives = set(ag.__all__) - {"Tensor", "GRUParams", "as_tensor"}
    assert primitives <= called, sorted(primitives - called)
