"""Adam optimizer: first-step behavior, zero-gradient fixed point, and a
hand-rolled scalar trace."""

import numpy as np
import pytest

from epg_mgcn.autograd import Tensor
from epg_mgcn.errors import UsageError
from epg_mgcn.optim import Adam


def test_first_step_moves_by_lr_times_sign():
    rng = np.random.default_rng(0)
    p = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    before = p.data.copy()
    grad = rng.normal(size=(4, 3))
    grad[grad == 0] = 1.0
    opt = Adam({"p": p}, learning_rate=1e-3)
    p.grad = grad.copy()
    opt.step()
    delta = p.data - before
    np.testing.assert_allclose(np.abs(delta), 1e-3, atol=1e-6)
    np.testing.assert_array_equal(np.sign(delta), -np.sign(grad))


def test_zero_gradient_leaves_parameter_unchanged():
    p = Tensor([1.0, -2.0], requires_grad=True)
    opt = Adam({"p": p}, learning_rate=0.1)
    p.grad = np.zeros(2)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_zero_learning_rate_is_identity():
    rng = np.random.default_rng(1)
    p = Tensor(rng.normal(size=5), requires_grad=True)
    before = p.data.copy()
    opt = Adam({"p": p}, learning_rate=0.0)
    for _ in range(3):
        p.grad = rng.normal(size=5)
        opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_missing_grad_names_parameter():
    p = Tensor([1.0], requires_grad=True)
    q = Tensor([2.0], requires_grad=True)
    opt = Adam({"p": p, "q": q})
    p.grad = np.ones(1)
    with pytest.raises(UsageError, match="'q'"):
        opt.step()


def test_three_step_trace_on_quadratic():
    # f(w) = w^2 from w=1, lr=0.1; oracle computed with plain floats
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    w_ref, m, v = 1.0, 0.0, 0.0
    trace = []
    for t in range(1, 4):
        g = 2.0 * w_ref
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        w_ref = w_ref - lr * m_hat / (np.sqrt(v_hat) + eps)
        trace.append(w_ref)

    p = Tensor([1.0], requires_grad=True)
    opt = Adam({"w": p}, learning_rate=lr)
    for t in range(3):
        p.grad = 2.0 * p.data
        opt.step()
        np.testing.assert_allclose(p.data[0], trace[t], atol=1e-9, rtol=0)
    assert opt.step_count == 3
