"""The finite-difference verifier itself: closed-form cases and its error
surface."""

import numpy as np
import pytest

from epg_mgcn import autograd as ag
from epg_mgcn.autograd import Tensor
from epg_mgcn.errors import NumericError, UsageError
from epg_mgcn.gradcheck import GradCheckReport, finite_diff_check


def test_sum_of_squares_tight_tolerance():
    w = Tensor(np.array([0.7, -1.3, 2.1]), requires_grad=True)
    report = finite_diff_check(lambda: ag.tsum(ag.mul(w, w)), {"w": w},
                               epsilon=1e-5, tolerance=1e-8)
    assert report.passed
    assert report.max_rel_error < 1e-8
    # analytic gradient is 2w
    np.testing.assert_allclose(w.grad, 2 * w.data, atol=1e-12)


def test_constant_function_passes():
    w = Tensor(np.ones(4), requires_grad=True)
    report = finite_diff_check(lambda: ag.tsum(ag.mul(w, 0.0)), {"w": w},
                               epsilon=1e-5, tolerance=1e-10)
    assert report.passed
    assert report.max_rel_error == 0.0


def test_detects_wrong_gradient():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)

    def bad_loss():
        out_data = float((w.data ** 3).sum())
        out = Tensor(out_data)
        out.requires_grad = True
        out._parents = (w,)
        out._backward = lambda g: w._accumulate(g * 2.0 * w.data)  # wrong: 2w not 3w^2
        return out

    report = finite_diff_check(bad_loss, {"w": w}, epsilon=1e-5, tolerance=1e-4)
    assert not report.passed


def test_non_finite_loss_names_parameter_index():
    w = Tensor(np.array([1.0, 1e-9]), requires_grad=True)

    def fragile():
        # 1/w[1] overflows to inf once w[1] is perturbed to a negative...
        # simpler: log of a value that goes negative under -epsilon
        if (w.data <= 0).any():
            return ag.tsum(Tensor(np.array(np.inf)))
        val = np.log(w.data).sum()
        out = Tensor(np.array(val))
        out.requires_grad = True
        out._parents = (w,)
        out._backward = lambda g: w._accumulate(g / w.data)
        return out

    with pytest.raises(NumericError, match=r"'w'\[1\]"):
        finite_diff_check(fragile, {"w": w}, epsilon=1e-5, tolerance=1e-4)


def test_non_finite_unperturbed_loss_is_refused():
    w = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(NumericError, match="not finite at the unperturbed point"):
        finite_diff_check(lambda: ag.tsum(ag.mul(w, np.inf)), {"w": w})


def test_parameter_without_gradient_is_named():
    w = Tensor(np.ones(2), requires_grad=True)
    unused = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(UsageError, match="parameter 'unused' received no gradient"):
        finite_diff_check(lambda: ag.tsum(ag.mul(w, w)), {"w": w, "unused": unused})


def test_summary_lists_parameters_worst_first():
    report = GradCheckReport(epsilon=1e-5, tolerance=1e-6,
                             per_parameter={"a": 1e-9, "b": 1e-3})
    assert report.summary() == ("gradient check: FAIL (max rel err 1.000e-03, "
                                "tol 1.0e-06)\n  1.000e-03  b\n  1.000e-09  a")


def test_requires_scalar_loss():
    w = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(UsageError, match="scalar"):
        finite_diff_check(lambda: ag.mul(w, w), {"w": w})


def test_restores_requires_grad_flags():
    w = Tensor(np.ones(2), requires_grad=True)
    frozen = Tensor(np.ones(2), requires_grad=True)
    finite_diff_check(lambda: ag.tsum(ag.mul(w, ag.mul(frozen, w))),
                      {"w": w, "frozen": frozen}, epsilon=1e-5, tolerance=1e-5)
    assert w.requires_grad and frozen.requires_grad
