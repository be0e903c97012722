"""The benchmark's plain-numpy reference (``benchmarks/reference.py``: its
own forward pass, loss, hand-written backward pass and Adam) is the
whole-model oracle. It covers the default ``ModelConfig`` in float64, here
at C=16, and every comparison is within 1e-12 of the largest magnitude of
the reference's array."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from conftest import random_scene
from epg_mgcn.model import ModelConfig, ModelParams, forward, prediction_loss, prepare
from epg_mgcn.optim import Adam
from epg_mgcn.training import TrainConfig, train
from epg_mgcn.whatif import what_if

REFERENCE = Path(__file__).resolve().parent.parent / "benchmarks" / "reference.py"
CONFIG = ModelConfig(channels=16)
SEED = 4


@pytest.fixture(scope="module")
def reference():
    spec = importlib.util.spec_from_file_location("benchmark_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def scenes():
    rng = np.random.default_rng(2020)
    return [random_scene(rng, n_max=12, t_obs=CONFIG.t_obs_points,
                         t_pred=CONFIG.t_pred, degenerate=k % 2 == 0)
            for k in range(30)]


def as_reference_scene(sample) -> dict:
    return {"observed": sample.observed, "future": sample.future,
            "plan": sample.ego_plan, "obs_mask": sample.obs_mask,
            "fut_mask": sample.fut_mask, "categories": sample.categories}


def assert_close(actual, expected, what):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape, what
    error = np.abs(actual - expected).max(initial=0.0)
    assert error <= 1e-12 * np.abs(expected).max(initial=0.0), (what, error)


def reference_batch(reference, scenes, p) -> tuple:
    """Rows, batch loss (the mean of the scenes' losses) and its gradient."""
    grads = {name: np.zeros_like(value) for name, value in p.items()}
    rows, total = [], 0.0
    for sample in scenes:
        centered = reference.center(as_reference_scene(sample))
        pred, cache = reference.forward(centered, p)
        loss, dpred = reference.loss_and_grad(pred, centered)
        reference.backward(centered, p, cache, dpred / len(scenes), grads)
        rows.append(pred)
        total += loss
    return np.concatenate(rows), total / len(scenes), grads


def compare_batch(reference, prepared, params, when):
    for t in params.tensors.values():
        t.zero_grad()
    rows = forward(prepared, CONFIG, params)
    loss, count = prediction_loss(rows, [p.sample for p in prepared], CONFIG)
    assert count > 0
    loss.backward()
    want_rows, want_loss, want_grads = reference_batch(
        reference, [p.sample for p in prepared],
        {name: t.data.copy() for name, t in params.items()})
    assert_close(rows.data, want_rows, f"rows {when}")
    assert_close(loss.item(), want_loss, f"loss {when}")
    for name, t in params.items():
        got = np.zeros_like(t.data) if t.grad is None else t.grad
        assert_close(got, want_grads[name], f"gradient of {name} {when}")


def test_rows_loss_and_gradients(reference, scenes):
    prepared = [prepare(s, CONFIG) for s in scenes]
    params = ModelParams.initialize(CONFIG, seed=SEED)
    optimizer = Adam(params.tensors, learning_rate=0.01)
    for step in range(4):
        compare_batch(reference, prepared, params, f"after {step} Adam steps")
        optimizer.step()


def test_what_if(reference, scenes):
    params = ModelParams.initialize(CONFIG, seed=SEED)
    p = {name: t.data for name, t in params.items()}
    for sample in scenes[:4]:
        plan = sample.ego_plan + sample.origin
        plans = {"shifted": plan + [2.0, -1.0], "stopped": np.repeat(plan[:1], len(plan), 0),
                 "recorded": plan.copy()}
        base, alternatives = what_if(sample, plans, params, CONFIG)
        want_base, want = reference.what_if(as_reference_scene(sample),
                                            list(plans.values()), p)
        assert_close(base.predictions, want_base, "base predictions")
        for alt, (column, divergence, shift, predictions) in zip(alternatives, want):
            assert_close(alt.planning_column, column, f"{alt.name} planning column")
            assert_close(alt.divergence, divergence, f"{alt.name} divergence")
            assert_close(alt.max_coordinate_diff, shift, f"{alt.name} largest shift")
            assert_close(alt.predictions, predictions, f"{alt.name} predictions")


def test_three_epoch_trace(reference, scenes):
    result = train(scenes[:16], CONFIG,
                   TrainConfig(batch_size=4, max_epochs=3, seed=SEED))
    want = reference.train_losses([as_reference_scene(s) for s in scenes[:16]],
                                  CONFIG.channels, SEED, 4, 3)
    assert_close(result.record.losses(), want, "loss trace")
