"""Prepared scenes: ``model.prepare`` is the one place a sample becomes
network input. ``forward`` on prepared scenes equals its public form (an
ego-centered sample with raw graphs) bitwise, a run normalizes each graph
once per sample (and a what-if call once more per further distinct plan),
and ``predict`` and ``evaluate`` record no backward tape."""

import dataclasses

import numpy as np
import pytest

from conftest import random_scene
from epg_mgcn import metrics, model
from epg_mgcn.errors import UsageError
from epg_mgcn.graphs import build_adjacency
from epg_mgcn.model import ModelConfig, ModelParams, forward, prediction_loss, prepare
from epg_mgcn.scene import ego_center
from epg_mgcn.synthetic import make_synthetic_dataset
from epg_mgcn.training import TrainConfig, train
from epg_mgcn.whatif import what_if

CONFIG = ModelConfig(channels=8, t_obs_points=4, t_pred=5)
FIELDS = ("observed", "future", "ego_plan")


def cast(sample, dtype):
    return dataclasses.replace(
        sample, **{f: getattr(sample, f).astype(dtype) for f in FIELDS})


def rows_loss_grads(scenes, samples, params, adjacency=None):
    for t in params.tensors.values():
        t.zero_grad()
    out = forward(scenes, CONFIG, params, adjacency)
    loss, count = prediction_loss(out, samples, CONFIG)
    loss.backward()
    return out.data, loss.data, count, {n: t.grad.copy() for n, t in params.items()}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n_scenes", [1, 3, 8])
def test_prepared_scenes_equal_the_public_form_bitwise(n_scenes, dtype):
    rng = np.random.default_rng(70 + n_scenes)
    params = ModelParams.initialize(CONFIG, seed=n_scenes, dtype=dtype)
    raw = [random_scene(rng, n_max=8) for _ in range(n_scenes)]
    prepared = [prepare(s, CONFIG, dtype) for s in raw]
    centered = [ego_center(cast(s, dtype)) for s in raw]
    adjacency = [build_adjacency(s, CONFIG.d_d, CONFIG.beta_degrees)
                 for s in centered]

    rows, loss, count, grads = rows_loss_grads(
        prepared, [p.sample for p in prepared], params)
    want_rows, want_loss, want_count, want_grads = rows_loss_grads(
        centered, centered, params, adjacency)

    assert count == want_count > 0
    assert rows.tobytes() == want_rows.tobytes()
    assert loss.tobytes() == want_loss.tobytes()
    for name in params.names():
        assert grads[name].tobytes() == want_grads[name].tobytes(), name
        assert grads[name].dtype == dtype, name
    assert rows.dtype == loss.dtype == dtype
    for p, c in zip(prepared, centered):
        for f in FIELDS:
            assert getattr(p.sample, f).tobytes() == getattr(c, f).tobytes(), f
            assert getattr(p.sample, f).dtype == dtype, f
        assert list(p.normalized) == list(CONFIG.branch_order)
        assert all(m.dtype == dtype for m in p.normalized.values())


def test_prepare_leaves_the_sample_alone():
    sample = random_scene(np.random.default_rng(3), n_max=6)
    before = {f: getattr(sample, f).tobytes() for f in FIELDS}
    prepare(sample, CONFIG, np.float32)
    assert {f: getattr(sample, f).tobytes() for f in FIELDS} == before


def test_prepared_scenes_take_no_adjacency():
    sample = random_scene(np.random.default_rng(4), n_max=6)
    prepared = prepare(sample, CONFIG)
    params = ModelParams.initialize(CONFIG, seed=1)
    with pytest.raises(UsageError, match="carry their own graphs"):
        forward(prepared, CONFIG, params, prepared.adjacency)


@pytest.fixture
def normalize_calls(monkeypatch):
    calls = []
    original = model.normalize_adjacency

    def counted(e):
        calls.append(e.shape)
        return original(e)

    monkeypatch.setattr(model, "normalize_adjacency", counted)
    return calls


GRAPH_SETS = [("distance", "visibility", "planning", "category"),
              ("distance", "category")]


@pytest.mark.parametrize("graphs", GRAPH_SETS)
def test_train_normalizes_each_graph_once_per_sample(normalize_calls, graphs):
    samples = make_synthetic_dataset(5)
    config = ModelConfig(channels=6, t_obs_points=6, t_pred=6,
                         enabled_graphs=graphs)
    train(samples, config, TrainConfig(batch_size=2, max_epochs=3, seed=0))
    assert len(normalize_calls) == len(samples) * len(graphs)


@pytest.mark.parametrize("graphs", GRAPH_SETS)
def test_what_if_normalizes_only_the_planning_graph_per_plan(normalize_calls,
                                                           graphs):
    sample = make_synthetic_dataset(1)[0]
    config = ModelConfig(channels=6, t_obs_points=6, t_pred=6,
                         enabled_graphs=graphs)
    params = ModelParams.initialize(config, seed=1)
    plans = {"same": sample.ego_plan.copy(),
             "left": sample.ego_plan + np.array([0.0, 3.0]),
             "slow": sample.ego_plan * 0.5,
             "left_again": sample.ego_plan + np.array([0.0, 3.0])}
    base, alternatives = what_if(sample, plans, params, config)
    distinct = 3  # the base, "left" and "slow"
    g = len(graphs)
    assert len(normalize_calls) == (g - 1 + distinct if "planning" in graphs
                                    else g)
    assert len(alternatives) == len(plans)


def test_predict_and_evaluate_run_on_detached_parameters(monkeypatch):
    rng = np.random.default_rng(9)
    params = ModelParams.initialize(CONFIG, seed=9)
    scenes = [random_scene(rng, n_max=8) for _ in range(3)]
    # the taped single-scene pass on the ego-centered sample
    expected = [forward(ego_center(s), CONFIG, params).data for s in scenes]
    outputs = []

    def recording(original):
        def run(*args, **kwargs):
            outputs.append(original(*args, **kwargs))
            return outputs[-1]
        return run

    monkeypatch.setattr(model, "forward", recording(model.forward))
    monkeypatch.setattr(metrics, "forward", recording(metrics.forward))
    predictions = [model.predict(s, CONFIG, params) for s in scenes]
    metrics.evaluate(scenes, CONFIG, params)

    assert len(outputs) == 2 * len(scenes)
    assert [o.requires_grad for o in outputs] == [False] * len(outputs)
    for sample, want, got, out in zip(scenes, expected, predictions,
                                      outputs[len(scenes):]):
        assert got.tobytes() == (want + ego_center(sample).origin).tobytes()
        assert out.data.tobytes() == want.tobytes()
    for t in params.tensors.values():
        assert t.requires_grad and t.grad is None
