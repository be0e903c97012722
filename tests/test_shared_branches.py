"""Shared parts of a ``forward`` batch: each part runs once per distinct
input, told apart by identity. Scenes that ``replan`` makes share the
observed arrays and every plan-free graph with the scene they re-plan, so a
what-if call runs the plan-free branches on N rows and the planning branch
on k·N. The oracle is the single-pass ``forward``, which runs every part on
every scene of the batch; distinct scenes get its tape and rows bitwise."""

import numpy as np
import pytest

from conftest import random_scene
from epg_mgcn import autograd as ag
from epg_mgcn import model
from epg_mgcn.ablation import ablation_configs
from epg_mgcn.model import (ModelConfig, ModelParams, forward, prediction_loss,
                            prepare, replan)
from epg_mgcn.whatif import what_if

CONFIG = ModelConfig(channels=8, t_obs_points=4, t_pred=5)
CONFIGS = [CONFIG] + [cfg for _, cfg in ablation_configs(CONFIG)]
CONFIG_IDS = ["full"] + [label for label, _ in ablation_configs(CONFIG)]


def single_pass_forward(scenes, config, params):
    """``forward`` on prepared scenes with every part run on the whole batch."""
    samples = [p.sample for p in scenes]
    z = model.embed_inputs(samples, params, config)
    branch_outputs = [
        model._branch(z, [p.normalized[g] for p in scenes], params, g, config)
        for g in config.branch_order
    ]
    f_graphs = model.fuse_graph_features(branch_outputs, params)
    plan_encoding = None
    if config.planning_fusion_enabled:
        per_scene = model.encode_plan(
            np.stack([s.ego_plan for s in samples], axis=1), params, config)
        plan_encoding = per_scene[np.repeat(np.arange(len(samples)),
                                            [s.n_agents for s in samples])]
    f_fusion = model.fuse_plan_features(f_graphs, plan_encoding, params, config)
    return model.cs_gru_decode(f_fusion, samples, params, config)


def alternative_plans(sample, rng):
    """Three distinct alternatives in the original frame, one equal to the
    recorded plan and one repeating another."""
    plan = sample.ego_plan + sample.origin
    shifted = plan + np.round(rng.uniform(-6.0, 6.0, size=2) * 1024) / 1024
    return {"shift": shifted,
            "stretch": plan[0] + 1.5 * (plan - plan[0]),
            "stop": np.repeat(plan[:1], len(plan), axis=0),
            "same": plan.copy(),
            "shift_again": shifted.copy()}


def close(got, want):
    """Within 1e-12 of the largest magnitude of ``want``."""
    scale = max(float(np.abs(want).max()), 1.0)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("degenerate", [True, False])
@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_what_if_matches_the_single_pass_oracle(config, degenerate):
    rng = np.random.default_rng(500 + 2 * CONFIGS.index(config) + degenerate)
    params = ModelParams.initialize(config, seed=5)
    for _ in range(3):
        sample = random_scene(rng, n_max=12, degenerate=degenerate)
        plans = alternative_plans(sample, rng)
        base, alternatives = what_if(sample, plans, params, config)

        prepared = prepare(sample, config)
        want = {}
        for name, plan in [("base", sample.ego_plan + sample.origin),
                           *plans.items()]:
            scene = replan(prepared, plan, config) if want else prepared
            rows = single_pass_forward([scene], config, params.detached()).data
            want[name] = (rows + prepared.sample.origin,
                          scene.adjacency.planning[:, 0])
        for res in [base, *alternatives]:
            rows, column = want[res.name]
            close(res.predictions, rows)
            np.testing.assert_array_equal(res.planning_column, column)
            delta = rows - want["base"][0]
            close(res.divergence, np.sqrt((delta ** 2).sum(axis=(1, 2))))


@pytest.fixture
def block_rows(monkeypatch):
    """(graph, block, rows) of every ``graph_conv_block`` call."""
    calls = []
    original = model.graph_conv_block

    def counted(z, norm_adj, spatial_weight, temporal_kernel):
        _, graph, block, _, _ = spatial_weight.name.split(".")
        calls.append((graph, block, z.shape[0]))
        return original(z, norm_adj, spatial_weight, temporal_kernel)

    monkeypatch.setattr(model, "graph_conv_block", counted)
    return calls


def test_plan_free_branches_run_once_per_what_if_call(block_rows):
    sample = random_scene(np.random.default_rng(41), n_max=12)
    params = ModelParams.initialize(CONFIG, seed=1)
    plans = alternative_plans(sample, np.random.default_rng(42))
    what_if(sample, plans, params, CONFIG)
    n, k = sample.n_agents, 4  # the base, "shift", "stretch" and "stop"
    want = sorted((g, f"block{b}", k * n if g == "planning" else n)
                  for g in CONFIG.branch_order
                  for b in range(CONFIG.blocks_per_branch))
    assert sorted(block_rows) == want


def test_replan_shares_every_plan_free_input():
    sample = random_scene(np.random.default_rng(43), n_max=8)
    prepared = prepare(sample, CONFIG)
    other = replan(prepared, sample.ego_plan + sample.origin + 2.0, CONFIG)
    assert other.sample.observed is prepared.sample.observed
    assert other.sample.obs_mask is prepared.sample.obs_mask
    for g in CONFIG.branch_order:
        shared = other.normalized[g] is prepared.normalized[g]
        assert shared == (g != "planning"), g


def rows_loss_grads(run, scenes, params):
    for t in params.tensors.values():
        t.zero_grad()
    out = run(scenes, CONFIG, params)
    loss, _ = prediction_loss(out, [p.sample for p in scenes], CONFIG)
    nodes = len(ag._toposort(loss))
    loss.backward()
    grads = {n: t.grad.copy() for n, t in params.items()}
    return out.data, loss.data, grads, nodes


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_distinct_scenes_keep_the_single_pass_tape(dtype):
    rng = np.random.default_rng(44)
    params = ModelParams.initialize(CONFIG, seed=2, dtype=dtype)
    scenes = [prepare(random_scene(rng, n_max=8), CONFIG, dtype)
              for _ in range(3)]
    got = rows_loss_grads(forward, scenes, params)
    want = rows_loss_grads(single_pass_forward, scenes, params)
    assert got[3] == want[3]
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()
    for name in params.names():
        assert got[2][name].tobytes() == want[2][name].tobytes(), name


def test_shared_rows_carry_the_gradients_of_the_single_pass():
    rng = np.random.default_rng(45)
    params = ModelParams.initialize(CONFIG, seed=3)
    sample = random_scene(rng, n_max=8)
    base = prepare(sample, CONFIG)
    plans = alternative_plans(sample, rng)
    scenes = [base] + [replan(base, plans[name], CONFIG)
                       for name in ("shift", "stretch")]
    got = rows_loss_grads(forward, scenes, params)
    want = rows_loss_grads(single_pass_forward, scenes, params)
    close(got[0], want[0])
    close(got[1], want[1])
    for name in params.names():
        close(got[2][name], want[2][name])
