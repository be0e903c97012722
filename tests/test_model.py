"""Network pieces against hand computations and oracles, structural
properties (permutation equivariance, plan sensitivity, decoder isolation,
ablation parameter sets), and the parameter checkpoint."""

import dataclasses
import json
import re

import numpy as np
import pytest

import golden_model
from conftest import make_sample, random_scene, without_agents
from epg_mgcn import autograd as ag
from epg_mgcn.autograd import Tensor
from epg_mgcn.errors import (DataError, DimensionError, FormatError, RoutingError,
                             UsageError)
from epg_mgcn.gradcheck import finite_diff_check
from epg_mgcn.metrics import evaluate
from epg_mgcn.graphs import GRAPH_NAMES, build_adjacency
from epg_mgcn.model import (
    ModelConfig,
    ModelParams,
    cs_gru_decode,
    embed_inputs,
    encode_plan,
    forward,
    fuse_graph_features,
    fuse_plan_features,
    graph_conv_block,
    load_params,
    param_specs,
    predict,
    prediction_loss,
    prepare,
    replan,
    save_params,
    supervised_mask,
)
from epg_mgcn.scene import ego_center
from epg_mgcn.synthetic import make_synthetic_dataset
from epg_mgcn.whatif import what_if


def tiny_config(**kw):
    defaults = dict(channels=4, t_obs_points=4, t_pred=3,
                    categories_decoded=("vehicle", "pedestrian"))
    defaults.update(kw)
    return ModelConfig(**defaults)


def tiny_sample(rng, n=3, t_obs=4, t_pred=3):
    s = random_scene(rng, n_max=n, t_obs=t_obs, t_pred=t_pred, degenerate=False)
    while s.n_agents != n:
        s = random_scene(rng, n_max=n, t_obs=t_obs, t_pred=t_pred, degenerate=False)
    s.categories = (["vehicle", "pedestrian"] * n)[:n]
    return ego_center(s)


def np_gru(x, h, p, prefix, params):
    """Numpy reference for one GRU step (same storage convention)."""
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))
    w = lambda k: params[f"{prefix}.{k}"].data
    z = sig(x @ w("w_z") + h @ w("u_z") + w("b_z"))
    r = sig(x @ w("w_r") + h @ w("u_r") + w("b_r"))
    n = np.tanh(x @ w("w_h") + (r * h) @ w("u_h") + w("b_h"))
    return (1 - z) * h + z * n


class TestModelConfig:
    @pytest.mark.parametrize("field, names, repeated", [
        ("categories_decoded", ("vehicle", "vehicle"), "vehicle"),
        ("enabled_graphs", ("distance", "planning", "distance"), "distance"),
    ])
    def test_repeated_name_is_refused(self, field, names, repeated):
        with pytest.raises(UsageError, match=f"{field} repeats '{repeated}'"):
            ModelConfig(**{field: names})
        with pytest.raises(UsageError, match=f"{field} repeats '{repeated}'"):
            ModelConfig(**{field: list(names)})


    @pytest.mark.parametrize("field, value, named", [
        ("enabled_graphs", (), "at least one graph must be enabled"),
        ("enabled_graphs", ("distance", "speed"), "unknown graph 'speed'"),
        ("categories_decoded", ("vehicle", "truck"), "unknown category 'truck'"),
        ("channels", 0, "channels and blocks_per_branch must be positive"),
        ("blocks_per_branch", 0, "channels and blocks_per_branch must be positive"),
        ("t_obs_points", 1, "t_obs_points >= 2 and t_pred >= 1 required"),
        ("t_pred", 0, "t_obs_points >= 2 and t_pred >= 1 required"),
    ])
    def test_out_of_range_field_is_refused(self, field, value, named):
        with pytest.raises(UsageError, match=re.escape(named)):
            ModelConfig(**{field: value})


class TestEmbedInputs:
    def test_zero_coords_zero_bias(self, rng):
        cfg = tiny_config()
        params = ModelParams.initialize(cfg, seed=1)
        params["embed.bias"].data[:] = 0.0
        s = tiny_sample(rng)
        s.observed[:] = 0.0
        out = embed_inputs(s, params, cfg)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_shape_contract(self, rng):
        cfg = ModelConfig(channels=8, t_obs_points=6, t_pred=3)
        params = ModelParams.initialize(cfg, seed=1)
        s = tiny_sample(rng, n=3, t_obs=6)
        assert embed_inputs(s, params, cfg).shape == (3, 6, 8)

    def test_linearity_with_zero_bias(self, rng):
        cfg = tiny_config()
        params = ModelParams.initialize(cfg, seed=2)
        params["embed.bias"].data[:] = 0.0
        s = tiny_sample(rng)
        doubled = s.copy()
        doubled.observed *= 2.0
        one = embed_inputs(s, params, cfg).data
        two = embed_inputs(doubled, params, cfg).data
        np.testing.assert_allclose(two, 2 * one, atol=1e-12)

    def test_masked_frames_zero(self, rng):
        cfg = tiny_config()
        params = ModelParams.initialize(cfg, seed=3)
        s = tiny_sample(rng)
        s.obs_mask[1, 0] = False
        out = embed_inputs(s, params, cfg)
        np.testing.assert_array_equal(out.data[1, 0, :], 0.0)


class TestGraphConvBlock:
    def test_identity_everything_gives_relu(self, rng):
        c = 3
        z = Tensor(rng.normal(size=(2, 4, c)))
        w = Tensor(np.eye(c))
        kernel = np.zeros((c, c, 3))
        for i in range(c):
            kernel[i, i, 1] = 1.0
        out = graph_conv_block(z, np.eye(2), w, Tensor(kernel))
        np.testing.assert_allclose(out.data, np.maximum(z.data, 0), atol=1e-15)

    def test_zero_in_zero_out(self, rng):
        c = 3
        z = Tensor(np.zeros((2, 4, c)))
        w = Tensor(rng.normal(size=(c, c)))
        kernel = Tensor(rng.normal(size=(c, c, 3)))
        out = graph_conv_block(z, np.eye(2) * 0.5 + 0.25, w, kernel)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_single_frame_hand_example(self, rng):
        # N=2, one frame: temporal conv reduces to its center tap
        c = 2
        z_np = rng.normal(size=(2, 1, c))
        adj = np.array([[0.6, 0.3], [0.4, 0.7]])
        w_np = rng.normal(size=(c, c))
        kernel_np = rng.normal(size=(c, c, 3))
        out = graph_conv_block(Tensor(z_np), adj, Tensor(w_np), Tensor(kernel_np))
        spatial = adj @ z_np[:, 0, :]           # (N, C)
        act = np.maximum(spatial @ w_np.T, 0)   # channel_mix applies W rows
        hand = act @ kernel_np[:, :, 1].T       # center tap only
        np.testing.assert_allclose(out.data[:, 0, :], hand, atol=1e-12)


class TestFuseGraphFeatures:
    def test_single_branch_identity(self, rng):
        cfg = tiny_config(enabled_graphs=("distance",))
        params = ModelParams.initialize(cfg, seed=4)
        params["graph_fusion.weight"].data[:] = 1.0
        params["graph_fusion.bias"].data[:] = 0.0
        f = Tensor(rng.normal(size=(3, 4, 5)))
        out = fuse_graph_features([f], params)
        np.testing.assert_allclose(out.data, np.maximum(f.data, 0), atol=1e-15)

    def test_convex_combination_of_equal_branches(self, rng):
        cfg = tiny_config()
        params = ModelParams.initialize(cfg, seed=5)
        params["graph_fusion.weight"].data[:] = 0.25
        params["graph_fusion.bias"].data[:] = 0.0
        f = Tensor(rng.normal(size=(3, 4, 5)))
        out = fuse_graph_features([f, f, f, f], params)
        np.testing.assert_allclose(out.data, np.maximum(f.data, 0), atol=1e-12)

    def test_against_per_position_oracle(self, rng):
        cfg = tiny_config()
        params = ModelParams.initialize(cfg, seed=6)
        stack = rng.normal(size=(4, 2, 3, 4))
        out = fuse_graph_features([Tensor(x) for x in stack], params)
        w = params["graph_fusion.weight"].data[0]
        b = params["graph_fusion.bias"].data[0]
        expected = np.maximum(np.einsum("s,snct->nct", w, stack) + b, 0)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


class TestEncodePlan:
    def test_zero_params_zero_state(self):
        cfg = tiny_config()
        params = ModelParams.initialize(cfg, seed=7)
        for name in params.names():
            if name.startswith("plan."):
                params[name].data[:] = 0.0
        out = encode_plan(np.ones((5, 2)), params, cfg)
        np.testing.assert_array_equal(out.data, np.zeros(cfg.channels))

    def test_output_length_independent_of_horizon(self, rng):
        cfg = tiny_config()
        params = ModelParams.initialize(cfg, seed=8)
        for t_pred in (1, 3, 9):
            out = encode_plan(rng.normal(size=(t_pred, 2)), params, cfg)
            assert out.shape == (cfg.channels,)

    def test_two_step_manual_unroll(self, rng):
        cfg = tiny_config()
        params = ModelParams.initialize(cfg, seed=9)
        plan = rng.normal(size=(2, 2))
        out = encode_plan(plan, params, cfg)
        emb = plan @ params["plan.embed.weight"].data.T + params["plan.embed.bias"].data
        h = np.zeros(cfg.channels)
        h = np_gru(emb[0], h, None, "plan.gru", params)
        h = np_gru(emb[1], h, None, "plan.gru", params)
        np.testing.assert_allclose(out.data, h, atol=1e-12)


class TestFusePlanFeatures:
    def test_weights_select_graph_side(self, rng):
        cfg = tiny_config()
        params = ModelParams.initialize(cfg, seed=10)
        params["plan_fusion.weight"].data[:] = [[1.0, 0.0]]
        params["plan_fusion.bias"].data[:] = 0.0
        f = Tensor(rng.normal(size=(3, 5, 4)))
        enc = Tensor(rng.normal(size=4))
        out = fuse_plan_features(f, enc, params, cfg)
        np.testing.assert_allclose(out.data, np.maximum(f.data, 0), atol=1e-15)

    def test_weights_select_plan_side_broadcast(self, rng):
        cfg = tiny_config()
        params = ModelParams.initialize(cfg, seed=11)
        params["plan_fusion.weight"].data[:] = [[0.0, 1.0]]
        params["plan_fusion.bias"].data[:] = 0.0
        f = Tensor(rng.normal(size=(3, 5, 4)))
        enc = Tensor(rng.normal(size=4))
        out = fuse_plan_features(f, enc, params, cfg)
        expected = np.maximum(enc.data, 0)
        for n in range(3):
            for t in range(5):
                np.testing.assert_allclose(out.data[n, t, :], expected, atol=1e-15)

    def test_against_broadcast_and_mix_oracle(self, rng):
        cfg = tiny_config()
        params = ModelParams.initialize(cfg, seed=12)
        f = rng.normal(size=(3, 5, 4))
        enc = rng.normal(size=4)
        out = fuse_plan_features(Tensor(f), Tensor(enc), params, cfg)
        w = params["plan_fusion.weight"].data[0]
        b = params["plan_fusion.bias"].data[0]
        expected = np.maximum(w[0] * f + w[1] * enc[None, None, :] + b, 0)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_disabled_is_parameter_free_relu(self, rng):
        cfg = tiny_config(planning_fusion_enabled=False)
        params = ModelParams.initialize(cfg, seed=13)
        assert not any(n.startswith("plan") for n in params.names())
        f = Tensor(rng.normal(size=(3, 4, 5)))
        out = fuse_plan_features(f, None, params, cfg)
        np.testing.assert_array_equal(out.data, np.maximum(f.data, 0))


def fusion_oracle(parts, weight, bias, g):
    """numpy closed form of ``relu(bias + sum_s weight[0, s] * part_s)``
    over broadcasting parts, in float64, and of the gradients of
    ``sum(out * g)``: the upstream ``d`` at the sum, which each part takes
    times its weight, and the weight's and the bias's gradients."""
    parts = [np.asarray(p, dtype=np.float64) for p in parts]
    w = np.asarray(weight, dtype=np.float64)[0]
    pre = np.asarray(bias, dtype=np.float64)[0] + sum(
        ws * p for ws, p in zip(w, parts))
    d = np.asarray(g, dtype=np.float64) * (pre > 0)
    grad_w = np.array([[np.sum(d * p) for p in parts]])
    return np.maximum(pre, 0), d, w, grad_w, np.array([d.sum()])


class TestFusionGradientOracle:
    """Both fusions' outputs and every gradient against
    :func:`fusion_oracle`: within 1e-12 of the largest magnitude in float64,
    and a float32 run stays float32."""

    @staticmethod
    def make(graphs, dtype, seed):
        cfg = tiny_config(enabled_graphs=graphs)
        params = ModelParams.initialize(cfg, seed=seed, dtype=dtype)
        rng = np.random.default_rng(seed)
        for name in ("graph_fusion", "plan_fusion"):
            weight = params[f"{name}.weight"].data
            weight[:] = rng.normal(size=weight.shape)
            params[f"{name}.bias"].data[:] = 0.1 * rng.normal()

        def leaf(*shape):
            return Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)

        return cfg, params, leaf, rng.normal(size=(5, 4, cfg.channels)).astype(dtype)

    @staticmethod
    def check(cases, d, dtype):
        assert 0.2 < np.mean(d != 0) < 0.8  # the ReLU passes part of the sum
        for name, a, e in cases:
            assert a.dtype == dtype, name
            assert a.shape == np.shape(e), name
            assert_rel_close(a, e, rel=1e-12 if dtype == np.float64 else 1e-5)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("graphs", [GRAPH_NAMES, ("distance",)])
    def test_graph_fusion(self, graphs, dtype):
        cfg, params, leaf, g = self.make(graphs, dtype, seed=len(graphs))
        parts = [leaf(5, 4, cfg.channels) for _ in graphs]
        out = fuse_graph_features(parts, params)
        ag.tsum(ag.mul(out, g)).backward()
        weight, bias = params["graph_fusion.weight"], params["graph_fusion.bias"]
        want, d, w, grad_w, grad_b = fusion_oracle(
            [p.data for p in parts], weight.data, bias.data, g)
        self.check([("out", out.data, want), ("weight", weight.grad, grad_w),
                    ("bias", bias.grad, grad_b)]
                   + [(f"part {s}", p.grad, w[s] * d) for s, p in enumerate(parts)],
                   d, dtype)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("graphs", [GRAPH_NAMES, ("distance",)])
    @pytest.mark.parametrize("per_agent", [True, False])
    def test_plan_fusion(self, graphs, per_agent, dtype):
        cfg, params, leaf, g = self.make(graphs, dtype, seed=7 + per_agent)
        f = leaf(5, 4, cfg.channels)
        enc = leaf(5, cfg.channels) if per_agent else leaf(cfg.channels)
        out = fuse_plan_features(f, enc, params, cfg)
        ag.tsum(ag.mul(out, g)).backward()
        weight, bias = params["plan_fusion.weight"], params["plan_fusion.bias"]
        tiled = enc.data[:, None, :] if per_agent else enc.data[None, None, :]
        want, d, w, grad_w, grad_b = fusion_oracle(
            [f.data, tiled], weight.data, bias.data, g)
        grad_enc = w[1] * (d.sum(axis=1) if per_agent else d.sum(axis=(0, 1)))
        self.check([("out", out.data, want), ("weight", weight.grad, grad_w),
                    ("bias", bias.grad, grad_b), ("graph features", f.grad, w[0] * d),
                    ("plan encoding", enc.grad, grad_enc)], d, dtype)


class TestDecode:
    def test_zero_params_repeat_current_position(self, rng):
        cfg = tiny_config()
        params = ModelParams.initialize(cfg, seed=14)
        for name in params.names():
            if name.startswith("decoder."):
                params[name].data[:] = 0.0
        s = tiny_sample(rng)
        f = Tensor(rng.normal(size=(s.n_agents, cfg.t_obs_points, cfg.channels)))
        out = cs_gru_decode(f, s, params, cfg)
        assert out.shape == (s.n_agents, cfg.t_pred, 2)
        for i in range(s.n_agents):
            for k in range(cfg.t_pred):
                np.testing.assert_array_equal(out.data[i, k], s.observed[i, -1])

    def test_single_agent_manual_unroll(self, rng):
        cfg = ModelConfig(channels=4, t_obs_points=3, t_pred=2,
                          categories_decoded=("vehicle",))
        params = ModelParams.initialize(cfg, seed=15)
        s = make_sample(rng.normal(size=(1, 3, 2)), ["vehicle"], t_pred=2)
        f_np = rng.normal(size=(1, 3, 4))
        out = cs_gru_decode(Tensor(f_np), s, params, cfg)

        h = np.zeros(4)
        for t in range(3):
            h = np_gru(f_np[0, t, :], h, None, "decoder.vehicle.enc", params)
        pos = s.observed[0, -1].copy()
        expected = []
        pe_w = params["decoder.vehicle.pos_embed.weight"].data
        pe_b = params["decoder.vehicle.pos_embed.bias"].data
        out_w = params["decoder.vehicle.out.weight"].data
        out_b = params["decoder.vehicle.out.bias"].data
        for _ in range(2):
            inp = pos @ pe_w.T + pe_b
            h = np_gru(inp, h, None, "decoder.vehicle.dec", params)
            pos = pos + (h @ out_w.T + out_b)
            expected.append(pos.copy())
        np.testing.assert_allclose(out.data[0], expected, atol=1e-12)

    def test_routing_error_names_category(self, rng):
        cfg = tiny_config()
        params = ModelParams.initialize(cfg, seed=16)
        del params.tensors["decoder.pedestrian.out.weight"]
        s = tiny_sample(rng)
        f = Tensor(rng.normal(size=(s.n_agents, cfg.t_obs_points, cfg.channels)))
        with pytest.raises(RoutingError, match="pedestrian"):
            cs_gru_decode(f, s, params, cfg)

    def test_context_only_agents_stay_put(self, rng):
        cfg = tiny_config(categories_decoded=("vehicle",))
        params = ModelParams.initialize(cfg, seed=17)
        s = tiny_sample(rng)
        s.categories = ["vehicle", "others", "vehicle"]
        f = Tensor(rng.normal(size=(s.n_agents, cfg.t_obs_points, cfg.channels)))
        out = cs_gru_decode(f, s, params, cfg)
        for k in range(cfg.t_pred):
            np.testing.assert_array_equal(out.data[1, k], s.observed[1, -1])


class TestForward:
    def test_ego_only_has_no_supervised_targets(self, rng):
        cfg = tiny_config()
        params = ModelParams.initialize(cfg, seed=18)
        s = tiny_sample(rng, n=2)
        solo = s.copy()
        solo.categories = [s.categories[0]]
        solo.observed = s.observed[:1]
        solo.future = s.future[:1]
        solo.obs_mask = s.obs_mask[:1]
        solo.fut_mask = s.fut_mask[:1]
        solo.agent_ids = s.agent_ids[:1]
        out = forward(solo, cfg, params)
        assert out.shape == (1, cfg.t_pred, 2)
        assert supervised_mask(solo, cfg).sum() == 0
        loss, count = prediction_loss(out, solo, cfg)
        assert count == 0 and loss.item() == 0.0

    def test_duplicate_forward_bitwise_identical(self, rng):
        cfg = tiny_config()
        params = ModelParams.initialize(cfg, seed=19)
        s = tiny_sample(rng)
        a = forward(s, cfg, params)
        b = forward(s, cfg, params)
        assert a.data.tobytes() == b.data.tobytes()

    def test_ablation_removes_exactly_branch_params(self):
        full = tiny_config()
        without = tiny_config(enabled_graphs=("distance", "planning", "category"))
        full_names = {n for n, _, _ in param_specs(full)}
        sub_names = {n for n, _, _ in param_specs(without)}
        missing = full_names - sub_names
        assert missing == {n for n in full_names if n.startswith("branch.visibility.")}

    def test_distance_only_stack_depth_one(self, rng):
        cfg = tiny_config(enabled_graphs=("distance",),
                          planning_fusion_enabled=False,
                          category_specific_decoders=False)
        params = ModelParams.initialize(cfg, seed=20)
        assert params["graph_fusion.weight"].shape == (1, 1)
        s = tiny_sample(rng)
        out = forward(s, cfg, params)
        assert out.shape == (s.n_agents, cfg.t_pred, 2)

    def test_permutation_equivariance(self, rng):
        cfg = tiny_config()
        params = ModelParams.initialize(cfg, seed=21)
        s = tiny_sample(rng, n=5)
        perm = np.array([0, 3, 1, 4, 2])  # ego stays at index 0
        permuted = s.copy()
        permuted.categories = [s.categories[i] for i in perm]
        permuted.observed = s.observed[perm]
        permuted.future = s.future[perm]
        permuted.obs_mask = s.obs_mask[perm]
        permuted.fut_mask = s.fut_mask[perm]
        permuted.agent_ids = [s.agent_ids[i] for i in perm]
        base = forward(s, cfg, params)
        swapped = forward(permuted, cfg, params)
        np.testing.assert_array_equal(swapped.data, base.data[perm])

    def test_plan_sensitivity_and_insensitivity(self, rng):
        s = tiny_sample(rng, n=4)
        plan_a = s.ego_plan.copy()
        plan_b = plan_a @ np.array([[0.0, 1.0], [-1.0, 0.0]]) + 5.0

        cfg_on = tiny_config()
        params_on = ModelParams.initialize(cfg_on, seed=22)
        sa, sb = s.copy(), s.copy()
        sb.ego_plan = plan_b
        out_a = forward(sa, cfg_on, params_on)
        out_b = forward(sb, cfg_on, params_on)
        assert np.abs(out_a.data[1:] - out_b.data[1:]).max() > 1e-9

        cfg_off = tiny_config(
            enabled_graphs=("distance", "visibility", "category"),
            planning_fusion_enabled=False)
        params_off = ModelParams.initialize(cfg_off, seed=22)
        out_a = forward(sa, cfg_off, params_off)
        out_b = forward(sb, cfg_off, params_off)
        assert out_a.data.tobytes() == out_b.data.tobytes()

    def test_decoder_isolation_across_categories(self, rng):
        cfg = tiny_config()
        params = ModelParams.initialize(cfg, seed=23)
        s = tiny_sample(rng, n=4)  # vehicle, pedestrian, vehicle, pedestrian
        base = forward(s, cfg, params).data.copy()
        for name in params.names():
            if name.startswith("decoder.vehicle."):
                params[name].data += 0.37
        moved = forward(s, cfg, params).data
        ped_rows = [i for i, c in enumerate(s.categories) if c == "pedestrian"]
        veh_rows = [i for i, c in enumerate(s.categories) if c == "vehicle"]
        np.testing.assert_array_equal(moved[ped_rows], base[ped_rows])
        assert np.abs(moved[veh_rows] - base[veh_rows]).max() > 0


class TestSampleGate:
    """Every path from a Sample to network input checks it."""

    @pytest.mark.parametrize("entry", ["predict", "what_if", "forward"])
    def test_non_finite_neighbour_is_refused(self, entry):
        sample = make_synthetic_dataset(3)[1]
        sample.observed[2, 0, 0] = np.nan
        cfg = ModelConfig(channels=8, t_obs_points=6, t_pred=6)
        params = ModelParams.initialize(cfg, seed=0)
        run = {"predict": lambda: predict(sample, cfg, params),
               "what_if": lambda: what_if(sample, {"same": sample.ego_plan},
                                          params, cfg),
               "forward": lambda: forward(ego_center(sample), cfg, params)}
        with pytest.raises(DataError, match="non-finite coordinates"):
            run[entry]()

    @pytest.mark.parametrize("entry", ["prepare", "predict"])
    def test_sample_without_agents_is_refused(self, entry):
        sample = without_agents(make_synthetic_dataset(1)[0])
        cfg = ModelConfig(channels=8, t_obs_points=6, t_pred=6)
        params = ModelParams.initialize(cfg, seed=0)
        run = {"prepare": lambda: prepare(sample, cfg),
               "predict": lambda: predict(sample, cfg, params)}
        with pytest.raises(DataError, match="sample has no agents"):
            run[entry]()

    @pytest.mark.parametrize("shape", [(3, 2), (6, 1), (12,)])
    def test_replan_refuses_plan_of_wrong_shape(self, shape):
        cfg = ModelConfig(channels=8, t_obs_points=6, t_pred=6)
        base = prepare(make_synthetic_dataset(1)[0], cfg)
        with pytest.raises(UsageError, match=re.escape(
                f"plan has shape {shape}, expected (6, 2)")):
            replan(base, np.zeros(shape), cfg)

    def test_replan_refuses_non_finite_plan(self):
        sample = make_synthetic_dataset(1)[0]
        cfg = ModelConfig(channels=8, t_obs_points=6, t_pred=6)
        plan = sample.ego_plan.copy()
        plan[3, 0] = np.nan
        with pytest.raises(UsageError, match="plan has a non-finite entry"):
            replan(prepare(sample, cfg), plan, cfg)

    def test_raw_forward_checks_frame_counts(self, rng):
        cfg = tiny_config(t_obs_points=6)
        params = ModelParams.initialize(cfg, seed=0)
        with pytest.raises(DimensionError,
                           match="sample has 4 observed points, config expects 6"):
            forward(ego_center(tiny_sample(rng)), cfg, params)


class TestPredictionLoss:
    def test_perfect_prediction(self, rng):
        cfg = tiny_config()
        s = tiny_sample(rng)
        loss, count = prediction_loss(Tensor(s.future.copy()), s, cfg)
        assert count > 0
        assert loss.item() == 0.0

    def test_three_four_five(self, rng):
        s = make_sample(np.zeros((2, 2, 2)), ["vehicle", "pedestrian"], t_pred=1)
        s.observed[1, :, 0] = [4.0, 5.0]
        s.future = np.zeros((2, 1, 2))
        s.ego_plan = s.future[0].copy()
        pred = s.future.copy()
        pred[1, 0] = [3.0, 4.0]
        cfg = tiny_config(t_obs_points=2, t_pred=1)
        loss, count = prediction_loss(Tensor(pred), s, cfg)
        assert count == 1
        assert loss.item() == pytest.approx(25.0)

    def test_against_double_loop_oracle(self, rng):
        cfg = tiny_config()
        for _ in range(10):
            s = tiny_sample(rng, n=5)
            s.fut_mask[2, :] = [True, True, False]  # not fully observed
            pred = rng.normal(size=s.future.shape)
            loss, count = prediction_loss(Tensor(pred), s, cfg)
            sup = supervised_mask(s, cfg)
            total, terms = 0.0, 0
            for i in range(s.n_agents):
                if not sup[i]:
                    continue
                for t in range(s.t_pred):
                    if s.fut_mask[i, t]:
                        dx = pred[i, t, 0] - s.future[i, t, 0]
                        dy = pred[i, t, 1] - s.future[i, t, 1]
                        total += dx * dx + dy * dy
                        terms += 1
            assert count == terms
            np.testing.assert_allclose(loss.item(), total / max(terms, 1), atol=1e-12)


def per_sample_mean_loss(scenes, cfg, params):
    """The oracle for the batched loss: one forward pass per sample, the
    mean of the per-sample losses."""
    total, count = None, 0
    for s in scenes:
        loss, k = prediction_loss(forward(s, cfg, params), s, cfg)
        total = loss if total is None else ag.add(total, loss)
        count += k
    return ag.mul(total, 1.0 / len(scenes)), count


def grads_after(loss, params):
    for t in params.tensors.values():
        t.zero_grad()
    loss.backward()
    return {name: t.grad.copy() for name, t in params.items()}


def assert_rel_close(actual, expected, rel=1e-12):
    """Within ``rel`` of the largest magnitude in ``expected``."""
    np.testing.assert_allclose(actual, expected, rtol=rel,
                               atol=rel * np.abs(expected).max())


def batch_fixture(rng, n_scenes):
    """random_scene fixtures with masked and absent agents; the second scene
    has no supervised agent (every neighbor loses its last future frame)."""
    scenes = [ego_center(random_scene(rng, n_max=8)) for _ in range(n_scenes)]
    if n_scenes > 1:
        scenes[1].fut_mask[1:, -1] = False
    return scenes


BATCH_CONFIG = ModelConfig(channels=8, t_obs_points=4, t_pred=5)


class TestBatchedForward:
    @pytest.mark.parametrize("n_scenes", [1, 3, 8])
    def test_loss_and_gradients_match_per_sample_mean(self, n_scenes):
        rng = np.random.default_rng(40 + n_scenes)
        cfg = BATCH_CONFIG
        params = ModelParams.initialize(cfg, seed=n_scenes)
        scenes = batch_fixture(rng, n_scenes)
        if n_scenes > 1:  # the fixture holds what the oracle must cover
            assert supervised_mask(scenes[1], cfg).sum() == 0
            assert any((~s.obs_mask).any() for s in scenes)

        oracle, oracle_count = per_sample_mean_loss(scenes, cfg, params)
        oracle_value = oracle.item()
        expected = grads_after(oracle, params)
        loss, count = prediction_loss(forward(scenes, cfg, params), scenes, cfg)
        value = loss.item()
        actual = grads_after(loss, params)

        assert count == oracle_count > 0
        assert_rel_close(value, oracle_value)
        for name in params.names():
            assert_rel_close(actual[name], expected[name])

    def test_rows_follow_the_scenes(self, rng):
        cfg = BATCH_CONFIG
        params = ModelParams.initialize(cfg, seed=2)
        scenes = batch_fixture(rng, 4)
        out = forward(scenes, cfg, params).data
        assert out.shape == (sum(s.n_agents for s in scenes), cfg.t_pred, 2)
        lo = 0
        for s in scenes:
            assert_rel_close(out[lo:lo + s.n_agents], forward(s, cfg, params).data)
            lo += s.n_agents

    def test_float32_batch_stays_float32(self, rng):
        cfg = BATCH_CONFIG
        params = ModelParams.initialize(cfg, seed=3, dtype=np.float32)
        scenes = batch_fixture(rng, 3)
        for s in scenes:
            for f in ("observed", "future", "ego_plan"):
                setattr(s, f, getattr(s, f).astype(np.float32))
        out = forward(scenes, cfg, params)
        loss, _ = prediction_loss(out, scenes, cfg)
        loss.backward()
        assert out.data.dtype == np.float32
        assert loss.data.dtype == np.float32
        for name, t in params.items():
            assert t.grad.dtype == np.float32, name

    def test_detached_params_same_rows_no_tape(self, rng):
        cfg = BATCH_CONFIG
        params = ModelParams.initialize(cfg, seed=8)
        scenes = batch_fixture(rng, 3)
        detached = params.detached()
        out = forward(scenes, cfg, detached)
        assert out.data.tobytes() == forward(scenes, cfg, params).data.tobytes()
        assert not out.requires_grad and out._parents == ()
        for name, t in detached.items():
            assert t.data is params[name].data and not t.requires_grad

    def test_bad_batch_arguments(self, rng):
        cfg = BATCH_CONFIG
        params = ModelParams.initialize(cfg, seed=4)
        scenes = batch_fixture(rng, 2)
        adjacency = build_adjacency(scenes[0], cfg.d_d, cfg.beta_degrees)
        with pytest.raises(UsageError, match="1 adjacency sets for 2 samples"):
            forward(scenes, cfg, params, [adjacency])
        with pytest.raises(UsageError, match="at least one sample"):
            forward([], cfg, params)

    def test_batch_may_mix_prepared_and_raw_scenes(self, rng):
        cfg = BATCH_CONFIG
        params = ModelParams.initialize(cfg, seed=6)
        raw = [random_scene(rng, n_max=8) for _ in range(2)]
        prepared = [prepare(s, cfg) for s in raw]
        for order in ([0, 1], [1, 0]):
            mixed = [prepared[order[0]], ego_center(raw[order[1]])]
            expected = forward([prepared[i] for i in order], cfg, params).data
            assert forward(mixed, cfg, params).data.tobytes() == expected.tobytes()
            with pytest.raises(UsageError, match="carry their own graphs"):
                forward(mixed, cfg, params, [prepared[order[0]].adjacency, None])


class TestGoldenModel:
    """The whole network against ``tests/data/golden_model.npz``, recorded
    at commit fcc226d (the channel-major (N, C, T) features and the im2col
    temporal convolution) by ``PYTHONPATH=src:tests python
    tests/golden_model.py``: the rows, the loss and every parameter
    gradient of a batch of one and of three ``random_scene``s at C=8."""

    @pytest.fixture(scope="class")
    def golden(self):
        with np.load(golden_model.PATH) as archive:
            return dict(archive)

    @pytest.mark.parametrize("n_scenes", golden_model.SCENE_COUNTS)
    def test_float64_within_1e12(self, golden, n_scenes):
        got = golden_model.run_case(n_scenes)
        assert sorted(got) == sorted(k for k in golden if k.startswith(f"S{n_scenes}."))
        for key, actual in got.items():
            assert actual.shape == golden[key].shape, key
            assert_rel_close(actual, golden[key])

    def test_float32_stays_float32(self, golden):
        got = golden_model.run_case(3, np.float32)
        for key, actual in got.items():
            assert actual.dtype == np.float32, key
            assert_rel_close(actual, golden[key], rel=1e-4)


def degenerate_scene(case):
    """(sample, supervised agent-frames) for one degenerate scene shape."""
    t_obs, t_pred = BATCH_CONFIG.t_obs_points, BATCH_CONFIG.t_pred
    rng = np.random.default_rng(len(case))
    if case == "ego_alone":
        observed, categories = rng.normal(size=(1, t_obs, 2)), ["vehicle"]
    elif case == "only_others":
        observed, categories = rng.normal(size=(4, t_obs, 2)) * 5, ["others"] * 4
    elif case == "coincident":
        observed = rng.normal(size=(3, t_obs, 2)) * 5
        observed[2] = observed[1]
        categories = ["vehicle", "pedestrian", "pedestrian"]
    elif case == "n60":
        observed = rng.normal(size=(60, t_obs, 2)) * 10
        categories = [("vehicle", "pedestrian", "bicyclist", "others")[i % 4]
                      for i in range(60)]
    else:  # neighbors_absent_at_last_frame
        observed = rng.normal(size=(4, t_obs, 2)) * 5
        categories = ["vehicle", "vehicle", "pedestrian", "bicyclist"]
    sample = make_sample(observed, categories, t_pred=t_pred)
    if case == "neighbors_absent_at_last_frame":
        sample.obs_mask[1:, -1] = False
        sample.observed[1:, -1] = 0.0
    decodable = [c in BATCH_CONFIG.categories_decoded for c in categories[1:]]
    return ego_center(sample), t_pred * sum(decodable)


DEGENERATE_CASES = ["ego_alone", "only_others", "neighbors_absent_at_last_frame",
                    "coincident", "n60"]


@pytest.mark.filterwarnings("ignore:coincident agents")
class TestDegenerateScenes:
    @pytest.mark.parametrize("case", DEGENERATE_CASES)
    def test_alone(self, case):
        cfg = BATCH_CONFIG
        params = ModelParams.initialize(cfg, seed=5)
        sample, expected_count = degenerate_scene(case)
        out = forward(sample, cfg, params)
        assert out.shape == (sample.n_agents, cfg.t_pred, 2)
        assert np.isfinite(out.data).all()
        loss, count = prediction_loss(out, sample, cfg)
        assert np.isfinite(loss.item())
        assert count == expected_count
        if count == 0:
            assert loss.item() == 0.0

    @pytest.mark.parametrize("case", DEGENERATE_CASES)
    def test_in_a_batch(self, case):
        cfg = BATCH_CONFIG
        params = ModelParams.initialize(cfg, seed=6)
        rng = np.random.default_rng(7)
        sample, expected_count = degenerate_scene(case)
        scenes = [ego_center(random_scene(rng, n_max=8)), sample,
                  ego_center(random_scene(rng, n_max=8))]
        out = forward(scenes, cfg, params)
        assert np.isfinite(out.data).all()
        lo = 0
        for s in scenes:
            assert_rel_close(out.data[lo:lo + s.n_agents], forward(s, cfg, params).data)
            lo += s.n_agents
        loss, count = prediction_loss(out, scenes, cfg)
        assert np.isfinite(loss.item())
        assert count == expected_count + sum(
            prediction_loss(forward(s, cfg, params), s, cfg)[1]
            for s in (scenes[0], scenes[2]))


    @pytest.mark.parametrize("case", DEGENERATE_CASES)
    def test_evaluate_counts_exclusions(self, case):
        cfg = BATCH_CONFIG
        params = ModelParams.initialize(cfg, seed=9)
        sample, frames = degenerate_scene(case)
        decodable = sum(c in cfg.categories_decoded for c in sample.categories[1:])
        supervised = frames // cfg.t_pred
        report = evaluate([sample], cfg, params)
        assert (report.agent_count, report.excluded_count) == (
            supervised, decodable - supervised)
        sample.fut_mask[1:, -1] = False  # no neighbor keeps its whole future
        report = evaluate([sample], cfg, params)
        assert (report.agent_count, report.excluded_count) == (0, decodable)
        assert np.isfinite(report.overall_ade) and report.sample_count == 1


class TestEndToEndGradient:
    def test_toy_model_full_gradcheck(self):
        from conftest import GRADCHECK_PARAM_SEED, gradcheck_scene

        cfg = ModelConfig(channels=8, t_obs_points=6, t_pred=4,
                          categories_decoded=("vehicle", "pedestrian"))
        params = ModelParams.initialize(cfg, seed=GRADCHECK_PARAM_SEED)
        s = ego_center(gradcheck_scene())
        adjacency = build_adjacency(s, cfg.d_d, cfg.beta_degrees)

        def loss_fn():
            out = forward(s, cfg, params, adjacency)
            loss, _ = prediction_loss(out, s, cfg)
            return loss

        report = finite_diff_check(loss_fn, dict(params.items()),
                                   epsilon=1e-4, tolerance=1e-4)
        assert report.passed, report.summary()


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path, rng):
        cfg = tiny_config()
        params = ModelParams.initialize(cfg, seed=25)
        path = tmp_path / "params.npz"
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.names() == params.names()
        for name in params.names():
            assert loaded[name].data.tobytes() == params[name].data.tobytes()
        assert loaded.config == cfg

    def test_mismatched_config_names_parameter(self, tmp_path):
        cfg = tiny_config()
        params = ModelParams.initialize(cfg, seed=26)
        path = tmp_path / "params.npz"
        save_params(params, path)
        bigger = tiny_config(channels=8)
        with pytest.raises(FormatError, match="embed.weight"):
            load_params(path, expected_config=bigger)

    def test_missing_component_detected(self, tmp_path):
        cfg = tiny_config(planning_fusion_enabled=False)
        params = ModelParams.initialize(cfg, seed=27)
        path = tmp_path / "params.npz"
        save_params(params, path)
        with pytest.raises(FormatError, match="plan"):
            load_params(path, expected_config=tiny_config())

    def test_shape_neutral_config_mismatch_names_field(self, tmp_path):
        params = ModelParams.initialize(tiny_config(), seed=28)
        path = tmp_path / "params.npz"
        save_params(params, path)
        with pytest.raises(FormatError, match="'d_d' is 10.0, expected 12.5"):
            load_params(path, expected_config=tiny_config(d_d=12.5))
        assert load_params(path, expected_config=tiny_config()).config == tiny_config()

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        first = ModelParams.initialize(tiny_config(), seed=29)
        path = tmp_path / "params.npz"
        save_params(first, path)

        def savez_then_fail(file, **arrays):
            file.write(b"PK\x03\x04 truncated")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", savez_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_params(ModelParams.initialize(tiny_config(), seed=30), path)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["params.npz"]
        loaded = load_params(path)
        for name in first.names():
            assert loaded[name].data.tobytes() == first[name].data.tobytes()

    def test_writes_exactly_the_given_path(self, tmp_path):
        path = tmp_path / "params"
        save_params(ModelParams.initialize(tiny_config(), seed=31), path)
        assert [p.name for p in tmp_path.iterdir()] == ["params"]
        assert load_params(path).config == tiny_config()

    @pytest.mark.parametrize("content", [
        b"hello, not an archive\n",
        b"",
        "npy",
        "truncated",
    ])
    def test_non_archive_fails_naming_path(self, tmp_path, content):
        path = tmp_path / "bad.npz"
        if content == "npy":
            with open(path, "wb") as fh:
                np.save(fh, np.arange(3.0))
        elif content == "truncated":
            save_params(ModelParams.initialize(tiny_config(), seed=32), path)
            path.write_bytes(path.read_bytes()[:-40])
        else:
            path.write_bytes(content)
        with pytest.raises(FormatError, match=re.escape(f"{path} is not an npz archive")):
            load_params(path)

    def test_archive_without_metadata_rejected(self, tmp_path):
        params = ModelParams.initialize(tiny_config(), seed=36)
        path = tmp_path / "params.npz"
        np.savez(path, **{f"param.{name}": t.data for name, t in params.items()})
        with pytest.raises(FormatError, match=re.escape(
                f"{path} is not a checkpoint: missing or unreadable metadata")):
            load_params(path)

    def test_version_one_file_rejected_naming_version(self, tmp_path):
        params = ModelParams.initialize(tiny_config(), seed=33)
        path = tmp_path / "old.npz"
        meta = json.dumps({"checkpoint_version": 1,
                           "model_config": dataclasses.asdict(tiny_config())})
        np.savez(path, __meta__=np.array(meta),
                 **{name: t.data for name, t in params.items()})
        with pytest.raises(FormatError, match="unsupported checkpoint version 1 "):
            load_params(path)

    def test_unknown_stored_config_field_rejected(self, tmp_path):
        params = ModelParams.initialize(tiny_config(), seed=34)
        path = tmp_path / "params.npz"
        save_params(params, path)
        with np.load(path) as archive:
            arrays = dict(archive)
        meta = json.loads(str(arrays.pop("__meta__")))
        meta["model_config"]["chanels"] = 4
        np.savez(path, __meta__=np.array(json.dumps(meta)), **arrays)
        with pytest.raises(FormatError, match="unexpected keyword argument 'chanels'"):
            load_params(path)

    def test_unexpected_entry_rejected(self, tmp_path):
        params = ModelParams.initialize(tiny_config(), seed=35)
        path = tmp_path / "params.npz"
        save_params(params, path)
        with np.load(path) as archive:
            arrays = dict(archive)
        np.savez(path, **arrays, **{"param.stray": np.zeros(2)})
        with pytest.raises(FormatError, match="unexpected entry 'param.stray'"):
            load_params(path)
