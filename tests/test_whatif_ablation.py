"""What-if prediction under alternative plans and the six-row ablation
ladder on the synthetic set."""

import numpy as np
import pytest

from epg_mgcn.ablation import ABLATION_ROWS, ablation_configs, run_ablation
from epg_mgcn.errors import UsageError
from epg_mgcn.graphs import build_planning_graph
from epg_mgcn.model import ModelConfig, ModelParams, param_specs
from epg_mgcn.scene import ego_center
from epg_mgcn.synthetic import make_synthetic_dataset
from epg_mgcn.training import TrainConfig, train
from epg_mgcn.whatif import what_if


def full_config(**kw):
    defaults = dict(channels=6, t_obs_points=6, t_pred=6)
    defaults.update(kw)
    return ModelConfig(**defaults)


class TestWhatIf:
    def test_identical_plan_zero_divergence(self):
        sample = make_synthetic_dataset(1)[0]
        cfg = full_config()
        params = ModelParams.initialize(cfg, seed=1)
        base, (res,) = what_if(sample, {"same": sample.ego_plan.copy()},
                               params, cfg)
        np.testing.assert_array_equal(res.divergence, 0.0)
        assert res.max_coordinate_diff == 0.0
        np.testing.assert_array_equal(res.planning_column, base.planning_column)

    def test_cone_flip_matches_geometric_oracle(self):
        sample = make_synthetic_dataset(1)[0]
        cfg = full_config()
        params = ModelParams.initialize(cfg, seed=1)
        # rotate the plan endpoint far out of every agent's heading cone
        flipped = sample.ego_plan.copy()
        flipped[-1] = sample.observed[0, -1] + np.array([0.0, -40.0])
        base, (res,) = what_if(sample, {"swerve": flipped}, params, cfg)

        centered = ego_center(sample)
        variant = centered.copy()
        variant.ego_plan = flipped - centered.origin
        oracle_base = build_planning_graph(centered, cfg.beta_degrees)
        oracle_alt = build_planning_graph(variant, cfg.beta_degrees)
        np.testing.assert_array_equal(base.planning_column, oracle_base[:, 0])
        np.testing.assert_array_equal(res.planning_column, oracle_alt[:, 0])
        assert (oracle_base[:, 0] != oracle_alt[:, 0]).any()
        assert res.max_coordinate_diff > 1e-6

    def test_disabled_plan_paths_zero_divergence_exact(self):
        sample = make_synthetic_dataset(1)[0]
        cfg = full_config(enabled_graphs=("distance", "visibility", "category"),
                          planning_fusion_enabled=False)
        params = ModelParams.initialize(cfg, seed=2)
        plans = {
            "a": sample.ego_plan + np.array([5.0, 5.0]),
            "b": sample.ego_plan[::-1].copy(),
        }
        _, results = what_if(sample, plans, params, cfg)
        for res in results:
            np.testing.assert_array_equal(res.divergence, 0.0)
            assert res.max_coordinate_diff == 0.0

    def test_plan_length_mismatch_rejected(self):
        sample = make_synthetic_dataset(1)[0]
        cfg = full_config()
        params = ModelParams.initialize(cfg, seed=1)
        with pytest.raises(UsageError, match="shape"):
            what_if(sample, {"short": np.zeros((2, 2))}, params, cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_plan_rejected(self, bad):
        sample = make_synthetic_dataset(1)[0]
        cfg = full_config()
        params = ModelParams.initialize(cfg, seed=1)
        plan = sample.ego_plan.copy()
        plan[2, 1] = bad
        with pytest.raises(UsageError, match="plan 'hole' has a non-finite entry"):
            what_if(sample, {"ok": sample.ego_plan.copy(), "hole": plan},
                    params, cfg)


class TestAblation:
    def test_ladder_structure(self):
        configs = ablation_configs(full_config())
        assert [label for label, _ in configs] == ["A1", "A2", "A3", "A4", "A5", "A6"]
        a1 = configs[0][1]
        assert a1.enabled_graphs == ("distance",)
        assert not a1.planning_fusion_enabled
        assert not a1.category_specific_decoders
        a6 = configs[5][1]
        assert set(a6.enabled_graphs) == {"distance", "visibility", "planning",
                                          "category"}
        assert a6.planning_fusion_enabled and a6.category_specific_decoders

    def test_a1_registers_only_distance_branch(self):
        (_, a1), = ablation_configs(full_config())[:1]
        names = [n for n, _, _ in param_specs(a1)]
        branches = {n.split(".")[1] for n in names if n.startswith("branch.")}
        assert branches == {"distance"}
        assert not any(n.startswith("plan") for n in names)
        decoders = {n.split(".")[1] for n in names if n.startswith("decoder.")}
        assert decoders == {"shared"}

    def test_row_flags_match_checkmark_pattern(self):
        for (label, graphs, pgp, cs), (label2, cfg) in zip(
                ABLATION_ROWS, ablation_configs(full_config())):
            assert label == label2
            assert cfg.enabled_graphs == graphs
            assert cfg.planning_fusion_enabled == pgp
            assert cfg.category_specific_decoders == cs

    def test_smoke_run_emits_six_finite_rows(self):
        samples = make_synthetic_dataset(4)
        table = run_ablation(samples, full_config(),
                             TrainConfig(batch_size=4, max_epochs=2, seed=0))
        assert [r.label for r in table.rows] == ["A1", "A2", "A3", "A4", "A5", "A6"]
        for row in table.rows:
            assert row.error is None
            assert row.wsade is not None and np.isfinite(row.wsade)
        # parameter counts strictly increase as components are added
        counts = [r.parameter_count for r in table.rows]
        assert counts == sorted(counts) and len(set(counts)) >= 5
        text = table.format_table()
        assert "A6" in text
        lines = table.to_json_lines().splitlines()
        assert len(lines) == 6

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_failed_row_marked_and_ladder_continues(self):
        samples = make_synthetic_dataset(2)
        samples[0].future[1, 0, 0] = 1e200  # blows up every row's first loss
        table = run_ablation(samples, full_config(),
                             TrainConfig(batch_size=2, max_epochs=1, seed=0))
        assert len(table.rows) == 6
        assert all(r.wsade is None for r in table.rows)
        assert all(r.error and "NumericError" in r.error for r in table.rows)
