"""Displacement metrics against hand values and double-loop oracles; the
published weighted-score reproduction lives in the acceptance suite too."""

import dataclasses

import numpy as np
import pytest

from epg_mgcn.errors import DataError, DimensionError
from epg_mgcn.metrics import (
    CATEGORY_WEIGHTS,
    displacement_errors,
    evaluate,
    fde_at_horizons,
    weighted_score,
    weighted_scores,
)
from epg_mgcn.model import ModelConfig, ModelParams
from epg_mgcn.synthetic import make_synthetic_dataset


class TestDisplacementErrors:
    def test_perfect_prediction(self, rng):
        truth = rng.normal(size=(3, 5, 2))
        errs = displacement_errors(truth.copy(), truth)
        np.testing.assert_array_equal(errs.ade, 0.0)
        np.testing.assert_array_equal(errs.fde, 0.0)
        assert errs.valid.all()

    def test_constant_offset_three_four_five(self, rng):
        truth = rng.normal(size=(2, 4, 2))
        pred = truth + np.array([3.0, 4.0])
        errs = displacement_errors(pred, truth)
        np.testing.assert_allclose(errs.ade, 5.0)
        np.testing.assert_allclose(errs.fde, 5.0)

    def test_against_double_loop_oracle(self, rng):
        for _ in range(20):
            n, horizon = int(rng.integers(1, 6)), int(rng.integers(1, 7))
            pred = rng.normal(size=(n, horizon, 2))
            truth = rng.normal(size=(n, horizon, 2))
            mask = rng.random((n, horizon)) < 0.8
            errs = displacement_errors(pred, truth, mask)
            for i in range(n):
                frames = [t for t in range(horizon) if mask[i, t]]
                if not frames:
                    assert not errs.valid[i]
                    continue
                dists = [np.hypot(pred[i, t, 0] - truth[i, t, 0],
                                  pred[i, t, 1] - truth[i, t, 1])
                         for t in frames]
                np.testing.assert_allclose(errs.ade[i], np.mean(dists), atol=1e-12)
                np.testing.assert_allclose(errs.fde[i], dists[-1], atol=1e-12)

    def test_symmetry(self, rng):
        pred = rng.normal(size=(3, 4, 2))
        truth = rng.normal(size=(3, 4, 2))
        a = displacement_errors(pred, truth)
        b = displacement_errors(truth, pred)
        np.testing.assert_array_equal(a.ade, b.ade)
        np.testing.assert_array_equal(a.fde, b.fde)

    def test_zero_unmasked_frames_excluded(self, rng):
        pred = rng.normal(size=(2, 3, 2))
        truth = rng.normal(size=(2, 3, 2))
        mask = np.array([[True, True, True], [False, False, False]])
        errs = displacement_errors(pred, truth, mask)
        assert errs.valid.tolist() == [True, False]


class TestHorizonFde:
    def test_five_hertz_mapping(self, rng):
        # 5 Hz, 25 future frames: second k maps to 1-based frame 5k
        pred = rng.normal(size=(1, 25, 2))
        truth = pred + np.array([1.0, 0.0])
        mask = np.ones((1, 25), dtype=bool)
        out = fde_at_horizons(pred, truth, mask, frame_rate=5.0)
        assert sorted(out) == [1, 2, 3, 4, 5]
        for k in out:
            np.testing.assert_allclose(out[k], 1.0)

    def test_two_hertz_mapping(self, rng):
        pred = rng.normal(size=(1, 6, 2))
        truth = pred.copy()
        truth[0, 1] += [0.0, 2.0]  # frame index 1 == round(1 s * 2 Hz) 1-based 2
        out = fde_at_horizons(pred, truth, np.ones((1, 6), bool), frame_rate=2.0)
        assert sorted(out) == [1, 2, 3]
        np.testing.assert_allclose(out[1][0], 2.0)
        np.testing.assert_allclose(out[2][0], 0.0)


class TestWeightedScores:
    def test_published_row_reproduction(self):
        wsade, wsfde = weighted_scores(
            {"vehicle": 1.58, "pedestrian": 0.62, "bicyclist": 1.29},
            {"vehicle": 2.65, "pedestrian": 1.01, "bicyclist": 2.09},
        )
        assert abs(wsade - 0.96) < 0.005
        assert abs(wsfde - 1.58) < 0.005

    def test_weights_sum_to_one(self):
        assert sum(CATEGORY_WEIGHTS.values()) == pytest.approx(1.0)
        e = 1.7
        assert weighted_score({c: e for c in CATEGORY_WEIGHTS}) == pytest.approx(e)

    def test_linearity(self, rng):
        vals = {c: float(v) for c, v in
                zip(CATEGORY_WEIGHTS, rng.uniform(0.5, 3.0, size=3))}
        s = 2.75
        scaled = {c: v * s for c, v in vals.items()}
        assert weighted_score(scaled) == pytest.approx(s * weighted_score(vals))

    def test_missing_category_names_it(self):
        with pytest.raises(DataError, match="bicyclist"):
            weighted_score({"vehicle": 1.0, "pedestrian": 1.0})


class TestEvaluate:
    def test_synthetic_report_structure(self):
        samples = make_synthetic_dataset(3)
        cfg = ModelConfig(channels=6, t_obs_points=6, t_pred=6)
        params = ModelParams.initialize(cfg, seed=0)
        report = evaluate(samples, cfg, params)
        assert report.sample_count == 3
        assert report.agent_count == 9  # 3 supervised agents per sample
        assert set(report.ade_by_category) == {"vehicle", "pedestrian", "bicyclist"}
        assert report.wsade is not None and report.wsade > 0
        assert report.wsfde >= 0
        assert sorted(report.fde_at_seconds) == [1, 2, 3]
        (_, loaded), = [(None, report.to_json())]
        assert "wsade" in loaded

    def test_vehicle_only_skips_weighted(self):
        samples = make_synthetic_dataset(2)
        for s in samples:
            s.categories = ["vehicle"] * s.n_agents
        cfg = ModelConfig(channels=6, t_obs_points=6, t_pred=6,
                          categories_decoded=("vehicle",))
        params = ModelParams.initialize(cfg, seed=0)
        report = evaluate(samples, cfg, params)
        assert report.wsade is None
        assert report.overall_ade > 0

    def test_partial_future_agents_counted_excluded(self):
        samples = make_synthetic_dataset(2)
        samples[0].fut_mask[2, -1] = False  # pedestrian future incomplete
        cfg = ModelConfig(channels=6, t_obs_points=6, t_pred=6)
        params = ModelParams.initialize(cfg, seed=0)
        report = evaluate(samples, cfg, params)
        assert report.excluded_count == 1
        assert report.agent_count == 5

    def test_wrong_observed_length_names_the_sample(self):
        samples = make_synthetic_dataset(3)
        short = samples[1]
        samples[1] = dataclasses.replace(short, observed=short.observed[:, 2:],
                                         obs_mask=short.obs_mask[:, 2:])
        cfg = ModelConfig(channels=6, t_obs_points=6, t_pred=6)
        params = ModelParams.initialize(cfg, seed=0)
        with pytest.raises(DimensionError, match=(
                "sample 1: sample has 4 observed points, config expects 6")):
            evaluate(samples, cfg, params)
