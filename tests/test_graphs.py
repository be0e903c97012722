"""Graph builders against independent brute-force oracles, plus the
geometric invariances (translation/rotation) and normalization."""

import math

import numpy as np
import pytest

from conftest import make_sample, random_scene
from epg_mgcn.graphs import (
    COINCIDENT_CAP,
    MOTION_EPSILON,
    build_adjacency,
    build_category_graph,
    build_distance_graph,
    build_planning_graph,
    build_visibility_graph,
    motion_directions,
    normalize_adjacency,
)


# ---------------------------------------------------------------------------
# brute-force oracles (pure python double loops, independent arithmetic)
# ---------------------------------------------------------------------------


def _present(sample, i):
    return bool(sample.obs_mask[i, -1])


def _heading(sample, i):
    if not (sample.obs_mask[i, -1] and sample.obs_mask[i, -2]):
        return None
    dx = sample.observed[i, -1, 0] - sample.observed[i, -2, 0]
    dy = sample.observed[i, -1, 1] - sample.observed[i, -2, 1]
    if math.hypot(dx, dy) < MOTION_EPSILON:
        return None
    return dx, dy


def oracle_distance(sample, d_d):
    n = sample.n_agents
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j or not (_present(sample, i) and _present(sample, j)):
                continue
            d = math.hypot(
                sample.observed[i, -1, 0] - sample.observed[j, -1, 0],
                sample.observed[i, -1, 1] - sample.observed[j, -1, 1],
            )
            if d < 1e-9:
                out[i, j] = COINCIDENT_CAP
            elif d <= d_d:
                out[i, j] = 1.0 / d
    return out


def oracle_visibility(sample):
    n = sample.n_agents
    out = np.zeros((n, n))
    for i in range(n):
        h = _heading(sample, i)
        if h is None or not _present(sample, i):
            continue
        for j in range(n):
            if i == j or not _present(sample, j):
                continue
            rx = sample.observed[j, -1, 0] - sample.observed[i, -1, 0]
            ry = sample.observed[j, -1, 1] - sample.observed[i, -1, 1]
            d = math.hypot(rx, ry)
            if d < 1e-9:
                continue
            dot = h[0] * rx + h[1] * ry
            if dot > 0:
                cos_a = dot / (math.hypot(*h) * d)
                out[i, j] = cos_a / d
    return out


def oracle_planning(sample, beta_degrees):
    n = sample.n_agents
    out = np.zeros((n, n))
    ex, ey = sample.ego_plan[-1]
    cos_beta = math.cos(math.radians(beta_degrees))
    for i in range(1, n):
        h = _heading(sample, i)
        if h is None or not _present(sample, i):
            continue
        rx = ex - sample.observed[i, -1, 0]
        ry = ey - sample.observed[i, -1, 1]
        d = math.hypot(rx, ry)
        if d < 1e-9:
            continue
        cos_a = (h[0] * rx + h[1] * ry) / (math.hypot(*h) * d)
        if cos_a >= cos_beta:
            out[i, 0] = 1.0
    return out


def oracle_category(sample):
    n = sample.n_agents
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if (i != j and sample.categories[i] == sample.categories[j]
                    and _present(sample, i) and _present(sample, j)):
                out[i, j] = 1.0
    return out


# ---------------------------------------------------------------------------
# motion directions
# ---------------------------------------------------------------------------


class TestMotionDirections:
    def test_unit_motion(self):
        s = make_sample([[[0, 0], [1, 0]], [[0, 1], [0, 1]]],
                        ["vehicle", "vehicle"])
        md = motion_directions(s)
        np.testing.assert_array_equal(md.vectors[0], [1.0, 0.0])
        assert md.valid[0]
        assert not md.valid[1]  # stationary

    def test_hand_subtraction(self, rng):
        obs = rng.uniform(-5, 5, size=(3, 2, 2))
        s = make_sample(obs, ["vehicle"] * 3)
        md = motion_directions(s)
        np.testing.assert_array_equal(md.vectors, obs[:, 1] - obs[:, 0])


# ---------------------------------------------------------------------------
# single-builder hand examples
# ---------------------------------------------------------------------------


class TestDistanceGraph:
    def test_three_four_five(self):
        s = make_sample([[[0, 0], [0, 0]], [[3, 4], [3, 4]]], ["vehicle"] * 2)
        e = build_distance_graph(s, d_d=10.0)
        assert e[0, 1] == pytest.approx(0.2)
        assert e[1, 0] == pytest.approx(0.2)
        assert e[0, 0] == 0.0 and e[1, 1] == 0.0

    def test_beyond_threshold(self):
        s = make_sample([[[0, 0], [0, 0]], [[11, 0], [11, 0]]], ["vehicle"] * 2)
        e = build_distance_graph(s, d_d=10.0)
        assert e[0, 1] == 0.0

    def test_coincident_cap_warns(self):
        s = make_sample([[[0, 0], [0, 0]], [[0, 0], [0, 0]]], ["vehicle"] * 2)
        with pytest.warns(RuntimeWarning, match="coincident"):
            e = build_distance_graph(s, d_d=10.0)
        assert e[0, 1] == COINCIDENT_CAP

    def test_monotone_in_distance(self, rng):
        for _ in range(50):
            d1, d2 = sorted(rng.uniform(0.5, 9.0, size=2))
            s1 = make_sample([[[0, 0], [0, 0]], [[d1, 0], [d1, 0]]], ["vehicle"] * 2)
            s2 = make_sample([[[0, 0], [0, 0]], [[d2, 0], [d2, 0]]], ["vehicle"] * 2)
            e1 = build_distance_graph(s1, 10.0)
            e2 = build_distance_graph(s2, 10.0)
            assert e1[0, 1] >= e2[0, 1]


class TestVisibilityGraph:
    def _scene(self, others):
        # agent 0 at origin moving +x; others stationary at given positions
        obs = [[[-1, 0], [0, 0]]]
        for px, py in others:
            obs.append([[px, py], [px, py]])
        return make_sample(obs, ["vehicle"] * (1 + len(others)))

    def test_front_back_split(self):
        e = build_visibility_graph(self._scene([(2, 0), (-1, 0)]))
        assert e[0, 1] == pytest.approx(0.5)  # cos(0)/2
        assert e[0, 2] == 0.0  # behind

    def test_forty_five_degrees(self):
        e = build_visibility_graph(self._scene([(1, 1)]))
        assert e[0, 1] == pytest.approx(math.cos(math.radians(45)) / math.sqrt(2))
        assert e[0, 1] == pytest.approx(0.5)

    def test_stationary_row_zero(self):
        s = make_sample([[[0, 0], [0, 0]], [[-2, 0], [-1, 0]]], ["vehicle"] * 2)
        e = build_visibility_graph(s)
        assert (e[0] == 0).all()  # agent 0 has no heading
        assert e[1, 0] == pytest.approx(1.0)  # agent 1 faces agent 0, 1 m away

    def test_asymmetry(self):
        # both move +x, one ahead of the other: rear sees front only
        s = make_sample([[[-1, 0], [0, 0]], [[4, 0], [5, 0]]], ["vehicle"] * 2)
        e = build_visibility_graph(s)
        assert e[0, 1] > 0
        assert e[1, 0] == 0.0


class TestPlanningGraph:
    def _scene(self, plan_end):
        # ego at (10,5) irrelevant heading; agent 1 at origin moving +x
        obs = [[[9, 5], [10, 5]], [[-1, 0], [0, 0]]]
        s = make_sample(obs, ["vehicle", "vehicle"], t_pred=3)
        s.ego_plan = np.array([[10.0, 5.0], [10.0, 5.0], list(plan_end)])
        return s

    def test_aligned_plan(self):
        e = build_planning_graph(self._scene((10, 0)), beta_degrees=20.0)
        assert e[1, 0] == 1.0
        assert e[0, 0] == 0.0
        assert (e[:, 1:] == 0).all()

    def test_out_of_cone(self):
        e = build_planning_graph(self._scene((10, 10)), beta_degrees=20.0)
        assert e[1, 0] == 0.0

    def test_cone_boundary(self):
        # just inside / just outside the 20-degree cone
        inside = math.radians(19.99)
        outside = math.radians(20.01)
        e_in = build_planning_graph(
            self._scene((10 * math.cos(inside), 10 * math.sin(inside))), 20.0)
        e_out = build_planning_graph(
            self._scene((10 * math.cos(outside), 10 * math.sin(outside))), 20.0)
        assert e_in[1, 0] == 1.0
        assert e_out[1, 0] == 0.0

    def test_column_zero_only(self, rng):
        for _ in range(20):
            s = random_scene(rng, n_max=8)
            e = build_planning_graph(s, 20.0)
            assert (e[:, 1:] == 0).all()
            assert e[0, 0] == 0.0

    def test_agent_at_planned_endpoint_gets_no_edge(self):
        s = self._scene((0, 0))  # plan ends exactly on agent 1's position
        e = build_planning_graph(s, 20.0)
        assert e[1, 0] == 0.0


class TestCategoryGraph:
    def test_pedestrian_pair(self):
        s = make_sample([[[0, 0], [1, 0]], [[0, 1], [1, 1]]], ["pedestrian"] * 2)
        e = build_category_graph(s)
        assert e[0, 1] == 1.0 and e[1, 0] == 1.0

    def test_mixed_pair(self):
        s = make_sample([[[0, 0], [1, 0]], [[0, 1], [1, 1]]],
                        ["pedestrian", "vehicle"])
        e = build_category_graph(s)
        assert e[0, 1] == 0.0

    def test_mixed_scene_symmetric(self, rng):
        s = random_scene(rng, n_max=6, degenerate=False)
        e = build_category_graph(s)
        np.testing.assert_array_equal(e, oracle_category(s))
        np.testing.assert_array_equal(e, e.T)


# ---------------------------------------------------------------------------
# oracle equivalence & invariances on random scenes
# ---------------------------------------------------------------------------


class TestOracleEquivalence:
    def test_all_builders_match_oracles(self, rng):
        for _ in range(200):
            s = random_scene(rng)
            np.testing.assert_allclose(
                build_distance_graph(s, 10.0), oracle_distance(s, 10.0),
                atol=1e-12, rtol=0)
            np.testing.assert_allclose(
                build_visibility_graph(s), oracle_visibility(s),
                atol=1e-12, rtol=0)
            np.testing.assert_array_equal(
                build_planning_graph(s, 20.0), oracle_planning(s, 20.0))
            np.testing.assert_array_equal(
                build_category_graph(s), oracle_category(s))

    def test_visibility_front_back_partition(self, rng):
        for _ in range(50):
            s = random_scene(rng, degenerate=False)
            md = motion_directions(s)
            e = build_visibility_graph(s)
            for i in range(s.n_agents):
                if not md.valid[i]:
                    continue
                for j in range(s.n_agents):
                    if i == j:
                        continue
                    rel = s.observed[j, -1] - s.observed[i, -1]
                    dot = float(md.vectors[i] @ rel)
                    if dot > 0 and np.linalg.norm(rel) > 1e-9:
                        assert e[i, j] > 0
                    else:
                        assert e[i, j] == 0


def _transform_scene(sample, rotation=None, offset=None):
    out = sample.copy()
    if rotation is not None:
        out.observed = out.observed @ rotation.T
        out.future = out.future @ rotation.T
        out.ego_plan = out.ego_plan @ rotation.T
    if offset is not None:
        out.observed = out.observed + offset
        out.future = out.future + offset
        out.ego_plan = out.ego_plan + offset
    out.observed = out.observed * out.obs_mask[:, :, None]
    return out


class TestGeometricInvariance:
    def test_translation_exact(self, rng):
        # integer offsets on grid-quantized scenes: float64 subtraction
        # cancels exactly, so "exact" really means bitwise here
        for _ in range(30):
            s = random_scene(rng, degenerate=False)
            t = _transform_scene(s, offset=rng.integers(-50, 51, size=2).astype(float))
            a, b = build_adjacency(s), build_adjacency(t)
            np.testing.assert_array_equal(a.distance, b.distance)
            np.testing.assert_array_equal(a.visibility, b.visibility)
            np.testing.assert_array_equal(a.planning, b.planning)
            np.testing.assert_array_equal(a.category, b.category)

    def test_rotation_close(self, rng):
        for _ in range(30):
            s = random_scene(rng, degenerate=False)
            ang = rng.uniform(0, 2 * np.pi)
            rot = np.array([[np.cos(ang), -np.sin(ang)],
                            [np.sin(ang), np.cos(ang)]])
            t = _transform_scene(s, rotation=rot)
            a, b = build_adjacency(s), build_adjacency(t)
            np.testing.assert_allclose(a.distance, b.distance, atol=1e-9)
            np.testing.assert_allclose(a.visibility, b.visibility, atol=1e-9)
            np.testing.assert_allclose(a.planning, b.planning, atol=1e-9)
            np.testing.assert_array_equal(a.category, b.category)


class TestNormalization:
    def test_zero_matrix_gives_identity(self):
        np.testing.assert_array_equal(normalize_adjacency(np.zeros((4, 4))),
                                      np.eye(4))

    def test_hand_column(self):
        e = np.zeros((3, 3))
        e[0, 2] = 1.0
        e[1, 2] = 1.0
        out = normalize_adjacency(e)
        np.testing.assert_allclose(out[:, 2], [1 / 3, 1 / 3, 1 / 3])

    def test_random_columns_sum_to_one(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 12))
            e = rng.uniform(0, 5, size=(n, n))
            out = normalize_adjacency(e)
            np.testing.assert_allclose(out.sum(axis=0), np.ones(n),
                                       atol=1e-12, rtol=0)
