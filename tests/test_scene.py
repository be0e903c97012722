"""Table parsing, windowing against a brute-force enumerator, ego-centering,
and canonical round-trips."""

import dataclasses
import json
import re

import numpy as np
import pytest

from conftest import make_sample, random_scene, without_agents
from oracle_scene import window_samples_loop
from epg_mgcn.errors import DataError, FormatError, ParseError
from epg_mgcn.model import ModelConfig, ModelParams, predict, prepare
from epg_mgcn.scene import (
    CATEGORIES,
    FEET_TO_METERS,
    HIGHWAY_BAND_METERS,
    DatasetConfig,
    ego_center,
    load_trajectory_table,
    read_canonical,
    sample_from_line,
    sample_to_line,
    validate_sample,
    window_samples,
    write_canonical,
)
from epg_mgcn.synthetic import make_synthetic_dataset


def write_rows(path, rows):
    path.write_text("\n".join(" ".join(str(v) for v in row) for row in rows) + "\n")


class TestLoadApollo:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("")
        assert load_trajectory_table(p, "apollo_like") == []

    def test_basic_parse_and_category_map(self, tmp_path):
        p = tmp_path / "t.txt"
        write_rows(p, [
            (0, 7, 3, 1.0, 2.0),
            (1, 7, 3, 1.5, 2.0),
            (0, 2, 1, 0.0, 0.0),
            (1, 2, 1, 1.0, 0.0),
            (0, 9, 5, 4.0, 4.0),
        ])
        tracks = load_trajectory_table(p, "apollo_like")
        assert [t.agent_id for t in tracks] == [2, 7, 9]
        assert [t.category for t in tracks] == ["vehicle", "pedestrian", "others"]
        np.testing.assert_array_equal(tracks[0].positions, [[0, 0], [1, 0]])

    def test_comma_separated(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("0,1,2,3.5,4.5\n")
        tracks = load_trajectory_table(p, "apollo_like")
        assert tracks[0].category == "vehicle"
        np.testing.assert_array_equal(tracks[0].positions, [[3.5, 4.5]])

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 1 2 3.0 4.0\n0 2 xx 3.0 4.0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_trajectory_table(p, "apollo_like")

    def test_wrong_field_count(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 1 2 3.0\n")
        with pytest.raises(ParseError, match="line 1"):
            load_trajectory_table(p, "apollo_like")

    def test_duplicate_frame_rejected(self, tmp_path):
        p = tmp_path / "dup.txt"
        write_rows(p, [(0, 1, 2, 0, 0), (0, 1, 2, 1, 1)])
        with pytest.raises(DataError, match="duplicate"):
            load_trajectory_table(p, "apollo_like")

    def test_non_monotone_frames_rejected(self, tmp_path):
        p = tmp_path / "mono.txt"
        write_rows(p, [(5, 1, 2, 0, 0), (3, 1, 2, 1, 1)])
        with pytest.raises(DataError, match="non-monotone"):
            load_trajectory_table(p, "apollo_like")


class TestLoadNgsim:
    def test_downsample_keeps_even_frames(self, tmp_path):
        p = tmp_path / "n.txt"
        write_rows(p, [(1, f, 10.0 + f, 100.0, 3) for f in range(10)])
        tracks = load_trajectory_table(p, "ngsim_like")
        assert len(tracks) == 1
        np.testing.assert_array_equal(tracks[0].frames, [0, 1, 2, 3, 4])
        # retained positions come from source frames 0, 2, 4, 6, 8
        np.testing.assert_allclose(
            tracks[0].positions[:, 0],
            np.array([10.0, 12.0, 14.0, 16.0, 18.0]) * FEET_TO_METERS,
        )

    def test_feet_to_meters_hand_fixture(self, tmp_path):
        rows = [(1, 0, 12.5, 300.0, 2), (1, 2, 13.0, 310.0, 2),
                (2, 0, -4.0, 250.0, 3), (2, 2, -4.5, 262.0, 3),
                (2, 4, -5.0, 275.0, 3)]
        p = tmp_path / "n.txt"
        write_rows(p, rows)
        tracks = load_trajectory_table(p, "ngsim_like")
        hand = {
            (1, 0): (12.5 * 0.3048, 300.0 * 0.3048),
            (1, 1): (13.0 * 0.3048, 310.0 * 0.3048),
            (2, 0): (-4.0 * 0.3048, 250.0 * 0.3048),
            (2, 1): (-4.5 * 0.3048, 262.0 * 0.3048),
            (2, 2): (-5.0 * 0.3048, 275.0 * 0.3048),
        }
        for track in tracks:
            for frame, pos in zip(track.frames, track.positions):
                np.testing.assert_allclose(
                    pos, hand[(track.agent_id, int(frame))], atol=1e-9)

    def test_lane_ids_survive(self, tmp_path):
        p = tmp_path / "n.txt"
        write_rows(p, [(1, 0, 0, 0, 4), (1, 2, 0, 5, 5)])
        tracks = load_trajectory_table(p, "ngsim_like")
        np.testing.assert_array_equal(tracks[0].lanes, [4, 5])

    def test_downsample_halves_frame_count(self, tmp_path):
        for length in (1, 2, 7, 10, 13):
            p = tmp_path / f"n{length}.txt"
            write_rows(p, [(1, f, 0.0, float(f), 1) for f in range(length)])
            tracks = load_trajectory_table(p, "ngsim_like")
            kept = len(tracks[0].frames)
            assert abs(kept - length / 2) <= 1


def linear_tracks(specs, n_frames, make=None):
    """specs: (agent_id, category, start_xy, vel_xy[, lane]) tuples."""
    from epg_mgcn.scene import AgentTrack
    tracks = []
    for spec in specs:
        aid, cat, start, vel = spec[:4]
        lane = spec[4] if len(spec) > 4 else None
        frames = np.arange(n_frames)
        pos = np.asarray(start, float) + frames[:, None] * np.asarray(vel, float)
        lanes = None if lane is None else np.full(n_frames, lane, dtype=np.int64)
        tracks.append(AgentTrack(aid, cat, frames, pos, lanes))
    return tracks


class TestWindowing:
    def config(self, **kw):
        defaults = dict(t_obs_points=6, t_pred_frames=6, d_d=10.0,
                        frame_rate=2.0, node_scope=1.0)
        defaults.update(kw)
        return DatasetConfig(**defaults)

    def test_single_agent_one_window(self):
        tracks = linear_tracks([(1, "vehicle", (0, 0), (1, 0))], 12)
        samples = window_samples(tracks, self.config())
        assert len(samples) == 1
        s = samples[0]
        assert s.n_agents == 1
        assert s.obs_mask.all() and s.fut_mask.all()
        np.testing.assert_array_equal(s.ego_plan, s.future[0])

    def test_neighbor_within_radius(self):
        tracks = linear_tracks([
            (1, "vehicle", (0, 0), (1, 0)),
            (2, "vehicle", (5, 0), (1, 0)),
        ], 12)
        samples = window_samples(tracks, self.config(),
                                 ego_selection="given_id", ego_id=1)
        assert len(samples) == 1
        assert samples[0].n_agents == 2
        assert samples[0].agent_ids == [1, 2]

    def test_neighbor_beyond_radius_excluded(self):
        tracks = linear_tracks([
            (1, "vehicle", (0, 0), (0.0, 0)),
            (2, "vehicle", (11, 0), (0.0, 0)),
        ], 12)
        samples = window_samples(tracks, self.config(),
                                 ego_selection="given_id", ego_id=1)
        assert samples[0].n_agents == 1

    def test_every_complete_agent_emits_one_sample_each(self):
        tracks = linear_tracks([
            (1, "vehicle", (0, 0), (1, 0)),
            (2, "vehicle", (3, 0), (1, 0)),
        ], 12)
        samples = window_samples(tracks, self.config())
        assert [s.agent_ids[0] for s in samples] == [1, 2]

    def test_partial_neighbor_masked_and_zero_padded(self):
        from epg_mgcn.scene import AgentTrack
        ego = linear_tracks([(1, "vehicle", (0, 0), (1, 0))], 12)[0]
        # neighbor only exists for frames 4..8 (present at last obs frame 5)
        frames = np.arange(4, 9)
        pos = np.column_stack([frames * 1.0, np.ones(5)])
        nb = AgentTrack(2, "pedestrian", frames, pos)
        samples = window_samples([ego, nb], self.config())
        s = [x for x in samples if x.agent_ids[0] == 1][0]
        assert s.n_agents == 2
        np.testing.assert_array_equal(s.obs_mask[1], [0, 0, 0, 0, 1, 1])
        np.testing.assert_array_equal(s.fut_mask[1], [1, 1, 1, 0, 0, 0])
        assert (s.observed[1, :4] == 0).all()
        # unmasked coordinates trace back to source rows
        np.testing.assert_array_equal(s.observed[1, 4], pos[0])

    def test_highway_band_rule(self):
        cfg = self.config(neighborhood="highway_band", t_obs_points=3,
                          t_pred_frames=3, frame_rate=5.0)
        tracks = linear_tracks([
            (1, "vehicle", (3.0, 0), (0, 3.0), 3),
            (2, "vehicle", (3.5, 5.0), (0, 3.0), 4),    # 1 lane over, close
            (3, "vehicle", (10.0, 0.0), (0, 3.0), 5),   # 2 lanes over
            (4, "vehicle", (3.0, 40.0), (0, 3.0), 3),   # too far ahead
        ], 6)
        samples = window_samples(tracks, cfg, ego_selection="given_id", ego_id=1)
        assert samples[0].agent_ids == [1, 2]

    def test_highway_band_longitudinal_boundary(self):
        cfg = self.config(neighborhood="highway_band", t_obs_points=3,
                          t_pred_frames=3, frame_rate=5.0)
        inside = HIGHWAY_BAND_METERS - 0.01
        outside = HIGHWAY_BAND_METERS + 0.01
        tracks = linear_tracks([
            (1, "vehicle", (0.0, 0.0), (0, 0.5), 3),
            (2, "vehicle", (0.0, inside), (0, 0.5), 3),
            (3, "vehicle", (0.0, outside), (0, 0.5), 3),
        ], 6)
        samples = window_samples(tracks, cfg, ego_selection="given_id", ego_id=1)
        assert samples[0].agent_ids == [1, 2]

    def test_highway_band_without_lanes_names_the_agent(self):
        from epg_mgcn.scene import AgentTrack
        cfg = self.config(neighborhood="highway_band", t_obs_points=3,
                          t_pred_frames=3, frame_rate=5.0)
        tracks = linear_tracks([(1, "vehicle", (0.0, 0.0), (0, 1.0), 3)], 6)
        # never present at a last observed frame, so never a candidate
        frames = np.array([7, 8])
        tracks.append(AgentTrack(9, "vehicle", frames, np.zeros((2, 2))))
        with pytest.raises(DataError, match="agent 9"):
            window_samples(tracks, cfg)

    def test_sliding_windows(self):
        tracks = linear_tracks([(1, "vehicle", (0, 0), (1, 0))], 14)
        samples = window_samples(tracks, self.config(window_stride=1))
        assert len(samples) == 3  # starts 0, 1, 2

    def test_against_brute_force_enumerator(self):
        # 3 agents with ragged lifetimes; enumerate all (start, ego) pairs
        from epg_mgcn.scene import AgentTrack
        cfg = self.config(t_obs_points=3, t_pred_frames=2, window_stride=1,
                          node_scope=1.0)
        a = AgentTrack(1, "vehicle", np.arange(0, 10),
                       np.column_stack([np.arange(10) * 1.0, np.zeros(10)]))
        b = AgentTrack(2, "pedestrian", np.arange(2, 8),
                       np.column_stack([np.arange(2, 8) * 1.0, np.ones(6)]))
        c = AgentTrack(3, "vehicle", np.arange(0, 10),
                       np.column_stack([np.arange(10) * 1.0, 30 + np.zeros(10)]))
        tracks = [a, b, c]
        samples = window_samples(tracks, cfg)

        expected = []
        length = 5
        for start in range(0, 10 - length + 1):
            window = set(range(start, start + length))
            last_obs = start + 2
            for ego in tracks:
                have = set(int(f) for f in ego.frames)
                if not window <= have:
                    continue
                ego_pos = ego.positions[list(ego.frames).index(last_obs)]
                members = [ego.agent_id]
                for other in tracks:
                    if other.agent_id == ego.agent_id:
                        continue
                    if last_obs not in set(int(f) for f in other.frames):
                        continue
                    opos = other.positions[list(other.frames).index(last_obs)]
                    if np.hypot(*(opos - ego_pos)) <= 10.0:
                        members.append(other.agent_id)
                expected.append((start, members))
        got = [(s.agent_ids[0], s.agent_ids) for s in samples]
        assert len(samples) == len(expected)
        for (start, members), s in zip(expected, samples):
            assert s.agent_ids == members
            # masks match presence
            for i, aid in enumerate(members):
                track = {t.agent_id: t for t in tracks}[aid]
                have = set(int(f) for f in track.frames)
                exp_obs = [f in have for f in range(start, start + 3)]
                exp_fut = [f in have for f in range(start + 3, start + 5)]
                assert list(s.obs_mask[i]) == exp_obs
                assert list(s.fut_mask[i]) == exp_fut

    def test_empty_and_no_eligible_ego(self):
        assert window_samples([], self.config()) == []
        tracks = linear_tracks([(1, "vehicle", (0, 0), (1, 0))], 5)
        assert window_samples(tracks, self.config()) == []


# a second valid value for every DatasetConfig field, against the base
# config of test_every_field_changes_the_windows
DATASET_ALTERNATIVES = {"t_obs_points": 4, "t_pred_frames": 4, "d_d": 20.0,
                        "neighborhood": "highway_band", "frame_rate": 5.0,
                        "node_scope": 2.0, "window_stride": 1}


class TestDatasetConfig:
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(DatasetConfig)])
    def test_every_field_changes_the_windows(self, name):
        """A field that windowing never reads is a dead knob."""
        assert name in DATASET_ALTERNATIVES, f"no second value for {name}"
        # 15 m apart in one lane: beyond the 10 m radius, inside the band
        tracks = linear_tracks([(1, "vehicle", (0, 0), (0, 1), 1),
                                (2, "vehicle", (0, 15), (0, 1), 1)], 30)
        base = DatasetConfig(t_obs_points=6, t_pred_frames=6, d_d=10.0,
                             neighborhood="radius", frame_rate=2.0,
                             node_scope=1.0, window_stride=None)
        changed = dataclasses.replace(base, **{name: DATASET_ALTERNATIVES[name]})

        def summary(samples):
            return [(s.agent_ids, s.observed.shape, s.future.shape, s.frame_rate)
                    for s in samples]

        assert summary(window_samples(tracks, base)) != summary(
            window_samples(tracks, changed))

    def test_non_positive_d_d_is_named(self):
        with pytest.raises(DataError, match="d_d must be positive, got 0"):
            DatasetConfig(d_d=0.0)


class TestEgoCenter:
    def test_last_observed_at_origin(self, rng):
        s = random_scene(rng)
        c = ego_center(s)
        np.testing.assert_array_equal(c.observed[0, -1], [0.0, 0.0])

    def test_relative_displacements_unchanged(self, rng):
        s = random_scene(rng, degenerate=False)
        c = ego_center(s)
        np.testing.assert_array_equal(
            s.observed[1:, -1] - s.observed[0, -1],
            c.observed[1:, -1] - c.observed[0, -1],
        )

    def test_round_trip(self, rng):
        for _ in range(10):
            s = random_scene(rng)
            c = ego_center(s)
            np.testing.assert_allclose(c.observed + c.origin, s.observed, atol=1e-12)
            np.testing.assert_allclose(c.future + c.origin, s.future, atol=1e-12)
            np.testing.assert_allclose(c.ego_plan + c.origin, s.ego_plan, atol=1e-12)


class TestCanonicalFormat:
    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_canonical([], path)
        assert read_canonical(path) == []

    def test_single_sample_round_trip(self, tmp_path, rng):
        s = random_scene(rng)
        path = tmp_path / "one.jsonl"
        write_canonical([s], path)
        (back,) = read_canonical(path)
        assert back.observed.tobytes() == s.observed.tobytes()
        assert back.categories == s.categories

    def test_hundred_random_samples_bitwise(self, tmp_path, rng):
        samples = [random_scene(rng) for _ in range(100)]
        # perturb off the grid so full 17-digit serialization is exercised
        for s in samples:
            s.observed += rng.normal(scale=1e-3, size=s.observed.shape)
            s.observed *= s.obs_mask[:, :, None]
        path = tmp_path / "many.jsonl"
        write_canonical(samples, path)
        back = read_canonical(path)
        assert len(back) == 100
        for a, b in zip(samples, back):
            assert a.observed.tobytes() == b.observed.tobytes()
            assert a.future.tobytes() == b.future.tobytes()
            assert a.ego_plan.tobytes() == b.ego_plan.tobytes()
            assert a.origin.tobytes() == b.origin.tobytes()
            assert (a.obs_mask == b.obs_mask).all()
            assert (a.fut_mask == b.fut_mask).all()
            assert a.categories == b.categories
            assert a.agent_ids == b.agent_ids
            assert a.frame_rate == b.frame_rate

    def test_read_shares_one_string_per_category(self, tmp_path, rng):
        path = tmp_path / "many.jsonl"
        write_canonical([random_scene(rng) for _ in range(5)], path)
        for s in read_canonical(path):
            assert all(c is CATEGORIES[CATEGORIES.index(c)] for c in s.categories)

    def test_write_is_deterministic(self, tmp_path, rng):
        s = random_scene(rng)
        assert sample_to_line(s) == sample_to_line(s)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_refused_before_writing(self, tmp_path, rng, bad):
        samples = [random_scene(rng) for _ in range(3)]
        samples[1].future[0, 2, 1] = bad
        path = tmp_path / "bad.jsonl"
        with pytest.raises(DataError, match="sample 1: non-finite coordinates"):
            write_canonical(samples, path)
        assert not path.exists()

    def test_partly_observed_ego_refused_before_writing(self, tmp_path, rng):
        samples = [random_scene(rng) for _ in range(3)]
        samples[1].obs_mask[0, 0] = False
        path = tmp_path / "bad.jsonl"
        with pytest.raises(DataError, match="sample 1: ego must be fully observed"):
            write_canonical(samples, path)
        assert not path.exists()

    def test_non_finite_literal_names_path_and_line(self, tmp_path, rng):
        rec = json.loads(sample_to_line(random_scene(rng)))
        rec["obs"][0][0][0] = float("nan")
        path = tmp_path / "nan.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        assert "NaN" in path.read_text()
        with pytest.raises(FormatError, match=re.escape(
                f"{path}, line 1: invalid canonical record: non-finite coordinates")):
            read_canonical(path)

    @pytest.mark.parametrize("damage", ["no categories", "obs not reshapable",
                                        "not an object"])
    def test_malformed_record_names_path_and_line(self, tmp_path, rng, damage):
        good = sample_to_line(random_scene(rng))
        rec = json.loads(good)
        if damage == "no categories":
            del rec["categories"]
        elif damage == "obs not reshapable":
            rec["obs"] = [1.0, 2.0, 3.0]
        else:
            rec = [rec]
        path = tmp_path / "bad.jsonl"
        path.write_text(good + "\n\n" + json.dumps(rec) + "\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}, line 3: invalid canonical")):
            read_canonical(path)

    def test_version_mismatch(self):
        line = sample_to_line(random_scene(np.random.default_rng(0)))
        bad = line.replace('"version":1', '"version":99', 1)
        with pytest.raises(FormatError, match="version"):
            sample_from_line(bad)

    def test_validator_over_generated_fixtures(self, rng):
        for _ in range(25):
            validate_sample(random_scene(rng))

    def test_validator_rejects_non_finite_origin(self, rng):
        s = random_scene(rng)
        s.origin = np.array([0.0, np.inf])
        with pytest.raises(DataError, match="non-finite coordinates"):
            validate_sample(s)

    def test_validator_rejects_sample_without_agents(self, rng):
        with pytest.raises(DataError, match="sample has no agents"):
            validate_sample(without_agents(random_scene(rng)))

    def test_sample_without_agents_refused_before_writing(self, tmp_path, rng):
        samples = [random_scene(rng), without_agents(random_scene(rng))]
        path = tmp_path / "bad.jsonl"
        with pytest.raises(DataError, match="sample 1: sample has no agents"):
            write_canonical(samples, path)
        assert not path.exists()

    def test_validator_rejects_bad_category(self, rng):
        s = random_scene(rng)
        s.categories[0] = "hovercraft"
        with pytest.raises(DataError, match="hovercraft"):
            validate_sample(s)


def synthetic_with(**fields):
    return dataclasses.replace(make_synthetic_dataset(1)[0], **fields)


class TestValidatorNamesTheField:
    """Each malformed field is a DataError naming it, from the validator,
    from ``prepare`` and (through it) from ``predict``."""

    CONFIG = ModelConfig(channels=4, t_obs_points=6, t_pred=6)

    def refused(self, sample, field):
        with pytest.raises(DataError, match=re.escape(field)):
            validate_sample(sample)
        with pytest.raises(DataError, match=re.escape(field)):
            prepare(sample, self.CONFIG)
        params = ModelParams.initialize(self.CONFIG, seed=0)
        with pytest.raises(DataError, match=re.escape(field)):
            predict(sample, self.CONFIG, params)

    def test_generated_fixtures_pass(self):
        rng = np.random.default_rng(8)
        for s in [make_sample([[[0.0, 0.0], [1.0, 0.0]], [[3.0, 1.0], [3.0, 2.0]]],
                              ["vehicle", "pedestrian"]),
                  *make_synthetic_dataset(4),
                  *(random_scene(rng, degenerate=d) for d in (True, False))]:
            validate_sample(s)

    @pytest.mark.parametrize("field", ["observed", "future"])
    @pytest.mark.parametrize("rank", [1, 2])
    def test_low_rank_trajectory(self, field, rank):
        array = getattr(make_synthetic_dataset(1)[0], field)
        self.refused(synthetic_with(**{field: array[(0,) * (3 - rank)]}),
                     f"{field} has shape")

    @pytest.mark.parametrize("field", ["obs_mask", "fut_mask"])
    def test_integer_mask(self, field):
        mask = getattr(make_synthetic_dataset(1)[0], field)
        self.refused(synthetic_with(**{field: mask.astype(int)}),
                     f"{field} must be bool")

    def test_origin_of_three_coordinates(self):
        self.refused(synthetic_with(origin=np.zeros(3)), "origin has shape (3,)")

    @pytest.mark.parametrize("rate", [np.nan, np.inf, 0.0, -2.0])
    def test_frame_rate_not_finite_and_positive(self, tmp_path, rate):
        sample = synthetic_with(frame_rate=rate)
        self.refused(sample, "frame_rate")
        path = tmp_path / "bad.jsonl"
        with pytest.raises(DataError, match="sample 0: frame_rate"):
            write_canonical([sample], path)
        assert not path.exists()

    @pytest.mark.parametrize("ids", [[0, 1, 2], [0, 1, 2, 3, 4]])
    def test_agent_ids_not_one_per_agent(self, ids):
        self.refused(synthetic_with(agent_ids=ids), "agent_ids has")

    def test_no_agent_ids_pass(self):
        validate_sample(synthetic_with(agent_ids=[]))


def ragged_tracks(rng, n_agents, n_frames):
    """Tracks with random lifetimes, gaps, ids out of order, lane changes and
    coordinates off any grid."""
    from epg_mgcn.scene import AgentTrack
    tracks = []
    for aid in rng.permutation(4 * n_agents)[:n_agents]:
        first = int(rng.integers(0, n_frames))
        frames = np.arange(first, int(rng.integers(first, n_frames)) + 1)
        keep = rng.random(len(frames)) < (0.8 if rng.random() < 0.3 else 1.0)
        frames = frames[keep] if keep.any() else frames[:1]
        start = rng.uniform(-25.0, 25.0, size=2)
        velocity = rng.normal(scale=1.5, size=2) * (rng.random() < 0.8)
        positions = start + frames[:, None] * velocity
        lanes = rng.integers(0, 5) + np.cumsum(rng.random(len(frames)) < 0.1)
        tracks.append(AgentTrack(int(aid), CATEGORIES[int(rng.integers(0, 4))],
                                 frames, positions, lanes))
    return tracks


def assert_same_samples(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.agent_ids == b.agent_ids
        assert a.categories == b.categories
        assert a.frame_rate == b.frame_rate
        for name in ("observed", "future", "ego_plan", "obs_mask", "fut_mask",
                     "origin"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x.dtype, x.shape) == (y.dtype, y.shape), name
            assert x.tobytes() == y.tobytes(), name


class TestOracleEquivalence:
    """The array windower against the per-item loop it replaced
    (``tests/oracle_scene.py``)."""

    @pytest.mark.parametrize("stride", [None, 1])
    @pytest.mark.parametrize("rule", ["radius", "highway_band"])
    @pytest.mark.parametrize("points", [(3, 2), (6, 6)])
    def test_windower_matches_loop(self, rng, rule, stride, points):
        cfg = DatasetConfig(t_obs_points=points[0], t_pred_frames=points[1],
                            d_d=10.0, node_scope=1.5, neighborhood=rule,
                            window_stride=stride)
        total = 0
        for _ in range(12):
            tracks = ragged_tracks(rng, int(rng.integers(1, 15)),
                                   int(rng.integers(5, 30)))
            got = window_samples(tracks, cfg)
            assert_same_samples(got, window_samples_loop(tracks, cfg))
            total += len(got)
            for ego_id in (tracks[0].agent_id, -1):
                assert_same_samples(
                    window_samples(tracks, cfg, "given_id", ego_id),
                    window_samples_loop(tracks, cfg, "given_id", ego_id))
        assert total > 0

    @pytest.mark.parametrize("rule", ["radius", "highway_band"])
    def test_windower_matches_loop_on_exact_boundaries(self, rule):
        from epg_mgcn.scene import AgentTrack
        cfg = DatasetConfig(t_obs_points=3, t_pred_frames=2, d_d=10.0,
                            node_scope=1.5, neighborhood=rule)
        # stationary, so every distance to the ego at (0, 0) is exact:
        # reach 15 m, band HIGHWAY_BAND_METERS, lane differences 1 and 2
        spots = [((0.0, 0.0), 3), ((9.0, 12.0), 4), ((-12.0, 9.0), 2),
                 ((9.0, 12.000001), 3), ((0.0, HIGHWAY_BAND_METERS), 4),
                 ((0.0, -HIGHWAY_BAND_METERS), 2), ((0.0, 1.0), 5)]
        frames = np.arange(5)
        tracks = [AgentTrack(aid, "vehicle", frames, np.tile(xy, (5, 1)),
                             np.full(5, lane))
                  for aid, (xy, lane) in enumerate(spots, start=1)]
        got = window_samples(tracks, cfg, "given_id", 1)
        assert_same_samples(got, window_samples_loop(tracks, cfg, "given_id", 1))
        expect = [1, 2, 3, 7] if rule == "radius" else [1, 2, 3, 4, 5, 6]
        assert got[0].agent_ids == expect
