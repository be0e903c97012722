"""End-to-end command-line flows: prepare -> train -> eval -> what-if ->
render, exit codes, and pipeline determinism."""

import dataclasses
import json

import numpy as np
import pytest

from epg_mgcn import cli
from epg_mgcn.cli import main
from epg_mgcn.metrics import MetricReport
from epg_mgcn.scene import (DatasetConfig, load_trajectory_table, read_canonical,
                            window_samples, write_canonical)
from epg_mgcn.synthetic import make_synthetic_dataset
from epg_mgcn.whatif import WhatIfResult


def make_apollo_table(path, n_frames=16):
    """Three agents fully present: ego-capable vehicle, pedestrian, vehicle."""
    rows = []
    for f in range(n_frames):
        rows.append((f, 1, 1, 0.5 * f, 0.0))
        rows.append((f, 2, 3, 0.3 * f + 2.0, 1.5))
        rows.append((f, 3, 2, 0.4 * f - 3.0, -2.0))
    path.write_text("\n".join(" ".join(str(v) for v in r) for r in rows) + "\n")


@pytest.fixture
def samples_file(tmp_path):
    path = tmp_path / "samples.jsonl"
    write_canonical(make_synthetic_dataset(4), path)
    return path


# prepare's windowing flags: (flag, text, DatasetConfig field, parsed value)
PREPARE_FLAGS = [
    ("--t-obs", "4", "t_obs_points", 4),
    ("--t-pred", "3", "t_pred_frames", 3),
    ("--d-d", "12.5", "d_d", 12.5),
    ("--neighborhood", "highway_band", "neighborhood", "highway_band"),
    ("--frame-rate", "5", "frame_rate", 5.0),
    ("--node-scope", "1.5", "node_scope", 1.5),
    ("--stride", "2", "window_stride", 2),
]


class TestPrepare:
    def test_no_flags_writes_the_default_config_windows(self, tmp_path):
        assert {field for _, _, field, _ in PREPARE_FLAGS} == {
            f.name for f in dataclasses.fields(DatasetConfig)}
        table = tmp_path / "apollo.txt"
        make_apollo_table(table, n_frames=30)
        out, expected = tmp_path / "prepared.jsonl", tmp_path / "expected.jsonl"
        assert main(["prepare", "--format", "apollo_like", "--input", str(table),
                     "--output", str(out)]) == 0
        write_canonical(window_samples(load_trajectory_table(table, "apollo_like"),
                                       DatasetConfig()), expected)
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("flag, text, field, value", PREPARE_FLAGS)
    def test_flag_reaches_its_config_field(self, tmp_path, monkeypatch, capsys,
                                           flag, text, field, value):
        seen = []

        def window_nothing(tracks, config, **_):
            seen.append(config)
            return []

        monkeypatch.setattr(cli, "window_samples", window_nothing)
        table = tmp_path / "apollo.txt"
        make_apollo_table(table)
        assert main(["prepare", "--format", "apollo_like", "--input", str(table),
                     "--output", str(tmp_path / "out.jsonl"), flag, text]) == 0
        assert seen == [dataclasses.replace(DatasetConfig(), **{field: value})]

    def test_prepare_from_table(self, tmp_path, capsys):
        table = tmp_path / "apollo.txt"
        make_apollo_table(table)
        out = tmp_path / "prepared.jsonl"
        code = main(["prepare", "--format", "apollo_like",
                     "--input", str(table), "--output", str(out),
                     "--t-obs", "6", "--t-pred", "6"])
        assert code == 0
        samples = read_canonical(out)
        assert len(samples) == 3  # every complete agent becomes ego once
        assert samples[0].n_agents >= 1

    def test_prepare_twice_writes_identical_bytes(self, tmp_path):
        table = tmp_path / "apollo.txt"
        make_apollo_table(table, n_frames=20)
        outs = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for out in outs:
            assert main(["prepare", "--format", "apollo_like", "--input",
                         str(table), "--output", str(out), "--stride", "1"]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert len(read_canonical(outs[0])) == 3 * 9

    def test_prepare_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1 2\n")
        code = main(["prepare", "--format", "apollo_like",
                     "--input", str(bad), "--output", str(tmp_path / "x.jsonl")])
        assert code == 3

    def test_missing_input_is_io_error(self, tmp_path):
        code = main(["prepare", "--format", "apollo_like",
                     "--input", str(tmp_path / "nope.txt"),
                     "--output", str(tmp_path / "x.jsonl")])
        assert code == 5


class TestTrainEval:
    def test_train_eval_whatif_render_flow(self, tmp_path, samples_file, capsys):
        out_dir = tmp_path / "run"
        code = main(["train", "--data", str(samples_file),
                     "--out-dir", str(out_dir), "--channels", "4",
                     "--epochs", "2", "--batch-size", "4", "--quiet"])
        assert code == 0
        assert (out_dir / "checkpoint.npz").exists()
        assert (out_dir / "params.npz").exists()
        assert (out_dir / "run_record.jsonl").exists()

        report_path = tmp_path / "report.json"
        code = main(["eval", "--data", str(samples_file),
                     "--checkpoint", str(out_dir / "checkpoint.npz"),
                     "--report", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert set(report) == {f.name for f in dataclasses.fields(MetricReport)}
        assert report["sample_count"] == 4
        assert report["wsade"] is not None

        plans_path = tmp_path / "plans.json"
        sample = read_canonical(samples_file)[0]
        swerve = (np.asarray(sample.ego_plan) + [0.0, -30.0]).tolist()
        plans_path.write_text(json.dumps({"swerve": swerve}))
        whatif_report = tmp_path / "whatif.json"
        code = main(["what-if", "--data", str(samples_file), "--index", "0",
                     "--checkpoint", str(out_dir / "checkpoint.npz"),
                     "--plans", str(plans_path), "--report", str(whatif_report)])
        assert code == 0
        payload = json.loads(whatif_report.read_text())
        assert payload["alternatives"][0]["name"] == "swerve"
        for result in [payload["base"], *payload["alternatives"]]:
            assert set(result) == {f.name for f in dataclasses.fields(WhatIfResult)}

        svg_path = tmp_path / "scene.svg"
        code = main(["render", "--data", str(samples_file), "--index", "1",
                     "--checkpoint", str(out_dir / "params.npz"),
                     "--output", str(svg_path)])
        assert code == 0
        assert svg_path.read_text().startswith("<svg")

    def test_train_prints_each_epoch_unless_quiet(self, tmp_path, samples_file,
                                                  capsys):
        assert main(["train", "--data", str(samples_file), "--out-dir",
                     str(tmp_path / "run"), "--channels", "4", "--epochs", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in out[:2]] == ["epoch 0", "epoch 1"]
        assert all(" lr 0.001 (" in line for line in out[:2])

    def test_pipeline_determinism(self, tmp_path, samples_file, capsys):
        reports = []
        for tag in ("one", "two"):
            out_dir = tmp_path / tag
            main(["train", "--data", str(samples_file), "--out-dir",
                  str(out_dir), "--channels", "4", "--epochs", "3",
                  "--batch-size", "2", "--seed", "11", "--quiet"])
            report = tmp_path / f"report_{tag}.json"
            main(["eval", "--data", str(samples_file),
                  "--checkpoint", str(out_dir / "checkpoint.npz"),
                  "--report", str(report)])
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]

    def test_eval_missing_category_skips_weighted(self, tmp_path, capsys):
        samples = make_synthetic_dataset(2)
        for s in samples:
            s.categories = ["vehicle"] * s.n_agents
        data = tmp_path / "veh.jsonl"
        write_canonical(samples, data)
        out_dir = tmp_path / "run"
        main(["train", "--data", str(data), "--out-dir", str(out_dir),
              "--channels", "4", "--epochs", "1", "--quiet"])
        report_path = tmp_path / "r.json"
        code = main(["eval", "--data", str(data),
                     "--checkpoint", str(out_dir / "checkpoint.npz"),
                     "--report", str(report_path)])
        assert code == 0
        assert json.loads(report_path.read_text())["wsade"] is None


class TestRunConfigFile:
    def test_config_file_drives_training(self, tmp_path, samples_file, capsys):
        config = {
            "model": {"channels": 4, "enabled_graphs": ["distance", "category"],
                      "planning_fusion_enabled": False},
            "train": {"batch_size": 2, "max_epochs": 2, "seed": 9},
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config, indent=2))
        out_dir = tmp_path / "run"
        code = main(["train", "--data", str(samples_file),
                     "--config", str(cfg_path), "--out-dir", str(out_dir),
                     "--quiet"])
        assert code == 0
        from epg_mgcn.model import load_params
        params = load_params(out_dir / "params.npz")
        assert params.config.channels == 4
        assert params.config.enabled_graphs == ("distance", "category")
        assert not params.config.planning_fusion_enabled
        branches = {n.split(".")[1] for n in params.names()
                    if n.startswith("branch.")}
        assert branches == {"distance", "category"}


class TestAblateCommand:
    def test_ablate_writes_six_rows(self, tmp_path, samples_file, capsys):
        out_dir = tmp_path / "ablate"
        code = main(["ablate", "--data", str(samples_file),
                     "--out-dir", str(out_dir), "--channels", "4",
                     "--epochs", "1", "--batch-size", "4", "--quiet"])
        assert code == 0
        lines = (out_dir / "ablation.jsonl").read_text().strip().splitlines()
        assert len(lines) == 6
        rows = [json.loads(x) for x in lines]
        assert [r["label"] for r in rows] == ["A1", "A2", "A3", "A4", "A5", "A6"]
        assert all(np.isfinite(r["wsade"]) for r in rows)


class TestErrors:
    def test_whatif_bad_index_usage_error(self, tmp_path, samples_file):
        out_dir = tmp_path / "run"
        main(["train", "--data", str(samples_file), "--out-dir", str(out_dir),
              "--channels", "4", "--epochs", "1", "--quiet"])
        plans = tmp_path / "plans.json"
        plans.write_text("{}")
        code = main(["what-if", "--data", str(samples_file), "--index", "99",
                     "--checkpoint", str(out_dir / "checkpoint.npz"),
                     "--plans", str(plans)])
        assert code == 2

    @pytest.mark.parametrize("command", ["train", "eval", "ablate"])
    def test_empty_canonical_file_is_data_error(self, tmp_path, capsys, command):
        empty = tmp_path / "empty.jsonl"
        write_canonical([], empty)
        extra = (["--checkpoint", "x.npz"] if command == "eval"
                 else ["--out-dir", str(tmp_path / "run")])
        assert main([command, "--data", str(empty)] + extra) == 3
        assert f"no samples in {empty}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_diverging_training_is_numeric_error(self, tmp_path, samples_file,
                                                 capsys):
        with np.errstate(all="ignore"):  # the overflow is the point
            code = main(["train", "--data", str(samples_file), "--out-dir",
                         str(tmp_path / "run"), "--channels", "4", "--epochs",
                         "2", "--batch-size", "2", "--lr", "1e300", "--quiet"])
        assert code == 4
        assert "numeric error: non-finite loss at epoch 0, batch 1" in (
            capsys.readouterr().err)

    def test_render_bad_index_usage_error(self, tmp_path, samples_file, capsys):
        code = main(["render", "--data", str(samples_file), "--index", "4",
                     "--output", str(tmp_path / "scene.svg")])
        assert code == 2
        assert "sample index 4 out of range (file has 4)" in capsys.readouterr().err

    def test_corrupt_canonical_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"version": 42}\n')
        code = main(["eval", "--data", str(bad), "--checkpoint", "x.npz"])
        assert code == 3


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """(samples file, trainer checkpoint) from one short run."""
    root = tmp_path_factory.mktemp("trained")
    data = root / "samples.jsonl"
    write_canonical(make_synthetic_dataset(4), data)
    assert main(["train", "--data", str(data), "--out-dir", str(root / "run"),
                 "--channels", "4", "--epochs", "1", "--quiet"]) == 0
    return data, root / "run" / "checkpoint.npz"


class TestInputErrors:
    @pytest.mark.parametrize("damage", ["text", "truncated"])
    def test_eval_on_non_archive_is_format_error(self, tmp_path, trained,
                                                 capsys, damage):
        data, checkpoint = trained
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"not an archive" if damage == "text"
                        else checkpoint.read_bytes()[:200])
        code = main(["eval", "--data", str(data), "--checkpoint", str(bad)])
        assert code == 3
        assert f"{bad} is not an npz archive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["what-if", "render"])
    def test_non_finite_record_is_data_error(self, tmp_path, trained, capsys,
                                             command):
        data, checkpoint = trained
        rec = json.loads(data.read_text().splitlines()[0])
        rec["obs"][2][0][0] = float("nan")
        bad = tmp_path / "nan.jsonl"
        bad.write_text(json.dumps(rec) + "\n")
        plans = tmp_path / "plans.json"
        plans.write_text("{}")
        extra = (["--plans", str(plans)] if command == "what-if"
                 else ["--output", str(tmp_path / "scene.svg")])
        code = main([command, "--data", str(bad), "--checkpoint",
                     str(checkpoint)] + extra)
        assert code == 3
        assert f"{bad}, line 1: invalid canonical record: non-finite" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("text, named", [
        ('{"model": {"chanels": 4}}', "ModelConfig.__init__() got an unexpected keyword argument 'chanels'"),
        ('{"train": {"max_epoch": 1}}', "TrainConfig.__init__() got an unexpected keyword argument 'max_epoch'"),
        ('{"modle": {}}', "unknown section 'modle'"),
        ('[{"model": {}}]', "expected a JSON object"),
        ('{"model": {"categories_decoded": ["vehicle", "vehicle"]}}',
         "categories_decoded repeats 'vehicle'"),
        ('{"model": {"enabled_graphs": ["distance", "distance"]}}',
         "enabled_graphs repeats 'distance'"),
        ('{"model": {"channels": 4},\n', "invalid JSON: Expecting property name"
                                         " enclosed in double quotes: line 2 column 1"),
    ])
    def test_bad_run_config_is_usage_error(self, tmp_path, samples_file,
                                           capsys, text, named):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(text)
        code = main(["train", "--data", str(samples_file), "--config",
                     str(cfg_path), "--out-dir", str(tmp_path / "run"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert str(cfg_path) in err and named in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flags, named", [
        (["--batch-size", "0"], "batch_size=0"),
        (["--lr", "-1"], "initial_lr=-1.0"),
        (["--channels", "0"], "channels=0"),
    ])
    def test_bad_training_flag_is_usage_error(self, tmp_path, samples_file,
                                              capsys, flags, named):
        code = main(["train", "--data", str(samples_file), "--out-dir",
                     str(tmp_path / "run"), "--quiet"] + flags)
        assert code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("every", ["0", "-1"])
    def test_checkpoint_every_below_one_is_usage_error(self, tmp_path,
                                                       samples_file, capsys,
                                                       every):
        code = main(["train", "--data", str(samples_file), "--out-dir",
                     str(tmp_path / "run"), "--quiet", "--checkpoint-every", every])
        assert code == 2
        assert f"checkpoint_every must be >= 1, got {every}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("text, named", [
        ('{"swerve": [[0, 0]', "invalid JSON"),
        ("[[0, 0], [1, 0], [2, 0], [3, 0], [4, 0], [5, 0]]", "expected a JSON object"),
        ('{"swerve": [[0, 0], [1, 0], [2], [3, 0], [4, 0], [5, 0]]}', "plan 'swerve'"),
        ('{"swerve": [[0, 0], [1, 0], ["far", 0], [3, 0], [4, 0], [5, 0]]}',
         "plan 'swerve'"),
        ('{"swerve": [[0, 0], [1, 0], [null, 0], [3, 0], [4, 0], [5, 0]]}',
         "plan 'swerve'"),
    ])
    def test_bad_plans_file_is_usage_error(self, tmp_path, trained, capsys,
                                           text, named):
        data, checkpoint = trained
        plans = tmp_path / "plans.json"
        plans.write_text(text)
        code = main(["what-if", "--data", str(data), "--checkpoint",
                     str(checkpoint), "--plans", str(plans)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(plans) in err and named in err
