"""Trainer: schedule closed form, determinism, checkpoint resume, and a
smoke check that loss decreases on the synthetic set."""

import json
import re

import numpy as np
import pytest

from epg_mgcn import autograd as ag
from epg_mgcn.errors import DataError, FormatError, NumericError, UsageError
from epg_mgcn.model import ModelConfig, ModelParams, load_params, save_params
from epg_mgcn.synthetic import make_synthetic_dataset
from epg_mgcn.training import (
    EpochRecord,
    RunRecord,
    TrainConfig,
    checkpoint_load,
    checkpoint_save,
    lr_at,
    train,
    write_run_record,
)


def small_model():
    return ModelConfig(channels=6, t_obs_points=6, t_pred=6)


def small_train(**kw):
    defaults = dict(batch_size=8, max_epochs=4, seed=5)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestSchedule:
    def test_paper_decay_points(self):
        apollo = TrainConfig(decay_every_epochs=200)
        assert lr_at(0, apollo) == pytest.approx(0.001)
        assert lr_at(199, apollo) == pytest.approx(0.001)
        assert lr_at(200, apollo) == pytest.approx(0.0001)
        assert lr_at(400, apollo) == pytest.approx(0.00001)
        highway = TrainConfig(decay_every_epochs=5)
        assert lr_at(5, highway) == pytest.approx(0.0001)
        assert lr_at(7, highway) == pytest.approx(0.0001)

    def test_closed_form_over_thousand_epochs(self):
        cfg = TrainConfig(initial_lr=0.02, lr_decay_factor=0.5,
                          decay_every_epochs=7)
        for epoch in range(0, 1001):
            assert lr_at(epoch, cfg) == pytest.approx(0.02 * 0.5 ** (epoch // 7))

    def test_invalid_configs(self):
        with pytest.raises(DataError):
            TrainConfig(lr_decay_factor=1.5)
        with pytest.raises(DataError):
            TrainConfig(batch_size=0)
        with pytest.raises(DataError):
            TrainConfig(precision="half")
        with pytest.raises(DataError, match="max_epochs must be >= 0"):
            TrainConfig(max_epochs=-1)

    def test_negative_epoch_is_refused(self):
        with pytest.raises(DataError, match="epoch must be >= 0"):
            lr_at(-1, TrainConfig())


class TestTrainLoop:
    def test_zero_epochs_returns_initial_params(self):
        samples = make_synthetic_dataset(2)
        from epg_mgcn.model import ModelParams
        result = train(samples, small_model(), small_train(max_epochs=0))
        fresh = ModelParams.initialize(small_model(), seed=5)
        for name, t in result.params.items():
            np.testing.assert_array_equal(t.data, fresh[name].data)
        assert result.record.epochs == []

    def test_seeded_runs_bitwise_identical(self):
        samples = make_synthetic_dataset(4)
        cfg = small_train(batch_size=2, max_epochs=10)
        r1 = train(samples, small_model(), cfg)
        r2 = train(samples, small_model(), cfg)
        assert len(r1.record.losses()) == 10
        assert np.array(r1.record.losses()).tobytes() == \
            np.array(r2.record.losses()).tobytes()
        for name in r1.params.names():
            assert r1.params[name].data.tobytes() == r2.params[name].data.tobytes()

    def test_loss_decreases_on_synthetic_set(self):
        samples = make_synthetic_dataset(8)
        result = train(samples, small_model(),
                       small_train(batch_size=2, max_epochs=30))
        losses = result.record.losses()
        assert losses[-1] < losses[0] * 0.5

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError, match="empty"):
            train([], small_model(), small_train())

    def test_non_finite_coordinates_name_the_sample(self):
        samples = make_synthetic_dataset(3)
        samples[2].observed[1, 0, 0] = np.nan
        with pytest.raises(DataError, match="sample 2: non-finite coordinates"):
            train(samples, small_model(), small_train(max_epochs=1))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_coordinate_beyond_float32_names_the_sample(self):
        # finite in float64, inf once cast: refused before any epoch runs
        samples = make_synthetic_dataset(3)
        samples[2].observed[1, 0, 0] = 1e39
        with pytest.raises(DataError, match="sample 2: non-finite coordinates"):
            train(samples, small_model(),
                  small_train(max_epochs=1, precision="single"))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_loss_aborts_with_coordinates(self):
        samples = make_synthetic_dataset(2)
        bad = samples[0]
        bad.future[1, 0, 0] = 1e200  # enormous target -> overflow in squared error
        bad.fut_mask[:] = True
        with pytest.raises(NumericError, match="epoch 0"):
            train(samples, small_model(), small_train(max_epochs=1))

    def test_non_finite_gradient_names_first_parameter(self, monkeypatch):
        samples = make_synthetic_dataset(3)
        real_conv = ag.temporal_conv

        def conv_with_poisoned_kernel_grad(x, kernel):
            out = real_conv(x, kernel)
            backward = out._backward

            def poisoned(g):
                backward(g)
                kernel.grad[0, 0, 0] = np.nan

            out._backward = poisoned
            return out

        monkeypatch.setattr(ag, "temporal_conv", conv_with_poisoned_kernel_grad)
        model = small_model()
        first_kernel = f"branch.{model.branch_order[0]}.block0.temporal.kernel"
        with pytest.raises(NumericError, match=(
                f"gradient for parameter '{first_kernel}' at epoch 0, batch 0")):
            train(samples, model, small_train(max_epochs=1))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_loss_names_the_batch_samples(self):
        samples = make_synthetic_dataset(3)
        samples[1].future[1, 0, 0] = 1e200
        samples[1].fut_mask[:] = True
        # the trainer's generator draws the epoch's permutation first
        position = list(np.random.default_rng(5).permutation(3)).index(1)
        with pytest.raises(NumericError, match=(
                rf"non-finite loss at epoch 0, batch {position} \(samples 1\)")):
            train(samples, small_model(), small_train(batch_size=1, max_epochs=1))

    def test_non_finite_gradient_names_the_batch_samples(self, monkeypatch):
        samples = make_synthetic_dataset(3)
        real_conv = ag.temporal_conv

        def conv_with_poisoned_kernel_grad(x, kernel):
            out = real_conv(x, kernel)
            backward = out._backward

            def poisoned(g):
                backward(g)
                kernel.grad[0, 0, 0] = np.inf

            out._backward = poisoned
            return out

        monkeypatch.setattr(ag, "temporal_conv", conv_with_poisoned_kernel_grad)
        first, second = np.random.default_rng(5).permutation(3)[:2]
        with pytest.raises(NumericError, match=(
                rf"at epoch 0, batch 0 \(samples {first}, {second}\)$")):
            train(samples, small_model(), small_train(batch_size=2, max_epochs=1))

    def test_single_precision_smoke(self):
        samples = make_synthetic_dataset(3)
        result = train(samples, small_model(),
                       small_train(max_epochs=5, precision="single"))
        assert result.params["embed.weight"].data.dtype == np.float32
        losses = result.record.losses()
        assert losses[-1] < losses[0]


def damage(source, path, edit):
    """Copy the checkpoint ``source`` to ``path`` after ``edit(meta, arrays)``."""
    with np.load(source) as archive:
        arrays = {k: archive[k] for k in archive.files}
    meta = json.loads(str(arrays.pop("__meta__")))
    edit(meta, arrays)
    np.savez(path, __meta__=np.array(json.dumps(meta)), **arrays)


def record_adam_fields(path, **fields):
    """Add ``fields`` to the Adam record in a trainer checkpoint's
    ``__meta__``, the layout of files written while Adam's beta1, beta2
    and epsilon were settable."""
    damage(path, path, lambda meta, _: meta["trainer"]["adam"].update(fields))


@pytest.fixture(scope="module")
def trainer_checkpoint(tmp_path_factory):
    """A trainer checkpoint after 3 epochs."""
    run_dir = tmp_path_factory.mktemp("trainer")
    train(make_synthetic_dataset(2), small_model(), small_train(max_epochs=3),
          run_dir=run_dir)
    return run_dir / "checkpoint.npz"


def two_entry_record(meta, arrays):
    meta["trainer"]["records"][1] = meta["trainer"]["records"][1][:2]


class TestCheckpointMetadata:
    @pytest.mark.parametrize("edit, named", [
        (lambda meta, _: meta["trainer"].pop("rng_state"),
         "trainer field 'rng_state' is missing"),
        (lambda meta, _: meta["trainer"]["adam"].pop("step_count"),
         "trainer field 'adam.step_count' is missing"),
        (lambda meta, _: meta["trainer"]["adam"].pop("learning_rate"),
         "trainer field 'adam.learning_rate' is missing"),
        (lambda meta, _: meta["trainer"].pop("epoch_count"),
         "trainer field 'epoch_count' is missing"),
        (two_entry_record, "trainer field 'records' is missing or malformed"),
        (lambda meta, _: meta.update(trainer="adam"),
         "checkpoint field 'trainer' is not an object"),
        (lambda _, arrays: arrays.update({"adam.m.embed.weight": np.zeros(1)}),
         "optimizer state for 'embed.weight' has shapes (1,) and (6, 2), "
         "expected (6, 2)"),
        (lambda _, arrays: arrays.pop("adam.v.embed.weight"),
         "optimizer state for 'embed.weight' missing"),
    ], ids=["no rng_state", "no step_count", "no learning_rate", "no epoch_count",
            "records row of two", "trainer a string", "moment of shape (1,)",
            "no second moment"])
    def test_bad_metadata_is_format_error_naming_field(self, tmp_path,
                                                       trainer_checkpoint,
                                                       edit, named):
        path = tmp_path / "damaged.npz"
        damage(trainer_checkpoint, path, edit)
        with pytest.raises(FormatError, match=re.escape(named)):
            checkpoint_load(path)

    def test_undamaged_copy_loads(self, tmp_path, trainer_checkpoint):
        path = tmp_path / "copy.npz"
        damage(trainer_checkpoint, path, lambda meta, arrays: None)
        assert checkpoint_load(path)[3] == 3


class TestCheckpointResume:
    def test_round_trip_bitwise(self, tmp_path):
        samples = make_synthetic_dataset(3)
        result = train(samples, small_model(), small_train(max_epochs=3))
        path = tmp_path / "ckpt.npz"
        checkpoint_save(path, result.params, result.optimizer, result.rng,
                        3, result.record)
        params, optimizer, rng, epochs, record = checkpoint_load(path)
        assert epochs == 3
        for name in result.params.names():
            assert params[name].data.tobytes() == result.params[name].data.tobytes()
            assert optimizer.first_moment[name].tobytes() == \
                result.optimizer.first_moment[name].tobytes()
        assert optimizer.step_count == result.optimizer.step_count
        assert rng.bit_generator.state == result.rng.bit_generator.state
        assert record.losses() == result.record.losses()

    def test_resume_matches_uninterrupted(self, tmp_path):
        samples = make_synthetic_dataset(4)
        model = small_model()
        full = train(samples, model, small_train(batch_size=2, max_epochs=8))

        part = train(samples, model, small_train(batch_size=2, max_epochs=5))
        path = tmp_path / "ckpt.npz"
        checkpoint_save(path, part.params, part.optimizer, part.rng, 5,
                        part.record)
        resumed = train(samples, model, small_train(batch_size=2, max_epochs=8),
                        resume=path)
        assert np.array(resumed.record.losses()).tobytes() == \
            np.array(full.record.losses()).tobytes()
        for name in full.params.names():
            assert resumed.params[name].data.tobytes() == \
                full.params[name].data.tobytes()

    def test_resume_from_file_recording_adam_constants(self, tmp_path):
        samples = make_synthetic_dataset(4)
        model = small_model()
        full = train(samples, model, small_train(batch_size=2, max_epochs=6))

        part = train(samples, model, small_train(batch_size=2, max_epochs=3))
        path = tmp_path / "ckpt.npz"
        checkpoint_save(path, part.params, part.optimizer, part.rng, 3,
                        part.record)
        record_adam_fields(path, beta1=0.9, beta2=0.999, epsilon=1e-8)
        resumed = train(samples, model, small_train(batch_size=2, max_epochs=6),
                        resume=path)
        assert np.array(resumed.record.losses()).tobytes() == \
            np.array(full.record.losses()).tobytes()
        for name in full.params.names():
            assert resumed.params[name].data.tobytes() == \
                full.params[name].data.tobytes()

    def test_other_adam_constant_names_field(self, tmp_path):
        samples = make_synthetic_dataset(2)
        result = train(samples, small_model(), small_train(max_epochs=1))
        path = tmp_path / "ckpt.npz"
        checkpoint_save(path, result.params, result.optimizer, result.rng,
                        1, result.record)
        record_adam_fields(path, beta1=0.8, beta2=0.999, epsilon=1e-8)
        with pytest.raises(FormatError, match="'beta1' is 0.8, expected 0.9"):
            checkpoint_load(path)
        with pytest.raises(FormatError, match="beta1"):
            train(samples, small_model(), small_train(max_epochs=2), resume=path)

    def test_mismatched_config_names_parameter(self, tmp_path):
        samples = make_synthetic_dataset(2)
        result = train(samples, small_model(), small_train(max_epochs=1))
        path = tmp_path / "ckpt.npz"
        checkpoint_save(path, result.params, result.optimizer, result.rng,
                        1, result.record)
        wider = ModelConfig(channels=9, t_obs_points=6, t_pred=6)
        with pytest.raises(FormatError, match="embed.weight"):
            checkpoint_load(path, expected_config=wider)

    def test_shape_neutral_config_mismatch_names_field(self, tmp_path):
        samples = make_synthetic_dataset(2)
        result = train(samples, small_model(), small_train(max_epochs=1))
        path = tmp_path / "ckpt.npz"
        checkpoint_save(path, result.params, result.optimizer, result.rng,
                        1, result.record)
        turned = ModelConfig(channels=6, t_obs_points=6, t_pred=6,
                             beta_degrees=30.0)
        with pytest.raises(FormatError, match="'beta_degrees' is 20.0, expected 30.0"):
            checkpoint_load(path, expected_config=turned)
        with pytest.raises(FormatError, match="beta_degrees"):
            train(samples, turned, small_train(max_epochs=2), resume=path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        samples = make_synthetic_dataset(2)
        result = train(samples, small_model(), small_train(max_epochs=2))
        path = tmp_path / "ckpt.npz"
        checkpoint_save(path, result.params, result.optimizer, result.rng,
                        1, result.record)

        def savez_then_fail(file, **arrays):
            file.write(b"PK\x03\x04 truncated")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", savez_then_fail)
        with pytest.raises(OSError, match="disk full"):
            checkpoint_save(path, result.params, result.optimizer, result.rng,
                            2, result.record)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]
        _, _, _, epochs, _ = checkpoint_load(path)
        assert epochs == 1

    def test_run_record_round_trip(self, tmp_path):
        record = RunRecord()
        record.append(EpochRecord(0, 1.25, 0.001, 0.5))
        record.append(EpochRecord(1, 0.75, 0.001, 0.4))
        path = tmp_path / "record.jsonl"
        write_run_record(record, path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["epoch"] for line in lines] == [0, 1]
        assert [float(line["loss"]) for line in lines] == record.losses()
        assert float(lines[1]["lr"]) == 0.001
        assert lines[1]["seconds"] == 0.4

    def test_load_params_reads_trainer_checkpoint_bitwise(self, tmp_path):
        samples = make_synthetic_dataset(2)
        train(samples, small_model(), small_train(max_epochs=1), run_dir=tmp_path)
        params, _, _, _, _ = checkpoint_load(tmp_path / "checkpoint.npz")
        loaded = load_params(tmp_path / "checkpoint.npz")
        assert loaded.names() == params.names()
        for name in params.names():
            assert loaded[name].data.tobytes() == params[name].data.tobytes()

    def test_params_only_file_is_not_a_trainer_checkpoint(self, tmp_path):
        path = tmp_path / "params.npz"
        save_params(ModelParams.initialize(small_model(), seed=1), path)
        with pytest.raises(FormatError, match="not a trainer checkpoint"):
            checkpoint_load(path)

    @pytest.mark.parametrize("field, value", [
        ("batch_size", 4), ("initial_lr", 0.002), ("lr_decay_factor", 0.5),
        ("decay_every_epochs", 3), ("seed", 6), ("precision", "single"),
    ])
    def test_resume_under_other_train_config_names_field(self, tmp_path,
                                                         field, value):
        samples = make_synthetic_dataset(2)
        train(samples, small_model(), small_train(max_epochs=1), run_dir=tmp_path)
        changed = small_train(max_epochs=2, **{field: value})
        with pytest.raises(FormatError, match=f"train config field '{field}'"):
            train(samples, small_model(), changed,
                  resume=tmp_path / "checkpoint.npz")

    def test_resume_may_extend_max_epochs(self, tmp_path):
        samples = make_synthetic_dataset(2)
        full = train(samples, small_model(), small_train(max_epochs=3))
        train(samples, small_model(), small_train(max_epochs=2), run_dir=tmp_path)
        resumed = train(samples, small_model(), small_train(max_epochs=3),
                        resume=tmp_path / "checkpoint.npz")
        assert resumed.record.losses() == full.record.losses()

    def test_resume_below_the_checkpoint_epochs_is_refused(self, tmp_path):
        samples = make_synthetic_dataset(2)
        train(samples, small_model(), small_train(max_epochs=3), run_dir=tmp_path)
        written = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        with pytest.raises(UsageError,
                           match="max_epochs 1 is below the 3 epochs"):
            train(samples, small_model(), small_train(max_epochs=1),
                  resume=tmp_path / "checkpoint.npz", run_dir=tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == written
        again = train(samples, small_model(), small_train(max_epochs=3),
                      resume=tmp_path / "checkpoint.npz")
        assert len(again.record.epochs) == 3

    @pytest.mark.parametrize("every", [0, -1])
    def test_checkpoint_every_below_one_is_refused(self, tmp_path, every):
        with pytest.raises(UsageError, match=f"checkpoint_every must be >= 1, "
                                             f"got {every}"):
            train(make_synthetic_dataset(2), small_model(),
                  small_train(max_epochs=2), run_dir=tmp_path / "run",
                  checkpoint_every=every)
        assert not (tmp_path / "run").exists()

    def test_mid_run_checkpoint_of_killed_run_resumes_bitwise(self, tmp_path):
        samples = make_synthetic_dataset(4)
        model = small_model()
        full = train(samples, model, small_train(batch_size=2, max_epochs=4))
        seen = []

        class Killed(Exception):
            pass

        def kill_after_third_epoch(record):
            seen.append(record)
            if record.epoch == 2:
                raise Killed

        with pytest.raises(Killed):
            train(samples, model, small_train(batch_size=2, max_epochs=4),
                  run_dir=tmp_path, checkpoint_every=2,
                  progress=kill_after_third_epoch)
        assert [r.epoch for r in seen] == [0, 1, 2]
        assert [r.mean_loss for r in seen] == full.record.losses()[:3]
        assert checkpoint_load(tmp_path / "checkpoint.npz")[3] == 2
        resumed = train(samples, model, small_train(batch_size=2, max_epochs=4),
                        resume=tmp_path / "checkpoint.npz")
        assert np.array(resumed.record.losses()).tobytes() == \
            np.array(full.record.losses()).tobytes()
        for name in full.params.names():
            assert resumed.params[name].data.tobytes() == \
                full.params[name].data.tobytes()

    def test_records_must_be_contiguous(self):
        record = RunRecord()
        with pytest.raises(DataError):
            record.append(EpochRecord(1, 1.0, 0.001, 0.1))
        record.append(EpochRecord(0, 1.0, 0.001, 0.1))
        with pytest.raises(DataError):
            record.append(EpochRecord(2, 0.9, 0.001, 0.1))


class TestSmokeProperty:
    def test_loss_non_increasing_over_spans_for_most_seeds(self):
        # 50-epoch spans on the fixed synthetic set: the trend must be down
        samples = make_synthetic_dataset(8)
        ok = 0
        for seed in range(5):
            result = train(samples, small_model(),
                           small_train(batch_size=4, max_epochs=50, seed=seed))
            losses = result.record.losses()
            if losses[-1] <= losses[0]:
                ok += 1
        assert ok >= 5 * 0.9 - 1e-9