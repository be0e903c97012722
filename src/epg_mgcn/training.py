"""Deterministic mini-batch training with the step learning-rate schedule.

One seeded PCG64 generator (numpy ``default_rng``) drives both parameter
initialization and epoch shuffling, and its state is persisted in
checkpoints, so a resumed run continues the loss trace bitwise identically
to an uninterrupted one. Each batch is one forward pass over its scenes,
one loss (the mean over samples of each sample's mean loss) and one
backward pass; Adam applies the update at the scheduled learning rate
``initial_lr * decay_factor ** floor(epoch / decay_every)``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import DataError, FormatError, NumericError, UsageError
# unused: only the benchmark tracer patches it here (ROADMAP item 1)
from .graphs import build_adjacency
from .model import (
    Checkpoint,
    ModelConfig,
    ModelParams,
    forward,
    prediction_loss,
    prepare_each,
    read_checkpoint,
    write_checkpoint,
)
from .optim import BETA1, BETA2, EPSILON, Adam
# ego_center is unused: only the benchmark tracer patches it here (ROADMAP item 1)
from .scene import ego_center

__all__ = [
    "TrainConfig",
    "EpochRecord",
    "RunRecord",
    "TrainResult",
    "lr_at",
    "train",
    "checkpoint_save",
    "checkpoint_load",
    "write_run_record",
]


@dataclass
class TrainConfig:
    """Optimizer schedule and loop settings.

    ``decay_every_epochs`` is 200 for the urban setting and 5 for the
    highway one; ``precision`` selects float64 ("double") or float32
    ("single") parameters.
    """

    batch_size: int = 128
    initial_lr: float = 0.001
    lr_decay_factor: float = 0.1
    decay_every_epochs: int = 200
    max_epochs: int = 100
    seed: int = 0
    precision: str = "double"

    def __post_init__(self):
        if self.batch_size < 1 or self.decay_every_epochs < 1:
            raise DataError("batch_size and decay_every_epochs must be positive")
        if self.initial_lr <= 0:
            raise DataError("initial_lr must be positive")
        if not 0.0 < self.lr_decay_factor < 1.0:
            raise DataError("lr_decay_factor must lie in (0, 1)")
        if self.max_epochs < 0:
            raise DataError("max_epochs must be >= 0")
        if self.precision not in ("double", "single"):
            raise DataError(f"unknown precision {self.precision!r}")

    @property
    def dtype(self):
        return np.float64 if self.precision == "double" else np.float32

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """Inverse of :meth:`to_dict`; an unknown key is a UsageError."""
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise UsageError(f"unknown train config field {unknown[0]!r}")
        return cls(**d)

    def require_resumable(self, stored: dict) -> None:
        """Raise FormatError naming the first field in which the ``stored``
        (checkpoint) train config differs from this one. ``max_epochs`` may
        differ: extending a run is what resuming is for."""
        for key, mine in self.to_dict().items():
            if key != "max_epochs" and stored.get(key) != mine:
                raise FormatError(f"checkpoint train config field '{key}' is "
                                  f"{stored.get(key)!r}, expected {mine!r}")


def lr_at(epoch: int, config: TrainConfig) -> float:
    """Step schedule: the learning rate decays by ``lr_decay_factor`` once
    every ``decay_every_epochs`` epochs."""
    if epoch < 0:
        raise DataError("epoch must be >= 0")
    return config.initial_lr * config.lr_decay_factor ** (
        epoch // config.decay_every_epochs
    )


@dataclass
class EpochRecord:
    epoch: int
    mean_loss: float
    learning_rate: float
    seconds: float


@dataclass
class RunRecord:
    epochs: list = field(default_factory=list)

    def losses(self) -> list:
        return [e.mean_loss for e in self.epochs]

    def append(self, record: EpochRecord) -> None:
        if record.epoch != len(self.epochs):
            raise DataError(f"epoch record {record.epoch} after {len(self.epochs)} "
                            "records: records must be contiguous from epoch 0")
        self.epochs.append(record)


@dataclass
class TrainResult:
    params: ModelParams
    record: RunRecord
    optimizer: Adam
    rng: np.random.Generator


def train(samples, model_config: ModelConfig, train_config: TrainConfig,
          *, resume=None, run_dir=None, checkpoint_every: int | None = None,
          progress=None) -> TrainResult:
    """Run the training loop; returns final parameters and the loss trace.

    ``resume`` continues from a trainer checkpoint (bitwise identical to the
    uninterrupted run); a train config recorded there must equal
    ``train_config`` in every field but ``max_epochs``, which may not fall
    below the epochs the checkpoint has run. With ``run_dir`` set, a
    checkpoint and the run record land there at the end (and every
    ``checkpoint_every`` epochs, which must be at least 1).
    """
    if not samples:
        raise DataError("training dataset is empty")
    if checkpoint_every is not None and checkpoint_every < 1:
        raise UsageError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    prepared = list(prepare_each(samples, model_config, train_config.dtype))

    if resume is not None:
        checkpoint = read_checkpoint(resume, expected_config=model_config)
        params, optimizer, rng, start_epoch, record = _restore(checkpoint, resume)
        if checkpoint.trainer.get("train_config") is not None:
            train_config.require_resumable(checkpoint.trainer["train_config"])
        if train_config.max_epochs < start_epoch:
            raise UsageError(f"max_epochs {train_config.max_epochs} is below the "
                             f"{start_epoch} epochs the checkpoint has run")
    else:
        rng = np.random.default_rng(train_config.seed)
        params = ModelParams.initialize(
            model_config, seed=train_config.seed, dtype=train_config.dtype)
        optimizer = Adam(params.tensors, learning_rate=train_config.initial_lr)
        start_epoch = 0
        record = RunRecord()

    run_dir = Path(run_dir) if run_dir is not None else None
    if run_dir is not None:
        run_dir.mkdir(parents=True, exist_ok=True)

    n = len(prepared)
    for epoch in range(start_epoch, train_config.max_epochs):
        t0 = time.perf_counter()
        lr = lr_at(epoch, train_config)
        optimizer.learning_rate = lr
        perm = rng.permutation(n)
        loss_sum = 0.0
        for b0 in range(0, n, train_config.batch_size):
            batch = perm[b0:b0 + train_config.batch_size]
            where = (f"at epoch {epoch}, batch {b0 // train_config.batch_size} "
                     f"(samples {', '.join(str(i) for i in batch)})")
            optimizer.zero_grad()
            scenes = [prepared[i] for i in batch]
            out = forward(scenes, model_config, params)
            batch_loss, _ = prediction_loss(out, [p.sample for p in scenes],
                                            model_config)
            value = batch_loss.item()
            if not math.isfinite(value):
                raise NumericError(f"non-finite loss {where}")
            batch_loss.backward()
            for name, tensor in params.items():
                if not np.isfinite(tensor.grad).all():
                    raise NumericError(
                        f"non-finite gradient for parameter '{name}' {where}")
            optimizer.step()
            loss_sum += value * len(batch)
        record.append(EpochRecord(epoch, loss_sum / n, lr,
                                  time.perf_counter() - t0))
        if progress is not None:
            progress(record.epochs[-1])
        if (run_dir is not None and checkpoint_every is not None
                and (epoch + 1) % checkpoint_every == 0):
            checkpoint_save(run_dir / "checkpoint.npz", params, optimizer,
                            rng, epoch + 1, record, train_config)

    if run_dir is not None:
        checkpoint_save(run_dir / "checkpoint.npz", params, optimizer,
                        rng, train_config.max_epochs, record, train_config)
        write_run_record(record, run_dir / "run_record.jsonl")
    return TrainResult(params, record, optimizer, rng)


# ---------------------------------------------------------------------------
# trainer checkpoint: parameters + optimizer state + shuffle stream
# ---------------------------------------------------------------------------


def checkpoint_save(path, params: ModelParams, optimizer: Adam,
                    rng: np.random.Generator, epoch_count: int,
                    record: RunRecord,
                    train_config: TrainConfig | None = None) -> None:
    """Write parameters with the optimizer state, the shuffle stream, the
    loss trace and, when given, the train config a resume must match."""
    trainer = {
        "epoch_count": epoch_count,
        "rng_state": rng.bit_generator.state,
        "adam": {
            "step_count": optimizer.step_count,
            "learning_rate": optimizer.learning_rate,
        },
        "records": [astuple(e) for e in record.epochs],
        "train_config": None if train_config is None else train_config.to_dict(),
    }
    write_checkpoint(path, Checkpoint(
        params, trainer, (optimizer.first_moment, optimizer.second_moment)))


def checkpoint_load(path, expected_config: ModelConfig | None = None):
    """Returns (params, optimizer, rng, epoch_count, record). An
    ``expected_config`` must equal the stored one in every field."""
    return _restore(read_checkpoint(path, expected_config), path)


def _restore(checkpoint: Checkpoint, path):
    meta = checkpoint.trainer
    if meta is None:
        raise FormatError(f"{path} is not a trainer checkpoint: no optimizer state")
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: checkpoint field 'trainer' is not an object")

    def read(name, convert):
        """``convert`` of trainer field ``name``, dotted when nested."""
        try:
            value = meta
            for key in name.split("."):
                value = value[key]
            return convert(value)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: checkpoint trainer field '{name}' is "
                              f"missing or malformed: {exc!r}") from None

    # files written before Adam's constants were fixed also record them
    for key, constant in (("beta1", BETA1), ("beta2", BETA2),
                          ("epsilon", EPSILON)):
        stored = read("adam", lambda adam: adam.get(key, constant))
        if stored != constant:
            raise FormatError(f"{path}: checkpoint Adam field '{key}' is "
                              f"{stored!r}, expected {constant!r}")
    optimizer = Adam(checkpoint.params.tensors,
                     learning_rate=read("adam.learning_rate", float))
    optimizer.step_count = read("adam.step_count", int)
    optimizer.first_moment, optimizer.second_moment = checkpoint.moments

    rng = np.random.default_rng()
    read("rng_state", lambda state: setattr(rng.bit_generator, "state", state))

    record = RunRecord()
    for row in read("records", lambda rows: [
            EpochRecord(int(epoch), float(loss), float(lr), float(seconds))
            for epoch, loss, lr, seconds in rows]):
        record.append(row)
    return checkpoint.params, optimizer, rng, read("epoch_count", int), record


def write_run_record(record: RunRecord, path) -> None:
    """Line-delimited records: epoch, loss, lr, seconds."""
    with open(path, "w", encoding="utf-8") as fh:
        for e in record.epochs:
            fh.write(json.dumps({
                "epoch": e.epoch,
                "loss": format(e.mean_loss, ".17g"),
                "lr": format(e.learning_rate, ".17g"),
                "seconds": round(e.seconds, 6),
            }, separators=(",", ":")))
            fh.write("\n")
