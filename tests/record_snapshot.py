"""The behaviour snapshot: record it, or recompute its entries.

Run from the repository root to (re)write ``tests/data/snapshot.npz``:

    PYTHONPATH=src:tests python tests/record_snapshot.py

The archive pins what a change that means to keep every bit must keep, at
C=16 over seeded ``random_scene``s, half of them with ``degenerate``:

- ``train.<precision>.*``: a 3-epoch ``train`` in double and in single
  precision: the loss trace, a SHA-256 of each trained parameter, the
  checkpoint's ``__meta__`` and the run record as written, then ``predict``
  rows and the ``evaluate`` report under the trained parameters;
- ``whatif.*``: ``what_if`` predictions, divergences, planning columns and
  largest shifts for three alternative plans on two scenes, and the message
  that refuses a plan holding the base plan's numbers in another shape;
- ``resume.*``: a 1-epoch trainer checkpoint as the recording code wrote it
  (C=4, to keep the file small), the digest of each of its entries, and the
  loss trace, parameter digests and ``__meta__`` of a resume from it to 3
  epochs;
- ``platform``: the numpy version and BLAS library of the recording.

Epoch timings are pinned to zero while recording, so that every written
byte is a function of the inputs. ``tests/test_snapshot.py`` recomputes the
entries and compares them bitwise. A change that moves bits on purpose
re-runs this script and names each changed entry and why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import tempfile
import types
from pathlib import Path

import numpy as np

from conftest import random_scene
from epg_mgcn import training
from epg_mgcn.errors import UsageError
from epg_mgcn.metrics import evaluate
from epg_mgcn.model import ModelConfig, predict
from epg_mgcn.training import TrainConfig, train
from epg_mgcn.whatif import what_if

CONFIG = ModelConfig(channels=16, t_obs_points=4, t_pred=5)
RESUME_CONFIG = ModelConfig(channels=4, t_obs_points=4, t_pred=5)
PATH = Path(__file__).with_name("data") / "snapshot.npz"


def scenes() -> list:
    rng = np.random.default_rng(1616)
    return [random_scene(rng, n_max=10, degenerate=k % 2 == 0) for k in range(12)]


def platform() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas.get('name')} {blas.get('version')}"


def digest(array) -> str:
    array = np.ascontiguousarray(array)
    head = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(head + array.tobytes()).hexdigest()


def archive_digests(path) -> np.ndarray:
    """The digest of each entry of an npz archive, in name order."""
    with np.load(path, allow_pickle=False) as archive:
        return np.array([f"{name}:{digest(archive[name])}"
                         for name in sorted(archive.files)])


@contextlib.contextmanager
def zero_epoch_seconds():
    """Epoch timings of 0.0, so that checkpoints and run records written
    under it are the same bytes on every run."""
    clock = training.time
    training.time = types.SimpleNamespace(perf_counter=lambda: 0.0)
    try:
        yield
    finally:
        training.time = clock


def _trained(prefix, samples, config, train_config, run_dir, **kw) -> tuple:
    result = train(samples, config, train_config, run_dir=run_dir, **kw)
    with np.load(run_dir / "checkpoint.npz", allow_pickle=False) as archive:
        meta = archive["__meta__"]
    return result, {
        f"{prefix}.losses": np.array(result.record.losses()),
        f"{prefix}.param_sha256": np.array(
            [f"{name}:{digest(t.data)}" for name, t in result.params.items()]),
        f"{prefix}.meta": meta,
        f"{prefix}.run_record": np.array(
            (run_dir / "run_record.jsonl").read_text(encoding="utf-8")),
    }


def _whatif(samples, params) -> dict:
    out = {}
    for k in (0, 1):
        sample = samples[k]
        plan = sample.ego_plan + sample.origin
        turn = np.deg2rad(25.0)
        rotation = np.array([[np.cos(turn), -np.sin(turn)],
                             [np.sin(turn), np.cos(turn)]])
        plans = {"shifted": plan + [1.5, -0.75],
                 "turned": plan[:1] + (plan - plan[:1]) @ rotation.T,
                 "recorded": plan.copy()}
        base, alternatives = what_if(sample, plans, params, CONFIG)
        out[f"whatif.{k}.base"] = base.predictions
        for alt in alternatives:
            for field in ("predictions", "divergence", "planning_column",
                          "max_coordinate_diff"):
                out[f"whatif.{k}.{alt.name}.{field}"] = np.asarray(getattr(alt, field))
    try:
        what_if(samples[0], {"flat": samples[0].ego_plan.ravel()}, params, CONFIG)
        out["whatif.flat_refusal"] = np.array("accepted")
    except UsageError as exc:
        out["whatif.flat_refusal"] = np.array(str(exc))
    return out


def compute(resume_from: bytes | None = None) -> dict:
    """Every entry of the archive. The resume case starts from
    ``resume_from``, the bytes of a stored checkpoint, when given, and
    otherwise from the checkpoint that this run writes."""
    samples = scenes()
    out = {"platform": np.array(platform())}
    with zero_epoch_seconds(), tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for precision in ("double", "single"):
            run_dir = tmp / precision
            result, entries = _trained(
                f"train.{precision}", samples, CONFIG,
                TrainConfig(batch_size=4, max_epochs=3, seed=7,
                            precision=precision), run_dir)
            out.update(entries)
            out[f"train.{precision}.predict"] = np.concatenate(
                [predict(s, CONFIG, result.params) for s in samples])
            out[f"train.{precision}.evaluate"] = np.array(
                evaluate(samples, CONFIG, result.params).to_json())
            if precision == "double":
                out.update(_whatif(samples, result.params))

        first = tmp / "first"
        resume_config = TrainConfig(batch_size=4, max_epochs=1, seed=3)
        train(samples, RESUME_CONFIG, resume_config, run_dir=first)
        written = first / "checkpoint.npz"
        out["resume.checkpoint_sha256"] = archive_digests(written)
        out["resume.checkpoint"] = np.frombuffer(written.read_bytes(), np.uint8)
        if resume_from is not None:
            written.write_bytes(resume_from)
        _, entries = _trained("resume", samples, RESUME_CONFIG,
                              TrainConfig(batch_size=4, max_epochs=3, seed=3),
                              tmp / "resumed", resume=written)
        out.update(entries)
    return out


def main() -> None:
    arrays = compute()
    PATH.parent.mkdir(exist_ok=True)
    np.savez_compressed(PATH, **arrays)
    print(f"wrote {len(arrays)} arrays to {PATH} ({PATH.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
