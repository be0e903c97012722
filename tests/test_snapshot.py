"""The committed behaviour snapshot (``tests/data/snapshot.npz``, written by
``tests/record_snapshot.py``) holds, bit for bit: training in both
precisions, a resume from a checkpoint the recording code wrote, the files
training writes, ``predict``, ``evaluate`` and ``what_if``. A failure here
means the change moved a bit; if it meant to, re-record and say why."""

import numpy as np
import pytest

import record_snapshot


@pytest.fixture(scope="module")
def recorded():
    with np.load(record_snapshot.PATH, allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


@pytest.fixture(scope="module")
def recomputed(recorded):
    return record_snapshot.compute(recorded["resume.checkpoint"].tobytes())


def test_snapshot_fits_its_budget():
    assert record_snapshot.PATH.stat().st_size <= 200 * 1024


def test_every_entry_is_bitwise_equal(recorded, recomputed):
    # the checkpoint's raw bytes hold zip timestamps: they are the resume's
    # input, and its entries are compared through resume.checkpoint_sha256
    names = sorted(set(recorded) - {"resume.checkpoint", "platform"})
    assert names == sorted(set(recomputed) - {"resume.checkpoint", "platform"})
    moved = [name for name in names
             if recorded[name].dtype != recomputed[name].dtype
             or recorded[name].shape != recomputed[name].shape
             or recorded[name].tobytes() != recomputed[name].tobytes()]
    assert moved == [], (f"recorded on {recorded['platform']}, "
                         f"run on {recomputed['platform']}")
