"""The whole-model golden fixture: record it, or recompute its cases.

Run from the repository root to (re)write ``tests/data/golden_model.npz``:

    PYTHONPATH=src:tests python tests/golden_model.py

For each case (a batch of one ``random_scene`` and a batch of three) the
archive holds the rows ``forward`` returns, the batch loss and the gradient
of that loss on every parameter, at C=8 in float64. The tests in
``tests/test_model.py::TestGoldenModel`` compare the current code with it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from conftest import random_scene
from epg_mgcn.model import ModelConfig, ModelParams, forward, prediction_loss, prepare

CONFIG = ModelConfig(channels=8, t_obs_points=4, t_pred=5)
SCENE_COUNTS = (1, 3)
PATH = Path(__file__).with_name("data") / "golden_model.npz"


def run_case(n_scenes: int, dtype=np.float64) -> dict:
    """Rows, loss and every parameter gradient of one case, keyed as in the
    archive (``S<n>.rows``, ``S<n>.loss``, ``S<n>.grad.<parameter>``)."""
    rng = np.random.default_rng(81 + n_scenes)
    scenes = [prepare(random_scene(rng, n_max=8), CONFIG, dtype)
              for _ in range(n_scenes)]
    params = ModelParams.initialize(CONFIG, seed=n_scenes, dtype=dtype)
    for t in params.tensors.values():
        t.zero_grad()
    rows = forward(scenes, CONFIG, params)
    loss, count = prediction_loss(rows, [p.sample for p in scenes], CONFIG)
    if count == 0:
        raise AssertionError(f"case S{n_scenes} has no supervised agent")
    loss.backward()
    out = {f"S{n_scenes}.rows": rows.data, f"S{n_scenes}.loss": loss.data}
    out.update({f"S{n_scenes}.grad.{name}": t.grad for name, t in params.items()})
    return out


def main() -> None:
    arrays = {}
    for n_scenes in SCENE_COUNTS:
        arrays.update(run_case(n_scenes))
    PATH.parent.mkdir(exist_ok=True)
    np.savez(PATH, **arrays)
    print(f"wrote {len(arrays)} arrays to {PATH}")


if __name__ == "__main__":
    main()
