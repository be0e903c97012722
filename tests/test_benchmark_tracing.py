"""The benchmark's tracer patches package functions by (module, name); a
refactor that drops one of those names breaks ``benchmarks/run.py --trace 1``
with a KeyError, so the targets are checked here."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(tracing):
    return [(span, owner, attr) for span, targets in tracing.SPAN_TARGETS.items()
            for owner, attr in targets]


def test_every_span_target_exists(tracing):
    missing = [f"{span}: {owner.__name__}.{attr}"
               for span, owner, attr in _targets(tracing)
               if attr not in owner.__dict__]
    assert missing == []


def test_installed_patches_and_restores(tracing):
    before = {(owner, attr): owner.__dict__[attr]
              for _, owner, attr in _targets(tracing)}
    with tracing.installed(tracing.Tracer()):
        for (owner, attr), original in before.items():
            assert owner.__dict__[attr] is not original, f"{owner.__name__}.{attr}"
    for (owner, attr), original in before.items():
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"


def test_every_layer_span_records_calls_in_train_and_what_if(tracing):
    """The per-layer metrics read 0 for a piece the timed paths stop calling
    by its bound name, so a batched path must still go through each one."""
    from epg_mgcn import training, whatif
    from epg_mgcn.model import ModelConfig
    from epg_mgcn.synthetic import make_synthetic_dataset

    layers = {source.lstrip("#")
              for metric, (_, source) in tracing.LAYER_METRICS.items()
              if metric.startswith("model.")} | {"graphs.normalize_adjacency"}
    samples = make_synthetic_dataset(3)
    stop = np.repeat(samples[0].observed[:1, -1], 6, axis=0)
    config = ModelConfig(channels=6, t_obs_points=6, t_pred=6)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        tracer.phase = "train"
        result = training.train(samples, config, training.TrainConfig(
            batch_size=2, max_epochs=1, seed=0))
        tracer.phase = "whatif"
        whatif.what_if(samples[0], {"stop": stop}, result.params, config)
    totals = tracer.phase_totals()
    for phase, expected in [("train", layers),
                            ("whatif", layers - {"model.prediction_loss"})]:
        silent = sorted(name for name in expected if totals[phase]["#" + name] < 1)
        assert silent == [], phase
