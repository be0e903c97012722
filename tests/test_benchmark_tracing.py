"""The benchmark's tracer patches package functions by (module, name); a
refactor that drops one of those names breaks ``benchmarks/run.py --trace 1``
with a KeyError, so the targets are checked here."""

import importlib.util
from pathlib import Path

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
