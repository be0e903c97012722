"""What-if prediction: rerun the model under alternative ego plans and
report how the predicted futures diverge from the recorded-plan baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
# unused: only the benchmark tracer patches them here (ROADMAP item 1)
from .graphs import build_adjacency, build_planning_graph
from .model import ModelConfig, ModelParams, forward, prepare, replan
# ego_center is unused: only the benchmark tracer patches it here (ROADMAP item 1)
from .scene import Sample, ego_center

__all__ = ["WhatIfResult", "what_if"]


@dataclass
class WhatIfResult:
    name: str
    predictions: np.ndarray  # (N, T_pred, 2), original frame
    planning_column: np.ndarray  # (N,) raw planning-graph edges into the ego
    divergence: np.ndarray  # (N,) per-agent L2 divergence from the base run
    max_coordinate_diff: float


def what_if(sample: Sample, alternative_plans: dict, params: ModelParams,
            config: ModelConfig):
    """Run the base plan and every named alternative.

    Each plan is (t_pred, 2) in the sample's original frame. The sample is
    prepared once, and each further distinct plan re-makes only the
    planning graph (:func:`replan`). The distinct plans (the base first) run
    as one batch, one scene each; a plan equal to another, bit for bit,
    reuses that plan's rows, so an alternative equal to the base plan
    diverges by exactly zero. Returns (base result, [alternative results]);
    divergence is per-agent Frobenius distance between predicted
    trajectories.
    """
    plans = {name: np.asarray(plan, dtype=np.float64)
             for name, plan in alternative_plans.items()}
    for name, plan in plans.items():
        if plan.shape != (sample.t_pred, 2):
            raise UsageError(f"plan '{name}' has shape {plan.shape}, "
                             f"expected ({sample.t_pred}, 2)")
        if not np.isfinite(plan).all():
            raise UsageError(f"plan '{name}' has a non-finite entry")
    base = prepare(sample, config)
    origin = base.sample.origin
    named = [("base", base.sample.ego_plan)]
    named += [(name, plan - origin) for name, plan in plans.items()]
    slot = {}  # plan bytes -> scene index in the batch
    scenes, position = [], []
    for _, plan in named:
        key = np.asarray(plan, dtype=np.float64).tobytes()
        if key not in slot:
            slot[key] = len(scenes)
            scenes.append(replan(base, plan, config) if scenes else base)
        position.append(slot[key])
    # no gradient leaves a what-if run, and at large N the tape of every
    # plan of the batch costs more than the products it would serve
    out = forward(scenes, config, params.detached()).data
    preds = (out.reshape(len(scenes), sample.n_agents, config.t_pred, 2)
             + origin)

    results = []
    for (name, _), k in zip(named, position):
        delta = preds[k] - preds[0]
        results.append(WhatIfResult(
            name=name,
            predictions=preds[k].copy(),
            planning_column=scenes[k].adjacency.planning[:, Sample.EGO_INDEX].copy(),
            divergence=np.sqrt((delta ** 2).sum(axis=(1, 2))),
            max_coordinate_diff=float(np.abs(delta).max()),
        ))
    return results[0], results[1:]
