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

    Each plan is (t_pred, 2) in the sample's original frame, as
    :func:`replan` checks. The sample is prepared once, and each further
    distinct plan re-makes only the planning graph. The distinct plans (the
    base first) run as one batch, one scene each; a plan equal to another
    in that frame, bit for bit, reuses that plan's rows, so an alternative
    equal to the base plan diverges by exactly zero. Returns (base result,
    [alternative results]); divergence is per-agent Frobenius distance
    between predicted trajectories.
    """
    base = prepare(sample, config)
    slot = {}  # shape and bytes of a plan in the original frame -> scene index
    scenes, named = [], []
    base_plan = sample.ego_plan + sample.origin
    for name, plan in [("base", base_plan), *alternative_plans.items()]:
        plan = np.asarray(plan, dtype=np.float64)
        key = (plan.shape, plan.tobytes())
        if key not in slot:
            slot[key] = len(scenes)
            try:
                scenes.append(replan(base, plan, config) if scenes else base)
            except UsageError as exc:  # name the plan in replan's message
                raise UsageError(
                    str(exc).replace("plan", f"plan '{name}'", 1)) from None
        named.append((name, slot[key]))
    # no gradient leaves a what-if run, and at large N the tape of every
    # plan of the batch costs more than the products it would serve
    out = forward(scenes, config, params.detached()).data
    preds = (out.reshape(len(scenes), sample.n_agents, config.t_pred, 2)
             + base.sample.origin)

    results = []
    for name, k in named:
        delta = preds[k] - preds[0]
        results.append(WhatIfResult(
            name=name,
            predictions=preds[k].copy(),
            planning_column=scenes[k].adjacency.planning[:, Sample.EGO_INDEX].copy(),
            divergence=np.sqrt((delta ** 2).sum(axis=(1, 2))),
            max_coordinate_diff=float(np.abs(delta).max()),
        ))
    return results[0], results[1:]
