"""What-if prediction: rerun the model under alternative ego plans and
report how the predicted futures diverge from the recorded-plan baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .graphs import AdjacencySet, build_adjacency, build_planning_graph
from .model import ModelConfig, ModelParams, forward
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

    Each plan is (t_pred, 2) in the sample's original frame. Only the
    planning graph depends on the plan, so the other three graphs are built
    once. The distinct plans (the base first) run as one batch, one scene
    each; a plan equal to another, bit for bit, reuses that plan's rows, so
    an alternative equal to the base plan diverges by exactly zero. Returns
    (base result, [alternative results]); divergence is per-agent Frobenius
    distance between predicted trajectories.
    """
    plans = {name: np.asarray(plan, dtype=np.float64)
             for name, plan in alternative_plans.items()}
    for name, plan in plans.items():
        if plan.shape != (sample.t_pred, 2):
            raise UsageError(f"plan '{name}' has shape {plan.shape}, "
                             f"expected ({sample.t_pred}, 2)")
        if not np.isfinite(plan).all():
            raise UsageError(f"plan '{name}' has a non-finite entry")
    centered = ego_center(sample)
    adjacency = build_adjacency(centered, config.d_d, config.beta_degrees)

    named = [("base", centered.ego_plan)]
    named += [(name, plan - centered.origin) for name, plan in plans.items()]
    slot = {}  # plan bytes -> scene index in the batch
    variants, adjacencies, position = [], [], []
    for _, plan in named:
        key = np.asarray(plan, dtype=np.float64).tobytes()
        if key not in slot:
            slot[key] = len(variants)
            variant = centered.copy()
            variant.ego_plan = plan
            variants.append(variant)
            adjacencies.append(AdjacencySet(
                distance=adjacency.distance,
                visibility=adjacency.visibility,
                planning=build_planning_graph(variant, config.beta_degrees),
                category=adjacency.category,
            ))
        position.append(slot[key])
    # no gradient leaves a what-if run, and at large N the tape of every
    # plan of the batch costs more than the products it would serve
    out = forward(variants, config, params.detached(), adjacencies).data
    preds = (out.reshape(len(variants), sample.n_agents, config.t_pred, 2)
             + centered.origin)

    results = []
    for (name, _), k in zip(named, position):
        delta = preds[k] - preds[0]
        results.append(WhatIfResult(
            name=name,
            predictions=preds[k].copy(),
            planning_column=adjacencies[k].planning[:, Sample.EGO_INDEX].copy(),
            divergence=np.sqrt((delta ** 2).sum(axis=(1, 2))),
            max_coordinate_diff=float(np.abs(delta).max()),
        ))
    return results[0], results[1:]
