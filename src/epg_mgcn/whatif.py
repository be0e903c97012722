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
    once. Returns (base result, [alternative results]); divergence is
    per-agent Frobenius distance between predicted trajectories.
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

    def run(plan_centered: np.ndarray, name: str, base_pred=None):
        variant = centered.copy()
        variant.ego_plan = plan_centered
        adj = AdjacencySet(
            distance=adjacency.distance,
            visibility=adjacency.visibility,
            planning=build_planning_graph(variant, config.beta_degrees),
            category=adjacency.category,
        )
        pred = forward(variant, config, params, adj).data + centered.origin
        if base_pred is None:
            divergence = np.zeros(sample.n_agents)
            max_diff = 0.0
        else:
            delta = pred - base_pred
            divergence = np.sqrt((delta ** 2).sum(axis=(1, 2)))
            max_diff = float(np.abs(delta).max())
        return WhatIfResult(
            name=name,
            predictions=pred,
            planning_column=adj.planning[:, Sample.EGO_INDEX].copy(),
            divergence=divergence,
            max_coordinate_diff=max_diff,
        )

    base = run(centered.ego_plan, "base")
    results = []
    for name, plan in plans.items():
        results.append(run(plan - centered.origin, name, base.predictions))
    return base, results
