"""Interaction graphs: four weighted adjacency matrices per sample.

All four graphs share the node set (ego at index 0, then neighbors) and are
built once per sample from the state at the last observed frame:

* distance: undirected, reciprocal Euclidean distance, zero beyond ``d_d``;
* visibility: directed, bearing cosine over distance for agents in the
  mover's forward half-plane (180 degree view split by its heading);
* planning: directed, a unit edge from agent i into the ego when the ego's
  planned endpoint lies within ``+/- beta`` of agent i's heading;
* category: undirected, unit edges between same-type agents.

Agents not present at the last observed frame contribute all-zero rows and
columns; diagonals stay zero (self-influence enters through the identity
added during normalization). ``normalize_adjacency`` implements
column-stochastic normalization of ``E + I``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .scene import Sample

__all__ = [
    "MOTION_EPSILON",
    "COINCIDENT_DISTANCE",
    "COINCIDENT_CAP",
    "GRAPH_NAMES",
    "MotionDirections",
    "AdjacencySet",
    "motion_directions",
    "build_distance_graph",
    "build_visibility_graph",
    "build_planning_graph",
    "build_category_graph",
    "build_adjacency",
    "normalize_adjacency",
]

MOTION_EPSILON = 1e-4  # meters per frame below which a heading is undefined
COINCIDENT_DISTANCE = 1e-9  # distinct agents closer than this are "coincident"
COINCIDENT_CAP = 1e9  # reciprocal-distance cap for coincident pairs

GRAPH_NAMES = ("distance", "visibility", "planning", "category")


@dataclass
class MotionDirections:
    """Per-agent heading at the window end (meters per frame)."""

    vectors: np.ndarray  # (N, 2)
    valid: np.ndarray  # (N,) bool


@dataclass
class AdjacencySet:
    """The four raw N x N adjacency matrices for one sample."""

    distance: np.ndarray
    visibility: np.ndarray
    planning: np.ndarray
    category: np.ndarray


def motion_directions(sample: Sample) -> MotionDirections:
    """Heading of each agent at the last observed frame.

    Only observed data may enter the prediction inputs, so the heading is the
    backward difference between the last two observed positions. It is
    invalid when either frame is masked or the displacement is shorter than
    ``MOTION_EPSILON``.
    """
    vectors = sample.observed[:, -1] - sample.observed[:, -2]
    present = sample.obs_mask[:, -1] & sample.obs_mask[:, -2]
    valid = present & (np.linalg.norm(vectors, axis=1) >= MOTION_EPSILON)
    return MotionDirections(vectors=vectors, valid=valid)


def _pairwise(sample: Sample):
    pos = sample.observed[:, -1]  # (N, 2)
    present = sample.obs_mask[:, -1]
    diff = pos[None, :, :] - pos[:, None, :]  # diff[i, j] = p_j - p_i
    dist = np.linalg.norm(diff, axis=2)
    return pos, present, diff, dist


def build_distance_graph(sample: Sample, d_d: float) -> np.ndarray:
    """Reciprocal-distance weights for pairs within ``d_d`` meters."""
    _, present, _, dist = _pairwise(sample)
    n = dist.shape[0]
    with np.errstate(divide="ignore"):
        weights = np.where((dist > 0) & (dist <= d_d), 1.0 / np.maximum(dist, 1e-300), 0.0)
    coincident = (dist < COINCIDENT_DISTANCE) & ~np.eye(n, dtype=bool)
    coincident &= present[:, None] & present[None, :]
    if coincident.any():
        warnings.warn(
            "coincident agents in distance graph; capping weight at "
            f"{COINCIDENT_CAP:g}",
            RuntimeWarning,
            stacklevel=2,
        )
        weights[coincident] = COINCIDENT_CAP
    weights[~present, :] = 0.0
    weights[:, ~present] = 0.0
    np.fill_diagonal(weights, 0.0)
    return weights


def build_visibility_graph(sample: Sample) -> np.ndarray:
    """Directed view-field weights: cos(bearing) / distance when agent j is
    in front of agent i (positive heading dot), else zero."""
    _, present, diff, dist = _pairwise(sample)
    headings = motion_directions(sample)
    speed = np.linalg.norm(headings.vectors, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        dots = np.einsum("ij,ikj->ik", headings.vectors, diff)  # d_i . d_ij
        # cos(alpha_ij) / |d_ij| = (d_i . d_ij) / (|d_i| |d_ij|^2)
        weights = np.where(
            (dots > 0) & (dist > COINCIDENT_DISTANCE),
            dots / (speed[:, None] * dist * dist),
            0.0,
        )
    weights[~headings.valid, :] = 0.0
    weights[~present, :] = 0.0
    weights[:, ~present] = 0.0
    np.fill_diagonal(weights, 0.0)
    return weights


def build_planning_graph(sample: Sample, beta_degrees: float) -> np.ndarray:
    """Unit edges into the ego (column 0) for agents whose heading points
    within ``+/- beta_degrees`` of the ego's planned endpoint."""
    pos, present = sample.observed[:, -1], sample.obs_mask[:, -1]
    headings = motion_directions(sample)
    n = pos.shape[0]
    weights = np.zeros((n, n))
    endpoint = sample.ego_plan[-1]
    to_end = endpoint[None, :] - pos  # (N, 2), agent -> planned ego endpoint
    reach = np.linalg.norm(to_end, axis=1)
    speed = np.linalg.norm(headings.vectors, axis=1)
    cos_beta = np.cos(np.deg2rad(beta_degrees))
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_alpha = np.einsum("ij,ij->i", headings.vectors, to_end) / (speed * reach)
    aligned = (
        headings.valid
        & present
        & (reach > COINCIDENT_DISTANCE)
        & (cos_alpha >= cos_beta)
    )
    aligned[Sample.EGO_INDEX] = False
    weights[aligned, Sample.EGO_INDEX] = 1.0
    if not present[Sample.EGO_INDEX]:
        weights[:, Sample.EGO_INDEX] = 0.0
    return weights


def build_category_graph(sample: Sample) -> np.ndarray:
    """Unit edges between distinct same-category agents."""
    cats = np.asarray(sample.categories)
    present = sample.obs_mask[:, -1]
    weights = (cats[:, None] == cats[None, :]).astype(np.float64)
    weights[~present, :] = 0.0
    weights[:, ~present] = 0.0
    np.fill_diagonal(weights, 0.0)
    return weights


def build_adjacency(sample: Sample, d_d: float = 10.0,
                    beta_degrees: float = 20.0) -> AdjacencySet:
    """All four graphs for one sample."""
    return AdjacencySet(
        distance=build_distance_graph(sample, d_d),
        visibility=build_visibility_graph(sample),
        planning=build_planning_graph(sample, beta_degrees),
        category=build_category_graph(sample),
    )


def normalize_adjacency(e: np.ndarray) -> np.ndarray:
    """Column-stochastic normalization of ``E + I``.

    The identity gives every column a positive sum, so each column of the
    result sums to exactly 1; the zero matrix normalizes to the identity.
    """
    e = np.asarray(e, dtype=np.float64)
    if e.ndim != 2 or e.shape[0] != e.shape[1]:
        raise DimensionError(f"adjacency must be square, got {e.shape}")
    e_hat = e + np.eye(e.shape[0])
    return e_hat / e_hat.sum(axis=0, keepdims=True)
