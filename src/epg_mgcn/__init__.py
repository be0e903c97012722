"""Ego-planning guided multi-graph trajectory prediction.

A numpy-based toolkit that builds four interaction graphs (distance,
visibility, planning, category) from observed agent tracks, trains a
multi-graph convolutional network conditioned on the ego vehicle's planned
trajectory, and evaluates predictions with displacement metrics, ablations,
and what-if analysis under alternative plans. Differentiation is a small
deterministic reverse-mode core with a finite-difference verifier.
"""

__version__ = "0.1.0"

from .autograd import GRUParams, Tensor
from .gradcheck import finite_diff_check
from .graphs import (
    AdjacencySet,
    build_adjacency,
    build_category_graph,
    build_distance_graph,
    build_planning_graph,
    build_visibility_graph,
    motion_directions,
    normalize_adjacency,
)
from .metrics import MetricReport, displacement_errors, evaluate, weighted_scores
from .model import (
    ModelConfig,
    ModelParams,
    forward,
    load_params,
    predict,
    prediction_loss,
    save_params,
)
from .optim import Adam
from .scene import (
    AgentTrack,
    DatasetConfig,
    Sample,
    ego_center,
    load_trajectory_table,
    read_canonical,
    window_samples,
    write_canonical,
)
from .synthetic import make_synthetic_dataset
from .training import TrainConfig, checkpoint_load, checkpoint_save, lr_at, train
from .whatif import what_if
