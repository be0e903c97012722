"""Shared fixtures: hand-built samples and randomized scene generation."""

import numpy as np
import pytest

from epg_mgcn.scene import CATEGORIES, Sample


def make_sample(observed, categories, future=None, plan=None, obs_mask=None,
                fut_mask=None, frame_rate=2.0, t_pred=4):
    """Assemble a valid Sample from raw arrays, filling sane defaults."""
    observed = np.asarray(observed, dtype=np.float64)
    n, p = observed.shape[:2]
    if future is None:
        # constant-velocity continuation
        vel = observed[:, -1] - observed[:, -2]
        steps = np.arange(1, t_pred + 1)[None, :, None]
        future = observed[:, -1][:, None, :] + steps * vel[:, None, :]
    future = np.asarray(future, dtype=np.float64)
    if plan is None:
        plan = future[0].copy()
    return Sample(
        categories=list(categories),
        observed=observed,
        future=future,
        ego_plan=np.asarray(plan, dtype=np.float64),
        obs_mask=np.ones((n, p), dtype=bool) if obs_mask is None else np.asarray(obs_mask, dtype=bool),
        fut_mask=np.ones(future.shape[:2], dtype=bool) if fut_mask is None else np.asarray(fut_mask, dtype=bool),
        frame_rate=frame_rate,
        agent_ids=list(range(n)),
    )


def without_agents(sample):
    """``sample`` with every agent row dropped, the ego's included."""
    return Sample(categories=[], observed=sample.observed[:0],
                  future=sample.future[:0], ego_plan=sample.ego_plan.copy(),
                  obs_mask=sample.obs_mask[:0], fut_mask=sample.fut_mask[:0],
                  frame_rate=sample.frame_rate)


def random_scene(rng, n_max=20, t_obs=4, t_pred=5, degenerate=True):
    """A random but valid scene: linear motion with optional stationary
    agents and partially observed neighbors.

    Coordinates are quantized to multiples of 1/1024 so that perfectly
    exact geometric properties (translation invariance under integer
    offsets) hold in float64, with no rounding sneaking in.
    """
    n = int(rng.integers(2, n_max + 1))
    final = np.round(rng.uniform(-20.0, 20.0, size=(n, 2)) * 1024) / 1024
    vel = np.round(rng.uniform(-2.0, 2.0, size=(n, 2)) * 1024) / 1024
    if degenerate:
        stationary = rng.random(n) < 0.2
        vel[stationary] = 0.0
    steps = np.arange(t_obs - 1, -1, -1)[None, :, None]
    observed = final[:, None, :] - steps * vel[:, None, :]
    obs_mask = np.ones((n, t_obs), dtype=bool)
    if degenerate:
        for i in range(1, n):
            if rng.random() < 0.15:
                obs_mask[i, : int(rng.integers(1, t_obs))] = False
            if rng.random() < 0.1:
                obs_mask[i, -1] = False  # absent at the window end
    observed = observed * obs_mask[:, :, None]
    fsteps = np.arange(1, t_pred + 1)[None, :, None]
    future = final[:, None, :] + fsteps * vel[:, None, :]
    plan = future[0].copy()
    if rng.random() < 0.5:
        # a plan that differs from the recorded ego future
        plan = plan + np.round(rng.uniform(-8.0, 8.0, size=2) * 1024) / 1024
    categories = [CATEGORIES[int(k)] for k in rng.integers(0, len(CATEGORIES), size=n)]
    return Sample(
        categories=categories,
        observed=observed,
        future=future,
        ego_plan=plan,
        obs_mask=obs_mask,
        fut_mask=np.ones((n, t_pred), dtype=bool),
        frame_rate=2.0,
        agent_ids=list(range(n)),
    )


def gradcheck_scene():
    """Fixed 3-agent scene for end-to-end gradient verification.

    Gentle scripted kinematics; with parameter seed 10 every nonzero
    gradient coordinate is >= 1e-7, keeping the finite-difference probe far
    from its roundoff floor.
    """
    t_obs, t_pred = 6, 4
    starts = np.array([[0.0, 0.0], [4.0, 1.0], [-3.0, 2.0]])
    vels = 0.3 * np.array([[1.0, 0.17], [-0.67, 0.33], [0.5, -0.83]])
    to = np.arange(t_obs)[None, :, None]
    observed = starts[:, None, :] + to * vels[:, None, :]
    tf = np.arange(1, t_pred + 1)[None, :, None]
    future = observed[:, -1][:, None, :] + tf * vels[:, None, :]
    return Sample(
        categories=["vehicle", "pedestrian", "vehicle"],
        observed=observed,
        future=future,
        ego_plan=future[0].copy(),
        obs_mask=np.ones((3, t_obs), dtype=bool),
        fut_mask=np.ones((3, t_pred), dtype=bool),
        frame_rate=2.0,
        agent_ids=[0, 1, 2],
    )


GRADCHECK_PARAM_SEED = 10


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
