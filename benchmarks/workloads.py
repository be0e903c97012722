"""Workload definitions, seeded input generators, the four timed activities
and their correctness checks.

Every workload runs the same pipeline on its own seeded inputs: a raw
``apollo_like`` table is prepared into samples (load, window, canonical
write and read), and the samples feed training, per-scene prediction and
what-if calls. The workloads differ in scene size and in which activity gets
most of the run. Each activity is a closed loop with one caller.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from epg_mgcn import model, scene, training, whatif

import reference
from calibration import Calibration

CONFIG = model.ModelConfig(channels=64, t_obs_points=6, t_pred=6)
DATASET = scene.DatasetConfig(t_obs_points=6, t_pred_frames=6, frame_rate=2.0)
BATCH_SIZE = 32

# Table geometry: clusters of agents far enough apart (500 m) that no
# neighbourhood (d_d * node_scope = 30 m) spans two of them, each cluster in
# a 12 m box with at most 1 m/frame of motion, so over the 6 observed frames
# every agent of a cluster stays within 30 m of every other and a sample's
# agent count equals its cluster size.
FRAMES = 12
CLUSTER_SPACING = 500.0
CLUSTER_BOX = 12.0
# apollo type code -> (draw weight, max metres per frame at 2 Hz); codes 1
# and 2 map to vehicle, 3 pedestrian, 4 bicyclist, 5 others
TYPE_CODES = {1: (0.2, 1.0), 2: (0.15, 1.0), 3: (0.3, 0.6), 4: (0.2, 0.8),
              5: (0.15, 0.4)}
P_STATIONARY = 0.1
# Which agents are partially present is fixed by their index in the cluster,
# so every seed yields the same egos and the same N sequence; only when they
# enter or leave is drawn. The cluster's first agent is always complete.
LATE_ENTRY = 3  # j % 8: missing from the first 1-4 observed frames
EARLY_EXIT = 6  # j % 8: leaves during the predicted frames

MIN_UNITS = {"prepare": 3, "train": 4, "predict": 20, "whatif": 8}
# kernel runs per calibration sample: more where units are long, so the
# kernel costs a few percent of a unit and one noisy run cannot skew it
CALIBRATION_REPEATS = {"prepare": 3, "train": 5, "predict": 1, "whatif": 3}


@dataclass(frozen=True)
class Workload:
    name: str
    clusters: tuple  # agents per cluster; one cluster size per sample N
    main: str  # the activity that gets most of the run
    shares: dict  # activity -> share of --seconds, prepare first
    scenes: dict  # activity -> how many prepared samples it cycles over


WORKLOADS = {w.name: w for w in (
    Workload(
        # The only workload whose main activity runs backward and Adam; at
        # small N per-op overhead and tape size dominate.
        name="train_mixed",
        clusters=tuple(range(4, 21, 2)),
        main="train",
        shares={"prepare": 0.1, "train": 0.6, "predict": 0.15, "whatif": 0.15},
        scenes={"train": 32, "predict": 32, "whatif": 8},
    ),
    Workload(
        # Forward only, at large N, where temporal_conv and the N^2 graph
        # builders dominate; one plan per scene, so no reuse across plans.
        name="eval_dense",
        clusters=(20, 30, 40, 50, 60),
        main="predict",
        shares={"prepare": 0.2, "predict": 0.45, "train": 0.15, "whatif": 0.2},
        scenes={"train": 4, "predict": 40, "whatif": 5},
    ),
    Workload(
        # Five forward passes per call that share three of the four graphs
        # and their branches, so reuse across plans shows here.
        name="whatif_sweep",
        clusters=tuple(range(8, 21, 2)),
        main="whatif",
        shares={"prepare": 0.1, "whatif": 0.6, "train": 0.15, "predict": 0.15},
        scenes={"train": 8, "predict": 32, "whatif": 21},
    ),
)}


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


@dataclass
class Table:
    path: Path
    rows: int
    expected_n: dict  # ego agent id -> agents in its sample


def make_table(rng, clusters, path) -> Table:
    """Write a raw ``apollo_like`` table (frame agent type x y).

    Agent ids interleave the clusters (agent j of cluster c gets id
    j * len(clusters) + c), so samples, which come out in ego-id order, cycle
    through the cluster sizes and any prefix of them has the same N mix.
    """
    codes = np.array(list(TYPE_CODES))
    weights = np.array([w for w, _ in TYPE_CODES.values()])
    rows = []
    expected_n = {}
    for c, size in enumerate(clusters):
        origin = np.array([CLUSTER_SPACING * c, 0.0])
        for j in range(size):
            agent = j * len(clusters) + c
            code = int(rng.choice(codes, p=weights))
            start = origin + rng.uniform(0.0, CLUSTER_BOX, size=2)
            speed = rng.uniform(0.0, TYPE_CODES[code][1])
            heading = rng.uniform(0.0, 2 * np.pi)
            if rng.random() < P_STATIONARY:
                speed = 0.0
            velocity = speed * np.array([np.cos(heading), np.sin(heading)])
            first, last = 0, FRAMES - 1
            if j % 8 == LATE_ENTRY:
                first = int(rng.integers(1, DATASET.t_obs_points - 1))
            elif j % 8 == EARLY_EXIT:
                last = int(rng.integers(DATASET.t_obs_points + 1, FRAMES - 1))
            for f in range(first, last + 1):
                x, y = start + f * velocity
                rows.append((f, agent, code, x, y))
            if first == 0 and last == FRAMES - 1:
                expected_n[agent] = size
    rows.sort()
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for f, agent, code, x, y in rows:
            fh.write(f"{f} {agent} {code} {float(x)!r} {float(y)!r}\n")
    return Table(path, len(rows), expected_n)


def alternative_plans(sample) -> dict:
    """Brake, accelerate and swerve 35 degrees either way, all derived from
    the ego's recorded plan around its current position."""
    current = sample.observed[0, -1]
    step = sample.ego_plan - current

    def turned(deg):
        a = np.deg2rad(deg)
        return step @ np.array([[np.cos(a), np.sin(a)], [-np.sin(a), np.cos(a)]])

    return {"brake": current + 0.25 * step, "accelerate": current + 1.75 * step,
            "swerve_left": current + turned(35.0),
            "swerve_right": current + turned(-35.0)}


@dataclass
class Inputs:
    table: Table
    params: model.ModelParams
    seed: int


def make_inputs(workload, seed, workdir) -> Inputs:
    """Everything a run needs before its first timed operation."""
    rng = np.random.default_rng(seed)
    table = make_table(rng, workload.clusters, Path(workdir) / "table.txt")
    return Inputs(table, model.ModelParams.initialize(CONFIG, seed=seed), seed)


# ---------------------------------------------------------------------------
# timed activities
# ---------------------------------------------------------------------------


@dataclass
class Phase:
    """One activity's closed loop: per-unit times plus what it produced."""

    activity: str
    scenes: list = field(default_factory=list)
    traced: bool = False
    raw: list = field(default_factory=list)  # seconds per timed unit
    durations: list = field(default_factory=list)  # the same, calibrated
    outputs: list = field(default_factory=list)
    attempted: int = 0  # units: prepare passes, training samples, calls
    failed: int = 0
    work: int = 0  # units of work for per-layer rates
    calibration: Calibration | None = None


def _bump(tracer):
    if tracer is not None:
        tracer.unit += 1


def _run_units(phase, call, n_items, budget, minimum, count, tracer):
    """Closed loop over items 0..n_items-1, cycling. Stops after ``count``
    units, or at the end of a whole cycle once ``budget`` seconds have passed
    and at least ``minimum`` units ran, so every item runs equally often."""
    cal = Calibration(CALIBRATION_REPEATS[phase.activity])
    timed = []
    start = time.perf_counter()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif (i >= minimum and i % n_items == 0
              and time.perf_counter() - start >= budget):
            break
        _bump(tracer)
        phase.attempted += 1
        try:
            t0 = time.perf_counter()
            out = call(i % n_items)
            timed.append((i, time.perf_counter() - t0))
        except Exception as exc:  # counted as a failed unit, never raised
            phase.failed += 1
            out = exc
        phase.outputs.append((i % n_items, out))
        cal.sample()
        i += 1
    phase.raw = [raw for _, raw in timed]
    phase.durations = [raw * cal.factor(i) for i, raw in timed]
    phase.calibration = cal
    return phase


def run_prepare(inputs, workdir, budget, count=None, tracer=None) -> Phase:
    canonical = Path(workdir) / "samples.jsonl"

    def prepare(_):
        tracks = scene.load_trajectory_table(inputs.table.path, "apollo_like")
        windowed = scene.window_samples(tracks, DATASET)
        scene.write_canonical(windowed, canonical)
        return windowed, scene.read_canonical(canonical)

    phase = _run_units(Phase("prepare"), prepare, 1, budget,
                       MIN_UNITS["prepare"], count, tracer)
    phase.work = sum(len(out[1]) for _, out in phase.outputs
                     if not isinstance(out, Exception))
    return phase


def run_predict(samples, inputs, budget, count=None, tracer=None) -> Phase:
    phase = _run_units(
        Phase("predict", scenes=samples),
        lambda k: model.predict(samples[k], CONFIG, inputs.params),
        len(samples), budget, MIN_UNITS["predict"], count, tracer)
    phase.work = phase.attempted
    return phase


def run_whatif(samples, inputs, budget, count=None, tracer=None) -> Phase:
    plans = [alternative_plans(s) for s in samples]
    phase = _run_units(
        Phase("whatif", scenes=samples),
        lambda k: whatif.what_if(samples[k], plans[k], inputs.params, CONFIG),
        len(samples), budget, MIN_UNITS["whatif"], count, tracer)
    phase.work = phase.attempted
    return phase


class _Stop(Exception):
    pass


def run_train(samples, inputs, budget, count=None, tracer=None) -> Phase:
    """One ``train()`` call, stopped from its progress callback once the
    budget (or ``count`` epochs) is reached; one time per epoch after the
    first, which also pays for train()'s own preparation and for growing the
    heap to the size of a batch's tape. The calibration kernel runs in the
    callback, outside the epoch times."""
    phase = Phase("train", scenes=samples)
    cal = Calibration(CALIBRATION_REPEATS["train"])
    starts, ends, losses = [time.perf_counter()], [], []

    def progress(record):
        ends.append(time.perf_counter())
        losses.append(record.mean_loss)
        _bump(tracer)
        cal.sample()
        done = len(losses)
        if count is not None:
            if done >= count:
                raise _Stop
        elif done >= MIN_UNITS["train"] and ends[-1] - starts[0] >= budget:
            raise _Stop
        starts.append(time.perf_counter())

    config = training.TrainConfig(batch_size=BATCH_SIZE, max_epochs=10 ** 6,
                                  seed=inputs.seed)
    try:
        training.train(samples, CONFIG, config, progress=progress)
    except _Stop:
        pass
    except Exception as exc:  # the epoch in progress failed
        phase.failed += len(samples)
        phase.attempted += len(samples)
        phase.outputs.append(exc)
    raw = [end - start for start, end in zip(starts, ends)]
    phase.raw = raw[1:]
    phase.durations = [t * cal.factor(k) for k, t in enumerate(raw)][1:]
    phase.calibration = cal
    phase.outputs.insert(0, losses)
    phase.attempted += len(losses) * len(samples)
    phase.work = len(losses) * len(samples)
    return phase


RUNNERS = {"train": run_train, "predict": run_predict, "whatif": run_whatif}


def scenes_for(activity, workload, prepared):
    return prepared[:workload.scenes[activity]]


# ---------------------------------------------------------------------------
# correctness checks, run after timing
# ---------------------------------------------------------------------------


def as_reference_scene(sample):
    return {"observed": sample.observed, "future": sample.future,
            "plan": sample.ego_plan, "obs_mask": sample.obs_mask,
            "fut_mask": sample.fut_mask, "categories": sample.categories}


def _same_sample(a, b) -> bool:
    return (a.categories == b.categories and a.agent_ids == b.agent_ids
            and a.frame_rate == b.frame_rate
            and all(np.array_equal(getattr(a, f), getattr(b, f)) and
                    getattr(a, f).dtype == getattr(b, f).dtype
                    for f in ("observed", "future", "ego_plan", "obs_mask",
                              "fut_mask", "origin")))


def check_prepare(phase, table) -> int:
    """Sample count and per-sample agent count from the generator, plus a
    bitwise canonical round trip. Returns failed reps."""
    failed = 0
    for _, out in phase.outputs:
        if isinstance(out, Exception):
            continue
        windowed, back = out
        ok = (len(windowed) == len(table.expected_n) == len(back)
              and all(s.agent_ids[0] in table.expected_n
                      and s.n_agents == table.expected_n[s.agent_ids[0]]
                      for s in windowed)
              and all(_same_sample(a, b) for a, b in zip(windowed, back)))
        failed += not ok
    return failed


def _rel(pred, sample):
    """Predictions relative to the ego's last observed position, so that
    the tolerance scales with the scene and not with its map offset."""
    return np.asarray(pred) - sample.observed[0, -1]


def check_predict(phase, ref_params) -> int:
    expected = {}
    failed = 0
    for k, pred in phase.outputs:
        if isinstance(pred, Exception):
            continue
        sample = phase.scenes[k]
        if k not in expected:
            expected[k] = _rel(reference.predict(as_reference_scene(sample), ref_params), sample)
        failed += not reference.close(_rel(pred, sample), expected[k])
    return failed


def check_whatif(phase, inputs, ref_params) -> int:
    """Base predictions, planning columns, divergences and max coordinate
    shifts against the reference; the base must also equal ``predict()``."""
    expected = {}
    failed = 0
    for k, out in phase.outputs:
        if isinstance(out, Exception):
            continue
        sample = phase.scenes[k]
        plans = alternative_plans(sample)
        if k not in expected:
            ref_base, ref_alts = reference.what_if(as_reference_scene(sample),
                                                   list(plans.values()), ref_params)
            expected[k] = (_rel(ref_base, sample), ref_alts,
                           _rel(model.predict(sample, CONFIG, inputs.params), sample))
        ref_base, ref_alts, predicted = expected[k]
        base, alts = out
        ok = (reference.close(_rel(base.predictions, sample), ref_base)
              and reference.close(_rel(base.predictions, sample), predicted)
              and [a.name for a in alts] == list(plans)
              and all(np.array_equal(a.planning_column, col)
                      and reference.close(a.divergence, div)
                      and reference.close(a.max_coordinate_diff, shift)
                      for a, (col, div, shift, _) in zip(alts, ref_alts)))
        failed += not ok
    return failed


GRADIENT_SCENES = 2


def check_train(phase, inputs) -> int:
    """Loss trace against the reference replay; a wrong epoch fails all of
    its samples. Adam is blind to a gradient that is off by a constant
    factor, so the gradients of the first scenes at the initial parameters
    are compared too; a mismatch fails every sample of the phase."""
    losses = phase.outputs[0]
    if not losses:
        return 0
    scenes = [as_reference_scene(s) for s in phase.scenes]
    expected = reference.train_losses(scenes, CONFIG.channels, inputs.seed,
                                      BATCH_SIZE, len(losses))
    failed = sum(len(phase.scenes) for got, want in zip(losses, expected)
                 if not reference.close(got, want))
    ref_params = reference.init_params(CONFIG.channels, inputs.seed)
    for sample, ref_scene in zip(phase.scenes[:GRADIENT_SCENES], scenes):
        params = model.ModelParams.initialize(CONFIG, seed=inputs.seed)
        centered = scene.ego_center(sample)
        loss, _ = model.prediction_loss(model.forward(centered, CONFIG, params),
                                        centered, CONFIG)
        loss.backward()
        ref_loss, ref_grads = reference.gradients(ref_scene, ref_params)
        grads_ok = all(
            reference.close(np.zeros_like(t.data) if t.grad is None else t.grad,
                            ref_grads[name])
            for name, t in params.items())
        if not (grads_ok and reference.close(loss.item(), ref_loss)):
            return phase.attempted
    return failed


def same_outputs(a, b) -> bool:
    """Bitwise equality of two runs of one activity over the same units."""
    if a.activity == "train":
        return a.outputs[0] == b.outputs[0]
    if len(a.outputs) != len(b.outputs):
        return False
    for (ka, x), (kb, y) in zip(a.outputs, b.outputs):
        if ka != kb or isinstance(x, Exception) or isinstance(y, Exception):
            return False
        if a.activity == "predict":
            if not np.array_equal(x, y):
                return False
        else:
            runs_x = [x[0]] + x[1]
            runs_y = [y[0]] + y[1]
            if not all(np.array_equal(p.predictions, q.predictions)
                       for p, q in zip(runs_x, runs_y)):
                return False
    return True
