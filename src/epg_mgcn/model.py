"""The prediction network.

Observed tracks are embedded to C channels, pushed through one branch of
stacked graph-convolution blocks per enabled interaction graph (spatial
mixing with the column-normalized adjacency, then a same-padded 3-tap
temporal convolution), fused across branches with a 1x1 convolution, fused
again with the encoded ego plan, and decoded per category by GRU
encoder-decoder pairs that emit per-step displacements accumulated onto each
agent's last observed position. Features are time-major, (N, T, C).

Parameters live in a flat, deterministically ordered name -> Tensor registry
(:class:`ModelParams`); ablation configurations register only the tensors
their enabled components need.
"""

from __future__ import annotations

import dataclasses
import json
import os
import zipfile
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import autograd as ag
from . import graphs
from .autograd import GRUParams, Tensor
from .errors import DataError, DimensionError, FormatError, RoutingError, UsageError
from .graphs import GRAPH_NAMES, AdjacencySet, build_adjacency, normalize_adjacency
from .scene import CATEGORIES, Sample, ego_center, validate_sample

__all__ = [
    "ModelConfig",
    "ModelParams",
    "embed_inputs",
    "graph_conv_block",
    "fuse_graph_features",
    "encode_plan",
    "fuse_plan_features",
    "cs_gru_decode",
    "supervised_mask",
    "PreparedSample",
    "prepare",
    "prepare_each",
    "replan",
    "forward",
    "predict",
    "prediction_loss",
    "save_params",
    "load_params",
]

_GATES = ("z", "r", "h")

CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class ModelConfig:
    """Architecture switches; the ablation ladder toggles the last three."""

    channels: int = 64
    blocks_per_branch: int = 2
    t_obs_points: int = 6
    t_pred: int = 6
    categories_decoded: tuple = ("vehicle", "pedestrian", "bicyclist")
    enabled_graphs: tuple = GRAPH_NAMES
    planning_fusion_enabled: bool = True
    category_specific_decoders: bool = True
    d_d: float = 10.0
    beta_degrees: float = 20.0

    def __post_init__(self):
        object.__setattr__(self, "categories_decoded", tuple(self.categories_decoded))
        object.__setattr__(self, "enabled_graphs", tuple(self.enabled_graphs))
        if not self.enabled_graphs:
            raise UsageError("at least one graph must be enabled")
        for g in self.enabled_graphs:
            if g not in GRAPH_NAMES:
                raise UsageError(f"unknown graph {g!r}")
        for c in self.categories_decoded:
            if c not in CATEGORIES:
                raise UsageError(f"unknown category {c!r}")
        # parameters exist once per name, so a repeated name would make the
        # config disagree with the checkpoint written under it
        for attr in ("enabled_graphs", "categories_decoded"):
            names = getattr(self, attr)
            for i, name in enumerate(names):
                if name in names[:i]:
                    raise UsageError(f"{attr} repeats {name!r}")
        if self.channels < 1 or self.blocks_per_branch < 1:
            raise UsageError("channels and blocks_per_branch must be positive")
        if self.t_obs_points < 2 or self.t_pred < 1:
            raise UsageError("t_obs_points >= 2 and t_pred >= 1 required")

    @property
    def branch_order(self) -> tuple:
        return tuple(g for g in GRAPH_NAMES if g in self.enabled_graphs)

    @property
    def decoder_keys(self) -> tuple:
        if self.category_specific_decoders:
            return self.categories_decoded
        return ("shared",)

    def require_same(self, stored: "ModelConfig") -> None:
        """Raise FormatError naming the first field in which the ``stored``
        (checkpoint) configuration differs from this one. Fields that leave
        parameter shapes alone, such as ``d_d``, still change predictions."""
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(stored, f.name)
            if mine != theirs:
                raise FormatError(f"checkpoint config field '{f.name}' is "
                                  f"{theirs!r}, expected {mine!r}")


def _gru_specs(prefix: str, c_in: int, c_h: int):
    for gate in _GATES:
        yield f"{prefix}.w_{gate}", (c_in, c_h), c_in
        yield f"{prefix}.u_{gate}", (c_h, c_h), c_h
        yield f"{prefix}.b_{gate}", (c_h,), None


def param_specs(config: ModelConfig):
    """Ordered (name, shape, fan_in) triples; fan_in None means zero-init."""
    c = config.channels
    yield "embed.weight", (c, 2), 2
    yield "embed.bias", (c,), None
    for g in config.branch_order:
        for b in range(config.blocks_per_branch):
            yield f"branch.{g}.block{b}.spatial.weight", (c, c), c
            yield f"branch.{g}.block{b}.temporal.kernel", (c, c, 3), 3 * c
    n_branches = len(config.branch_order)
    yield "graph_fusion.weight", (1, n_branches), n_branches
    yield "graph_fusion.bias", (1,), None
    if config.planning_fusion_enabled:
        yield "plan.embed.weight", (c, 2), 2
        yield "plan.embed.bias", (c,), None
        yield from _gru_specs("plan.gru", c, c)
        yield "plan_fusion.weight", (1, 2), 2
        yield "plan_fusion.bias", (1,), None
    for key in config.decoder_keys:
        yield from _gru_specs(f"decoder.{key}.enc", c, c)
        yield f"decoder.{key}.pos_embed.weight", (c, 2), 2
        yield f"decoder.{key}.pos_embed.bias", (c,), None
        yield from _gru_specs(f"decoder.{key}.dec", c, c)
        yield f"decoder.{key}.out.weight", (2, c), c
        yield f"decoder.{key}.out.bias", (2,), None


class ModelParams:
    """Flat registry of learnable tensors, keyed by dotted names.

    Creation order follows :func:`param_specs`, so initialization from a
    seeded generator is reproducible and every tensor is registered exactly
    once with the optimizer.
    """

    def __init__(self, config: ModelConfig, tensors: dict):
        self.config = config
        self.tensors = tensors

    @classmethod
    def initialize(cls, config: ModelConfig, seed: int = 0,
                   dtype=np.float64) -> "ModelParams":
        """Weights uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)], biases zero."""
        rng = np.random.default_rng(seed)
        tensors = {}
        for name, shape, fan_in in param_specs(config):
            if fan_in is None:
                data = np.zeros(shape, dtype=dtype)
            else:
                bound = 1.0 / np.sqrt(fan_in)
                data = rng.uniform(-bound, bound, size=shape).astype(dtype)
            tensors[name] = Tensor(data, requires_grad=True, name=name)
        return cls(config, tensors)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self.tensors

    def names(self) -> list:
        return list(self.tensors)

    def items(self):
        return self.tensors.items()

    def gru(self, prefix: str) -> GRUParams:
        return GRUParams(**{
            f"{w}_{g}": self.tensors[f"{prefix}.{w}_{g}"]
            for g in _GATES for w in ("w", "u", "b")
        })

    def detached(self) -> "ModelParams":
        """The same arrays, not requiring gradients: a forward pass on them
        records no backward tape, so its intermediates are freed as it
        goes."""
        return ModelParams(self.config, {
            name: Tensor(t.data, name=name) for name, t in self.tensors.items()
        })


# ---------------------------------------------------------------------------
# forward pieces
# ---------------------------------------------------------------------------
#
# Every piece takes one sample or a batch of them. The agents of a batch are
# concatenated scene after scene along the agent axis; per-agent steps
# (embedding, temporal convolution, fusion, decoders) run on all of them at
# once, and only the spatial mixing and the plan encoding see the scenes.


def _scenes(samples) -> list:
    """A scene as a batch of one, or the batch as a list."""
    return [samples] if isinstance(samples, (Sample, PreparedSample)) else list(samples)


def embed_inputs(samples, params: ModelParams, config: ModelConfig) -> Tensor:
    """Lift observed 2-D coordinates to C channels, time-major like the
    observations. Masked frames produce zero feature rows. Returns
    (sum N, T_obs_points, C)."""
    scenes = _scenes(samples)
    observed = np.concatenate([s.observed for s in scenes])
    mask = np.concatenate([s.obs_mask for s in scenes])
    feats = ag.channel_mix(Tensor(observed),
                           params["embed.weight"], params["embed.bias"])
    return ag.mul(feats, mask[:, :, None].astype(observed.dtype))


def graph_conv_block(z: Tensor, norm_adj, spatial_weight: Tensor,
                     temporal_kernel: Tensor) -> Tensor:
    """One block on time-major features ``z`` (N, T, C): per-frame spatial
    mixing with the normalized adjacency and the learnable channel map,
    ReLU, then a same-padded temporal convolution. Neither step carries a
    bias, so zero features stay zero. Returns (N, T, C).

    ``norm_adj`` is one scene's (N, N) matrix, or a sequence with one matrix
    per scene of a batch: a block-diagonal mixing that never couples
    agents of different scenes."""
    blocks = [norm_adj] if isinstance(norm_adj, np.ndarray) else norm_adj
    lifted = ag.channel_mix(ag.block_matmul(blocks, z), spatial_weight)
    return ag.temporal_conv(ag.relu(lifted), temporal_kernel)


def _branch(z: Tensor, norm_adj, params: ModelParams,
            graph_name: str, config: ModelConfig) -> Tensor:
    out = z
    for b in range(config.blocks_per_branch):
        out = graph_conv_block(
            out, norm_adj,
            params[f"branch.{graph_name}.block{b}.spatial.weight"],
            params[f"branch.{graph_name}.block{b}.temporal.kernel"],
        )
    return out


def _fuse(parts, weight: Tensor, bias: Tensor) -> Tensor:
    """``relu(bias + sum_s weight[0, s] * part_s)``: a 1x1 convolution over
    the S stacked maps, written as a weighted sum. A part may broadcast
    against the others, so nothing is stacked or tiled."""
    out = bias
    for s, part in enumerate(parts):
        out = ag.add(out, ag.mul(weight[0, s], part))
    return ag.relu(out)


def fuse_graph_features(branch_outputs, params: ModelParams) -> Tensor:
    """Mix the enabled branches' (N, T, C) outputs down to one map with a
    1x1 convolution over the branches plus ReLU: the weighted sum of
    :func:`_fuse`, one weight per enabled graph."""
    return _fuse(branch_outputs, params["graph_fusion.weight"],
                 params["graph_fusion.bias"])


def encode_plan(ego_plan: np.ndarray, params: ModelParams,
                config: ModelConfig) -> Tensor:
    """Embed the planned trajectory per frame and scan it with a GRU from a
    zero initial state; returns the final hidden state. One (T_pred, 2)
    plan gives (C,); S plans stacked time-major, (T_pred, S, 2), run as the
    S rows of one scan and give (S, C)."""
    embedded = ag.channel_mix(Tensor(np.asarray(ego_plan)),
                              params["plan.embed.weight"],
                              params["plan.embed.bias"])  # (T, [S,] C)
    gru = params.gru("plan.gru")
    h = Tensor(np.zeros(embedded.shape[1:-1] + (config.channels,),
                        dtype=embedded.data.dtype))
    for t in range(embedded.shape[0]):
        h = ag.gru_cell(embedded[t], h, gru)
    return h


def fuse_plan_features(f_graphs: Tensor, plan_encoding,
                       params: ModelParams, config: ModelConfig) -> Tensor:
    """Fuse the graph features (N, T, C) with the plan encoding by a 1x1
    convolution over the two plus ReLU (:func:`_fuse`). The encoding is one
    (C,) vector for every agent or one (N, C) row per agent; viewed as
    (1, 1, C) or (N, 1, C), it broadcasts over agents and frames. With
    planning fusion disabled this is just ReLU of the graph features (no
    parameters)."""
    if not config.planning_fusion_enabled:
        return ag.relu(f_graphs)
    plan = ag.reshape(plan_encoding, (-1, 1, f_graphs.shape[-1]))
    return _fuse([f_graphs, plan], params["plan_fusion.weight"],
                 params["plan_fusion.bias"])


def supervised_mask(sample: Sample, config: ModelConfig) -> np.ndarray:
    """Agents that contribute to the loss and metrics: non-ego, fully
    observed future, and of a decoded category."""
    mask = sample.fut_mask.all(axis=1)
    mask[Sample.EGO_INDEX] = False
    decodable = np.array([c in config.categories_decoded
                          for c in sample.categories])
    return mask & decodable


def cs_gru_decode(f_fusion: Tensor, samples, params: ModelParams,
                  config: ModelConfig) -> Tensor:
    """Decode every agent whose category has a decoder; context-only agents
    keep their last observed position. Returns (sum N, T_pred, 2).

    Per agent: the encoder GRU scans its fused features to a hidden state,
    the decoder GRU starts from that state with the embedded current
    position as first input, and each step's hidden state projects to a
    displacement added onto the previous position. A decoder runs the
    agents of its category from every scene of the batch as one group: it
    takes their rows of ``f_fusion`` by one index and stacks its positions
    along a new step axis, (B, T_pred, 2). One more index puts the groups'
    rows back in the scenes' agent order.
    """
    scenes = _scenes(samples)
    categories = [c for s in scenes for c in s.categories]
    current = np.concatenate([s.observed[:, -1] for s in scenes])  # (N, 2)
    n = len(categories)
    groups: dict = {}
    undecoded = []
    for i, cat in enumerate(categories):
        if cat not in config.categories_decoded:
            undecoded.append(i)
            continue
        key = cat if config.category_specific_decoders else "shared"
        if f"decoder.{key}.out.weight" not in params:
            raise RoutingError(f"no decoder registered for category {cat!r}")
        groups.setdefault(key, []).append(i)

    order = []
    blocks = []
    for key in sorted(groups):
        idx = groups[key]
        f_in = f_fusion[idx]  # (B, T, C)
        enc = params.gru(f"decoder.{key}.enc")
        dec = params.gru(f"decoder.{key}.dec")
        h = Tensor(np.zeros((len(idx), config.channels), dtype=f_in.data.dtype))
        for t in range(f_in.shape[1]):
            h = ag.gru_cell(f_in[:, t], h, enc)
        pos = Tensor(current[idx])  # (B, 2)
        steps = []
        for _ in range(config.t_pred):
            inp = ag.channel_mix(pos, params[f"decoder.{key}.pos_embed.weight"],
                                 params[f"decoder.{key}.pos_embed.bias"])
            h = ag.gru_cell(inp, h, dec)
            delta = ag.channel_mix(h, params[f"decoder.{key}.out.weight"],
                                   params[f"decoder.{key}.out.bias"])
            pos = ag.add(pos, delta)
            steps.append(pos)
        blocks.append(ag.stack(steps, axis=1))  # (B, T_pred, 2)
        order.extend(idx)
    if undecoded:
        last = current[undecoded]
        blocks.append(Tensor(np.repeat(last[:, None, :], config.t_pred, axis=1)))
        order.extend(undecoded)

    combined = ag.concat(blocks, axis=0) if len(blocks) > 1 else blocks[0]
    inverse = np.empty(n, dtype=np.intp)
    inverse[np.asarray(order, dtype=np.intp)] = np.arange(n)
    return combined[inverse]


@dataclass(frozen=True)
class PreparedSample:
    """One scene as network input: the ego-centered sample in the run's
    dtype, its four raw graphs, and the column-normalized ``E + I`` of each
    enabled graph (name -> (N, N) in that dtype)."""

    sample: Sample
    adjacency: AdjacencySet
    normalized: dict


def prepare(sample: Sample, config: ModelConfig,
            dtype=np.float64) -> PreparedSample:
    """Cast ``sample`` to ``dtype``, check it, ego-center it in that dtype,
    check it again (centering can overflow), and build and normalize its
    graphs. The one place a sample becomes network input: build it once per
    sample per run, and ``forward`` normalizes nothing."""
    cast = dataclasses.replace(sample, **{
        f: getattr(sample, f).astype(dtype)
        for f in ("observed", "future", "ego_plan")})
    validate_sample(cast)  # ego_center reads the ego's last observed point
    return _prepared(ego_center(cast), None, config)


def prepare_each(samples, config: ModelConfig, dtype=np.float64):
    """Yield :func:`prepare` of each sample in turn. A refused sample's
    DataError or DimensionError names its index."""
    for index, sample in enumerate(samples):
        try:
            prepared = prepare(sample, config, dtype)
        except (DataError, DimensionError) as exc:
            raise type(exc)(f"sample {index}: {exc}") from None
        yield prepared


def _prepared(centered: Sample, adjacency: AdjacencySet | None,
              config: ModelConfig) -> PreparedSample:
    """Refuse a sample that breaks ``validate_sample`` (DataError) or the
    config's frame counts (DimensionError); build its graphs unless given,
    and normalize them."""
    validate_sample(centered)
    for what, got, want in (
            ("observed points", centered.t_obs_points, config.t_obs_points),
            ("future frames", centered.t_pred, config.t_pred)):
        if got != want:
            raise DimensionError(f"sample has {got} {what}, config expects {want}")
    if adjacency is None:
        adjacency = build_adjacency(centered, config.d_d, config.beta_degrees)
    dtype = centered.observed.dtype
    return PreparedSample(centered, adjacency, {
        g: normalize_adjacency(getattr(adjacency, g)).astype(dtype)
        for g in config.branch_order})


def replan(prepared: PreparedSample, ego_plan,
           config: ModelConfig) -> PreparedSample:
    """``prepared`` under another ego plan, given in the sample's original
    frame; a plan that is not (t_pred, 2) or not finite is a UsageError.
    Only the planning graph depends on the plan, so only it is re-made, raw
    and normalized; the other graphs are shared with ``prepared``."""
    plan = np.asarray(ego_plan, dtype=np.float64)
    if plan.shape != (config.t_pred, 2):
        raise UsageError(f"plan has shape {plan.shape}, "
                         f"expected ({config.t_pred}, 2)")
    if not np.isfinite(plan).all():
        raise UsageError("plan has a non-finite entry")
    dtype = prepared.sample.observed.dtype
    sample = dataclasses.replace(
        prepared.sample, ego_plan=(plan - prepared.sample.origin).astype(dtype))
    # looked up in ``graphs`` at call time, as ``build_adjacency`` does, so
    # a wrapper installed there (the benchmark's tracer) sees every plan
    planning = graphs.build_planning_graph(sample, config.beta_degrees)
    normalized = dict(prepared.normalized)
    if "planning" in normalized:
        normalized["planning"] = normalize_adjacency(planning).astype(dtype)
    return PreparedSample(sample, dataclasses.replace(
        prepared.adjacency, planning=planning), normalized)


def _firsts(keys) -> list:
    """For each item, the index of the first item with the same key."""
    first = {}
    return [first.setdefault(key, i) for i, key in enumerate(keys)]


def _take(x: Tensor, sizes, firsts, wanted) -> Tensor:
    """Rows of the scenes ``wanted`` from ``x``, which holds the rows of each
    distinct scene of ``firsts`` in order; ``x`` itself when those agree."""
    run = sorted(set(firsts))
    if [firsts[i] for i in wanted] == run:
        return x
    starts = dict(zip(run, np.cumsum([0] + [sizes[i] for i in run])))
    return x[np.concatenate([starts[firsts[i]] + np.arange(sizes[i]) for i in wanted])]


def forward(samples, config: ModelConfig, params: ModelParams,
            adjacency=None) -> Tensor:
    """Full network pass on one scene or a batch of them, returning the
    predicted trajectories (sum N, T_pred, 2) in each scene's ego-centered
    frame, the agents of the scenes in order. A scene is a
    :class:`PreparedSample`, or an ego-centered ``Sample`` that is checked
    and prepared here in its own dtype from its raw ``AdjacencySet`` (one
    per scene, built when not given, None for a prepared scene). A batch may
    mix the two, and gives each scene the rows it would get on its own, up
    to rounding.

    Each part runs once per distinct input, by identity (the embedding per
    ``observed`` and ``obs_mask``, branch ``g`` also per ``normalized[g]``),
    so scenes from :func:`replan` share all but the planning branch."""
    scenes = _scenes(samples)
    if not scenes:
        raise UsageError("forward() needs at least one sample")
    if adjacency is None:
        adjacency = [None] * len(scenes)
    elif isinstance(adjacency, AdjacencySet):
        adjacency = [adjacency]
    if len(adjacency) != len(scenes):
        raise UsageError(f"{len(adjacency)} adjacency sets for "
                         f"{len(scenes)} samples")
    if any(isinstance(s, PreparedSample) and a is not None
           for s, a in zip(scenes, adjacency)):
        raise UsageError("prepared scenes carry their own graphs")
    scenes = [s if isinstance(s, PreparedSample) else _prepared(s, a, config)
              for s, a in zip(scenes, adjacency)]
    samples = [p.sample for p in scenes]
    sizes = [s.n_agents for s in samples]
    embed_of = _firsts([(id(s.observed), id(s.obs_mask)) for s in samples])
    z = embed_inputs([samples[i] for i in sorted(set(embed_of))], params, config)
    branch_outputs = []
    for g in config.branch_order:
        run_of = _firsts([(e, id(p.normalized[g])) for e, p in zip(embed_of, scenes)])
        run = sorted(set(run_of))
        out = _branch(_take(z, sizes, embed_of, run),
                      [scenes[i].normalized[g] for i in run], params, g, config)
        branch_outputs.append(_take(out, sizes, run_of, range(len(scenes))))
    f_graphs = fuse_graph_features(branch_outputs, params)
    plan_encoding = None
    if config.planning_fusion_enabled:
        per_scene = encode_plan(np.stack([s.ego_plan for s in samples], axis=1),
                                params, config)  # (S, C)
        plan_encoding = per_scene[np.repeat(np.arange(len(samples)), sizes)]
    f_fusion = fuse_plan_features(f_graphs, plan_encoding, params, config)
    return cs_gru_decode(f_fusion, samples, params, config)


def predict(sample: Sample, config: ModelConfig, params: ModelParams) -> np.ndarray:
    """Prepare the sample, run the network on detached parameters (nothing
    takes a gradient here, so no tape is recorded), and return predictions
    as a plain array in the sample's original frame."""
    prepared = prepare(sample, config)
    out = forward(prepared, config, params.detached())
    return out.data + prepared.sample.origin


def prediction_loss(predictions: Tensor, samples, config: ModelConfig):
    """Mean squared Euclidean error (meters^2) over supervised agents and
    unmasked future frames; the ego never contributes.

    ``predictions`` are the rows ``forward`` returns for ``samples``, one
    sample or a batch. The loss is the mean over samples of each sample's
    own mean, so a sample weighs the same whatever its agent count; a
    sample with no supervised agent adds zero but still counts in the
    divisor. Returns the scalar loss tensor and the number of contributing
    agent-frames over the batch (0 means the loss is the defined zero)."""
    scenes = _scenes(samples)
    weights = []
    count = 0
    for s in scenes:
        sup = supervised_mask(s, config)
        w = (sup[:, None] & s.fut_mask).astype(s.future.dtype)
        k = int(w.sum())
        count += k
        weights.append(w / (k * len(scenes)) if k else w)
    if count == 0:
        return Tensor(0.0), 0
    weight = np.concatenate(weights)
    diff = ag.sub(predictions, np.concatenate([s.future for s in scenes]))
    sq = ag.mul(diff, diff)
    return ag.tsum(ag.mul(sq, weight[:, :, None])), count


# ---------------------------------------------------------------------------
# checkpoint archive: parameters, optionally with trainer state
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    """One checkpoint archive. ``trainer`` (the JSON state that
    ``training.checkpoint_save`` records) and ``moments`` (Adam's first and
    second moments by parameter name) are None in a parameters-only file."""

    params: ModelParams
    trainer: dict | None = None
    moments: tuple | None = None


def write_checkpoint(path, checkpoint: Checkpoint) -> None:
    """Write ``param.<name>`` arrays, ``adam.m.<name>`` and ``adam.v.<name>``
    moments if any, and a JSON ``__meta__`` entry holding the format
    version, the model configuration and the trainer state."""
    meta = {"checkpoint_version": CHECKPOINT_VERSION,
            "model_config": dataclasses.asdict(checkpoint.params.config),
            "trainer": checkpoint.trainer}
    arrays = {f"param.{name}": t.data for name, t in checkpoint.params.items()}
    if checkpoint.moments is not None:
        first, second = checkpoint.moments
        arrays.update({f"adam.m.{name}": m for name, m in first.items()})
        arrays.update({f"adam.v.{name}": v for name, v in second.items()})
    savez_atomic(path, __meta__=np.array(json.dumps(meta)), **arrays)


def read_checkpoint(path, expected_config: ModelConfig | None = None) -> Checkpoint:
    """Read an archive written by :func:`write_checkpoint`, validating names
    and shapes against the configuration recorded in the file (or
    ``expected_config`` if given, which must then equal the recorded one in
    every field). A file that is not such an archive fails as FormatError."""
    # opened here so that the file closes even when np.load fails on it
    with open(path, "rb") as fh:
        try:
            with np.load(fh, allow_pickle=False) as archive:
                stored = {k: archive[k] for k in archive.files}
        # TypeError: a bare .npy file loads as an array, which has no ``with``
        except (zipfile.BadZipFile, EOFError, ValueError, TypeError) as exc:
            raise FormatError(f"{path} is not an npz archive: {exc}") from None
    try:
        meta = json.loads(str(stored.pop("__meta__")))
        version = meta["checkpoint_version"]
    except (KeyError, TypeError, ValueError):
        raise FormatError(f"{path} is not a checkpoint: missing or "
                          "unreadable metadata") from None
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version!r} "
                          f"(this version reads {CHECKPOINT_VERSION})")
    try:
        stored_config = ModelConfig(**meta["model_config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: bad stored model config: {exc}") from None
    config = expected_config if expected_config is not None else stored_config
    trainer = meta.get("trainer")

    tensors, first, second = {}, {}, {}
    for name, shape, _ in param_specs(config):
        data = stored.pop(f"param.{name}", None)
        if data is None:
            raise FormatError(f"parameter '{name}' missing from checkpoint")
        if data.shape != shape:
            raise FormatError(
                f"parameter '{name}' has shape {data.shape}, expected {shape}")
        tensors[name] = Tensor(data, requires_grad=True, name=name)
        if trainer is not None:
            first[name] = stored.pop(f"adam.m.{name}", None)
            second[name] = stored.pop(f"adam.v.{name}", None)
            if first[name] is None or second[name] is None:
                raise FormatError(f"optimizer state for '{name}' missing from checkpoint")
            if first[name].shape != shape or second[name].shape != shape:
                raise FormatError(f"optimizer state for '{name}' has shapes "
                                  f"{first[name].shape} and {second[name].shape}, "
                                  f"expected {shape}")
    if stored:
        raise FormatError(f"unexpected entry '{sorted(stored)[0]}' in checkpoint")
    config.require_same(stored_config)
    return Checkpoint(ModelParams(config, tensors), trainer,
                      None if trainer is None else (first, second))


def savez_atomic(path, **arrays) -> None:
    """``np.savez`` to exactly ``path`` without ever exposing a partial file:
    the archive is written to a temporary file in the same directory and then
    renamed over the target, so a killed run leaves the previous file intact."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_params(params: ModelParams, path) -> None:
    """Write a parameters-only checkpoint atomically."""
    write_checkpoint(path, Checkpoint(params))


def load_params(path, expected_config: ModelConfig | None = None) -> ModelParams:
    """Load the parameters of any checkpoint, with or without trainer state,
    validating names and shapes against the configuration recorded in the
    file (or ``expected_config`` if given, which must equal the recorded one
    in every field)."""
    return read_checkpoint(path, expected_config).params
