"""Trajectory table ingestion, windowing, and the canonical sample format.

Two table layouts are accepted:

* ``apollo_like``: rows of ``frame_id agent_id type_code x y`` (meters,
  urban mixed traffic). Type codes 1 and 2 map to ``vehicle``, 3 to
  ``pedestrian``, 4 to ``bicyclist``, anything else to ``others``.
* ``ngsim_like``: rows of ``vehicle_id frame_id local_x local_y lane_id``
  in feet (highway). Positions convert to meters (x 0.3048) and the 10 Hz
  stream is downsampled to 5 Hz by keeping every 2nd frame.

Fields may be separated by whitespace or commas. Windowing slices tracks
into observation/prediction windows around a designated ego agent, applies
the neighborhood rule, and emits :class:`Sample` records; ``write_canonical``
/ ``read_canonical`` serialize them as line-delimited JSON with every float
printed as decimal text with 17 significant digits (lossless for float64).
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import DataError, FormatError, ParseError

__all__ = [
    "CATEGORIES",
    "FEET_TO_METERS",
    "HIGHWAY_BAND_METERS",
    "AgentTrack",
    "DatasetConfig",
    "Sample",
    "load_trajectory_table",
    "window_samples",
    "ego_center",
    "validate_sample",
    "write_canonical",
    "read_canonical",
]

CATEGORIES = ("vehicle", "pedestrian", "bicyclist", "others")
_CATEGORY_NAMES = {c: c for c in CATEGORIES}

FEET_TO_METERS = 0.3048
HIGHWAY_BAND_METERS = 90.0 * FEET_TO_METERS  # +/- 90 ft longitudinally

_APOLLO_TYPE_MAP = {1: "vehicle", 2: "vehicle", 3: "pedestrian", 4: "bicyclist"}

CANONICAL_VERSION = 1


@dataclass
class AgentTrack:
    """One agent's time-ordered states within a recording."""

    agent_id: int
    category: str
    frames: np.ndarray  # (L,) int, strictly increasing
    positions: np.ndarray  # (L, 2) meters
    lanes: np.ndarray | None = None  # (L,) int, highway data only


@dataclass
class DatasetConfig:
    """Windowing and neighborhood parameters.

    ``t_obs_points`` counts observation positions including the current one
    (6 points at 2 Hz covers the urban setting); ``t_pred_frames`` is the
    number of future frames. ``node_scope`` widens the radius rule so nodes
    beyond the edge threshold still enter the scene as context.
    """

    t_obs_points: int = 6
    t_pred_frames: int = 6
    d_d: float = 10.0
    neighborhood: str = "radius"  # "radius" | "highway_band"
    frame_rate: float = 2.0
    node_scope: float = 3.0
    window_stride: int | None = None  # None: non-overlapping windows

    def __post_init__(self):
        if self.t_obs_points < 2:
            raise DataError("t_obs_points must be >= 2 (motion needs two frames)")
        if self.t_pred_frames < 1:
            raise DataError("t_pred_frames must be >= 1")
        if self.d_d <= 0:
            raise DataError(f"d_d must be positive, got {self.d_d}")
        if self.neighborhood not in ("radius", "highway_band"):
            raise DataError(f"unknown neighborhood rule {self.neighborhood!r}")
        if self.frame_rate <= 0:
            raise DataError("frame_rate must be positive")
        if self.window_stride is not None and self.window_stride < 1:
            raise DataError("window_stride must be >= 1")

    @property
    def window_points(self) -> int:
        return self.t_obs_points + self.t_pred_frames


@dataclass
class Sample:
    """One training/evaluation unit. Agent 0 is the ego by convention.

    ``observed`` is (N, t_obs_points, 2), ``future`` (N, t_pred, 2), and
    ``ego_plan`` (t_pred, 2), all meters in a common frame. Masks flag which
    entries trace to source data; masked coordinates are zero-padded.
    ``origin`` records the offset subtracted by :func:`ego_center`.
    """

    categories: list[str]
    observed: np.ndarray
    future: np.ndarray
    ego_plan: np.ndarray
    obs_mask: np.ndarray
    fut_mask: np.ndarray
    frame_rate: float
    agent_ids: list[int] = field(default_factory=list)
    origin: np.ndarray = field(default_factory=lambda: np.zeros(2))

    EGO_INDEX = 0

    @property
    def n_agents(self) -> int:
        return self.observed.shape[0]

    @property
    def t_obs_points(self) -> int:
        return self.observed.shape[1]

    @property
    def t_pred(self) -> int:
        return self.future.shape[1]

    def copy(self) -> "Sample":
        """A copy that shares no array or list with this sample."""
        return replace(self, **{f.name: copy.copy(getattr(self, f.name))
                                for f in fields(self)})


# ---------------------------------------------------------------------------
# table loading
# ---------------------------------------------------------------------------


def _parse_rows(path, n_fields):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != n_fields:
                raise ParseError(
                    f"expected {n_fields} fields, got {len(parts)}", lineno
                )
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
    return rows


def _group_by_agent(records):
    """records: (agent_id, frame, x, y, category, lane|None); enforces
    per-agent monotone frames and rejects duplicates."""
    by_agent: dict[int, list] = {}
    for rec in records:
        by_agent.setdefault(rec[0], []).append(rec)
    tracks = []
    for agent_id in sorted(by_agent):
        recs = by_agent[agent_id]
        frames = [r[1] for r in recs]
        for a, b in zip(frames, frames[1:]):
            if b == a:
                raise DataError(
                    f"duplicate frame {a} for agent {agent_id}"
                )
            if b < a:
                raise DataError(
                    f"non-monotone frames for agent {agent_id}: {a} then {b}"
                )
        positions = np.array([[r[2], r[3]] for r in recs], dtype=np.float64)
        if not np.isfinite(positions).all():
            raise DataError(f"non-finite position for agent {agent_id}")
        lanes = None
        if recs[0][5] is not None:
            lanes = np.array([r[5] for r in recs], dtype=np.int64)
        tracks.append(
            AgentTrack(
                agent_id=agent_id,
                category=recs[0][4],
                frames=np.array(frames, dtype=np.int64),
                positions=positions,
                lanes=lanes,
            )
        )
    return tracks


def _downsample(track: AgentTrack, factor: int) -> AgentTrack | None:
    keep = track.frames % factor == 0
    if not keep.any():
        return None
    return AgentTrack(
        agent_id=track.agent_id,
        category=track.category,
        frames=track.frames[keep] // factor,
        positions=track.positions[keep],
        lanes=None if track.lanes is None else track.lanes[keep],
    )


def load_trajectory_table(path, format: str) -> list[AgentTrack]:
    """Parse one recording into per-agent tracks, sorted by agent id.

    ``format`` is ``"apollo_like"`` or ``"ngsim_like"``; see the module
    docstring for the column layouts and unit handling.
    """
    if format == "apollo_like":
        records = []
        for frame, agent, code, x, y in _parse_rows(path, 5):
            category = _APOLLO_TYPE_MAP.get(int(code), "others")
            records.append((int(agent), int(frame), x, y, category, None))
        return _group_by_agent(records)
    if format == "ngsim_like":
        records = []
        for agent, frame, x_ft, y_ft, lane in _parse_rows(path, 5):
            records.append(
                (int(agent), int(frame), x_ft * FEET_TO_METERS,
                 y_ft * FEET_TO_METERS, "vehicle", int(lane))
            )
        tracks = _group_by_agent(records)
        out = []
        for track in tracks:
            down = _downsample(track, 2)
            if down is not None:
                out.append(down)
        return out
    raise ParseError(f"unknown table format {format!r}")


# ---------------------------------------------------------------------------
# windowing
# ---------------------------------------------------------------------------


def window_samples(tracks, config: DatasetConfig,
                   ego_selection: str = "every_complete_agent",
                   ego_id: int | None = None) -> list[Sample]:
    """Slice one recording into samples.

    For each window start (stepping by ``window_stride``) and each eligible
    ego -- an agent present at all window frames -- one Sample is emitted.
    Neighbors must be present at the last observed frame and pass the
    neighborhood rule; partially observed neighbors are zero-padded and
    masked. The ego's recorded future becomes its plan. Egos and neighbors
    keep the order of ``tracks``.
    """
    if ego_selection not in ("every_complete_agent", "given_id"):
        raise DataError(f"unknown ego_selection {ego_selection!r}")
    if ego_selection == "given_id" and ego_id is None:
        raise DataError("ego_selection='given_id' requires ego_id")
    highway = config.neighborhood == "highway_band"
    if highway:
        for track in tracks:
            if track.lanes is None:
                raise DataError("highway_band neighborhood needs lane ids; "
                                f"agent {track.agent_id} has none")
    if not tracks:
        return []

    length = config.window_points
    last = config.t_obs_points - 1
    reach = config.d_d * config.node_scope
    # one row per (track, frame), sorted by frame; owner: index in ``tracks``
    frames = np.concatenate([t.frames for t in tracks]).astype(np.int64)
    order = np.argsort(frames)
    frames = frames[order]
    owner = np.repeat(np.arange(len(tracks)), [len(t.frames) for t in tracks])[order]
    positions = np.concatenate([t.positions for t in tracks]).astype(np.float64)[order]
    if highway:
        lanes = np.concatenate([t.lanes for t in tracks]).astype(np.int64)[order]

    samples = []
    for start in range(int(frames[0]), int(frames[-1]) - length + 2,
                       config.window_stride or length):
        lo, hi = np.searchsorted(frames, (start, start + length))
        # grids over the agents present in this window only; masked
        # entries stay +0.0 because positions are scattered into zeros
        agents, row = np.unique(owner[lo:hi], return_inverse=True)
        step = frames[lo:hi] - start
        present = np.zeros((len(agents), length), dtype=bool)
        present[row, step] = True
        grid = np.zeros((len(agents), length, 2))
        grid[row, step] = positions[lo:hi]
        egos = np.flatnonzero(present.all(axis=1))
        if ego_selection == "given_id":
            egos = [e for e in egos if tracks[agents[e]].agent_id == ego_id]
        cands = np.flatnonzero(present[:, last])
        here = grid[cands, last]
        if highway:
            now = step == last
            lane = np.zeros(len(agents), dtype=np.int64)
            lane[row[now]] = lanes[lo:hi][now]
        for e in egos:
            if highway:
                # y is longitudinal; lanes come from the source table
                admit = ((np.abs(here[:, 1] - grid[e, last, 1]) <= HIGHWAY_BAND_METERS)
                         & (np.abs(lane[cands] - lane[e]) <= 1))
            else:
                d = here - grid[e, last]
                admit = np.hypot(d[:, 0], d[:, 1]) <= reach
            members = np.concatenate(([e], cands[admit & (cands != e)]))
            fut = grid[members, last + 1:]
            samples.append(
                Sample(
                    categories=[tracks[a].category for a in agents[members]],
                    observed=grid[members, :last + 1],
                    future=fut,
                    ego_plan=fut[0].copy(),
                    obs_mask=present[members, :last + 1],
                    fut_mask=present[members, last + 1:],
                    frame_rate=config.frame_rate,
                    agent_ids=[tracks[a].agent_id for a in agents[members]],
                )
            )
    return samples


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def ego_center(sample: Sample) -> Sample:
    """Shift all coordinates so the ego's last observed position is (0, 0)."""
    offset = sample.observed[Sample.EGO_INDEX, -1].copy()
    out = sample.copy()
    out.observed -= offset
    out.future -= offset
    out.ego_plan -= offset
    out.origin = sample.origin + offset
    return out


def validate_sample(sample: Sample) -> None:
    """Raise DataError on any violated sample invariant: the one definition
    of a valid sample, enforced by ``model.prepare``, ``read_canonical``
    and ``write_canonical``."""
    for name in ("observed", "future"):
        shape = np.shape(getattr(sample, name))
        if len(shape) != 3 or shape[::2] != (np.shape(sample.observed)[0], 2):
            raise DataError(f"{name} has shape {shape}, expected (N, T, 2)")
    (n, p, _), f = sample.observed.shape, sample.future.shape[1]
    if n == 0:
        raise DataError("sample has no agents")
    if sample.ego_plan.shape != (f, 2):
        raise DataError(f"ego_plan shape {sample.ego_plan.shape} != ({f}, 2)")
    for name, shape in (("obs_mask", (n, p)), ("fut_mask", (n, f))):
        mask = getattr(sample, name)
        if mask.shape != shape or mask.dtype != bool:
            raise DataError(f"{name} must be bool {shape}, "
                            f"got {mask.dtype} {mask.shape}")
    if len(sample.categories) != n:
        raise DataError("one category per agent required")
    if len(sample.agent_ids) not in (0, n):
        raise DataError(f"agent_ids has {len(sample.agent_ids)} ids for {n} agents")
    if np.shape(sample.origin) != (2,):
        raise DataError(f"origin has shape {np.shape(sample.origin)}, expected (2,)")
    for c in sample.categories:
        if c not in CATEGORIES:
            raise DataError(f"unknown category {c!r}")
    if not all(np.isfinite(a).all() for a in (sample.observed, sample.future,
                                              sample.ego_plan, sample.origin)):
        raise DataError("non-finite coordinates")
    if not sample.obs_mask[Sample.EGO_INDEX].all():
        raise DataError("ego must be fully observed")
    if not (np.isfinite(sample.frame_rate) and sample.frame_rate > 0):
        raise DataError(f"frame_rate {sample.frame_rate} is not finite and positive")


# ---------------------------------------------------------------------------
# canonical on-disk format
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    out = format(float(x), ".17g")
    if "." not in out and "e" not in out and "n" not in out:
        out += ".0"  # keep json from parsing integral values (and -0) as ints
    return out


def _coords(rows) -> str:
    return "[" + ",".join(f"[{_fmt(x)},{_fmt(y)}]" for x, y in rows) + "]"


def _coords3(blocks) -> str:
    return "[" + ",".join(_coords(rows) for rows in blocks) + "]"


def _mask(rows) -> str:
    return json.dumps(np.asarray(rows, dtype=int).tolist(), separators=(",", ":"))


def sample_to_line(sample: Sample) -> str:
    """Serialize one sample to its canonical single-line JSON record."""
    ids = json.dumps([int(a) for a in sample.agent_ids], separators=(",", ":"))
    cats = json.dumps(list(sample.categories), separators=(",", ":"))
    return (
        f'{{"version":{CANONICAL_VERSION}'
        f',"frame_rate":{_fmt(sample.frame_rate)}'
        f',"ego_index":{Sample.EGO_INDEX}'
        f',"agent_ids":{ids}'
        f',"categories":{cats}'
        f',"origin":[{_fmt(sample.origin[0])},{_fmt(sample.origin[1])}]'
        f',"obs":{_coords3(sample.observed)}'
        f',"obs_mask":{_mask(sample.obs_mask)}'
        f',"fut":{_coords3(sample.future)}'
        f',"fut_mask":{_mask(sample.fut_mask)}'
        f',"plan":{_coords(sample.ego_plan)}}}'
    )


def sample_from_line(line: str) -> Sample:
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid canonical record: {exc}") from None
    if not isinstance(rec, dict):
        raise FormatError("invalid canonical record: not a JSON object")
    version = rec.get("version")
    if version != CANONICAL_VERSION:
        raise FormatError(
            f"unsupported canonical version {version!r} "
            f"(expected {CANONICAL_VERSION})"
        )
    try:
        n = len(rec["categories"])
        sample = Sample(
            # one shared str per known category, not one per agent and sample
            categories=[_CATEGORY_NAMES.get(c, c) for c in rec["categories"]],
            observed=np.asarray(rec["obs"], dtype=np.float64).reshape(n, -1, 2),
            future=np.asarray(rec["fut"], dtype=np.float64).reshape(n, -1, 2),
            ego_plan=np.asarray(rec["plan"], dtype=np.float64).reshape(-1, 2),
            obs_mask=np.asarray(rec["obs_mask"], dtype=bool),
            fut_mask=np.asarray(rec["fut_mask"], dtype=bool),
            frame_rate=float(rec["frame_rate"]),
            agent_ids=[int(a) for a in rec["agent_ids"]],
            origin=np.asarray(rec["origin"], dtype=np.float64),
        )
        validate_sample(sample)  # its DataError is a ValueError, caught below
        return sample
    except KeyError as exc:
        raise FormatError(f"invalid canonical record: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise FormatError(f"invalid canonical record: {exc}") from None


def write_canonical(samples, path) -> None:
    """Write one line per sample. A sample that :func:`validate_sample`
    refuses fails, naming its index, before the file is opened."""
    samples = list(samples)
    for i, s in enumerate(samples):
        try:
            validate_sample(s)
        except DataError as exc:
            raise DataError(f"sample {i}: {exc}") from None
    with open(path, "w", encoding="utf-8") as fh:
        for sample in samples:
            fh.write(sample_to_line(sample))
            fh.write("\n")


def read_canonical(path) -> list[Sample]:
    """Read a canonical file; a malformed record, or one that
    :func:`validate_sample` refuses, fails as FormatError naming the path
    and its 1-based line."""
    samples = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                try:
                    samples.append(sample_from_line(line))
                except FormatError as exc:
                    raise FormatError(f"{path}, line {lineno}: {exc}") from None
    return samples
