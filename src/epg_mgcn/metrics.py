"""Displacement metrics: ADE/FDE per agent and category, horizon FDEs, and
the type-weighted WSADE/WSFDE scores."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DataError
from .model import ModelConfig, ModelParams, forward, prepare_each, supervised_mask
from .scene import Sample

__all__ = [
    "CATEGORY_WEIGHTS",
    "AgentErrors",
    "MetricReport",
    "displacement_errors",
    "fde_at_horizons",
    "weighted_score",
    "weighted_scores",
    "evaluate",
]

# WSADE/WSFDE weights over (vehicle, pedestrian, bicyclist)
CATEGORY_WEIGHTS = {"vehicle": 0.20, "pedestrian": 0.58, "bicyclist": 0.22}


@dataclass
class AgentErrors:
    """Per-agent displacement errors; agents with no unmasked future frame
    are flagged invalid and excluded from aggregation."""

    ade: np.ndarray  # (N,)
    fde: np.ndarray  # (N,)
    valid: np.ndarray  # (N,) bool


def displacement_errors(predictions, ground_truth, mask=None) -> AgentErrors:
    """ADE is the mean Euclidean error over an agent's unmasked future
    frames; FDE is the error at its final unmasked frame."""
    predictions = np.asarray(predictions, dtype=np.float64)
    ground_truth = np.asarray(ground_truth, dtype=np.float64)
    if predictions.shape != ground_truth.shape:
        raise DataError(
            f"prediction shape {predictions.shape} != truth {ground_truth.shape}"
        )
    n, horizon = predictions.shape[:2]
    if mask is None:
        mask = np.ones((n, horizon), dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    err = np.linalg.norm(predictions - ground_truth, axis=2)  # (N, T)
    ade = np.zeros(n)
    fde = np.zeros(n)
    valid = mask.any(axis=1)
    for i in np.flatnonzero(valid):
        frames = np.flatnonzero(mask[i])
        ade[i] = err[i, frames].mean()
        fde[i] = err[i, frames[-1]]
    return AgentErrors(ade=ade, fde=fde, valid=valid)


def fde_at_horizons(predictions, ground_truth, mask, frame_rate: float) -> dict:
    """FDE at whole-second horizons: second k maps to future frame
    round(k * frame_rate), 1-based. Returns {k: (N,) errors masked by
    presence at that frame}."""
    predictions = np.asarray(predictions, dtype=np.float64)
    ground_truth = np.asarray(ground_truth, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    horizon = predictions.shape[1]
    err = np.linalg.norm(predictions - ground_truth, axis=2)
    out = {}
    max_seconds = int(np.floor(horizon / frame_rate + 1e-9))
    for k in range(1, max_seconds + 1):
        frame = int(round(k * frame_rate))  # 1-based future index
        if not 1 <= frame <= horizon:
            continue
        out[k] = np.where(mask[:, frame - 1], err[:, frame - 1], np.nan)
    return out


def weighted_score(per_category: dict) -> float:
    """Dot product with the published type weights; every weighted category
    must be present."""
    total = 0.0
    for cat, w in CATEGORY_WEIGHTS.items():
        if cat not in per_category or per_category[cat] is None:
            raise DataError(f"weighted score needs category '{cat}'")
        total += w * float(per_category[cat])
    return total


def weighted_scores(ade_by_category: dict, fde_by_category: dict):
    """(WSADE, WSFDE) from per-category means."""
    return weighted_score(ade_by_category), weighted_score(fde_by_category)


@dataclass
class MetricReport:
    ade_by_category: dict = field(default_factory=dict)
    fde_by_category: dict = field(default_factory=dict)
    overall_ade: float = 0.0
    overall_fde: float = 0.0
    wsade: float | None = None
    wsfde: float | None = None
    fde_at_seconds: dict = field(default_factory=dict)
    sample_count: int = 0
    agent_count: int = 0
    excluded_count: int = 0

    def to_dict(self) -> dict:
        """Every field, with ``fde_at_seconds``'s keys as strings for JSON."""
        out = asdict(self)
        out["fde_at_seconds"] = {str(k): v for k, v in self.fde_at_seconds.items()}
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def format_table(self) -> str:
        lines = ["category        ADE (m)    FDE (m)"]
        for cat in sorted(set(self.ade_by_category) | set(self.fde_by_category)):
            lines.append(f"{cat:<12} {self.ade_by_category[cat]:10.4f} "
                         f"{self.fde_by_category[cat]:10.4f}")
        lines.append(f"{'overall':<12} {self.overall_ade:10.4f} {self.overall_fde:10.4f}")
        if self.wsade is not None:
            lines.append(f"{'weighted':<12} {self.wsade:10.4f} {self.wsfde:10.4f}")
        for k in sorted(self.fde_at_seconds):
            lines.append(f"FDE@{k}s      {self.fde_at_seconds[k]:10.4f}")
        lines.append(f"samples {self.sample_count}, agents {self.agent_count}, "
                     f"excluded {self.excluded_count}")
        return "\n".join(lines)


def evaluate(samples, config: ModelConfig, params: ModelParams) -> MetricReport:
    """Predict every sample (prepared, on detached parameters) and aggregate
    displacement errors over the supervised agents. A sample that
    ``prepare`` refuses raises its error naming its index, as in ``train``.

    Category means average per-agent ADE/FDE; WSADE/WSFDE are reported when
    all three weighted categories occur, which is skipped for vehicle-only
    (highway) datasets.
    """
    samples = list(samples)
    per_cat_ade: dict = {}
    per_cat_fde: dict = {}
    all_ade, all_fde = [], []
    horizon_errs: dict = {}
    excluded = 0
    detached = params.detached()
    # one prepared scene at a time
    for prepared in prepare_each(samples, config):
        sample = prepared.sample
        pred = forward(prepared, config, detached).data
        sup = supervised_mask(sample, config)
        errs = displacement_errors(pred, sample.future, sample.fut_mask)
        decodable = np.array([c in config.categories_decoded
                              for c in sample.categories])
        decodable[Sample.EGO_INDEX] = False
        excluded += int((decodable & ~sup).sum())
        horizon = fde_at_horizons(pred, sample.future, sample.fut_mask,
                                  sample.frame_rate)
        for i in np.flatnonzero(sup & errs.valid):
            cat = sample.categories[i]
            per_cat_ade.setdefault(cat, []).append(errs.ade[i])
            per_cat_fde.setdefault(cat, []).append(errs.fde[i])
            all_ade.append(errs.ade[i])
            all_fde.append(errs.fde[i])
            for k, col in horizon.items():
                if np.isfinite(col[i]):
                    horizon_errs.setdefault(k, []).append(col[i])

    report = MetricReport(
        ade_by_category={c: float(np.mean(v)) for c, v in sorted(per_cat_ade.items())},
        fde_by_category={c: float(np.mean(v)) for c, v in sorted(per_cat_fde.items())},
        overall_ade=float(np.mean(all_ade)) if all_ade else 0.0,
        overall_fde=float(np.mean(all_fde)) if all_fde else 0.0,
        fde_at_seconds={k: float(np.mean(v))
                        for k, v in sorted(horizon_errs.items())},
        sample_count=len(samples),
        agent_count=len(all_ade),
        excluded_count=excluded,
    )
    if all(c in report.ade_by_category for c in CATEGORY_WEIGHTS):
        report.wsade, report.wsfde = weighted_scores(
            report.ade_by_category, report.fde_by_category)
    return report
