"""The cumulative ablation ladder: six configurations adding one component
at a time (distance graph only, up to the full category-specific model),
each trained with a shared seed and scored by WSADE."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .graphs import GRAPH_NAMES
from .metrics import evaluate
from .model import ModelConfig, param_specs
from .training import TrainConfig, train

__all__ = ["ABLATION_ROWS", "AblationRow", "AblationTable",
           "ablation_configs", "run_ablation"]

# label -> (graphs enabled, plan-guided prediction, category-specific GRUs)
ABLATION_ROWS = (
    ("A1", ("distance",), False, False),
    ("A2", ("distance", "visibility"), False, False),
    ("A3", ("distance", "visibility", "planning"), False, False),
    ("A4", ("distance", "visibility", "planning", "category"), False, False),
    ("A5", ("distance", "visibility", "planning", "category"), True, False),
    ("A6", ("distance", "visibility", "planning", "category"), True, True),
)


def ablation_configs(base: ModelConfig):
    """The six ladder configurations derived from a base configuration."""
    out = []
    for label, graphs, pgp, cs in ABLATION_ROWS:
        out.append((label, replace(
            base,
            enabled_graphs=graphs,
            planning_fusion_enabled=pgp,
            category_specific_decoders=cs,
        )))
    return out


@dataclass
class AblationRow:
    label: str
    config: ModelConfig
    wsade: float | None = None
    parameter_count: int = 0
    error: str | None = None

    def flags(self) -> dict:
        """Which components the row enables, graphs first in GRAPH_NAMES order."""
        return {**{g: g in self.config.enabled_graphs for g in GRAPH_NAMES},
                "plan_guided": self.config.planning_fusion_enabled,
                "cs_gru": self.config.category_specific_decoders}


@dataclass
class AblationTable:
    rows: list = field(default_factory=list)

    def to_json_lines(self) -> str:
        lines = []
        for row in self.rows:
            rec = {"label": row.label, **row.flags(),
                   "wsade": row.wsade, "parameters": row.parameter_count}
            if row.error:
                rec["error"] = row.error
            lines.append(json.dumps(rec, sort_keys=True))
        return "\n".join(lines)

    def format_table(self) -> str:
        head = ("row   G^D  G^V  G^P  G^C  PGP  CS   WSADE")
        lines = [head]
        for row in self.rows:
            marks = "    ".join("y" if on else "." for on in row.flags().values())
            score = f"{row.wsade:.4f}" if row.wsade is not None else \
                (f"FAILED: {row.error}" if row.error else "-")
            lines.append(f"{row.label:<5} {marks}  {score}")
        return "\n".join(lines)


def run_ablation(samples, base_config: ModelConfig, train_config: TrainConfig,
                 progress=None) -> AblationTable:
    """Train all six rows with the shared seed and score each on the
    training samples (desk-scale smoke usage).

    A failing row is recorded with its error and does not stop the ladder.
    """
    table = AblationTable()
    for label, config in ablation_configs(base_config):
        row = AblationRow(
            label=label,
            config=config,
            parameter_count=sum(
                int(np.prod(shape)) for _, shape, _ in param_specs(config)),
        )
        try:
            result = train(samples, config, train_config)
            report = evaluate(samples, config, result.params)
            row.wsade = report.wsade
        except Exception as exc:  # keep the remaining rows running
            row.error = f"{type(exc).__name__}: {exc}"
        table.rows.append(row)
        if progress is not None:
            progress(row)
    return table
