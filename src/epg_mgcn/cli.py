"""Command-line interface.

Subcommands: ``prepare`` (raw tables to canonical samples), ``train``,
``eval``, ``ablate``, ``what-if``, and ``render``. Exit codes: 0 success,
2 usage error, 3 data/format error, 4 numeric failure, 5 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .ablation import run_ablation
from .errors import DataError, DimensionError, NumericError, UsageError
from .graphs import GRAPH_NAMES
from .metrics import evaluate
from .model import ModelConfig, load_params, predict, save_params
from .render import render_scene
from .scene import (DatasetConfig, load_trajectory_table, read_canonical,
                    window_samples, write_canonical)
from .training import TrainConfig, train
from .whatif import what_if

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_IO = 5


def _read_json(path):
    """Parse a JSON input file; malformed JSON is a UsageError naming the
    file and the position."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise UsageError(f"{path}: invalid JSON: {exc}") from None


def _run_configs(args, samples):
    """(ModelConfig, TrainConfig) from, in rising precedence, the samples'
    shapes, the --config file's "model" and "train" sections, and flags."""
    shapes = {"t_obs_points": samples[0].t_obs_points,
              "t_pred": samples[0].t_pred}
    if args.config is None:
        model_config, train_config = ModelConfig(**shapes), TrainConfig()
    else:
        loaded = _read_json(args.config)
        if not isinstance(loaded, dict):
            raise UsageError(f"run config {args.config}: expected a JSON object")
        extra = sorted(set(loaded) - {"model", "train"})
        if extra:
            raise UsageError(f"run config {args.config}: unknown section {extra[0]!r}")
        try:
            model_config = ModelConfig(**{**shapes, **loaded.get("model", {})})
            train_config = TrainConfig(**loaded.get("train", {}))
        except (TypeError, ValueError) as exc:
            raise UsageError(f"run config {args.config}: {exc}") from None
    model_flags, train_flags = _flags(args, ModelConfig), _flags(args, TrainConfig)
    try:
        return (replace(model_config, **model_flags),
                replace(train_config, **train_flags))
    except (TypeError, ValueError) as exc:
        given = ", ".join(f"{k}={v!r}" for k, v in {**model_flags, **train_flags}.items())
        raise UsageError(f"flags {given}: {exc}") from None


def _flags(args, config_cls) -> dict:
    """The fields of ``config_cls`` that a command-line flag set."""
    return {f.name: getattr(args, f.name) for f in fields(config_cls)
            if getattr(args, f.name, None) is not None}


def _read_plans(path) -> dict:
    """The --plans file: a JSON object mapping plan names to [[x, y], ...]."""
    loaded = _read_json(path)
    if not isinstance(loaded, dict):
        raise UsageError(f"plans file {path}: expected a JSON object "
                         "mapping plan names to [[x, y], ...]")
    plans = {}
    for name, plan in loaded.items():
        try:
            plans[name] = np.asarray(plan, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"plans file {path}: plan '{name}' is not an "
                             f"array of numbers: {exc}") from None
        if not np.isfinite(plans[name]).all():
            raise UsageError(f"plans file {path}: plan '{name}' has a "
                             "missing or non-finite entry")
    return plans


def cmd_prepare(args) -> int:
    config = DatasetConfig(**_flags(args, DatasetConfig))
    selection = "given_id" if args.ego_id is not None else "every_complete_agent"
    samples = []
    for path in sorted(args.input):
        tracks = load_trajectory_table(path, args.format)
        samples.extend(window_samples(tracks, config, ego_selection=selection,
                                      ego_id=args.ego_id))
    write_canonical(samples, args.output)
    print(f"prepare: wrote {len(samples)} samples to {args.output}")
    return 0


def cmd_train(args) -> int:
    samples = read_canonical(args.data)
    if not samples:
        raise DataError(f"no samples in {args.data}")
    model_config, train_config = _run_configs(args, samples)
    out_dir = Path(args.out_dir)
    result = train(samples, model_config, train_config, run_dir=out_dir,
                   checkpoint_every=args.checkpoint_every,
                   progress=(None if args.quiet else _print_epoch))
    save_params(result.params, out_dir / "params.npz")
    final = result.record.epochs[-1].mean_loss if result.record.epochs else float("nan")
    print(f"train: {train_config.max_epochs} epochs, final loss {final:.6f}; "
          f"wrote {out_dir / 'checkpoint.npz'}")
    return 0


def _print_epoch(record):
    print(f"epoch {record.epoch}: loss {record.mean_loss:.6f} "
          f"lr {record.learning_rate:g} ({record.seconds:.2f}s)")


def cmd_eval(args) -> int:
    samples = read_canonical(args.data)
    if not samples:
        raise DataError(f"no samples in {args.data}")
    params = load_params(args.checkpoint)
    report = evaluate(samples, params.config, params)
    print(report.format_table())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
            fh.write("\n")
        print(f"eval: wrote {args.report}")
    return 0


def cmd_ablate(args) -> int:
    samples = read_canonical(args.data)
    if not samples:
        raise DataError(f"no samples in {args.data}")
    base, train_config = _run_configs(args, samples)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = run_ablation(
        samples, base, train_config,
        progress=None if args.quiet else
        (lambda row: print(f"{row.label}: "
                           f"{row.wsade if row.wsade is not None else row.error}")))
    print(table.format_table())
    path = out_dir / "ablation.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(table.to_json_lines())
        fh.write("\n")
    print(f"ablate: wrote {path}")
    return 0


def cmd_what_if(args) -> int:
    samples = read_canonical(args.data)
    if not 0 <= args.index < len(samples):
        raise UsageError(f"sample index {args.index} out of range "
                         f"(file has {len(samples)})")
    sample = samples[args.index]
    params = load_params(args.checkpoint)
    base, results = what_if(sample, _read_plans(args.plans), params, params.config)
    print(f"what-if on sample {args.index}: base plan plus {len(results)} alternatives")
    for res in results:
        print(f"  {res.name}: max coord diff {res.max_coordinate_diff:.6f} m, "
              f"planning edges {int(res.planning_column.sum())} "
              f"(base {int(base.planning_column.sum())})")
    if args.report:
        payload = {
            "base": _whatif_dict(base),
            "alternatives": [_whatif_dict(r) for r in results],
        }
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")
        print(f"what-if: wrote {args.report}")
    return 0


def _whatif_dict(res):
    return {key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in asdict(res).items()}


def cmd_render(args) -> int:
    samples = read_canonical(args.data)
    if not 0 <= args.index < len(samples):
        raise UsageError(f"sample index {args.index} out of range "
                         f"(file has {len(samples)})")
    sample = samples[args.index]
    predictions = None
    if args.checkpoint:
        params = load_params(args.checkpoint)
        predictions = predict(sample, params.config, params)
    render_scene(sample, predictions, args.output)
    print(f"render: wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epg-mgcn",
        description="Ego-planning guided multi-graph trajectory prediction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="raw trajectory tables -> canonical samples")
    p.add_argument("--format", required=True, choices=("apollo_like", "ngsim_like"))
    p.add_argument("--input", nargs="+", required=True)
    p.add_argument("--output", required=True)
    # each windowing flag's dest is the DatasetConfig field it overrides
    p.add_argument("--t-obs", type=int, dest="t_obs_points")
    p.add_argument("--t-pred", type=int, dest="t_pred_frames")
    p.add_argument("--d-d", type=float, dest="d_d")
    p.add_argument("--neighborhood", choices=("radius", "highway_band"))
    p.add_argument("--frame-rate", type=float, dest="frame_rate")
    p.add_argument("--node-scope", type=float, dest="node_scope")
    p.add_argument("--stride", type=int, dest="window_stride")
    p.add_argument("--ego-id", type=int, default=None, dest="ego_id")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a model on canonical samples")
    _add_run_args(p)
    p.add_argument("--checkpoint-every", type=int, default=None,
                   dest="checkpoint_every")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on canonical samples")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run the six-row ablation ladder")
    _add_run_args(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("what-if", help="predict under alternative ego plans")
    p.add_argument("--data", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--plans", required=True,
                   help="JSON file: {name: [[x, y], ...]}")
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_what_if)

    p = sub.add_parser("render", help="draw a sample (and predictions) as SVG")
    p.add_argument("--data", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_render)
    return parser


def _add_run_args(p):
    """Flags shared by train and ablate. Each model or schedule flag's dest
    is the ModelConfig or TrainConfig field it overrides."""
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", required=True, dest="out_dir")
    p.add_argument("--config", default=None,
                   help="JSON run config with 'model' and 'train' sections")
    p.add_argument("--channels", type=int)
    p.add_argument("--graphs", type=lambda text: text.split(","),
                   dest="enabled_graphs",
                   help="comma-separated subset of " + ",".join(GRAPH_NAMES))
    p.add_argument("--no-plan-fusion", action="store_false", default=None,
                   dest="planning_fusion_enabled")
    p.add_argument("--shared-decoder", action="store_false", default=None,
                   dest="category_specific_decoders")
    p.add_argument("--t-obs", type=int, dest="t_obs_points")
    p.add_argument("--t-pred", type=int, dest="t_pred")
    p.add_argument("--d-d", type=float, dest="d_d")
    p.add_argument("--beta", type=float, dest="beta_degrees")
    p.add_argument("--epochs", type=int, dest="max_epochs")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr", type=float, dest="initial_lr")
    p.add_argument("--decay-every", type=int, dest="decay_every_epochs")
    p.add_argument("--decay-factor", type=float, dest="lr_decay_factor")
    p.add_argument("--seed", type=int)
    p.add_argument("--precision", choices=("double", "single"))
    p.add_argument("--quiet", action="store_true")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, DimensionError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
