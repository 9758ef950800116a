"""Command-line entry point.

Subcommands: generate, train, sweep, ablate, eval, emit-plot-data.
Any config key can be overridden with ``--key value``; unknown keys are
rejected. Exit code 0 on success, 1 on invalid input/config, 2 on
runtime failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import trainer
from .config import TrainingConfig, load_config, parse_overrides
from .data import export_dataset, generate, import_dataset
from .serialize import load_checkpoint
from .trainer import run_dir_name


def _split_overrides(extra: list[str]) -> dict[str, str]:
    pairs = {}
    i = 0
    while i < len(extra):
        key = extra[i]
        if not key.startswith("--") or i + 1 >= len(extra):
            raise ValueError(f"expected '--key value' pairs, got {extra[i:]}")
        pairs[key[2:]] = extra[i + 1]
        i += 2
    return pairs


def _build_config(args, extra: list[str]) -> TrainingConfig:
    cfg = load_config(args.config) if args.config else TrainingConfig()
    return parse_overrides(cfg, _split_overrides(extra))


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = argparse.ArgumentParser(prog="osslab",
                                     description="desk-scale open-set SSL lab")
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--out", default=".", help="output directory root")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("generate", help="generate and export the dataset")
    sub.add_parser("train", help="run one training")
    p = sub.add_parser("sweep", help="run a hyperparameter sweep")
    p.add_argument("--axis", required=True, choices=trainer.SWEEP_AXES)
    p.add_argument("--values", required=True, help="comma-separated values")
    sub.add_parser("ablate", help="run the ablation matrices")
    p = sub.add_parser("eval", help="evaluate a checkpoint against a dataset export")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p = sub.add_parser("emit-plot-data", help="train and emit plot-ready files")

    args, extra = parser.parse_known_args(argv)
    try:
        cfg = _build_config(args, extra)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 1

    try:
        return _dispatch(args, cfg)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def _dispatch(args, cfg: TrainingConfig) -> int:
    run_dir = os.path.join(args.out, run_dir_name(cfg))

    if args.command == "generate":
        os.makedirs(run_dir, exist_ok=True)
        dataset = generate(cfg.dataset_spec())
        path = os.path.join(run_dir, "dataset.txt")
        export_dataset(dataset, path)
        print(path)
        return 0

    if args.command == "train":
        result = trainer.train(cfg, run_dir=run_dir)
        print(json.dumps(result.summary, indent=2))
        return 0

    if args.command == "sweep":
        values = [float(v) for v in args.values.split(",")]
        if args.axis == "K_p":
            values = [int(v) for v in values]
        rows = trainer.sweep(cfg, args.axis, values)
        os.makedirs(run_dir, exist_ok=True)
        path = os.path.join(run_dir, f"sweep_{args.axis}.json")
        with open(path, "w") as fh:
            json.dump(rows, fh, indent=2)
        print(json.dumps(rows, indent=2))
        return 0

    if args.command == "ablate":
        out = trainer.ablate(cfg)
        os.makedirs(run_dir, exist_ok=True)
        with open(os.path.join(run_dir, "ablation.json"), "w") as fh:
            json.dump(out, fh, indent=2)
        print(json.dumps(out, indent=2))
        return 0

    if args.command == "eval":
        ckpt = load_checkpoint(args.checkpoint)
        dataset = import_dataset(args.dataset)
        rows, _ = trainer.evaluate_checkpoint(ckpt.ema_params, ckpt.means, dataset,
                                              ckpt.step, ckpt.beta_model)
        print(json.dumps([trainer.asdict(r) for r in rows], indent=2))
        return 0

    if args.command == "emit-plot-data":
        result = trainer.train(cfg, run_dir=run_dir)
        trainer.emit_plot_data(result, os.path.join(run_dir, "plots"))
        print(os.path.join(run_dir, "plots"))
        return 0

    raise ValueError(f"unknown command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
