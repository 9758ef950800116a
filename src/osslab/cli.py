"""Command-line entry point.

Subcommands: train, sweep, ablate, eval, emit-plot-data.
Any config key can be overridden with ``--key value``; unknown keys are
rejected. ``eval`` and ``emit-plot-data`` train nothing: they load the
``RunState`` that ``train`` wrote with the same flags and ``--out``, and
regenerate its dataset from ``config.txt``. Exit code 0 on success, 1 on
invalid input/config (or a missing run dir), 2 on runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

from . import trainer
from .config import TrainingConfig, load_config, parse_overrides, parse_value
from .data import generate


def _split_overrides(extra: list[str]) -> dict[str, str]:
    keys, values = extra[::2], extra[1::2]
    if len(keys) != len(values) or not all(key.startswith("--") for key in keys):
        raise ValueError(f"expected '--key value' pairs, got {extra}")
    return {key[2:]: value for key, value in zip(keys, values)}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = argparse.ArgumentParser(prog="osslab",
                                     description="desk-scale open-set SSL lab")
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--out", default=".", help="output directory root")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("train", help="run one training")
    p = sub.add_parser("sweep", help="run a hyperparameter sweep")
    p.add_argument("--axis", required=True, help="any config key")
    p.add_argument("--values", required=True, help="comma-separated values")
    sub.add_parser("ablate", help="run the ablation matrices")
    sub.add_parser("eval", help="evaluate the checkpoint of the run dir that 'train' wrote")
    sub.add_parser("emit-plot-data", help="write plot files from the run dir that 'train' wrote")

    args, extra = parser.parse_known_args(argv)
    try:
        cfg = parse_overrides(load_config(args.config) if args.config else TrainingConfig(),
                              _split_overrides(extra))
    except (ValueError, OSError) as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 1

    try:
        return _dispatch(args, cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def _write_json(run_dir: str, name: str, obj) -> int:
    """Writes ``obj`` to ``run_dir/name`` as indented JSON and prints the same text."""
    text = json.dumps(obj, indent=2)
    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, name), "w") as fh:
        fh.write(text)
    print(text)
    return 0


def _dispatch(args, cfg: TrainingConfig) -> int:
    run_dir = os.path.join(args.out, trainer.run_dir_name(cfg))
    if args.command in ("eval", "emit-plot-data") and not os.path.isdir(run_dir):
        raise FileNotFoundError(f"no run dir {run_dir}; run 'train' with the same flags first")

    if args.command == "train":
        result = trainer.train(cfg, run_dir=run_dir)
        print(json.dumps(result.summary, indent=2))
        return 0

    if args.command == "sweep":
        values = [parse_value(args.axis, v) for v in args.values.split(",")]
        rows = trainer.sweep(cfg, args.axis, values)
        return _write_json(run_dir, f"sweep_{args.axis}.json", rows)

    if args.command == "ablate":
        return _write_json(run_dir, "ablation.json", trainer.ablate(cfg))

    if args.command == "eval":
        state = trainer.load_run(run_dir)
        rows = trainer.evaluate_checkpoint(state.ema_params, state.table, state.step,
                                           generate(state.config))
        print(json.dumps([dataclasses.asdict(r) for r in rows], indent=2))
        return 0

    if args.command == "emit-plot-data":
        trainer.emit_plot_data(run_dir, os.path.join(run_dir, "plots"))
        print(os.path.join(run_dir, "plots"))
        return 0

    raise ValueError(f"unknown command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
