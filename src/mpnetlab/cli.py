"""Command-line entry point: run the experiment a config file describes.

A config with an ``snr_loss`` section is an SNR-loss sweep; any other is a
learning run. Logging goes to standard error; data only to files, so standard
output stays clean for scripting. Exit codes: 0 success, 1 runtime failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from .config import load_config
from .experiments import run_learning_experiment, snr_loss_experiment
from .utils import to_db


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mpnetlab", description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, type=Path, help="experiment config file (YAML); an 'snr_loss' section makes it a sweep")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", type=Path, default=None, help="output directory (overrides config)")
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument("-v", "--verbose", action="store_true", help="log per-minibatch detail")
    verbosity.add_argument("--quiet", action="store_true", help="suppress log output")
    return parser


def _log(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _prepare_out_dir(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    # fail before any computation if the directory cannot receive files
    probe = tempfile.TemporaryFile(dir=out_dir)
    probe.close()


def _run(args) -> int:
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
    except ValueError as exc:  # a ConfigError, or the --seed override's range check
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    out_dir = args.out if args.out is not None else (Path(cfg.output_dir) if cfg.output_dir else None)
    if out_dir is None:
        print("config error: no output directory (set 'output_dir' or pass --out)", file=sys.stderr)
        return 1

    try:
        _prepare_out_dir(out_dir)
    except OSError as exc:
        print(f"output directory is not writable: {exc}", file=sys.stderr)
        return 1

    try:
        if cfg.snr_loss is not None:
            _log(args, f"sweeping SNR loss over {len(cfg.snr_loss.pos_stds)}x{len(cfg.snr_loss.gain_stds)} cells")
            snr_loss_experiment(cfg, out_dir)
        else:
            batches = cfg.total_samples // cfg.training.minibatch_size
            _log(args, f"running {cfg.total_samples} samples ({batches} minibatches) with {len(cfg.estimators)} estimators")
            result = run_learning_experiment(cfg, out_dir)
            if args.verbose:
                for minibatch, rmses in enumerate(result.records["mean_rmse"].tolist(), 1):
                    parts = " ".join(f"{name}={to_db(r):.2f}dB" for name, r in zip(result.estimator_names, rmses))
                    print(f"minibatch {minibatch}: {parts}", file=sys.stderr)
        _log(args, f"wrote results to {out_dir}")
    except Exception as exc:  # surface a one-line cause, leave no partial files
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
