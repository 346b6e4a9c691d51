"""Command-line entry point wiring the library into reproducible workflows.

Subcommands: pretrain, train, sweep, gradcam, gradcheck, estimate-memory.
Exit codes: 0 success, 1 check failure, 2 configuration error, 3 runtime
failure. A command first sets up: it resolves its config and flags,
prepares the data and checks anti-transfer layers and sweep grids. A
ValueError during set-up is a configuration error and exits 2; once the
command runs, it exits 3. A config file that does not exist exits 2; any
other file that cannot be read or written exits 3 in either phase. Every
run directory receives the fully-resolved config for replay.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import training
from .audio import NormStats, normalize
from .gradcam import gradcam as compute_heatmap
from .gradcam import render as render_heatmap
from .config import ConfigError, ExperimentConfig, prepare_data
from .data import read_sample
from .gradcheck import run_oracle_suite
from .layers import NonFiniteError
from .losses import AGGREGATIONS, SIMILARITIES, estimate_memory
from .network import PRESETS, preset
from .training import TrainingDivergedError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

_STRATEGY_FLAGS = {"scratch": "scratch", "wi": "wi", "wi-freeze": "wi_freeze",
                   "at": "at", "at-inverse": "at_inverse", "dual-at": "dual_at"}


def _add_config_arg(p):
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", help="override the config's output directory")
    p.add_argument("--seed", type=int, help="override the config's seed")


def _add_at_flags(p):
    p.add_argument("--strategy", choices=sorted(_STRATEGY_FLAGS),
                   help="training strategy (overrides config)")
    p.add_argument("--at-layer", type=int, action="append", default=None,
                   metavar="N", help="conv layer for the anti-transfer term "
                   "(repeat for multi-layer)")
    p.add_argument("--beta", type=float, help="anti-transfer loss weight")
    p.add_argument("--similarity", choices=SIMILARITIES)
    p.add_argument("--aggregation", choices=AGGREGATIONS)
    p.add_argument("--checkpoint", action="append", default=None, metavar="PATH",
                   help="pretrained orthogonal checkpoint (order matters for "
                   "dual-at; overrides config)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antitransfer",
        description="Anti-transfer learning experiments: pre-train orthogonal "
                    "models, train with similarity penalties, sweep, inspect.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="stage-1 pre-training on an orthogonal task")
    _add_config_arg(p)

    p = sub.add_parser("train", help="train the target model with a strategy")
    _add_config_arg(p)
    _add_at_flags(p)

    p = sub.add_parser("sweep", help="sweep anti-transfer layers or betas")
    _add_config_arg(p)
    _add_at_flags(p)
    p.add_argument("--layers", help="layer grid, e.g. 1..4 or 1,3,5")
    p.add_argument("--betas", help="comma-separated beta grid "
                   "(default 0.01,0.1,0.5,1,2,5,10,20)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel child runs (default 1)")
    p.add_argument("--select-by", choices=("val_accuracy", "val_loss"),
                   default="val_accuracy")

    p = sub.add_parser("gradcam", help="class activation heatmap as PGM images")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="sample container (.atck)")
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--class", dest="class_index", type=int, required=True)
    p.add_argument("--out", default="gradcam_out", help="output path prefix")
    p.add_argument("--csv", action="store_true", help="also dump raw values")
    p.add_argument("--nearest", action="store_true",
                   help="nearest-neighbor upsampling instead of bilinear")

    sub.add_parser("gradcheck", help="run the finite-difference oracle suite")

    p = sub.add_parser("estimate-memory",
                       help="anti-transfer training memory per layer choice")
    p.add_argument("--arch", default="vgg16", choices=list(PRESETS))
    p.add_argument("--input-size", default="126x129", metavar="FRAMESxBINS")
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--at-layer", type=int, action="append", required=True)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--bytes-per-number", type=int, default=4)
    p.add_argument("--json", action="store_true", dest="as_json")
    return parser


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _given(**kw) -> dict:
    return {k: v for k, v in kw.items() if v is not None}


@contextmanager
def _setup(context: str = ""):
    """A command's set-up phase: a ValueError raised in it becomes a
    ConfigError (exit 2), its message prefixed with `context` if given."""
    try:
        yield
    except ValueError as e:
        raise ConfigError(f"{context}: {e}" if context else str(e)) from e


def _resolve_config(args, with_at_flags: bool) -> ExperimentConfig:
    cfg = ExperimentConfig.load(args.config)
    overrides = _given(seed=args.seed)
    at = {}
    if with_at_flags:
        at = _given(layers=args.at_layer, beta=args.beta,
                    similarity=args.similarity, aggregation=args.aggregation)
        overrides.update(_given(pretrained_checkpoints=args.checkpoint,
                                strategy=_STRATEGY_FLAGS.get(args.strategy)))
    # one replace: the strategy/checkpoint pairing is checked once, on the
    # final combination
    train = replace(cfg.train, at=replace(cfg.train.at, **at), **overrides)
    return ExperimentConfig(train=train, data=cfg.data,
                            output_dir=args.out or cfg.output_dir)


def _prepare_run(cfg: ExperimentConfig):
    """Echo the config into its run directory, prepare its data and check
    that the data has the training label and the network the anti-transfer
    layers; returns (run directory, data)."""
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg.save(out_dir / "config.json")
    data = prepare_data(cfg, out_dir)
    training.check_at_layers(cfg.train, data)
    return out_dir, data


def cmd_pretrain(args) -> int:
    with _setup():
        cfg = _resolve_config(args, with_at_flags=False)
        cfg = ExperimentConfig(train=replace(cfg.train, strategy="scratch"),
                               data=cfg.data, output_dir=cfg.output_dir)
        out_dir, data = _prepare_run(cfg)
    result = training.train(cfg.train, data, out_dir)
    print(f"pretrained checkpoint: {result.checkpoint_path}")
    print(f"best epoch {result.best_epoch}, val acc {result.val_accuracy:.4f}, "
          f"test acc {result.test_accuracy:.4f}")
    return EXIT_OK


def cmd_train(args) -> int:
    with _setup():
        cfg = _resolve_config(args, with_at_flags=True)
        out_dir, data = _prepare_run(cfg)
    result = training.train(cfg.train, data, out_dir)
    print(f"strategy {cfg.train.strategy}: best epoch {result.best_epoch}, "
          f"val acc {result.val_accuracy:.4f}, test acc {result.test_accuracy:.4f}")
    print(f"checkpoint: {result.checkpoint_path}")
    return EXIT_OK


def _parse_grid(flag: str, text: str) -> list:
    """The values of a sweep grid flag: comma-separated numbers, for
    --layers also an inclusive range a..b, for --betas also "default"."""
    if flag == "--betas":
        if text == "default":
            return list(training.DEFAULT_BETA_GRID)
        return [float(t) for t in text.split(",") if t.strip() != ""]
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(t) for t in text.split(",") if t.strip() != ""]


def cmd_sweep(args) -> int:
    with _setup():
        cfg = _resolve_config(args, with_at_flags=True)
        if bool(args.layers) == bool(args.betas):
            raise ConfigError("sweep needs exactly one of --layers or --betas")
        flag, label, text = (("--layers", "layer", args.layers.strip())
                             if args.layers else ("--betas", "beta", args.betas))
        with _setup(f"{flag} {text!r} is not a valid grid"):
            grid = _parse_grid(flag, text)
        # data is materialized once here; workers receive it with each point
        out_dir, data = _prepare_run(cfg)
        with _setup(f"{flag} {text!r}"):
            points = training.sweep_points(cfg.train, data, label, grid)
    pool = (ProcessPoolExecutor(max_workers=args.jobs,
                                mp_context=multiprocessing.get_context("spawn"))
            if args.jobs > 1 else nullcontext())
    with pool as executor:
        rows = training.sweep(points, label, data, out_dir,
                              select_by=args.select_by, executor=executor)
    print(f"{label:>8}  train_acc  val_acc  test_acc  best")
    for r in rows:
        mark = "  <-- best" if r.best else ""
        print(f"{r.value:>8g}  {r.train_acc:>9.4f}  {r.val_acc:>7.4f}  "
              f"{r.test_acc:>8.4f}{mark}")
    print(f"table: {out_dir / 'sweep.csv'}")
    return EXIT_OK


def cmd_gradcam(args) -> int:
    net = ckpt.load(args.checkpoint)
    spec = read_sample(args.input).astype(np.float64)
    prov = getattr(net, "provenance", {})
    x = spec
    if "norm_mean" in prov and "norm_std" in prov:
        x = normalize([spec], NormStats(prov["norm_mean"], prov["norm_std"]))[0]
    heat = compute_heatmap(net, x, args.class_index, args.layer,
                           upsample="nearest" if args.nearest else "bilinear")
    paths = render_heatmap(heat, spec, args.out, dump_csv=args.csv)
    for kind, path in paths.items():
        print(f"{kind}: {path}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    reports = run_oracle_suite()
    failures = 0
    for r in reports:
        print(r.line())
        failures += not r.passed
    print(f"{len(reports) - failures}/{len(reports)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def cmd_estimate_memory(args) -> int:
    with _setup("--input-size must look like 126x129"):
        frames, bins = (int(t) for t in args.input_size.lower().split("x"))
    with _setup():
        est = estimate_memory(preset(args.arch, (frames, bins), args.classes),
                              args.batch, args.at_layer,
                              bytes_per_number=args.bytes_per_number)
    if args.as_json:
        print(json.dumps(est.to_dict(), indent=2, sort_keys=True))
        return EXIT_OK
    print(f"architecture {args.arch}, input {frames}x{bins}, batch {args.batch}")
    print(f"extractor conv-stack weights: {est.extractor_bytes:,} bytes "
          f"({est.extractor_bytes / 2**20:.2f} MiB)")
    for k, d in sorted(est.per_layer.items()):
        layer_bytes = 2 * (d['gram_elems'] + d['feature_elems']) * est.bytes_per_number
        print(f"layer {k}: gram elems {d['gram_elems']:,}, feature elems "
              f"{d['feature_elems']:,} -> {layer_bytes:,} bytes "
              f"({layer_bytes / 2**20:.2f} MiB)")
    print(f"total extra memory: {est.total_bytes:,} bytes "
          f"({est.total_bytes / 2**20:.2f} MiB)")
    return EXIT_OK


_COMMANDS = {"pretrain": cmd_pretrain, "train": cmd_train, "sweep": cmd_sweep,
             "gradcam": cmd_gradcam, "gradcheck": cmd_gradcheck,
             "estimate-memory": cmd_estimate_memory}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (TrainingDivergedError, NonFiniteError) as e:
        print(f"training failure: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ckpt.CheckpointError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
