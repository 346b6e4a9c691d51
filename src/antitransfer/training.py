"""Training strategies and protocol: orthogonal pre-training, then scratch /
weight-initialization / frozen-WI / anti-transfer / inverse / dual runs under
one shared protocol (Adam, batch 13, early stopping on validation loss with
patience 5, best-epoch weights restored).

The frozen extractor's aggregated representations (Gram matrices by default)
are precomputed once per split before the epoch loop: they are constants of
the run, so this is arithmetically identical to running the extractor forward
in parallel on every batch, just cheaper.
"""

from __future__ import annotations

import csv
import os
import time
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import checkpoint as ckpt
from .audio import NormStats, compute_norm_stats, normalize
from .data import Dataset
from .losses import ATConfig, aggregate, cross_entropy_and_grad
from .losses import at_loss_and_grad as _at_term
from .network import ArchConfig, Network, build, conv_feature_shapes, preset
from .optim import Adam

STRATEGIES = ("scratch", "wi", "wi_freeze", "at", "at_inverse", "dual_at")
LABEL_FIELDS = ("target", "orth1", "orth2")


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; carries the epoch/batch it happened in."""


@dataclass
class TrainConfig:
    """Everything one run needs; defaults follow the reference protocol."""

    strategy: str = "scratch"
    at: ATConfig = field(default_factory=ATConfig)
    pretrained_checkpoints: Tuple[str, ...] = ()
    label_field: str = "target"      # target | orth1 | orth2
    task_name: str = ""
    arch_preset: str = "vgg-tiny"
    lr: float = 5e-4
    batch_size: int = 13
    max_epochs: int = 50
    patience: int = 5
    seed: int = 0
    dtype: str = "float32"
    normalize_inputs: bool = True
    split_policy: str = "random"
    split_fractions: Tuple[float, float, float] = (0.7, 0.2, 0.1)

    def __post_init__(self):
        if isinstance(self.at, dict):
            self.at = ATConfig(**self.at)
        self.pretrained_checkpoints = tuple(self.pretrained_checkpoints)
        self.split_fractions = tuple(self.split_fractions)
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if self.label_field not in LABEL_FIELDS:
            raise ValueError(f"unknown label field {self.label_field!r}; "
                             f"choose from {LABEL_FIELDS}")
        if abs(sum(self.split_fractions) - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to 1")
        need = {"at": 1, "at_inverse": 1, "dual_at": 2}.get(self.strategy)
        if need is not None and len(self.pretrained_checkpoints) != need:
            raise ValueError(f"strategy {self.strategy} requires exactly {need} "
                             f"pretrained checkpoint(s), got "
                             f"{len(self.pretrained_checkpoints)}")
        if self.strategy in ("wi", "wi_freeze") and len(self.pretrained_checkpoints) != 1:
            raise ValueError(f"strategy {self.strategy} requires exactly 1 "
                             "pretrained checkpoint")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class EpochMetrics:
    epoch: int
    train_ce: float
    val_ce: float
    train_at: float
    val_at: float
    train_acc: float
    val_acc: float
    seconds: float
    train_at_per_layer: Dict[int, float] = field(default_factory=dict)
    val_at_per_layer: Dict[int, float] = field(default_factory=dict)

    CSV_COLUMNS = ("epoch", "train_ce", "val_ce", "train_at", "val_at",
                   "train_acc", "val_acc", "seconds")

    @classmethod
    def csv_header(cls, at_layers=()) -> list:
        """CSV_COLUMNS, then train_at_<k>, val_at_<k> per anti-transfer layer."""
        return [*cls.CSV_COLUMNS,
                *(f"{split}_at_{k}" for k in at_layers for split in ("train", "val"))]

    def csv_row(self) -> list:
        """One value per `csv_header(self.train_at_per_layer)` column."""
        per_layer = [f"{at[k]:.6f}" for k in self.train_at_per_layer
                     for at in (self.train_at_per_layer, self.val_at_per_layer)]
        return [self.epoch, f"{self.train_ce:.6f}", f"{self.val_ce:.6f}",
                f"{self.train_at:.6f}", f"{self.val_at:.6f}",
                f"{self.train_acc:.4f}", f"{self.val_acc:.4f}",
                f"{self.seconds:.3f}", *per_layer]


@dataclass
class TrainResult:
    out_dir: Path
    checkpoint_path: Path
    metrics: List[EpochMetrics]
    best_epoch: int
    test_accuracy: float
    val_accuracy: float
    confusion: np.ndarray
    summary: dict
    network: Network


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

# Evaluation, validation and the extractor precompute run the network over
# blocks of `Network.eval_block` samples and reduce each block's logits and
# tapped maps before the next, so no whole-batch map is built. The blocks are
# spread over every CPU the process may run on (`_map_blocks`); the block
# partition does not depend on how many there are, and the blocks' results
# are folded in block order, so neither do the outputs.

def _eval_workers() -> int:
    """Threads a pass over blocks runs on: one per CPU in the affinity mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _map_blocks(fn, n: int, block: int) -> list:
    """[fn(rows) for each slice `rows` of `block` consecutive samples of n],
    in block order.

    The calling thread runs the first contiguous share of the blocks, and a
    pool thread per further worker (`_eval_workers`) the next share each;
    numpy releases the GIL in the matmuls, ufuncs and copies that take most
    of a block's time. The pool is joined before the call returns. A share
    stops at its first failing block, and the error of the lowest failing
    share is raised: that of the first failing block in block order. What
    the later shares return or raise is not needed and is dropped."""
    blocks = [slice(a, a + block) for a in range(0, n, block)]
    workers = min(_eval_workers(), len(blocks))

    def run(share):
        return [fn(rows) for rows in share]

    if workers <= 1:
        return run(blocks)
    cuts = [len(blocks) * i // workers for i in range(workers + 1)]
    shares = [blocks[a:b] for a, b in zip(cuts, cuts[1:])]
    with ThreadPoolExecutor(workers - 1, thread_name_prefix="eval-block") as pool:
        rest = [pool.submit(run, share) for share in shares[1:]]
        results = run(shares[0])
        for future in rest:
            results += future.result()
    return results


def evaluate(net: Network, x: np.ndarray, labels: np.ndarray,
             batch_size: int = 64) -> Tuple[float, np.ndarray]:
    """Eval-mode accuracy and confusion matrix (rows = true class), over
    blocks of at most `batch_size` samples."""
    n_classes = net.arch.n_classes

    def block_confusion(rows):
        pred = net.forward(x[rows], record=False)[0].argmax(axis=1)
        confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
        np.add.at(confusion, (labels[rows], pred), 1)
        return confusion

    confusion = sum(_map_blocks(block_confusion, len(x),
                                min(batch_size, net.eval_block)),
                    np.zeros((n_classes, n_classes), dtype=np.int64))
    correct = int(np.trace(confusion))
    return correct / max(len(x), 1), confusion


def batch_objective(net: Network, xb: np.ndarray, yb: np.ndarray,
                    at_cfg: Optional[ATConfig] = None,
                    aggs: Optional[Dict[int, np.ndarray]] = None,
                    rows=slice(None), train: bool = False, rng=None,
                    record: bool = True, sign: float = 1.0):
    """The training objective on one batch: cross-entropy plus, for each
    tapped conv, the anti-transfer term of sign `sign` against rows `rows`
    of the extractor's per-sample aggregates `aggs`.

    Returns (logits, ce, {layer: at value}, dlogits, {layer: gradient to
    inject at that tap}); a zero-weight term has a value but no gradient.
    The trainer, validation and the gradient oracle all call this; with
    `record` false the forward keeps nothing for `net.backward` and no tap
    gradient is computed.
    """
    taps = at_cfg.layers if at_cfg else ()
    logits, tapped = net.forward(xb, train=train, rng=rng, taps=taps,
                                 record=record)
    ce, dlogits = cross_entropy_and_grad(logits, yb)
    at_vals, tap_grads = {}, {}
    for k in taps:
        at_vals[k], grad = _at_term(tapped[k], aggs[k][rows], at_cfg, sign,
                                    record)
        if grad is not None:
            tap_grads[k] = grad
    return logits, ce, at_vals, dlogits, tap_grads


def _eval_losses(net: Network, x, labels, at_cfg: Optional[ATConfig],
                 agg_cache: Optional[Dict[int, np.ndarray]], sign: float = 1.0):
    """Validation cross-entropy, accuracy and per-layer anti-transfer terms."""

    def block_losses(rows):
        yb = labels[rows]
        logits, ce, at_vals, _, _ = batch_objective(net, x[rows], yb, at_cfg,
                                                    agg_cache, rows, record=False,
                                                    sign=sign)
        return len(yb), ce, int((logits.argmax(axis=1) == yb).sum()), at_vals

    total_ce = 0.0
    correct = 0
    at_sums = {k: 0.0 for k in (at_cfg.layers if at_cfg else ())}
    for n_b, ce, correct_b, at_vals in _map_blocks(block_losses, len(x),
                                                   net.eval_block):
        total_ce += ce * n_b
        correct += correct_b
        for k, val in at_vals.items():
            at_sums[k] += val * n_b
    n = max(len(x), 1)
    return (total_ce / n, correct / n, {k: v / n for k, v in at_sums.items()})


# ---------------------------------------------------------------------------
# Anti-transfer plumbing
# ---------------------------------------------------------------------------

def _precompute_extractor_aggs(extractor: Network, x: np.ndarray,
                               at_cfg: ATConfig) -> Dict[int, np.ndarray]:
    """Per-sample aggregated representations of the frozen extractor."""

    def block_aggs(rows):
        tapped = extractor.tap_features(x[rows], at_cfg.layers)
        return {k: aggregate(fmap, at_cfg.aggregation) for k, fmap in tapped.items()}

    blocks = _map_blocks(block_aggs, len(x), extractor.eval_block)
    return {k: np.concatenate([b[k] for b in blocks]) for k in at_cfg.layers}


def _check_extractor_compatible(net: Network, extractor: Network,
                                at_cfg: ATConfig) -> None:
    up_to = max(at_cfg.layers)
    ckpt.check_conv_compatible(net.arch, extractor.arch, up_to,
                               context="anti-transfer extractor")
    mine = conv_feature_shapes(net.arch)
    theirs = conv_feature_shapes(extractor.arch)
    for k in at_cfg.layers:
        if mine[k - 1] != theirs[k - 1]:
            raise ValueError(f"feature map shapes disagree at conv {k}: "
                             f"{mine[k - 1]} vs {theirs[k - 1]}")


# ---------------------------------------------------------------------------
# Single-stage training
# ---------------------------------------------------------------------------

def _arch(config: TrainConfig, train_set: Dataset) -> ArchConfig:
    """The architecture a run of `config` trains on `train_set`."""
    return preset(config.arch_preset, train_set.x.shape[2:],
                  train_set.classes_for(config.label_field))


def check_at_layers(config: TrainConfig, data: Dict[str, Dataset],
                    layers: Optional[Sequence[int]] = None) -> None:
    """Raise ValueError unless every split of `data` has `config`'s label
    and the network `config` trains on it has a feature map at each
    anti-transfer layer: `layers`, or by default the configured ones when
    the strategy uses them. Nothing is trained."""
    for split in data.values():
        split.labels_for(config.label_field)
    if layers is None:
        layers = () if config.strategy in ("scratch", "wi") else config.at.layers
    k = len(conv_feature_shapes(_arch(config, data["train"])))
    bad = sorted({int(l) for l in layers if not 1 <= l <= k})
    if bad:
        raise ValueError(f"anti-transfer layer(s) {bad} outside 1..{k}, the "
                         f"conv layers of {config.arch_preset}")


def _train_single(config: TrainConfig, data: Dict[str, Dataset], out_dir: Path,
                  at_checkpoint: Optional[Path] = None,
                  init_source: Optional[Network] = None,
                  freeze_up_to: Optional[int] = None,
                  save_init_as: Optional[str] = None) -> TrainResult:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    splits = {s: data[s] for s in ("train", "val", "test")}
    labels = {s: d.labels_for(config.label_field) for s, d in splits.items()}
    stats = (compute_norm_stats([data["train"].x]) if config.normalize_inputs
             else None)
    xs = {s: (d.x if stats is None else normalize([d.x], stats)[0]
              ).astype(config.dtype) for s, d in splits.items()}

    net = build(_arch(config, data["train"]), seed=config.seed,
                dtype=np.dtype(config.dtype))

    if init_source is not None:
        ckpt.init_from(net, init_source, freeze_up_to=freeze_up_to)

    at_cfg = None
    sign = -1.0 if config.strategy == "at_inverse" else 1.0
    extractor = None
    agg_caches = {}
    extractor_hash_before = extractor_hash_after = None
    if at_checkpoint is not None:
        at_cfg = config.at
        extractor = ckpt.load(at_checkpoint)
        _check_extractor_compatible(net, extractor, at_cfg)
        extractor_hash_before = extractor.weight_hash()
        for split in ("train", "val"):
            agg_caches[split] = _precompute_extractor_aggs(
                extractor, xs[split], at_cfg)

    optimizer = Adam(lr=config.lr)
    rng_order = np.random.default_rng([config.seed, 1])
    rng_dropout = np.random.default_rng([config.seed, 2])

    if save_init_as:
        ckpt.save(net, out_dir / save_init_as,
                  provenance=_provenance(config, epoch=0, stats=stats))

    taps = at_cfg.layers if at_cfg else ()
    metrics: List[EpochMetrics] = []
    best = {"loss": np.inf, "epoch": -1, "weights": None, "val_acc": 0.0}
    metrics_path = out_dir / "metrics.csv"
    mfile = open(metrics_path, "w", newline="")
    mcsv = csv.writer(mfile)
    mcsv.writerow(EpochMetrics.csv_header(taps))

    x_train = xs["train"]
    y_train = labels["train"]
    n_train = len(x_train)
    params, grads = net.trainable_params()
    try:
        for epoch in range(config.max_epochs):
            tic = time.perf_counter()
            order = rng_order.permutation(n_train)
            ce_sum = 0.0
            at_sums = {k: 0.0 for k in taps}
            correct = 0
            for start in range(0, n_train, config.batch_size):
                idx = order[start:start + config.batch_size]
                yb = y_train[idx]
                net.finite_checks = start == 0
                logits, ce, at_vals, dlogits, inject = batch_objective(
                    net, x_train[idx], yb, at_cfg, agg_caches.get("train"), idx,
                    train=True, rng=rng_dropout, sign=sign)
                for k, val in at_vals.items():
                    at_sums[k] += val * len(idx)
                batch_at = sum(at_vals.values(), 0.0)
                if not np.isfinite(ce + batch_at):
                    raise TrainingDivergedError(
                        f"non-finite loss at epoch {epoch}, samples "
                        f"{start}..{start + len(idx)} (ce={ce}, at={batch_at})")
                ce_sum += ce * len(idx)
                correct += int((logits.argmax(axis=1) == yb).sum())
                net.backward(dlogits, tap_grad_in=inject or None)
                optimizer.step(params, grads)
            net.finite_checks = True

            val_ce, val_acc, val_at = _eval_losses(
                net, xs["val"], labels["val"], at_cfg, agg_caches.get("val"),
                sign)
            train_at_layers = {k: v / n_train for k, v in at_sums.items()}
            em = EpochMetrics(
                epoch=epoch,
                train_ce=ce_sum / n_train,
                val_ce=val_ce,
                train_at=sum(train_at_layers.values()),
                val_at=sum(val_at.values()),
                train_acc=correct / n_train,
                val_acc=val_acc,
                seconds=time.perf_counter() - tic,
                train_at_per_layer=train_at_layers,
                val_at_per_layer=val_at)
            metrics.append(em)
            mcsv.writerow(em.csv_row())
            mfile.flush()

            val_total = val_ce + sum(val_at.values())
            if val_total < best["loss"]:
                best.update(loss=val_total, epoch=epoch, val_acc=val_acc,
                            weights={n: a.copy() for n, a in params.items()})
            elif epoch - best["epoch"] >= config.patience:
                break
    finally:
        mfile.close()

    if best["weights"] is not None:
        net.load_params(best["weights"])

    test_acc, confusion = evaluate(net, xs["test"], labels["test"])
    if extractor is not None:
        extractor_hash_after = extractor.weight_hash()

    ckpt_path = out_dir / "model.atck"
    ckpt.save(net, ckpt_path,
              provenance=_provenance(config, epoch=best["epoch"], stats=stats))
    summary = {
        "config": config.to_dict(),
        "best_epoch": best["epoch"],
        "epochs_run": len(metrics),
        "val_accuracy": best["val_acc"],
        "test_accuracy": test_acc,
        "confusion_matrix": confusion.tolist(),
        "checkpoint": ckpt_path.name,
        "norm_stats": None if stats is None else {"mean": stats.mean, "std": stats.std},
        "extractor_hash_before": extractor_hash_before,
        "extractor_hash_after": extractor_hash_after,
    }
    ckpt.write_json(out_dir / "summary.json", summary)
    return TrainResult(out_dir=out_dir, checkpoint_path=ckpt_path,
                       metrics=metrics, best_epoch=best["epoch"],
                       test_accuracy=test_acc, val_accuracy=best["val_acc"],
                       confusion=confusion, summary=summary, network=net)


def _provenance(config: TrainConfig, epoch: int, stats: Optional[NormStats]) -> dict:
    p = {"task": config.task_name or config.label_field,
         "seed": config.seed, "epoch": epoch, "strategy": config.strategy}
    if stats is not None:
        p["norm_mean"] = stats.mean
        p["norm_std"] = stats.std
    return p


# ---------------------------------------------------------------------------
# Strategy dispatch
# ---------------------------------------------------------------------------

def train(config: TrainConfig, data: Dict[str, Dataset], out_dir) -> TrainResult:
    """Run one experiment with the configured strategy.

    scratch    : cross-entropy only.
    wi         : conv weights initialized from the checkpoint, then scratch.
    wi_freeze  : wi with conv layers 1..max(at.layers) frozen.
    at         : anti-transfer against the checkpoint's conv stack.
    at_inverse : same but encouraging similarity (sign flipped).
    dual_at    : anti-transfer vs checkpoint A, then the result's conv weights
                 initialize a second run with anti-transfer vs checkpoint B.
    """
    out_dir = Path(out_dir)
    check_at_layers(config, data)
    s = config.strategy
    if s == "scratch":
        return _train_single(config, data, out_dir)
    if s == "wi":
        return _train_single(config, data, out_dir,
                             init_source=ckpt.load(config.pretrained_checkpoints[0]))
    if s == "wi_freeze":
        return _train_single(config, data, out_dir,
                             init_source=ckpt.load(config.pretrained_checkpoints[0]),
                             freeze_up_to=max(config.at.layers))
    if s in ("at", "at_inverse"):
        return _train_single(config, data, out_dir,
                             at_checkpoint=config.pretrained_checkpoints[0])
    if s == "dual_at":
        stage_cfg = replace(config, strategy="at",
                            pretrained_checkpoints=(config.pretrained_checkpoints[0],))
        intermediate = _train_single(stage_cfg, data, out_dir / "intermediate",
                                     at_checkpoint=config.pretrained_checkpoints[0])
        final_cfg = replace(config, strategy="at",
                            pretrained_checkpoints=(config.pretrained_checkpoints[1],))
        result = _train_single(final_cfg, data, out_dir,
                               at_checkpoint=config.pretrained_checkpoints[1],
                               init_source=intermediate.network,
                               save_init_as="final_init.atck")
        result.summary["intermediate"] = str(intermediate.out_dir / "model.atck")
        result.summary["intermediate_extractor_hashes"] = {
            "before": intermediate.summary["extractor_hash_before"],
            "after": intermediate.summary["extractor_hash_after"]}
        ckpt.write_json(out_dir / "summary.json", result.summary)
        return result
    raise ValueError(f"unknown strategy {s!r}")


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepRow:
    value: float
    train_acc: float
    val_acc: float
    test_acc: float
    val_loss: float
    out_dir: str
    best: bool = False


def _sweep_point(cfg: TrainConfig, data: Dict[str, Dataset], run_dir: Path
                 ) -> Tuple[float, float, float, float]:
    """Train one sweep point; module-level so a process pool can pickle it.
    Returns (train_acc at the best epoch, val_acc, test_acc, best val loss)."""
    result = train(cfg, data, run_dir)
    return (result.metrics[result.best_epoch].train_acc, result.val_accuracy,
            result.test_accuracy,
            float(min(m.val_ce + m.val_at for m in result.metrics)))


def sweep_points(base_config: TrainConfig, data: Dict[str, Dataset], label: str,
                 values: Sequence) -> List[Tuple[float, TrainConfig]]:
    """The (value, config) points of a sweep over the anti-transfer layer
    (label "layer": the term on conv v alone) or its weight ("beta"). Every
    point is built and checked here, layers against the network trained on
    `data`, so a bad point raises ValueError before anything trains."""
    if not values:
        raise ValueError(f"empty {label} sweep grid")
    if label == "layer":
        check_at_layers(base_config, data, values)
        ats = [replace(base_config.at, layers=(int(v),)) for v in values]
    else:
        check_at_layers(base_config, data)
        ats = [replace(base_config.at, beta=float(v)) for v in values]
    return [(v, replace(base_config, at=at)) for v, at in zip(values, ats)]


def sweep(points: Sequence[Tuple[float, TrainConfig]], label: str,
          data: Dict[str, Dataset], out_dir, select_by: str = "val_accuracy",
          executor: Optional[Executor] = None) -> List[SweepRow]:
    """Train each point of `sweep_points` into out_dir/<label>_<value>,
    write sweep.csv and flag the best row. Points run through executor.map
    when an executor is given."""
    if select_by not in ("val_accuracy", "val_loss"):
        raise ValueError("select_by must be val_accuracy or val_loss")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    run_dirs = [out_dir / f"{label}_{v}" for v, _ in points]
    results = (executor.map if executor else map)(
        _sweep_point, [cfg for _, cfg in points], [data] * len(points), run_dirs)
    rows = [SweepRow(float(v), *result, out_dir=str(run_dir))
            for (v, _), result, run_dir in zip(points, results, run_dirs)]
    if select_by == "val_accuracy":
        best_i = max(range(len(rows)), key=lambda i: rows[i].val_acc)
    else:
        best_i = min(range(len(rows)), key=lambda i: rows[i].val_loss)
    rows[best_i].best = True
    with ckpt.atomic_open(out_dir / "sweep.csv", "w") as f:
        w = csv.writer(f)
        w.writerow([label, "train_acc", "val_acc", "test_acc", "val_loss", "best"])
        for r in rows:
            w.writerow([r.value, f"{r.train_acc:.4f}", f"{r.val_acc:.4f}",
                        f"{r.test_acc:.4f}", f"{r.val_loss:.6f}", int(r.best)])
    return rows


DEFAULT_BETA_GRID = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
