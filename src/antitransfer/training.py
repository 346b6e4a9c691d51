"""Training strategies and protocol: orthogonal pre-training, then scratch /
weight-initialization / frozen-WI / anti-transfer / inverse / dual runs under
one shared protocol (Adam, batch 13, early stopping on validation
cross-entropy with patience 5, best-epoch weights restored).

Validation cross-entropy is the one selection rule: it picks the epoch a run
stops after and restores, and, at each point's best epoch, a sweep's best
point. The anti-transfer term is reported but never selects: its scale
differs by aggregation and its sign flips under at_inverse.

`STRATEGIES` is the one table of what a strategy does: how many pretrained
checkpoints it takes, whether its convs start from the first one, whether
convs 1..max(at.layers) are then frozen, and the sign of its anti-transfer
term against the last one (or no term). Config checks, the single-stage
trainer and the CLI all read it; only `train()` knows that dual_at runs in
two stages.

A single-stage run (`_train_single`) is set-up, one epoch loop (`_fit`) and
finish. `_fit` alone owns the optimizer, the shuffling and dropout RNGs,
validation, `metrics.csv` and early stopping; the training epoch totals its
per-batch losses through `_fold`, and validation scores the whole split in
one pass.

The frozen extractor's aggregated representations (Gram matrices by default)
are precomputed once per split before the epoch loop: they are constants of
the run, so this is arithmetically identical to running the extractor forward
in parallel on every batch, just cheaper. The trained network's side of each
anti-transfer term is aggregated inside the network's blocks of samples, and
pulled back there in the backward; only the batch's similarity, value and
gradient with respect to the aggregates (`_at_term`) run on the calling
thread, once per anti-transfer layer and batch.
"""

from __future__ import annotations

import csv
import math
import time
from concurrent.futures import Executor
from dataclasses import dataclass, field, asdict, replace
from functools import partial
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import checkpoint as ckpt
from .audio import NormStats, compute_norm_stats, normalize
from .checkpoint import DTYPES
from .data import DEFAULT_FRACTIONS, LABEL_FIELDS, SPLIT_POLICIES, Dataset
from .losses import (ATConfig, aggregate, aggregate_with_pullback,
                     cross_entropy_and_grad)
from .losses import at_term as _at_term
from .network import ArchConfig, Network, build, conv_feature_shapes, preset
from .optim import Adam


class Strategy(NamedTuple):
    """One row of `STRATEGIES`."""

    checkpoints: Optional[int]     # pretrained checkpoints taken; None: any
    init: bool = False             # convs start from the first checkpoint
    freeze: bool = False           # convs 1..max(at.layers) stay frozen
    sign: Optional[float] = None   # anti-transfer term vs the last; None: none


STRATEGIES = {
    "scratch": Strategy(checkpoints=None),
    "wi": Strategy(1, init=True),
    "wi_freeze": Strategy(1, init=True, freeze=True),
    "at": Strategy(1, sign=1.0),
    "at_inverse": Strategy(1, sign=-1.0),
    "dual_at": Strategy(2, sign=1.0),   # stage 2 of `train`'s two stages
}


def _is_number(value) -> bool:
    """An int or float that is not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; carries the epoch/batch it happened in."""


@dataclass
class TrainConfig:
    """Everything one run needs; defaults follow the reference protocol."""

    strategy: str = "scratch"
    at: ATConfig = field(default_factory=ATConfig)
    pretrained_checkpoints: Tuple[str, ...] = ()
    label_field: str = "target"      # one of data.LABEL_FIELDS
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
    split_fractions: Tuple[float, float, float] = DEFAULT_FRACTIONS

    def __post_init__(self):
        if isinstance(self.at, dict):
            self.at = ATConfig(**self.at)
        self.pretrained_checkpoints = tuple(self.pretrained_checkpoints)
        self.split_fractions = tuple(self.split_fractions)
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {tuple(STRATEGIES)}")
        if self.label_field not in LABEL_FIELDS:
            raise ValueError(f"unknown label field {self.label_field!r}; "
                             f"choose from {LABEL_FIELDS}")
        if not all(_is_number(f) and 0.0 <= f <= 1.0
                   for f in self.split_fractions):
            raise ValueError(f"split_fractions must each be in [0, 1], got "
                             f"{list(self.split_fractions)}")
        if abs(sum(self.split_fractions) - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to 1")
        for name, low in (("batch_size", 1), ("max_epochs", 1), ("patience", 0),
                          ("seed", 0)):
            value = getattr(self, name)
            if not (_is_number(value) and isinstance(value, int) and value >= low):
                raise ValueError(f"{name} must be an integer >= {low}, "
                                 f"got {value!r}")
        if not (_is_number(self.lr) and math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be a finite number > 0, got {self.lr!r}")
        if self.dtype not in DTYPES:
            raise ValueError(f"dtype must be one of {DTYPES}, got {self.dtype!r}")
        if not isinstance(self.normalize_inputs, bool):
            raise ValueError(f"normalize_inputs must be true or false, got "
                             f"{self.normalize_inputs!r}")
        if self.split_policy not in SPLIT_POLICIES:
            raise ValueError(f"split_policy must be one of {SPLIT_POLICIES}, "
                             f"got {self.split_policy!r}")
        need = STRATEGIES[self.strategy].checkpoints
        if need is not None and len(self.pretrained_checkpoints) != need:
            raise ValueError(f"strategy {self.strategy} requires exactly {need} "
                             f"pretrained checkpoint(s), got "
                             f"{len(self.pretrained_checkpoints)}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class EpochMetrics:
    epoch: int
    train_ce: float
    val_ce: float
    train_acc: float
    val_acc: float
    seconds: float
    train_at_per_layer: Dict[int, float] = field(default_factory=dict)
    val_at_per_layer: Dict[int, float] = field(default_factory=dict)

    @property
    def train_at(self) -> float:
        return sum(self.train_at_per_layer.values())

    @property
    def val_at(self) -> float:
        return sum(self.val_at_per_layer.values())

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

# Evaluation, validation and the extractor precompute hand the network whole
# batches in forwards that do not record; `Network` runs each over its blocks
# of samples on every CPU and reduces each block's tapped maps before the
# next, so no whole-batch map is built.

def evaluate(net: Network, x: np.ndarray, labels: np.ndarray,
             batch_size: int = 64) -> Tuple[float, np.ndarray]:
    """Eval-mode accuracy and confusion matrix (rows = true class), from
    one forward per batch of `batch_size` samples."""
    n_classes = net.arch.n_classes
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    for a in range(0, len(x), batch_size):
        pred = net.forward(x[a:a + batch_size], record=False)[0].argmax(axis=1)
        np.add.at(confusion, (labels[a:a + batch_size], pred), 1)
    return int(np.trace(confusion)) / max(len(x), 1), confusion


def batch_objective(net: Network, xb: np.ndarray, yb: np.ndarray,
                    at_cfg: Optional[ATConfig] = None,
                    aggs: Optional[Dict[int, np.ndarray]] = None,
                    rows=slice(None), train: bool = False, rng=None,
                    record: bool = True, sign: float = 1.0):
    """The training objective on one batch: cross-entropy plus, for each
    anti-transfer conv, the term of sign `sign` against rows `rows` of the
    extractor's per-sample aggregates `aggs`.

    The network's blocks aggregate their rows of each such conv's map
    (`losses.aggregate_with_pullback`), and `_at_term` takes the term and
    its gradient from the batch's aggregates. Returns (logits, ce, {layer:
    at value}, dlogits, {layer: gradient w.r.t. that layer's aggregates}),
    whose last item `net.backward` takes as `reduced_grad_in`; a zero-weight
    term has a value but no gradient. The trainer, validation and the
    gradient oracle all call this; with `record` false the forward keeps
    nothing for `net.backward` and no gradient is computed.
    """
    layers = at_cfg.layers if at_cfg else ()
    # a zero-weight term reads no aggregate (`at_term`), so none is taken
    reduce = {k: partial(aggregate_with_pullback, kind=at_cfg.aggregation)
              for k in layers if at_cfg.beta}
    logits, agg_t = net.forward(xb, train=train, rng=rng, record=record,
                                reduce=reduce)
    ce, dlogits = cross_entropy_and_grad(logits, yb)
    at_vals, agg_grads = {}, {}
    for k in layers:
        at_vals[k], grad = _at_term(agg_t.get(k), aggs[k][rows], at_cfg, sign,
                                    record)
        if grad is not None:
            agg_grads[k] = grad
    return logits, ce, at_vals, dlogits, agg_grads


def _fold(batches, layers: Sequence[int]):
    """Sample-weighted means of the training epoch's per-batch (rows, ce,
    correct, {layer: at}), added in batch order: (ce, accuracy, {layer:
    at})."""
    n, ce_sum, correct = 0, 0.0, 0
    at_sums = {k: 0.0 for k in layers}
    for rows, ce, right, at_vals in batches:
        n += rows
        ce_sum += ce * rows
        correct += right
        for k, val in at_vals.items():
            at_sums[k] += val * rows
    n = max(n, 1)
    return ce_sum / n, correct / n, {k: v / n for k, v in at_sums.items()}


def _eval_losses(net: Network, x, labels, at_cfg: Optional[ATConfig],
                 agg_cache: Optional[Dict[int, np.ndarray]], sign: float = 1.0):
    """Validation cross-entropy, accuracy and per-layer anti-transfer terms,
    from one `batch_objective` over the whole split."""
    logits, ce, at_vals, _, _ = batch_objective(net, x, labels, at_cfg,
                                                agg_cache, record=False,
                                                sign=sign)
    return ce, int((logits.argmax(axis=1) == labels).sum()) / len(x), at_vals


# ---------------------------------------------------------------------------
# Anti-transfer plumbing
# ---------------------------------------------------------------------------

def _precompute_extractor_aggs(extractor: Network, x: np.ndarray,
                               at_cfg: ATConfig) -> Dict[int, np.ndarray]:
    """Per-sample aggregated representations of the frozen extractor, which
    each of its blocks takes of its own rows."""

    def reduce(fmap):
        return aggregate(fmap, at_cfg.aggregation), None

    return extractor.tap_features(x, reduce=dict.fromkeys(at_cfg.layers, reduce))


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
        row = STRATEGIES[config.strategy]
        layers = config.at.layers if row.freeze or row.sign is not None else ()
    k = len(conv_feature_shapes(_arch(config, data["train"])))
    bad = sorted({int(l) for l in layers if not 1 <= l <= k})
    if bad:
        raise ValueError(f"anti-transfer layer(s) {bad} outside 1..{k}, the "
                         f"conv layers of {config.arch_preset}")


def _train_single(config: TrainConfig, data: Dict[str, Dataset], out_dir: Path,
                  init: Optional[Network] = None) -> TrainResult:
    """One run of `config`'s row of `STRATEGIES`: set-up, `_fit`, finish.
    The convs start from `init` when given (saved as final_init.atck), else
    from the first checkpoint when the row says so."""
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

    row = STRATEGIES[config.strategy]
    source = (ckpt.load(config.pretrained_checkpoints[0])
              if init is None and row.init else init)
    if source is not None:
        ckpt.init_from(net, source,
                       freeze_up_to=max(config.at.layers) if row.freeze else None)

    at_cfg = extractor = hash_before = None
    aggs = {}
    if row.sign is not None:
        at_cfg = config.at
        extractor = ckpt.load(config.pretrained_checkpoints[-1])
        _check_extractor_compatible(net, extractor, at_cfg)
        hash_before = extractor.weight_hash()
        aggs = {s: _precompute_extractor_aggs(extractor, xs[s], at_cfg)
                for s in ("train", "val")}

    if init is not None:
        ckpt.save(net, out_dir / "final_init.atck",
                  provenance=_provenance(config, epoch=0, stats=stats))

    metrics, best, weights = _fit(config, net, xs, labels, at_cfg, aggs,
                                  row.sign, out_dir / "metrics.csv")

    net.load_params(weights)
    test_acc, confusion = evaluate(net, xs["test"], labels["test"])
    ckpt_path = out_dir / "model.atck"
    ckpt.save(net, ckpt_path,
              provenance=_provenance(config, epoch=best, stats=stats))
    summary = {
        "config": config.to_dict(),
        "best_epoch": best,
        "epochs_run": len(metrics),
        "val_accuracy": metrics[best].val_acc,
        "test_accuracy": test_acc,
        "confusion_matrix": confusion.tolist(),
        "checkpoint": ckpt_path.name,
        "norm_stats": None if stats is None else {"mean": stats.mean, "std": stats.std},
        "extractor_hash_before": hash_before,
        "extractor_hash_after": None if extractor is None else extractor.weight_hash(),
    }
    ckpt.write_json(out_dir / "summary.json", summary)
    return TrainResult(out_dir=out_dir, checkpoint_path=ckpt_path,
                       metrics=metrics, best_epoch=best,
                       test_accuracy=test_acc, val_accuracy=summary["val_accuracy"],
                       confusion=confusion, summary=summary, network=net)


def _fit(config: TrainConfig, net: Network, xs, labels,
         at_cfg: Optional[ATConfig], aggs: Dict[str, Dict[int, np.ndarray]],
         sign: Optional[float], metrics_path: Path
         ) -> Tuple[List[EpochMetrics], int, Dict[str, np.ndarray]]:
    """The epoch loop: Adam steps over shuffled batches of the train split,
    validation, a metrics.csv row per epoch, and early stopping on the
    validation cross-entropy after `config.patience` epochs without a new
    lowest. Returns every epoch's metrics, the best epoch (the one with the
    lowest validation cross-entropy) and copies of its trainable weights."""
    optimizer = Adam(lr=config.lr)
    rng_order = np.random.default_rng([config.seed, 1])
    rng_dropout = np.random.default_rng([config.seed, 2])
    taps = at_cfg.layers if at_cfg else ()
    x, y = xs["train"], labels["train"]
    params, grads = net.trainable_params()

    def steps(epoch):
        """One Adam step per batch; yields each batch's (rows, ce,
        correct, {layer: at}) for `_fold`."""
        order = rng_order.permutation(len(x))
        for start in range(0, len(x), config.batch_size):
            idx = order[start:start + config.batch_size]
            yb = y[idx]
            net.finite_checks = start == 0
            logits, ce, at_vals, dlogits, agg_grads = batch_objective(
                net, x[idx], yb, at_cfg, aggs.get("train"), idx,
                train=True, rng=rng_dropout, sign=sign)
            batch_at = sum(at_vals.values(), 0.0)
            if not np.isfinite(ce + batch_at):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, samples "
                    f"{start}..{start + len(idx)} (ce={ce}, at={batch_at})")
            correct = int((logits.argmax(axis=1) == yb).sum())
            net.backward(dlogits, reduced_grad_in=agg_grads)
            optimizer.step(params, grads)
            yield len(idx), ce, correct, at_vals
        net.finite_checks = True

    metrics: List[EpochMetrics] = []
    best, best_ce, best_weights = -1, np.inf, None
    with open(metrics_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(EpochMetrics.csv_header(taps))
        for epoch in range(config.max_epochs):
            tic = time.perf_counter()
            train_ce, train_acc, train_at = _fold(steps(epoch), taps)
            val_ce, val_acc, val_at = _eval_losses(
                net, xs["val"], labels["val"], at_cfg, aggs.get("val"), sign)
            em = EpochMetrics(epoch=epoch, train_ce=train_ce, val_ce=val_ce,
                              train_acc=train_acc, val_acc=val_acc,
                              seconds=time.perf_counter() - tic,
                              train_at_per_layer=train_at,
                              val_at_per_layer=val_at)
            metrics.append(em)
            writer.writerow(em.csv_row())
            f.flush()
            if em.val_ce < best_ce:
                best, best_ce = epoch, em.val_ce
                best_weights = {n: a.copy() for n, a in params.items()}
            elif epoch - best >= config.patience:
                break
    return metrics, best, best_weights


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
    """Run one experiment with the configured strategy, as its row of
    `STRATEGIES` says.

    scratch    : cross-entropy only.
    wi         : conv weights initialized from the checkpoint, then scratch.
    wi_freeze  : wi with conv layers 1..max(at.layers) frozen.
    at         : anti-transfer against the checkpoint's conv stack.
    at_inverse : same but encouraging similarity (sign flipped).
    dual_at    : stage 1, an `at` run against checkpoint A into
                 out_dir/intermediate; stage 2, the run itself, starts from
                 stage 1's conv weights with anti-transfer against B.
    """
    out_dir = Path(out_dir)
    check_at_layers(config, data)
    if config.strategy != "dual_at":
        return _train_single(config, data, out_dir)
    stage_cfg = replace(config, strategy="at",
                        pretrained_checkpoints=config.pretrained_checkpoints[:1])
    intermediate = _train_single(stage_cfg, data, out_dir / "intermediate")
    result = _train_single(config, data, out_dir, init=intermediate.network)
    result.summary["intermediate"] = str(intermediate.out_dir / "model.atck")
    result.summary["intermediate_extractor_hashes"] = {
        "before": intermediate.summary["extractor_hash_before"],
        "after": intermediate.summary["extractor_hash_after"]}
    ckpt.write_json(out_dir / "summary.json", result.summary)
    return result


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
    Returns (train_acc, val_acc, test_acc, val_ce), all at the best epoch."""
    result = train(cfg, data, run_dir)
    best = result.metrics[result.best_epoch]
    return best.train_acc, result.val_accuracy, result.test_accuracy, best.val_ce


def sweep_points(base_config: TrainConfig, data: Dict[str, Dataset], label: str,
                 values: Sequence) -> List[Tuple[float, TrainConfig]]:
    """The (value, config) points of a sweep over the anti-transfer layer
    (label "layer": the term on conv v alone) or its weight ("beta"). Every
    point is built and checked here, layers against the network trained on
    `data`, so a bad point raises ValueError before anything trains; so
    does a value given twice, whose points would share a run directory."""
    if not values:
        raise ValueError(f"empty {label} sweep grid")
    seen = [int(v) if label == "layer" else float(v) for v in values]
    repeated = [v for i, v in enumerate(seen) if v in seen[:i]]
    if repeated:
        raise ValueError(f"{label} {repeated[0]} is given twice")
    if label == "layer":
        check_at_layers(base_config, data, values)
        ats = [replace(base_config.at, layers=(int(v),)) for v in values]
    else:
        check_at_layers(base_config, data)
        ats = [replace(base_config.at, beta=float(v)) for v in values]
    return [(v, replace(base_config, at=at)) for v, at in zip(values, ats)]


def sweep(points: Sequence[Tuple[float, TrainConfig]], label: str,
          data: Dict[str, Dataset], out_dir,
          executor: Optional[Executor] = None) -> List[SweepRow]:
    """Train each point of `sweep_points` into out_dir/<label>_<value>,
    write sweep.csv and flag the best row, the one with the lowest
    validation cross-entropy at its best epoch. Points run through
    executor.map when an executor is given."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    run_dirs = [out_dir / f"{label}_{v}" for v, _ in points]
    results = (executor.map if executor else map)(
        _sweep_point, [cfg for _, cfg in points], [data] * len(points), run_dirs)
    rows = [SweepRow(float(v), *result, out_dir=str(run_dir))
            for (v, _), result, run_dir in zip(points, results, run_dirs)]
    min(rows, key=lambda r: r.val_loss).best = True
    with ckpt.atomic_open(out_dir / "sweep.csv", "w") as f:
        w = csv.writer(f)
        w.writerow([label, "train_acc", "val_acc", "test_acc", "val_loss", "best"])
        for r in rows:
            w.writerow([r.value, f"{r.train_acc:.4f}", f"{r.val_acc:.4f}",
                        f"{r.test_acc:.4f}", f"{r.val_loss:.6f}", int(r.best)])
    return rows


DEFAULT_BETA_GRID = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
