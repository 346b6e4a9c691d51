"""Finite-difference gradient checking: generic utilities plus the built-in
oracle suite that the CLI exposes.

Checks compare analytic gradients against central differences
(f(x+h) - f(x-h)) / 2h computed in 64-bit, with h scaled per element
magnitude, and report the worst relative error. Failing a tolerance is a
reported outcome, not an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from . import layers as L
from .losses import (AGGREGATIONS, ATConfig, aggregate, at_loss_and_grad,
                     cross_entropy_and_grad)
from .network import ArchConfig, Network, build
from .training import _precompute_extractor_aggs, batch_objective


@dataclass
class GradCheckReport:
    name: str
    max_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: max relative error "
                f"{self.max_rel_error:.3e} (tolerance {self.tolerance:.0e})")


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray,
                       floor: float = 1e-6) -> float:
    """Worst elementwise |a - n| / max(|a|, |n|, floor).

    The floor keeps the metric meaningful for near-zero components: central
    differences carry ~1e-10 absolute noise (machine eps times loss over h),
    so components below the floor are effectively compared on that absolute
    scale instead of an unstable ratio.
    """
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    if a.shape != n.shape:
        raise L.ShapeError(f"gradient shapes differ: {a.shape} vs {n.shape}")
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    err = np.abs(a - n) / denom
    return float(err.max()) if err.size else 0.0


def central_differences(loss_fn: Callable[[], float], params: Sequence[np.ndarray],
                        h: float = 1e-5) -> List[np.ndarray]:
    """Numeric gradient of loss_fn w.r.t. each array, perturbing in place.

    loss_fn re-reads the arrays on every call. The step is h scaled by
    max(1, |value|) per element. Arrays must be float64 for the stated
    tolerances to be meaningful.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p, dtype=np.float64)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            v = flat[i]
            step = h * max(1.0, abs(float(v)))
            flat[i] = v + step
            up = loss_fn()
            flat[i] = v - step
            down = loss_fn()
            flat[i] = v
            gflat[i] = (up - down) / (2.0 * step)
        grads.append(g)
    return grads


def gradcheck(loss_fn: Callable[[], float], params: Sequence[np.ndarray],
              analytic: Sequence[np.ndarray], h: float = 1e-5,
              tolerance: float = 1e-4, name: str = "gradcheck") -> GradCheckReport:
    """Compare the given analytic gradients to central differences."""
    numeric = central_differences(loss_fn, params, h=h)
    worst = 0.0
    for a, n in zip(analytic, numeric):
        worst = max(worst, max_relative_error(a, n))
    return GradCheckReport(name=name, max_rel_error=worst, tolerance=tolerance)


# ---------------------------------------------------------------------------
# Built-in oracle suite
# ---------------------------------------------------------------------------

def _layer_check(name, layer, x, rng_proj, tolerance=1e-6, h=1e-5,
                 train=False, rng_seed=None):
    """Check one layer against a random linear functional of its output."""
    def fwd():
        rng = np.random.default_rng(rng_seed) if rng_seed is not None else None
        return layer.forward(x, train, rng)

    out = fwd()
    proj = rng_proj.standard_normal(out.shape)

    def loss_fn():
        return float((fwd() * proj).sum())

    fwd()
    dx = layer.backward(proj.copy())
    params = [x] + [layer.params()[k] for k in sorted(layer.params())]
    analytic = [dx] + [layer.grads()[k] for k in sorted(layer.params())]
    return gradcheck(loss_fn, params, analytic, h=h, tolerance=tolerance, name=name)


def _two_conv_net(seed: int = 0, n_classes: int = 3) -> Network:
    """Miniature two-conv network (no dropout) used for whole-loss checks."""
    specs = [L.conv2d(3), L.relu(), L.maxpool2d(),
             L.conv2d(4), L.relu(), L.maxpool2d(),
             L.flatten(), L.dense(8), L.relu(), L.dense(n_classes)]
    arch = ArchConfig(layers=specs, input_shape=(1, 8, 9), n_classes=n_classes,
                      name="check-2conv")
    return build(arch, seed=seed, dtype=np.float64)


def total_loss_gradcheck(at_layer: int, seed: int = 0, tolerance: float = 1e-4,
                         h: float = 1e-5, beta: float = 1.0,
                         sign: float = 1.0) -> GradCheckReport:
    """Check d(total objective)/d(every trainable parameter) on a two-conv
    network with the anti-transfer term of sign `sign` (-1 for at_inverse)
    on one layer. Both the loss and the analytic gradient come from
    `training.batch_objective`, the objective the trainer runs, against the
    extractor aggregates of the trainer's precompute."""
    net = _two_conv_net(seed=seed)
    extractor = _two_conv_net(seed=seed + 101)
    rng = np.random.default_rng(seed + 7)
    x = rng.standard_normal((2, 1, 8, 9))
    labels = np.array([0, 2])
    cfg = ATConfig(layers=(at_layer,), beta=beta)

    paggs = _precompute_extractor_aggs(extractor, x, cfg)

    def loss_fn():
        _, ce, at_vals, _, _ = batch_objective(net, x, labels, cfg, paggs,
                                               sign=sign)
        return ce + sum(at_vals.values())

    _, _, _, dce, agg_grads = batch_objective(net, x, labels, cfg, paggs,
                                              sign=sign)
    net.backward(dce, reduced_grad_in=agg_grads)
    inverse = ", at_inverse sign" if sign < 0 else ""
    name = f"total objective (AT layer {at_layer}, squared_cosine{inverse})"
    return gradcheck(loss_fn, list(net.params.values()),
                     list(net.grads.values()), h=h, tolerance=tolerance,
                     name=name)


def run_oracle_suite() -> List[GradCheckReport]:
    """The battery of per-op and whole-objective checks behind `gradcheck`
    on the command line."""
    reports: List[GradCheckReport] = []
    rng = np.random.default_rng(20240)

    # quadratic: loss 0.5*||theta||^2 has gradient theta, exactly
    theta = rng.standard_normal(17) + 0.5

    def quad():
        return float(0.5 * (theta ** 2).sum())

    reports.append(gradcheck(quad, [theta], [theta.copy()], h=1e-5,
                             tolerance=1e-8, name="quadratic loss"))

    # individual layers against a random linear functional
    x = rng.standard_normal((2, 3, 6, 7))
    conv = L.Conv2D(L.conv2d(4), 3, rng, name="conv")
    reports.append(_layer_check("conv2d 3x3 same, stride 1", conv, x.copy(), rng))
    conv_s2 = L.Conv2D(L.conv2d(4, kernel=3, stride=2, padding=0), 3, rng, name="conv")
    reports.append(_layer_check("conv2d 3x3 valid, stride 2", conv_s2, x.copy(), rng))
    pool = L.MaxPool2D(L.maxpool2d())
    reports.append(_layer_check("maxpool2d 3x3 stride 2 ceil", pool, x.copy(), rng))

    xr = rng.standard_normal((3, 10))
    xr += np.sign(xr) * 0.05  # keep ReLU inputs away from the kink
    relu_l = L.ReLU()
    reports.append(_layer_check("relu", relu_l, xr.copy(), rng))

    dense_l = L.Dense(L.dense(5), 10, rng, name="dense")
    reports.append(_layer_check("dense", dense_l, rng.standard_normal((3, 10)), rng))

    drop = L.Dropout(L.dropout(0.5), name="dropout")
    reports.append(_layer_check("dropout (fixed mask)", drop,
                                rng.standard_normal((3, 12)), rng,
                                train=True, rng_seed=99))

    # softmax cross-entropy on 3 classes
    scores = rng.standard_normal((4, 3))
    labels = np.array([0, 2, 1, 1])

    def ce_fn():
        return cross_entropy_and_grad(scores, labels)[0]

    _, dce = cross_entropy_and_grad(scores, labels)
    reports.append(gradcheck(ce_fn, [scores], [dce], h=1e-5, tolerance=1e-6,
                             name="softmax cross-entropy (3 classes)"))

    # anti-transfer loss w.r.t. the trained feature map, each aggregation;
    # inputs are positive like the post-ReLU maps the network taps
    ft = rng.standard_normal((2, 4, 5, 6)) ** 2 + 0.05
    fp = rng.standard_normal((2, 4, 5, 6)) ** 2 + 0.05
    for aggregation in AGGREGATIONS:
        cfg = ATConfig(layers=(1,), beta=1.3, aggregation=aggregation)
        agg_p = aggregate(fp, aggregation)

        def at_fn(agg_p=agg_p, cfg=cfg):
            return at_loss_and_grad(ft, agg_p, cfg)[0]

        _, g = at_loss_and_grad(ft, agg_p, cfg)
        reports.append(gradcheck(
            at_fn, [ft], [g], h=1e-5, tolerance=1e-4,
            name=f"anti-transfer loss ({aggregation} + squared_cosine)"))

    # whole objective through a small network, each conv layer in turn,
    # then once with the at_inverse sign
    for at_layer in (1, 2):
        reports.append(total_loss_gradcheck(at_layer))
    reports.append(total_loss_gradcheck(1, sign=-1.0))

    return reports
