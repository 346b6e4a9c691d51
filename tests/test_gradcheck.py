"""The finite-difference machinery itself, plus the built-in oracle suite."""

from unittest import mock

import numpy as np
import pytest

from antitransfer import layers as L
from antitransfer import training
from antitransfer.losses import AGGREGATIONS
from antitransfer.gradcheck import (GradCheckReport, _layer_check,
                                    central_differences, gradcheck,
                                    max_relative_error, run_oracle_suite,
                                    total_loss_gradcheck)


class TestMachinery:
    def test_quadratic_oracle(self):
        theta = np.array([0.7, -1.3, 2.1])

        def loss():
            return float(0.5 * (theta ** 2).sum())

        report = gradcheck(loss, [theta], [theta.copy()], tolerance=1e-8)
        assert report.passed
        assert report.max_rel_error < 1e-8

    def test_wrong_gradient_detected(self):
        theta = np.array([0.7, -1.3, 2.1])

        def loss():
            return float(0.5 * (theta ** 2).sum())

        report = gradcheck(loss, [theta], [2.0 * theta], tolerance=1e-4)
        assert not report.passed

    def test_central_differences_on_cubic(self):
        x = np.array([0.5, 1.5])

        def loss():
            return float((x ** 3).sum())

        (g,) = central_differences(loss, [x], h=1e-5)
        assert np.allclose(g, 3 * x ** 2, rtol=1e-8)

    def test_max_relative_error_floor_handles_tiny_pairs(self):
        a = np.array([1e-12, 1.0])
        n = np.array([3e-12, 1.0])
        assert max_relative_error(a, n) < 1e-5

    def test_report_line_format(self):
        r = GradCheckReport(name="x", max_rel_error=1e-9, tolerance=1e-6)
        assert "pass" in r.line() and "x" in r.line()
        r = GradCheckReport(name="x", max_rel_error=1.0, tolerance=1e-6)
        assert "FAIL" in r.line()


class TestOracleSuite:
    def test_all_checks_pass(self):
        reports = run_oracle_suite()
        failed = [r.name for r in reports if not r.passed]
        assert not failed, f"failing checks: {failed}"
        names = " ".join(r.name for r in reports)
        assert "conv2d" in names and "anti-transfer" in names
        assert "total objective" in names

    def test_sign_flip_hook_fails_at_checks(self, flipped_at_gradient):
        reports = run_oracle_suite()
        failed = [r.name for r in reports if not r.passed]
        assert failed
        assert all("anti-transfer" in n or "total objective" in n for n in failed)
        # the per-op check of every aggregation and every whole-objective
        # check, the at_inverse sign included, sees the flip
        at = [r.name for r in reports if "anti-transfer" in r.name]
        total = [r.name for r in reports if "total objective" in r.name]
        assert len(at) == len(AGGREGATIONS) and set(at) <= set(failed)
        assert len(total) == 3 and set(total) <= set(failed)

    def test_total_loss_gradcheck_both_layers(self):
        for layer in (1, 2):
            report = total_loss_gradcheck(layer)
            assert report.passed, report.line()

    def test_oracle_checks_the_trainers_objective(self, monkeypatch):
        """A sign error in the anti-transfer gradient the trainer injects
        must fail every whole-objective check."""
        at_term = training._at_term

        def ascending(*args):
            val, grad = at_term(*args)
            return val, -grad

        monkeypatch.setattr(training, "_at_term", ascending)
        for layer in (1, 2):
            report = total_loss_gradcheck(layer)
            assert not report.passed, report.line()


@pytest.mark.parametrize("spec", [L.conv2d(4),
                                  L.conv2d(4, kernel=3, stride=2, padding=0)],
                         ids=["3x3 same, stride 1", "3x3 valid, stride 2"])
def test_conv_gradients_across_blocks(spec):
    """With one sample per block, the weight gradient is summed across
    blocks and the input gradient folded back block by block; both still
    match central differences."""
    rng = np.random.default_rng(5)
    conv = L.Conv2D(spec, 3, rng)
    conv.b[...] = rng.standard_normal(4)
    x = rng.standard_normal((3, 3, 6, 7))
    with mock.patch.object(L, "_CONV_BLOCK_BYTES", 1):
        report = _layer_check("conv2d in blocks of one sample", conv, x, rng)
    assert report.passed, report.line()
