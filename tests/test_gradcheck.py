"""The finite-difference machinery itself, plus the built-in oracle suite."""

import numpy as np

from antitransfer import training
from antitransfer.gradcheck import (GradCheckReport, central_differences,
                                    gradcheck, max_relative_error,
                                    run_oracle_suite, total_loss_gradcheck)


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
        # every per-op anti-transfer check and every whole-objective check,
        # sigmoid_mse included, sees the flip
        at = [r.name for r in reports if "anti-transfer" in r.name]
        total = [r.name for r in reports if "total objective" in r.name]
        assert len(at) == 10 and set(at) <= set(failed)
        assert len(total) == 4 and set(total) <= set(failed)

    def test_total_loss_gradcheck_both_layers_and_similarities(self):
        for layer in (1, 2):
            for sim in ("squared_cosine", "sigmoid_mse"):
                report = total_loss_gradcheck(layer, sim)
                assert report.passed, report.line()

    def test_oracle_checks_the_trainers_objective(self, monkeypatch):
        """A sign error in the anti-transfer gradient the trainer injects
        must fail every whole-objective check."""
        at_term = training._at_term

        def ascending(trained, agg_pretrained, config):
            val, grad = at_term(trained, agg_pretrained, config)
            return val, -grad

        monkeypatch.setattr(training, "_at_term", ascending)
        for layer in (1, 2):
            for sim in ("squared_cosine", "sigmoid_mse"):
                report = total_loss_gradcheck(layer, sim)
                assert not report.passed, report.line()
