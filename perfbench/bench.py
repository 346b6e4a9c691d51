"""Runs one workload: repeated set-up, then measured repetitions for a fixed
number of seconds, with output checks, and turns the result into metrics.

Import this only after the BLAS thread count is pinned (see run.py).
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Optional, Tuple

import numpy as np
import scipy

from spans import Tracer
from workloads import Checks


def _openblas_threads() -> Optional[int]:
    """Thread count OpenBLAS reports, read from the library numpy loaded."""
    libdir = Path(np.__file__).parent.parent
    for lib in glob.glob(str(libdir / "numpy.libs" / "*openblas*.so*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return None


def _git_head(root: Path) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root: Path) -> dict:
    """What a result depends on beyond the code: bit-identical checkpoints
    are only expected at the same BLAS thread count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_version,
            "blas_threads": _openblas_threads(),
            "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)), "git_head": _git_head(root)}


def _measure(workload, ctx, work_dir: Path, seconds: float, checks: Checks,
             tracer: Optional[Tracer], first):
    """Repeat `workload.run` for about `seconds` (at least once): a
    repetition starts only if it should end less than half its length past
    the deadline."""
    reps = []
    deadline = time.perf_counter() + seconds
    while not reps or time.perf_counter() + reps[-1].seconds / 2 < deadline:
        out = work_dir / f"rep{len(reps)}"
        try:
            with tracer.span("bench.rep") if tracer else nullcontext():
                rep, raw = workload.run(ctx, out)
        except Exception as exc:  # a failed repetition is counted, not fatal
            traceback.print_exc()
            checks.expect(False, f"repetition raised {type(exc).__name__}: {exc}")
            if time.perf_counter() >= deadline:
                break
            continue
        first = first or rep
        workload.check(rep, raw, first, checks)
        del raw  # a trained network still holds its last activations
        shutil.rmtree(out, ignore_errors=True)
        rep.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        reps.append(rep)
    return reps, first


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 work_dir: Path, spans_path: Optional[Path] = None
                 ) -> Tuple[Optional[dict], dict]:
    """Returns (result, detail). result is None when no repetition finished.

    Set-up runs `workload.setups` times and then again until the set-ups
    cover a tenth of `seconds`, so that a short set-up is timed over a
    window of whole seconds; `setup_s` is the median. With trace off the
    metrics are the end-to-end ones. With trace on, set-up is traced, then
    half of `seconds` runs untraced and half traced, and the metrics are the
    per-layer ones plus the tracing overhead.
    """
    checks = Checks()
    tracer = Tracer(workload.arch()) if trace else None
    setup_s, fingerprints = [], set()
    if tracer:
        tracer.install()
    try:
        while len(setup_s) < workload.setups or sum(setup_s) < seconds / 10:
            setup_dir = work_dir / f"setup{len(setup_s)}"
            tic = time.perf_counter()
            with tracer.span("bench.setup") if tracer else nullcontext():
                ctx = workload.setup(setup_dir, seed, checks)
            setup_s.append(time.perf_counter() - tic)
            fingerprints.add(ctx["fingerprint"])
            if len(setup_s) > 1:  # only the last set-up's files are used
                shutil.rmtree(work_dir / f"setup{len(setup_s) - 2}")
        checks.expect(len(fingerprints) == 1, "set-up repeats exactly")
        if tracer:
            tracer.uninstall()
            plain, first = _measure(workload, ctx, work_dir, seconds / 2,
                                    checks, None, None)
            tracer.install()
            reps, _ = _measure(workload, ctx, work_dir, seconds / 2, checks,
                               tracer, first)
        else:
            reps, _ = _measure(workload, ctx, work_dir, seconds, checks, None, None)
    finally:
        if tracer:
            tracer.uninstall()

    detail = {"workload": workload.name, "seed": seed, "trace": int(trace),
              "setups": len(setup_s), "reps": len(reps),
              "failed_frac": len(checks.failed) / max(checks.attempted, 1),
              "failed_checks": checks.failed,
              "weights_sha256": reps[0].weights_sha256 if reps else None}
    if reps and "val_ce_last" in reps[0].outputs:
        detail["val_ce_last"] = reps[0].outputs["val_ce_last"]
    if not reps or (tracer and not plain):
        return None, detail

    if tracer:
        metrics = tracer.per_layer_metrics(len(setup_s), len(reps))
        overhead = (statistics.median(r.seconds for r in reps)
                    / statistics.median(r.seconds for r in plain) - 1.0)
        metrics["trace_overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
        detail["missing_spans"] = tracer.missing_spans()
        detail["missing_targets"] = tracer.missing_targets
        if spans_path:
            tracer.write(spans_path)
            detail["spans_file"] = str(spans_path)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "samples_per_s": {"value": statistics.median(
                r.units / r.seconds for r in reps), "unit": "1/s"},
            "epoch_s": {"value": statistics.median(
                s for r in reps for s in r.epoch_seconds), "unit": "s"},
            # A user runs one train or inference call per process; later
            # repetitions reuse a fragmented heap and peak less predictably.
            "peak_rss_mb": {"value": reps[0].peak_rss_kb / 1024.0, "unit": "MB"},
        }
    result = {"correct": not checks.failed, "attempted": checks.attempted,
              "failed": len(checks.failed), "metrics": metrics}
    return result, detail
