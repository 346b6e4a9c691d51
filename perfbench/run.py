"""Benchmark entry point.

    python3 perfbench/run.py --workload synth-at-32x37 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root; the package is imported from ./src. One
workload runs per process. --seconds defaults to `run_seconds` in
BENCHMARK.json, the length the bounds there were measured at. The last line
of standard output is the result: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics when --trace is 0 and the per-layer
metrics when it is 1. The line before it is {"detail": ...}: seed,
repetitions, failed checks, weights_sha256, val_ce_last and the environment
(library versions, BLAS threads, nproc, git HEAD). With --workload all each
workload runs in its own process and the metrics of all of them are printed
by name with their unit.

Exit codes: 0 result printed, 2 the package could not be imported, 3 no
repetition finished.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("synth-at-32x37", "paper-at-126x129", "audio-infer-126x129")
# One BLAS thread: at most nproc on any machine, and checkpoints are only
# bit-identical across runs at the same BLAS thread count.
BLAS_THREADS = 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a child process; print every metric by name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 3
        result = json.loads(lines[-1])
        print(lines[-2] if len(lines) > 1 else "")
        for metric, m in result["metrics"].items():
            print(f"{name:22s} {metric:34s} {m['value']:14.6g} {m['unit']}")
            combined["metrics"][f"{name}/{metric}"] = m
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    # The BLAS pool size is read once, when numpy loads OpenBLAS.
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread pin")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = str(BLAS_THREADS)
    try:
        import antitransfer
    except ImportError as exc:
        print(f"cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(antitransfer.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"antitransfer imported from {antitransfer.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    import bench
    from workloads import WORKLOADS

    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    spans_path = (ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-spans.json"
                  if args.trace else None)
    try:
        result, detail = bench.run_workload(WORKLOADS[args.workload], args.seed,
                                            args.seconds, bool(args.trace),
                                            work_dir, spans_path)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    detail["env"] = bench.environment(ROOT)
    print(json.dumps({"detail": detail}))
    if result is None:
        print("no repetition finished", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
