"""Benchmark entry point.

    python3 perfbench/run.py --workload {stream,score,train} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. Generates its inputs from ``--seed``, drives
``src/tonelab`` through its public functions for ``--seconds`` seconds,
checks the outputs, prints a report and, as the last line of stdout, one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` its per-layer metrics; the spans of a traced run are written
to ``.bench_out/``. Scratch files go to ``.bench_work/`` and are removed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# One client, one BLAS thread: within nproc, and steadier on a shared machine
# than threads that contend for the same cores. Must precede numpy's import.
BLAS_THREADS = 1
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(BLAS_THREADS)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("stream", "score", "train"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tonelab", "__init__.py")):
        print(f"error: {SRC}/tonelab not found; run from a tonelab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads  # noqa: E402  (needs SRC on sys.path)

    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root)
    try:
        bench = workloads.CLASSES[args.workload](
            args.seed, args.seconds, bool(args.trace), workdir, workloads.DEFAULT)
        out = bench.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    config = workloads.describe(bench)
    print("env " + json.dumps(env, sort_keys=True))
    print("config " + json.dumps(config, sort_keys=True))
    for note in out.notes:
        print(note)
    for name, (value, unit) in out.metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    if args.trace:
        print("per-layer metric -> end-to-end metric it should move:")
        for layer_metric, moves in workloads.MOVES.items():
            print(f"  {layer_metric}: {moves}")
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace_{args.workload}.jsonl")
        bench.tracer.write(path, {"env": env, "config": config})
        print(f"spans written to {os.path.relpath(path, ROOT)}")

    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
