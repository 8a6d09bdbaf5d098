"""Benchmark of mor2's reduce -> solve chain, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; mor2 is imported from src/ and need
not be installed.  The workload runs in a child process (worker.py) with
BLAS pinned to one thread; this process waits for it, adds the child's peak
resident memory and prints one JSON object as the last line of standard
output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  Span files of traced runs go to .perfbench_out/.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import resource
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("reduce-ac1", "solve-rdc", "online-ac2")

# One BLAS thread: on the 2-vCPU machine of the reference figures a second
# thread made a 1024 x 1024 product slower (59 ms against 46 ms) and the
# Lanczos SVD path about twice as slow, and added run-to-run spread.
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 170


def main(argv=None):
    parser = argparse.ArgumentParser(description="mor2 benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mor2", "__init__.py")):
        print(f"mor2 sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", OUT_DIR]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"worker did not finish within {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"worker exited with code {proc.returncode}", file=sys.stderr)
        return 3
    result = json.loads(lines[-1])
    if not args.trace:
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["metrics"]["peak_rss_mb"] = {"value": peak_kib / 1024.0, "unit": "MB"}
    print(f"# {args.workload} seed {args.seed}: BLAS threads {threads}, "
          f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
