"""Estimator benchmark: time and accuracy of every log-determinant method.

Run from the repository root:

    python3 perfbench/run.py --workload dense-se --seed 1 --seconds 30 --trace 0

The run generates the workload's inputs from --seed, sets them up, makes
the run-level correctness checks, then repeats passes over the workload's
cells for --seconds, setting them up afresh before each pass after the
first (the median set-up is `setup_s`). A pass makes every estimate of
every cell, always the same ones, so each pass after the first must
reproduce the first bit for bit; accuracy comes from the first.
A time metric is each cell's fastest estimate, averaged over the cells.

--trace 0 prints the end-to-end metrics; --trace 1 also traces every
estimate from outside the program and prints the per-layer metrics. Both
end with one JSON line {"correct", "attempted", "failed", "metrics"} and
exit 1 if any check failed.
"""

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# BLAS threads per workload, fixed before numpy loads; dense-se uses the
# library default. Measured on a 2-core x86 VM with OpenBLAS 0.3.31: at
# n=256 a second thread only adds hand-off stalls (the exact oracle's median
# is 0.9 ms with one thread and 3-5 ms with two, a quarter of calls past
# 40 ms). sparse-mtx multiplies in
# scipy's single-threaded CSR kernel; there a second thread slowed SLQ's
# reorthogonalization (2.0 s against 2.3 s) and the n=900 oracle.
BLAS_THREADS = {"small-se": "1", "sparse-mtx": "1"}

if __name__ == "__main__":
    peek = argparse.ArgumentParser(add_help=False)
    peek.add_argument("--workload")
    threads = BLAS_THREADS.get(peek.parse_known_args()[0].workload)
    if threads is not None:
        os.environ["OPENBLAS_NUM_THREADS"] = threads
    if not (SRC / "specdet" / "__init__.py").is_file():
        print(f"error: the specdet sources are not under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import harness

    sys.exit(harness.main(sys.argv[1:], ROOT, one_thread=threads == "1"))
