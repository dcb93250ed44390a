"""The machine a run measured on, and a single-threaded BLAS baseline."""

from __future__ import annotations

import ctypes
import glob
import os
import subprocess
import sys

import numpy as np
import scipy

# Times one dense product A @ X of shape (n, n) x (n, k) and prints GFLOP/s
# from the median of 15 repetitions. Run in a child so its BLAS thread count
# can be pinned before numpy loads.
_SINGLE_THREAD_PRODUCT = """
import sys, time
import numpy as np
n, k = int(sys.argv[1]), int(sys.argv[2])
rng = np.random.default_rng(0)
A, X = rng.random((n, n)), rng.random((n, k))
A @ X
ts = []
for _ in range(15):
    t0 = time.perf_counter()
    A @ X
    ts.append(time.perf_counter() - t0)
print(2.0 * n * n * k / sorted(ts)[7] / 1e9)
"""


def _blas_threads() -> str:
    """Thread count reported by the OpenBLAS that numpy bundles, if found."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def _l3_bytes() -> str:
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def describe(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "l3_bytes": _l3_bytes(),
        "seed": seed,
    }


def single_thread_gflops(n: int, k: int) -> float:
    """GFLOP/s of one (n, n) x (n, k) BLAS product with one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _SINGLE_THREAD_PRODUCT, str(n), str(k)],
                         capture_output=True, text=True, env=env, timeout=120, check=True)
    return float(out.stdout.strip())
