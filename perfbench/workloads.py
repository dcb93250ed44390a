"""Benchmark workloads: inputs generated from the seed, plus reference values.

A workload is prepared once (input generation, untimed) and then set up
one or more times (building or reading the operators the program sees,
timed as `setup_s`). Each set-up yields the same list of cells; a cell is
one operator with the estimator configuration and the methods to run on it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from specdet import (EstimatorConfig, KernelSpec, SparseOperator,
                     read_matrix_market, se_kernel, write_matrix_market)

POLY = ("maxent", "taylor", "chebyshev", "slq")
ALL = POLY + ("exact",)

# Size of the sparse matrices whose closed forms every run checks against
# the Cholesky oracle: a 30 x 30 grid and a 900-node mesh.
CHECK_GRID = 30
CHECK_N = CHECK_GRID * CHECK_GRID
# Oracle estimates per pass on each of those n=900 cells in sparse-mtx.
ORACLE_REPEATS = 10


def timed(timings: dict, name: str, fn, *args):
    """Call fn(*args), appending its wall time in seconds to timings[name]."""
    t0 = time.perf_counter()
    out = fn(*args)
    timings.setdefault(name, []).append(time.perf_counter() - t0)
    return out


@dataclass
class Cell:
    label: str
    op: object
    cfg: EstimatorConfig | None
    methods: tuple
    reference: float | None = None  # None: the exact oracle's value is the reference
    repeats: int = 1  # times each method runs per pass; cheap cells run more


@dataclass(frozen=True)
class Workload:
    """One workload; README.md says why each was chosen."""

    name: str
    # Highest relative error any single cell may show, per method. These are
    # regression ceilings, not accuracy targets: about 1.5x the worst cell
    # over 30 (dense-se) and 1000 (small-se) cells drawn from other seeds,
    # and 2x the fixed sparse-mtx cells.
    ceilings: dict
    prepare: Callable[[int, Path], object]
    setup: Callable[[object, dict], list]


# --- sparse families with closed-form log determinants --------------------

def laplacian_2d(g: int) -> SparseOperator:
    """5-point Dirichlet Laplacian on a g x g grid, lower triangle stored."""
    idx = np.arange(g * g).reshape(g, g)
    diag = idx.ravel()
    rows = np.concatenate([diag, idx[1:, :].ravel(), idx[:, 1:].ravel()])
    cols = np.concatenate([diag, idx[:-1, :].ravel(), idx[:, :-1].ravel()])
    vals = np.concatenate([np.full(g * g, 4.0), -np.ones(rows.size - g * g)])
    return SparseOperator.from_coo(rows, cols, vals, g * g)


def laplacian_2d_logdet(g: int) -> float:
    """Sum of log(4 - 2cos(j pi/(g+1)) - 2cos(k pi/(g+1))) over j, k."""
    c = 2.0 * np.cos(np.arange(1, g + 1) * np.pi / (g + 1))
    return float(np.log(4.0 - c[:, None] - c[None, :]).sum())


def fem_mass_1d(n: int) -> SparseOperator:
    """Consistent P1 mass matrix tridiag(1, 4, 1) / 6, lower triangle stored."""
    i = np.arange(n)
    rows = np.concatenate([i, i[1:]])
    cols = np.concatenate([i, i[:-1]])
    vals = np.concatenate([np.full(n, 4.0 / 6.0), np.full(n - 1, 1.0 / 6.0)])
    return SparseOperator.from_coo(rows, cols, vals, n)


def fem_mass_1d_logdet(n: int) -> float:
    """Sum of log((4 + 2cos(k pi/(n+1))) / 6) over k."""
    k = np.arange(1, n + 1)
    return float(np.log((4.0 + 2.0 * np.cos(k * np.pi / (n + 1))) / 6.0).sum())


def write_sparse_pair(tmp: Path, g: int, n: int) -> list:
    """Write the Laplacian and mass matrix; returns [(path, closed form)]."""
    out = []
    for name, op, ref in (("laplacian", laplacian_2d(g), laplacian_2d_logdet(g)),
                          ("mass", fem_mass_1d(n), fem_mass_1d_logdet(n))):
        path = tmp / f"{name}-{op.n}.mtx"
        write_matrix_market(op, path)
        out.append((path, ref))
    return out


# --- SE-kernel workloads --------------------------------------------------

def _kernel_cells(seed: int, n: int, lengthscales, kernels_per_l: int, m: int, d: int):
    """Kernel specs and estimator configs; every seed is drawn from `seed`."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(kernels_per_l):
        for l in lengthscales:
            spec = KernelSpec(n=n, dim=6, lengthscale=l, noise=1e-8,
                              seed=int(rng.integers(2**31)))
            # the diagonal noise is a certified spectrum floor, as the CLI uses it
            cfg = EstimatorConfig(m=m, d=d, seed=int(rng.integers(2**31)),
                                  min_eigenvalue=spec.noise)
            out.append((spec, cfg))
    return out


def _build_kernels(specs, timings: dict) -> list:
    return [Cell(f"l={spec.lengthscale} kseed={spec.seed}",
                 timed(timings, "synth.se_kernel", se_kernel, spec), cfg, ALL)
            for spec, cfg in specs]


def _read_sparse(files, timings: dict) -> list:
    cells = [Cell(Path(path).stem, timed(timings, "linop.read_mtx", read_matrix_market, path),
                  # fixed probe streams, and d=10: README.md says why
                  EstimatorConfig(m=30, d=10, seed=0), POLY, ref)
             for path, ref in files]
    # the oracle cannot run at n=22,500 (its dense copy alone is 4 GB), so
    # exact_ms times it on the 900-node members of the same two families
    # ~20 ms against ~1.6 s for the rest of a pass, so each pass repeats it to
    # give exact_ms tens of samples per run instead of a handful
    cells += [Cell(f"{label}-{CHECK_N}", op, None, ("exact",), ref, repeats=ORACLE_REPEATS)
              for label, op, ref in (
                  ("laplacian", laplacian_2d(CHECK_GRID), laplacian_2d_logdet(CHECK_GRID)),
                  ("mass", fem_mass_1d(CHECK_N), fem_mass_1d_logdet(CHECK_N)))]
    return cells


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="dense-se",
            ceilings={"maxent": 0.4, "taylor": 2.1, "chebyshev": 1.5, "slq": 0.6},
            prepare=lambda seed, tmp: _kernel_cells(seed, 2000, (0.45, 0.65, 0.85), 1, 30, 50),
            setup=_build_kernels,
        ),
        Workload(
            name="sparse-mtx",
            ceilings={"maxent": 4e-3, "taylor": 0.036, "chebyshev": 3.5e-3, "slq": 4.1e-3,
                      "exact": 1e-10},
            prepare=lambda seed, tmp: write_sparse_pair(tmp, 150, 22_500),
            setup=_read_sparse,
        ),
        Workload(
            name="small-se",
            ceilings={"maxent": 1.2, "taylor": 2.0, "chebyshev": 1.1, "slq": 0.23},
            prepare=lambda seed, tmp: _kernel_cells(
                seed, 256, (0.45, 0.55, 0.65, 0.75, 0.85), 8, 30, 30),
            setup=_build_kernels,
        ),
    )
}


def rel_error(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference) if reference != 0.0 else abs(value)


def closed_form_ok(value: float, reference: float) -> bool:
    return math.isfinite(value) and rel_error(value, reference) <= 1e-10
