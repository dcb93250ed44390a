"""Correctness checks made once per run, besides the per-estimate checks.

Each returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np
from specdet import (EstimatorConfig, cli, logdet_exact, logdet_maxent,
                     read_matrix_market)

from workloads import CHECK_GRID, CHECK_N, closed_form_ok, rel_error, timed, write_sparse_pair


def closed_forms(tmp: Path, timings: dict) -> tuple:
    """Both closed forms against the Cholesky oracle at n=900.

    Returns (failures, path of the Laplacian file) so the CLI check can
    reuse the file.
    """
    failures = []
    files = write_sparse_pair(tmp, CHECK_GRID, CHECK_N)
    for path, ref in files:
        op = timed(timings, "check.read_mtx", read_matrix_market, path)
        exact = logdet_exact(op)
        if not closed_form_ok(exact, ref):
            failures.append(f"closed form {ref!r} != exact {exact!r} for {path.name}")
    return failures, files[0][0]


def slogdet_agrees(op) -> list:
    """logdet_exact against numpy.linalg.slogdet on one dense matrix."""
    sign, logabs = np.linalg.slogdet(op.to_dense())
    exact = logdet_exact(op)
    if sign != 1.0 or not np.isfinite(exact) or rel_error(exact, logabs) > 1e-8:
        return [f"logdet_exact {exact!r} disagrees with slogdet ({sign}, {logabs!r})"]
    return []


def cli_matches_library(path: Path, seed: int) -> list:
    """`logdet estimate --mtx PATH --json` exits 0 and prints the library's value."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["estimate", "--mtx", str(path), "--json", "--seed", str(seed)])
    if code != 0:
        return [f"CLI exited {code} on {path.name}"]
    printed = json.loads(out.getvalue())["value"]
    library = logdet_maxent(read_matrix_market(path), EstimatorConfig(seed=seed)).value
    if printed != library:
        return [f"CLI printed {printed!r}, library gives {library!r}"]
    return []
