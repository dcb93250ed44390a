"""Synthetic squared-exponential kernel matrices.

K_ij = exp(-||x_i - x_j||^2 / (2 l^2)) over Gaussian inputs, plus a small
diagonal noise term. The ratio lengthscale/input_scale controls the
condition number: with the default input spread, l in [0.05, 0.85]
sweeps kappa from ~1 to ~10^10, the regime where polynomial log-det
approximations struggle. The diagonal noise also lower-bounds the
spectrum, which estimators can exploit via a known support floor.

The kernel is built in place, in one n x n array. Its lower triangle is
filled in the row blocks that `linop.row_blocks` walks (~256 KB each), and
each block runs the whole expression while it is in cache: one product
with the doubled inputs, the sum of squared norms, the clamp, the scaling
and the exponential. The upper triangle is then copied from the lower one
in 128 x 128 tiles, so K is exactly symmetric. Each entry of the lower
triangle comes from the same operations on the same operands as in the
former full-matrix build, so K equals that build bit for bit on the
benchmark's kernels (n=256 and 2000, dim=6). Elsewhere the two can differ
by round-off: the full-matrix build averaged its two triangles, which
differ where its BLAS product is not exactly symmetric (n=1031), and with
wide inputs (dim=50) the products of the first row blocks differ from the
full product's entries by round-off (tests/test_synth.py).

Measured on a 2-core x86 VM (OpenBLAS 0.3.31, medians of 7-41 builds, two
runs each), against the full-matrix build, which made about nine n x n
temporaries: n=256 takes 0.6-0.7 ms (0.95-1.25), n=2000 34-35 ms (84-94)
and n=4000 133-160 ms (524-538). The traced allocation peak is 1.02-1.06
times K for n >= 1000, against 3.0 times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linop import DenseOperator, row_blocks

# whole kernels took 29 and 105 ms at n=2000 and 4000 with 128-row tiles,
# 32 and 115 ms with 64-row ones
_MIRROR_TILE = 128
_UPPER = np.triu(np.ones((_MIRROR_TILE, _MIRROR_TILE), dtype=bool), 1)


@dataclass(frozen=True)
class KernelSpec:
    n: int
    dim: int = 6
    lengthscale: float = 0.5
    noise: float = 1e-8
    seed: int = 0
    input_scale: float = 0.21

    def __post_init__(self):
        if self.n < 1 or self.dim < 1:
            raise ValueError("n and dim must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        # the negated forms also reject nan; an infinite input spread makes
        # every distance nan
        if not self.lengthscale > 0:
            raise ValueError(f"lengthscale must be positive, got {self.lengthscale}")
        if not 0 <= self.noise < np.inf:
            raise ValueError(f"noise variance must be non-negative and finite, got {self.noise}")
        if not 0 < self.input_scale < np.inf:
            raise ValueError(f"input_scale must be positive and finite, got {self.input_scale}")


def se_kernel(spec: KernelSpec, points: np.ndarray | None = None) -> DenseOperator:
    """Dense SE kernel operator; pass `points` to pin input locations."""
    if points is None:
        rng = np.random.default_rng(spec.seed)
        points = spec.input_scale * rng.standard_normal((spec.n, spec.dim))
    else:
        points = np.asarray(points, dtype=float)
        if points.shape != (spec.n, spec.dim):
            raise ValueError(f"points must have shape {(spec.n, spec.dim)}")
    n = spec.n
    sq = np.einsum("ij,ij->i", points, points)
    # the operands of `2.0 * points @ points.T`; points times their own
    # transpose would go to BLAS syrk, which sums in another order
    doubled = 2.0 * points
    scale = 2.0 * spec.lengthscale**2
    K = np.empty((n, n))
    blocks = row_blocks(n)
    sums = np.empty(blocks[0][1] * n)  # the first block is the largest
    for i, e in blocks:
        blk = K[i:e, :e]  # rows i:e, up to the end of their diagonal block
        np.matmul(doubled[i:e], points[:e].T, out=blk)
        s = sums[:blk.size].reshape(blk.shape)
        np.add(sq[i:e, None], sq[None, :e], out=s)
        np.subtract(s, blk, out=blk)
        # clamp guards the tiny negative round-off of the expanded distance
        np.maximum(blk, 0.0, out=blk)
        np.negative(blk, out=blk)
        blk /= scale
        np.exp(blk, out=blk)
    _mirror_lower(K)
    np.fill_diagonal(K, 1.0 + spec.noise)
    return DenseOperator(K, symmetric=True)


def _mirror_lower(K: np.ndarray) -> None:
    """Copy K's strict lower triangle onto its upper one, tile by tile."""
    n, t = len(K), _MIRROR_TILE
    for r in range(0, n, t):
        d = K[r:r + t, r:r + t]
        np.copyto(d, d.T, where=_UPPER[:len(d), :len(d)])
        for c in range(r + t, n, t):
            K[r:r + t, c:c + t] = K[c:c + t, r:r + t].T
