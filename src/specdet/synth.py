"""Synthetic squared-exponential kernel matrices.

K_ij = exp(-||x_i - x_j||^2 / (2 l^2)) over Gaussian inputs, plus a small
diagonal noise term. The ratio lengthscale/input_scale controls the
condition number: with the default input spread, l in [0.05, 0.85]
sweeps kappa from ~1 to ~10^10, the regime where polynomial log-det
approximations struggle. The diagonal noise also lower-bounds the
spectrum, which estimators can exploit via a known support floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linop import DenseOperator


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
    sq = np.einsum("ij,ij->i", points, points)
    # clamp guards the tiny negative round-off of the expanded distance
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * points @ points.T, 0.0)
    K = np.exp(-d2 / (2.0 * spec.lengthscale**2))
    np.fill_diagonal(K, 1.0 + spec.noise)
    K = 0.5 * (K + K.T)
    return DenseOperator(K, symmetric=True)
