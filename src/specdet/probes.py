"""Stochastic estimation of normalized spectral moments.

Moments mu_i = (1/n) Tr f_i(B) are estimated with Rademacher probes
(Hutchinson's method). Three bases are supported on [0, 1]: raw powers,
shifted Chebyshev T_i(2x-1), and shifted Legendre P_i(2x-1).

One recurrence serves every basis. The probe block Z is advanced through
the lower half of the shifted Chebyshev basis only, V_k = T_k(2B - I) Z
for k <= ceil(m/2), one block product per step; for symmetric B the upper
half follows from column inner products (T_k short for T_k(2B - I)),

    z.T_2k z = 2 |T_k z|^2 - z.z,        z.T_2k+1 z = 2 (T_k z).(T_k+1 z) - z.T_1 z,

so m moments cost ceil(m/2) block products (the doubling trick of the
kernel polynomial method; Weisse, Wellein, Alvermann & Fehske, Rev. Mod.
Phys. 78, 2006). Power and Legendre moments are an exact linear map of
the Chebyshev ones (`MomentBasis.chebyshev_matrix`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

POWER = "power"
CHEBYSHEV = "chebyshev"
LEGENDRE = "legendre"
_BASIS_KINDS = (POWER, CHEBYSHEV, LEGENDRE)


@dataclass(frozen=True)
class MomentBasis:
    """Polynomial basis f_0..f_m on [0, 1] with f_0 == 1."""

    kind: str
    order: int

    def __post_init__(self):
        if self.kind not in _BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}; expected one of {_BASIS_KINDS}")
        if self.order < 0:
            raise ValueError("basis order must be non-negative")

    def vandermonde(self, lam: np.ndarray) -> np.ndarray:
        """Evaluate f_0..f_m at the given points; shape (len(lam), m+1)."""
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        m = self.order
        # the recurrences run on contiguous rows of the transpose
        F = np.empty((m + 1, lam.size))
        F[0] = 1.0
        if m > 0 and self.kind == POWER:
            F[1] = lam
            for i in range(2, m + 1):
                F[i] = F[i - 1] * lam
        elif m > 0:
            t = 2.0 * lam - 1.0
            F[1] = t
            for i in range(1, m):
                if self.kind == CHEBYSHEV:
                    F[i + 1] = 2.0 * t * F[i] - F[i - 1]
                else:
                    F[i + 1] = ((2 * i + 1) * t * F[i] - i * F[i - 1]) / (i + 1)
        return np.ascontiguousarray(F.T)

    def chebyshev_matrix(self) -> np.ndarray:
        """Exact change of basis L with f_i(x) = sum_k L[i, k] T_k(2x - 1).

        Interpolates f_0..f_m at the m+1 Chebyshev points, where the
        Chebyshev Vandermonde matrix is orthogonal up to column scaling.
        """
        m = self.order
        x = 0.5 * (np.cos(np.pi * (np.arange(m + 1) + 0.5) / (m + 1)) + 1.0)
        T = MomentBasis(CHEBYSHEV, m).vandermonde(x)
        # lower triangular in exact arithmetic; drop the round-off above it
        return np.tril(np.linalg.solve(T, self.vandermonde(x)).T)

    def to_power_matrix(self) -> np.ndarray:
        """Exact change of basis C with f_i(x) = sum_k C[i, k] x^k."""
        m = self.order
        C = np.zeros((m + 1, m + 1))
        C[0, 0] = 1.0
        if m == 0:
            return C
        if self.kind == POWER:
            return np.eye(m + 1)
        # recurrences in power coefficients of t = 2x - 1
        C[1, 0], C[1, 1] = -1.0, 2.0
        shifted = np.zeros(m + 1)  # x * f_i in power coefficients
        for i in range(1, m):
            shifted[1:] = C[i, :-1]
            tC = 2.0 * shifted - C[i]  # (2x - 1) * f_i in power coefficients
            if self.kind == CHEBYSHEV:
                C[i + 1] = 2.0 * tC - C[i - 1]
            else:
                C[i + 1] = ((2 * i + 1) * tC - i * C[i - 1]) / (i + 1)
        return C


@dataclass
class SpectralMoments:
    """Estimated moments mu_0..mu_m with probe metadata."""

    basis: MomentBasis
    values: np.ndarray
    probes: int
    seed: int
    variance: np.ndarray = field(default=None)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.basis.order + 1,):
            raise ValueError("moment vector length must be order + 1")
        if self.variance is None:
            self.variance = np.zeros_like(self.values)


def probe_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for probe `index` of stream `seed`, schedule-independent."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(ss))


def rademacher_probe(n: int, rng: np.random.Generator) -> np.ndarray:
    """Vector of i.i.d. +-1 entries; z.z == n exactly for every draw."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2.0 * rng.integers(0, 2, size=n).astype(float) - 1.0


def probe_matrix(n: int, d: int, seed: int) -> np.ndarray:
    """The d Rademacher probes of stream `seed`, as columns; shape (n, d).

    Methods that share a seed share these exact probes, so cross-method
    comparisons are paired.
    """
    Z = np.empty((n, d))
    for j in range(d):
        Z[:, j] = rademacher_probe(n, probe_rng(seed, j))
    return Z


def _col_dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Column-wise inner products X[:, j].Y[:, j]."""
    return np.einsum("ij,ij->j", X, Y)


def _moment_samples(op, basis: MomentBasis, Z: np.ndarray) -> np.ndarray:
    """Per-probe quadratic forms z_j.f_i(B)z_j / n; shape (d, m+1).

    Makes ceil(m/2) calls to op.matmat; see the module docstring.
    """
    n, d = Z.shape
    m = basis.order
    samples = np.empty((d, m + 1))
    samples[:, 0] = _col_dot(Z, Z) / n
    prev, cur = None, Z
    for k in range(1, (m + 1) // 2 + 1):
        # recurrence in t = 2B - I applied to the probe block
        tcur = 2.0 * op.matmat(cur) - cur
        nxt = tcur if k == 1 else 2.0 * tcur - prev
        if k == 1:
            samples[:, 1] = _col_dot(Z, nxt) / n
        else:
            samples[:, 2 * k - 1] = 2.0 * _col_dot(cur, nxt) / n - samples[:, 1]
        if 2 * k <= m:
            samples[:, 2 * k] = 2.0 * _col_dot(nxt, nxt) / n - samples[:, 0]
        prev, cur = cur, nxt
    if basis.kind == CHEBYSHEV:
        return samples
    # every f_i and T_k is 1 at x = 1, so each row of L sums to 1 and the
    # map can act on deviations from 1: a spectrum at 1 gives exactly 1
    return 1.0 + (samples - 1.0) @ basis.chebyshev_matrix().T


def estimate_moments(op, basis: MomentBasis, d: int, seed: int) -> SpectralMoments:
    """Monte Carlo moment estimates over d probes, deterministic in seed.

    `op` is typically a NormalizedOperator; any symmetric operator with .n
    and .matmat works (the doubling identities need symmetry). Probes are
    reduced in index order, so results are bit-identical for identical
    arguments.
    """
    if d < 1:
        raise ValueError("probe count d must be >= 1")
    Z = probe_matrix(op.n, d, seed)
    samples = _moment_samples(op, basis, Z)
    values = samples.mean(axis=0)
    if not np.isfinite(values).all():
        raise ValueError("non-finite moment estimate; operator may not be normalized")
    variance = samples.var(axis=0, ddof=1) if d > 1 else np.zeros(basis.order + 1)
    return SpectralMoments(basis=basis, values=values, probes=d, seed=seed, variance=variance)


def moments_to_power(moments: SpectralMoments) -> SpectralMoments:
    """Re-express moments in the power basis via the exact change of basis."""
    C = moments.basis.to_power_matrix()
    # mu_i = sum_k C[i,k] p_k with C lower triangular: forward substitution
    # gives p_k from mu_0..mu_k alone, so the low moments stay exact however
    # large the entries of the high rows grow (~6e17 at m = 30)
    p = scipy.linalg.solve_triangular(C, moments.values, lower=True)
    return SpectralMoments(
        basis=MomentBasis(POWER, moments.basis.order),
        values=p,
        probes=moments.probes,
        seed=moments.seed,
        variance=moments.variance.copy(),
    )


def hutchinson_sample_bound(epsilon: float, eta: float) -> int:
    """Probe count guaranteeing fractional trace error epsilon w.p. 1 - eta."""
    if not (0.0 < epsilon <= 1.0):
        raise ValueError("epsilon must lie in (0, 1]")
    if not (0.0 < eta < 1.0):
        raise ValueError("eta must lie in (0, 1)")
    return math.ceil(6.0 * epsilon**-2 * math.log(2.0 / eta))
