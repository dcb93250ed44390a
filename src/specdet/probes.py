"""Stochastic estimation of normalized spectral moments.

Moments mu_i = (1/n) Tr f_i(B) are estimated with Rademacher probes
(Hutchinson's method), drawn by `probe_matrix`, the one probe draw that
every estimator reads. Three bases are supported on [0, 1]: raw powers,
shifted Chebyshev T_i(2x-1), and shifted Legendre P_i(2x-1).

Each basis is defined once, by its recurrence in `_recurrence`: f_i+1 =
x f_i for powers, and the three-term recurrences in t = 2x - 1 for
Chebyshev and Legendre. Run on point values it gives
`MomentBasis.vandermonde`, on power coefficients `to_power_matrix`, and on
Chebyshev coefficients `chebyshev_matrix`, so both changes of basis are
exact up to the recurrence's own round-off, and the Chebyshev basis maps
to exactly the identity.

The moment pass runs the Chebyshev recurrence on the operator, for every
basis. The probe block Z is advanced through the lower half of the basis
only, V_k = T_k(2B - I) Z for k <= ceil(m/2), one block product per step;
for symmetric B the upper half follows from column inner products (T_k
short for T_k(2B - I)),

    z.T_2k z = 2 |T_k z|^2 - z.z,        z.T_2k+1 z = 2 (T_k z).(T_k+1 z) - z.T_1 z,

so m moments cost ceil(m/2) block products (the doubling trick of the
kernel polynomial method; Weisse, Wellein, Alvermann & Fehske, Rev. Mod.
Phys. 78, 2006). Power and Legendre moments are an exact linear map of
the Chebyshev ones (`MomentBasis.chebyshev_matrix`, applied by `in_basis`).

For B = K / lambda_u each step multiplies by K itself and then walks the
n x d product in the ~256 KB row tiles of `linop.row_blocks(n, d)`. Each
tile, while it is in cache, gets a division by lambda_u / 4 (lambda_u / 2
at the first step), one in-place BLAS daxpy adding -2 T_k Z (the same
daxpy adds -T_0 Z at the first step), a subtraction of T_k-1 Z from the
second step on, and the two column sums that the identities above read.
Every step takes both sums, so an odd m takes one that is not read; the
tiles' sums are added up once per pass. Scaling by 2 or 4
commutes with rounding, so this equals dividing by lambda_u and then
doubling and subtracting twice, as the recurrence reads, bit for bit. It
is a division, not a product with a reciprocal: fl(4 / c) c != 4 for
c = 49, 98, 103, ..., and a scaled identity c I must give moments of
exactly 1. The rounding error of a column sum grows with the tile
length, not with n, and a block of one tile is summed as a whole column
is. mu_0 = z.z / n is exactly 1 by the probe definition and is not summed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.blas import daxpy

from .linop import NotPositiveDefiniteError, row_blocks

POWER = "power"
CHEBYSHEV = "chebyshev"
LEGENDRE = "legendre"
BASIS_KINDS = (POWER, CHEBYSHEV, LEGENDRE)


@dataclass(frozen=True)
class MomentBasis:
    """Polynomial basis f_0..f_m on [0, 1] with f_0 == 1."""

    kind: str
    order: int

    def __post_init__(self):
        if self.kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}; expected one of {BASIS_KINDS}")
        if self.order < 0:
            raise ValueError("basis order must be non-negative")

    def vandermonde(self, lam: np.ndarray) -> np.ndarray:
        """Evaluate f_0..f_m at the given points; shape (len(lam), m+1)."""
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        v = lam if self.kind == POWER else 2.0 * lam - 1.0
        scaled = functools.cache(lambda c: c * v)  # one 2 v serves every Chebyshev step
        # the recurrence runs on contiguous rows of the transpose
        F = np.empty((self.order + 1, lam.size))
        F[0] = 1.0
        _recurrence(self.kind, F, lambda c, f, out:
                    np.multiply(v if c == 1.0 else scaled(c), f, out))
        return np.ascontiguousarray(F.T)

    def chebyshev_matrix(self) -> np.ndarray:
        """Read-only change of basis L with f_i(x) = sum_k L[i, k] T_k(2x - 1)."""
        return _change_of_basis(self.kind, self.order, CHEBYSHEV)

    def to_power_matrix(self) -> np.ndarray:
        """Read-only change of basis C with f_i(x) = sum_k C[i, k] x^k."""
        return _change_of_basis(self.kind, self.order, POWER)


def _recurrence(kind: str, F: np.ndarray, times) -> None:
    """Fill rows 1..m of F with f_1..f_m of basis `kind`; F[0] holds f_0 == 1.

    The rows hold polynomials in one representation: values at points, or
    coefficients in powers or in Chebyshev polynomials. `times(c, f, out)`
    writes c v f there into `out`, with v = x for the power basis and
    v = t = 2x - 1 for the shifted Chebyshev and Legendre bases.
    """
    for i in range(len(F) - 1):
        f, nxt = F[i], F[i + 1]
        if kind == POWER or i == 0:
            times(1.0, f, nxt)
        elif kind == CHEBYSHEV:
            times(2.0, f, nxt)
            nxt -= F[i - 1]
        else:
            times(2 * i + 1, f, nxt)
            nxt -= i * F[i - 1]
            nxt /= i + 1


@functools.cache
def _change_of_basis(kind: str, m: int, target: str) -> np.ndarray:
    """Read-only, lower triangular M with f_i = sum_k M[i, k] g_k.

    g_k is x^k for target POWER and T_k(2x - 1) for target CHEBYSHEV, and
    the recurrence runs on coefficients in g, where multiplying by x or t
    is a matrix product. Row i has degree i, so no product reaches past
    degree m, and the Chebyshev basis maps to exactly the identity.
    """
    shift = np.eye(m + 1, k=-1)  # x x^k = x^k+1
    if target == POWER:
        v = shift if kind == POWER else 2.0 * shift - np.eye(m + 1)
    else:
        t = 0.5 * (shift + shift.T)  # t T_k = (T_k+1 + T_k-1) / 2
        t[1:2, 0] = 1.0  # t T_0 = T_1
        v = 0.5 * (np.eye(m + 1) + t) if kind == POWER else t
    M = np.eye(m + 1)  # row 0 is f_0 = 1, and the recurrence writes every other row
    _recurrence(kind, M, lambda c, f, out: np.multiply(c, v @ f, out))
    M.flags.writeable = False
    return M


@dataclass
class SpectralMoments:
    """Per-probe moment samples and the Monte Carlo estimates they give.

    Row j of `samples` holds probe j's quadratic forms z_j.f_i(B)z_j / n,
    i = 0..m, so every statistic of the moments is derived from it: the
    estimates `values` are the column means, `variance` the per-moment
    sample variance (zero for a single row, as for exact moments built by
    hand) and `probes` the row count.
    """

    basis: MomentBasis
    samples: np.ndarray
    values: np.ndarray = field(init=False)

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        # shape[1:] rules out every other rank before len() reads the rows
        if self.samples.shape[1:] != (self.basis.order + 1,) or len(self.samples) < 1:
            raise ValueError("moment samples must be a (probes, order + 1) array "
                             "with at least one row")
        self.values = self.samples.mean(axis=0)
        if not np.isfinite(self.values).all():
            raise ValueError("non-finite moment estimate; operator may not be normalized")

    @property
    def probes(self) -> int:
        return len(self.samples)

    @functools.cached_property
    def variance(self) -> np.ndarray:
        """Sample variance of each moment over the probes; zeros for one probe."""
        if self.probes < 2:
            return np.zeros(self.basis.order + 1)
        return self.samples.var(axis=0, ddof=1)


def probe_matrix(n: int, d: int, seed: int) -> np.ndarray:
    """The d Rademacher probes of stream `seed`, as columns; shape (n, d).

    The only probe draw: every estimator reads its probes from here. Probe
    j reads ceil(n/2) raw 64-bit words of
    `PCG64(SeedSequence(seed, spawn_key=(j,)))`, and its entry i is +1
    where the top bit of 32-bit half i (low half first) is set, -1
    elsewhere, so z.z == n exactly. That equals
    `Generator.integers(0, 2, size=n)` on the same bit generator bit for
    bit (numpy 2.4), but raw PCG64 output is stable across numpy versions,
    while `Generator.integers` streams are not promised to be.

    Probe j depends on (seed, j) alone, not on d, and methods that share a
    seed share these exact probes, so cross-method comparisons are paired.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    words = np.empty((d, -(-n // 2)), dtype=np.uint64)
    for j, row in enumerate(words):
        bits = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(j,)))
        row[:] = bits.random_raw(words.shape[1])
    # the 32-bit halves, low first, as signed integers: an arithmetic shift
    # leaves -1 where the top bit is set and 0 elsewhere, and the whole block
    # is mapped to +-1 in place, without block-sized temporaries
    signs = words.astype("<u8", copy=False).view("<i4")[:, :n]
    signs >>= 31
    signs *= -2
    signs -= 1
    return np.ascontiguousarray(signs.T, dtype=float)


def chebyshev_moments(B, m: int, Z: np.ndarray) -> SpectralMoments:
    """The Chebyshev moments of B, order m, on the probe columns of Z.

    Makes ceil(m/2) calls to B.inner.matmat; see the module docstring.
    Every other basis reads these samples through `in_basis`.
    """
    n, d = Z.shape
    lam = B.lambda_u
    # dividing by lam / c equals c times the quotient by lam only while lam / c
    # is exact; below lam = 2^-1020 lam / 4 is subnormal and may round, so
    # there the scaling follows the division
    exact_quarter = lam / 4.0 >= np.finfo(float).tiny
    tiles = row_blocks(n, d)
    steps = (m + 1) // 2
    # step k, tile t: the column sums of T_k-1 Z * T_k Z and of T_k Z * T_k Z
    sums = np.empty((steps, 2, len(tiles), d))
    prev, cur = None, Z
    for k in range(1, steps + 1):
        # t = 2B - I: T_1 Z = 2BZ - Z and T_k+1 Z = 4B T_k Z - 2T_k Z - T_k-1 Z,
        # in place on the product, one row tile at a time while it is in cache;
        # the product's rows are contiguous, so a tile's flat view is what daxpy updates
        c = 2.0 if k == 1 else 4.0
        q = lam / c if exact_quarter else lam
        dots, squares = sums[k - 1]
        nxt = np.ascontiguousarray(B.inner.matmat(cur), dtype=float)
        for t, (i, e) in enumerate(tiles):
            x, y = cur[i:e], nxt[i:e]
            y /= q
            if not exact_quarter:
                y *= c
            # -1 x is exact, so the first step's daxpy equals y -= x
            daxpy(x.reshape(-1), y.reshape(-1), a=-1.0 if k == 1 else -2.0)
            if k > 1:
                y -= prev[i:e]
            np.einsum("ij,ij->j", x, y, out=dots[t])
            np.einsum("ij,ij->j", y, y, out=squares[t])
        prev, cur = cur, nxt
    # the tiles are added up once for all steps; column k-1 of dot and square
    # is step k, and the slices leave m = 0 with mu_0 alone
    dot, square = sums.sum(axis=2).transpose(1, 2, 0)
    samples = np.empty((d, m + 1))
    samples[:, 0] = 1.0  # z.z == n for the probes of `probe_matrix`
    samples[:, 1:2] = dot[:, :1] / n
    samples[:, 3::2] = 2.0 * dot[:, 1:] / n - samples[:, 1:2]
    samples[:, 2::2] = 2.0 * square[:, :m // 2] / n - samples[:, :1]
    # with B's spectrum in [0, 1], T_k(2B - I) has its spectrum in [-1, 1],
    # so |z.T_k z| / n <= z.z / n = 1
    worst = np.abs(samples).max()
    if worst > 1.0 + 1e-8:
        raise NotPositiveDefiniteError(
            f"Chebyshev moment sample {worst:.3g} exceeds 1 in magnitude: the "
            "normalized matrix has an eigenvalue below 0, not positive definite")
    return SpectralMoments(MomentBasis(CHEBYSHEV, m), samples)


def in_basis(moments: SpectralMoments, basis: MomentBasis) -> SpectralMoments:
    """Chebyshev moments' samples in `basis` of the same order, by its change of basis L."""
    if basis.kind == CHEBYSHEV:
        return moments
    # every f_i and T_k is 1 at x = 1, so each row of L sums to 1 and the
    # map can act on deviations from 1: a spectrum at 1 gives exactly 1
    return SpectralMoments(basis, 1.0 + (moments.samples - 1.0) @ basis.chebyshev_matrix().T)


def estimate_moments(op, basis: MomentBasis, d: int, seed: int) -> SpectralMoments:
    """Monte Carlo moment estimates over d probes, deterministic in seed.

    `op` is the NormalizedOperator B = K / lambda_u that `normalize`
    returns. The pass multiplies by K through `op.inner.matmat` and folds
    the division by lambda_u into the recurrence; K must be symmetric (the
    doubling identities need it), and its matmat must return a new array,
    which the recurrence overwrites. The result keeps every probe's
    samples; probes are reduced in index order, so results are
    bit-identical for identical arguments.

    The spectrum of `op` must lie in [-1, 1], as that of K / lambda_u does
    for a Gershgorin bound lambda_u. A Chebyshev sample z.T_k(2B - I)z / n
    past 1 + 1e-8 in magnitude then proves an eigenvalue below 0 and raises
    NotPositiveDefiniteError. The test is partial: on a 200 x 200 matrix with
    five eigenvalues at -0.05 among [0.1, 1] it fires at m = d = 30 but not
    at m = 5, d = 4, and at m = d = 30 it misses five at -1e-3.
    """
    if d < 1:
        raise ValueError("probe count d must be >= 1")
    return in_basis(chebyshev_moments(op, basis.order, probe_matrix(op.n, d, seed)), basis)


def moments_to_power(moments: SpectralMoments) -> SpectralMoments:
    """The same probes' samples in the power basis, by the exact change of basis.

    Every row is mapped, so the values are the means of the power rows
    and the variances are those of the power samples: for Chebyshev
    moments Var p_1 = Var mu_1 / 4.

    The rows past p_2 carry the substitution's round-off: on the identity
    at m = 30 they are off from 1 by up to ~1e-8 (Legendre moments) and
    ~1e-10 (Chebyshev), while p_1 and p_2, the rows the Beta prior fit
    reads, are exactly 1.
    """
    C = moments.basis.to_power_matrix()
    # mu_i = sum_k C[i,k] p_k with C lower triangular: forward substitution
    # gives p_k from mu_0..mu_k alone, so the low moments stay exact however
    # large the entries of the high rows grow (~6e17 at m = 30)
    p = scipy.linalg.solve_triangular(C, moments.samples.T, lower=True).T
    return SpectralMoments(MomentBasis(POWER, moments.basis.order), p)
