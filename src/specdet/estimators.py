"""End-to-end log-determinant estimators.

All stochastic methods share the same pipeline skeleton: rescale the
operator by its Gershgorin bound so the spectrum sits in (0, 1], probe it
with Rademacher vectors, and integrate log against some spectral
summary. The maxent estimator fits a moment-constrained surrogate
density; Taylor, Chebyshev-interpolation, and stochastic Lanczos
quadrature are the classical baselines; a Cholesky oracle provides exact
values for verification on matrices that fit in O(n^3).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from . import maxent
from .linop import LinearOperator, NormalizedOperator, gershgorin_upper_bound
from .maxent import (BetaPrior, DegenerateSpectrumError, SolverConfig,
                     UniformPrior, fit_beta_prior)
from .probes import (CHEBYSHEV, MomentBasis, estimate_moments, moments_to_power,
                     probe_matrix)


class NotPositiveDefiniteError(ValueError):
    pass


@dataclass
class EstimatorConfig:
    m: int = 30
    d: int = 30
    seed: int = 0
    basis: str = CHEBYSHEV
    prior: str = "auto"  # uniform | beta | auto
    solver: SolverConfig = field(default_factory=SolverConfig)
    cheb_floor: float = 1e-6  # lower endpoint of the log-interpolation interval
    # Known lower bound on the spectrum in original (unnormalized) units,
    # e.g. the diagonal jitter sigma^2 when K = K0 + sigma^2 I with K0 PSD.
    # Tightens the surrogate's support floor; None leaves the solver default.
    min_eigenvalue: float | None = None

    def __post_init__(self):
        if self.m < 1 or self.d < 1:
            raise ValueError("m and d must be >= 1")
        if self.prior not in ("uniform", "beta", "auto"):
            raise ValueError(f"unknown prior choice {self.prior!r}")


@dataclass
class LogDetEstimate:
    value: float
    method: str
    lambda_u: float
    m: int
    d: int
    seed: int
    iterations: int = 0
    grad_norm: float = float("nan")
    wall_time_ms: float = 0.0
    converged: bool = True


def logdet_exact(op: LinearOperator, max_n: int = 20_000) -> float:
    """2 sum log L_ii from the Cholesky factor; O(n^3), guarded by max_n."""
    if op.n > max_n:
        raise ValueError(f"n={op.n} exceeds the exact-oracle guard {max_n}")
    A = op.to_dense()
    try:
        L = scipy.linalg.cholesky(A, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("matrix not positive definite") from exc
    return float(2.0 * np.sum(np.log(np.diag(L))))


def _choose_prior(cfg: EstimatorConfig, moments) -> maxent.PriorSpec:
    if cfg.prior == "uniform":
        return UniformPrior()
    p = moments_to_power(moments)
    try:
        return fit_beta_prior(float(p.values[1]), float(p.values[2]))
    except (DegenerateSpectrumError, ValueError):
        if cfg.prior == "beta":
            raise
        return UniformPrior()


def logdet_maxent(op: LinearOperator, cfg: EstimatorConfig | None = None) -> LogDetEstimate:
    """Moment-constrained maximum-entropy estimate of the log determinant."""
    cfg = cfg or EstimatorConfig()
    if cfg.m < 2 and cfg.prior != "uniform":
        raise ValueError("prior fitting needs at least two moments")
    t0 = time.perf_counter()
    lam_u = gershgorin_upper_bound(op)
    B = NormalizedOperator(op, lam_u)
    basis = MomentBasis(cfg.basis, cfg.m)
    moments = estimate_moments(B, basis, cfg.d, cfg.seed)
    prior = _choose_prior(cfg, moments)
    solver = cfg.solver
    if cfg.min_eigenvalue is not None and cfg.min_eigenvalue > 0.0:
        solver = replace(solver, floor=max(solver.floor, cfg.min_eigenvalue / lam_u))
    result = maxent.solve(moments, prior, solver)
    log_expect = maxent.integrate_log_expectation(result.density, solver)
    value = op.n * log_expect + op.n * np.log(lam_u)
    return LogDetEstimate(
        value=float(value), method="maxent", lambda_u=lam_u,
        m=cfg.m, d=cfg.d, seed=cfg.seed,
        iterations=result.iterations, grad_norm=result.grad_norm,
        wall_time_ms=(time.perf_counter() - t0) * 1e3,
        converged=result.converged,
    )


def _chebyshev_series_logdet(op: LinearOperator, cfg: EstimatorConfig, method: str,
                             c: np.ndarray) -> LogDetEstimate:
    """n log lambda_u + n sum_k c_k (mu_k - 1) on the Chebyshev moments of B.

    sum_k c_k T_k(2x - 1) approximates log x and vanishes at x = 1, so
    subtracting 1 from every moment changes nothing in exact arithmetic
    and makes a spectrum sitting at 1 (the identity) give exactly 0.
    """
    t0 = time.perf_counter()
    lam_u = gershgorin_upper_bound(op)
    B = NormalizedOperator(op, lam_u)
    mu = estimate_moments(B, MomentBasis(CHEBYSHEV, cfg.m), cfg.d, cfg.seed).values
    value = float(op.n * np.log(lam_u) + op.n * (c @ (mu - 1.0)))
    return LogDetEstimate(
        value=value, method=method, lambda_u=lam_u,
        m=cfg.m, d=cfg.d, seed=cfg.seed,
        wall_time_ms=(time.perf_counter() - t0) * 1e3,
    )


@functools.cache
def _taylor_log_coefficients(m: int) -> np.ndarray:
    """Read-only c with sum_k c_k T_k(2x - 1) = -sum_{k<=m} (1 - x)^k / k.

    The truncated series has degree m, so interpolating it at m+1
    Chebyshev points is exact.
    """
    # 1 - x = (1 - t) / 2 in the Chebyshev variable t = 2x - 1
    c = np.polynomial.chebyshev.chebinterpolate(
        lambda t: -sum((0.5 - 0.5 * t) ** k / k for k in range(1, m + 1)), m)
    c.flags.writeable = False
    return c


def logdet_taylor(op: LinearOperator, cfg: EstimatorConfig | None = None) -> LogDetEstimate:
    """Degree-m truncation of log x = -sum_k (1 - x)^k / k applied to B.

    The discarded tail is negative, so the estimate upper-bounds the true
    log determinant; the implied surrogate density is not a probability
    density, which is why this is a baseline rather than a recommendation.
    """
    cfg = cfg or EstimatorConfig()
    return _chebyshev_series_logdet(op, cfg, "taylor", _taylor_log_coefficients(cfg.m))


@functools.cache
def _chebyshev_log_coefficients(m: int, a: float) -> np.ndarray:
    """Read-only c with sum_k c_k T_k(2x - 1) interpolating log on [a, 1].

    The nodes are a right-endpoint Radau grid mapped to [a, 1]. It contains
    x = 1, so the interpolant vanishes there, as log does.
    """
    k = np.arange(m + 1)
    x = np.cos(2.0 * np.pi * k / (2 * m + 1))
    lam = 0.5 * (x + 1.0) * (1.0 - a) + a
    c = np.polynomial.chebyshev.chebfit(2.0 * lam - 1.0, np.log(lam), m)
    c.flags.writeable = False
    return c


def logdet_chebyshev(op: LinearOperator, cfg: EstimatorConfig | None = None) -> LogDetEstimate:
    """Degree-m Chebyshev interpolation of log on [a, 1] applied to B.

    a = cfg.cheb_floor; eigenvalues below a are extrapolated, which is the
    documented weakness of this baseline on ill-conditioned matrices.
    """
    cfg = cfg or EstimatorConfig()
    return _chebyshev_series_logdet(op, cfg, "chebyshev",
                                    _chebyshev_log_coefficients(cfg.m, cfg.cheb_floor))


# Largest Lanczos basis one block of probes may hold; a single probe's basis
# is allowed to exceed it, which is what one probe at a time needs anyway.
_BASIS_BYTES = 8 << 20


def _lanczos_log_quadrature(B: NormalizedOperator, Z: np.ndarray, m: int) -> np.ndarray:
    """z'log(B)z / z'z for each column z of Z by m-step Lanczos quadrature.

    All columns run the three-term recurrence together, one `matmat` per
    step, each with one-pass full reorthogonalization against its own
    basis. A column whose beta falls below 1e-12 has reached an invariant
    subspace: it stops there, which is exact, and its later vectors are
    zero. The loop ends once every column has stopped.
    """
    n, b = Z.shape
    Q = np.zeros((b, m, n))  # Q[i, j] is the j-th Lanczos vector of column i
    Q[:, 0] = Z.T / np.linalg.norm(Z, axis=0)[:, None]
    alphas = np.zeros((b, m))
    betas = np.zeros((b, max(m - 1, 0)))
    steps = np.full(b, m)
    active = np.ones(b, dtype=bool)
    for j in range(m):
        q = Q[:, j]
        W = np.ascontiguousarray(B.matmat(q.T).T)
        alphas[:, j] = np.matmul(W[:, None, :], q[:, :, None])[:, 0, 0]
        if j == m - 1:
            break
        W -= alphas[:, j, None] * q
        if j > 0:
            W -= betas[:, j - 1, None] * Q[:, j - 1]
        basis = Q[:, : j + 1]
        W -= np.matmul(np.matmul(basis, W[:, :, None]).transpose(0, 2, 1), basis)[:, 0]
        beta = np.linalg.norm(W, axis=1)
        stopped = active & (beta < 1e-12)
        steps[stopped] = j + 1
        active &= ~stopped
        if not active.any():
            break
        betas[active, j] = beta[active]
        np.divide(W, beta[:, None], out=Q[:, j + 1], where=active[:, None])
    out = np.empty(b)
    for i, s in enumerate(steps):
        theta, V = scipy.linalg.eigh_tridiagonal(alphas[i, :s], betas[i, : s - 1])
        # roundoff can push a Ritz value of a near-singular B nonpositive
        theta = np.maximum(theta, np.finfo(float).eps * theta.max())
        out[i] = V[0, :] ** 2 @ np.log(theta)
    return out


def logdet_lanczos(op: LinearOperator, cfg: EstimatorConfig | None = None) -> LogDetEstimate:
    """Stochastic Lanczos quadrature of log over the normalized spectrum.

    The probes run in ceil(d / w) balanced blocks of at most w columns,
    with w chosen from (n, m) alone so no block's basis exceeds
    `_BASIS_BYTES` unless a single probe's does.
    """
    cfg = cfg or EstimatorConfig()
    t0 = time.perf_counter()
    lam_u = gershgorin_upper_bound(op)
    B = NormalizedOperator(op, lam_u)
    m = min(cfg.m, op.n)
    width = max(1, _BASIS_BYTES // (8 * m * op.n))
    Z = probe_matrix(op.n, cfg.d, cfg.seed)
    per_probe = np.concatenate([
        _lanczos_log_quadrature(B, block, m)
        for block in np.array_split(Z, -(-cfg.d // width), axis=1)])
    value = float(op.n * per_probe.mean() + op.n * np.log(lam_u))
    return LogDetEstimate(
        value=value, method="lanczos", lambda_u=lam_u,
        m=cfg.m, d=cfg.d, seed=cfg.seed,
        wall_time_ms=(time.perf_counter() - t0) * 1e3,
    )


def condition_number_estimate(op: LinearOperator, iterations: int = 200,
                              seed: int = 0, factor_guard: int = 20_000) -> float:
    """Power-iteration estimate of lambda_max / lambda_min; order-of-magnitude.

    lambda_max comes from plain power iteration. lambda_min comes from
    inverse power iteration through a Cholesky factor when the matrix fits
    the factorization guard; otherwise from power iteration on the shifted
    proxy lambda_u I - K, which only lower-bounds lambda_u - lambda_min and
    can badly underestimate kappa when small eigenvalues cluster.
    """
    rng = np.random.default_rng(seed)
    n = op.n
    lam_u = gershgorin_upper_bound(op)

    def power_iter(apply_fn):
        v = rng.standard_normal((n, 1))
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(iterations):
            w = apply_fn(v)
            lam = v[:, 0] @ w[:, 0]
            norm = np.linalg.norm(w)
            if norm == 0.0:
                return 0.0
            v = w / norm
        return lam

    lam_max = power_iter(op.matmat)
    lam_min = None
    if n <= factor_guard:
        try:
            factor = scipy.linalg.cho_factor(op.to_dense())
        except scipy.linalg.LinAlgError:
            factor = None
        if factor is not None:
            inv_lam = power_iter(lambda v: scipy.linalg.cho_solve(factor, v))
            if inv_lam > 0.0:
                lam_min = 1.0 / inv_lam
    if lam_min is None:
        lam_min = lam_u - power_iter(lambda v: lam_u * v - op.matmat(v))
    if lam_min <= 0.0:
        lam_min = np.finfo(float).tiny
    return float(lam_max / lam_min)


_METHODS = {
    "maxent": logdet_maxent,
    "taylor": logdet_taylor,
    "chebyshev": logdet_chebyshev,
    "lanczos": logdet_lanczos,
}


def estimate_logdet(op: LinearOperator, method: str,
                    cfg: EstimatorConfig | None = None) -> LogDetEstimate:
    """Dispatch by method name; `exact` wraps the Cholesky oracle."""
    cfg = cfg or EstimatorConfig()
    if method == "exact":
        t0 = time.perf_counter()
        value = logdet_exact(op)
        return LogDetEstimate(value=value, method="exact", lambda_u=float("nan"),
                              m=0, d=0, seed=cfg.seed,
                              wall_time_ms=(time.perf_counter() - t0) * 1e3)
    try:
        fn = _METHODS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; expected one of "
                         f"{sorted(_METHODS) + ['exact']}") from None
    return fn(op, cfg)
