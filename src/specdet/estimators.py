"""End-to-end log-determinant estimators.

All stochastic methods run one body, `_estimate`: rescale the operator
by its Gershgorin bound lambda_u so the spectrum sits in (0, 1], and return
n log lambda_u + n E[log lambda]; a method only supplies its estimate of
E[log lambda] over the rescaled spectrum, made from Rademacher probes. The maxent estimator fits a moment-constrained surrogate
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
from .linop import LinearOperator, NormalizedOperator, NotPositiveDefiniteError, normalize
from .maxent import SolverConfig, UniformPrior, fit_beta_prior
from .probes import CHEBYSHEV, MomentBasis, estimate_moments, moments_to_power, probe_matrix

PRIORS = ("uniform", "auto")
_CHEB_FLOOR = 1e-6  # lower endpoint of the Chebyshev log-interpolation interval
_FACTOR_GUARD = 20_000  # largest n the oracle and the condition number make dense


@dataclass
class EstimatorConfig:
    m: int = 30
    d: int = 30
    seed: int = 0
    basis: str = CHEBYSHEV  # one of probes.BASIS_KINDS
    prior: str = "auto"  # one of PRIORS
    solver: SolverConfig = field(default_factory=SolverConfig)
    # Known lower bound on the spectrum in original (unnormalized) units,
    # e.g. the diagonal jitter sigma^2 when K = K0 + sigma^2 I with K0 PSD.
    # Tightens the surrogate's support floor; None or a value <= 0 does not.
    min_eigenvalue: float | None = None

    def __post_init__(self):
        if self.m < 1 or self.d < 1:
            raise ValueError("m and d must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.min_eigenvalue is not None and not np.isfinite(self.min_eigenvalue):
            raise ValueError(f"min_eigenvalue must be finite, got {self.min_eigenvalue}")
        MomentBasis(self.basis, self.m)  # refuses an unknown basis kind
        if self.prior not in PRIORS:
            raise ValueError(f"unknown prior choice {self.prior!r}; expected one of {PRIORS}")


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


def _guarded_dense(op: LinearOperator, what: str) -> np.ndarray:
    """op's dense copy for an O(n^3) computation, refused past `_FACTOR_GUARD`.

    Cholesky and eigvalsh read one triangle only, so a non-symmetric
    operator is refused rather than answered for its lower triangle.
    """
    if not op.symmetric:
        raise ValueError(f"{what} requires a symmetric operator")
    if op.n > _FACTOR_GUARD:
        raise ValueError(f"n={op.n} exceeds the {what} guard {_FACTOR_GUARD}")
    return op.to_dense()


def logdet_exact(op: LinearOperator) -> float:
    """2 sum log L_ii from the Cholesky factor; O(n^3), guarded by `_FACTOR_GUARD`."""
    A = _guarded_dense(op, "exact log determinant")
    try:
        L = scipy.linalg.cholesky(A, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("matrix not positive definite") from exc
    return float(2.0 * np.sum(np.log(np.diag(L))))


def _choose_prior(cfg: EstimatorConfig, moments) -> maxent.PriorSpec:
    """The configured prior; `auto` fits a Beta, or falls back to Uniform when none fits."""
    if cfg.prior == "uniform" or cfg.m < 2:  # a Beta fit needs two moments
        return UniformPrior()
    p = moments_to_power(moments)
    try:
        return fit_beta_prior(float(p.values[1]), float(p.values[2]))
    except ValueError:  # a DegenerateSpectrumError is one
        return UniformPrior()


def _estimate(method: str, op: LinearOperator, cfg: EstimatorConfig | None,
              log_mean) -> LogDetEstimate:
    """n log lambda_u + n E[log lambda] on B = op / lambda_u, timed.

    `log_mean(B, cfg)` returns E[log lambda] over B's spectrum and the solver fields it sets.
    """
    cfg = cfg or EstimatorConfig()
    t0 = time.perf_counter()
    B = normalize(op)
    mean, solver_fields = log_mean(B, cfg)
    return LogDetEstimate(
        value=float(op.n * mean + op.n * np.log(B.lambda_u)), method=method,
        lambda_u=B.lambda_u, m=cfg.m, d=cfg.d, seed=cfg.seed,
        wall_time_ms=(time.perf_counter() - t0) * 1e3, **solver_fields)


def _maxent_log_mean(B: NormalizedOperator, cfg: EstimatorConfig):
    moments = estimate_moments(B, MomentBasis(cfg.basis, cfg.m), cfg.d, cfg.seed)
    if moments.values[1] >= 1.0:
        # every basis has f_1 < f_1(1) = 1 on [0, 1), so a mean of 1 puts all
        # the probed spectral mass at 1, where log is 0: no density to fit
        return 0.0, dict(iterations=0, grad_norm=0.0, converged=True)
    prior = _choose_prior(cfg, moments)
    solver = replace(cfg.solver,
                     floor=max(cfg.solver.floor, (cfg.min_eigenvalue or 0.0) / B.lambda_u))
    result = maxent.solve(moments, prior, solver)
    return result.log_expectation, dict(iterations=result.iterations,
                                        grad_norm=result.grad_norm, converged=result.converged)


def logdet_maxent(op: LinearOperator, cfg: EstimatorConfig | None = None) -> LogDetEstimate:
    """Moment-constrained maximum-entropy estimate of the log determinant."""
    return _estimate("maxent", op, cfg, _maxent_log_mean)


def _chebyshev_series_log_mean(B: NormalizedOperator, cfg: EstimatorConfig, c: np.ndarray):
    """sum_k c_k (mu_k - 1) on the Chebyshev moments of B.

    sum_k c_k T_k(2x - 1) approximates log x and vanishes at x = 1, so
    subtracting 1 from every moment changes nothing in exact arithmetic
    and makes a spectrum sitting at 1 (the identity) give exactly 0.
    """
    mu = estimate_moments(B, MomentBasis(CHEBYSHEV, cfg.m), cfg.d, cfg.seed).values
    return c @ (mu - 1.0), {}


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
    return _estimate("taylor", op, cfg, lambda B, cfg: _chebyshev_series_log_mean(
        B, cfg, _taylor_log_coefficients(cfg.m)))


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

    a = _CHEB_FLOOR; eigenvalues below a are extrapolated, which is the
    documented weakness of this baseline on ill-conditioned matrices.
    """
    return _estimate("chebyshev", op, cfg, lambda B, cfg: _chebyshev_series_log_mean(
        B, cfg, _chebyshev_log_coefficients(cfg.m, _CHEB_FLOOR)))


# Lanczos basis bytes one block of probes may always hold. A block may hold
# as many as the operator stores when that is more, so SLQ needs at most
# about twice the operator's memory; a single probe's basis may exceed both,
# which is what one probe at a time needs anyway.
_BASIS_BYTES = 8 << 20


# Partial reorthogonalization (Simon, Math. Comp. 42, 1984). omega estimates
# q_j'q_k for every earlier vector q_k of a column; a column is
# reorthogonalized only once an estimate passes sqrt(eps), which keeps its
# Gauss rule as accurate as full reorthogonalization would. One step's
# rounding adds at most about _ROUNDING sqrt(n) (beta_k + beta_j) to
# beta_j q_{j+1}'q_k, taken with the sign that makes |omega| grow.
_ORTH_LEVEL = np.sqrt(np.finfo(float).eps)
_ROUNDING = 0.5 * np.finfo(float).eps


def _lanczos_log_quadrature(B: NormalizedOperator, Z: np.ndarray, m: int) -> np.ndarray:
    """z'log(B)z / z'z for each column z of Z by m-step Lanczos quadrature.

    All columns run the three-term recurrence together, one product with
    K = `B.inner` per step, which is then scaled to B: multiplied by
    1 / lambda_u where that reciprocal is a normal float, divided by
    lambda_u where it is subnormal or infinite (lambda_u subnormal or above
    ~4.5e307) and would lose digits. The product's second rounding moves
    an estimate by round-off only; the moment pass divides instead, because
    there a scaled identity c I must give moments of exactly 1. The scaling
    stays on every product rather than being folded into the Jacobi matrix
    at the end: the norms of unscaled Lanczos vectors of K square its
    scale, and overflow or underflow when K's entries are near 1e160 or
    1e-160. Each new vector is normalized by multiplying with 1 / beta.

    Simon's recurrence tracks each column's loss of orthogonality from its
    alphas and betas alone. A column is reorthogonalized against its own
    basis, in one pass, when an estimate passes sqrt(eps), again on the
    step after (Simon's pair rule), and whenever its beta is below
    sqrt(eps). Only those columns are projected, one at a time, so a step
    costs O(j n) per column that needs it, not per column of the block. A
    column whose beta then falls below 1e-12 has reached an invariant
    subspace: it stops there, which is exact, and its later vectors are
    zero. The loop ends once every column has stopped. A Ritz value below
    -sqrt(eps) theta_max raises NotPositiveDefiniteError.
    """
    n, b = Z.shape
    # Q[i, j] is the j-th Lanczos vector of column i; each step writes row j + 1
    # of every column before any step reads it
    Q = np.empty((b, m, n))
    Q[:, 0] = Z.T / np.linalg.norm(Z, axis=0)[:, None]
    inverse = 1.0 / B.lambda_u
    scale, by = ((np.multiply, inverse) if np.finfo(float).tiny <= inverse < np.inf
                 else (np.divide, B.lambda_u))
    alphas = np.zeros((b, m))
    betas = np.zeros((b, max(m - 1, 0)))
    steps = np.full(b, m)
    active = np.ones(b, dtype=bool)
    # omega[i, k] estimates q_j'q_k for column i at step j, omega_prev at step j - 1
    omega, omega_prev = np.zeros((b, m)), np.zeros((b, m))
    omega[:, 0] = 1.0
    noise = _ROUNDING * np.sqrt(n)
    again = np.zeros(b, dtype=bool)  # Simon's pair rule: redo the step after
    scratch = np.empty((b, n))
    for j in range(m):
        q = Q[:, j]
        # q.T is not C-contiguous, so a dense product comes back column-major
        # and its transpose is already the rows W needs: no copy is made
        W = np.ascontiguousarray(B.inner.matmat(q.T).T)
        scale(W, by, out=W)
        alphas[:, j] = np.matmul(W[:, None, :], q[:, :, None])[:, 0, 0]
        if j == m - 1:
            break
        W -= np.multiply(alphas[:, j, None], q, out=scratch)
        if j > 0:
            W -= np.multiply(betas[:, j - 1, None], Q[:, j - 1], out=scratch)
        # np.linalg.norm's arithmetic, with the squares written into scratch
        beta = np.sqrt(np.add.reduce(np.multiply(W, W, out=scratch), axis=1))
        tiny = beta < _ORTH_LEVEL
        # omega_prev becomes step j + 1's estimates
        if j > 0:
            t = (betas[:, :j] * omega[:, 1:j + 1]
                 + (alphas[:, :j] - alphas[:, j, None]) * omega[:, :j]
                 - betas[:, j - 1, None] * omega_prev[:, :j])
            t[:, 1:] += betas[:, :j - 1] * omega[:, :j - 1]
            t += np.copysign(noise * (betas[:, :j] + beta[:, None]), t)
            # a tiny beta is reorthogonalized below, which resets its row
            np.divide(t, beta[:, None], out=omega_prev[:, :j], where=~tiny[:, None])
        omega_prev[:, j] = noise
        omega_prev[:, j + 1] = 1.0
        omega, omega_prev = omega_prev, omega
        lost = active & (tiny | (np.abs(omega[:, : j + 1]).max(axis=1) > _ORTH_LEVEL))
        redo = lost | again
        again = lost & ~again
        if redo.any():
            for i in np.flatnonzero(redo):
                basis, w = Q[i, : j + 1], W[i]
                w -= np.dot(np.dot(basis, w), basis)
            beta[redo] = np.linalg.norm(W[redo], axis=1)
            omega[redo, : j + 1] = noise
        stopped = active & (beta < 1e-12)
        if stopped.any():
            steps[stopped] = j + 1
            active &= ~stopped
            if not active.any():
                break
            # a stopped column's vectors are zero from here on, and so are its
            # products and its three-term updates
            W[stopped] = 0.0
        betas[:, j] = np.where(active, beta, 0.0)
        np.multiply(W, (1.0 / np.where(active, beta, 1.0))[:, None], out=Q[:, j + 1])
    if not (np.isfinite(alphas).all() and np.isfinite(betas).all()):
        raise ValueError("Lanczos coefficients must not contain infs or NaNs")
    out = np.empty(b)
    for i, s in enumerate(steps):
        theta, V = _gauss_rule(alphas[i, :s], betas[i, : s - 1])
        # a Ritz value is a Rayleigh quotient of B: one well below 0 proves B
        # indefinite; roundoff can push one of a near-singular B just below 0
        if theta.min() < -np.sqrt(np.finfo(float).eps) * theta.max():
            raise NotPositiveDefiniteError(f"Lanczos Ritz value {theta.min():.3g} of the "
                                           "normalized matrix: not positive definite")
        theta = np.maximum(theta, np.finfo(float).eps * theta.max())
        out[i] = V[0, :] ** 2 @ np.log(theta)
    return out


def _gauss_rule(alpha: np.ndarray, beta: np.ndarray):
    """Eigenvalues and eigenvectors of the Jacobi matrix tridiag(beta, alpha, beta)."""
    if alpha.size == 1:  # dstevd refuses an empty off-diagonal
        return alpha, np.ones((1, 1))
    theta, V, info = scipy.linalg.lapack.dstevd(alpha, beta, compute_v=1)
    if info != 0:
        raise scipy.linalg.LinAlgError(f"Gauss rule: dstevd returned info={info}")
    return theta, V


def _lanczos_log_mean(B: NormalizedOperator, cfg: EstimatorConfig):
    m = min(cfg.m, B.n)
    width = max(1, max(_BASIS_BYTES, B.inner.nbytes) // (8 * m * B.n))
    Z = probe_matrix(B.n, cfg.d, cfg.seed)
    per_probe = np.concatenate([
        _lanczos_log_quadrature(B, block, m)
        for block in np.array_split(Z, -(-cfg.d // width), axis=1)])
    return per_probe.mean(), {}


def logdet_lanczos(op: LinearOperator, cfg: EstimatorConfig | None = None) -> LogDetEstimate:
    """Stochastic Lanczos quadrature of log over the normalized spectrum.

    The probes run in ceil(d / w) balanced blocks of at most w columns,
    with w chosen so no block's basis exceeds the larger of `_BASIS_BYTES`
    and the operator's own storage (`op.nbytes`) unless a single probe's
    basis does.
    """
    return _estimate("lanczos", op, cfg, _lanczos_log_mean)


def condition_number_estimate(op: LinearOperator) -> float:
    """lambda_max / lambda_min from one eigvalsh of the dense matrix.

    O(n^3), under the oracle's guard. Raises NotPositiveDefiniteError when
    lambda_min <= 0.
    """
    lam = scipy.linalg.eigvalsh(_guarded_dense(op, "condition number"))
    if lam[0] <= 0.0:
        raise NotPositiveDefiniteError(
            f"smallest eigenvalue {lam[0]:.3g} <= 0: matrix not positive definite")
    return float(lam[-1] / lam[0])


def _exact_estimate(op: LinearOperator, cfg: EstimatorConfig | None = None) -> LogDetEstimate:
    """The Cholesky oracle as an estimate; it needs no bound and no probes."""
    t0 = time.perf_counter()
    return LogDetEstimate(value=logdet_exact(op), method="exact", lambda_u=float("nan"),
                          m=0, d=0, seed=(cfg or EstimatorConfig()).seed,
                          wall_time_ms=(time.perf_counter() - t0) * 1e3)


_METHODS = {
    "maxent": logdet_maxent,
    "taylor": logdet_taylor,
    "chebyshev": logdet_chebyshev,
    "lanczos": logdet_lanczos,
    "exact": _exact_estimate,
}
METHODS = tuple(_METHODS)


def estimate_logdet(op: LinearOperator, method: str,
                    cfg: EstimatorConfig | None = None) -> LogDetEstimate:
    """Dispatch by method name through the method table."""
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {list(METHODS)}")
    return _METHODS[method](op, cfg)
