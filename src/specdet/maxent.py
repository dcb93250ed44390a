"""Moment-constrained maximum relative entropy spectral densities.

Given estimated moments mu_i of a spectrum supported on (0, 1] and a
prior q0, the surrogate density

    q(x) = q0(x) * exp(-[1 + sum_i alpha_i f_i(x)])

is found by minimizing the convex dual

    S(alpha) = int q0 exp(-[1 + sum alpha_i f_i]) dx + sum alpha_i mu_i

plus a ridge 0.5 sum p_i alpha_i^2, with a damped Newton method. The
ridge is read from the `SpectralMoments` being fitted: p_i is _RIDGE
times moment i's squared standard error over its probes, zero for a
single row. Each step is a Cholesky solve with the
Hessian plus diagonal jitter, the jitter growing tenfold from _JITTER
while the factorization fails, and the exponential weights of each trial
point of the line search are computed once and give the objective, the
gradient and the Hessian there. All integrals use composite
Gauss-Legendre panels refined geometrically toward 0, where log has its
singularity and ill-conditioned spectra pile up mass. The grid starts at
the solver's floor, which a certified lower bound on the spectrum raises;
the prior only weights its nodes. The solve returns E_q[log x]
integrated with the quadrature weights it ended on, so the
log-determinant estimate needs no second grid. One function,
`_reweight`, forms q0 exp(-[1 + sum alpha_i f_i]) for the dual and the
integral alike, and only at the grid's nodes.

The gradient and Hessian come from the 2m + 1 Chebyshev moments of the
current weights w on the N-node grid, g_k = sum_q w_q T_k(t_q) with
t = 2x - 1. The product identity T_i T_j = (T_i+j + T_|i-j|) / 2
(Mason & Handscomb, Chebyshev Polynomials, 2003) makes the Chebyshev
Gram matrix sum_q w_q T_i T_j a Toeplitz-plus-Hankel function of g, and
T_m+k = 2 T_m T_k - T_m-k gives g_m+1..g_2m from sum_q w_q T_m T_k, so g
costs one pass over the N x (m+1) Chebyshev Vandermonde matrix, a product
of its transpose with w and w T_m. The
basis's change of basis L (f_i = sum_k L[i, k] T_k, the identity for the
Chebyshev basis) maps g to the gradient mu - L g[:m+1] + p alpha and the
Hessian L G L^T + diag(p), and alpha to the Chebyshev coefficients
L^T alpha of the exponent, so T is the one Vandermonde matrix for every
basis and the basis's own F = T L^T is never formed. A Newton step thus
costs O(N m) for the weights and moments plus O(m^3) for the Cholesky
solve, not the O(N m^2) of forming F^T diag(w) F directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.special import betaln

from .probes import CHEBYSHEV, MomentBasis, SpectralMoments

_EXP_LIMIT = 700.0  # exp overflow guard for float64
_MAX_ITER = 500  # Newton iterations before the solve stops unconverged
_PANELS = 30  # geometric Gauss-Legendre panels toward each end of (0, 1)
_NODES_PER_PANEL = 16
_PANEL_RULE = np.polynomial.legendre.leggauss(_NODES_PER_PANEL)  # nodes, weights on [-1, 1]
_RIDGE = 1.0  # multiplier on the per-moment squared-standard-error penalty
_JITTER = 1e-8  # Newton-step jitter tried first
_MAX_JITTER = 1e-2  # Newton-step jitter past which the solve gives up
# a rise of the dual objective below this times sum(w) + |alpha . mu| + 1,
# the scale of its terms, is round-off
_ROUNDOFF = 16.0 * np.finfo(float).eps
_CEIL_GAP = 1e-10  # distance of the last quadrature panel edge from 1
# the smallest and default quadrature floor, which keeps log integrable; the
# uniform prior's support starts here too, so it covers every grid
_MIN_FLOOR = 1e-14


class DegenerateSpectrumError(ValueError):
    """Beta fit impossible (zero spectral variance); fall back to Uniform."""


@dataclass(frozen=True)
class UniformPrior:
    """Flat prior on [_MIN_FLOOR, 1]."""

    def density(self, lam: np.ndarray) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        return np.where((lam >= _MIN_FLOOR) & (lam <= 1.0), 1.0 / (1.0 - _MIN_FLOOR), 0.0)


@dataclass(frozen=True)
class BetaPrior:
    """Beta(gamma, beta) density on [0, 1]."""

    gamma: float
    beta: float

    def __post_init__(self):
        if self.gamma <= 0 or self.beta <= 0:
            raise ValueError("Beta prior parameters must be positive")

    def density(self, lam: np.ndarray) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        lognorm = -betaln(self.gamma, self.beta)
        with np.errstate(divide="ignore", invalid="ignore"):
            logd = lognorm + (self.gamma - 1.0) * np.log(lam) \
                + (self.beta - 1.0) * np.log1p(-lam)
        out = np.exp(logd)
        return np.where((lam > 0.0) & (lam < 1.0), out, 0.0)


PriorSpec = UniformPrior | BetaPrior


def fit_beta_prior(mu1: float, mu2: float) -> BetaPrior:
    """Invert the first two raw moments into Beta(gamma, beta) parameters."""
    if not (0.0 < mu1 < 1.0 and 0.0 < mu2 < 1.0):
        raise ValueError("moments must lie in (0, 1)")
    var = mu2 - mu1 * mu1
    if var <= 0.0:
        raise DegenerateSpectrumError(
            "mu2 <= mu1^2: spectrum has no variance; use a Uniform prior instead"
        )
    if mu2 >= mu1:
        raise ValueError("mu2 must be smaller than mu1 for a [0,1] variable")
    gamma = mu1 * (mu1 - mu2) / var
    beta = (1.0 / mu1 - 1.0) * gamma
    return BetaPrior(gamma=gamma, beta=beta)


@dataclass
class SolverConfig:
    gtol: float = 1e-6
    floor: float = _MIN_FLOOR  # lower end of the quadrature grid

    def __post_init__(self):
        if not 0.0 < self.gtol < np.inf:  # the negated form also rejects nan
            raise ValueError(f"gtol must be positive and finite, got {self.gtol}")
        # the floor is min_eigenvalue / lambda_u when a spectral lower bound is
        # given, and no eigenvalue exceeds the Gershgorin upper bound lambda_u
        if not _MIN_FLOOR <= self.floor <= 1.0:
            raise ValueError(f"floor must lie in [{_MIN_FLOOR:g}, 1], got {self.floor:.6g}; "
                             "above 1 it is a min_eigenvalue above lambda_u, the spectrum's "
                             "upper bound")


@dataclass
class SurrogateDensity:
    """Prior reweighted by the exponential of a fitted polynomial.

    It holds the fit and is not evaluated pointwise: the fitted exponent
    is only trusted on the solve grid, where `integrate_log_expectation`
    reads it.
    """

    prior: PriorSpec
    basis: MomentBasis
    alpha: np.ndarray

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        if self.alpha.shape != (self.basis.order + 1,):
            raise ValueError("alpha length must be order + 1")


@dataclass
class SolveResult:
    density: SurrogateDensity
    iterations: int
    grad_norm: float
    converged: bool
    log_expectation: float  # int q log x dx on the solve's grid


def _reweight(q0: np.ndarray, T: np.ndarray, alpha: np.ndarray,
              L: np.ndarray | None = None) -> np.ndarray:
    """q0 * exp(-(1 + T L^T alpha)), refusing an exponent past _EXP_LIMIT.

    T L^T is the basis's Vandermonde matrix F when T holds the Chebyshev
    values at the nodes and L the basis's `chebyshev_matrix`; L None is
    the identity, so T is then F itself.
    """
    a = 1.0 + T @ (alpha if L is None else L.T @ alpha)
    if np.any(-a > _EXP_LIMIT):
        raise OverflowError("dual exponent overflow; rescale coefficients or reduce the order")
    return q0 * np.exp(-a)


def quadrature_grid(floor: float):
    """Composite Gauss-Legendre nodes/weights on [min(floor, 1/2), 1 - _CEIL_GAP].

    Panel edges refine geometrically toward both endpoints: toward the
    floor for the log singularity and ill-conditioned spectral mass, and
    toward 1 so no low-degree exponent polynomial can hide a spike between
    the last node and the boundary (a degree-m Chebyshev feature is no
    narrower than ~1/m^2, far wider than the terminal gap). Each run has
    _PANELS panels and meets the other at 1/2; a floor of 1/2 or more gets
    the upper run alone, which covers [floor, 1).
    """
    if not _MIN_FLOOR <= floor <= 1.0:  # the negated form also rejects nan
        raise ValueError(f"floor must lie in [{_MIN_FLOOR:g}, 1], got {floor:.6g}")
    x, w = _PANEL_RULE
    t = np.arange(_PANELS + 1) / _PANELS
    upper = 1.0 - 0.5 * (_CEIL_GAP / 0.5) ** t
    edges = upper if floor >= 0.5 else np.concatenate([floor * (0.5 / floor) ** t, upper[1:]])
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    nodes = edges[:-1, None] + half * (x + 1.0)
    return nodes.ravel(), (half * w).ravel()


def _solve_grid(prior: PriorSpec, basis: MomentBasis, config: SolverConfig | None):
    """(nodes, wq0, T, L) of the solve grid: the quadrature grid of the config's floor.

    wq0 is its weights times the prior density at its nodes, T holds
    T_k(2x - 1) at the nodes for k = 0..m, and L is the basis's
    `chebyshev_matrix`, with F = T L^T, or None for the Chebyshev basis,
    whose L is exactly the identity, so its products are skipped.
    """
    nodes, w = quadrature_grid((config or SolverConfig()).floor)
    L = None if basis.kind == CHEBYSHEV else basis.chebyshev_matrix()
    return (nodes, w * prior.density(nodes),
            MomentBasis(CHEBYSHEV, basis.order).vandermonde(nodes), L)


def _log_expectation(nodes: np.ndarray, weights: np.ndarray) -> float:
    """sum weights * log(nodes), at most 0: nodes lie in (0, 1), weights are >= 0."""
    return float(weights @ np.log(nodes))


class DualProblem:
    """Precomputed quadrature view of the dual objective for fixed moments.

    The basis, the targets mu and the ridge all come from `moments`. The
    ridge p = _RIDGE * variance / probes, each moment's squared standard
    error, adds 0.5 sum p_i a_i^2 to the objective; it is zero for a single
    row, as for exact moments. It keeps the dual bounded when Monte Carlo
    noise pushes the constraint vector outside the attainable moment cone:
    a coefficient only grows large if the moment it matches is known
    accurately.

    Each of `objective`, `gradient` and `hessian` takes the weights
    `weights(alpha)` as `we` when the caller already holds them. The
    gradient and Hessian are read off `gram_moments(we)`; see the module
    docstring.
    """

    def __init__(self, prior: PriorSpec, moments: SpectralMoments,
                 config: SolverConfig | None = None):
        self.mu = moments.values
        self.penalty = _RIDGE * moments.variance / moments.probes
        self.nodes, self.wq0, self.T, self.L = _solve_grid(prior, moments.basis, config)
        i = np.arange(moments.basis.order + 1)
        self._i_plus_j, self._i_minus_j = np.add.outer(i, i), np.abs(np.subtract.outer(i, i))

    def weights(self, alpha: np.ndarray) -> np.ndarray:
        """Quadrature weights of q at alpha: wq0 * exp(-(1 + F alpha)), F alpha = T (L^T alpha)."""
        return _reweight(self.wq0, self.T, alpha, self.L)

    def gram_moments(self, we: np.ndarray) -> np.ndarray:
        """g_k = sum_q we_q T_k(t_q) for k = 0..2m, from one product with T^T.

        g_m+k = 2 sum_q we_q T_m T_k - g_m-k for k = 1..m.
        """
        m = len(self.mu) - 1
        lower, tm = (self.T.T @ np.column_stack((we, we * self.T[:, m]))).T
        return np.concatenate((lower, 2.0 * tm[1:] - lower[:m][::-1]))

    def objective(self, alpha: np.ndarray, we: np.ndarray | None = None) -> float:
        we = self.weights(alpha) if we is None else we
        return float(we.sum() + alpha @ self.mu + 0.5 * self.penalty @ (alpha * alpha))

    def gradient(self, alpha: np.ndarray, we: np.ndarray | None = None) -> np.ndarray:
        we = self.weights(alpha) if we is None else we
        return self._gradient(alpha, self.gram_moments(we))

    def hessian(self, alpha: np.ndarray, we: np.ndarray | None = None) -> np.ndarray:
        we = self.weights(alpha) if we is None else we
        return self._hessian(self.gram_moments(we))

    def _gradient(self, alpha: np.ndarray, g: np.ndarray) -> np.ndarray:
        """mu - L g[:m+1] + p alpha."""
        fitted = g[:len(self.mu)] if self.L is None else self.L @ g[:len(self.mu)]
        return self.mu - fitted + self.penalty * alpha

    def _hessian(self, g: np.ndarray) -> np.ndarray:
        """L G L^T + diag(p) with G[i, j] = (g_i+j + g_|i-j|) / 2, exactly symmetric."""
        H = 0.5 * (g[self._i_plus_j] + g[self._i_minus_j])
        if self.L is not None:
            H = self.L @ H @ self.L.T
            H = 0.5 * (H + H.T)  # a + b == b + a in floating point
        H.reshape(-1)[::len(H) + 1] += self.penalty  # the diagonal, as a view
        return H


def _newton_step(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Solve (H + eta I) s = -g by Cholesky, escalating eta tenfold on failure.

    eta starts at _JITTER and is added to the diagonal of a copy of H. A
    failed factorization, or a zero or non-finite step, raises it; past
    _MAX_JITTER the solve gives up. LAPACK is called directly: the scipy.linalg
    wrappers cost more than the factorization at these sizes.
    """
    eta = _JITTER
    while True:
        A = H.copy()
        A.reshape(-1)[::len(A) + 1] += eta  # the diagonal, as a view
        factor, info = dpotrf(A, clean=0)
        if info == 0:  # info > 0: a leading minor is not positive definite
            step, _ = dpotrs(factor, -g)
            if np.isfinite(step).all() and step.any():
                return step
        eta *= 10.0
        if eta > _MAX_JITTER:
            raise RuntimeError(
                "regularized Hessian remained indefinite at maximum jitter"
            )


def solve(moments: SpectralMoments, prior: PriorSpec,
          config: SolverConfig | None = None) -> SolveResult:
    """Damped Newton minimization of the dual, starting from alpha = 0.

    Each Newton step is a Cholesky solve with the Hessian plus diagonal
    jitter, escalated tenfold from _JITTER up to _MAX_JITTER
    while the factorization fails or the step is zero or non-finite. Steps
    are damped by Armijo backtracking; the exponential weights of the
    accepted trial point give the next objective, and their Gram moments
    the next gradient and Hessian. The full step is also taken when it
    raises the objective by no more than _ROUNDOFF times the scale of its
    terms: near the optimum the decrease the Armijo test asks for is
    smaller than the objective's own round-off, which no step can certify,
    and halving would stall the solve there.
    """
    config = config or SolverConfig()
    if abs(moments.values[0] - 1.0) > 1e-8:
        raise ValueError("mu_0 must equal 1 (normalized spectral measure)")
    problem = DualProblem(prior, moments, config)
    alpha = np.zeros(moments.basis.order + 1)
    we = problem.weights(alpha)
    S = problem.objective(alpha, we)
    for iterations in range(_MAX_ITER + 1):
        gram = problem.gram_moments(we)
        g = problem._gradient(alpha, gram)
        gnorm = float(np.abs(g).max())
        if gnorm < config.gtol or iterations == _MAX_ITER:
            break
        step = _newton_step(problem._hessian(gram), g)
        slope = g @ step
        noise = _ROUNDOFF * (we.sum() + abs(alpha @ problem.mu) + 1.0)
        t = 1.0
        while True:
            trial = alpha + t * step
            try:
                we_trial = problem.weights(trial)
            except OverflowError:
                if t <= 1e-14:
                    raise
                t *= 0.5
                continue
            S_trial = problem.objective(trial, we_trial)
            # below t = 1e-14 the step is taken without the Armijo test
            if (t <= 1e-14 or S_trial <= S + 1e-4 * t * slope
                    or (t == 1.0 and S_trial - S <= noise)):
                break
            t *= 0.5
        alpha, we, S = trial, we_trial, S_trial
    density = SurrogateDensity(prior=prior, basis=moments.basis, alpha=alpha)
    return SolveResult(density=density, iterations=iterations, grad_norm=gnorm,
                       converged=gnorm < config.gtol,
                       log_expectation=_log_expectation(problem.nodes, we))


def integrate_log_expectation(q: SurrogateDensity,
                              config: SolverConfig | None = None) -> float:
    """int q(x) log(x) dx on the solver's grid for `config`.

    The grid is the one `solve` integrates on, so the density is only
    evaluated where its moments were constrained; a fitted exponent
    polynomial is not trustworthy off that grid when coefficients are
    large (near-point-mass spectra). The weights are formed as the solve
    forms them, from the Chebyshev Vandermonde matrix and L^T alpha, so
    for the density and config of a solve this equals its
    `log_expectation` bit for bit in every basis.
    """
    nodes, wq0, T, L = _solve_grid(q.prior, q.basis, config)
    return _log_expectation(nodes, _reweight(wq0, T, q.alpha, L))
