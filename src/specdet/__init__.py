"""Log-determinant estimation for symmetric positive-definite matrices.

Combines Hutchinson moment estimation with a moment-constrained
maximum-entropy surrogate spectral density, alongside Taylor, Chebyshev,
and stochastic Lanczos quadrature baselines and an exact Cholesky oracle.
"""

from .estimators import (EstimatorConfig, LogDetEstimate,
                         condition_number_estimate, estimate_logdet,
                         logdet_chebyshev, logdet_exact, logdet_lanczos,
                         logdet_maxent, logdet_taylor)
from .linop import (DenseOperator, LinearOperator, MatrixMarketError,
                    NormalizedOperator, NotPositiveDefiniteError,
                    SparseOperator, gershgorin_upper_bound, identity,
                    normalize, read_matrix_market, write_matrix_market)
from .maxent import (BetaPrior, DegenerateSpectrumError, SolverConfig,
                     SurrogateDensity, UniformPrior, fit_beta_prior,
                     integrate_log_expectation, solve)
from .probes import (MomentBasis, SpectralMoments, estimate_moments,
                     moments_to_power, probe_matrix)
from .synth import KernelSpec, se_kernel

__all__ = [
    "BetaPrior", "DegenerateSpectrumError", "DenseOperator", "EstimatorConfig",
    "KernelSpec", "LinearOperator", "LogDetEstimate", "MatrixMarketError",
    "MomentBasis", "NormalizedOperator", "NotPositiveDefiniteError",
    "SolverConfig", "SparseOperator", "SpectralMoments", "SurrogateDensity",
    "UniformPrior", "condition_number_estimate", "estimate_logdet",
    "estimate_moments", "fit_beta_prior", "gershgorin_upper_bound", "identity",
    "integrate_log_expectation", "logdet_chebyshev", "logdet_exact",
    "logdet_lanczos", "logdet_maxent", "logdet_taylor", "moments_to_power",
    "normalize", "probe_matrix", "read_matrix_market", "se_kernel", "solve",
    "write_matrix_market",
]
