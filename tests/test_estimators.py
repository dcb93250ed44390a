"""End-to-end estimators against the Cholesky oracle."""

import math

import numpy as np
import pytest
import scipy.interpolate

from specdet import estimators, maxent
from specdet.estimators import (EstimatorConfig, NotPositiveDefiniteError,
                                condition_number_estimate, estimate_logdet,
                                logdet_chebyshev, logdet_exact, logdet_lanczos,
                                logdet_maxent, logdet_taylor)
from specdet.linop import (DenseOperator, LinearOperator, NormalizedOperator,
                           gershgorin_upper_bound, identity, normalize)
from specdet.probes import (CHEBYSHEV, LEGENDRE, POWER, MomentBasis,
                            SpectralMoments, estimate_moments, probe_matrix)
from specdet.synth import KernelSpec, se_kernel

LN8 = np.log(8.0)


def diag124():
    return DenseOperator(np.diag([1.0, 2.0, 4.0]))


def random_spd(n, seed, lo=0.05, hi=1.0):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(lo, hi, n)
    return DenseOperator(Q @ np.diag(lam) @ Q.T, symmetric=True)


class CountingOperator(LinearOperator):
    """Delegates to a dense operator and counts block products."""

    def __init__(self, inner):
        self.inner = inner
        self.n = inner.n
        self.symmetric = inner.symmetric
        self.matmats = 0

    def matmat(self, X):
        self.matmats += 1
        return self.inner.matmat(X)

    def abs_row_sums(self):
        return self.inner.abs_row_sums()


class TestExact:
    def test_identity(self):
        assert logdet_exact(identity(5)) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal(self):
        assert logdet_exact(diag124()) == pytest.approx(LN8)

    def test_tridiagonal_2x2(self):
        op = DenseOperator(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        assert logdet_exact(op) == pytest.approx(np.log(3.0))

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            logdet_exact(DenseOperator(np.diag([1.0, -1.0])))

    def test_size_guard(self):
        with pytest.raises(ValueError, match="guard"):
            logdet_exact(identity(3), max_n=2)


class TestMaxent:
    def test_identity_point_mass(self):
        est = logdet_maxent(identity(100), EstimatorConfig(m=10, d=10, seed=0))
        assert abs(est.value) <= 0.05  # exact answer is 0; finite-m fit error only

    def test_diagonal_deterministic_moments(self):
        # exact atomic-spectrum moments sit on the moment-cone boundary, so
        # the gradient tolerance is not reachable; the value band is the contract
        est = logdet_maxent(diag124(), EstimatorConfig(m=10, d=4, seed=0))
        assert est.value == pytest.approx(LN8, rel=2e-2)

    def test_estimate_metadata(self):
        cfg = EstimatorConfig(m=8, d=5, seed=3)
        est = logdet_maxent(diag124(), cfg)
        assert est.method == "maxent"
        assert est.lambda_u == 4.0
        assert (est.m, est.d, est.seed) == (8, 5, 3)
        assert est.wall_time_ms > 0.0

    def test_min_eigenvalue_floor_respected(self):
        op = se_kernel(KernelSpec(n=300, lengthscale=0.65, seed=0))
        exact = logdet_exact(op)
        cfg = EstimatorConfig(m=30, d=30, seed=0, min_eigenvalue=1e-8)
        est = logdet_maxent(op, cfg)
        assert est.converged
        assert abs(est.value - exact) / abs(exact) < 0.5

    def test_value_stable_under_round_off_in_moments(self):
        # moments that differ by round-off must give the same estimate: the
        # value is a function of the moments, not of the solve's path to it
        op = se_kernel(KernelSpec(n=300, lengthscale=0.65, seed=1))
        cfg = EstimatorConfig(m=30, d=20, seed=1)
        lam_u = gershgorin_upper_bound(op)
        mom = estimate_moments(NormalizedOperator(op, lam_u), MomentBasis(cfg.basis, cfg.m),
                               cfg.d, cfg.seed)
        signs = np.where(np.arange(cfg.m + 1) % 2, 1.0, -1.0)
        signs[0] = 0.0
        bumped = SpectralMoments(basis=mom.basis, values=mom.values * (1.0 + 4e-16 * signs),
                                 probes=mom.probes, seed=mom.seed, variance=mom.variance)
        assert not np.array_equal(bumped.values, mom.values)

        def log_expectation(moments):
            prior = estimators._choose_prior(cfg, moments)
            result = maxent.solve(moments, prior, cfg.solver)
            return maxent.integrate_log_expectation(result.density, cfg.solver)

        a, b = (op.n * (log_expectation(x) + np.log(lam_u)) for x in (mom, bumped))
        assert abs(b - a) <= 1e-10 * abs(a)

    def test_prior_choice_validation(self):
        with pytest.raises(ValueError, match="unknown prior"):
            EstimatorConfig(prior="gamma")


class TestTaylor:
    def test_identity_exact_zero(self):
        est = logdet_taylor(identity(50), EstimatorConfig(m=5, d=4, seed=0))
        assert est.value == 0.0

    def test_diagonal_hand_formula(self):
        # m=2 truncation: 3 ln4 - 3 (mu'_1 + mu'_2 / 2) on moments of I - B
        lam = np.array([1.0, 2.0, 4.0])
        mu1 = np.mean(1.0 - lam / 4.0)
        mu2 = np.mean((1.0 - lam / 4.0) ** 2)
        hand = 3.0 * np.log(4.0) - 3.0 * (mu1 + mu2 / 2.0)
        est = logdet_taylor(diag124(), EstimatorConfig(m=2, d=4, seed=0))
        assert est.value == pytest.approx(hand, abs=1e-12)
        assert est.value >= LN8  # discarded tail is negative

    def test_matches_truncated_series_of_dense_matrix(self):
        # n log lambda_u - mean_j z_j.(sum_{k<=m} (I - B)^k / k)z_j through eigh
        op = random_spd(40, 4, lo=0.02)
        m = 10
        est = logdet_taylor(op, EstimatorConfig(m=m, d=7, seed=5))
        lam_u = np.abs(op.A).sum(axis=1).max()
        lam, V = np.linalg.eigh(op.A / lam_u)
        series = sum((1.0 - lam) ** k / k for k in range(1, m + 1))
        sB = V @ np.diag(series) @ V.T
        Z = probe_matrix(40, 7, seed=5)
        expected = 40 * np.log(lam_u) - np.mean(np.einsum("ij,ij->j", Z, sB @ Z))
        assert est.value == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_upper_bounds_exact_on_random_spd(self):
        for seed in range(20):
            op = random_spd(60, seed)
            est = logdet_taylor(op, EstimatorConfig(m=10, d=30, seed=seed))
            assert est.value >= logdet_exact(op)


class TestChebyshev:
    def test_identity_within_interpolation_error(self):
        est = logdet_chebyshev(identity(40), EstimatorConfig(m=12, d=6, seed=0))
        assert abs(est.value) <= 1e-10

    def test_identity_exact_zero(self):
        # the interpolant vanishes at 1 and is applied to mu - 1, which is 0
        est = logdet_chebyshev(identity(40), EstimatorConfig(m=12, d=6, seed=0))
        assert est.value == 0.0

    def test_diagonal_inside_interval(self):
        cfg = EstimatorConfig(m=20, d=8, seed=1, cheb_floor=0.2)
        est = logdet_chebyshev(diag124(), cfg)
        assert est.value == pytest.approx(LN8, abs=1e-3)

    def test_matches_interpolant_of_dense_matrix(self):
        # n log lambda_u + mean_j z_j.q(B)z_j with q, the degree-m interpolant
        # of log at the mapped Radau nodes, applied through eigh
        op = random_spd(40, 3, lo=0.02)
        m, a = 10, 0.01
        cfg = EstimatorConfig(m=m, d=7, seed=5, cheb_floor=a)
        est = logdet_chebyshev(op, cfg)
        x = np.cos(2.0 * np.pi * np.arange(m + 1) / (2 * m + 1))
        nodes = 0.5 * (x + 1.0) * (1.0 - a) + a
        q = scipy.interpolate.BarycentricInterpolator(nodes, np.log(nodes))
        lam_u = np.abs(op.A).sum(axis=1).max()
        lam, V = np.linalg.eigh(op.A / lam_u)
        qB = V @ np.diag(q(lam)) @ V.T
        Z = probe_matrix(40, 7, seed=5)
        expected = 40 * np.log(lam_u) + np.mean(np.einsum("ij,ij->j", Z, qB @ Z))
        assert est.value == pytest.approx(expected, rel=1e-10, abs=1e-10)


class TestMatmatCount:
    """m moments cost ceil(m/2) block products in every consumer."""

    @pytest.mark.parametrize("m", [1, 2, 5, 6, 30])
    def test_half_the_moment_order(self, m):
        base = random_spd(30, 2, lo=0.2)
        cfg = EstimatorConfig(m=m, d=3, seed=0)
        for kind in (POWER, CHEBYSHEV, LEGENDRE):
            op = CountingOperator(base)
            estimate_moments(normalize(op), MomentBasis(kind, m), d=3, seed=0)
            assert op.matmats == math.ceil(m / 2), kind
        for fn in (logdet_taylor, logdet_chebyshev):
            op = CountingOperator(base)
            fn(op, cfg)
            assert op.matmats == math.ceil(m / 2), fn.__name__


class TestLanczos:
    def test_identity_exact(self):
        est = logdet_lanczos(identity(30), EstimatorConfig(m=5, d=4, seed=0))
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_full_rank_lanczos_is_exact_per_probe(self):
        # m = n reproduces the whole spectrum for every probe
        est = logdet_lanczos(diag124(), EstimatorConfig(m=3, d=16, seed=2))
        assert est.value == pytest.approx(LN8, abs=1e-8)

    def test_random_spd_accuracy(self):
        op = random_spd(80, 7, lo=0.2, hi=1.0)
        est = logdet_lanczos(op, EstimatorConfig(m=25, d=40, seed=7))
        exact = logdet_exact(op)
        assert est.value == pytest.approx(exact, rel=0.05)


class TestBatchedLanczos:
    """All probes of a block share one product per Lanczos step."""

    @pytest.mark.parametrize("n,m,d,width", [(30, 5, 4, None), (30, 5, 7, 2),
                                             (30, 5, 7, 1), (4, 10, 3, 2)])
    def test_one_matmat_per_step_and_block(self, monkeypatch, n, m, d, width):
        if width is not None:
            # a basis budget that fits exactly `width` probes per block
            monkeypatch.setattr(estimators, "_BASIS_BYTES", 8 * min(m, n) * n * width)
        op = CountingOperator(random_spd(n, 3, lo=0.2))
        logdet_lanczos(op, EstimatorConfig(m=m, d=d, seed=0))
        blocks = 1 if width is None else math.ceil(d / width)
        assert op.matmats == min(m, n) * blocks

    def test_columns_break_down_at_their_krylov_dimension(self):
        lam = np.array([0.1, 0.2, 0.35, 0.5, 0.7, 1.0])
        Z = np.zeros((6, 3))
        Z[2, 0] = 1.0                    # Krylov dimension 1
        Z[[0, 4], 1] = [1.0, -2.0]       # 2
        Z[[0, 1, 3, 5], 2] = [1.0, 0.5, -1.0, 2.0]  # 4
        op = CountingOperator(DenseOperator(np.diag(lam)))
        got = estimators._lanczos_log_quadrature(NormalizedOperator(op, 1.0), Z, 6)
        want = (Z ** 2).T @ np.log(lam) / (Z ** 2).sum(axis=0)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)
        assert op.matmats == 4  # the loop ends once the last column stops

    def test_per_probe_values_do_not_depend_on_block_width(self):
        B = normalize(random_spd(60, 5, lo=0.01))
        Z = probe_matrix(60, 6, seed=4)
        block = estimators._lanczos_log_quadrature(B, Z, 12)
        single = [estimators._lanczos_log_quadrature(B, Z[:, [j]], 12)[0]
                  for j in range(6)]
        assert np.allclose(block, single, rtol=1e-12, atol=0.0)


class TestConditionNumber:
    def test_identity(self):
        assert condition_number_estimate(identity(6)) == pytest.approx(1.0, rel=1e-6)

    def test_diagonal(self):
        assert condition_number_estimate(diag124()) == pytest.approx(4.0, rel=1e-6)

    def test_kernel_order_of_magnitude(self):
        # l = 0.33 sits in the 1e7 regime at the default input spread
        op = se_kernel(KernelSpec(n=1000, dim=6, lengthscale=0.33, seed=0))
        kappa = condition_number_estimate(op)
        assert 1e6 <= kappa <= 1e8


class TestDispatch:
    def test_exact_method(self):
        est = estimate_logdet(diag124(), "exact")
        assert est.value == pytest.approx(LN8)
        assert est.method == "exact"

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            estimate_logdet(diag124(), "qr")

    def test_all_stochastic_methods_run(self):
        op = random_spd(40, 11, lo=0.3)
        exact = logdet_exact(op)
        cfg = EstimatorConfig(m=15, d=20, seed=0)
        for method in ("maxent", "taylor", "chebyshev", "lanczos"):
            est = estimate_logdet(op, method, cfg)
            assert est.method == method
            assert np.isfinite(est.value)
            assert abs(est.value - exact) / abs(exact) < 0.5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(m=0)
