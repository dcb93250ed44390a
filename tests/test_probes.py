"""Rademacher probes, moment recurrences, and basis conversions."""

import math

import numpy as np
import pytest

from specdet.linop import DenseOperator, identity, normalize
from specdet.probes import (CHEBYSHEV, LEGENDRE, POWER, MomentBasis,
                            estimate_moments, hutchinson_sample_bound,
                            moments_to_power, probe_matrix, probe_rng,
                            rademacher_probe)


def column_vandermonde(basis, lam):
    """Reference: the recurrences written column by column on (N, m+1)."""
    m = basis.order
    F = np.empty((lam.size, m + 1))
    F[:, 0] = 1.0
    if m == 0:
        return F
    if basis.kind == POWER:
        F[:, 1] = lam
        for i in range(2, m + 1):
            F[:, i] = F[:, i - 1] * lam
        return F
    t = 2.0 * lam - 1.0
    F[:, 1] = t
    for i in range(1, m):
        if basis.kind == CHEBYSHEV:
            F[:, i + 1] = 2.0 * t * F[:, i] - F[:, i - 1]
        else:
            F[:, i + 1] = ((2 * i + 1) * t * F[:, i] - i * F[:, i - 1]) / (i + 1)
    return F


def rolled_power_matrix(basis):
    """Reference: multiplication by x as np.roll of the coefficient row."""
    m = basis.order
    if basis.kind == POWER:
        return np.eye(m + 1)
    C = np.zeros((m + 1, m + 1))
    C[0, 0] = 1.0
    if m == 0:
        return C
    C[1, 0], C[1, 1] = -1.0, 2.0
    for i in range(1, m):
        tC = 2.0 * np.roll(C[i], 1) - C[i]
        if basis.kind == CHEBYSHEV:
            C[i + 1] = 2.0 * tC - C[i - 1]
        else:
            C[i + 1] = ((2 * i + 1) * tC - i * C[i - 1]) / (i + 1)
    return C


class TestRademacher:
    def test_support(self):
        z = rademacher_probe(4, probe_rng(0, 0))
        assert set(np.unique(z)) <= {-1.0, 1.0}

    def test_squared_norm_is_exactly_n(self):
        for idx in range(20):
            z = rademacher_probe(17, probe_rng(3, idx))
            assert z @ z == 17.0

    def test_componentwise_mean_near_zero(self):
        # CLT bound: 3 sigma / sqrt(N) = 3/sqrt(1e5) < 0.01; spec band 0.02
        N = 100_000
        rng = probe_rng(1, 0)
        total = np.zeros(4)
        for _ in range(N):
            total += rademacher_probe(4, rng)
        assert np.abs(total / N).max() <= 0.02

    def test_probe_matrix_schedule_independence(self):
        # probe j is a function of (seed, j) only, not of d
        Z5 = probe_matrix(50, 5, seed=9)
        Z3 = probe_matrix(50, 3, seed=9)
        assert np.array_equal(Z5[:, :3], Z3)


class TestMomentBasis:
    def test_vandermonde_matches_numpy_chebyshev(self):
        lam = np.linspace(0.0, 1.0, 33)
        F = MomentBasis(CHEBYSHEV, 6).vandermonde(lam)
        t = 2.0 * lam - 1.0
        for i in range(7):
            coef = np.zeros(i + 1)
            coef[i] = 1.0
            assert np.allclose(F[:, i], np.polynomial.chebyshev.chebval(t, coef))

    def test_vandermonde_matches_numpy_legendre(self):
        lam = np.linspace(0.0, 1.0, 33)
        F = MomentBasis(LEGENDRE, 6).vandermonde(lam)
        t = 2.0 * lam - 1.0
        for i in range(7):
            coef = np.zeros(i + 1)
            coef[i] = 1.0
            assert np.allclose(F[:, i], np.polynomial.legendre.legval(t, coef))

    def test_to_power_matrix_consistency(self):
        # evaluating the power expansion must reproduce the basis values
        lam = np.linspace(0.0, 1.0, 17)
        for kind in (POWER, CHEBYSHEV, LEGENDRE):
            basis = MomentBasis(kind, 8)
            C = basis.to_power_matrix()
            P = np.vander(lam, 9, increasing=True)
            assert np.allclose(P @ C.T, basis.vandermonde(lam), atol=1e-10)

    @pytest.mark.parametrize("kind", [POWER, CHEBYSHEV, LEGENDRE])
    def test_bit_identical_to_reference_constructions(self, kind):
        lam = np.linspace(0.0, 1.0, 961)
        for m in (0, 1, 2, 7, 30):
            basis = MomentBasis(kind, m)
            F = basis.vandermonde(lam)
            assert F.flags.c_contiguous
            assert np.array_equal(F, column_vandermonde(basis, lam))
            assert np.array_equal(basis.to_power_matrix(), rolled_power_matrix(basis))

    def test_chebyshev_matrix_consistency(self):
        lam = np.linspace(0.0, 1.0, 17)
        T = MomentBasis(CHEBYSHEV, 8).vandermonde(lam)
        for kind in (POWER, CHEBYSHEV, LEGENDRE):
            basis = MomentBasis(kind, 8)
            L = basis.chebyshev_matrix()
            assert np.array_equal(L, np.tril(L))
            assert np.allclose(T @ L.T, basis.vandermonde(lam), atol=1e-13)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown basis kind"):
            MomentBasis("fourier", 3)


class TestEstimateMoments:
    @pytest.mark.parametrize("kind", [POWER, CHEBYSHEV, LEGENDRE])
    def test_identity_all_ones_zero_variance(self, kind):
        # every basis function is 1 at x = 1, and power and Legendre act on
        # deviations of the Chebyshev samples from 1, so no round-off enters
        B = normalize(identity(3))
        mom = estimate_moments(B, MomentBasis(kind, 5), d=4, seed=0)
        assert np.array_equal(mom.values, np.ones(6))
        assert np.array_equal(mom.variance, np.zeros(6))

    def test_diagonal_power_moments_exact(self):
        # z_i^2 = 1 makes probe quadratic forms exact on diagonal matrices:
        # mu_1 = mean(lam/4) = 7/12, mu_2 = mean((lam/4)^2) = 21/48
        B = normalize(DenseOperator(np.diag([1.0, 2.0, 4.0])))
        mom = estimate_moments(B, MomentBasis(POWER, 2), d=6, seed=1)
        assert np.allclose(mom.values, [1.0, 7.0 / 12.0, 21.0 / 48.0], atol=1e-12)
        assert np.allclose(mom.variance, 0.0, atol=1e-24)

    def test_diagonal_chebyshev_first_moment(self):
        # T_1(2x-1) averaged over {1/4, 1/2, 1} is 1/6
        B = normalize(DenseOperator(np.diag([1.0, 2.0, 4.0])))
        mom = estimate_moments(B, MomentBasis(CHEBYSHEV, 1), d=6, seed=2)
        assert np.allclose(mom.values[1], 1.0 / 6.0, atol=1e-12)

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((20, 20))
        B = normalize(DenseOperator(A @ A.T + np.eye(20)))
        m1 = estimate_moments(B, MomentBasis(CHEBYSHEV, 4), d=8, seed=11)
        m2 = estimate_moments(B, MomentBasis(CHEBYSHEV, 4), d=8, seed=11)
        assert np.array_equal(m1.values, m2.values)

    @pytest.mark.parametrize("m", [1, 2, 5, 6])
    def test_recurrence_matches_dense_polynomial(self, m):
        # cross-check the doubled probe recurrences against explicit f_i(B),
        # probe by probe, for both parities of m
        rng = np.random.default_rng(7)
        A = rng.standard_normal((15, 15))
        K = A @ A.T + np.eye(15)
        B = normalize(DenseOperator(K))
        Bd = K / np.abs(K).sum(axis=1).max()
        lam, V = np.linalg.eigh(Bd)
        Z = probe_matrix(15, 3, seed=4)
        for kind in (POWER, CHEBYSHEV, LEGENDRE):
            basis = MomentBasis(kind, m)
            mom = estimate_moments(B, basis, d=3, seed=4)
            F = basis.vandermonde(lam)
            samples = np.empty((3, m + 1))
            for i in range(m + 1):
                fB = V @ np.diag(F[:, i]) @ V.T
                samples[:, i] = np.einsum("ij,ij->j", Z, fB @ Z) / 15
            assert np.allclose(mom.values, samples.mean(axis=0), atol=1e-10)
            assert np.allclose(mom.variance, samples.var(axis=0, ddof=1), atol=1e-10)

    def test_unbiased_toward_true_moments(self):
        lam = np.array([0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
        B = normalize(DenseOperator(np.diag(lam)))
        mom = estimate_moments(B, MomentBasis(POWER, 3), d=200, seed=5)
        assert np.allclose(mom.values, [np.mean(lam**k) for k in range(4)], atol=1e-12)


class TestMomentsToPower:
    def test_round_trip_chebyshev(self):
        lam = np.array([0.25, 0.5, 1.0])
        B = normalize(DenseOperator(np.diag(4.0 * lam)))
        cheb = estimate_moments(B, MomentBasis(CHEBYSHEV, 4), d=5, seed=0)
        p = moments_to_power(cheb)
        assert p.basis.kind == POWER
        assert np.allclose(p.values, [np.mean(lam**k) for k in range(5)], atol=1e-10)

    @pytest.mark.parametrize("kind", [CHEBYSHEV, LEGENDRE])
    def test_low_power_moments_exact_at_high_order(self, kind):
        # the Beta prior is fit from p_1, p_2; at m = 30 the change of basis
        # has entries near 6e17, which a pivoting solve mixes into them
        lam = np.linspace(0.05, 1.0, 40)
        B = normalize(DenseOperator(np.diag(lam)))
        mom = estimate_moments(B, MomentBasis(kind, 30), d=3, seed=0)
        p = moments_to_power(mom).values
        assert p[1] == pytest.approx(np.mean(lam), rel=1e-12)
        assert p[2] == pytest.approx(np.mean(lam**2), rel=1e-12)

    def test_power_basis_is_identity(self):
        B = normalize(identity(4))
        mom = estimate_moments(B, MomentBasis(POWER, 3), d=2, seed=0)
        assert np.allclose(moments_to_power(mom).values, mom.values)


class TestSampleBound:
    def test_percent_level_bound(self):
        # ceil(6 * 0.01^-2 * ln(2/0.1)) = ceil(179743.975...) = 179744
        assert hutchinson_sample_bound(0.01, 0.1) == 179744

    def test_unit_scale(self):
        eta = 2.0 / math.e  # makes log(2/eta) exactly 1
        assert hutchinson_sample_bound(1.0, eta) == 6

    def test_direct_evaluation(self):
        assert hutchinson_sample_bound(0.1, 0.1) == math.ceil(600.0 * math.log(20.0))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            hutchinson_sample_bound(0.0, 0.1)
        with pytest.raises(ValueError):
            hutchinson_sample_bound(0.1, 1.0)
