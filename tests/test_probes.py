"""Rademacher probes, moment recurrences, and basis conversions."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from specdet.estimators import EstimatorConfig, logdet_chebyshev, logdet_taylor
from specdet.linop import DenseOperator, SparseOperator, identity, normalize, row_blocks
from specdet.maxent import DualProblem, UniformPrior
from specdet.probes import (BASIS_KINDS, CHEBYSHEV, LEGENDRE, POWER, MomentBasis,
                            SpectralMoments, estimate_moments, moments_to_power,
                            probe_matrix)
from specdet.synth import KernelSpec, se_kernel


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


def fsum_chebyshev_samples(B, Z, m):
    """Reference: the moment pass's doubled Chebyshev recurrence on whole
    blocks, each column sum exact (math.fsum) instead of blocked."""
    n, d = Z.shape
    S = np.empty((d, m + 1))
    S[:, 0] = 1.0

    def col_sums(X, Y):
        return np.array([math.fsum(col) for col in (X * Y).T]) / n

    prev, cur = None, Z
    for k in range(1, (m + 1) // 2 + 1):
        nxt = B.inner.matmat(cur) / (B.lambda_u / (2.0 if k == 1 else 4.0))
        if k == 1:
            nxt -= cur
            S[:, 1] = col_sums(Z, nxt)
        else:
            nxt -= 2.0 * cur
            nxt -= prev
            S[:, 2 * k - 1] = 2.0 * col_sums(cur, nxt) - S[:, 1]
        if 2 * k <= m:
            S[:, 2 * k] = 2.0 * col_sums(nxt, nxt) - 1.0
        prev, cur = cur, nxt
    return S


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
        z = probe_matrix(4, 1, 0)
        assert set(np.unique(z)) <= {-1.0, 1.0}

    def test_squared_norm_is_exactly_n(self):
        for z in probe_matrix(17, 20, 3).T:
            assert z @ z == 17.0

    def test_componentwise_mean_near_zero(self):
        # CLT bound: 3 sigma / sqrt(N) = 3/sqrt(1e5) < 0.01; spec band 0.02
        N = 100_000
        draws = probe_matrix(4 * N, 1, 1).reshape(N, 4)
        assert np.abs(draws.mean(axis=0)).max() <= 0.02

    def test_probe_matrix_schedule_independence(self):
        # probe j is a function of (seed, j) only, not of d
        Z5 = probe_matrix(50, 5, seed=9)
        Z3 = probe_matrix(50, 3, seed=9)
        assert np.array_equal(Z5[:, :3], Z3)

    def test_no_rows_refused(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            probe_matrix(0, 3, 0)

    def test_golden_probes(self):
        # the probe definition, pinned: top bits of the 32-bit halves of raw
        # PCG64 words, low half first, +1 where the bit is set
        assert probe_matrix(5, 3, seed=0).tolist() == [
            [1, 1, 1], [1, 1, 1], [-1, -1, -1], [-1, -1, -1], [1, -1, 1]]
        assert probe_matrix(9, 2, seed=7).tolist() == [
            [-1, 1], [1, -1], [-1, -1], [-1, -1], [1, -1], [1, -1], [1, -1], [1, -1], [1, -1]]


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

    @pytest.mark.parametrize("m", [0, 1, 8, 30])
    def test_chebyshev_change_of_basis_is_exactly_the_identity(self, m):
        assert np.array_equal(MomentBasis(CHEBYSHEV, m).chebyshev_matrix(), np.eye(m + 1))

    @pytest.mark.parametrize("kind, tol", [(POWER, 1e-15), (LEGENDRE, 1e-14)])
    def test_chebyshev_matrix_reproduces_the_basis_at_high_order(self, kind, tol):
        lam = np.linspace(0.0, 1.0, 2001)
        basis = MomentBasis(kind, 30)
        T = MomentBasis(CHEBYSHEV, 30).vandermonde(lam)
        assert np.abs(T @ basis.chebyshev_matrix().T - basis.vandermonde(lam)).max() <= tol

    def test_changes_of_basis_are_shared_read_only(self):
        basis = MomentBasis(LEGENDRE, 6)
        for M in (basis.to_power_matrix(), basis.chebyshev_matrix()):
            assert not M.flags.writeable
        assert basis.to_power_matrix() is MomentBasis(LEGENDRE, 6).to_power_matrix()

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

    @pytest.mark.parametrize("c", [1.0, 2.5, 49.0, np.nextafter(2.0**-1021, 1.0), 1e308])
    @pytest.mark.parametrize("kind", [POWER, CHEBYSHEV, LEGENDRE])
    def test_scaled_identity_all_ones(self, c, kind):
        # the pass divides by lambda_u / 4: a product with fl(4 / c) misses 4
        # at c = 49, and below lambda_u = 2^-1020 lambda_u / 4 is inexact
        B = normalize(DenseOperator(c * np.eye(50), symmetric=True))
        mom = estimate_moments(B, MomentBasis(kind, 7), d=4, seed=0)
        assert np.array_equal(mom.values, np.ones(8))
        assert np.array_equal(mom.variance, np.zeros(8))

    @pytest.mark.parametrize("c", [1.0, 49.0, 1e308])
    def test_scaled_identity_all_ones_across_tiles(self, c):
        # the pass walks 20,000 x 4 blocks in three row tiles, the last one
        # short, and adds up the tiles' column sums
        n, d = 20_000, 4
        assert len(row_blocks(n, d)) == 3
        op = SparseOperator(c * sp.identity(n, format="csr"))
        B = normalize(op)
        for kind in BASIS_KINDS:
            mom = estimate_moments(B, MomentBasis(kind, 7), d=d, seed=0)
            assert np.array_equal(mom.values, np.ones(8))
            assert np.array_equal(mom.variance, np.zeros(8))
        cfg = EstimatorConfig(m=7, d=d, seed=0)
        for method in (logdet_taylor, logdet_chebyshev):
            assert method(op, cfg).value == n * np.log(c)

    def test_column_sums_near_exact_on_mass_matrix(self):
        # the n=22,500 mass matrix of the sparse benchmark: each sample is
        # within 1e-13 of the same recurrence whose column sums are exact;
        # sums down whole columns were off by up to 2.2e-13
        n, m, d = 22_500, 30, 10
        M = sp.diags([1.0, 4.0, 1.0], [-1, 0, 1], shape=(n, n)) / 6.0
        B = normalize(SparseOperator(sp.tril(M, format="csr")))
        mom = estimate_moments(B, MomentBasis(CHEBYSHEV, m), d=d, seed=0)
        exact = fsum_chebyshev_samples(B, probe_matrix(n, d, 0), m)
        assert np.abs(mom.samples - exact).max() <= 1e-13

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_product_layout_does_not_change_moments(self, layout):
        # the recurrence updates each product in place through a flat view,
        # which a Fortran-ordered or strided product would not have
        rng = np.random.default_rng(3)
        A = rng.standard_normal((40, 40))
        K = A @ A.T + np.eye(40)

        class Relaid(DenseOperator):
            def matmat(self, X):
                Y = super().matmat(X)
                if layout == "fortran":
                    return np.asfortranarray(Y)
                wide = np.zeros((Y.shape[0], 2 * Y.shape[1]))
                wide[:, ::2] = Y
                return wide[:, ::2]

        for kind in (POWER, CHEBYSHEV, LEGENDRE):
            basis = MomentBasis(kind, 9)
            plain = estimate_moments(normalize(DenseOperator(K)), basis, d=5, seed=2)
            relaid = estimate_moments(normalize(Relaid(K)), basis, d=5, seed=2)
            assert np.array_equal(relaid.values, plain.values)
            assert np.array_equal(relaid.variance, plain.variance)

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

    def test_no_probes_refused(self):
        with pytest.raises(ValueError, match="probe count d must be >= 1"):
            estimate_moments(normalize(identity(3)), MomentBasis(CHEBYSHEV, 2), d=0, seed=0)

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


class TestSpectralMoments:
    @pytest.mark.parametrize("shape", [(0, 4), (4,), (2, 3), (2, 5), (2, 4, 1)],
                             ids=["no-rows", "1-d", "narrow", "wide", "3-d"])
    def test_bad_shape_refused(self, shape):
        with pytest.raises(ValueError, match="moment samples must be"):
            SpectralMoments(MomentBasis(POWER, 3), np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_refused(self, bad):
        samples = np.ones((3, 4))
        samples[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite moment estimate"):
            SpectralMoments(MomentBasis(POWER, 3), samples)

    def test_single_row_has_zero_variance_and_penalty(self):
        # exact moments are one row: no spread, so the dual gets no ridge
        row = np.array([1.0, 0.2, -0.3, 0.1])
        mom = SpectralMoments(MomentBasis(CHEBYSHEV, 3), row[None])
        assert mom.probes == 1
        assert np.array_equal(mom.values, row)
        assert np.array_equal(mom.variance, np.zeros(4))
        assert np.array_equal(DualProblem(UniformPrior(), mom).penalty, np.zeros(4))


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

    def test_power_variances_are_those_of_the_mapped_samples(self):
        # p_1 = (mu_1 + 1) / 2 probe by probe, so Var p_1 = Var mu_1 / 4
        op = se_kernel(KernelSpec(n=256, seed=1))
        mom = estimate_moments(normalize(op), MomentBasis(CHEBYSHEV, 30), d=30, seed=0)
        p = moments_to_power(mom)
        assert p.probes == 30
        assert p.variance[1] == pytest.approx(mom.variance[1] / 4.0, rel=1e-14)
        C = mom.basis.to_power_matrix()
        residual = np.abs(C @ p.samples.T - mom.samples.T)
        assert (residual <= 31 * np.finfo(float).eps * (np.abs(C) @ np.abs(p.samples.T))).all()

    @pytest.mark.parametrize("kind, m", [(CHEBYSHEV, 5), (LEGENDRE, 5), (POWER, 30)])
    def test_identity_power_samples_exactly_one(self, kind, m):
        # at low order the forward substitution is exact on a spectrum at 1;
        # the power basis maps through the identity matrix at any order
        mom = estimate_moments(normalize(identity(7)), MomentBasis(kind, m), d=4, seed=0)
        assert np.array_equal(moments_to_power(mom).samples, np.ones((4, m + 1)))

    @pytest.mark.parametrize("kind", BASIS_KINDS)
    def test_identity_rows_read_by_the_prior_exactly_one_at_high_order(self, kind):
        # p_1 and p_2 are the only rows the Beta prior fit reads; the higher
        # rows carry round-off at m = 30 (up to ~1e-8 from Legendre moments)
        mom = estimate_moments(normalize(identity(7)), MomentBasis(kind, 30), d=4, seed=0)
        p = moments_to_power(mom)
        assert np.array_equal(p.samples[:, :3], np.ones((4, 3)))
        assert np.array_equal(p.values[:3], np.ones(3))
        assert np.abs(p.samples - 1.0).max() <= 1e-7

    def test_power_basis_is_identity(self):
        B = normalize(identity(4))
        mom = estimate_moments(B, MomentBasis(POWER, 3), d=2, seed=0)
        assert np.allclose(moments_to_power(mom).values, mom.values)

