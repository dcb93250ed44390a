"""End-to-end estimators against the Cholesky oracle."""

import math
import time

import numpy as np
import pytest
import scipy.interpolate
import scipy.sparse as sp

from specdet import estimators, maxent, probes
from specdet.estimators import (EstimatorConfig, NotPositiveDefiniteError,
                                condition_number_estimate, estimate_logdet,
                                estimate_logdets, logdet_chebyshev, logdet_exact,
                                logdet_lanczos, logdet_maxent, logdet_taylor)
from specdet.linop import (DenseOperator, LinearOperator, NormalizedOperator,
                           SparseOperator, gershgorin_upper_bound, identity,
                           normalize)
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


def five_negative_eigenvalues():
    """200 x 200, eigenvalues uniform on [0.1, 1] except five at -0.05."""
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((200, 200)))
    lam = rng.uniform(0.1, 1.0, 200)
    lam[:5] = -0.05
    return DenseOperator(Q @ np.diag(lam) @ Q.T, symmetric=True)


def tridiagonal_floor_case():
    """n=300, diagonal linspace(0.7, 1), off-diagonal 0.05: lambda_min 0.608, lambda_u 1.099."""
    n = 300
    A = np.diag(np.linspace(0.7, 1.0, n)) + 0.05 * (np.eye(n, k=1) + np.eye(n, k=-1))
    return DenseOperator(A)


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

    def test_non_symmetric_refused(self):
        # det = -1, but the lower triangle alone reads as det = 3
        op = DenseOperator(np.array([[2.0, 5.0], [1.0, 2.0]]))
        with pytest.raises(ValueError, match="symmetric"):
            logdet_exact(op)
        with pytest.raises(ValueError, match="symmetric"):
            estimate_logdet(op, "exact")

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            logdet_exact(DenseOperator(np.diag([1.0, -1.0])))

    def test_size_guard(self, monkeypatch):
        monkeypatch.setattr(estimators, "_FACTOR_GUARD", 2)
        with pytest.raises(ValueError, match="guard"):
            logdet_exact(identity(3))


class TestMaxent:
    def test_identity_point_mass(self):
        est = logdet_maxent(identity(100), EstimatorConfig(m=10, d=10, seed=0))
        assert abs(est.value) <= 0.05  # exact answer is 0; finite-m fit error only

    @pytest.mark.parametrize("basis", [POWER, CHEBYSHEV, LEGENDRE])
    def test_identity_is_exactly_zero(self, basis):
        # f_1 < 1 on [0, 1) in every basis, so a first moment of 1 is a point mass at 1
        est = logdet_maxent(identity(100), EstimatorConfig(basis=basis))
        assert est.value == 0.0
        assert est.converged and est.iterations == 0 and est.grad_norm == 0.0

    def test_scaled_identity_is_exact(self):
        est = logdet_maxent(DenseOperator(2.5 * np.eye(50)), EstimatorConfig())
        assert est.value == 50 * np.log(2.5)

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

    def test_certified_floor_past_half(self):
        # min_eigenvalue / lambda_u = 0.546: the grid is the upper run on [1/2, 1)
        op = tridiagonal_floor_case()
        exact = logdet_exact(op)
        est = logdet_maxent(op, EstimatorConfig(min_eigenvalue=0.6))
        assert est.converged
        assert abs(est.value - exact) / abs(exact) < 0.01
        # a floor of exactly 1 is still a valid bound
        lam_u = gershgorin_upper_bound(op)
        assert logdet_maxent(op, EstimatorConfig(min_eigenvalue=lam_u)).value == est.value

    def test_min_eigenvalue_without_a_floor_is_the_default(self):
        # None, 0, a negative value and one whose floor is below 1e-14 all
        # leave the solver's default floor, bit for bit
        op = se_kernel(KernelSpec(n=128, lengthscale=0.65, noise=1e-8, seed=2))
        default = logdet_maxent(op, EstimatorConfig(m=10, d=8, seed=1))
        for min_eig in (None, 0.0, -1.0, 1e-20):
            est = logdet_maxent(op, EstimatorConfig(m=10, d=8, seed=1, min_eigenvalue=min_eig))
            assert (est.value, est.iterations) == (default.value, default.iterations)
        # the kernel's noise is a floor above 1e-14, and it moves the estimate
        floored = logdet_maxent(op, EstimatorConfig(m=10, d=8, seed=1, min_eigenvalue=1e-8))
        assert floored.value != default.value

    def test_min_eigenvalue_above_lambda_u_is_refused(self):
        with pytest.raises(ValueError, match="a min_eigenvalue above lambda_u"):
            logdet_maxent(tridiagonal_floor_case(), EstimatorConfig(min_eigenvalue=1.2))

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
        bumped = SpectralMoments(mom.basis, mom.samples * (1.0 + 4e-16 * signs))
        assert not np.array_equal(bumped.values, mom.values)

        def log_expectation(moments):
            prior = estimators._choose_prior(cfg, moments)
            return maxent.solve(moments, prior, cfg.solver).log_expectation

        a, b = (op.n * (log_expectation(x) + np.log(lam_u)) for x in (mom, bumped))
        assert abs(b - a) <= 1e-10 * abs(a)

    def test_one_moment_auto_prior_is_uniform(self):
        # no second moment to fit a Beta to, so auto falls back as it does
        # for a spectrum without variance
        est = logdet_maxent(diag124(), EstimatorConfig(m=1, d=4))
        assert np.isfinite(est.value)

    def test_auto_prior_falls_back_when_no_beta_fits(self):
        # the exact Chebyshev moments of a point mass at 1/2 have no variance
        moments = SpectralMoments(MomentBasis(CHEBYSHEV, 2), [[1.0, 0.0, -1.0]])
        assert estimators._choose_prior(EstimatorConfig(m=2), moments) == maxent.UniformPrior()

    def test_prior_choice_validation(self):
        with pytest.raises(ValueError, match="unknown prior"):
            EstimatorConfig(prior="gamma")

    def test_basis_validation(self):
        # refused when the config is built, not inside the first estimate
        with pytest.raises(ValueError, match="unknown basis"):
            EstimatorConfig(basis="fourier")


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

    def test_diagonal_inside_interval(self, monkeypatch):
        monkeypatch.setattr(estimators, "_CHEB_FLOOR", 0.2)
        cfg = EstimatorConfig(m=20, d=8, seed=1)
        est = logdet_chebyshev(diag124(), cfg)
        assert est.value == pytest.approx(LN8, abs=1e-3)

    def test_matches_interpolant_of_dense_matrix(self, monkeypatch):
        # n log lambda_u + mean_j z_j.q(B)z_j with q, the degree-m interpolant
        # of log at the mapped Radau nodes, applied through eigh
        op = random_spd(40, 3, lo=0.02)
        m, a = 10, 0.01
        monkeypatch.setattr(estimators, "_CHEB_FLOOR", a)
        cfg = EstimatorConfig(m=m, d=7, seed=5)
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

    def test_indefinite_refused(self):
        # a Ritz value near -0.05 / lambda_u proves the matrix indefinite
        with pytest.raises(NotPositiveDefiniteError, match="Ritz value"):
            logdet_lanczos(five_negative_eigenvalues(), EstimatorConfig(seed=0))

    def test_non_finite_products_refused(self):
        op = CountingOperator(diag124())
        op.matmat = lambda X: np.full(X.shape, np.nan)
        with pytest.raises(ValueError, match="infs or NaNs"):
            logdet_lanczos(op, EstimatorConfig(m=3, d=2))

    def test_round_off_band_is_clamped(self):
        # a Ritz value above -sqrt(eps) theta_max is round-off, not a proof
        op = DenseOperator(np.diag([-1e-12, 0.5, 1.0]))
        est = logdet_lanczos(op, EstimatorConfig(m=3, d=4, seed=0))
        eps = np.finfo(float).eps
        assert est.value == pytest.approx(np.log(eps) + np.log(0.5), rel=1e-6)


@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200])
@pytest.mark.parametrize("method", [logdet_maxent, logdet_taylor, logdet_chebyshev,
                                    logdet_lanczos])
def test_scale_range(method, scale):
    # log det sA = n log s + log det A far from 1: every product is divided by
    # lambda_u before a norm or inner product squares it
    A = random_spd(50, 3).to_dense()
    A = 0.5 * (A + A.T)  # exactly symmetric, as its scaled copies are then
    cfg = EstimatorConfig(m=20, d=5, seed=0)
    base = method(DenseOperator(A), cfg).value
    scaled = method(DenseOperator(scale * A), cfg).value - 50 * np.log(scale)
    assert scaled == pytest.approx(base, rel=1e-12)


@pytest.mark.parametrize("c", [1e-308, 5e-320], ids=["1e-308", "5e-320"])
def test_subnormal_quarter_scale_identity_exact(c):
    # lambda_u / 4 is below the smallest normal float, so the moment pass
    # divides by lambda_u and scales after; c I still gives samples of 1
    op = DenseOperator(c * np.eye(20), symmetric=True)
    cfg = EstimatorConfig(m=6, d=4, seed=0)
    B = normalize(op)
    assert B.lambda_u / 4.0 < np.finfo(float).tiny
    mom = estimate_moments(B, MomentBasis(CHEBYSHEV, cfg.m), cfg.d, cfg.seed)
    assert np.array_equal(mom.samples, np.ones((cfg.d, cfg.m + 1)))
    for method in (logdet_taylor, logdet_chebyshev, logdet_maxent):
        assert method(op, cfg).value == 20 * np.log(B.lambda_u)


@pytest.mark.parametrize("c", [1e-300, 1e300, 5e-320, 1.7e308],
                         ids=["1e-300", "1e300", "5e-320", "1.7e308"])
def test_lanczos_scaled_identity_exact(c):
    # 1 / lambda_u is a normal float at 1e-300 and 1e300, so each product is
    # multiplied by it; at 5e-320 it is inf and at 1.7e308 subnormal, so each
    # is divided. With n = 16 the probes' entries are +-1/4, and c I times
    # them is exact even where c is subnormal
    op = DenseOperator(c * np.eye(16), symmetric=True)
    B = normalize(op)
    assert (np.finfo(float).tiny <= 1.0 / B.lambda_u < np.inf) == (c in (1e-300, 1e300))
    assert logdet_lanczos(op, EstimatorConfig(m=6, d=4, seed=0)).value == 16 * np.log(B.lambda_u)


class TestIndefiniteMoments:
    """A Chebyshev moment sample past 1 in magnitude proves an eigenvalue below 0."""

    @pytest.mark.parametrize("fn", [logdet_maxent, logdet_taylor, logdet_chebyshev],
                             ids=["maxent", "taylor", "chebyshev"])
    def test_moment_estimators_refuse(self, fn):
        with pytest.raises(NotPositiveDefiniteError, match="moment sample"):
            fn(five_negative_eigenvalues(), EstimatorConfig(seed=0))

    @pytest.mark.parametrize("kind", [POWER, LEGENDRE])
    def test_checked_before_the_change_of_basis(self, kind):
        # the power moments of this matrix stay inside [0, 1]
        B = normalize(five_negative_eigenvalues())
        with pytest.raises(NotPositiveDefiniteError, match="moment sample"):
            estimate_moments(B, MomentBasis(kind, 30), d=30, seed=0)


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

    @staticmethod
    def breakdown_case():
        lam = np.array([0.1, 0.2, 0.35, 0.5, 0.7, 1.0])
        Z = np.zeros((6, 3))
        Z[2, 0] = 1.0                    # Krylov dimension 1
        Z[[0, 4], 1] = [1.0, -2.0]       # 2
        Z[[0, 1, 3, 5], 2] = [1.0, 0.5, -1.0, 2.0]  # 4
        return lam, Z

    def test_columns_break_down_at_their_krylov_dimension(self):
        lam, Z = self.breakdown_case()
        op = CountingOperator(DenseOperator(np.diag(lam)))
        got = estimators._lanczos_log_quadrature(NormalizedOperator(op, 1.0), Z, 6)
        want = (Z ** 2).T @ np.log(lam) / (Z ** 2).sum(axis=0)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)
        assert op.matmats == 4  # the loop ends once the last column stops

    def test_no_unwritten_basis_row_is_read(self, monkeypatch):
        # the basis is allocated unfilled: with every new float array NaN,
        # a row read before it is written would turn a value into NaN
        lam, Z = self.breakdown_case()
        cases = [(NormalizedOperator(DenseOperator(np.diag(lam)), 1.0), Z, 6),
                 (normalize(se_kernel(KernelSpec(n=256, lengthscale=0.45, seed=1))),
                  probe_matrix(256, 8, seed=1), 30)]
        want = [estimators._lanczos_log_quadrature(*case) for case in cases]
        empty, made = np.empty, []

        def nan_empty(*args, **kwargs):
            out = empty(*args, **kwargs)
            if out.dtype.kind == "f":
                out.fill(np.nan)
            made.append(out)
            return out

        monkeypatch.setattr(np, "empty", nan_empty)
        for case, values in zip(cases, want):
            assert np.array_equal(estimators._lanczos_log_quadrature(*case), values)
        # the breakdown case's basis: the columns stop after steps 1, 2 and 4,
        # and a stopped column's later vectors are zero up to the last step
        Q = next(a for a in made if a.shape == (3, 6, 6))
        assert not np.isnan(Q[:, :4]).any() and np.isnan(Q[:, 4:]).all()
        assert not Q[0, 1:4].any() and not Q[1, 2:4].any()

    def test_per_probe_values_do_not_depend_on_block_width(self):
        B = normalize(random_spd(60, 5, lo=0.01))
        Z = probe_matrix(60, 6, seed=4)
        block = estimators._lanczos_log_quadrature(B, Z, 12)
        single = [estimators._lanczos_log_quadrature(B, Z[:, [j]], 12)[0]
                  for j in range(6)]
        assert np.allclose(block, single, rtol=1e-12, atol=0.0)


class TestLanczosBlockWidth:
    """A block's basis may hold as many bytes as the operator stores."""

    @staticmethod
    def block_widths(monkeypatch):
        widths = []

        def record(B, Z, m):
            widths.append(Z.shape[1])
            return np.zeros(Z.shape[1])

        monkeypatch.setattr(estimators, "_lanczos_log_quadrature", record)
        return widths

    def test_dense_operator_sets_the_width(self, monkeypatch):
        # a 9.7 MB matrix, past the 8 MiB floor
        n, m, d = 1100, 30, 72
        op = DenseOperator(np.diag(np.linspace(1.0, 2.0, n)))
        width = op.nbytes // (8 * m * n)
        assert width == 36 > estimators._BASIS_BYTES // (8 * m * n)
        widths = self.block_widths(monkeypatch)
        logdet_lanczos(op, EstimatorConfig(m=m, d=d, seed=0))
        assert widths == [width, width]

    def test_sparse_operator_at_benchmark_shape_keeps_width_one(self, monkeypatch):
        # 5-point Laplacian on a 150 x 150 grid, n = 22,500
        g = 150
        T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(g, g))
        L = sp.kron(sp.identity(g), T) + sp.kron(T, sp.identity(g))
        op = SparseOperator(sp.tril(L))
        assert 0 < op.nbytes < estimators._BASIS_BYTES
        widths = self.block_widths(monkeypatch)
        logdet_lanczos(op, EstimatorConfig(m=30, d=3, seed=0))
        assert widths == [1, 1, 1]

    def test_value_does_not_depend_on_reported_storage(self, monkeypatch):
        # the dense operator runs one block of 20 probes; the delegating one
        # reports no storage and runs ten blocks of 2 under this floor
        n, m, d = 200, 10, 20
        monkeypatch.setattr(estimators, "_BASIS_BYTES", 8 * m * n * 2)
        op = random_spd(n, 3, lo=0.05)
        counting = CountingOperator(op)
        cfg = EstimatorConfig(m=m, d=d, seed=1)
        assert logdet_lanczos(op, cfg).value == logdet_lanczos(counting, cfg).value
        assert counting.matmats == m * 10


def lanczos_reference(B, Z, m, reorthogonalize=True):
    """Lanczos quadrature one column at a time, each new vector projected out
    of its whole basis twice (full reorthogonalization) or not at all."""
    out = []
    for z in Z.T:
        Q = [z / np.linalg.norm(z)]
        alpha, beta = [], []
        for j in range(m):
            w = B.inner.matmat(Q[j][:, None])[:, 0] / B.lambda_u
            alpha.append(Q[j] @ w)
            if j == m - 1:
                break
            w = w - alpha[j] * Q[j] - (beta[j - 1] * Q[j - 1] if j else 0.0)
            if reorthogonalize:
                V = np.array(Q)
                for _ in range(2):
                    w = w - V.T @ (V @ w)
            b = np.linalg.norm(w)
            if b < 1e-12:
                break
            beta.append(b)
            Q.append(w / b)
        theta, V = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
        theta = np.maximum(theta, np.finfo(float).eps * theta.max())
        out.append(V[0] ** 2 @ np.log(theta))
    return np.array(out)


def grid_laplacian(g):
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(g, g))
    L = sp.kron(sp.identity(g), T) + sp.kron(T, sp.identity(g))
    return SparseOperator(sp.tril(L))


def mass_matrix(n):
    M = sp.diags([1.0, 4.0, 1.0], [-1, 0, 1], shape=(n, n)) / 6.0
    return SparseOperator(sp.tril(M))


class TestPartialReorthogonalization:
    """SLQ reorthogonalizes a column only when Simon's estimates say it must."""

    @pytest.mark.parametrize("l,m", [(0.65, 60), (0.45, 40)])
    def test_matches_full_reorthogonalization_where_plain_lanczos_drifts(self, l, m):
        op = se_kernel(KernelSpec(n=400, lengthscale=l, seed=1))
        cfg = EstimatorConfig(m=m, d=10, seed=1)
        B = normalize(op)
        Z = probe_matrix(400, 10, cfg.seed)

        def estimate(per_probe):
            return 400 * per_probe.mean() + 400 * np.log(B.lambda_u)

        full = estimate(lanczos_reference(B, Z, m))
        plain = estimate(lanczos_reference(B, Z, m, reorthogonalize=False))
        assert logdet_lanczos(op, cfg).value == pytest.approx(full, rel=1e-10)
        # ghost Ritz values: without reorthogonalization the error grows by
        # more than a point (measured +12.0% against +6.6%, +9.6% against +7.0%)
        exact = logdet_exact(op)
        assert abs(plain - exact) - abs(full - exact) > 0.01 * abs(exact)

    @pytest.mark.parametrize("op", [grid_laplacian(30), mass_matrix(900)],
                             ids=["laplacian-900", "mass-900"])
    def test_sparse_cases_match_full_reorthogonalization(self, op):
        B = normalize(op)
        Z = probe_matrix(op.n, 10, seed=0)
        got = estimators._lanczos_log_quadrature(B, Z, 30)
        assert np.allclose(got, lanczos_reference(B, Z, 30), rtol=1e-13, atol=0.0)

    def test_columns_reorthogonalizing_at_different_steps_match_each_alone(self):
        # column 3 first reorthogonalizes one step after the other seven, so
        # some steps project all but it and some it alone (71 of 232 column-steps)
        B = normalize(se_kernel(KernelSpec(n=256, lengthscale=0.45, seed=1)))
        Z = probe_matrix(256, 8, seed=1)
        block = estimators._lanczos_log_quadrature(B, Z, 30)
        alone = [estimators._lanczos_log_quadrature(B, Z[:, [j]], 30)[0] for j in range(8)]
        assert np.allclose(block, alone, rtol=1e-12, atol=0.0)
        assert np.allclose(block, lanczos_reference(B, Z, 30), rtol=1e-10, atol=0.0)

    def test_repeat_calls_are_bit_identical(self):
        op = se_kernel(KernelSpec(n=256, lengthscale=0.65, seed=2))
        cfg = EstimatorConfig(m=30, d=8, seed=3)
        assert logdet_lanczos(op, cfg).value == logdet_lanczos(op, cfg).value


class TestConditionNumber:
    def test_identity(self):
        assert condition_number_estimate(identity(6)) == pytest.approx(1.0, rel=1e-6)

    def test_diagonal(self):
        assert condition_number_estimate(diag124()) == pytest.approx(4.0, rel=1e-6)

    def test_indefinite_refused(self):
        op = DenseOperator(np.diag([-1.0, 8.0]))
        with pytest.raises(NotPositiveDefiniteError):
            condition_number_estimate(op)

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_extreme_eigenvalue_ratio(self, seed):
        op = random_spd(60, seed, lo=1e-3)
        lam = np.linalg.eigvalsh(op.A)
        assert condition_number_estimate(op) == pytest.approx(lam[-1] / lam[0], rel=1e-12)

    def test_size_guard(self, monkeypatch):
        monkeypatch.setattr(estimators, "_FACTOR_GUARD", 2)
        with pytest.raises(ValueError, match="guard"):
            condition_number_estimate(identity(3))

    def test_non_symmetric_refused(self):
        op = DenseOperator(np.array([[2.0, 5.0], [1.0, 2.0]]))
        with pytest.raises(ValueError, match="symmetric"):
            condition_number_estimate(op)

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

    @pytest.mark.parametrize("method", estimators.METHODS)
    def test_all_stochastic_methods_run(self, method):
        op = random_spd(40, 11, lo=0.3)
        exact = logdet_exact(op)
        cfg = EstimatorConfig(m=15, d=20, seed=4)
        est = estimate_logdet(op, method, cfg)
        assert est.method == method
        assert np.isfinite(est.value)
        assert abs(est.value - exact) / abs(exact) < 0.5
        # the oracle draws no probes and has no moment order
        want = (0, 0, 4) if method == "exact" else (15, 20, 4)
        assert (est.m, est.d, est.seed) == want
        assert est.wall_time_ms > 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(m=0)


class TestSharedPass:
    """One call shares one bound, one probe draw and one moment pass among its methods."""

    POLYNOMIAL = ["maxent", "taylor", "chebyshev"]
    CASES = {"se": lambda: se_kernel(KernelSpec(n=200, lengthscale=0.65, seed=1)),
             "laplacian": lambda: grid_laplacian(12)}

    @pytest.mark.parametrize("basis", [CHEBYSHEV, LEGENDRE, POWER])
    @pytest.mark.parametrize("case", list(CASES))
    def test_every_entry_is_the_single_call(self, case, basis):
        op = self.CASES[case]()
        cfg = EstimatorConfig(m=10, d=12, seed=3, basis=basis)
        entries = estimate_logdets(op, estimators.METHODS, cfg)
        assert [est.method for est in entries] == list(estimators.METHODS)
        for est in entries:
            alone = estimate_logdet(op, est.method, cfg)
            assert est.value == alone.value, est.method
            assert (est.iterations, est.converged) == (alone.iterations, alone.converged)

    @pytest.mark.parametrize("m", [1, 6, 7])
    def test_polynomial_methods_make_one_moment_pass(self, m):
        # one call per method makes 3 ceil(m/2) products
        op = CountingOperator(random_spd(30, 2, lo=0.2))
        estimate_logdets(op, self.POLYNOMIAL, EstimatorConfig(m=m, d=3, seed=0))
        assert op.matmats == math.ceil(m / 2)

    def test_lanczos_reads_the_same_probe_draw(self, monkeypatch):
        draws = []

        def counted(*args):
            draws.append(args)
            return probe_matrix(*args)

        monkeypatch.setattr(estimators, "probe_matrix", counted)
        estimate_logdets(random_spd(30, 2, lo=0.2), [*self.POLYNOMIAL, "lanczos"],
                         EstimatorConfig(m=6, d=3, seed=5))
        assert draws == [(30, 3, 5)]

    def test_a_method_error_is_its_entry_alone(self):
        # maxent's dual overflows on this near-point spectrum
        op = DenseOperator(np.diag(np.r_[np.ones(49), 1.0 - 1e-6]))
        cfg = EstimatorConfig(m=10, d=30)
        methods = [*self.POLYNOMIAL, "lanczos"]
        entries = estimate_logdets(op, methods, cfg)
        assert isinstance(entries[0], OverflowError)
        with pytest.raises(OverflowError):
            logdet_maxent(op, cfg)
        for method, est in zip(methods[1:], entries[1:]):
            assert est.value == estimate_logdet(op, method, cfg).value, method

    def test_a_stage_error_is_raised_once_and_shared(self, monkeypatch):
        passes = []

        def counted(*args):
            passes.append(args[1:])
            return probes.chebyshev_moments(*args)

        monkeypatch.setattr(estimators, "chebyshev_moments", counted)
        entries = estimate_logdets(five_negative_eigenvalues(), self.POLYNOMIAL,
                                   EstimatorConfig(m=30, d=30))
        assert len(passes) == 1
        assert isinstance(entries[0], NotPositiveDefiniteError)
        assert entries[0] is entries[1] is entries[2]

    def test_exact_reads_no_stage(self, monkeypatch):
        def no_stage(*args):
            raise AssertionError("a shared stage ran")

        monkeypatch.setattr(estimators, "normalize", no_stage)
        monkeypatch.setattr(estimators, "probe_matrix", no_stage)
        (est,) = estimate_logdets(diag124(), ["exact"])
        assert est.value == pytest.approx(LN8)

    def test_wall_time_counts_the_stages_each_method_read(self, monkeypatch):
        def slow_normalize(op):
            time.sleep(0.05)
            return normalize(op)

        monkeypatch.setattr(estimators, "normalize", slow_normalize)
        taylor, lanczos, exact = estimate_logdets(diag124(), ["taylor", "lanczos", "exact"],
                                                  EstimatorConfig(m=4, d=2))
        # both read the one bound, which only the first ran, and count it once
        assert 50.0 <= taylor.wall_time_ms < 100.0 and 50.0 <= lanczos.wall_time_ms < 100.0
        assert exact.wall_time_ms < 50.0

    def test_unknown_method_refused_before_any_stage(self, monkeypatch):
        monkeypatch.setattr(estimators, "normalize", lambda op: pytest.fail("a stage ran"))
        with pytest.raises(ValueError, match="unknown method 'qr'"):
            estimate_logdets(diag124(), ["taylor", "qr"])
