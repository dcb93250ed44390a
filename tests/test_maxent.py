"""Priors, the convex dual, the Newton solver, and log integration."""

import numpy as np
import pytest
import scipy.stats
from scipy.special import digamma

from specdet.maxent import (BetaPrior, DegenerateSpectrumError, DualProblem,
                            SolverConfig, SurrogateDensity, UniformPrior,
                            _newton_step, _reweight, _solve_grid,
                            fit_beta_prior, integrate_log_expectation, quadrature_grid,
                            solve)
from specdet.probes import CHEBYSHEV, LEGENDRE, POWER, MomentBasis, SpectralMoments

INV_E = np.exp(-1.0)


def beta25_power_moments(m):
    """Raw moments of Beta(2,5): mu_k = prod_{r<k} (2+r)/(7+r)."""
    mu = np.ones(m + 1)
    for k in range(1, m + 1):
        mu[k] = mu[k - 1] * (2.0 + k - 1.0) / (7.0 + k - 1.0)
    return mu


def uniform_moments(basis):
    """Exact basis moments of the flat density on [0, 1]."""
    C = basis.to_power_matrix()
    p = 1.0 / (np.arange(basis.order + 1) + 1.0)
    return C @ p


def exact_moments(basis, values):
    return SpectralMoments(basis, values[None])


def ridged_moments(basis, values, ridge):
    """Two probe rows values +- sqrt(ridge): mean values, variance / probes ridge."""
    spread = np.sqrt(ridge)
    return SpectralMoments(basis, np.array([values + spread, values - spread]))


class TestPriors:
    def test_uniform_density_normalized(self):
        prior = UniformPrior()
        lam = np.linspace(0.1, 1.0, 5)
        assert np.allclose(prior.density(lam), 1.0 / (1.0 - 1e-14))
        assert prior.density(np.array([1e-15]))[0] == 0.0
        # its support starts at the smallest floor a grid may have
        assert prior.density(np.array([SolverConfig().floor]))[0] > 0.0

    def test_beta_matches_scipy(self):
        prior = BetaPrior(gamma=2.0, beta=5.0)
        lam = np.linspace(0.01, 0.99, 23)
        assert np.allclose(prior.density(lam), scipy.stats.beta.pdf(lam, 2.0, 5.0))

    def test_beta_parameter_validation(self):
        with pytest.raises(ValueError):
            BetaPrior(gamma=0.0, beta=1.0)


class TestFitBetaPrior:
    def test_uniform_moments_give_flat_beta(self):
        prior = fit_beta_prior(0.5, 1.0 / 3.0)
        assert prior.gamma == pytest.approx(1.0)
        assert prior.beta == pytest.approx(1.0)

    def test_beta_2_5_moments(self):
        # mu_1 = 2/7, mu_2 = 2*3/(7*8) = 3/28 for Beta(2,5)
        prior = fit_beta_prior(2.0 / 7.0, 3.0 / 28.0)
        assert prior.gamma == pytest.approx(2.0)
        assert prior.beta == pytest.approx(5.0)

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            fit_beta_prior(0.5, 0.25)

    @pytest.mark.parametrize("mu1, mu2, message", [
        (0.0, 0.5, r"moments must lie in \(0, 1\)"),
        (0.5, 0.6, r"mu2 must be smaller than mu1"),
    ], ids=["mu1-zero", "mu2-above-mu1"])
    def test_moments_no_beta_has_rejected(self, mu1, mu2, message):
        with pytest.raises(ValueError, match=message) as info:
            fit_beta_prior(mu1, mu2)
        assert not isinstance(info.value, DegenerateSpectrumError)


class TestQuadratureGrid:
    def test_weights_sum_to_interval_length(self):
        nodes, w = quadrature_grid(1e-14)
        assert w.sum() == pytest.approx(1.0, abs=1e-9)
        assert nodes.min() > 0.0 and nodes.max() < 1.0

    def test_resolves_log_singularity(self):
        nodes, w = quadrature_grid(1e-14)
        assert (w * np.log(nodes)).sum() == pytest.approx(-1.0, abs=1e-6)

    def test_floor_validation(self):
        # below 1e-14 (a subnormal floor made a NaN grid) or past 1
        for floor in (1e-15, 5e-324, 0.0, -1e-3, 1.0 + 1e-12, float("nan")):
            with pytest.raises(ValueError, match=r"floor must lie in \[1e-14, 1\]"):
                quadrature_grid(floor)

    def test_floor_at_or_above_half_is_the_upper_run(self):
        # a certified floor in [1/2, 1] is valid; the grid cannot start there,
        # so it gets the 30 panels toward 1 that end every grid, and no more
        full_nodes, full_w = quadrature_grid(1e-14)
        for floor in (0.5, 0.546, 1.0):
            nodes, w = quadrature_grid(floor)
            assert len(nodes) == 480 and (w > 0.0).all()
            assert np.array_equal(nodes, full_nodes[-480:])
            assert np.array_equal(w, full_w[-480:])
            _, wq0, _, _ = _solve_grid(UniformPrior(), MomentBasis(CHEBYSHEV, 2),
                                       SolverConfig(floor=floor))
            assert np.array_equal(wq0, w * UniformPrior().density(nodes))

    def test_floor_below_half_is_the_grid_floor(self):
        for floor in (1e-14, 1e-3, 0.25, 0.4999):
            nodes, _, _, _ = _solve_grid(BetaPrior(2.0, 5.0), MomentBasis(CHEBYSHEV, 2),
                                         SolverConfig(floor=floor))
            assert np.array_equal(nodes, quadrature_grid(floor)[0])


class TestDualObjective:
    def test_zero_alpha_flat_prior(self):
        basis = MomentBasis(POWER, 3)
        mom = exact_moments(basis, uniform_moments(basis))
        S = DualProblem(UniformPrior(), mom).objective(np.zeros(4))
        assert S == pytest.approx(INV_E, abs=1e-8)

    def test_minus_one_alpha0_closed_form(self):
        # exp(-(1 + (-1))) = 1 integrates the prior to 1; moment term is -1
        basis = MomentBasis(POWER, 2)
        mom = exact_moments(basis, uniform_moments(basis))
        alpha = np.array([-1.0, 0.0, 0.0])
        problem = DualProblem(UniformPrior(), mom)
        assert problem.objective(alpha) == pytest.approx(0.0, abs=1e-8)

    def test_zero_alpha_beta_prior(self):
        basis = MomentBasis(POWER, 2)
        mom = exact_moments(basis, beta25_power_moments(2))
        S = DualProblem(BetaPrior(2.0, 5.0), mom).objective(np.zeros(3))
        assert S == pytest.approx(INV_E, abs=1e-7)


class TestDualGradient:
    def test_monomial_integrals_at_zero(self):
        basis = MomentBasis(POWER, 4)
        mu = beta25_power_moments(4)
        mom = exact_moments(basis, mu)
        g = DualProblem(UniformPrior(), mom).gradient(np.zeros(5))
        expected = mu - INV_E / (np.arange(5) + 1.0)
        assert np.allclose(g, expected, atol=1e-8)

    def test_finite_difference(self):
        basis = MomentBasis(CHEBYSHEV, 5)
        mom = exact_moments(basis, uniform_moments(basis))
        problem = DualProblem(UniformPrior(), mom)
        rng = np.random.default_rng(0)
        alpha = 0.3 * rng.standard_normal(6)
        g = problem.gradient(alpha)
        h = 1e-6
        for j in range(6):
            e = np.zeros(6)
            e[j] = h
            fd = (problem.objective(alpha + e) - problem.objective(alpha - e)) / (2 * h)
            assert abs(g[j] - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_moment_matching_at_optimum(self):
        basis = MomentBasis(POWER, 6)
        mom = exact_moments(basis, beta25_power_moments(6))
        config = SolverConfig()
        result = solve(mom, UniformPrior(), config)
        problem = DualProblem(UniformPrior(), mom, config)
        fitted = basis.vandermonde(problem.nodes).T @ problem.weights(result.density.alpha)
        assert np.abs(fitted - mom.values).max() <= 10.0 * config.gtol

    def test_ridge_term_enters_gradient(self):
        # nonzero moment variance adds penalty * alpha to the gradient; ten
        # rows at mean +- sqrt(0.9 v) have sample variance v
        basis = MomentBasis(POWER, 2)
        signs = np.where(np.arange(10) % 2, 1.0, -1.0)[:, None]
        spread = np.sqrt(0.9 * np.array([0.0, 0.1, 0.4]))
        mom = SpectralMoments(basis, uniform_moments(basis) + signs * spread)
        assert np.allclose(mom.variance, [0.0, 0.1, 0.4])
        alpha = np.array([0.2, -0.3, 0.5])
        plain = DualProblem(UniformPrior(), exact_moments(basis, mom.values)).gradient(alpha)
        g = DualProblem(UniformPrior(), mom).gradient(alpha)
        penalty = np.array([0.0, 0.1, 0.4]) / 10.0  # variance / probes
        assert np.allclose(g - plain, penalty * alpha)


class TestDualWeights:
    @pytest.mark.parametrize("kind, m", [(CHEBYSHEV, 8), (POWER, 4)])
    def test_given_weights_match_alpha_only_calls(self, kind, m):
        basis = MomentBasis(kind, m)
        problem = DualProblem(UniformPrior(), ridged_moments(basis, uniform_moments(basis),
                                                             np.linspace(0.0, 1e-3, m + 1)))
        alpha = 0.3 * np.random.default_rng(2).standard_normal(m + 1)
        we = problem.weights(alpha)
        gram = problem.gram_moments(we)
        assert problem.objective(alpha, we) == problem.objective(alpha)
        assert np.array_equal(problem.gradient(alpha, gram=gram), problem.gradient(alpha))
        assert np.array_equal(problem.hessian(alpha, gram=gram), problem.hessian(alpha))
        # the Gram moments are keyword-only, so weights cannot pass for them
        for method in (problem.gradient, problem.hessian):
            with pytest.raises(TypeError):
                method(alpha, gram)


class TestDualHessian:
    def test_scaled_hilbert_at_zero(self):
        basis = MomentBasis(POWER, 3)
        mom = exact_moments(basis, uniform_moments(basis))
        H = DualProblem(UniformPrior(), mom).hessian(np.zeros(4))
        j, k = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
        assert np.allclose(H, INV_E / (j + k + 1.0), atol=1e-8)

    def test_symmetry(self):
        basis = MomentBasis(CHEBYSHEV, 4)
        mom = exact_moments(basis, uniform_moments(basis))
        H = DualProblem(UniformPrior(), mom).hessian(0.1 * np.arange(5))
        # integrand is symmetric in (j, k); only summation round-off remains
        assert np.abs(H - H.T).max() <= 1e-15

    def test_finite_difference_against_gradient(self):
        basis = MomentBasis(POWER, 4)
        mom = exact_moments(basis, uniform_moments(basis))
        problem = DualProblem(UniformPrior(), mom)
        rng = np.random.default_rng(1)
        alpha = 0.2 * rng.standard_normal(5)
        H = problem.hessian(alpha)
        h = 1e-6
        for j in range(5):
            e = np.zeros(5)
            e[j] = h
            fd = (problem.gradient(alpha + e) - problem.gradient(alpha - e)) / (2 * h)
            assert np.allclose(H[:, j], fd, rtol=1e-5, atol=1e-8)


class TestGramMoments:
    """The gradient and Hessian from 2m + 1 Chebyshev moments match F^T w and F^T diag(w) F."""

    @staticmethod
    def problem_and_alphas(kind, m):
        basis = MomentBasis(kind, m)
        problem = DualProblem(UniformPrior(), ridged_moments(basis, uniform_moments(basis),
                                                             np.linspace(0.0, 1e-3, m + 1)))
        rng = np.random.default_rng(m)
        heavy = np.zeros(m + 1)
        heavy[0] = -10.0  # total mass e^9 ~ 8100
        return problem, [0.3 * rng.standard_normal(m + 1) / np.sqrt(m + 1), heavy,
                         heavy + 0.1 * rng.standard_normal(m + 1) / np.sqrt(m + 1)]

    @pytest.mark.parametrize("kind", [POWER, CHEBYSHEV, LEGENDRE])
    @pytest.mark.parametrize("m", [8, 30])
    def test_match_the_direct_sums(self, kind, m):
        problem, alphas = self.problem_and_alphas(kind, m)
        for alpha in alphas:
            we = problem.weights(alpha)
            tol = 1e-12 * we.sum()
            F = MomentBasis(kind, m).vandermonde(problem.nodes)
            H = problem.hessian(alpha, gram=problem.gram_moments(we))
            direct = F.T @ (F * we[:, None]) + np.diag(problem.penalty)
            assert np.abs(H - direct).max() <= tol
            g = problem.gradient(alpha, gram=problem.gram_moments(we))
            assert np.abs(g - (problem.mu - F.T @ we + problem.penalty * alpha)).max() <= tol

    @pytest.mark.parametrize("kind", [POWER, CHEBYSHEV, LEGENDRE])
    @pytest.mark.parametrize("m", [0, 1, 8, 30])
    def test_hessian_is_exactly_symmetric(self, kind, m):
        problem, alphas = self.problem_and_alphas(kind, m)
        for alpha in alphas:
            H = problem.hessian(alpha)
            assert H.shape == (m + 1, m + 1)
            assert np.array_equal(H, H.T)

    def test_upper_moments_from_the_product_identity(self):
        # g_k for k > m against T_k evaluated directly on the grid
        m = 12
        problem, alphas = self.problem_and_alphas(CHEBYSHEV, m)
        we = problem.weights(alphas[0])
        T = MomentBasis(CHEBYSHEV, 2 * m).vandermonde(problem.nodes)
        assert np.abs(problem.gram_moments(we) - T.T @ we).max() <= 1e-14 * we.sum()

    def test_finite_difference_at_order_30(self):
        # acceptance criterion 7's check, at m = 30 in place of 8
        problem, alphas = self.problem_and_alphas(CHEBYSHEV, 30)
        alpha = alphas[0]
        H = problem.hessian(alpha)
        scale = max(1.0, float(np.abs(H).max()))
        h = 1e-6
        for j in range(31):
            e = np.zeros(31)
            e[j] = h
            fd = (problem.gradient(alpha + e) - problem.gradient(alpha - e)) / (2 * h)
            assert np.abs(H[:, j] - fd).max() <= 1e-5 * scale


class TestSolve:
    def test_prior_recovery(self):
        # feeding the prior's own moments must return the prior (all alpha ~ 0)
        basis = MomentBasis(CHEBYSHEV, 10)
        mom = exact_moments(basis, uniform_moments(basis))
        result = solve(mom, UniformPrior(), SolverConfig(gtol=1e-10))
        assert result.converged
        assert np.abs(result.density.alpha[1:]).max() <= 1e-6
        # flat on the solve grid, the only place the fitted density is read:
        # q - q0 there is the difference of the quadrature weights over w
        problem = DualProblem(UniformPrior(), mom)
        _, w = quadrature_grid(SolverConfig().floor)
        assert np.abs((problem.weights(result.density.alpha) - problem.wq0) / w).max() <= 1e-4

    def test_round_off_decrease_does_not_stall(self):
        # exact uniform moments perturbed at round-off: the last Newton steps
        # change the objective by less than its own round-off, which the
        # Armijo test alone cannot certify; without the round-off acceptance
        # 7 of these 40 solves run all 500 iterations at a gradient of ~1e-8
        basis = MomentBasis(CHEBYSHEV, 10)
        rng = np.random.default_rng(0)
        for _ in range(40):
            mu = uniform_moments(basis)
            mu[1:] += 1e-15 * rng.standard_normal(10)
            result = solve(exact_moments(basis, mu), UniformPrior(), SolverConfig(gtol=1e-10))
            assert result.converged and result.iterations <= 10

    def test_beta_2_5_log_expectation(self):
        # E[log lam] under Beta(2,5) is digamma(2) - digamma(7)
        basis = MomentBasis(POWER, 10)
        mom = exact_moments(basis, beta25_power_moments(10))
        result = solve(mom, UniformPrior(), SolverConfig())
        for got in (integrate_log_expectation(result.density), result.log_expectation):
            assert got == pytest.approx(digamma(2.0) - digamma(7.0), abs=0.02)

    def test_point_mass_at_one(self):
        # mu_i = 1 for all i is a point mass at 1; log expectation near 0
        basis = MomentBasis(POWER, 10)
        mom = exact_moments(basis, np.ones(11))
        result = solve(mom, UniformPrior(), SolverConfig())
        assert integrate_log_expectation(result.density) >= -0.05

    @pytest.mark.parametrize("m", [10, 20, 30])
    def test_hilbert_hessian_in_power_basis(self, m):
        # exact uniform power moments: the Hessian at alpha = 0 is e^-1 times
        # the Hilbert matrix (condition ~5e14 at m = 10, numerically singular
        # from m ~ 12), so the Newton steps rest on the jittered Cholesky solve
        basis = MomentBasis(POWER, m)
        mom = exact_moments(basis, uniform_moments(basis))
        result = solve(mom, UniformPrior(), SolverConfig())
        alpha = result.density.alpha
        assert result.converged
        assert np.isfinite(alpha).all()
        assert alpha[0] == pytest.approx(-1.0, abs=1e-6)
        assert np.abs(alpha[1:]).max() <= 1e-3

    def test_unnormalized_moments_rejected(self):
        basis = MomentBasis(POWER, 2)
        mom = exact_moments(basis, np.array([0.5, 0.3, 0.2]))
        with pytest.raises(ValueError, match="mu_0"):
            solve(mom, UniformPrior())

    def test_gtol_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(gtol=0.0)

    @pytest.mark.parametrize("floor", [1.0 + 1e-12, 5.0, 0.0, -1e-3, float("nan"),
                                       1e-15, 5e-324])
    def test_floor_validation(self, floor):
        # a floor past 1 is a min_eigenvalue past lambda_u: no lower bound;
        # one below 1e-14 could be subnormal, which made a NaN grid
        with pytest.raises(ValueError, match=r"floor must lie in \[1e-14, 1\]"):
            SolverConfig(floor=floor)

    @pytest.mark.parametrize("floor", [1e-14, 0.6])
    def test_log_expectation_is_integrated_on_the_solve_grid(self, floor):
        # moments of the flat density on [floor, 1]; at 0.6 the grid is the upper run
        basis = MomentBasis(CHEBYSHEV, 8)
        k = np.arange(basis.order + 1)
        power = (1.0 - floor ** (k + 1)) / ((k + 1) * (1.0 - floor))
        solver = SolverConfig(floor=floor)
        result = solve(exact_moments(basis, basis.to_power_matrix() @ power),
                       UniformPrior(), solver)
        assert integrate_log_expectation(result.density, solver) == result.log_expectation


class TestNewtonStep:
    def test_jitter_escalates_until_factorization_succeeds(self):
        # -1e-6 curvature defeats eta = 1e-8, 1e-7 and 1e-6 (a zero pivot)
        H = np.diag([1.0, -1e-6])
        g = np.array([1.0, 1.0])
        step = _newton_step(H, g)
        assert step == pytest.approx(-g / (np.diag(H) + 1e-5), rel=1e-9)

    def test_leaves_the_hessian_unchanged(self):
        H = np.diag([1.0, -1e-6])
        _newton_step(H, np.ones(2))
        assert np.array_equal(H, np.diag([1.0, -1e-6]))

    def test_indefinite_past_max_jitter_raises(self):
        with pytest.raises(RuntimeError, match="maximum jitter"):
            _newton_step(np.diag([1.0, -1.0]), np.ones(2))


class TestIntegrateLogExpectation:
    def test_flat_density(self):
        # q = q0 when the exponent is identically zero (alpha_0 = -1)
        alpha = np.zeros(4)
        alpha[0] = -1.0
        q = SurrogateDensity(UniformPrior(), MomentBasis(POWER, 3), alpha)
        assert integrate_log_expectation(q) == pytest.approx(-1.0, abs=1e-6)

    def test_beta_2_5_density(self):
        alpha = np.zeros(3)
        alpha[0] = -1.0
        q = SurrogateDensity(BetaPrior(2.0, 5.0), MomentBasis(POWER, 2), alpha)
        expected = digamma(2.0) - digamma(7.0)
        assert integrate_log_expectation(q) == pytest.approx(expected, abs=1e-4)

    def test_density_refuses_exponent_overflow(self):
        # 1 + f(x) alpha = 1 - 1000 x passes -700 for x > 0.701
        basis, alpha = MomentBasis(POWER, 1), np.array([0.0, -1000.0])

        def density(lam):
            return _reweight(UniformPrior().density(lam), basis.vandermonde(lam), alpha)

        assert density(np.array([0.5]))[0] > 0.0
        with pytest.raises(OverflowError, match="overflow"):
            density(np.array([0.5, 0.8]))

    def test_alpha_length_must_match_the_basis(self):
        with pytest.raises(ValueError, match=r"alpha length must be order \+ 1"):
            SurrogateDensity(UniformPrior(), MomentBasis(POWER, 3), np.zeros(3))

    def test_point_mass_fit_near_zero(self):
        basis = MomentBasis(POWER, 10)
        mom = exact_moments(basis, np.ones(11))
        result = solve(mom, UniformPrior(), SolverConfig())
        val = integrate_log_expectation(result.density)
        assert -0.05 <= val <= 0.0
