"""Acceptance suite: one pass/fail line per criterion.

Each test prints `ACCEPTANCE <k>: PASS|FAIL - <summary>` on its own line
and then asserts, so the printed verdict always matches the pytest
outcome. Verdicts are written to the real stdout so they stay visible
under pytest's output capture.
"""

import sys
import time

import numpy as np
import pytest
import scipy.sparse
from scipy.special import digamma

from specdet.estimators import (EstimatorConfig, estimate_logdet, logdet_chebyshev,
                                logdet_exact, logdet_lanczos, logdet_maxent,
                                logdet_taylor)
from specdet.linop import (DenseOperator, SparseOperator, identity, normalize,
                           read_matrix_market, write_matrix_market)
from specdet.maxent import (DualProblem, SolverConfig, UniformPrior,
                            integrate_log_expectation, solve)
from specdet.probes import (CHEBYSHEV, LEGENDRE, POWER, MomentBasis,
                            SpectralMoments, estimate_moments, probe_matrix)
from specdet.synth import KernelSpec, se_kernel

LADDER = (0.45, 0.55, 0.65, 0.75, 0.85)
SEEDS = (1, 2, 3, 4, 5)
NOISE = 1e-8


def verdict(k, ok, summary):
    line = f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {summary}"
    print(f"\n{line}", file=sys.__stdout__, flush=True)
    assert ok, f"criterion {k}: {summary}"


def rel_error(value, exact):
    return abs(value - exact) / abs(exact)


def kernel_config(seed):
    return EstimatorConfig(m=30, d=50, seed=seed, min_eigenvalue=NOISE)


@pytest.fixture(scope="module")
def ladder_results():
    """Errors and convergence flags for the dense benchmark ladder."""
    out = {}
    for l in LADDER:
        rows = []
        for seed in SEEDS:
            op = se_kernel(KernelSpec(n=1000, dim=6, lengthscale=l, seed=seed))
            exact = logdet_exact(op)
            cfg = kernel_config(seed)
            est = logdet_maxent(op, cfg)
            rows.append({
                "maxent": rel_error(est.value, exact),
                "converged": est.converged,
                "chebyshev": rel_error(logdet_chebyshev(op, cfg).value, exact),
                "lanczos": rel_error(logdet_lanczos(op, cfg).value, exact),
            })
        out[l] = rows
    return out


def test_criterion_1_well_conditioned_oracle_agreement():
    # input_scale 0.1 realizes the intended kappa ~ 3e1 regime at l = 0.05
    t0 = time.perf_counter()
    op = se_kernel(KernelSpec(n=1000, dim=6, lengthscale=0.05, seed=0,
                              input_scale=0.1))
    exact = logdet_exact(op)
    est = logdet_maxent(op, kernel_config(0))
    elapsed = time.perf_counter() - t0
    err = rel_error(est.value, exact)
    verdict(1, err <= 0.01 and elapsed <= 60.0,
            f"rel error {err:.2e} (<= 0.01), runtime {elapsed:.1f}s (<= 60s)")


def test_criterion_2_ill_conditioned_oracle_agreement(ladder_results):
    row = ladder_results[0.65][0]  # seed 1; all methods share its probes
    ok = (row["maxent"] <= 0.02
          and row["maxent"] < row["chebyshev"]
          and row["maxent"] < row["lanczos"])
    verdict(2, ok,
            f"l=0.65 rel errors: maxent {row['maxent']:.2e} (<= 0.02), "
            f"chebyshev {row['chebyshev']:.2e}, lanczos {row['lanczos']:.2e}")


def test_criterion_3_benchmark_trend(ladder_results):
    beats_cheb = beats_lanczos = 0
    parts = []
    for l in LADDER:
        med = {k: float(np.median([r[k] for r in ladder_results[l]]))
               for k in ("maxent", "chebyshev", "lanczos")}
        beats_cheb += med["maxent"] < med["chebyshev"]
        beats_lanczos += med["maxent"] < med["lanczos"]
        parts.append(f"l={l}: {med['maxent']:.3f}/{med['chebyshev']:.3f}/{med['lanczos']:.3f}")
    ok = beats_cheb == 5 and beats_lanczos >= 4
    verdict(3, ok, f"medians maxent/chebyshev/lanczos {'; '.join(parts)} -> "
                   f"beats chebyshev {beats_cheb}/5, lanczos {beats_lanczos}/5")


def test_criterion_4_density_recovery():
    mu = np.ones(11)
    for k in range(1, 11):
        mu[k] = mu[k - 1] * (2.0 + k - 1.0) / (7.0 + k - 1.0)
    moments = SpectralMoments(MomentBasis(POWER, 10), mu[None])
    result = solve(moments, UniformPrior(), SolverConfig())
    got = integrate_log_expectation(result.density)
    expected = digamma(2.0) - digamma(7.0)
    verdict(4, abs(got - expected) <= 0.02,
            f"E[log lam] {got:.5f} vs digamma oracle {expected:.5f} (+- 0.02)")


def test_criterion_5_prior_recovery():
    basis = MomentBasis(CHEBYSHEV, 10)
    C = basis.to_power_matrix()
    mu = C @ (1.0 / (np.arange(11) + 1.0))  # exact uniform moments
    moments = SpectralMoments(basis, mu[None])
    result = solve(moments, UniformPrior(), SolverConfig(gtol=1e-10))
    worst = float(np.abs(result.density.alpha[1:]).max())
    verdict(5, worst <= 1e-6, f"max |alpha_i|, i>=1: {worst:.2e} (<= 1e-6)")


def test_criterion_6_solver_stability_high_order(ladder_results):
    flags = [r["converged"] for l in LADDER for r in ladder_results[l]]
    verdict(6, all(flags),
            f"m=30 Chebyshev-basis solves converged on {sum(flags)}/{len(flags)} "
            f"benchmark kernels")


def test_criterion_7_gradient_hessian_correctness():
    rng = np.random.default_rng(0)
    h = 1e-6
    worst_g = worst_h = 0.0
    for kind in (POWER, CHEBYSHEV, LEGENDRE):
        basis = MomentBasis(kind, 8)
        C = basis.to_power_matrix()
        mu = C @ (1.0 / (np.arange(9) + 1.0))
        problem = DualProblem(UniformPrior(), SpectralMoments(basis, mu[None]))
        for _ in range(100):
            alpha = 0.3 * rng.standard_normal(9)
            g = problem.gradient(alpha)
            H = problem.hessian(alpha)
            scale_g = max(1.0, float(np.abs(g).max()))
            scale_h = max(1.0, float(np.abs(H).max()))
            for j in range(9):
                e = np.zeros(9)
                e[j] = h
                fd_g = (problem.objective(alpha + e) - problem.objective(alpha - e)) / (2 * h)
                worst_g = max(worst_g, abs(g[j] - fd_g) / scale_g)
                fd_H = (problem.gradient(alpha + e) - problem.gradient(alpha - e)) / (2 * h)
                worst_h = max(worst_h, float(np.abs(H[:, j] - fd_H).max()) / scale_h)
    verdict(7, worst_g <= 1e-6 and worst_h <= 1e-5,
            f"worst relative FD mismatch: gradient {worst_g:.2e} (<= 1e-6), "
            f"hessian {worst_h:.2e} (<= 1e-5)")


def test_criterion_8_hutchinson_correctness():
    mom_eye = estimate_moments(normalize(identity(40)), MomentBasis(POWER, 6),
                               d=8, seed=0)
    eye_ok = (np.array_equal(mom_eye.values, np.ones(7))
              and np.array_equal(mom_eye.variance, np.zeros(7)))

    lam = np.array([1.0, 2.0, 4.0])
    mom_diag = estimate_moments(normalize(DenseOperator(np.diag(lam))),
                                MomentBasis(POWER, 3), d=6, seed=1)
    diag_ok = np.allclose(mom_diag.values,
                          [np.mean((lam / 4.0) ** k) for k in range(4)], atol=1e-12)

    # Var(z'Az) = 2 (||A||_F^2 - sum_i A_ii^2) for Rademacher probes
    rng = np.random.default_rng(7)
    Q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    A = Q @ np.diag(rng.uniform(0.5, 3.0, 20)) @ Q.T
    predicted = 2.0 * ((A ** 2).sum() - (np.diag(A) ** 2).sum())
    # 200,000 probes of length 20, the consecutive rows of one stream
    Z = probe_matrix(4_000_000, 1, 13).reshape(200_000, 20)
    draws = np.array([z @ A @ z for z in Z])
    ratio = draws.var(ddof=1) / predicted
    var_ok = abs(ratio - 1.0) <= 0.10
    verdict(8, eye_ok and diag_ok and var_ok,
            f"identity exact: {eye_ok}, diagonal exact: {diag_ok}, "
            f"variance formula ratio {ratio:.3f} (within 10%)")


def test_criterion_9_scale_equivariance():
    op = se_kernel(KernelSpec(n=300, dim=6, lengthscale=0.5, seed=0))
    K = op.to_dense()
    cfg = EstimatorConfig(m=20, d=20, seed=0)
    tolerances = {"maxent": 1e-2, "taylor": 1e-6, "chebyshev": 1e-6,
                  "lanczos": 1e-6, "exact": 1e-6}
    worst = {}
    for method, tol in tolerances.items():
        base = estimate_logdet(op, method, cfg).value
        drift = max(
            abs(estimate_logdet(DenseOperator(c * K), method, cfg).value
                - base - 300 * np.log(c))
            for c in (0.1, 10.0)
        )
        worst[method] = (drift, drift <= tol)
    ok = all(flag for _, flag in worst.values())
    verdict(9, ok, "max |logdet(cK) - logdet(K) - n log c|: "
            + ", ".join(f"{m} {d:.1e}" for m, (d, _) in worst.items()))


def test_criterion_10_taylor_one_sidedness():
    violations = 0
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        Q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
        lam = rng.uniform(0.05, 1.0, 60)
        op = DenseOperator(Q @ np.diag(lam) @ Q.T, symmetric=True)
        est = logdet_taylor(op, EstimatorConfig(m=10, d=30, seed=seed))
        violations += est.value < logdet_exact(op)
    verdict(10, violations == 0,
            f"truncated-Taylor >= exact on {20 - violations}/20 random SPD matrices")


def test_criterion_11_sparse_pipeline(tmp_path):
    g = 30
    T = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(g, g))
    lap2d = scipy.sparse.kron(scipy.sparse.eye(g), T) \
        + scipy.sparse.kron(T, scipy.sparse.eye(g))
    mass1d = scipy.sparse.diags([1.0, 4.0, 1.0], [-1, 0, 1], shape=(800, 800)) / 6.0

    summaries, ok = [], True
    for name, mat in (("grid-laplacian-900", lap2d), ("fem-mass-800", mass1d)):
        low = scipy.sparse.tril(scipy.sparse.coo_matrix(mat))
        op = SparseOperator.from_coo(low.row, low.col, low.data, mat.shape[0])
        path = tmp_path / f"{name}.mtx"
        write_matrix_market(op, path)
        loaded = read_matrix_market(path)
        exact = logdet_exact(loaded)
        est = logdet_maxent(loaded, EstimatorConfig(m=5, d=5, seed=0))
        err = rel_error(est.value, exact)
        ok = ok and err <= 5e-2
        summaries.append(f"{name} rel error {err:.2e}")
    verdict(11, ok, "; ".join(summaries) + " (<= 5e-2, m=d=5)")


def test_criterion_12_quadratic_matvec_scaling():
    cfg = kernel_config(0)
    ops = [se_kernel(KernelSpec(n=n, dim=6, lengthscale=0.65, seed=0)) for n in (1000, 2000)]
    best = [np.inf, np.inf]
    # the sizes alternate round by round, so a slow spell of the host lands on
    # both; each timed estimate follows an untimed one of the same size, since
    # a cold first run is not the n^2 cost
    for _ in range(5):
        for i, op in enumerate(ops):
            logdet_maxent(op, cfg)
            t0 = time.perf_counter()
            logdet_maxent(op, cfg)
            best[i] = min(best[i], time.perf_counter() - t0)
    t1, t2 = best
    ratio = t2 / t1
    verdict(12, 2.0 <= ratio <= 6.0,
            f"wall time {t1 * 1e3:.0f} ms -> {t2 * 1e3:.0f} ms, "
            f"ratio {ratio:.2f} (in [2, 6])")
