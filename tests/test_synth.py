"""Synthetic squared-exponential kernel matrices."""

import tracemalloc

import numpy as np
import pytest

from specdet.estimators import logdet_exact
from specdet.synth import KernelSpec, se_kernel


def reference_kernel(spec, points, symmetrize=True):
    """se_kernel's former full-matrix body, kept as the reference for the blocked build."""
    sq = np.einsum("ij,ij->i", points, points)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * points @ points.T, 0.0)
    K = np.exp(-d2 / (2.0 * spec.lengthscale**2))
    np.fill_diagonal(K, 1.0 + spec.noise)
    return 0.5 * (K + K.T) if symmetrize else K


def kernel_points(spec):
    rng = np.random.default_rng(spec.seed)
    return spec.input_scale * rng.standard_normal((spec.n, spec.dim))


class TestBlockedBuild:
    """se_kernel builds K in row blocks and mirrors its lower triangle."""

    # 17 and 1031 rows are whole numbers of neither the 128-row mirror tiles
    # nor their row blocks (1927 and 31 rows); 256 rows are two of each
    @pytest.mark.parametrize("n", [1, 2, 17, 256, 1031])
    @pytest.mark.parametrize("dim", [1, 3, 6])
    @pytest.mark.parametrize("lengthscale", [0.1, 0.5, 0.85])
    def test_lower_triangle_is_the_full_expression_bit_for_bit(self, n, dim, lengthscale):
        spec = KernelSpec(n=n, dim=dim, lengthscale=lengthscale, seed=n + dim)
        points = kernel_points(spec)
        K = se_kernel(spec).to_dense()
        raw = reference_kernel(spec, points, symmetrize=False)
        assert np.array_equal(np.tril(K), np.tril(raw))
        assert np.array_equal(K, K.T)
        # the reference averages its two triangles; where its BLAS product is
        # not exactly symmetric (n=1031) that moves d2 by a few ulp, and K by
        # up to 7e-15 relative at l=0.1
        np.testing.assert_allclose(K, reference_kernel(spec, points), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n, lengthscale", [(256, 0.45), (256, 0.85), (2000, 0.65)])
    def test_equals_the_full_expression_at_the_benchmark_shapes(self, n, lengthscale):
        spec = KernelSpec(n=n, dim=6, lengthscale=lengthscale, seed=11)
        K = se_kernel(spec).to_dense()
        assert np.array_equal(K, reference_kernel(spec, kernel_points(spec)))

    def test_wide_inputs_match_to_round_off(self):
        # with dim=50 the products of the first row blocks differ from the full
        # product's entries by round-off
        spec = KernelSpec(n=1000, dim=50, lengthscale=0.5, input_scale=0.05, seed=4)
        points = kernel_points(spec)
        K = se_kernel(spec).to_dense()
        assert np.array_equal(K, K.T)
        np.testing.assert_allclose(K, reference_kernel(spec, points), rtol=1e-13, atol=0)

    def test_allocation_peak_is_one_kernel(self):
        # the full-matrix expression peaked at 3.0 kernels
        spec = KernelSpec(n=1000, seed=2)
        tracemalloc.start()
        try:
            K = se_kernel(spec).A
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * K.nbytes


class TestSeKernel:
    def test_single_point(self):
        op = se_kernel(KernelSpec(n=1, dim=2, lengthscale=0.5))
        assert np.allclose(op.to_dense(), [[1.0 + 1e-8]])

    def test_identical_points_rank_one_plus_jitter(self):
        # the squared distances of inputs this close underflow to exactly 0
        op = se_kernel(KernelSpec(n=2, dim=3, lengthscale=0.7, input_scale=1e-300))
        lam = np.linalg.eigvalsh(op.to_dense())
        assert np.allclose(np.sort(lam), [1e-8, 2.0 + 1e-8], rtol=1e-6)
        expected = np.log((2.0 + 1e-8) * 1e-8)
        assert logdet_exact(op) == pytest.approx(expected, rel=1e-6)

    def test_symmetric_unit_diagonal(self):
        op = se_kernel(KernelSpec(n=50, dim=4, lengthscale=0.4, seed=3))
        K = op.to_dense()
        assert np.array_equal(K, K.T)
        assert np.allclose(np.diag(K), 1.0 + 1e-8)
        off = K - np.diag(np.diag(K))
        assert off.max() < 1.0 and off.min() >= 0.0

    def test_positive_definite(self):
        op = se_kernel(KernelSpec(n=100, dim=6, lengthscale=0.6, seed=1))
        assert np.linalg.eigvalsh(op.to_dense())[0] > 0.0

    def test_deterministic_in_seed(self):
        a = se_kernel(KernelSpec(n=30, dim=3, lengthscale=0.5, seed=7)).to_dense()
        b = se_kernel(KernelSpec(n=30, dim=3, lengthscale=0.5, seed=7)).to_dense()
        c = se_kernel(KernelSpec(n=30, dim=3, lengthscale=0.5, seed=8)).to_dense()
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_lengthscale_controls_conditioning(self):
        # larger l relative to the input spread means a harder spectrum
        kappas = []
        for l in (0.1, 0.4, 0.7):
            K = se_kernel(KernelSpec(n=120, dim=6, lengthscale=l, seed=0)).to_dense()
            lam = np.linalg.eigvalsh(K)
            kappas.append(lam[-1] / lam[0])
        assert kappas[0] < kappas[1] < kappas[2]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(n=0)
        with pytest.raises(ValueError):
            KernelSpec(n=5, lengthscale=-1.0)
        with pytest.raises(ValueError):
            KernelSpec(n=5, noise=-1e-9)
        with pytest.raises(ValueError):
            KernelSpec(n=5, input_scale=0.0)

    @pytest.mark.parametrize("field, value", [
        ("lengthscale", np.nan), ("noise", np.nan), ("noise", np.inf),
        ("input_scale", np.nan), ("input_scale", np.inf),
    ], ids=["lengthscale-nan", "noise-nan", "noise-inf", "input-scale-nan", "input-scale-inf"])
    def test_spec_rejects_values_that_make_the_kernel_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field.replace("noise", "noise variance")):
            KernelSpec(n=5, **{field: value})
