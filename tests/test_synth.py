"""Synthetic squared-exponential kernel matrices."""

import numpy as np
import pytest

from specdet.estimators import logdet_exact
from specdet.synth import KernelSpec, se_kernel


class TestSeKernel:
    def test_single_point(self):
        op = se_kernel(KernelSpec(n=1, dim=2, lengthscale=0.5))
        assert np.allclose(op.to_dense(), [[1.0 + 1e-8]])

    def test_identical_points_rank_one_plus_jitter(self):
        spec = KernelSpec(n=2, dim=3, lengthscale=0.7)
        op = se_kernel(spec, points=np.zeros((2, 3)))
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

    def test_points_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            se_kernel(KernelSpec(n=4, dim=2), points=np.zeros((3, 2)))

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
