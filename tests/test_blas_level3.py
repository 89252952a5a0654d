"""DGEMM — the standard-algorithm substrate kernel."""

import numpy as np
import pytest

from repro.blas import dgemm, gemm_flops
from repro.context import ExecutionContext
from repro.errors import ArgumentError, DimensionError
from repro.phantom import Phantom
from tests.conftest import reference_matmul


class TestAgainstReference:
    """Small sizes against the literal triple loop."""

    @pytest.mark.parametrize("m,k,n", [(1, 1, 1), (2, 3, 4), (5, 5, 5),
                                       (7, 2, 9), (4, 8, 3)])
    def test_product(self, mats, m, k, n):
        a, b, c = mats(m, k, n)
        dgemm(a, b, c, 1.0, 0.0)
        np.testing.assert_allclose(c, reference_matmul(a, b), atol=1e-12)


class TestAgainstNumpy:
    @pytest.mark.parametrize("m,k,n", [(33, 17, 21), (64, 64, 64),
                                       (100, 3, 50), (1, 80, 1)])
    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (0.5, -2.0),
                                            (1.0, 1.0), (-1.0, 0.25)])
    def test_general(self, mats, m, k, n, alpha, beta):
        a, b, c = mats(m, k, n)
        expect = alpha * (a @ b) + beta * c
        dgemm(a, b, c, alpha, beta)
        np.testing.assert_allclose(c, expect, atol=1e-10)

    @pytest.mark.parametrize("ta,tb", [(False, True), (True, False),
                                       (True, True)])
    def test_transposes(self, rng, ta, tb):
        m, k, n = 20, 30, 25
        a = np.asfortranarray(
            rng.standard_normal((k, m) if ta else (m, k)))
        b = np.asfortranarray(
            rng.standard_normal((n, k) if tb else (k, n)))
        c = np.zeros((m, n), order="F")
        opa = a.T if ta else a
        opb = b.T if tb else b
        dgemm(a, b, c, transa=ta, transb=tb)
        np.testing.assert_allclose(c, opa @ opb, atol=1e-10)

    def test_tiling_boundary_sizes(self, mats):
        """Sizes straddling the tile edge must agree with untiled."""
        for m in [159, 160, 161, 321]:
            a, b, c = mats(m, 161, 159)
            dgemm(a, b, c, nb=160)
            np.testing.assert_allclose(c, a @ b, atol=1e-9)

    def test_custom_tile_sizes_agree(self, mats):
        a, b, c1 = mats(50, 60, 40)
        c2 = c1.copy(order="F")
        dgemm(a, b, c1, nb=7)
        dgemm(a, b, c2, nb=512)
        np.testing.assert_allclose(c1, c2, atol=1e-11)

    def test_c_order_inputs_accepted(self, rng):
        a = np.ascontiguousarray(rng.standard_normal((12, 13)))
        b = np.ascontiguousarray(rng.standard_normal((13, 14)))
        c = np.zeros((12, 14))
        dgemm(a, b, c)
        np.testing.assert_allclose(c, a @ b, atol=1e-11)


class TestDegenerate:
    def test_k_zero_scales_c(self, rng):
        c = np.asfortranarray(rng.standard_normal((4, 5)))
        expect = 2.0 * c
        dgemm(np.zeros((4, 0)), np.zeros((0, 5)), c, 1.0, 2.0)
        np.testing.assert_allclose(c, expect)

    def test_k_zero_beta_zero_zeroes_c(self):
        c = np.full((4, 5), np.nan, order="F")
        dgemm(np.zeros((4, 0)), np.zeros((0, 5)), c, 1.0, 0.0)
        assert np.all(c == 0.0)

    def test_alpha_zero_skips_product(self, rng):
        c = np.asfortranarray(rng.standard_normal((4, 5)))
        a = np.full((4, 3), np.nan)  # must never be touched
        b = np.full((3, 5), np.nan)
        expect = 0.5 * c
        dgemm(a, b, c, 0.0, 0.5)
        np.testing.assert_allclose(c, expect)

    def test_empty_output(self):
        dgemm(np.zeros((0, 3)), np.zeros((3, 4)), np.zeros((0, 4)))


class TestValidation:
    def test_inner_mismatch(self):
        with pytest.raises(DimensionError):
            dgemm(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros((2, 5)))

    def test_c_shape_mismatch(self):
        with pytest.raises(DimensionError):
            dgemm(np.zeros((2, 3)), np.zeros((3, 5)), np.zeros((2, 4)))

    def test_bad_tile(self):
        with pytest.raises(DimensionError):
            dgemm(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), nb=0)

    def test_vector_rejected(self):
        with pytest.raises(ArgumentError):
            dgemm(np.zeros(3), np.zeros((3, 2)), np.zeros((1, 2)))

    def test_readonly_c_rejected(self):
        c = np.zeros((2, 2))
        c.flags.writeable = False
        with pytest.raises(ArgumentError):
            dgemm(np.zeros((2, 2)), np.zeros((2, 2)), c)


class TestInstrumentation:
    def test_gemm_flops_model(self):
        muls, adds = gemm_flops(4, 5, 6)
        assert muls == 120
        assert adds == 120 - 24  # M(m,k,n) = 2mkn - mn

    def test_charge_matches_model(self):
        ctx = ExecutionContext()
        dgemm(np.zeros((4, 5)), np.zeros((5, 6)), np.zeros((4, 6), order="F"),
              ctx=ctx)
        assert ctx.mul_flops == 120
        assert ctx.add_flops == 96
        assert ctx.kernel_calls["dgemm"] == 1

    def test_dry_run_no_numerics(self):
        ctx = ExecutionContext(dry=True)
        c = Phantom(10, 12)
        out = dgemm(Phantom(10, 11), Phantom(11, 12), c, ctx=ctx)
        assert out is c
        assert ctx.mul_flops == 10 * 11 * 12


class TestBackends:
    def test_vendor_matches_substrate(self, mats):
        from repro.blas.level3 import dgemm as d

        a, b, c1 = mats(37, 23, 41)
        c2 = c1.copy(order="F")
        d(a, b, c1, 0.5, -2.0, backend="substrate")
        d(a, b, c2, 0.5, -2.0, backend="vendor")
        np.testing.assert_allclose(c1, c2, atol=1e-11)

    def test_vendor_transposes(self, mats):
        a, b, c = mats(20, 30, 25)
        at = np.asfortranarray(a.T)
        dgemm(at, b, c, transa=True, backend="vendor")
        np.testing.assert_allclose(c, a @ b, atol=1e-11)

    def test_unknown_backend(self, mats):
        a, b, c = mats(4, 4, 4)
        with pytest.raises(ArgumentError):
            dgemm(a, b, c, backend="fortran77")

    def test_dgefmm_backend_passthrough(self, mats):
        from repro.core.dgefmm import dgefmm
        from repro.core.cutoff import SimpleCutoff

        a, b, c1 = mats(65, 43, 51)
        c2 = c1.copy(order="F")
        dgefmm(a, b, c1, 0.5, 1.5, cutoff=SimpleCutoff(16),
               backend="vendor")
        dgefmm(a, b, c2, 0.5, 1.5, cutoff=SimpleCutoff(16),
               backend="substrate")
        np.testing.assert_allclose(c1, c2, atol=1e-10)

    # the vendor base case: np.matmul writes C itself when it can
    LAYOUTS = {
        "F": lambda x: x,
        "C": np.ascontiguousarray,
        "strided": lambda x: np.asfortranarray(
            np.repeat(np.repeat(x, 2, axis=0), 3, axis=1))[::2, ::3],
        "negative": lambda x: np.asfortranarray(x[::-1, ::-1])[::-1, ::-1],
        "quadrant": lambda x: np.asfortranarray(
            np.pad(x, ((5, 3), (2, 7))))[5:5 + x.shape[0],
                                         2:2 + x.shape[1]],
    }

    def test_no_product_temporary(self, rng):
        import tracemalloc

        m = 512
        a = np.asfortranarray(rng.standard_normal((m, m)))
        b = np.asfortranarray(rng.standard_normal((m, m)))
        c = np.zeros((m, m), order="F")
        dgemm(a, b, c, backend="vendor")            # warm
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            dgemm(a, b, c, backend="vendor")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * m * c.itemsize / 8, peak

    @pytest.mark.parametrize("la", sorted(LAYOUTS))
    @pytest.mark.parametrize("lb", ["F", "negative", "quadrant"])
    def test_equals_matmul_bit_for_bit(self, rng, la, lb):
        a = self.LAYOUTS[la](np.asfortranarray(rng.standard_normal((37, 29))))
        b = self.LAYOUTS[lb](np.asfortranarray(rng.standard_normal((29, 41))))
        want = np.empty((37, 41), order="F")
        np.matmul(a, b, out=want)
        for c in (np.full((37, 41), np.nan, order="F"),
                  self.LAYOUTS["quadrant"](np.full((37, 41), np.nan))):
            dgemm(a, b, c, backend="vendor")
            assert np.array_equal(c, want)

    def test_general_scalars_from_an_f_ordered_product(self, rng):
        a, b = (np.asfortranarray(rng.standard_normal(s))
                for s in ((30, 20), (20, 25)))
        c = np.asfortranarray(rng.standard_normal((30, 25)))
        prod = np.empty((30, 25), order="F")
        np.matmul(a, b, out=prod)
        prod *= 0.5
        want = c * -2.0
        want += prod
        dgemm(a, b, c, 0.5, -2.0, backend="vendor")
        assert np.array_equal(c, want)

    @pytest.mark.parametrize("alias", ["a", "b", "partial"])
    def test_overlapping_c_equals_non_aliased(self, rng, alias):
        n = 48
        buf = np.asfortranarray(rng.standard_normal((n, 2 * n)))
        a = buf[:, :n]
        b = np.asfortranarray(rng.standard_normal((n, n)))
        if alias == "a":
            c = a
        elif alias == "b":
            c = b
        else:
            c = buf[:, n // 2:n // 2 + n]      # half of A's columns
        want = np.empty((n, n), order="F")
        dgemm(a.copy(order="F"), b.copy(order="F"), want, backend="vendor")
        dgemm(a, b, c, backend="vendor")
        assert np.array_equal(c, want)

    @pytest.mark.parametrize("alpha", [1.0, 2.5])
    def test_beta_zero_overwrites_nan(self, mats, alpha):
        a, b, _ = mats(20, 30, 25)
        c = np.full((20, 25), np.nan, order="F")
        dgemm(a, b, c, alpha, 0.0, backend="vendor")
        np.testing.assert_allclose(c, alpha * (a @ b), atol=1e-11)

    def test_float32_product_rounds_before_widening(self, rng):
        a = np.asfortranarray(rng.standard_normal((30, 40)), np.float32)
        b = np.asfortranarray(rng.standard_normal((40, 20)), np.float32)
        c = np.zeros((30, 20), order="F")
        dgemm(a, b, c, backend="vendor")
        prod = np.empty((30, 20), dtype=np.float32, order="F")
        np.matmul(a, b, out=prod)
        assert np.array_equal(c, prod.astype(np.float64))
        assert not np.array_equal(c, a.astype(np.float64) @ b)

    def test_exact_refusal_before_c_is_touched(self, rng):
        a = np.asfortranarray(rng.integers(-9, 9, (6, 5)))
        b = np.asfortranarray(rng.standard_normal((5, 4)))
        c = np.full((6, 4), 7, dtype=np.int64, order="F")
        with pytest.raises(ArgumentError):
            dgemm(a, b, c, backend="vendor", accuracy="exact")
        assert (c == 7).all()

    def test_compensated_float32_evaluates_wide(self, rng):
        a = np.asfortranarray(rng.standard_normal((30, 40)), np.float32)
        b = np.asfortranarray(rng.standard_normal((40, 20)), np.float32)
        c = np.zeros((30, 20), dtype=np.float32, order="F")
        dgemm(a, b, c, backend="vendor", accuracy="compensated")
        wide = np.empty((30, 20), order="F")
        np.matmul(a.astype(np.float64), b.astype(np.float64), out=wide)
        assert np.array_equal(c, wide.astype(np.float32))
