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


def _two_real_einsums(a, b):
    """One tile of ``a @ b`` by the complex substrate's contract: both
    operands promoted to the product dtype, ``a`` copied to Fortran
    order unless its rows are unit-stride, its interleaved real view
    (rows alternating real and imaginary parts) contracted with
    ``b.real`` and ``b.imag`` into F-ordered ``X`` and ``Y``, then
    ``Re = X[0::2] - Y[1::2]`` and ``Im = X[1::2] + Y[0::2]``."""
    pdt = np.result_type(a, b)
    a, b = a.astype(pdt, copy=False), b.astype(pdt, copy=False)
    if a.strides[0] != a.itemsize:
        a = np.asfortranarray(a)
    rdt = b.real.dtype
    a2 = a.T.view(rdt).T
    x = np.empty((a2.shape[0], b.shape[1]), dtype=rdt, order="F")
    y = np.empty((a2.shape[0], b.shape[1]), dtype=rdt, order="F")
    np.einsum("ik,kj->ij", a2, b.real, out=x)
    np.einsum("ik,kj->ij", a2, b.imag, out=y)
    out = np.empty((a.shape[0], b.shape[1]), dtype=pdt, order="F")
    out.real = x[0::2] - y[1::2]
    out.imag = x[1::2] + y[0::2]
    return out


def _complex_reference(a, b, nb, kahan=False):
    """``a @ b`` over k-tiles of :func:`_two_real_einsums` (m, n <= nb),
    summed plainly or by Kahan's two-sum as the substrate sums them."""
    k = a.shape[1]
    acc = comp = None
    for l0 in range(0, k, nb):
        tile = _two_real_einsums(a[:, l0:l0 + nb], b[l0:l0 + nb, :])
        if acc is None:
            acc = tile
        elif not kahan:
            acc = acc + tile
        else:
            if comp is None:
                comp = np.zeros_like(tile)
            y = tile - comp
            t = acc + y
            comp = (t - acc) - y
            acc = t
    return acc


class TestComplexSubstrate:
    """A complex substrate tile is four real products on the
    interleaved real view of op(A): bit-identical to the two-real-
    einsum formula, within rounding of ``np.matmul``."""

    NB = 16
    M, N = 9, 11

    # stored operand for an op(X) of the given shape, and its trans flag
    LAYOUTS = {
        "F": lambda x: (np.asfortranarray(x), False),
        "C": lambda x: (np.ascontiguousarray(x), False),
        "T": lambda x: (np.asfortranarray(x.T), True),
        "negative": lambda x: (
            np.asfortranarray(x[::-1, ::-1])[::-1, ::-1], False),
        "sliced": lambda x: (
            np.asfortranarray(np.repeat(x, 2, axis=1))[:, ::2], False),
        "row-sliced": lambda x: (
            np.asfortranarray(np.repeat(x, 2, axis=0))[::2, :], False),
    }

    @staticmethod
    def _complex(rng, shape, dtype):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return x.astype(dtype)

    def _check(self, opa, opb, la, lb, accuracy="fast"):
        a, ta = self.LAYOUTS[la](opa)
        b, tb = self.LAYOUTS[lb](opb)
        pdt = np.result_type(a, b)
        c = np.full(
            (opa.shape[0], opb.shape[1]), np.nan, dtype=pdt, order="F")
        dgemm(a, b, c, transa=ta, transb=tb, nb=self.NB,
              accuracy=accuracy)
        want = _complex_reference(opa, opb, self.NB,
                                  kahan=accuracy == "compensated")
        assert np.array_equal(c, want)
        wide = opa.astype(np.complex128) @ opb.astype(np.complex128)
        rtol = 1e-13 if pdt == np.complex128 else 1e-5
        np.testing.assert_allclose(
            c, wide, atol=rtol * np.abs(wide).max(), rtol=0)

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("k", [7, 37])
    @pytest.mark.parametrize("lb", ["F", "T", "negative", "sliced"])
    @pytest.mark.parametrize("la", sorted(LAYOUTS))
    def test_layouts_and_tiling(self, rng, dtype, k, la, lb):
        opa = self._complex(rng, (self.M, k), dtype)
        opb = self._complex(rng, (k, self.N), dtype)
        self._check(opa, opb, la, lb)

    @pytest.mark.parametrize("la", ["F", "T", "negative"])
    def test_kahan_tiles(self, rng, la):
        opa = self._complex(rng, (self.M, 53), np.complex128)
        opb = self._complex(rng, (53, self.N), np.complex128)
        self._check(opa, opb, la, "F", accuracy="compensated")

    @pytest.mark.parametrize("k", [7, 37])
    @pytest.mark.parametrize("da,db", [
        (np.complex128, np.float64), (np.float64, np.complex128),
        (np.complex64, np.complex128), (np.complex64, np.float64),
        (np.float32, np.complex64), (np.complex64, np.float32),
    ])
    def test_mixed_operand_dtypes(self, rng, da, db, k):
        def draw(shape, dt):
            if np.dtype(dt).kind == "c":
                return self._complex(rng, shape, dt)
            return rng.standard_normal(shape).astype(dt)

        self._check(draw((self.M, k), da), draw((k, self.N), db), "T", "F")

    def test_general_scalars(self, rng):
        opa = self._complex(rng, (self.M, 37), np.complex128)
        opb = self._complex(rng, (37, self.N), np.complex128)
        c0 = self._complex(rng, (self.M, self.N), np.complex128)
        c = np.asfortranarray(c0.copy())
        alpha, beta = 0.5 - 1.5j, 2.0 + 0.25j
        dgemm(opa, opb, c, alpha, beta, nb=self.NB)
        # the product is scaled in place, then added to C scaled in place
        prod = _complex_reference(opa, opb, self.NB)
        prod *= alpha
        want = np.asfortranarray(c0.copy())
        want *= beta
        want += prod
        assert np.array_equal(c, want)

    def test_no_complex_operand_reaches_einsum(self, rng, monkeypatch):
        """A complex ``dgefmm`` that recurses, peels and accumulates
        (beta != 0) hands ``einsum`` only real operands."""
        import repro.blas.level3 as level3
        from repro.core.cutoff import SimpleCutoff
        from repro.core.dgefmm import dgefmm

        seen = []

        class Spy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def einsum(*args, **kw):
                seen.extend(x.dtype for x in (*args, kw.get("out"))
                            if isinstance(x, np.ndarray))
                return np.einsum(*args, **kw)

        monkeypatch.setattr(level3, "np", Spy())
        for dtype in (np.complex128, np.complex64):
            a = self._complex(rng, (67, 45), dtype)
            b = self._complex(rng, (45, 53), dtype)
            c0 = np.asfortranarray(self._complex(rng, (67, 53), dtype))
            c = c0.copy(order="F")
            ctx = ExecutionContext(trace=True)
            dgefmm(a, b, c, 1.0, 0.5, cutoff=SimpleCutoff(16), ctx=ctx)
            actions = {e.action for e in ctx.events}
            assert {"recurse", "peel", "base"} <= actions
            want = a.astype(np.complex128) @ b + 0.5 * c0
            rtol = 1e-12 if dtype == np.complex128 else 1e-4
            np.testing.assert_allclose(
                c, want, atol=rtol * np.abs(want).max(), rtol=0)
        assert seen
        assert all(dt.kind == "f" for dt in seen), set(seen)
