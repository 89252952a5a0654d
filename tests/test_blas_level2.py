"""Level 2 BLAS: DGEMV and DGER (the peeling fix-up kernels)."""

import numpy as np
import pytest

from repro.blas import dgemv, dger
from repro.context import ExecutionContext
from repro.errors import DimensionError
from repro.phantom import Phantom


@pytest.fixture
def setup(rng):
    a = np.asfortranarray(rng.standard_normal((7, 5)))
    x = rng.standard_normal(5)
    y = rng.standard_normal(7)
    return a, x, y


class TestDgemv:
    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (2.0, 0.5),
                                            (-1.0, 1.0), (0.5, -0.25)])
    def test_notrans(self, setup, alpha, beta):
        a, x, y = setup
        expect = alpha * (a @ x) + beta * y
        dgemv(a, x, y, alpha, beta)
        np.testing.assert_allclose(y, expect)

    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (0.3, 1.7)])
    def test_trans(self, setup, alpha, beta):
        a, x, y = setup
        expect = alpha * (a.T @ y) + beta * x
        dgemv(a, y, x, alpha, beta, trans=True)
        np.testing.assert_allclose(x, expect)

    def test_beta_zero_ignores_garbage(self, setup):
        a, x, _ = setup
        y = np.full(7, np.nan)
        dgemv(a, x, y, 1.0, 0.0)
        np.testing.assert_allclose(y, a @ x)

    def test_alpha_zero(self, setup):
        a, x, y = setup
        expect = 3.0 * y
        dgemv(a, x, y, 0.0, 3.0)
        np.testing.assert_allclose(y, expect)

    def test_wrong_x_length(self, setup):
        a, _, y = setup
        with pytest.raises(DimensionError):
            dgemv(a, np.zeros(6), y)

    def test_wrong_y_length(self, setup):
        a, x, _ = setup
        with pytest.raises(DimensionError):
            dgemv(a, x, np.zeros(6))

    def test_strided_view_input(self, rng):
        big = np.asfortranarray(rng.standard_normal((10, 10)))
        a = big[1:8, 2:7]  # strided view, like a peeled block
        x = rng.standard_normal(5)
        y = np.zeros(7)
        dgemv(a, x, y)
        np.testing.assert_allclose(y, a @ x)

    def test_dry_charges(self):
        ctx = ExecutionContext(dry=True)
        dgemv(Phantom(7, 5), Phantom(5), Phantom(7), ctx=ctx)
        assert ctx.mul_flops == 35
        assert ctx.kernel_calls["dgemv"] == 1


class TestDger:
    @pytest.mark.parametrize("alpha", [1.0, -0.5, 2.0])
    def test_update(self, setup, alpha):
        a, x, y = setup
        expect = a + alpha * np.outer(y, x)
        dger(y, x, a, alpha)
        np.testing.assert_allclose(a, expect)

    def test_alpha_zero_noop(self, setup):
        a, x, y = setup
        expect = a.copy()
        dger(y, x, a, 0.0)
        np.testing.assert_array_equal(a, expect)

    def test_dim_mismatch(self, setup):
        a, x, y = setup
        with pytest.raises(DimensionError):
            dger(x, x, a)  # x has length 5, A has 7 rows

    def test_row_view_target(self, rng):
        # the k-odd fix-up updates a sub-block view of C
        c = np.asfortranarray(rng.standard_normal((9, 9)))
        block = c[:8, :8]
        x = rng.standard_normal(8)
        y = rng.standard_normal(8)
        expect = block + np.outer(x, y)
        dger(x, y, block)
        np.testing.assert_allclose(c[:8, :8], expect)

    @pytest.mark.parametrize("alpha", [1.0, -0.37])
    @pytest.mark.parametrize("layout", ["F", "C", "strided", "negative"])
    def test_bits_of_the_outer_product_formula(self, rng, layout, alpha):
        """The temporary follows A's memory order; the bits stay those
        of ``A += alpha * multiply.outer(x, y)`` (alpha applied first)."""
        base = rng.standard_normal((14, 18))
        a = {"F": np.asfortranarray(base[:7, :6]),
             "C": np.ascontiguousarray(base[:7, :6]),
             "strided": np.asfortranarray(base)[::2, ::3],
             "negative": np.asfortranarray(base[:7, :6])[::-1, ::-1]}[layout]
        x = rng.standard_normal(a.shape[0])
        y = rng.standard_normal(a.shape[1])
        outer = np.multiply.outer(x, y)
        if alpha != 1.0:
            outer *= alpha
        expect = a + outer
        dger(x, y, a, alpha)
        assert np.array_equal(a, expect)

    def test_dry_charges(self):
        ctx = ExecutionContext(dry=True)
        dger(Phantom(7), Phantom(5), Phantom(7, 5), ctx=ctx)
        assert ctx.mul_flops == 35 and ctx.add_flops == 35
