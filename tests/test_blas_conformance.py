"""BLAS-conformance regressions: aliasing, degenerate dims, NaN, strides.

The DGEMM contract the drivers now honor (see docs/api.md, "DGEMM
conformance"):

- ``m == 0`` or ``n == 0``: C is empty — no-op, no recursion;
- ``k == 0`` or ``alpha == 0``: no product — ``C <- beta*C`` only;
- ``beta == 0``: C is *overwritten*, never read — NaN/Inf garbage in C
  must not propagate (the ``0*NaN`` class of bugs);
- C may alias A or B (fully or via overlapping views) — the overlap
  guard falls back to a private copy of the offending input;
- arbitrary strides: Fortran/C order, non-contiguous, and negative-
  stride views all accepted on every operand.

Every regression here runs all three execution paths — recursive serial,
multi-level parallel, and compiled-plan replay — and asserts serial and
planned results are *bit-identical*, not merely close.
"""

import numpy as np
import pytest

from repro.blas.validate import copy_on_overlap, overlaps
from repro.core.cutoff import SimpleCutoff
from repro.core.dgefmm import dgefmm, replay_serial
from repro.core.parallel import pdgefmm
from repro.plan import PlanCache

CUT = SimpleCutoff(4)


def _paths(a, b, c, alpha=1.0, beta=0.0, **kw):
    """Run serial / planned / parallel / one-thread parallel on private
    copies of the operands; returns ``{name: result}``.  ``plan`` is
    interpreted replay of the serial plan (``dgefmm`` walks substrate
    calls even when given a cache)."""
    cache = PlanCache()
    out = {}

    def run(name, fn):
        aa, bb, cc = a.copy(order="K"), b.copy(order="K"), c.copy(order="K")
        fn(aa, bb, cc)
        out[name] = cc

    run("serial", lambda aa, bb, cc: dgefmm(
        aa, bb, cc, alpha, beta, cutoff=CUT, **kw))
    run("plan", lambda aa, bb, cc: replay_serial(
        aa, bb, cc, alpha, beta, cutoff=CUT, plan_cache=cache, **kw))
    if not kw:  # pdgefmm pins scheme/peel
        run("parallel", lambda aa, bb, cc: pdgefmm(
            aa, bb, cc, alpha, beta, cutoff=CUT, workers=3))
        run("parallel-serial", lambda aa, bb, cc: pdgefmm(
            aa, bb, cc, alpha, beta, cutoff=CUT, workers=1))
    return out


def _assert_all(results, expect, atol=1e-9):
    for name, got in results.items():
        assert got.shape == expect.shape, name
        np.testing.assert_allclose(got, expect, atol=atol, err_msg=name)
    assert np.array_equal(results["serial"], results["plan"])
    if "parallel" in results:
        assert np.array_equal(results["parallel"],
                              results["parallel-serial"])


class TestZeroDims:
    """m|k|n == 0 — every combination, every path."""

    @pytest.mark.parametrize("m,k,n", [(0, 5, 7), (5, 0, 7), (5, 7, 0),
                                       (0, 0, 0), (0, 7, 0), (12, 0, 9)])
    def test_zero_dim_beta_scales(self, m, k, n, rng):
        a = np.asfortranarray(rng.standard_normal((m, k)))
        b = np.asfortranarray(rng.standard_normal((k, n)))
        c = np.asfortranarray(rng.standard_normal((m, n)))
        expect = 0.5 * c if k == 0 else np.zeros((m, n))
        _assert_all(_paths(a, b, c, alpha=2.0, beta=0.5), expect)

    @pytest.mark.parametrize("m,k,n", [(0, 5, 7), (5, 0, 7), (5, 7, 0)])
    def test_zero_dim_never_recurses(self, m, k, n):
        """Degenerate calls must not trip the scheme machinery: a cutoff
        that explodes on use proves the early-out runs first."""

        class Bomb(SimpleCutoff):
            def stop(self, *a):  # pragma: no cover - must not run
                raise AssertionError("cutoff consulted on degenerate dims")

        a = np.zeros((m, k), order="F")
        b = np.zeros((k, n), order="F")
        c = np.ones((m, n), order="F")
        dgefmm(a, b, c, 1.0, 0.5, cutoff=Bomb(4))
        pdgefmm(a, b, c, 1.0, 0.5, cutoff=Bomb(4))

    def test_k_zero_with_nan_c_beta_zero(self):
        a = np.zeros((6, 0), order="F")
        b = np.zeros((0, 8), order="F")
        c = np.full((6, 8), np.nan, order="F")
        _assert_all(_paths(a, b, c, alpha=1.0, beta=0.0),
                    np.zeros((6, 8)))


class TestAlphaBetaClasses:
    def test_alpha_zero_skips_product(self, rng):
        """alpha == 0 with NaN in A/B: the product must not be formed."""
        a = np.full((9, 7), np.nan, order="F")
        b = np.full((7, 11), np.nan, order="F")
        c = np.asfortranarray(rng.standard_normal((9, 11)))
        _assert_all(_paths(a, b, c, alpha=0.0, beta=-1.5), -1.5 * c)

    def test_beta_zero_overwrites_nan_c(self, rng):
        """The headline regression: C = NaN, beta == 0, result finite and
        bit-identical across serial and planned replay."""
        a = np.asfortranarray(rng.standard_normal((17, 13)))
        b = np.asfortranarray(rng.standard_normal((13, 19)))
        c = np.full((17, 19), np.nan, order="F")
        res = _paths(a, b, c, alpha=1.0, beta=0.0)
        for name, got in res.items():
            assert np.isfinite(got).all(), name
        _assert_all(res, a @ b, atol=1e-9 * 20)

    def test_beta_zero_inf_c(self, rng):
        a = np.asfortranarray(rng.standard_normal((10, 10)))
        b = np.asfortranarray(rng.standard_normal((10, 10)))
        c = np.full((10, 10), np.inf, order="F")
        res = _paths(a, b, c, alpha=2.0, beta=0.0)
        _assert_all(res, 2.0 * (a @ b), atol=1e-9 * 20)

    def test_alpha_and_beta_zero_nan_everywhere(self):
        a = np.full((8, 8), np.nan, order="F")
        b = np.full((8, 8), np.nan, order="F")
        c = np.full((8, 8), np.nan, order="F")
        _assert_all(_paths(a, b, c, alpha=0.0, beta=0.0),
                    np.zeros((8, 8)))


class TestAliasing:
    """C sharing memory with A or B — the overlap guard."""

    def test_c_is_a(self, rng):
        a = np.asfortranarray(rng.standard_normal((12, 12)))
        b = np.asfortranarray(rng.standard_normal((12, 12)))
        expect = a @ b
        cache = PlanCache()
        for kw in ({}, {"plan_cache": cache}):
            aa = a.copy(order="F")
            (replay_serial if kw else dgefmm)(aa, b, aa, cutoff=CUT, **kw)
            np.testing.assert_allclose(aa, expect, atol=1e-10 * 12)
        aa = a.copy(order="F")
        pdgefmm(aa, b, aa, cutoff=CUT, workers=3)
        np.testing.assert_allclose(aa, expect, atol=1e-10 * 12)

    def test_c_is_b_accumulating(self, rng):
        a = np.asfortranarray(rng.standard_normal((11, 11)))
        b = np.asfortranarray(rng.standard_normal((11, 11)))
        expect = 1.5 * (a @ b) + 0.5 * b
        bb = b.copy(order="F")
        dgefmm(a, bb, bb, 1.5, 0.5, cutoff=CUT)
        np.testing.assert_allclose(bb, expect, atol=1e-10 * 12)

    def test_partial_overlap_view(self, rng):
        """C is an overlapping window of the same backing buffer as A."""
        buf = np.asfortranarray(rng.standard_normal((16, 21)))
        a = buf[:, :13]          # 16 x 13
        c = buf[:, 8:]           # 16 x 13 — columns 8..12 overlap A
        b = np.asfortranarray(rng.standard_normal((13, 13)))
        expect = a.copy() @ b
        dgefmm(a, b, c, cutoff=CUT)
        np.testing.assert_allclose(c, expect, atol=1e-10 * 13)

    def test_serial_plan_bit_identity_under_alias(self, rng):
        a = np.asfortranarray(rng.standard_normal((14, 14)))
        b = np.asfortranarray(rng.standard_normal((14, 14)))
        a1, a2 = a.copy(order="F"), a.copy(order="F")
        dgefmm(a1, b, a1, cutoff=CUT)
        replay_serial(a2, b, a2, cutoff=CUT, plan_cache=PlanCache())
        assert np.array_equal(a1, a2)

    def test_overlaps_predicate(self, rng):
        # C order: row slices are contiguous byte ranges, so the bounds
        # check is exact here (in F order x[:3]/x[3:] interleave and the
        # conservative check reports True — an allowed false positive)
        x = np.ascontiguousarray(rng.standard_normal((6, 6)))
        assert overlaps(x, x)
        assert overlaps(x[:3], x[2:])
        assert not overlaps(x[:3], x[3:])
        assert not overlaps(x, x.copy())
        assert not overlaps(np.zeros((0, 4)), np.zeros((0, 4)))

    def test_copy_on_overlap_resolves(self, rng):
        x = np.asfortranarray(rng.standard_normal((6, 6)))
        y = np.asfortranarray(rng.standard_normal((6, 6)))
        rx, ry = copy_on_overlap(x, x, y)
        assert rx is not x and not overlaps(rx, x)
        assert ry is y
        np.testing.assert_array_equal(rx, x)


class TestStridesAndOrder:
    """Negative-stride and mixed-order operands on every path."""

    @pytest.mark.parametrize("flip", ["revrows_a", "revcols_b", "revrows_c"])
    def test_negative_stride_operand(self, flip, rng):
        a = np.asfortranarray(rng.standard_normal((13, 11)))
        b = np.asfortranarray(rng.standard_normal((11, 17)))
        c = np.asfortranarray(rng.standard_normal((13, 17)))
        if flip == "revrows_a":
            a = a[::-1, :]
        elif flip == "revcols_b":
            b = b[:, ::-1]
        else:
            c = np.asfortranarray(rng.standard_normal((26, 17)))[::2][::-1]
        expect = 1.5 * (np.asarray(a) @ np.asarray(b)) + 0.5 * np.asarray(c)
        _assert_all(_paths(a, b, c, alpha=1.5, beta=0.5), expect,
                    atol=1e-9 * 16)

    def test_mixed_order_transposed(self, rng):
        a = np.ascontiguousarray(rng.standard_normal((11, 14)))   # A^T
        b = np.asfortranarray(rng.standard_normal((19, 11)))      # B^T
        c = np.ascontiguousarray(rng.standard_normal((14, 19)))
        expect = 2.0 * (a.T @ b.T) - 1.0 * c
        _assert_all(
            _paths(a, b, c, alpha=2.0, beta=-1.0,
                   transa=True, transb=True),
            expect, atol=1e-9 * 16,
        )
        res = {}
        for name, workers in (("parallel", 3), ("parallel-serial", 1)):
            cc = c.copy(order="K")
            pdgefmm(a, b, cc, 2.0, -1.0, True, True, cutoff=CUT,
                    workers=workers)
            res[name] = cc
            np.testing.assert_allclose(cc, expect, atol=1e-9 * 16)
        assert np.array_equal(res["parallel"], res["parallel-serial"])
