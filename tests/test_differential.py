"""Differential harness: dgefmm and pdgefmm against numpy reference GEMM.

Property-based (hypothesis) sweeps over random shapes — including odd
and prime dimensions that exercise dynamic peeling at every level —
transpose flags, alpha/beta combinations, and C/F-ordered/strided
operand layouts.  Every case checks the full DGEMM contract
``C <- alpha*op(A)*op(B) + beta*C`` against a numpy reference computed
in float64, for both the serial and the multi-level parallel driver.

The quick sweeps run everywhere; a broader sweep is marked ``slow`` so
CI's ``-m "not slow"`` split stays fast.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cutoff import SimpleCutoff
from repro.core.dgefmm import dgefmm, zgefmm
from repro.core.parallel import pdgefmm
from repro.core.pool import WorkspacePool
from repro.plan import PlanCache

#: small tau so even modest dims recurse (and peel) several levels
CUT = SimpleCutoff(8)

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]

#: min 0 — the degenerate-GEMM contract is part of every sweep
dims = st.integers(min_value=0, max_value=48)
scalars = st.sampled_from([0.0, 1.0, -1.0, 0.5, -2.0, 3.25])
layouts = st.sampled_from(["F", "C", "strided", "revrows", "revcols"])


def _materialize(rng, m, n, layout):
    """An m-by-n standard-normal matrix in the requested memory layout."""
    if layout == "F":
        return np.asfortranarray(rng.standard_normal((m, n)))
    if layout == "C":
        return np.ascontiguousarray(rng.standard_normal((m, n)))
    if layout == "revrows":
        # negative row stride over a Fortran backing
        return np.asfortranarray(rng.standard_normal((m, n)))[::-1, :]
    if layout == "revcols":
        # negative column stride over a C backing
        return np.ascontiguousarray(rng.standard_normal((m, n)))[:, ::-1]
    # non-contiguous view: every second row/column of a larger array
    backing = rng.standard_normal((2 * m, 2 * n))
    view = backing[::2, ::2]
    assert not view.flags.c_contiguous and not view.flags.f_contiguous or (
        m <= 1 or n <= 1
    )
    return view


def _case(rng, m, k, n, transa, transb, layout_a, layout_b, layout_c):
    a = _materialize(rng, k if transa else m, m if transa else k, layout_a)
    b = _materialize(rng, n if transb else k, k if transb else n, layout_b)
    c = _materialize(rng, m, n, layout_c)
    opa = a.T if transa else a
    opb = b.T if transb else b
    return a, b, c, opa, opb


def _check(routine, rng, m, k, n, alpha, beta, transa, transb,
           layout_a, layout_b, layout_c, **kwargs):
    a, b, c, opa, opb = _case(
        rng, m, k, n, transa, transb, layout_a, layout_b, layout_c
    )
    expect = alpha * (opa @ opb) + beta * c
    routine(a, b, c, alpha, beta, transa, transb, cutoff=CUT, **kwargs)
    scale = 1.0
    if expect.size:
        scale = max(scale, float(np.max(np.abs(expect))))
    np.testing.assert_allclose(c, expect, atol=1e-10 * scale)


class TestSerialDifferential:
    @given(
        m=dims, k=dims, n=dims,
        alpha=scalars, beta=scalars,
        transa=st.booleans(), transb=st.booleans(),
        layout_a=layouts, layout_b=layouts, layout_c=layouts,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_dgefmm_matches_numpy(self, m, k, n, alpha, beta, transa,
                                  transb, layout_a, layout_b, layout_c,
                                  seed):
        rng = np.random.default_rng(seed)
        _check(dgefmm, rng, m, k, n, alpha, beta, transa, transb,
               layout_a, layout_b, layout_c)

    @pytest.mark.parametrize("m", PRIMES)
    def test_prime_dims_peel_every_level(self, rng, m):
        """Prime orders force dynamic peeling at every recursion level."""
        k, n = PRIMES[(PRIMES.index(m) + 3) % len(PRIMES)], m
        a = np.asfortranarray(rng.standard_normal((m, k)))
        b = np.asfortranarray(rng.standard_normal((k, n)))
        c = np.asfortranarray(rng.standard_normal((m, n)))
        expect = 0.5 * (a @ b) - 1.5 * c
        dgefmm(a, b, c, 0.5, -1.5, cutoff=SimpleCutoff(4))
        np.testing.assert_allclose(c, expect, atol=1e-10)

    @pytest.mark.parametrize("scheme", ["strassen1", "strassen2",
                                        "strassen1_general", "textbook"])
    def test_schemes_agree(self, rng, scheme):
        a = np.asfortranarray(rng.standard_normal((37, 29)))
        b = np.asfortranarray(rng.standard_normal((29, 41)))
        c = np.asfortranarray(rng.standard_normal((37, 41)))
        expect = 2.0 * (a @ b) + 0.5 * c
        dgefmm(a, b, c, 2.0, 0.5, cutoff=CUT, scheme=scheme)
        np.testing.assert_allclose(c, expect, atol=1e-10)


class TestParallelDifferential:
    @given(
        m=dims, k=dims, n=dims,
        alpha=scalars, beta=scalars,
        transa=st.booleans(), transb=st.booleans(),
        layout_a=layouts, layout_b=layouts, layout_c=layouts,
        depth=st.integers(min_value=1, max_value=2),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_pdgefmm_matches_numpy(self, m, k, n, alpha, beta, transa,
                                   transb, layout_a, layout_b, layout_c,
                                   depth, seed):
        rng = np.random.default_rng(seed)
        _check(pdgefmm, rng, m, k, n, alpha, beta, transa, transb,
               layout_a, layout_b, layout_c,
               workers=3, max_parallel_depth=depth)

    @given(
        m=dims, k=dims, n=dims,
        alpha=scalars, beta=scalars,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_pooled_pdgefmm_matches_serial(self, m, k, n, alpha, beta,
                                           seed, pooled_pool):
        """Serial and pooled-parallel answers agree bit-for-bit on the
        same schedule inputs (both are exact recursions; the only
        difference may be summation order, so allclose, not equal)."""
        rng = np.random.default_rng(seed)
        a = np.asfortranarray(rng.standard_normal((m, k)))
        b = np.asfortranarray(rng.standard_normal((k, n)))
        c1 = np.asfortranarray(rng.standard_normal((m, n)))
        c2 = c1.copy(order="F")
        dgefmm(a, b, c1, alpha, beta, cutoff=CUT)
        pdgefmm(a, b, c2, alpha, beta, cutoff=CUT, workers=4,
                max_parallel_depth=2, pool=pooled_pool)
        scale = 1.0
        if c1.size:
            scale = max(scale, float(np.max(np.abs(c1))))
        np.testing.assert_allclose(c2, c1, atol=1e-10 * scale)

    @pytest.mark.parametrize("m", [7, 13, 31, 47])
    def test_prime_dims_parallel(self, rng, m):
        a = np.asfortranarray(rng.standard_normal((m, m)))
        b = np.asfortranarray(rng.standard_normal((m, m)))
        c = np.zeros((m, m), order="F")
        pdgefmm(a, b, c, cutoff=SimpleCutoff(4), workers=7,
                max_parallel_depth=2)
        np.testing.assert_allclose(c, a @ b, atol=1e-10)


class TestPlannedDifferential:
    """Fused replay of a cached plan reproduces the vendor walk
    bit-for-bit.

    Unlike the numpy comparisons above (allclose within a scaled
    tolerance), fused-vs-walk is asserted with ``array_equal``: a
    compiled plan performs the vendor walk's arithmetic on the *same*
    operand views in the *same* order, so every result bit must match.
    """

    @given(
        m=dims, k=dims, n=dims,
        alpha=scalars, beta=scalars,
        transa=st.booleans(), transb=st.booleans(),
        layout_a=layouts, layout_b=layouts, layout_c=layouts,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_planned_bit_identical_to_recursive(
            self, m, k, n, alpha, beta, transa, transb,
            layout_a, layout_b, layout_c, seed):
        rng = np.random.default_rng(seed)
        a, b, c, opa, opb = _case(
            rng, m, k, n, transa, transb, layout_a, layout_b, layout_c
        )
        c_plan = np.asfortranarray(c.copy())
        c_rec = np.asfortranarray(c)
        dgefmm(a, b, c_rec, alpha, beta, transa, transb, cutoff=CUT,
               backend="vendor")
        dgefmm(a, b, c_plan, alpha, beta, transa, transb, cutoff=CUT,
               backend="vendor", plan_cache=PlanCache())
        assert np.array_equal(c_rec, c_plan)

    @given(
        m=dims, k=dims, n=dims,
        alpha=scalars, beta=scalars,
        workers=st.integers(min_value=1, max_value=14),
        depth=st.integers(min_value=1, max_value=2),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_planned_parallel_bit_identical(self, m, k, n, alpha, beta,
                                            workers, depth, seed):
        """pdgefmm through a plan cache == pdgefmm without, bit for bit:
        a parallel plan compiled for one call replays exactly like the
        cached plan (job merge order is deterministic)."""
        rng = np.random.default_rng(seed)
        a = np.asfortranarray(rng.standard_normal((m, k)))
        b = np.asfortranarray(rng.standard_normal((k, n)))
        c1 = np.asfortranarray(rng.standard_normal((m, n)))
        c2 = c1.copy(order="F")
        pdgefmm(a, b, c1, alpha, beta, cutoff=CUT, workers=workers,
                max_parallel_depth=depth)
        pdgefmm(a, b, c2, alpha, beta, cutoff=CUT, workers=workers,
                max_parallel_depth=depth, plan_cache=PlanCache())
        assert np.array_equal(c1, c2)

    @given(
        m=dims, k=dims, n=dims,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_zgefmm_planned_bit_identical(self, m, k, n, seed):
        """Complex plans: same machinery, complex128 regions/arenas."""
        rng = np.random.default_rng(seed)

        def zrand(r, s):
            return np.asfortranarray(
                rng.standard_normal((r, s))
                + 1j * rng.standard_normal((r, s))
            )

        a, b, c1 = zrand(m, k), zrand(k, n), zrand(m, n)
        c2 = c1.copy(order="F")
        alpha, beta = 1.5 - 0.5j, 0.25j
        zgefmm(a, b, c1, alpha, beta, cutoff=CUT, backend="vendor")
        zgefmm(a, b, c2, alpha, beta, cutoff=CUT, backend="vendor",
               plan_cache=PlanCache())
        assert np.array_equal(c1, c2)

    @pytest.mark.parametrize("layout_a,layout_b,layout_c", [
        ("revrows", "revcols", "F"),
        ("C", "revrows", "strided"),
        ("revcols", "F", "revrows"),
    ])
    def test_planned_negative_stride_transposed(self, rng, layout_a,
                                                layout_b, layout_c):
        """Transposed + negative-stride/mixed-order operands replay
        fused plans bit-identically to the vendor walk, and pdgefmm's
        result does not depend on its thread budget."""
        m, k, n = 27, 21, 33
        a = _materialize(rng, k, m, layout_a)          # A^T storage
        b = _materialize(rng, n, k, layout_b)          # B^T storage
        c = _materialize(rng, m, n, layout_c)
        expect = 1.5 * (a.T @ b.T) + 0.5 * np.asarray(c)
        outs = {}
        cache = PlanCache()
        for name, fn in (
            ("serial", lambda cc: dgefmm(
                a, b, cc, 1.5, 0.5, True, True, cutoff=CUT)),
            ("vendor", lambda cc: dgefmm(
                a, b, cc, 1.5, 0.5, True, True, cutoff=CUT,
                backend="vendor")),
            ("fused", lambda cc: dgefmm(
                a, b, cc, 1.5, 0.5, True, True, cutoff=CUT,
                backend="vendor", plan_cache=cache)),
            ("parallel", lambda cc: pdgefmm(
                a, b, cc, 1.5, 0.5, True, True, cutoff=CUT, workers=3)),
            ("parallel-serial", lambda cc: pdgefmm(
                a, b, cc, 1.5, 0.5, True, True, cutoff=CUT, workers=1)),
        ):
            cc = c.copy(order="K")
            fn(cc)
            outs[name] = cc
            scale = max(1.0, float(np.max(np.abs(expect))))
            np.testing.assert_allclose(cc, expect, atol=1e-10 * scale,
                                       err_msg=name)
        assert np.array_equal(outs["vendor"], outs["fused"])
        assert cache.misses == 1
        assert np.array_equal(outs["parallel"], outs["parallel-serial"])

    def test_zgefmm_planned_matches_numpy(self, rng):
        m, k, n = 45, 37, 51
        a = np.asfortranarray(rng.standard_normal((m, k))
                              + 1j * rng.standard_normal((m, k)))
        b = np.asfortranarray(rng.standard_normal((k, n))
                              + 1j * rng.standard_normal((k, n)))
        c = np.asfortranarray(rng.standard_normal((m, n))
                              + 1j * rng.standard_normal((m, n)))
        alpha, beta = 1.5 - 0.5j, 0.25j
        expect = alpha * (a @ b) + beta * c
        cache = PlanCache()
        zgefmm(a, b, c, alpha, beta, cutoff=CUT, backend="vendor",
               plan_cache=cache)
        np.testing.assert_allclose(c, expect, atol=1e-10)
        assert cache.misses == 1


@pytest.fixture(scope="module")
def pooled_pool():
    """One pool shared across hypothesis examples — deliberately: shape
    churn across examples is exactly the reuse/regrow stress case."""
    return WorkspacePool()


@pytest.mark.slow
class TestBroadSweep:
    """Wider differential sweep, excluded from the quick CI lane."""

    @given(
        m=st.integers(min_value=1, max_value=96),
        k=st.integers(min_value=1, max_value=96),
        n=st.integers(min_value=1, max_value=96),
        alpha=scalars, beta=scalars,
        transa=st.booleans(), transb=st.booleans(),
        layout_a=layouts, layout_b=layouts, layout_c=layouts,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_dgefmm_broad(self, m, k, n, alpha, beta, transa, transb,
                          layout_a, layout_b, layout_c, seed):
        rng = np.random.default_rng(seed)
        _check(dgefmm, rng, m, k, n, alpha, beta, transa, transb,
               layout_a, layout_b, layout_c)

    @given(
        m=st.integers(min_value=1, max_value=96),
        k=st.integers(min_value=1, max_value=96),
        n=st.integers(min_value=1, max_value=96),
        workers=st.integers(min_value=1, max_value=14),
        depth=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_pdgefmm_broad(self, m, k, n, workers, depth, seed):
        rng = np.random.default_rng(seed)
        a = np.asfortranarray(rng.standard_normal((m, k)))
        b = np.asfortranarray(rng.standard_normal((k, n)))
        c = np.asfortranarray(rng.standard_normal((m, n)))
        expect = -0.5 * (a @ b) + 2.0 * c
        pdgefmm(a, b, c, -0.5, 2.0, cutoff=CUT, workers=workers,
                max_parallel_depth=depth)
        scale = max(1.0, float(np.max(np.abs(expect))))
        np.testing.assert_allclose(c, expect, atol=1e-10 * scale)
