"""The STRASSEN1/STRASSEN2 schedules in isolation (one level).

Each schedule is run with a plain-DGEMM recursion callback so exactly one
Strassen level executes; results are checked against numpy and the stage
oracle, and the per-level temporary footprint is asserted *exactly* —
this is where the paper's Section 3.2 memory claims are pinned down.
"""

import numpy as np
import pytest

from repro.blas.level3 import dgemm
from repro.context import ExecutionContext
from repro.core.dgefmm import LEVEL_FNS
from repro.core.strassen1 import (
    strassen1_beta0_level,
    strassen1_general_level,
)
from repro.core.strassen2 import strassen2_level
from repro.core.workspace import Workspace


def base_recurse(ctx):
    def recurse(a, b, c, alpha, beta):
        dgemm(a, b, c, alpha, beta, ctx=ctx)
    return recurse


@pytest.fixture
def ws():
    return Workspace()


class TestStrassen2Level:
    @pytest.mark.parametrize("m,k,n", [(8, 8, 8), (4, 6, 8), (10, 2, 6),
                                       (2, 2, 2), (12, 16, 4)])
    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (1.0, 1.0),
                                            (0.5, -2.0), (-1.0, 0.5)])
    def test_correct(self, mats, ws, m, k, n, alpha, beta):
        a, b, c = mats(m, k, n)
        expect = alpha * (a @ b) + beta * c
        ctx = ExecutionContext()
        strassen2_level(a, b, c, alpha, beta, ctx=ctx, ws=ws,
                        recurse=base_recurse(ctx))
        np.testing.assert_allclose(c, expect, atol=1e-11)

    def test_exactly_three_temporaries(self, mats, ws):
        """R1 (mk/4) + R2 (kn/4) + R3 (mn/4), the paper's minimum."""
        a, b, c = mats(12, 8, 16)
        ctx = ExecutionContext()
        strassen2_level(a, b, c, 1.0, 1.0, ctx=ctx, ws=ws,
                        recurse=base_recurse(ctx))
        expect = (12 * 8 + 8 * 16 + 12 * 16) / 4
        assert ws.peak_elements == expect

    def test_seven_base_multiplies(self, mats, ws):
        a, b, c = mats(8, 8, 8)
        ctx = ExecutionContext()
        strassen2_level(a, b, c, 1.0, 0.0, ctx=ctx, ws=ws,
                        recurse=base_recurse(ctx))
        assert ctx.kernel_calls["dgemm"] == 7

    def test_inputs_unmodified(self, mats, ws):
        a, b, c = mats(8, 8, 8)
        a0, b0 = a.copy(), b.copy()
        ctx = ExecutionContext()
        strassen2_level(a, b, c, 0.7, 0.3, ctx=ctx, ws=ws,
                        recurse=base_recurse(ctx))
        np.testing.assert_array_equal(a, a0)
        np.testing.assert_array_equal(b, b0)


class TestStrassen1Beta0Level:
    @pytest.mark.parametrize("m,k,n", [(8, 8, 8), (4, 6, 8), (10, 2, 6),
                                       (2, 2, 2), (6, 12, 4)])
    @pytest.mark.parametrize("alpha", [1.0, -0.5, 2.0])
    def test_correct(self, mats, ws, m, k, n, alpha):
        a, b, c = mats(m, k, n)
        expect = alpha * (a @ b)
        ctx = ExecutionContext()
        strassen1_beta0_level(a, b, c, alpha, 0.0, ctx=ctx, ws=ws,
                              recurse=base_recurse(ctx))
        np.testing.assert_allclose(c, expect, atol=1e-11)

    def test_exactly_two_temporaries(self, mats, ws):
        """R1 (m*max(k,n)/4) + R2 (kn/4): C hosts the other products."""
        m, k, n = 8, 12, 16
        a, b, c = mats(m, k, n)
        ctx = ExecutionContext()
        strassen1_beta0_level(a, b, c, 1.0, 0.0, ctx=ctx, ws=ws,
                              recurse=base_recurse(ctx))
        expect = (m * max(k, n) + k * n) / 4
        assert ws.peak_elements == expect

    def test_garbage_c_tolerated(self, mats, ws):
        """beta = 0 means C's input content (even NaN) must not leak."""
        a, b, c = mats(8, 8, 8)
        c[:] = np.nan
        ctx = ExecutionContext()
        strassen1_beta0_level(a, b, c, 1.0, 0.0, ctx=ctx, ws=ws,
                              recurse=base_recurse(ctx))
        np.testing.assert_allclose(c, a @ b, atol=1e-11)

    @pytest.mark.parametrize("level", sorted(LEVEL_FNS))
    def test_every_level_takes_the_uniform_call(self, mats, ws, level):
        """The walker dispatches every level function one way — this
        beta = 0 schedule included — so each computes A @ B from
        ``(a, b, c, alpha, beta, *, ctx, ws, recurse)``."""
        a, b, c = mats(6, 6, 6)
        ctx = ExecutionContext()
        LEVEL_FNS[level](a, b, c, 1.0, 0.0, ctx=ctx, ws=ws,
                         recurse=base_recurse(ctx))
        np.testing.assert_allclose(c, a @ b, atol=1e-11)


class TestStrassen1GeneralLevel:
    @pytest.mark.parametrize("m,k,n", [(8, 8, 8), (4, 6, 8), (6, 12, 4)])
    @pytest.mark.parametrize("alpha,beta", [(1.0, 1.0), (0.5, -2.0),
                                            (1.0, 0.0), (2.0, 0.25)])
    def test_correct(self, mats, ws, m, k, n, alpha, beta):
        a, b, c = mats(m, k, n)
        expect = alpha * (a @ b) + beta * c
        ctx = ExecutionContext()
        strassen1_general_level(a, b, c, alpha, beta, ctx=ctx, ws=ws,
                                recurse=base_recurse(ctx))
        np.testing.assert_allclose(c, expect, atol=1e-11)

    def test_exactly_six_temporaries(self, mats, ws):
        """m*max(k,n)/4 + kn/4 + 4*(mn/4) per level (paper Section 3.2)."""
        m, k, n = 8, 12, 16
        a, b, c = mats(m, k, n)
        ctx = ExecutionContext()
        strassen1_general_level(a, b, c, 1.0, 1.0, ctx=ctx, ws=ws,
                                recurse=base_recurse(ctx))
        expect = (m * max(k, n) + k * n) / 4 + m * n
        assert ws.peak_elements == expect


class TestScheduleAddCounts:
    """The flattened schedules use a fixed number of G-operations per
    level; pin them so schedule edits are conscious decisions."""

    def count_adds(self, fn, mats, args):
        a, b, c = mats(8, 8, 8)
        ctx = ExecutionContext()
        ws = Workspace()
        fn(a, b, c, *args, ctx=ctx, ws=ws, recurse=base_recurse(ctx))
        return sum(
            ctx.kernel_calls[k]
            for k in ("madd", "msub", "accum", "axpby")
        )

    def test_strassen2_fourteen_block_adds(self, mats):
        assert self.count_adds(strassen2_level, mats, (1.0, 1.0)) == 14

    def test_strassen1_beta0_eighteen_block_adds(self, mats):
        assert self.count_adds(strassen1_beta0_level, mats,
                               (1.0, 0.0)) == 18

    def test_strassen1_general_nineteen_block_adds(self, mats):
        # 15 tree adds would need unbounded product temps; the 6-temporary
        # schedule pays 4 extra merge/accumulate G-ops (see module docs)
        assert self.count_adds(
            strassen1_general_level, mats, (1.0, 1.0)) == 19


class TestTextbookLevel:
    """The minimal-addition, memory-heavy reference schedule."""

    @pytest.mark.parametrize("m,k,n", [(8, 8, 8), (4, 6, 8), (10, 2, 6),
                                       (2, 2, 2)])
    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (0.5, -2.0),
                                            (1.0, 1.0)])
    def test_correct(self, mats, ws, m, k, n, alpha, beta):
        from repro.core.textbook import textbook_level

        a, b, c = mats(m, k, n)
        expect = alpha * (a @ b) + beta * c
        ctx = ExecutionContext()
        textbook_level(a, b, c, alpha, beta, ctx=ctx, ws=ws,
                       recurse=base_recurse(ctx))
        np.testing.assert_allclose(c, expect, atol=1e-11)

    def test_thirteen_quarters_memory_per_level(self, mats, ws):
        from repro.core.textbook import textbook_level

        m, k, n = 8, 12, 16
        a, b, c = mats(m, k, n)
        ctx = ExecutionContext()
        textbook_level(a, b, c, 1.0, 1.0, ctx=ctx, ws=ws,
                       recurse=base_recurse(ctx))
        expect = 3 * (m * k + k * n) / 4 + 7 * m * n / 4
        assert ws.peak_elements == expect

    def test_fifteen_algorithm_adds_plus_four_merges(self, mats):
        """8 stage-(1)/(2) + 7 U-tree additions = the minimal 15; plus
        4 beta-scaled C merges that C-reuse schedules avoid — so the
        'straightforward' schedule actually charges MORE G-ops (19)
        than STRASSEN1's flattened 18."""
        from repro.core.textbook import textbook_level

        a, b, c = mats(8, 8, 8)
        ctx = ExecutionContext()
        ws = Workspace()
        textbook_level(a, b, c, 1.0, 1.0, ctx=ctx, ws=ws,
                       recurse=base_recurse(ctx))
        adds = sum(ctx.kernel_calls[k]
                   for k in ("madd", "msub", "accum", "axpby"))
        assert adds == 19

    def test_driver_scheme_memory_thirteen_thirds(self):
        from repro.core.dgefmm import dgefmm
        from repro.core.cutoff import SimpleCutoff
        from repro.phantom import Phantom

        m = 1024
        ctx = ExecutionContext(dry=True)
        ws = Workspace(dry=True)
        dgefmm(Phantom(m, m), Phantom(m, m), Phantom(m, m), 1.0, 1.0,
               scheme="textbook", cutoff=SimpleCutoff(16),
               ctx=ctx, workspace=ws)
        assert ws.peak_elements / m**2 == pytest.approx(13 / 3, abs=0.05)
