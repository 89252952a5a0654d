"""Task-parallel DGEFMM (pdgefmm): correctness, structure, exactness."""

from collections import Counter

import numpy as np
import pytest

from repro.context import ExecutionContext
from repro.core.cutoff import DepthCutoff, NeverRecurse, SimpleCutoff
from repro.core.dgefmm import dgefmm
from repro.core.parallel import parallel_arena_count, pdgefmm
from repro.core.pool import WorkspacePool
from repro.core.schemes import SCHEME_NAMES
from repro.core.workspace import Workspace
from repro.errors import ArgumentError, DimensionError
from repro.phantom import Phantom
from repro.plan import PlanCache

CUT = SimpleCutoff(8)


class TestCorrectness:
    @pytest.mark.parametrize("m,k,n", [(32, 32, 32), (63, 65, 67),
                                       (33, 9, 65), (5, 3, 4), (2, 2, 2),
                                       (40, 40, 1)])
    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (0.5, -2.0),
                                            (1.0, 1.0)])
    def test_matches_numpy(self, rng, m, k, n, alpha, beta):
        a = np.asfortranarray(rng.standard_normal((m, k)))
        b = np.asfortranarray(rng.standard_normal((k, n)))
        c = np.asfortranarray(rng.standard_normal((m, n)))
        expect = alpha * (a @ b) + beta * c
        pdgefmm(a, b, c, alpha, beta, cutoff=CUT)
        np.testing.assert_allclose(c, expect, atol=1e-9)

    @pytest.mark.parametrize("workers", [1, 2, 7])
    def test_worker_counts_agree(self, rng, workers):
        a = np.asfortranarray(rng.standard_normal((48, 48)))
        b = np.asfortranarray(rng.standard_normal((48, 48)))
        c = np.zeros((48, 48), order="F")
        pdgefmm(a, b, c, workers=workers, cutoff=CUT)
        np.testing.assert_allclose(c, a @ b, atol=1e-10)

    def test_matches_serial_dgefmm(self, rng):
        a = np.asfortranarray(rng.standard_normal((60, 44)))
        b = np.asfortranarray(rng.standard_normal((44, 52)))
        c1 = np.asfortranarray(rng.standard_normal((60, 52)))
        c2 = c1.copy(order="F")
        dgefmm(a, b, c1, 0.5, 1.5, cutoff=CUT)
        pdgefmm(a, b, c2, 0.5, 1.5, cutoff=CUT)
        np.testing.assert_allclose(c1, c2, atol=1e-10)

    def test_transposes(self, rng):
        a = np.asfortranarray(rng.standard_normal((30, 20)))
        b = np.asfortranarray(rng.standard_normal((40, 30)))
        c = np.zeros((20, 40), order="F")
        pdgefmm(a, b, c, transa=True, transb=True, cutoff=CUT)
        np.testing.assert_allclose(c, a.T @ b.T, atol=1e-10)

    def test_complex(self, rng):
        a = np.asfortranarray(rng.standard_normal((24, 24))
                              + 1j * rng.standard_normal((24, 24)))
        b = np.asfortranarray(rng.standard_normal((24, 24))
                              + 1j * rng.standard_normal((24, 24)))
        c = np.zeros((24, 24), dtype=complex, order="F")
        pdgefmm(a, b, c, cutoff=CUT)
        np.testing.assert_allclose(c, a @ b, atol=1e-10)


class TestStructure:
    def test_falls_back_to_serial_below_cutoff(self, rng):
        a = np.asfortranarray(rng.standard_normal((10, 10)))
        b = np.asfortranarray(rng.standard_normal((10, 10)))
        c = np.zeros((10, 10), order="F")
        ctx = ExecutionContext()
        pdgefmm(a, b, c, cutoff=NeverRecurse(), ctx=ctx)
        assert ctx.kernel_calls["dgemm"] == 1  # plain base multiply

    def test_instrumentation_merged_from_workers(self, rng):
        a = np.asfortranarray(rng.standard_normal((64, 64)))
        b = np.asfortranarray(rng.standard_normal((64, 64)))
        c = np.zeros((64, 64), order="F")
        ctx_p = ExecutionContext()
        pdgefmm(a, b, c, cutoff=SimpleCutoff(16), ctx=ctx_p)
        ctx_s = ExecutionContext()
        dgefmm(a, b, c, cutoff=SimpleCutoff(16), ctx=ctx_s)
        # same multiply count as serial (identical algebra)
        assert ctx_p.mul_flops == ctx_s.mul_flops

    def test_memory_trade_visible(self, rng):
        """The parallel level holds all S/T/P blocks: more workspace
        than the serial schedules (the documented trade)."""
        m = 64
        a = np.asfortranarray(rng.standard_normal((m, m)))
        b = np.asfortranarray(rng.standard_normal((m, m)))
        c = np.zeros((m, m), order="F")
        ctx_p = ExecutionContext()
        pdgefmm(a, b, c, cutoff=SimpleCutoff(16), ctx=ctx_p)
        peak_p = ctx_p.stats["workspace_peak_bytes"]
        ws_s = Workspace()
        dgefmm(a, b, c, cutoff=SimpleCutoff(16), workspace=ws_s)
        assert peak_p > ws_s.peak_bytes
        # first-level footprint ~ mk + kn + 7mn/4 elements
        assert peak_p / c.itemsize >= (2 + 7 / 4) * (m / 2) ** 2 * 4 * 0.9

    def test_dry_mode_rejected(self):
        ctx = ExecutionContext(dry=True)
        with pytest.raises(DimensionError):
            pdgefmm(Phantom(8, 8), Phantom(8, 8), Phantom(8, 8), ctx=ctx)

    def test_bad_workers(self, rng):
        a = np.zeros((4, 4), order="F")
        with pytest.raises(DimensionError):
            pdgefmm(a, a, a.copy(order="F"), workers=0)

    def test_bad_depth(self):
        a = np.zeros((4, 4), order="F")
        with pytest.raises(DimensionError):
            pdgefmm(a, a, a.copy(order="F"), max_parallel_depth=0)

    def test_bad_scheme_rejected(self):
        a = np.zeros((16, 16), order="F")
        with pytest.raises(ArgumentError):
            pdgefmm(a, a, a.copy(order="F"), scheme="nope")

    def test_bad_peel_rejected(self):
        a = np.zeros((16, 16), order="F")
        with pytest.raises(ArgumentError):
            pdgefmm(a, a, a.copy(order="F"), peel="middle")


class TestDepthCutoff:
    """DepthCutoff is frozen now (depth rides the traversal, not the
    criterion), so the parallel driver accepts it — with exactly the
    serial driver's recursion structure."""

    @pytest.mark.parametrize("limit,expected", [(1, 7), (2, 49), (3, 343)])
    def test_exact_kernel_counts(self, rng, limit, expected):
        m = 64
        a = np.asfortranarray(rng.standard_normal((m, m)))
        b = np.asfortranarray(rng.standard_normal((m, m)))
        ctx = ExecutionContext()
        pdgefmm(a, b, np.zeros((m, m), order="F"),
                cutoff=DepthCutoff(limit), ctx=ctx, workers=7)
        assert ctx.kernel_calls["dgemm"] == expected

    @pytest.mark.parametrize("pdepth", [1, 2])
    def test_counts_match_serial(self, rng, pdepth):
        """Serial subtrees below the parallel region continue at their
        true depth, so DepthCutoff sees one consistent recursion."""
        m = 96
        a = np.asfortranarray(rng.standard_normal((m, m)))
        b = np.asfortranarray(rng.standard_normal((m, m)))
        crit = DepthCutoff(3)
        ctx_s = ExecutionContext()
        dgefmm(a, b, np.zeros((m, m), order="F"), cutoff=crit, ctx=ctx_s)
        ctx_p = ExecutionContext()
        pdgefmm(a, b, np.zeros((m, m), order="F"), cutoff=crit,
                ctx=ctx_p, workers=14, max_parallel_depth=pdepth)
        assert ctx_p.kernel_calls["dgemm"] == ctx_s.kernel_calls["dgemm"]
        assert ctx_p.mul_flops == ctx_s.mul_flops

    def test_shared_across_concurrent_calls(self, rng):
        """One frozen DepthCutoff instance shared by concurrent pdgefmm
        calls stays correct — the old stateful version could not."""
        from concurrent.futures import ThreadPoolExecutor

        crit = DepthCutoff(2)
        m = 48
        a = np.asfortranarray(rng.standard_normal((m, m)))
        b = np.asfortranarray(rng.standard_normal((m, m)))
        expect = a @ b

        def one(_):
            c = np.zeros((m, m), order="F")
            ctx = ExecutionContext()
            pdgefmm(a, b, c, cutoff=crit, ctx=ctx, workers=7)
            return c, ctx.kernel_calls["dgemm"]

        with ThreadPoolExecutor(max_workers=8) as tp:
            outs = list(tp.map(one, range(16)))
        for c, kernels in outs:
            assert kernels == 49
            np.testing.assert_allclose(c, expect, atol=1e-10)


class TestSchemeParity:
    """pdgefmm accepts the full serial knob set for every registry
    scheme; its results are schedule-independent and match numpy."""

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    @pytest.mark.parametrize("peel", ["tail", "head"])
    def test_matches_numpy_all_knobs(self, rng, scheme, peel):
        m, k, n = 45, 37, 53
        a = np.asfortranarray(rng.standard_normal((m, k)))
        b = np.asfortranarray(rng.standard_normal((k, n)))
        c = np.asfortranarray(rng.standard_normal((m, n)))
        expect = 0.5 * (a @ b) + 1.5 * c
        pdgefmm(a, b, c, 0.5, 1.5, cutoff=CUT, scheme=scheme, peel=peel)
        np.testing.assert_allclose(c, expect, atol=1e-9)
        # the exact dtypes equal numpy exactly
        ai, bi, ci = (rng.integers(-99, 100, x.shape) for x in (a, b, c))
        for dt in (np.int64, object):
            got = np.asfortranarray(ci.astype(dt))
            pdgefmm(np.asfortranarray(ai.astype(dt)),
                    np.asfortranarray(bi.astype(dt)), got, 3, -2,
                    cutoff=CUT, scheme=scheme, peel=peel)
            assert np.array_equal(got.astype(np.int64),
                                  3 * (ai @ bi) - 2 * ci), dt

    @pytest.mark.parametrize("scheme", ["auto", "strassen1", "strassen2"])
    def test_kernel_counts_invariant_under_hammer(self, rng, scheme):
        """8-thread hammer: identical results and counters for every
        budget, for every scheme (the structure never sees the budget)."""
        m = 72
        a = np.asfortranarray(rng.standard_normal((m, m)))
        b = np.asfortranarray(rng.standard_normal((m, m)))
        seen = set()
        outs = []
        for workers in (1, 8):
            c = np.asfortranarray(rng.standard_normal((m, m)) * 0 + 1.0)
            ctx = ExecutionContext()
            pdgefmm(a, b, c, 0.5, 1.5, cutoff=CUT, scheme=scheme,
                    ctx=ctx, workers=workers)
            seen.add((ctx.mul_flops, ctx.add_flops,
                      tuple(sorted(ctx.kernel_calls.items()))))
            outs.append(c)
        assert len(seen) == 1
        assert np.array_equal(outs[0], outs[1])

    @pytest.mark.parametrize("scheme,peel", [("auto", "tail"),
                                             ("strassen1", "head"),
                                             ("strassen2", "tail"),
                                             ("textbook", "tail")])
    def test_bit_determinism_under_hammer(self, rng, scheme, peel):
        """8 concurrent calls with the same knobs produce bit-identical
        outputs: the thread schedule never reorders the arithmetic."""
        from concurrent.futures import ThreadPoolExecutor

        m, k, n = 51, 43, 49
        a = np.asfortranarray(rng.standard_normal((m, k)))
        b = np.asfortranarray(rng.standard_normal((k, n)))
        c0 = np.asfortranarray(rng.standard_normal((m, n)))

        def one(_):
            c = c0.copy(order="F")
            pdgefmm(a, b, c, 0.5, 1.5, cutoff=CUT, scheme=scheme,
                    peel=peel, workers=8)
            return c

        with ThreadPoolExecutor(max_workers=8) as tp:
            outs = list(tp.map(one, range(8)))
        for c in outs[1:]:
            assert np.array_equal(outs[0], c)

    @pytest.mark.parametrize("case", ["top-base", "object"])
    def test_non_parallel_calls_take_dgefmm_path(self, rng, monkeypatch,
                                                 case):
        """A top-level base case is pdgefmm's one fallback: it runs
        dgefmm's walk, bit-identically, with dgefmm's tallies.  An
        object-dtype problem parallelises like int64: exact, with the
        parallel level's tallies.  Neither compiles a plan."""
        import repro.plan.compiler as compiler

        def refuse(sig):
            raise AssertionError(f"pdgefmm compiled {sig}")

        monkeypatch.setattr(compiler, "compile_plan", refuse)
        m, k, n = (6, 5, 7) if case == "top-base" else (40, 36, 44)
        alpha, beta, knobs = 0.5, 1.5, {"cutoff": CUT}
        a = np.asfortranarray(rng.standard_normal((m, k)))
        b = np.asfortranarray(rng.standard_normal((k, n)))
        c_s = np.asfortranarray(rng.standard_normal((m, n)))
        if case == "object":
            alpha, beta = 2, -1
            a, b, c_s = (np.asfortranarray(
                rng.integers(-9, 10, x.shape).astype(object))
                for x in (a, b, c_s))
        c_p = c_s.copy(order="F")
        ctx_s, ctx_p = ExecutionContext(), ExecutionContext()
        dgefmm(a, b, c_s, alpha, beta, ctx=ctx_s, **knobs)
        pdgefmm(a, b, c_p, alpha, beta, workers=7, ctx=ctx_p, **knobs)
        assert np.array_equal(c_s, c_p)
        if case == "top-base":
            assert ctx_p.kernel_calls == ctx_s.kernel_calls
            return
        ctx_i = ExecutionContext()
        ints = (np.asfortranarray(x.astype(np.int64)) for x in (a, b, c_p))
        pdgefmm(*ints, alpha, beta, workers=7, ctx=ctx_i, **knobs)
        assert ctx_p.kernel_calls == ctx_i.kernel_calls
        assert ctx_p.kernel_calls != ctx_s.kernel_calls

    @pytest.mark.parametrize("peel", ["tail", "head"])
    @pytest.mark.parametrize("m,k,n", [(36, 36, 36), (37, 35, 33),
                                       (29, 31, 41)])
    def test_int64_bdpz_peel_below_parallel_level(self, rng, peel, m, k,
                                                  n):
        """Regression: a BDPZ level negates its branch's literal alpha,
        and the peeling fix-up below it scaled an int64 buffer by -1.0
        (UFuncTypeError).  Exact plans carry integral literals."""
        a = np.asfortranarray(rng.integers(-99, 100, (m, k)))
        b = np.asfortranarray(rng.integers(-99, 100, (k, n)))
        c = np.zeros((m, n), dtype=np.int64, order="F")
        pdgefmm(a, b, c, scheme="bdpz", peel=peel, cutoff=SimpleCutoff(4),
                workers=2)
        assert np.array_equal(c, a @ b)

    def test_backend_kwarg_accepted(self, rng):
        m = 48
        a = np.asfortranarray(rng.standard_normal((m, m)))
        b = np.asfortranarray(rng.standard_normal((m, m)))
        c = np.zeros((m, m), order="F")
        pdgefmm(a, b, c, cutoff=CUT, backend="vendor")
        np.testing.assert_allclose(c, a @ b, atol=1e-10)

    def test_head_peel_matches_tail_numerically(self, rng):
        m, k, n = 33, 35, 37
        a = np.asfortranarray(rng.standard_normal((m, k)))
        b = np.asfortranarray(rng.standard_normal((k, n)))
        c_t = np.zeros((m, n), order="F")
        c_h = np.zeros((m, n), order="F")
        pdgefmm(a, b, c_t, cutoff=CUT, peel="tail")
        pdgefmm(a, b, c_h, cutoff=CUT, peel="head")
        np.testing.assert_allclose(c_t, a @ b, atol=1e-9)
        np.testing.assert_allclose(c_h, a @ b, atol=1e-9)


class TestMultiLevel:
    """The multi-level engine: deeper parallel recursion, budget split."""

    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("workers", [1, 7, 14, 49])
    def test_correctness_at_depth(self, rng, depth, workers):
        m = 72
        a = np.asfortranarray(rng.standard_normal((m, m)))
        b = np.asfortranarray(rng.standard_normal((m, m)))
        c = np.asfortranarray(rng.standard_normal((m, m)))
        expect = 0.5 * (a @ b) + 1.5 * c
        pdgefmm(a, b, c, 0.5, 1.5, cutoff=CUT, workers=workers,
                max_parallel_depth=depth)
        np.testing.assert_allclose(c, expect, atol=1e-9)

    def test_deeper_than_cutoff_is_harmless(self, rng):
        """A depth the cutoff never reaches degenerates gracefully."""
        a = np.asfortranarray(rng.standard_normal((20, 20)))
        b = np.asfortranarray(rng.standard_normal((20, 20)))
        c = np.zeros((20, 20), order="F")
        pdgefmm(a, b, c, cutoff=SimpleCutoff(16), workers=7,
                max_parallel_depth=4)
        np.testing.assert_allclose(c, a @ b, atol=1e-10)

    def test_arena_count_helper(self):
        assert parallel_arena_count(7, 1) == 8          # 1 + 7 leaves
        assert parallel_arena_count(14, 2) == 22        # 1 + 7*(1 + 2)
        assert parallel_arena_count(1, 1) == 2
        assert parallel_arena_count(49, 2) == 57        # 1 + 7*(1 + 7)

    def test_arena_count_validates(self):
        with pytest.raises(DimensionError):
            parallel_arena_count(0, 1)
        with pytest.raises(DimensionError):
            parallel_arena_count(7, 0)


class TestInstrumentationExactness:
    """Op counts and workspace accounting must be exact — identical to a
    serial execution of the same schedule — no matter how many threads
    actually ran (the merge is per-job, in job order)."""

    @pytest.mark.parametrize("depth", [1, 2])
    def test_opcounts_identical_to_serial_dgefmm(self, rng, depth):
        m = 96
        a = np.asfortranarray(rng.standard_normal((m, m)))
        b = np.asfortranarray(rng.standard_normal((m, m)))
        crit = SimpleCutoff(16)
        ctx_s = ExecutionContext()
        dgefmm(a, b, np.zeros((m, m), order="F"), cutoff=crit, ctx=ctx_s)
        ctx_p = ExecutionContext()
        pdgefmm(a, b, np.zeros((m, m), order="F"), cutoff=crit,
                ctx=ctx_p, workers=14, max_parallel_depth=depth)
        # same multiplies and same base-case recursion structure: the
        # parallel levels replace serial levels one-for-one
        assert ctx_p.mul_flops == ctx_s.mul_flops
        assert ctx_p.kernel_calls["dgemm"] == ctx_s.kernel_calls["dgemm"]

    @pytest.mark.parametrize("depth", [1, 2])
    def test_counters_independent_of_workers(self, rng, depth):
        """Identical instrumentation for every worker budget at a fixed
        depth: the budget steers execution, never the recursion."""
        m = 96
        a = np.asfortranarray(rng.standard_normal((m, m)))
        b = np.asfortranarray(rng.standard_normal((m, m)))
        crit = SimpleCutoff(16)
        seen = set()
        for workers in (1, 7, 14):
            ctx = ExecutionContext()
            pdgefmm(a, b, np.zeros((m, m), order="F"), cutoff=crit,
                    ctx=ctx, workers=workers, max_parallel_depth=depth)
            seen.add((
                ctx.mul_flops, ctx.add_flops, ctx.flops,
                tuple(sorted(ctx.kernel_calls.items())),
                ctx.stats["workspace_peak_bytes"],
            ))
        assert len(seen) == 1

    @pytest.mark.parametrize("depth", [1, 2])
    def test_peak_accounting_deterministic_and_pool_invariant(self, rng,
                                                              depth):
        """The reported workspace peak is the deterministic bound (level
        arenas + all worker peaks) whether arenas are pooled or fresh."""
        m = 96
        a = np.asfortranarray(rng.standard_normal((m, m)))
        b = np.asfortranarray(rng.standard_normal((m, m)))
        crit = SimpleCutoff(16)
        peaks = set()
        for pool in (None, WorkspacePool()):
            for _ in range(2):  # warm and cold pool must agree too
                ctx = ExecutionContext()
                pdgefmm(a, b, np.zeros((m, m), order="F"), cutoff=crit,
                        ctx=ctx, workers=7, max_parallel_depth=depth,
                        pool=pool)
                peaks.add(ctx.stats["workspace_peak_bytes"])
        assert len(peaks) == 1
        # depth 2 holds strictly more concurrent blocks than depth 1
        if depth == 2:
            ctx1 = ExecutionContext()
            pdgefmm(a, b, np.zeros((m, m), order="F"), cutoff=crit,
                    ctx=ctx1, workers=7, max_parallel_depth=1)
            assert peaks.pop() > ctx1.stats["workspace_peak_bytes"]

    def test_elapsed_is_summed_worker_time(self, rng):
        """With a machine model attached, pdgefmm's elapsed equals the
        serial work measure — summed across workers, not wall clock."""
        from repro.machines import RS6000

        m = 64
        a = np.asfortranarray(rng.standard_normal((m, m)))
        b = np.asfortranarray(rng.standard_normal((m, m)))
        crit = SimpleCutoff(16)
        ctx1 = ExecutionContext(RS6000)
        pdgefmm(a, b, np.zeros((m, m), order="F"), cutoff=crit,
                ctx=ctx1, workers=1, max_parallel_depth=2)
        ctx7 = ExecutionContext(RS6000)
        pdgefmm(a, b, np.zeros((m, m), order="F"), cutoff=crit,
                ctx=ctx7, workers=14, max_parallel_depth=2)
        assert ctx1.elapsed > 0
        assert ctx7.elapsed == pytest.approx(ctx1.elapsed, rel=1e-12)


class TestLiveLevel:
    """Parallel levels run live: traced like the walk, compiling
    nothing, and caching only their products' fused plans."""

    @pytest.mark.parametrize("depth", [1, 2])
    def test_trace_events_match_dgefmm(self, rng, depth):
        """Every parallel-level node records its peel and recurse events
        at its true depth, as dgefmm's walk does."""
        m = 67
        a = np.asfortranarray(rng.standard_normal((m, m)))
        b = np.asfortranarray(rng.standard_normal((m, m)))
        crit = SimpleCutoff(16)
        events = []
        for drive, kw in ((dgefmm, {}),
                          (pdgefmm, dict(workers=2,
                                         max_parallel_depth=depth))):
            ctx = ExecutionContext(trace=True)
            drive(a, b, np.zeros((m, m), order="F"), cutoff=crit, ctx=ctx,
                  **kw)
            events.append(Counter((e.action, e.m, e.k, e.n, e.depth)
                                  for e in ctx.events))
        assert events[0] == events[1]
        assert events[1][("recurse", 66, 66, 66, 0)] == 1

    @pytest.mark.parametrize("workers,depth", [(1, 1), (2, 1), (7, 2),
                                               (14, 2)])
    def test_substrate_compiles_nothing(self, rng, monkeypatch, workers,
                                        depth):
        import repro.plan.cache as cache_mod
        import repro.plan.compiler as compiler

        def refuse(sig):
            raise AssertionError(f"pdgefmm compiled {sig}")

        monkeypatch.setattr(compiler, "compile_plan", refuse)
        monkeypatch.setattr(cache_mod, "compile_plan", refuse)
        m, k, n = 45, 37, 53
        a = np.asfortranarray(rng.standard_normal((m, k)))
        b = np.asfortranarray(rng.standard_normal((k, n)))
        c0 = np.asfortranarray(rng.standard_normal((m, n)))
        expect = 0.5 * (a @ b) + 1.5 * c0
        for pool in (None, WorkspacePool()):
            for cache in (None, PlanCache()):
                c = c0.copy(order="F")
                pdgefmm(a, b, c, 0.5, 1.5, cutoff=CUT, workers=workers,
                        max_parallel_depth=depth, pool=pool,
                        plan_cache=cache)
                np.testing.assert_allclose(c, expect, atol=1e-9)
                assert cache is None or len(cache) == 0

    @pytest.mark.parametrize("depth", [1, 2])
    def test_vendor_products_replay_depth_keyed_plans(self, rng, depth):
        """Under DepthCutoff(3), a vendor call with a cache equals the
        uncached call bit for bit; its cached plans are its products'
        fused plans at their depth, and a second call only hits."""
        m, k, n = 67, 59, 71
        a = np.asfortranarray(rng.standard_normal((m, k)))
        b = np.asfortranarray(rng.standard_normal((k, n)))
        c0 = np.asfortranarray(rng.standard_normal((m, n)))
        knobs = dict(cutoff=DepthCutoff(3), workers=2,
                     max_parallel_depth=depth, backend="vendor")
        cache = PlanCache()
        cached = c0.copy(order="F")
        pdgefmm(a, b, cached, 1.5, 0.5, plan_cache=cache, **knobs)
        plain = c0.copy(order="F")
        pdgefmm(a, b, plain, 1.5, 0.5, **knobs)
        assert np.array_equal(cached, plain)
        assert len(cache) > 0
        assert all(sig.depth == depth and sig.backend == "vendor"
                   for sig in cache._plans)
        misses, hits = cache.misses, cache.hits
        again = c0.copy(order="F")
        pdgefmm(a, b, again, 1.5, 0.5, plan_cache=cache, **knobs)
        assert np.array_equal(again, cached)
        assert cache.misses == misses and cache.hits > hits
