"""The plan subsystem: compiler, executor, cache, and CLI.

The load-bearing property is the three-way exactness cross-check: for a
grid of signatures (even, odd, prime, and degenerate dimensions), the
op/kernel tallies a compiled plan *predicts* must equal both what
:func:`recursion_profile` predicts analytically and what a live
instrumented vendor walk actually *does* — and replaying the plan must
reproduce the walk's result bit for bit with the same kernel counts.
A plan is the fused program of a vendor signature under fast accuracy,
so the walk it pairs with is ``dgefmm(backend="vendor")``.  Everything
else (LRU behaviour, pooled replay, validation errors) is mechanism
around that invariant.
"""

import numpy as np
import pytest

from repro.blas.level3 import DEFAULT_TILE
from repro.context import ExecutionContext
from repro.core.config import GemmConfig
from repro.core.cutoff import DepthCutoff, HybridCutoff, SimpleCutoff
from repro.core.dgefmm import dgefmm, zgefmm
from repro.core.parallel import pdgefmm
from repro.core.pool import WorkspacePool, workspace_bound_bytes
from repro.core.recursion import recursion_profile
from repro.errors import ArgumentError
from repro.plan import (
    PlanCache,
    PlanSignature,
    compile_plan,
    execute_plan,
    signature_for,
)
from repro.plan.ops import OP_EVENT

#: grid of op-shapes: powers of two, odd, prime, thin, and degenerate
GRID = [
    (16, 16, 16),
    (32, 32, 32),
    (17, 13, 19),      # primes: peeling at every level
    (24, 10, 31),
    (29, 29, 29),
    (33, 5, 120),      # thin k
    (1, 7, 9),
    (8, 0, 8),         # k == 0: pure C <- beta*C
    (0, 4, 4),         # empty output
]

CUT = SimpleCutoff(8)


def _sig(m, k, n, beta=0.0, scheme="auto", peel="tail", cutoff=CUT,
         dtype="float64", accuracy="fast", backend="vendor"):
    cfg = GemmConfig(scheme=scheme, peel=peel, cutoff=cutoff,
                     nb=DEFAULT_TILE, backend=backend,
                     dtype=dtype, accuracy=accuracy)
    return signature_for(m, k, n, False, False, False, beta == 0.0,
                         dtype, cfg)


def _events(events):
    return [(e.action, e.m, e.k, e.n, e.depth, e.scheme) for e in events]


class TestExactnessCrossCheck:
    """plan.counts == recursion_profile == live ExecutionContext."""

    @pytest.mark.parametrize("m,k,n", GRID)
    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_three_way_counts(self, rng, m, k, n, beta):
        plan = compile_plan(_sig(m, k, n, beta))
        prof = recursion_profile(m, k, n, CUT)
        for key in ("recurse", "base", "peel", "max_depth", "mul_flops",
                    "base_shapes"):
            assert plan.counts[key] == prof[key], key

        a = np.asfortranarray(rng.standard_normal((m, k)))
        b = np.asfortranarray(rng.standard_normal((k, n)))
        c_rec = np.asfortranarray(rng.standard_normal((m, n)))
        c_pln = c_rec.copy(order="F")
        ctx_r = ExecutionContext(trace=True)
        ctx_p = ExecutionContext()
        dgefmm(a, b, c_rec, 1.0, beta, cutoff=CUT, ctx=ctx_r,
               backend="vendor")
        execute_plan(plan, a, b, c_pln, 1.0, beta, ctx=ctx_p)

        assert np.array_equal(c_rec, c_pln)
        # what the plan predicted is what the replay did ...
        assert ctx_p.kernel_calls == plan.counts["kernel_calls"]
        # ... which is exactly what the recursion did
        assert ctx_p.kernel_calls == ctx_r.kernel_calls
        assert ctx_p.mul_flops == ctx_r.mul_flops
        assert ctx_p.add_flops == ctx_r.add_flops
        # the recorded stream holds the walk's events (action, dims,
        # depth, scheme)
        assert (_events(op[1] for op in plan.stream if op[0] == OP_EVENT)
                == _events(ctx_r.events))
        assert (ctx_p.stats["workspace_peak_bytes"]
                == ctx_r.stats["workspace_peak_bytes"])

    @pytest.mark.parametrize("scheme", ["auto", "strassen1",
                                        "strassen1_general", "strassen2",
                                        "textbook"])
    @pytest.mark.parametrize("peel", ["tail", "head"])
    def test_schemes_and_peel_sides(self, rng, scheme, peel):
        m, k, n = 37, 29, 41
        a = np.asfortranarray(rng.standard_normal((m, k)))
        b = np.asfortranarray(rng.standard_normal((k, n)))
        c_rec = np.asfortranarray(rng.standard_normal((m, n)))
        c_pln = c_rec.copy(order="F")
        ctx_r, ctx_p = ExecutionContext(), ExecutionContext()
        dgefmm(a, b, c_rec, 1.5, 0.5, cutoff=CUT, scheme=scheme,
               peel=peel, ctx=ctx_r, backend="vendor")
        plan = compile_plan(_sig(m, k, n, 0.5, scheme, peel))
        execute_plan(plan, a, b, c_pln, 1.5, 0.5, ctx=ctx_p)
        assert np.array_equal(c_rec, c_pln)
        assert ctx_p.kernel_calls == ctx_r.kernel_calls

    @pytest.mark.parametrize("cutoff", [
        SimpleCutoff(4),
        HybridCutoff(tau=16, tau_m=12, tau_k=12, tau_n=12),
        DepthCutoff(2),
    ])
    def test_cutoff_criteria(self, rng, cutoff):
        m, k, n = 45, 51, 39
        plan = compile_plan(_sig(m, k, n, cutoff=cutoff))
        prof = recursion_profile(m, k, n, cutoff)
        assert plan.counts["base"] == prof["base"]
        a = np.asfortranarray(rng.standard_normal((m, k)))
        b = np.asfortranarray(rng.standard_normal((k, n)))
        c_rec = np.zeros((m, n), order="F")
        c_pln = np.zeros((m, n), order="F")
        dgefmm(a, b, c_rec, cutoff=cutoff, backend="vendor")
        execute_plan(plan, a, b, c_pln, 1.0, 0.0,
                     ctx=ExecutionContext())
        assert np.array_equal(c_rec, c_pln)

    def test_alpha_zero_class(self, rng):
        """alpha == 0 compiles to the degenerate C <- beta*C plan."""
        m, k, n = 24, 24, 24
        sig = signature_for(m, k, n, False, False, True, False,
                            "float64", GemmConfig(cutoff=CUT,
                                                  backend="vendor"))
        plan = compile_plan(sig)
        assert plan.counts["base"] == 0
        c_rec = np.asfortranarray(rng.standard_normal((m, n)))
        c_pln = c_rec.copy(order="F")
        a = np.asfortranarray(rng.standard_normal((m, k)))
        b = np.asfortranarray(rng.standard_normal((k, n)))
        dgefmm(a, b, c_rec, 0.0, 0.75, cutoff=CUT, backend="vendor")
        execute_plan(plan, a, b, c_pln, 0.0, 0.75,
                     ctx=ExecutionContext())
        assert np.array_equal(c_rec, c_pln)


class TestFusableOnly:
    """A plan is a fused vendor program: every other signature is
    refused at compile time (``tests/test_fuse.py`` pins the contexts
    replay refuses)."""

    @pytest.mark.parametrize("knobs", [
        dict(backend="substrate"),
        dict(dtype="float32", accuracy="compensated"),
        dict(dtype="int64", accuracy="exact"),
        dict(dtype="object", accuracy="exact"),
    ], ids=["substrate", "compensated", "int64", "object"])
    def test_compile_refuses_unfusable_signatures(self, knobs):
        sig = _sig(16, 16, 16, **knobs)
        assert not sig.config().fusable
        with pytest.raises(ArgumentError, match="fusable"):
            compile_plan(sig)


class TestParallelPlans:
    """``pdgefmm`` compiles no plan of its own: its parallel levels run
    live, and only a recursing vendor product under fast accuracy
    replays a plan, its fused one from the cache."""

    @pytest.mark.parametrize("workers,depth", [(1, 1), (7, 1), (14, 2)])
    def test_parallel_plan_matches_pdgefmm(self, rng, workers, depth):
        """A call whose products replay cached fused plans equals the
        same call walking every product: bits, tallies and charge."""
        m = k = n = 96
        crit = SimpleCutoff(16)
        a = np.asfortranarray(rng.standard_normal((m, k)))
        b = np.asfortranarray(rng.standard_normal((k, n)))
        c1 = np.asfortranarray(rng.standard_normal((m, n)))
        c2 = c1.copy(order="F")
        ctx1, ctx2 = ExecutionContext(), ExecutionContext()
        cache = PlanCache()
        knobs = dict(cutoff=crit, workers=workers, max_parallel_depth=depth,
                     backend="vendor")
        pdgefmm(a, b, c1, 1.25, 0.5, ctx=ctx1, plan_cache=cache, **knobs)
        pdgefmm(a, b, c2, 1.25, 0.5, ctx=ctx2, **knobs)
        assert np.array_equal(c1, c2)
        assert ctx1.kernel_calls == ctx2.kernel_calls
        assert (ctx1.mul_flops, ctx1.add_flops) == (ctx2.mul_flops,
                                                    ctx2.add_flops)
        assert (ctx1.stats["workspace_peak_bytes"]
                == ctx2.stats["workspace_peak_bytes"])
        # one fused plan per product shape, keyed by the product's depth
        assert {sig.depth for sig in cache._plans} == {depth}
        assert ctx1.stats["plan_cache"]["misses"] == len(cache)

    def test_parallel_plan_structure(self, rng):
        """The charge is the deterministic bound: the level's own S, T
        and P blocks plus every product's walk peak."""
        from repro.core.schemes import LEVEL_SCHEME, get_scheme
        from repro.core.uvw import _is_block, nonzero_rows

        m, h, crit = 128, 64, SimpleCutoff(32)
        a = np.asfortranarray(rng.standard_normal((m, m)))
        b = np.asfortranarray(rng.standard_normal((m, m)))
        ctx = ExecutionContext()
        pdgefmm(a, b, np.zeros((m, m), order="F"), cutoff=crit, workers=7,
                ctx=ctx)
        product = ExecutionContext()
        dgefmm(a[:h, :h], b[:h, :h], np.zeros((h, h), order="F"),
               cutoff=crit, ctx=product)
        sch = get_scheme(LEVEL_SCHEME["s1b0"])
        blocks = sch.r + sum(not _is_block(row) for row in
                             nonzero_rows(sch.u) + nonzero_rows(sch.v))
        own = blocks * h * h * a.itemsize
        assert product.stats["workspace_peak_bytes"] > 0
        assert ctx.stats["workspace_peak_bytes"] == (
            own + sch.r * product.stats["workspace_peak_bytes"])


class TestPooledReplay:
    def test_warm_pool_zero_allocations(self, rng):
        m = k = n = 64
        crit = SimpleCutoff(16)
        pool = WorkspacePool(workspace_bound_bytes(m, k, n, "strassen1"))
        cache = PlanCache()
        a = np.asfortranarray(rng.standard_normal((m, k)))
        b = np.asfortranarray(rng.standard_normal((k, n)))
        c = np.zeros((m, n), order="F")
        dgefmm(a, b, c, cutoff=crit, pool=pool, plan_cache=cache,
               backend="vendor")
        warm = pool.new_buffer_bytes
        for _ in range(5):
            dgefmm(a, b, c, cutoff=crit, pool=pool, plan_cache=cache,
                   backend="vendor")
        assert pool.new_buffer_bytes == warm
        stats = cache.stats()
        assert stats == {**stats, "hits": 5, "misses": 1, "plans": 1}
        np.testing.assert_allclose(c, a @ b, atol=1e-10)

    def test_arena_reserved_to_plan_bytes(self, rng):
        """A pool hinted smaller than the plan's arena regrows once."""
        m, k, n = 48, 48, 48
        pool = WorkspacePool(1024)  # deliberately tiny hint
        cache = PlanCache()
        a = np.asfortranarray(rng.standard_normal((m, k)))
        b = np.asfortranarray(rng.standard_normal((k, n)))
        c = np.zeros((m, n), order="F")
        dgefmm(a, b, c, cutoff=SimpleCutoff(8), pool=pool,
               plan_cache=cache, backend="vendor")
        warm = pool.new_buffer_bytes
        dgefmm(a, b, c, cutoff=SimpleCutoff(8), pool=pool,
               plan_cache=cache, backend="vendor")
        assert pool.new_buffer_bytes == warm
        np.testing.assert_allclose(c, a @ b, atol=1e-10)


class TestOneSerialEngine:
    """``dgefmm`` picks its engine once per call from the root: a vendor
    call under fast accuracy with a cache replays its fused plan when
    the root recurses; every other serial call walks."""

    def test_unfused_calls_leave_the_cache_untouched(self, rng):
        m = k = n = 64
        crit = SimpleCutoff(16)
        pool = WorkspacePool()
        cache = PlanCache()
        a = np.asfortranarray(rng.standard_normal((m, k)))
        b = np.asfortranarray(rng.standard_normal((k, n)))
        ref = np.zeros((m, n), order="F")
        dgefmm(a, b, ref, cutoff=crit)
        c = np.zeros((m, n), order="F")
        ctx = ExecutionContext()
        dgefmm(a, b, c, cutoff=crit, pool=pool, plan_cache=cache, ctx=ctx)
        warm = pool.new_buffer_bytes
        for _ in range(3):
            dgefmm(a, b, c, cutoff=crit, pool=pool, plan_cache=cache)
        # a base-case pdgefmm root is dgefmm's path: it walks too
        pdgefmm(a, b, np.zeros((m, n), order="F"), cutoff=SimpleCutoff(64),
                pool=pool, plan_cache=cache)
        assert pool.new_buffer_bytes == warm
        assert np.array_equal(c, ref)
        assert "plan_cache" not in ctx.stats
        stats = cache.stats()
        for key in ("plans", "bytes", "hits", "misses", "evictions",
                    "cleared"):
            assert stats[key] == 0, key

    @pytest.mark.parametrize("order,cutoff", [
        (512, None),                 # BLAS_CUTOFF: a base-case root
        (96, SimpleCutoff(16)),      # recursing: fused replay
    ])
    def test_uncached_fused_call_equals_cached(self, rng, order, cutoff):
        a = np.asfortranarray(rng.standard_normal((order, order)))
        b = np.asfortranarray(rng.standard_normal((order, order)))
        c0 = np.asfortranarray(rng.standard_normal((order, order)))
        cached = c0.copy(order="F")
        dgefmm(a, b, cached, 1.0, 0.5, cutoff=cutoff, backend="vendor",
               plan_cache=PlanCache())
        ctx = ExecutionContext()
        uncached = c0.copy(order="F")
        dgefmm(a, b, uncached, 1.0, 0.5, cutoff=cutoff, backend="vendor",
               ctx=ctx)
        assert np.array_equal(uncached, cached)
        assert "plan_cache" not in ctx.stats
        par = c0.copy(order="F")
        pdgefmm(a, b, par, 1.0, 0.5, cutoff=cutoff, backend="vendor")
        if cutoff is None:           # a base-case root: dgefmm's path
            assert np.array_equal(par, cached)

    def test_root_picks_the_engine(self, rng, monkeypatch):
        """A base-case root never touches the cache, a recursing vendor
        root misses once and then hits, and with no cache nothing is
        compiled."""
        a = np.asfortranarray(rng.standard_normal((48, 48)))
        b = np.asfortranarray(rng.standard_normal((48, 48)))
        cache = PlanCache()
        for _ in range(2):
            c = np.zeros((48, 48), order="F")
            dgefmm(a, b, c, backend="vendor", plan_cache=cache)
        assert (cache.misses, cache.hits) == (0, 0)
        for _ in range(3):
            c = np.zeros((48, 48), order="F")
            dgefmm(a, b, c, cutoff=SimpleCutoff(16), backend="vendor",
                   plan_cache=cache)
        assert (cache.misses, cache.hits) == (1, 2)

        from repro.plan import cache as plan_cache_mod
        from repro.plan import compiler

        def refuse(*args, **kwargs):
            raise AssertionError("compiled without a plan cache")

        monkeypatch.setattr(compiler, "compile_plan", refuse)
        monkeypatch.setattr(compiler, "fuse_plan", refuse)
        monkeypatch.setattr(plan_cache_mod, "compile_plan", refuse)
        got = np.zeros((48, 48), order="F")
        dgefmm(a, b, got, cutoff=SimpleCutoff(16), backend="vendor")
        assert np.array_equal(got, c)

    def test_base_root_skips_the_pool(self, rng):
        """A base-case root checks out no arena, reports a zero
        workspace peak and returns the unpooled call's bits."""
        a = np.asfortranarray(rng.standard_normal((49, 21)))
        b = np.asfortranarray(rng.standard_normal((21, 78)))
        ref = np.zeros((49, 78), order="F")
        dgefmm(a, b, ref)
        pool = WorkspacePool()
        ctx = ExecutionContext()
        c = np.zeros((49, 78), order="F")
        dgefmm(a, b, c, pool=pool, ctx=ctx)
        assert np.array_equal(c, ref)
        assert ctx.stats["workspace_peak_bytes"] == 0
        stats = pool.stats()
        assert stats["created"] == 0 and stats["outstanding"] == 0


class TestPlanCache:
    def test_lru_eviction_by_count(self):
        cache = PlanCache(max_plans=2)
        s1, s2, s3 = (_sig(8, 8, 8), _sig(10, 10, 10), _sig(12, 12, 12))
        cache.get_or_compile(s1)
        cache.get_or_compile(s2)
        cache.get_or_compile(s1)       # s1 most recent
        cache.get_or_compile(s3)       # evicts s2
        assert cache.peek(s2) is None
        assert cache.peek(s1) is not None
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_eviction_by_bytes_keeps_newest(self):
        cache = PlanCache(max_plans=64, max_bytes=1)
        cache.get_or_compile(_sig(16, 16, 16))
        cache.get_or_compile(_sig(18, 18, 18))
        # over-bytes sheds history but never the entry just inserted
        assert len(cache) == 1
        assert cache.peek(_sig(18, 18, 18)) is not None

    def test_clear_and_stats(self):
        cache = PlanCache()
        cache.get_or_compile(_sig(8, 8, 8))
        cache.clear()
        assert len(cache) == 0
        s = cache.stats()
        assert s["plans"] == 0 and s["bytes"] == 0 and s["misses"] == 1

    def test_invalid_bounds(self):
        with pytest.raises(ArgumentError):
            PlanCache(max_plans=0)
        with pytest.raises(ArgumentError):
            PlanCache(max_bytes=0)

    def test_stats_surfaced_through_context(self, rng):
        cache = PlanCache()
        ctx = ExecutionContext()
        a = np.asfortranarray(rng.standard_normal((16, 16)))
        b = np.asfortranarray(rng.standard_normal((16, 16)))
        c = np.zeros((16, 16), order="F")
        dgefmm(a, b, c, cutoff=CUT, ctx=ctx, plan_cache=cache,
               backend="vendor")
        assert ctx.stats["plan_cache"]["misses"] == 1

    def test_hit_rate_agrees_with_stats(self):
        """hit_rate() and stats()["hit_rate"] share one denominator —
        every lookup counts, including those whose entries were later
        evicted or cleared — and an untouched cache reports 0.0."""
        cache = PlanCache(max_plans=1)
        assert cache.hit_rate() == 0.0              # no lookups: not a raise
        assert cache.stats()["hit_rate"] == 0.0
        s1, s2 = _sig(8, 8, 8), _sig(10, 10, 10)
        cache.get_or_compile(s1)                    # miss
        cache.get_or_compile(s1)                    # hit
        cache.get_or_compile(s2)                    # miss, evicts s1
        cache.get_or_compile(s1)                    # miss (evicted)
        cache.clear()
        cache.get_or_compile(s2)                    # miss (cleared)
        assert cache.hit_rate() == cache.stats()["hit_rate"] == 1 / 5

    def test_balance_holds_through_refused_compiles(self):
        """A refused compile counts nothing, so ``misses - evictions -
        plans == cleared`` holds through refusals, evictions and a
        clear."""
        cache = PlanCache(max_plans=1)
        refused = _sig(8, 8, 8, backend="substrate")

        def refuse():
            with pytest.raises(ArgumentError):
                cache.get_or_compile(refused)

        cache.get_or_compile(_sig(8, 8, 8))
        refuse()
        cache.get_or_compile(_sig(10, 10, 10))      # evicts 8x8x8
        refuse()
        cache.clear()
        refuse()
        cache.get_or_compile(_sig(12, 12, 12))
        s = cache.stats()
        assert (s["misses"], s["evictions"], s["plans"], s["cleared"]) == (
            3, 1, 1, 1)
        assert s["misses"] - s["evictions"] - s["plans"] == s["cleared"]

    def test_thread_safety_compiles_once(self, rng):
        import threading

        cache = PlanCache()
        sig = _sig(32, 32, 32)
        plans = []

        def worker():
            plans.append(cache.get_or_compile(sig))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.misses == 1 and cache.hits == 7
        assert all(p is plans[0] for p in plans)


class TestExecutorValidation:
    def test_shape_mismatch_rejected(self, rng):
        plan = compile_plan(_sig(16, 16, 16))
        a = np.asfortranarray(rng.standard_normal((16, 16)))
        c = np.zeros((16, 16), order="F")
        bad = np.asfortranarray(rng.standard_normal((8, 16)))
        with pytest.raises(ArgumentError):
            execute_plan(plan, bad, a, c, 1.0, 0.0,
                         ctx=ExecutionContext())

    def test_output_shape_mismatch_rejected(self, rng):
        """Wrong C must be rejected upfront, not fail mid-replay."""
        plan = compile_plan(_sig(16, 16, 16))
        a = np.asfortranarray(rng.standard_normal((16, 16)))
        for bad in ((8, 8), (16, 8)):
            with pytest.raises(ArgumentError):
                execute_plan(plan, a, a, np.zeros(bad, order="F"),
                             1.0, 0.0, ctx=ExecutionContext())

    def test_scalar_class_mismatch_rejected(self, rng):
        plan = compile_plan(_sig(16, 16, 16, beta=0.0))  # beta-zero plan
        a = np.asfortranarray(rng.standard_normal((16, 16)))
        b = np.asfortranarray(rng.standard_normal((16, 16)))
        c = np.zeros((16, 16), order="F")
        with pytest.raises(ArgumentError):
            execute_plan(plan, a, b, c, 1.0, 0.5,
                         ctx=ExecutionContext())

    def test_nonzero_scalar_values_are_free(self, rng):
        """Any nonzero alpha/beta replays on the same general plan."""
        plan = compile_plan(_sig(20, 20, 20, beta=0.5))
        a = np.asfortranarray(rng.standard_normal((20, 20)))
        b = np.asfortranarray(rng.standard_normal((20, 20)))
        for alpha, beta in [(2.0, 1.0), (-0.5, 3.25), (1e-3, -1.0)]:
            c_rec = np.asfortranarray(rng.standard_normal((20, 20)))
            c_pln = c_rec.copy(order="F")
            dgefmm(a, b, c_rec, alpha, beta, cutoff=CUT, backend="vendor")
            execute_plan(plan, a, b, c_pln, alpha, beta,
                         ctx=ExecutionContext())
            assert np.array_equal(c_rec, c_pln)


class TestPlanIntrospection:
    def test_describe_lists_ops(self):
        plan = compile_plan(_sig(12, 12, 12))
        lines = plan.describe(max_ops=8)
        assert any("gemm" in ln for ln in lines)
        assert len(lines) <= 9  # 8 ops + the "... more" marker

    def test_complex_plan_sizes_arena_for_16_byte_elements(self):
        pf = compile_plan(_sig(32, 32, 32, dtype="float64"))
        pz = compile_plan(_sig(32, 32, 32, dtype="complex128"))
        assert pz.arena_bytes >= 2 * pf.arena_bytes - 128
        assert pz.counts["base"] == pf.counts["base"]

    def test_zgefmm_plan_cache_roundtrip(self, rng):
        m, k, n = 21, 27, 25
        a = np.asfortranarray(rng.standard_normal((m, k))
                              + 1j * rng.standard_normal((m, k)))
        b = np.asfortranarray(rng.standard_normal((k, n))
                              + 1j * rng.standard_normal((k, n)))
        c1 = np.asfortranarray(rng.standard_normal((m, n))
                               + 1j * rng.standard_normal((m, n)))
        c2 = c1.copy(order="F")
        zgefmm(a, b, c1, 1 - 1j, 0.5j, cutoff=CUT, backend="vendor")
        cache = PlanCache()
        zgefmm(a, b, c2, 1 - 1j, 0.5j, cutoff=CUT, backend="vendor",
               plan_cache=cache)
        assert np.array_equal(c1, c2)
        assert cache.misses == 1


class TestPlanCLI:
    def test_plan_compile(self, capsys):
        from repro.__main__ import main

        assert main(["plan", "compile", "--order", "48",
                     "--cutoff", "12"]) == 0
        out = capsys.readouterr().out
        assert "signature:" in out and "kernel calls" in out

    def test_plan_compile_json(self, capsys):
        import json

        from repro.__main__ import main

        assert main(["plan", "compile", "--order", "48", "--cutoff", "12",
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bench"] == "plan_compile" and doc["schema"] == 1
        assert doc["rows"][0]["counts"]["base"] > 0

    def test_plan_explain(self, capsys):
        from repro.__main__ import main

        assert main(["plan", "explain", "--order", "16", "--cutoff", "8",
                     "--max-ops", "6"]) == 0
        out = capsys.readouterr().out
        assert "gemm" in out

    def test_plan_cache_stats_json(self, capsys):
        import json

        from repro.__main__ import main

        assert main(["plan", "cache-stats", "--order", "32",
                     "--cutoff", "8", "--repeat", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bench"] == "plan_cache"
        assert doc["rows"][0]["misses"] == len(doc["params"]["shapes"])
        assert doc["rows"][0]["hits"] > 0

    def test_plan_selftest(self, capsys):
        from repro.__main__ import main

        assert main(["plan", "--selftest"]) == 0
        out = capsys.readouterr().out
        assert "plan selftest: ok" in out

    def test_memory_json(self, capsys):
        import json

        from repro.__main__ import main

        assert main(["memory", "--order", "256", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bench"] == "memory" and doc["schema"] == 1
        assert any(r["implementation"] == "DGEFMM" for r in doc["rows"])

    def test_parallel_json(self, capsys):
        import json

        from repro.__main__ import main

        assert main(["parallel", "--order", "64", "--repeat", "1",
                     "--cutoff", "32", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bench"] == "parallel" and doc["schema"] == 1
        assert {r["label"] for r in doc["rows"]} == {"serial dgefmm",
                                                     "pdgefmm"}
        assert doc["summary"]["speedup"] > 0


class TestSignatureCompleteness:
    """Every behavior-affecting knob must be part of the cache key.

    This is the pin for the PlanSignature completeness audit (see the
    dataclass docstring in repro/plan/compiler.py): mutating one knob at
    a time on a square problem — where a transpose flips nothing about
    operand shapes — must give an unequal :func:`signature_for`.  The
    mutations that stay fusable drive the *driver* (not the cache
    directly) through one shared PlanCache, ``dgefmm(backend="vendor",
    plan_cache=)`` at a recursing root, and each must MISS.  A hit here
    would mean replaying a plan compiled for different semantics.  The
    others (another backend or accuracy) walk and leave the cache alone.
    """

    DIM = 12

    VARIANTS = [
        ("transa", dict(transa=True)),
        ("transb", dict(transb=True)),
        ("scheme", dict(scheme="strassen2")),
        ("peel", dict(peel="head")),
        ("nb", dict(nb=DEFAULT_TILE // 2)),
        ("dtype", dict(dtype="float32")),
        ("dtype-complex", dict(dtype="complex128")),
        ("cutoff", dict(cutoff=SimpleCutoff(6))),
        ("beta-class", dict(beta=0.0)),
        ("backend", dict(backend="substrate")),
        ("accuracy", dict(accuracy="compensated")),
    ]

    @staticmethod
    def _knobs(kw):
        kw = dict(kw)
        kw.setdefault("cutoff", SimpleCutoff(4))
        kw.setdefault("backend", "vendor")
        return kw

    def _signature(self, *, dtype="float64", beta=0.5, transa=False,
                   transb=False, **kw):
        cfg = GemmConfig(dtype=dtype, **self._knobs(kw))
        return signature_for(self.DIM, self.DIM, self.DIM, transa, transb,
                             False, beta == 0.0, dtype, cfg)

    def _drive(self, cache, rng, *, dtype="float64", beta=0.5, **kw):
        d = np.dtype(dtype)
        x = rng.standard_normal((self.DIM, self.DIM))
        if d.kind == "c":
            x = x + 1j * rng.standard_normal((self.DIM, self.DIM))
        a = np.asfortranarray(x.astype(d))
        b = np.asfortranarray(x.T.copy().astype(d))
        c = np.asfortranarray(x.copy().astype(d))
        dgefmm(a, b, c, 1.0, beta, plan_cache=cache, **self._knobs(kw))

    def test_each_knob_mutation_misses(self, rng):
        cache = PlanCache()
        self._drive(cache, rng)            # base signature
        assert (cache.misses, cache.hits) == (1, 0)
        seen = {self._signature()}
        for name, kw in self.VARIANTS:
            sig = self._signature(**kw)
            assert sig not in seen, f"{name} mutation kept the signature"
            seen.add(sig)
            misses = cache.misses
            self._drive(cache, rng, **kw)
            if sig.config().fusable:
                assert cache.misses == misses + 1, (
                    f"{name} mutation hit the cache")
                assert cache.peek(sig) is not None, name
            else:
                assert cache.misses == misses, f"{name} touched the cache"
        assert cache.hits == 0
        self._drive(cache, rng)            # base again: must hit now
        fusable = sum(self._signature(**kw).config().fusable
                      for _name, kw in self.VARIANTS)
        assert cache.hits == 1 and cache.misses == 1 + fusable

    def test_parallel_depth_in_key(self, rng):
        """A product's plan is keyed by its root depth: the 12^3
        products of one parallel level and the 6^3 products of two
        never share an entry."""
        cache = PlanCache()
        a = np.asfortranarray(rng.standard_normal((24, 24)))
        b = np.asfortranarray(rng.standard_normal((24, 24)))
        knobs = dict(cutoff=SimpleCutoff(4), backend="vendor",
                     plan_cache=cache)
        for depth in (1, 2):
            c = np.zeros((24, 24), order="F")
            pdgefmm(a, b, c, workers=2, max_parallel_depth=depth, **knobs)
        assert cache.misses == 2 and cache.hits == 6 + 48
        assert sorted((sig.m, sig.depth) for sig in cache._plans) == [
            (6, 2), (12, 1)]
        # workers is deliberately NOT in the key: budget-only replay
        c = np.zeros((24, 24), order="F")
        pdgefmm(a, b, c, workers=5, max_parallel_depth=2, **knobs)
        assert cache.hits == 6 + 48 + 49 and cache.misses == 2


class TestWarmFrontDoors:
    """A warm repeat through any front door rebuilds nothing.

    Counts ``GemmConfig`` validations, ``PlanSignature`` constructions
    and the ``np.dtype`` lookups of :mod:`repro.blas.dtypes` during one
    repeat of a call that has already run twice.  The memos start empty,
    so what earlier tests interned cannot have filled them.
    """

    @pytest.fixture
    def tally(self, monkeypatch):
        from collections import Counter

        from repro.blas import dtypes
        from repro.core import config
        from repro.plan import compiler

        monkeypatch.setattr(dtypes, "_CANONICAL", {})
        monkeypatch.setattr(config, "_CONFIGS", {})
        monkeypatch.setattr(compiler, "_SIGNATURES", {})
        counts = Counter()
        post_init = GemmConfig.__post_init__
        sig_init = PlanSignature.__init__

        def counted_post_init(self):
            counts["config"] += 1
            post_init(self)

        def counted_sig_init(self, *args, **kwargs):
            counts["signature"] += 1
            sig_init(self, *args, **kwargs)

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def dtype(self, spelling):
                counts["dtype"] += 1
                return np.dtype(spelling)

        monkeypatch.setattr(GemmConfig, "__post_init__", counted_post_init)
        monkeypatch.setattr(PlanSignature, "__init__", counted_sig_init)
        monkeypatch.setattr(dtypes, "np", CountingNumpy())
        return counts

    @staticmethod
    def _repeat(tally, fn):
        fn()
        fn()
        before = dict(tally)
        fn()
        assert dict(tally) == before, "a warm repeat rebuilt something"
        return before

    def test_library_front_doors(self, tally, rng):
        a = np.asfortranarray(rng.standard_normal((49, 21)))
        b = np.asfortranarray(rng.standard_normal((21, 78)))
        c = np.zeros((49, 78), order="F")
        big = np.asfortranarray(rng.standard_normal((40, 40)))
        out = np.zeros((40, 40), order="F")
        cache = PlanCache()
        pool = WorkspacePool()
        calls = {
            "walk": lambda: dgefmm(a, b, c),
            "planned": lambda: dgefmm(a, b, c, plan_cache=cache, pool=pool),
            "fused": lambda: dgefmm(a, b, c, plan_cache=cache, pool=pool,
                                    backend="vendor"),
            "vendor": lambda: dgefmm(a, b, c, backend="vendor"),
            "pdgefmm-base": lambda: pdgefmm(a, b, c, workers=2),
            "pdgefmm-parallel": lambda: pdgefmm(
                big, big, out, 1.0, 0.5, cutoff=CUT, workers=2,
                plan_cache=cache, pool=pool),
        }
        for name, fn in calls.items():
            warm = self._repeat(tally, fn)
            assert warm, f"{name}: the first calls built nothing to count"

    @pytest.mark.parametrize("vendor", [False, True])
    def test_service_admission(self, tally, rng, vendor):
        from repro.serve import GemmService

        a = rng.standard_normal((7, 96)).astype(np.float32)
        b = rng.standard_normal((96, 26)).astype(np.float32)
        c = rng.standard_normal((7, 26)).astype(np.float32)
        backend = "vendor" if vendor else "substrate"
        with GemmService(workers=1, backend=backend) as svc:
            self._repeat(tally, lambda: svc.submit(a, b, c, 1.0, 0.5)
                         .result(timeout=30))
