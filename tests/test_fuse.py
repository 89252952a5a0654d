"""The fusion pass (:mod:`repro.plan.fuse`) and fused replay.

Fused replay is the vendor backend's engine, not a knob: a plan is the
fused program of a vendor signature under fast accuracy, and
``dgefmm(backend="vendor", plan_cache=)`` replays it when the call's
root recurses.  The contract under test, in decreasing strictness:

1. **Vendor identity** — fused replay is bit-identical to the vendor
   walk: ``dgefmm(..., backend="vendor", plan_cache=)`` equals
   ``dgefmm(..., backend="vendor")`` with no cache, ``pdgefmm(...,
   backend="vendor", plan_cache=)``'s fused products equal their
   walk, a traced or modelled call (which walks) equals the plain one,
   and the ``fuse=True`` alias is ``backend="vendor"``.
2. **Charge parity** — kernel calls and mul/add flop tallies charged by
   a fused replay equal the vendor walk's per-op charges exactly
   (aggregate charging of identical per-op tallies), and so does the
   workspace peak.
3. **Reference tolerance** — fused results match the numpy reference
   within the oracle's dtype tolerance.
4. **Edge semantics** — ``beta == 0`` NaN-overwrite, ``alpha == 0``
   skip, zero-dim early-outs, and operand aliasing hold through the
   fused driver path exactly as ``tests/test_blas_conformance.py`` pins
   them for the walk.
"""

import dataclasses

import numpy as np
import pytest

from repro.context import ExecutionContext
from repro.core.config import GemmConfig
from repro.core.cutoff import SimpleCutoff
from repro.core.dgefmm import dgefmm
from repro.core.parallel import pdgefmm
from repro.core.pool import WorkspacePool
from repro.core.schemes import SCHEME_NAMES
from repro.plan import (
    PlanCache,
    PlanSignature,
    compile_plan,
    execute_plan,
)
from repro.errors import ArgumentError
from repro.machines import RS6000
from repro.plan.compiler import signature_for
from repro.plan.ops import OP_EVENT, OP_GEMM, ROOT_TEMP

CUT = SimpleCutoff(8)

SHAPES = [
    (16, 16, 16),
    (32, 32, 32),
    (17, 13, 19),      # primes: peeling + fix-ups at every level
    (33, 7, 29),
    (1, 7, 9),
]


def _sig(m, k, n, beta=0.0, backend="vendor", scheme="auto", cutoff=CUT,
         dtype="float64", accuracy="fast"):
    cfg = GemmConfig(scheme=scheme, cutoff=cutoff, backend=backend,
                     accuracy=accuracy)
    return signature_for(m, k, n, False, False,
                         False, beta == 0.0, dtype, cfg)


def _run(plan, a, b, c, alpha, beta, ctx=None):
    execute_plan(plan, a, b, c, alpha, beta,
                 ctx=ctx if ctx is not None else ExecutionContext())
    return c


def _mats(rng, m, k, n, dtype="float64", transa=False, transb=False):
    def mk(r, c):
        x = rng.standard_normal((r, c))
        if np.dtype(dtype).kind == "c":
            x = x + 1j * rng.standard_normal((r, c))
        return np.asfortranarray(x.astype(dtype))
    a = mk(k, m) if transa else mk(m, k)
    b = mk(n, k) if transb else mk(k, n)
    return a, b, mk(m, n)


# ---------------------------------------------------------------------- #
class TestFusionPass:
    def test_fused_attached_only_when_requested(self):
        """Every fast vendor signature, of each inexact dtype, compiles
        to a fused program whose summed charges hold every op but the
        fix-ups (``tests/test_plan.py::TestFusableOnly`` pins the
        signatures that do not compile)."""
        for dtype in ("float64", "float32", "complex128", "complex64"):
            plan = compile_plan(_sig(17, 13, 19, dtype=dtype))
            assert plan.dtype == np.dtype(dtype)
            assert all(op[0] != OP_EVENT for op in plan.ops)
            calls = dict(plan.counts["kernel_calls"])
            for fixup in ("dger", "dgemv"):
                calls.pop(fixup, None)
            assert {name: n for name, n, *_ in plan.charges} == calls

    def test_every_gemm_appears_exactly_once(self):
        """Each OP_GEMM of the recorded stream is one product of the
        program, on the same operands and scalars, in stream order."""
        for m, k, n in SHAPES:
            plan = compile_plan(_sig(m, k, n))
            gemms = [op[1:] for op in plan.stream if op[0] == OP_GEMM]
            products = [op[1:] for op in plan.ops if op[0] == OP_GEMM]
            assert products == gemms
            assert plan.counts["kernel_calls"]["dgemm"] == len(gemms)

    def test_elementwise_order_preserved(self):
        """The program is the recorded stream without its events: every
        op keeps its exact relative order."""
        plan = compile_plan(_sig(32, 32, 32, beta=0.5))
        assert list(plan.ops) == [op for op in plan.stream
                                  if op[0] != OP_EVENT]
        assert plan.n_ops == len(plan.ops) < len(plan.stream)

    def test_arena_extends_past_plan_bytes(self):
        """The direct products' scratch sits past the plan's temporaries
        and holds the largest product."""
        plan = compile_plan(_sig(32, 32, 32))
        item = plan.dtype.itemsize
        temps_end = max(off + fr * fc * item
                        for kind, off, fr, fc, *_ in plan.regions
                        if kind == ROOT_TEMP)
        assert plan.direct_off >= temps_end
        largest = max(plan.regions[op[3]][6] * plan.regions[op[3]][7]
                      for op in plan.ops if op[0] == OP_GEMM)
        assert plan.arena_bytes - plan.direct_off >= largest * item

    def test_fused_plan_bytes_count_the_fused_program(self):
        """PlanCache byte accounting sees the program as well as the
        recorded stream."""
        plan = compile_plan(_sig(64, 64, 64))
        assert plan.nbytes > 96 * (len(plan.stream) + len(plan.ops))

    def test_parallel_plan_children_fused(self):
        """Every plan a vendor pdgefmm caches is a product's fused plan,
        keyed by the product's depth."""
        rng = np.random.default_rng(21)
        a, b, c = _mats(rng, 32, 32, 32)
        cache = PlanCache()
        pdgefmm(a, b, c, cutoff=CUT, backend="vendor", workers=2,
                plan_cache=cache)
        assert len(cache) == 1
        assert all(sig.depth == 1 and sig.backend == "vendor"
                   for sig in cache._plans)

    def test_fuse_knob_is_validated(self):
        """``fuse`` is no knob: the engine follows from the config, so
        neither GemmConfig nor the plan signature has the field."""
        with pytest.raises(TypeError):
            GemmConfig(fuse=True)
        assert "fuse" not in {f.name for f in dataclasses.fields(
            PlanSignature)}


# ---------------------------------------------------------------------- #
class TestFusedNumerics:
    @pytest.mark.parametrize("m,k,n", SHAPES)
    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_reference_tolerance_and_determinism(self, m, k, n, beta):
        rng = np.random.default_rng(7)
        a, b, c = _mats(rng, m, k, n)
        expect = 1.5 * (a @ b) + (beta * c if beta else 0.0)
        plan = compile_plan(_sig(m, k, n, beta=beta))
        got1 = _run(plan, a, b, c.copy(order="F"), 1.5, beta)
        got2 = _run(plan, a, b, c.copy(order="F"), 1.5, beta)
        scale = max(1.0, float(np.max(np.abs(expect))))
        assert np.max(np.abs(got1 - expect)) <= 1e-9 * scale
        assert np.array_equal(got1, got2)   # deterministic replay

    @pytest.mark.parametrize("scheme",
                             [s for s in SCHEME_NAMES if s != "auto"])
    def test_every_scheme(self, scheme):
        rng = np.random.default_rng(11)
        a, b, c = _mats(rng, 24, 24, 24)
        plan = compile_plan(_sig(24, 24, 24, beta=0.5, scheme=scheme,
                                 cutoff=SimpleCutoff(6)))
        got = _run(plan, a, b, c.copy(order="F"), 2.0, 0.5)
        expect = 2.0 * (a @ b) + 0.5 * c
        scale = max(1.0, float(np.max(np.abs(expect))))
        assert np.max(np.abs(got - expect)) <= 1e-9 * scale

    def test_complex_dtype(self):
        rng = np.random.default_rng(13)
        a, b, c = _mats(rng, 20, 20, 20, dtype="complex128")
        plan = compile_plan(_sig(20, 20, 20, beta=0.5,
                                 dtype="complex128"))
        got = _run(plan, a, b, c.copy(order="F"), 1.0 + 2.0j, 0.5)
        expect = (1.0 + 2.0j) * (a @ b) + 0.5 * c
        scale = max(1.0, float(np.max(np.abs(expect))))
        assert np.max(np.abs(got - expect)) <= 1e-9 * scale

    @pytest.mark.parametrize("m,k,n", SHAPES)
    def test_charge_parity_with_interpreted(self, m, k, n):
        """Aggregate fused charging equals the uncached vendor walk's
        per-op charging exactly — calls, flops, the mul/add split, and
        the workspace peak."""
        rng = np.random.default_rng(5)
        a, b, c = _mats(rng, m, k, n)
        ctx_f, ctx_w = ExecutionContext(), ExecutionContext()
        _run(compile_plan(_sig(m, k, n, beta=0.5)), a, b,
             c.copy(order="F"), 1.5, 0.5, ctx=ctx_f)
        dgefmm(a, b, c.copy(order="F"), 1.5, 0.5, cutoff=CUT,
               backend="vendor", ctx=ctx_w)
        assert ctx_f.kernel_calls == ctx_w.kernel_calls
        assert ctx_f.flops == ctx_w.flops
        assert ctx_f.mul_flops == ctx_w.mul_flops
        assert ctx_f.add_flops == ctx_w.add_flops
        assert (ctx_f.stats["workspace_peak_bytes"]
                == ctx_w.stats["workspace_peak_bytes"])

    def test_trace_dry_and_machine_contexts_refused(self):
        """A replay charged once per call has no per-op hooks: the
        executor refuses a tracing, dry or modelled context, which
        ``dgefmm`` walks instead."""
        rng = np.random.default_rng(3)
        a, b, c = _mats(rng, 16, 16, 16)
        plan = compile_plan(_sig(16, 16, 16))
        for ctx in (ExecutionContext(trace=True),
                    ExecutionContext(dry=True), ExecutionContext(RS6000)):
            out = c.copy(order="F")
            with pytest.raises(ArgumentError, match="walk"):
                _run(plan, a, b, out, 1.0, 0.0, ctx=ctx)
            assert np.array_equal(out, c) and not ctx.kernel_calls


# ---------------------------------------------------------------------- #
class TestVendorIdentity:
    """Fused replay computes the vendor walk's bits: every product is
    ``dgemm(backend="vendor")``'s arithmetic and every other op the
    walk's block kernel's."""

    @pytest.mark.parametrize("dtype", ["float64", "float32", "complex128",
                                       "complex64"])
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_dgefmm_fused_equals_vendor(self, scheme, dtype):
        rng = np.random.default_rng(21)
        cache = PlanCache()
        for peel in ("tail", "head"):
            for transa, transb in ((False, False), (True, True)):
                a, b, c = _mats(rng, 37, 29, 41, dtype, transa, transb)
                for alpha in (1.0, 1.5):
                    for beta in (0.0, 0.5, 1.0):
                        knobs = dict(cutoff=CUT, scheme=scheme,
                                     peel=peel, backend="vendor")
                        fused = c.copy(order="F")
                        dgefmm(a, b, fused, alpha, beta, transa, transb,
                               plan_cache=cache, **knobs)
                        vendor = c.copy(order="F")
                        dgefmm(a, b, vendor, alpha, beta, transa, transb,
                               **knobs)
                        assert np.array_equal(fused, vendor), (
                            peel, transa, alpha, beta)
        # the recursing root replayed cached fused plans
        assert cache.misses and cache.hits

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_pdgefmm_fused_equals_vendor(self, workers, depth, beta):
        """pdgefmm's fused products equal their vendor walk, which a
        tracing context without a cache runs."""
        rng = np.random.default_rng(22)
        for dtype in ("float64", "complex64"):
            a, b, c = _mats(rng, 45, 38, 52, dtype)
            knobs = dict(cutoff=CUT, workers=workers,
                         max_parallel_depth=depth, backend="vendor")
            fused = c.copy(order="F")
            pdgefmm(a, b, fused, 1.5, beta, plan_cache=PlanCache(),
                    **knobs)
            vendor = c.copy(order="F")
            pdgefmm(a, b, vendor, 1.5, beta,
                    ctx=ExecutionContext(trace=True), **knobs)
            assert np.array_equal(fused, vendor), dtype

    @pytest.mark.parametrize("cutoff,shape", [(None, (300, 200, 250)),
                                              (CUT, (37, 29, 41))])
    def test_traced_fused_call_keeps_its_bits(self, cutoff, shape):
        """A traced call walks where the plain one replays; the result
        must not move (the default cutoff's root is a base case, which
        walks either way)."""
        rng = np.random.default_rng(23)
        a, b, c = _mats(rng, *shape)
        cache = PlanCache()
        for alpha, beta in ((1.0, 0.0), (1.5, 0.5)):
            knobs = dict(cutoff=cutoff, backend="vendor", plan_cache=cache)
            plain = c.copy(order="F")
            dgefmm(a, b, plain, alpha, beta, **knobs)
            traced = c.copy(order="F")
            ctx = ExecutionContext(trace=True)
            dgefmm(a, b, traced, alpha, beta, ctx=ctx, **knobs)
            assert ctx.events
            assert np.array_equal(plain, traced)
            plain = c.copy(order="F")
            pdgefmm(a, b, plain, alpha, beta, workers=2, **knobs)
            traced = c.copy(order="F")
            pdgefmm(a, b, traced, alpha, beta, workers=2,
                    ctx=ExecutionContext(trace=True), **knobs)
            assert np.array_equal(plain, traced)

    @pytest.mark.parametrize("kind", ["traced", "modelled"])
    def test_traced_and_modelled_calls_walk(self, kind):
        """A traced or machine-model ``dgefmm`` with a recursing root,
        and a ``pdgefmm`` whose products recurse, walk: each returns
        the plain cached call's bits and the uncached walk's events
        (traced) or modelled time (modelled), and leaves the cache's
        hits and misses alone."""
        def context():
            if kind == "traced":
                return ExecutionContext(trace=True)
            return ExecutionContext(RS6000)

        rng = np.random.default_rng(25)
        a, b, c = _mats(rng, 37, 29, 41)
        cache = PlanCache()
        for driver, knobs in ((dgefmm, {}), (pdgefmm, {"workers": 2})):
            knobs.update(cutoff=CUT, backend="vendor")
            plain = c.copy(order="F")
            driver(a, b, plain, 1.5, 0.5, plan_cache=cache, **knobs)
            walk_ctx = context()
            driver(a, b, c.copy(order="F"), 1.5, 0.5, ctx=walk_ctx,
                   **knobs)
            counts = (cache.hits, cache.misses)
            got, run_ctx = c.copy(order="F"), context()
            driver(a, b, got, 1.5, 0.5, plan_cache=cache, ctx=run_ctx,
                   **knobs)
            name = driver.__name__
            assert np.array_equal(got, plain), name
            assert run_ctx.kernel_calls == walk_ctx.kernel_calls, name
            assert run_ctx.events == walk_ctx.events, name
            assert run_ctx.elapsed == walk_ctx.elapsed, name
            assert run_ctx.events or run_ctx.elapsed > 0, name
            assert (cache.hits, cache.misses) == counts, name
        # the plain calls' plans: dgefmm's root and pdgefmm's products
        assert sorted(sig.depth for sig in cache._plans) == [0, 1]

    @pytest.mark.parametrize("accuracy", ["fast", "compensated"])
    def test_fuse_alias_is_the_vendor_backend(self, accuracy):
        """``dgefmm(fuse=True)`` is ``backend="vendor"`` bit for bit,
        with and without a cache, under either accuracy."""
        rng = np.random.default_rng(24)
        a, b, c = _mats(rng, 37, 29, 41, "float32")
        for cache in (None, PlanCache()):
            knobs = dict(cutoff=CUT, plan_cache=cache, accuracy=accuracy)
            alias = c.copy(order="F")
            dgefmm(a, b, alias, 1.5, 0.5, fuse=True, **knobs)
            vendor = c.copy(order="F")
            dgefmm(a, b, vendor, 1.5, 0.5, backend="vendor", **knobs)
            assert np.array_equal(alias, vendor), cache


# ---------------------------------------------------------------------- #
class TestFusedDriverPath:
    """dgefmm/pdgefmm over the vendor kernel with a plan cache — the
    conformance pins of tests/test_blas_conformance.py, replayed
    through fused execution."""

    def _fused(self, a, b, c, alpha=1.0, beta=0.0, cache=None, **kw):
        dgefmm(a, b, c, alpha, beta, cutoff=CUT,
               plan_cache=cache if cache is not None else PlanCache(),
               backend="vendor", **kw)
        return c

    def test_beta_zero_overwrites_nan_c(self):
        rng = np.random.default_rng(0)
        a = np.asfortranarray(rng.standard_normal((17, 13)))
        b = np.asfortranarray(rng.standard_normal((13, 19)))
        c = np.full((17, 19), np.nan, order="F")
        got = self._fused(a, b, c)
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, a @ b, atol=1e-9 * 20)

    def test_alpha_zero_skips_product(self):
        rng = np.random.default_rng(1)
        a = np.full((9, 7), np.nan, order="F")
        b = np.full((7, 11), np.nan, order="F")
        c = np.asfortranarray(rng.standard_normal((9, 11)))
        got = self._fused(a, b, c.copy(order="F"), alpha=0.0, beta=-1.5)
        np.testing.assert_array_equal(got, -1.5 * c)

    @pytest.mark.parametrize("m,k,n", [(0, 5, 7), (5, 0, 7), (5, 7, 0),
                                       (0, 0, 0), (12, 0, 9)])
    def test_zero_dim_early_outs(self, m, k, n):
        rng = np.random.default_rng(2)
        a = np.asfortranarray(rng.standard_normal((m, k)))
        b = np.asfortranarray(rng.standard_normal((k, n)))
        c = np.asfortranarray(rng.standard_normal((m, n)))
        expect = 0.5 * c if k == 0 else np.zeros((m, n))
        got = self._fused(a, b, c.copy(order="F"), alpha=2.0, beta=0.5)
        np.testing.assert_array_equal(got, expect)

    def test_aliasing_c_is_a(self):
        rng = np.random.default_rng(4)
        a = np.asfortranarray(rng.standard_normal((12, 12)))
        b = np.asfortranarray(rng.standard_normal((12, 12)))
        expect = a @ b
        aa = a.copy(order="F")
        self._fused(aa, b, aa)
        np.testing.assert_allclose(aa, expect, atol=1e-10 * 12)

    def test_aliasing_c_is_b_accumulating(self):
        rng = np.random.default_rng(6)
        a = np.asfortranarray(rng.standard_normal((11, 11)))
        b = np.asfortranarray(rng.standard_normal((11, 11)))
        expect = 1.5 * (a @ b) + 0.5 * b
        bb = b.copy(order="F")
        self._fused(a, bb, bb, alpha=1.5, beta=0.5)
        np.testing.assert_allclose(bb, expect, atol=1e-10 * 12)

    def test_fuse_mutation_misses_cache(self):
        """Fusable and unfusable signatures of one shape never share an
        entry: the backend and the accuracy that decide fusion key the
        cache, and only the fusable one compiles."""
        cache = PlanCache()
        for backend, accuracy in (("substrate", "fast"), ("vendor", "fast"),
                                  ("vendor", "compensated")):
            sig = signature_for(
                16, 16, 16, False, False, False, True,
                "float64", GemmConfig(cutoff=CUT, backend=backend,
                                      accuracy=accuracy),
            )
            if sig.config().fusable:
                assert cache.get_or_compile(sig).signature == sig
            else:
                with pytest.raises(ArgumentError):
                    cache.get_or_compile(sig)
        assert (cache.misses, cache.hits, len(cache)) == (3, 0, 1)

    def test_parallel_driver_fused(self):
        rng = np.random.default_rng(9)
        a, b, c = _mats(rng, 48, 48, 48)
        expect = 1.5 * (a @ b) + 0.5 * c
        got = c.copy(order="F")
        pdgefmm(a, b, got, 1.5, 0.5, cutoff=SimpleCutoff(12),
                plan_cache=PlanCache(), backend="vendor", workers=3)
        scale = max(1.0, float(np.max(np.abs(expect))))
        assert np.max(np.abs(got - expect)) <= 1e-9 * scale


# ---------------------------------------------------------------------- #
class TestArenaViewCaches:
    """A plan caches arena views only for pooled buffers, which come
    back call after call; an unpooled replay reserves a fresh buffer
    each call, and a view cached for it would keep it alive."""

    CUT64 = SimpleCutoff(64)

    def _replays(self, n_calls, **kw):
        rng = np.random.default_rng(12)
        a, b, c = _mats(rng, 256, 256, 256)
        cache = PlanCache()
        for _ in range(n_calls):
            # beta != 0: STRASSEN2's products accumulate through scratch
            dgefmm(a, b, c, 1.0, 0.5, cutoff=self.CUT64, backend="vendor",
                   plan_cache=cache, **kw)
        plan = cache.peek(_sig(256, 256, 256, beta=0.5, cutoff=self.CUT64))
        assert plan is not None
        return plan

    def test_unpooled_replays_pin_no_buffer(self):
        plan = self._replays(63)
        assert plan._views == {}

    def test_warm_pooled_replay_binds_views_once(self, monkeypatch):
        from repro.plan import executor

        binds = []
        bind_temps = executor._bind_temps
        monkeypatch.setattr(executor, "_bind_temps",
                            lambda *args: binds.append(1) or
                            bind_temps(*args))
        plan = self._replays(4, pool=WorkspacePool())
        assert len(binds) == 1
        ((buf, temps, scratch),) = plan._views.values()
        assert temps and scratch
        for view in (*temps.values(), *scratch.values()):
            assert np.shares_memory(view, buf)


# ---------------------------------------------------------------------- #
class TestFusedService:
    def test_service_round_trip_fused(self):
        from repro.serve.service import GemmService

        rng = np.random.default_rng(10)
        a, b, c = _mats(rng, 24, 20, 28)
        expect = np.array(c, copy=True)
        dgefmm(a, b, expect, 1.0, 0.5, cutoff=CUT, backend="vendor")
        with GemmService(workers=2, cutoff=CUT, backend="vendor") as svc:
            futs = [svc.submit(a, b, c, 1.0, 0.5) for _ in range(8)]
            for fut in futs:
                # fused serving is bit-identical to the vendor walk
                assert np.array_equal(fut.result(30.0), expect)
            assert svc.plan_cache.stats()["plans"] == 1

    def test_submit_fuse_override(self):
        """The engine follows each request's root: only a vendor request
        whose root recurses leaves a plan."""
        from repro.serve.service import GemmService

        rng = np.random.default_rng(12)
        a, b, _c = _mats(rng, 16, 16, 16)
        small, _, _ = _mats(rng, 4, 4, 4)
        with GemmService(workers=1, cutoff=CUT) as svc:
            svc.submit(a, b).result(30.0)
            # the substrate request walks
            assert svc.plan_cache.stats()["plans"] == 0
        with GemmService(workers=1, cutoff=CUT, backend="vendor") as svc:
            svc.submit(small, small).result(30.0)
            # a base-case root walks too
            assert svc.plan_cache.stats()["plans"] == 0
            svc.submit(a, b).result(30.0)
            sig = signature_for(16, 16, 16, False, False, False,
                                True, "float64",
                                GemmConfig(cutoff=CUT, backend="vendor"))
            assert svc.plan_cache.stats()["plans"] == 1
            assert svc.plan_cache.peek(sig) is not None


# ---------------------------------------------------------------------- #
class TestFusedFuzz:
    def test_small_fused_campaign(self):
        from repro.fuzz.runner import run_fuzz

        rep = run_fuzz(cases=60, seed=20250808)
        assert rep.ok, rep.failures
