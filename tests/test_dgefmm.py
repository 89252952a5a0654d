"""DGEFMM driver: the full DGEMM-replacement contract."""

import importlib
import json
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest

from repro.blas.level3 import DEFAULT_TILE
from repro.context import ExecutionContext
from repro.core.config import (
    BLAS_CUTOFF,
    DEFAULT_CUTOFF,
    GemmConfig,
    resolve_config,
)
from repro.core.cutoff import (
    AlwaysRecurse,
    DepthCutoff,
    NeverRecurse,
    SimpleCutoff,
)
from repro.core.dgefmm import SCHEMES, dgefmm
from repro.core.workspace import Workspace
from repro.errors import ArgumentError, DimensionError
from repro.phantom import Phantom
from repro.plan.cache import PlanCache
from repro.serve import GemmService

CUT = SimpleCutoff(8)


def run_check(rng, m, k, n, alpha, beta, ta=False, tb=False, **kw):
    a = np.asfortranarray(rng.standard_normal((k, m) if ta else (m, k)))
    b = np.asfortranarray(rng.standard_normal((n, k) if tb else (k, n)))
    c = np.asfortranarray(rng.standard_normal((m, n)))
    opa = a.T if ta else a
    opb = b.T if tb else b
    expect = alpha * (opa @ opb) + beta * c
    kw.setdefault("cutoff", CUT)
    dgefmm(a, b, c, alpha, beta, ta, tb, **kw)
    np.testing.assert_allclose(c, expect, atol=1e-9)


class TestCorrectness:
    @pytest.mark.parametrize("m,k,n", [
        (16, 16, 16), (17, 19, 23), (33, 9, 65), (2, 2, 2), (3, 3, 3),
        (64, 8, 64), (9, 100, 9), (1, 7, 5), (40, 40, 1),
    ])
    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (1.0, 1.0),
                                            (0.5, -2.0)])
    def test_shapes_and_scalars(self, rng, m, k, n, alpha, beta):
        run_check(rng, m, k, n, alpha, beta)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_all_schemes(self, rng, scheme):
        run_check(rng, 25, 31, 19, 0.5, 1.5, scheme=scheme)
        run_check(rng, 25, 31, 19, 1.0, 0.0, scheme=scheme)

    @pytest.mark.parametrize("ta,tb", [(True, False), (False, True),
                                       (True, True)])
    def test_transposes(self, rng, ta, tb):
        run_check(rng, 21, 34, 27, 0.7, -0.3, ta, tb)

    def test_full_recursion_odd_sizes(self, rng):
        run_check(rng, 13, 13, 13, 1.0, 0.0, cutoff=AlwaysRecurse())

    def test_alpha_zero_scales_only(self, rng):
        a = np.full((6, 6), np.nan, order="F")  # never read
        b = np.full((6, 6), np.nan, order="F")
        c = np.asfortranarray(rng.standard_normal((6, 6)))
        expect = -0.5 * c
        dgefmm(a, b, c, 0.0, -0.5, cutoff=CUT)
        np.testing.assert_allclose(c, expect)

    def test_never_recurse_matches_dgemm(self, rng):
        from repro.blas.level3 import dgemm

        a = np.asfortranarray(rng.standard_normal((30, 30)))
        b = np.asfortranarray(rng.standard_normal((30, 30)))
        c1 = np.asfortranarray(rng.standard_normal((30, 30)))
        c2 = c1.copy(order="F")
        dgefmm(a, b, c1, 0.5, 0.5, cutoff=NeverRecurse())
        dgemm(a, b, c2, 0.5, 0.5)
        np.testing.assert_allclose(c1, c2, atol=1e-13)

    def test_strided_input_views(self, rng):
        big = np.asfortranarray(rng.standard_normal((50, 50)))
        a = big[3:35, 5:25]
        b = big[1:21, 10:48]
        c = np.zeros((32, 38), order="F")
        dgefmm(a, b, c, cutoff=CUT)
        np.testing.assert_allclose(c, a @ b, atol=1e-10)

    def test_numerical_accuracy_vs_numpy_large(self, rng):
        """Strassen loses a few digits but stays well-conditioned
        (Brent/Higham stability, paper Section 1)."""
        m = 256
        a = np.asfortranarray(rng.standard_normal((m, m)))
        b = np.asfortranarray(rng.standard_normal((m, m)))
        c = np.zeros((m, m), order="F")
        dgefmm(a, b, c, cutoff=SimpleCutoff(32))
        ref = a @ b
        err = np.max(np.abs(c - ref)) / np.max(np.abs(ref))
        assert err < 1e-11


class TestValidation:
    def test_inner_mismatch(self):
        with pytest.raises(DimensionError):
            dgefmm(np.zeros((2, 3)), np.zeros((4, 2)), np.zeros((2, 2)))

    def test_c_mismatch(self):
        with pytest.raises(DimensionError):
            dgefmm(np.zeros((2, 3)), np.zeros((3, 2)), np.zeros((3, 3)))

    def test_bad_scheme(self):
        with pytest.raises(ArgumentError):
            dgefmm(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)),
                   scheme="winograd")

    def test_transposed_shapes_validated(self):
        a = np.zeros((3, 2))  # op(A) = 2x3 with transa
        b = np.zeros((3, 4))
        c = np.zeros((2, 4))
        dgefmm(a, b, c, transa=True, cutoff=CUT)  # ok
        with pytest.raises(DimensionError):
            dgefmm(a, b, c, transa=False, cutoff=CUT)

    def test_interning_accepts_and_rejects_as_before(self, rng):
        """Warm memos (dtype names, configs, signatures) accept and
        reject exactly what a cold call does.  Each case runs twice,
        after calls with its accepted hash-equal twins (``nb=1``,
        ``nb=32``) have filled the memos."""
        a = np.asfortranarray(rng.standard_normal((18, 22)))
        b = np.asfortranarray(rng.standard_normal((22, 14)))
        expect = a @ b
        cache = PlanCache()

        def call(**kw):
            c = np.zeros((18, 14), order="F")
            dgefmm(a, b, c, cutoff=CUT, **kw)
            np.testing.assert_allclose(c, expect, atol=1e-12)

        call(nb=1, backend="vendor", plan_cache=cache)
        call(nb=32)
        for _ in range(2):
            with pytest.raises(ArgumentError):
                call(nb=True, backend="vendor", plan_cache=cache)
            half = np.zeros((4, 4), dtype=np.float16)
            with pytest.raises(ArgumentError):
                dgefmm(half, half, half.copy())
            call(scheme=np.str_("auto"))
            call(nb=np.int64(32), backend="vendor", plan_cache=cache)

        class Unhashable(SimpleCutoff):
            __hash__ = None

        for _ in range(2):
            c = np.zeros((18, 14), order="F")
            dgefmm(a, b, c, cutoff=Unhashable(8))   # the walk runs
            np.testing.assert_allclose(c, expect, atol=1e-12)
            c = np.zeros((18, 14), order="F")
            dgefmm(a, b, c, cutoff=Unhashable(8), backend="vendor")
            np.testing.assert_allclose(c, expect, atol=1e-12)
            with pytest.raises(TypeError):   # PlanCache hashes the key
                dgefmm(a, b, c, cutoff=Unhashable(8), backend="vendor",
                       plan_cache=cache)


class TestRecursionStructure:
    def test_trace_records_depths(self, rng):
        ctx = ExecutionContext(trace=True)
        a = np.asfortranarray(rng.standard_normal((32, 32)))
        b = np.asfortranarray(rng.standard_normal((32, 32)))
        c = np.zeros((32, 32), order="F")
        dgefmm(a, b, c, cutoff=SimpleCutoff(8), ctx=ctx)
        recurse_depths = {e.depth for e in ctx.events if e.action == "recurse"}
        assert recurse_depths == {0, 1}
        bases = [e for e in ctx.events if e.action == "base"]
        assert len(bases) == 49  # 7 products per level, two levels

    def test_depth_cutoff_one_level(self):
        ctx = ExecutionContext(dry=True, trace=True)
        dgefmm(Phantom(64, 64), Phantom(64, 64), Phantom(64, 64),
               cutoff=DepthCutoff(1), ctx=ctx)
        assert ctx.kernel_calls["dgemm"] == 7

    def test_depth_cutoff_two_levels(self):
        ctx = ExecutionContext(dry=True)
        dgefmm(Phantom(64, 64), Phantom(64, 64), Phantom(64, 64),
               cutoff=DepthCutoff(2), ctx=ctx)
        assert ctx.kernel_calls["dgemm"] == 49

    def test_peel_events_on_odd(self):
        ctx = ExecutionContext(dry=True, trace=True)
        dgefmm(Phantom(65, 65), Phantom(65, 65), Phantom(65, 65),
               cutoff=DepthCutoff(1), ctx=ctx)
        assert any(e.action == "peel" for e in ctx.events)
        assert ctx.kernel_calls["dger"] == 1
        assert ctx.kernel_calls["dgemv"] == 2

    def test_workspace_peak_reported(self):
        ctx = ExecutionContext(dry=True)
        dgefmm(Phantom(128, 128), Phantom(128, 128), Phantom(128, 128),
               cutoff=SimpleCutoff(16), ctx=ctx)
        assert ctx.stats["workspace_peak_bytes"] > 0

    def test_shared_workspace_reused(self):
        ws = Workspace(dry=True)
        ctx = ExecutionContext(dry=True)
        for _ in range(3):
            dgefmm(Phantom(64, 64), Phantom(64, 64), Phantom(64, 64),
                   cutoff=SimpleCutoff(16), ctx=ctx, workspace=ws)
        assert ws.live_bytes == 0  # all frames released between calls


class TestBaseCaseRoot:
    """A base-case root is one ``dgemm`` call: the walker, its binding
    and a workspace are never built, and the answer, tallies, event and
    peak are those of the walk's single base case."""

    # (dtype, backend, beta): beta is integral under exact accuracy
    CASES = [
        ("float64", "substrate", 0.0), ("float64", "vendor", 0.5),
        ("float32", "substrate", 0.5), ("complex128", "substrate", 0.5),
        ("complex64", "vendor", 0.0), ("int64", "substrate", 2),
        ("object", "substrate", 0),
    ]

    @staticmethod
    def _forbid_walk(monkeypatch):
        # the module, not the ``repro.core.dgefmm`` function it exports
        mod = importlib.import_module("repro.core.dgefmm")

        def refuse(*args, **kwargs):
            raise AssertionError("a base-case root built a walk")

        monkeypatch.setattr(mod, "_walk", refuse)
        monkeypatch.setattr(mod, "Workspace", refuse)

    @staticmethod
    def _operands(rng, dtype, m=7, k=5, n=6):
        def draw(shape):
            if dtype in ("int64", "object"):
                return np.asfortranarray(
                    rng.integers(-9, 9, shape).astype(dtype))
            x = rng.standard_normal(shape)
            if dtype.startswith("complex"):
                x = x + 1j * rng.standard_normal(shape)
            return np.asfortranarray(x.astype(dtype))

        # op(A) = A^T: a transposed operand rides the base case too
        return draw((k, m)), draw((k, n)), draw((m, n))

    @staticmethod
    def _direct(a, b, c0, beta, backend, dtype):
        """The walk's base case, called directly."""
        from repro.blas.level3 import dgemm

        exact = dtype in ("int64", "object")
        c = c0.copy(order="F")
        ctx = ExecutionContext()
        dgemm(a.T, b, c, 1 if exact else 1.0, beta, ctx=ctx,
              backend=backend, accuracy="exact" if exact else "fast")
        return c, ctx

    @pytest.mark.parametrize("dtype,backend,beta", CASES)
    def test_drivers_answer_without_a_walk(self, rng, monkeypatch, dtype,
                                           backend, beta):
        from repro.core.parallel import pdgefmm

        a, b, c0 = self._operands(rng, dtype)
        want, ref = self._direct(a, b, c0, beta, backend, dtype)
        self._forbid_walk(monkeypatch)
        one = 1 if dtype in ("int64", "object") else 1.0
        for run in ("dgefmm", "pdgefmm", "service"):
            c = c0.copy(order="F")
            ctx = ExecutionContext()
            if run == "dgefmm":
                dgefmm(a, b, c, one, beta, transa=True, ctx=ctx,
                       backend=backend)
            elif run == "pdgefmm":
                pdgefmm(a, b, c, one, beta, transa=True, ctx=ctx,
                        backend=backend, workers=2)
            else:
                with GemmService(workers=1, backend=backend) as svc:
                    c = svc.call(a, b, c, one, beta, transa=True,
                                 timeout=30.0)
                    svc.close()
                    ctx = svc.context()
            assert np.array_equal(c, want), run
            assert c.dtype == want.dtype, run
            assert ctx.kernel_calls == ref.kernel_calls, run
            assert ctx.flops == ref.flops, run
            if run != "service":    # the service merges tallies only
                assert ctx.stats["workspace_peak_bytes"] == 0, run

    def test_products_below_a_parallel_level(self, rng, monkeypatch):
        """Each product of a parallel level is a base case here, and
        reaches it through the same single ``dgemm`` call."""
        from repro.core.parallel import pdgefmm

        a, b, c0 = (np.asfortranarray(rng.standard_normal((48, 48)))
                    for _ in range(3))
        want = c0.copy(order="F")
        ref = ExecutionContext(trace=True)
        pdgefmm(a, b, want, 1.0, 0.5, cutoff=SimpleCutoff(32), ctx=ref,
                workers=2)
        self._forbid_walk(monkeypatch)
        c = c0.copy(order="F")
        ctx = ExecutionContext(trace=True)
        pdgefmm(a, b, c, 1.0, 0.5, cutoff=SimpleCutoff(32), ctx=ctx,
                workers=2)
        assert np.array_equal(c, want)
        assert ctx.kernel_calls == ref.kernel_calls
        assert ctx.stats["workspace_peak_bytes"] == \
            ref.stats["workspace_peak_bytes"]
        assert ctx.events == ref.events
        assert sum(e.action == "base" for e in ctx.events) == 7

    def test_traced_call_records_one_base_event(self, rng, monkeypatch):
        from repro.context import RecursionEvent
        from repro.core.parallel import pdgefmm

        a, b, c0 = self._operands(rng, "float64")
        self._forbid_walk(monkeypatch)
        for driver in (dgefmm, pdgefmm):
            ctx = ExecutionContext(trace=True)
            driver(a, b, c0.copy(order="F"), transa=True, ctx=ctx)
            assert ctx.events == [RecursionEvent("base", 7, 5, 6, 0)]
        untraced = ExecutionContext()
        dgefmm(a, b, c0.copy(order="F"), transa=True, ctx=untraced)
        assert untraced.events == []

    def test_explicit_workspace_reports_its_peak(self, rng, monkeypatch):
        a, b, c0 = self._operands(rng, "float64")
        big = np.asfortranarray(rng.standard_normal((64, 64)))
        ws = Workspace()
        dgefmm(big, big, np.zeros((64, 64), order="F"), cutoff=CUT,
               workspace=ws)
        assert ws.peak_bytes > 0
        self._forbid_walk(monkeypatch)
        ctx = ExecutionContext()
        dgefmm(a, b, c0.copy(order="F"), transa=True, ctx=ctx,
               workspace=ws)
        assert ctx.stats["workspace_peak_bytes"] == ws.peak_bytes
        dry = ExecutionContext(dry=True)
        dgefmm(Phantom(7, 5), Phantom(5, 6), Phantom(7, 6), ctx=dry)
        assert dry.kernel_calls == {"dgemm": 1}
        assert dry.stats["workspace_peak_bytes"] == 0


class TestMemoryCoefficients:
    """Table 1, asserted: measured peak workspace / m^2."""

    @staticmethod
    def coeff(scheme: str, beta: float, m: int = 1024) -> float:
        ctx = ExecutionContext(dry=True)
        ws = Workspace(dry=True)
        dgefmm(Phantom(m, m), Phantom(m, m), Phantom(m, m), 1.0, beta,
               scheme=scheme, cutoff=SimpleCutoff(16), ctx=ctx, workspace=ws)
        return ws.peak_elements / m**2

    def test_dgefmm_beta0_two_thirds(self):
        assert self.coeff("auto", 0.0) == pytest.approx(2 / 3, abs=0.01)

    def test_dgefmm_general_one(self):
        assert self.coeff("auto", 1.0) == pytest.approx(1.0, abs=0.01)

    def test_strassen1_beta0_two_thirds(self):
        assert self.coeff("strassen1", 0.0) == pytest.approx(2 / 3, abs=0.01)

    def test_strassen1_general_two(self):
        assert self.coeff("strassen1", 1.0) == pytest.approx(2.0, abs=0.01)

    def test_strassen2_one_both_cases(self):
        assert self.coeff("strassen2", 0.0) == pytest.approx(1.0, abs=0.01)
        assert self.coeff("strassen2", 1.0) == pytest.approx(1.0, abs=0.01)

    def test_rectangular_bound(self):
        """(mk + kn + mn)/3 for STRASSEN2 on a rectangular problem."""
        m, k, n = 1024, 512, 2048
        ctx = ExecutionContext(dry=True)
        ws = Workspace(dry=True)
        dgefmm(Phantom(m, k), Phantom(k, n), Phantom(m, n), 1.0, 1.0,
               scheme="strassen2", cutoff=SimpleCutoff(16),
               ctx=ctx, workspace=ws)
        bound = (m * k + k * n + m * n) / 3
        assert ws.peak_elements <= bound * 1.01


class TestDefaultCutoff:
    """A defaulted cutoff follows the leaf kernel; an explicit one wins."""

    #: (backend, whether a tuned profile or the service default gives
    #: the service that backend) -> the criterion a defaulted cutoff
    #: resolves to
    LEAF_DEFAULTS = [
        ("substrate", False, DEFAULT_CUTOFF),
        ("substrate", True, DEFAULT_CUTOFF),
        ("vendor", False, BLAS_CUTOFF),
        ("vendor", True, BLAS_CUTOFF),
    ]

    @staticmethod
    def _events(backend, cutoff):
        ctx = ExecutionContext(dry=True, trace=True)
        dgefmm(Phantom(256, 256), Phantom(256, 256), Phantom(256, 256),
               cutoff=cutoff, backend=backend, ctx=ctx)
        return ctx.events

    @staticmethod
    def _service_follows_dgefmm(rng, backend, profiled, cutoff=None):
        """True when a GemmService whose requests get ``backend`` (from
        a tuned profile when ``profiled``, else from the service) runs
        ``dgefmm``'s cutoff.  A vendor root that recurses replays the
        fused plan ``dgefmm`` compiled for the same knobs (the signature
        holds the criterion).  Every other request walks: it returns
        ``dgefmm``'s bits, which differ from ``dgefmm``'s at the other
        leaf kernel's default cutoff, and leaves the plan cache empty."""

        class Profiles:
            prof = SimpleNamespace(scheme="auto", peel="tail", cutoff=None,
                                   nb=DEFAULT_TILE, backend=backend,
                                   accuracy=None)

            def resolve(self, m, k, n, dtype=None, beta_zero=True):
                return self.prof

            def stats(self):
                return {}

        a = np.asfortranarray(rng.standard_normal((256, 256)))
        b = np.asfortranarray(rng.standard_normal((256, 256)))
        cache = PlanCache()

        def direct(crit):
            c = np.zeros((256, 256), order="F")
            dgefmm(a, b, c, cutoff=crit, backend=backend, plan_cache=cache)
            return c

        ref = direct(cutoff)
        with GemmService(
                workers=1, plan_cache=cache,
                backend="substrate" if profiled else backend,
                profiles=Profiles() if profiled else None,
        ) as svc:
            got = svc.submit(a, b, cutoff=cutoff).result(timeout=60)
        # order 256 recurses under the explicit SimpleCutoff(48) only
        if backend == "vendor" and cutoff is not None:
            replayed = cache.misses == 1 and cache.hits >= 1
        else:
            replayed = len(cache) == 0
        other = BLAS_CUTOFF if backend == "substrate" else DEFAULT_CUTOFF
        return (np.array_equal(got, ref) and replayed
                and not np.array_equal(got, direct(other)))

    @pytest.mark.parametrize("backend,profiled,want", LEAF_DEFAULTS)
    def test_every_front_door_defaults_alike(self, rng, backend, profiled,
                                             want):
        assert resolve_config("auto", "tail", None, 160, backend,
                              "float64", None).cutoff == want
        assert GemmConfig(backend=backend).cutoff == want
        assert self._events(backend, None) == self._events(backend, want)
        assert self._service_follows_dgefmm(rng, backend, profiled)

    @pytest.mark.parametrize("backend,profiled,default", LEAF_DEFAULTS)
    def test_explicit_cutoff_wins(self, rng, backend, profiled, default):
        crit = SimpleCutoff(48)
        assert resolve_config("auto", "tail", crit, 160, backend,
                              "float64", None).cutoff == crit
        assert GemmConfig(cutoff=crit, backend=backend).cutoff == crit
        assert self._events(backend, crit) != self._events(backend,
                                                           default)
        assert self._service_follows_dgefmm(rng, backend, profiled, crit)

    def test_the_two_defaults_differ_at_order_256(self):
        assert DEFAULT_CUTOFF.recurse(256, 256, 256)
        assert BLAS_CUTOFF.stop(256, 256, 256)

    def test_blas_cutoff_traces_to_the_crossover_bench(self):
        """BLAS_CUTOFF's tau is the committed scan's answer, and its
        plane parameters keep DEFAULT_CUTOFF's ratio of 3/4 tau."""
        doc = json.loads((pathlib.Path(__file__).parents[1]
                          / "BENCH_crossover.json").read_text())
        assert BLAS_CUTOFF.tau == doc["blas_cutoff"]["tau"]
        ratio = DEFAULT_CUTOFF.tau_m / DEFAULT_CUTOFF.tau
        for t in (BLAS_CUTOFF.tau_m, BLAS_CUTOFF.tau_k, BLAS_CUTOFF.tau_n):
            assert t == ratio * BLAS_CUTOFF.tau
