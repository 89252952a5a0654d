"""Shared-state thread-safety regressions: contexts and the plan cache.

These are the races the serving subsystem leans on being fixed:

- :class:`~repro.context.ExecutionContext` used to lose read-modify-write
  updates (``stats["workspace_peak_bytes"]``, kernel tallies) when one
  context was shared by concurrent top-level calls.  With
  ``threadsafe=True`` every tally must come out *exact* — checked here by
  hammering ``pdgefmm`` from many threads and comparing kernel counts
  against a serial reference, not just "close".
- :class:`~repro.plan.cache.PlanCache` is one lock-protected LRU shared
  by every worker; under concurrent churn with byte-bound evictions its
  counters must stay consistent (no lost entries, no double eviction).
"""

import sys
import threading

import numpy as np
import pytest

from repro.blas import dtypes
from repro.context import ExecutionContext
from repro.core import config
from repro.core.config import GemmConfig
from repro.core.cutoff import SimpleCutoff
from repro.core.dgefmm import dgefmm
from repro.core.parallel import pdgefmm
from repro.plan import compiler
from repro.plan.cache import PlanCache
from repro.plan.compiler import compile_plan, signature_for


def _run_threads(n, fn):
    """Start n threads on fn(i), join, and re-raise the first failure."""
    errors = []

    def wrap(i):
        try:
            fn(i)
        except BaseException as exc:  # noqa: BLE001 — surface in main thread
            errors.append(exc)

    threads = [threading.Thread(target=wrap, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


class TestSharedContextExactness:
    N_THREADS = 8
    CALLS_PER_THREAD = 5

    def _operands(self, seed):
        rng = np.random.default_rng(seed)
        a = np.asfortranarray(rng.standard_normal((33, 29)))
        b = np.asfortranarray(rng.standard_normal((29, 31)))
        return a, b

    def test_pdgefmm_hammer_exact_kernel_counts(self):
        """N threads x M pdgefmm calls into ONE threadsafe context: every
        kernel tally and flop total is exactly N*M times one call's."""
        a, b = self._operands(0)
        crit = SimpleCutoff(8)

        ref = ExecutionContext()
        c_ref = np.zeros((33, 31), order="F")
        pdgefmm(a, b, c_ref, cutoff=crit, workers=3,
                max_parallel_depth=1, ctx=ref)

        shared = ExecutionContext(threadsafe=True)
        assert shared.threadsafe

        def worker(i):
            for _ in range(self.CALLS_PER_THREAD):
                c = np.zeros((33, 31), order="F")
                pdgefmm(a, b, c, cutoff=crit, workers=3,
                        max_parallel_depth=1, ctx=shared)
                assert np.array_equal(c, c_ref)

        _run_threads(self.N_THREADS, worker)

        total = self.N_THREADS * self.CALLS_PER_THREAD
        assert dict(shared.kernel_calls) == {
            k: total * v for k, v in ref.kernel_calls.items()
        }
        assert shared.mul_flops == total * ref.mul_flops
        assert shared.add_flops == total * ref.add_flops
        assert shared.flops == total * ref.flops
        # the high-water mark is a max, not a sum
        assert shared.stats["workspace_peak_bytes"] \
            == ref.stats["workspace_peak_bytes"]

    def test_dgefmm_hammer_exact_counts(self):
        """Same exactness through fused replay from one shared cache,
        bit-identical to the vendor walk."""
        a, b = self._operands(1)
        crit = SimpleCutoff(8)
        cache = PlanCache()

        ref = ExecutionContext()
        c_ref = np.zeros((33, 31), order="F")
        dgefmm(a, b, c_ref, cutoff=crit, ctx=ref, backend="vendor")

        shared = ExecutionContext(threadsafe=True)

        def worker(i):
            for _ in range(self.CALLS_PER_THREAD):
                c = np.zeros((33, 31), order="F")
                dgefmm(a, b, c, cutoff=crit, ctx=shared, backend="vendor",
                       plan_cache=cache)
                assert np.array_equal(c, c_ref)

        _run_threads(self.N_THREADS, worker)
        total = self.N_THREADS * self.CALLS_PER_THREAD
        assert dict(shared.kernel_calls) == {
            k: total * v for k, v in ref.kernel_calls.items()
        }
        assert shared.flops == total * ref.flops
        assert cache.stats()["misses"] == 1

    def test_stats_helpers_atomicity(self):
        """stats_max under contention keeps the true maximum; plain
        lock-free contexts still work unchanged."""
        ctx = ExecutionContext(threadsafe=True)

        def worker(i):
            for v in range(1000):
                ctx.stats_max("peak", i * 1000 + v)

        _run_threads(8, worker)
        assert ctx.stats["peak"] == 7 * 1000 + 999

        plain = ExecutionContext()
        assert not plain.threadsafe
        plain.stats_max("peak", 5)
        plain.stats_max("peak", 3)
        assert plain.stats["peak"] == 5
        plain.stats_set("snap", {"x": 1})
        assert plain.stats["snap"] == {"x": 1}

    def test_service_admission_charges_exact(self):
        """GemmService answers degenerate requests at admission, so every
        submitter thread charges one shared threadsafe context: no
        charge may be lost under concurrent submission."""
        from repro.serve.service import GemmService

        a, b, c = np.ones((6, 5)), np.ones((5, 4)), np.ones((6, 4))
        with GemmService(workers=1) as ref:
            ref.call(a, b, c, 0.0, 2.0)
            one = ref.stats()["work"]
        n, per = self.N_THREADS, 25
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with GemmService(workers=2, capacity=n * per) as svc:
                def submit(i):
                    futs = [svc.submit(a, b, c, 0.0, 2.0)
                            for _ in range(per)]
                    for fut in futs:
                        fut.result(timeout=30.0)

                _run_threads(n, submit)
                work = svc.stats()["work"]
        finally:
            sys.setswitchinterval(old)
        assert one["kernel_calls"]["axpby"] == 1
        assert work["kernel_calls"]["axpby"] == n * per
        assert work["flops"] == n * per * one["flops"]

    def test_merge_child_into_threadsafe(self):
        parent = ExecutionContext(threadsafe=True)
        children = []
        for i in range(4):
            ch = ExecutionContext()
            ch.charge("dgemm", muls=10.0, adds=5.0)
            children.append(ch)

        def worker(i):
            parent.merge_child(children[i])

        _run_threads(4, worker)
        assert parent.kernel_calls["dgemm"] == 4
        assert parent.flops == 60.0


class TestPlanCacheConcurrency:
    def _signatures(self, count):
        crit = SimpleCutoff(8)
        sigs = []
        for i in range(count):
            m = 16 + 3 * i
            sigs.append(signature_for(
                m, m + 1, m + 2, False, False, False, True,
                "float64", GemmConfig(cutoff=crit, nb=64,
                                      backend="vendor"),
            ))
        return sigs

    def test_concurrent_churn_consistent_accounting(self, monkeypatch):
        """N threads churn mixed signatures through a byte-bound cache:
        counters must balance exactly and the bounds must hold.  Then
        they churn more distinct call shapes through fused
        ``dgefmm(backend="vendor", plan_cache=)`` calls than the front
        doors' memos hold: results and kernel tallies equal the vendor
        walk's, and every memo stays bounded."""
        sigs = self._signatures(12)
        # size the byte bound to force evictions: hold ~4 plans' worth
        nbytes = sorted(compile_plan(s).nbytes for s in sigs)
        cache = PlanCache(max_plans=6, max_bytes=4 * nbytes[len(nbytes) // 2])

        n_threads, per_thread = 8, 60
        lookups = n_threads * per_thread

        def worker(i):
            rng = np.random.default_rng(i)
            for _ in range(per_thread):
                sig = sigs[int(rng.integers(0, len(sigs)))]
                plan = cache.get_or_compile(sig)
                assert plan.signature == sig

        _run_threads(n_threads, worker)

        st = cache.stats()
        # every lookup was either a hit or a miss, none lost
        assert st["hits"] + st["misses"] == lookups
        # every miss inserted a plan; each is now resident, evicted, or
        # cleared — exact balance means no lost entry, no double eviction
        assert st["misses"] == st["evictions"] + st["cleared"] + st["plans"]
        assert st["cleared"] == 0
        assert st["plans"] <= cache.max_plans
        assert st["evictions"] > 0, "byte bound never engaged"
        assert 0.0 <= st["hit_rate"] <= 1.0
        assert len(cache) == st["plans"]

        # small bounds and empty memos, so the churn overflows them all
        bounds = {dtypes: ("_CANONICAL", "CANONICAL_MEMO_MAX", 2),
                  config: ("_CONFIGS", "CONFIG_MEMO_MAX", 4),
                  compiler: ("_SIGNATURES", "SIGNATURE_MEMO_MAX", 32)}
        for module, (memo, limit, value) in bounds.items():
            monkeypatch.setattr(module, memo, {})
            monkeypatch.setattr(module, limit, value)
        kinds = ("float64", "float32", "complex128")
        shapes_per_thread = 8

        def front_door(i):
            rng = np.random.default_rng(200 + i)
            dt = kinds[i % len(kinds)]
            for j in range(shapes_per_thread):
                m, k, n = 9 + i, 10 + j, 12      # distinct across threads
                a = np.asfortranarray(rng.standard_normal((m, k)).astype(dt))
                b = np.asfortranarray(rng.standard_normal((k, n)).astype(dt))
                knobs = dict(cutoff=SimpleCutoff(8), nb=4 + i,
                             backend="vendor")
                walked, cached = ExecutionContext(), ExecutionContext()
                ref = np.zeros((m, n), dtype=dt, order="F")
                out = np.zeros((m, n), dtype=dt, order="F")
                dgefmm(a, b, ref, ctx=walked, **knobs)
                dgefmm(a, b, out, ctx=cached, plan_cache=cache, **knobs)
                assert np.array_equal(out, ref)
                assert cached.kernel_calls == walked.kernel_calls
                assert cached.flops == walked.flops

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _run_threads(n_threads, front_door)
        finally:
            sys.setswitchinterval(old)
        assert n_threads * shapes_per_thread > compiler.SIGNATURE_MEMO_MAX
        for module, (memo, limit, _) in bounds.items():
            assert 0 < len(getattr(module, memo)) <= getattr(module, limit)
        st = cache.stats()
        assert st["hits"] + st["misses"] == (
            lookups + n_threads * shapes_per_thread)
        assert st["misses"] == st["evictions"] + st["cleared"] + st["plans"]

    def test_concurrent_churn_with_clears(self):
        """clear() racing get_or_compile keeps the same balance, with the
        cleared counter absorbing dropped entries."""
        sigs = self._signatures(6)
        cache = PlanCache(max_plans=4)
        n_threads, per_thread = 6, 40

        def worker(i):
            rng = np.random.default_rng(100 + i)
            for j in range(per_thread):
                cache.get_or_compile(sigs[int(rng.integers(0, len(sigs)))])
                if i == 0 and j % 10 == 9:
                    cache.clear()

        _run_threads(n_threads, worker)
        st = cache.stats()
        assert st["hits"] + st["misses"] == n_threads * per_thread
        assert st["misses"] == st["evictions"] + st["cleared"] + st["plans"]
        assert st["cleared"] > 0

    def test_single_compilation_per_signature(self):
        """Concurrent first-touch of one signature compiles exactly once
        (compilation happens under the cache lock)."""
        sig = self._signatures(1)[0]
        cache = PlanCache()
        plans = []
        lock = threading.Lock()

        def worker(i):
            p = cache.get_or_compile(sig)
            with lock:
                plans.append(p)

        _run_threads(8, worker)
        assert all(p is plans[0] for p in plans)
        st = cache.stats()
        assert st["misses"] == 1 and st["hits"] == 7

    def test_shared_cache_across_services(self):
        """One PlanCache serving two vendor GemmServices stays
        consistent: their 20 requests compile one fused plan between
        them."""
        from repro.serve import GemmService

        cache = PlanCache(max_plans=8)
        rng = np.random.default_rng(0)
        a = rng.standard_normal((24, 24))
        b = rng.standard_normal((24, 24))
        with GemmService(workers=2, plan_cache=cache, backend="vendor",
                         cutoff=SimpleCutoff(8)) as s1, \
                GemmService(workers=2, plan_cache=cache, backend="vendor",
                            cutoff=SimpleCutoff(8)) as s2:
            futs = [s.submit(a, b) for _ in range(10) for s in (s1, s2)]
            ref = futs[0].result(timeout=30.0)
            for f in futs[1:]:
                assert np.array_equal(f.result(timeout=30.0), ref)
        st = cache.stats()
        assert (st["hits"], st["misses"]) == (19, 1)
        assert st["misses"] == st["evictions"] + st["cleared"] + st["plans"]


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-v"]))
