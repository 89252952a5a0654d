"""The batched GEMM serving subsystem (:mod:`repro.serve`).

The load-bearing property is at the bottom of this file: every response
the service produces is **bit-identical** to a direct ``dgefmm`` call on
the same operands, across every admission policy, while requests are
micro-batched, queued, shed, and timed out around it.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.__main__ import main
from repro.context import ExecutionContext
from repro.core.cutoff import SimpleCutoff
from repro.core.dgefmm import dgefmm
from repro.errors import (
    ArgumentError,
    DimensionError,
    ServiceClosed,
    ServiceOverloaded,
    ServiceTimeout,
)
from repro.serve import (
    POLICIES,
    AdmissionQueue,
    GemmRequest,
    GemmService,
    MetricsRegistry,
    build_mix,
    run_load,
)
from repro.serve.metrics import Counter, Histogram

CUT = SimpleCutoff(8)


def _req(m=8, k=8, n=8, seed=0, beta=0.0, **kw):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    c = rng.standard_normal((m, n)) if beta != 0.0 else None
    kw.setdefault("cutoff", CUT)
    return GemmRequest(a, b, c, 1.0, beta, **kw)


# ---------------------------------------------------------------------- #
class TestMetrics:
    def test_counter(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_histogram_exact_moments(self):
        h = Histogram("lat")
        for v in (3.0, 1.0, 2.0):
            h.observe(v)
        s = h.snapshot()
        assert s["count"] == 3 and s["sum"] == 6.0
        assert s["min"] == 1.0 and s["max"] == 3.0 and s["mean"] == 2.0

    def test_histogram_quantiles_nearest_rank(self):
        h = Histogram("lat")
        for v in range(1, 101):
            h.observe(float(v))
        s = h.snapshot()
        # nearest rank is ceil(q*n) on 1..100: the 50th/95th/99th value
        assert s["p50"] == 50.0
        assert s["p95"] == 95.0
        assert s["p99"] == 99.0
        assert h.quantile(1.0) == 100.0
        assert h.quantile(0.0) == 1.0   # rank clamps to 1

    def test_quantile_tiny_samples_return_max_not_below(self):
        # p99 of one or two samples is the sample max: ceil(0.99*n)
        # lands on the last rank (the old int(q*n) truncation indexed
        # below it and returned the smaller sample)
        h1 = Histogram("one")
        h1.observe(7.0)
        assert h1.quantile(0.99) == 7.0
        assert h1.snapshot()["p99"] == 7.0
        h2 = Histogram("two")
        h2.observe(1.0)
        h2.observe(2.0)
        assert h2.quantile(0.99) == 2.0
        assert h2.quantile(0.5) == 1.0
        assert h2.snapshot()["p99"] == 2.0

    def test_quantile_empty_histogram_is_none(self):
        h = Histogram("empty")
        assert h.quantile(0.99) is None
        s = h.snapshot()
        assert s["p50"] is None and s["p95"] is None and s["p99"] is None
        assert s["samples"] == 0

    def test_snapshot_consistent_after_ring_wrap(self):
        h = Histogram("wrap", max_samples=4)
        for v in range(1, 11):
            h.observe(float(v))
        s = h.snapshot()
        # exact moments cover the whole history ...
        assert s["count"] == 10 and s["min"] == 1.0 and s["max"] == 10.0
        # ... while quantiles cover the surviving window {7,8,9,10},
        # with the snapshot reporting that window size explicitly
        assert s["samples"] == 4
        assert s["p50"] == 8.0
        assert s["p99"] == 10.0
        assert h.quantile(0.5) == 8.0   # same path as the snapshot

    def test_histogram_ring_bounds_memory_moments_stay_exact(self):
        h = Histogram("lat", max_samples=4)
        for v in range(100):
            h.observe(float(v))
        assert len(h._ring) == 4
        s = h.snapshot()
        assert s["count"] == 100 and s["max"] == 99.0 and s["min"] == 0.0
        # ring holds the most recent window
        assert set(h._ring) == {96.0, 97.0, 98.0, 99.0}

    def test_empty_histogram_snapshot(self):
        s = Histogram("lat").snapshot()
        assert s["count"] == 0
        assert s["p50"] is None and s["mean"] is None

    def test_registry_get_or_create_and_kind_clash(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("b") is reg.histogram("b")
        with pytest.raises(ValueError):
            reg.histogram("a")
        with pytest.raises(ValueError):
            reg.counter("b")

    def test_registry_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(2)
        reg.histogram("h").observe(1.0)
        snap = reg.snapshot()
        assert snap["counters"] == {"n": 2}
        assert snap["histograms"]["h"]["count"] == 1
        json.dumps(snap)  # must be JSON-serializable as-is


# ---------------------------------------------------------------------- #
class TestAdmissionQueue:
    def test_policy_validation(self):
        with pytest.raises(ArgumentError):
            AdmissionQueue(policy="drop-newest")
        with pytest.raises(ArgumentError):
            AdmissionQueue(capacity=0)
        assert set(POLICIES) == {"reject", "block", "shed-oldest"}

    def test_reject_when_full(self):
        q = AdmissionQueue(capacity=2, policy="reject")
        q.put(_req(seed=1))
        q.put(_req(seed=2))
        with pytest.raises(ServiceOverloaded):
            q.put(_req(seed=3))
        assert q.depth == 2

    def test_block_times_out(self):
        q = AdmissionQueue(capacity=1, policy="block")
        q.put(_req(seed=1))
        t0 = time.monotonic()
        with pytest.raises(ServiceOverloaded):
            q.put(_req(seed=2), timeout=0.05)
        assert time.monotonic() - t0 >= 0.04

    def test_block_wakes_on_space(self):
        q = AdmissionQueue(capacity=1, policy="block")
        q.put(_req(seed=1))
        done = threading.Event()

        def submitter():
            q.put(_req(seed=2), timeout=5.0)
            done.set()

        t = threading.Thread(target=submitter)
        t.start()
        time.sleep(0.02)
        assert not done.is_set()
        assert q.take_batch(4, timeout=1.0)   # frees a slot
        t.join(timeout=5.0)
        assert done.is_set() and q.depth == 1

    def test_shed_oldest_returns_victim(self):
        q = AdmissionQueue(capacity=2, policy="shed-oldest")
        first = _req(seed=1)
        q.put(first)
        q.put(_req(seed=2))
        shed = q.put(_req(seed=3))
        assert shed is first
        assert q.depth == 2

    def test_batch_groups_same_signature_fifo(self):
        q = AdmissionQueue(capacity=16)
        r_big = _req(m=12, k=12, n=12, seed=1)   # different signature
        small = [_req(seed=i) for i in range(3)]
        q.put(small[0])
        q.put(r_big)
        q.put(small[1])
        q.put(small[2])
        batch = q.take_batch(8, timeout=1.0)
        # head is globally oldest (small[0]); same-signature mates join
        assert batch == small
        assert q.take_batch(8, timeout=1.0) == [r_big]

    def test_batch_respects_max_batch(self):
        q = AdmissionQueue(capacity=16)
        reqs = [_req(seed=i) for i in range(5)]
        for r in reqs:
            q.put(r)
        assert q.take_batch(2, timeout=1.0) == reqs[:2]
        assert q.take_batch(2, timeout=1.0) == reqs[2:4]

    def test_degenerate_requests_never_batch(self):
        q = AdmissionQueue(capacity=16)
        reqs = [_req(m=0, seed=i) for i in range(3)]
        assert all(r.signature is None for r in reqs)
        for r in reqs:
            q.put(r)
        assert q.take_batch(8, timeout=1.0) == [reqs[0]]
        assert q.take_batch(8, timeout=1.0) == [reqs[1]]

    def test_take_batch_timeout_returns_empty(self):
        q = AdmissionQueue()
        assert q.take_batch(4, timeout=0.02) == []

    def test_close_drains_then_none(self):
        q = AdmissionQueue()
        q.put(_req(seed=1))
        q.close()
        with pytest.raises(ServiceClosed):
            q.put(_req(seed=2))
        assert len(q.take_batch(4, timeout=1.0)) == 1
        assert q.take_batch(4, timeout=1.0) is None

    def test_drain_empties(self):
        q = AdmissionQueue()
        for i in range(3):
            q.put(_req(seed=i))
        assert len(q.drain()) == 3
        assert q.depth == 0


# ---------------------------------------------------------------------- #
class TestRequestValidation:
    def test_dimension_mismatch(self):
        a = np.zeros((4, 5))
        b = np.zeros((6, 3))
        with pytest.raises(DimensionError):
            GemmRequest(a, b, cutoff=CUT)

    def test_beta_requires_c(self):
        a, b = np.zeros((4, 5)), np.zeros((5, 3))
        with pytest.raises(ArgumentError):
            GemmRequest(a, b, None, 1.0, 0.5, cutoff=CUT)
        with pytest.raises(DimensionError):
            GemmRequest(a, b, np.zeros((3, 3)), 1.0, 0.5, cutoff=CUT)

    def test_bad_knobs(self):
        a, b = np.zeros((4, 5)), np.zeros((5, 3))
        with pytest.raises(ArgumentError):
            GemmRequest(a, b, cutoff=CUT, scheme="nope")
        with pytest.raises(ArgumentError):
            GemmRequest(a, b, cutoff=CUT, peel="sideways")
        for nb in (2.5, "8", True):
            with pytest.raises(ArgumentError):
                GemmRequest(a, b, cutoff=CUT, nb=nb)
        # raised by submit itself, not later through the future
        a20 = np.ones((20, 20))
        with GemmService(workers=1) as svc:
            with pytest.raises(ArgumentError):
                svc.submit(a20, a20, nb=2.5)

    def test_degenerate_signature_none(self):
        assert _req(m=0).signature is None
        assert _req(k=0).signature is None
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((4, 5)), rng.standard_normal((5, 3))
        assert GemmRequest(a, b, alpha=0.0, cutoff=CUT).signature is None
        assert GemmRequest(a, b, cutoff=CUT).signature is not None

    def test_future_result_timeout(self):
        r = _req()
        with pytest.raises(ServiceTimeout):
            r.future.result(timeout=0.01)
        assert not r.future.done()


# ---------------------------------------------------------------------- #
def _direct(a, b, c, alpha, beta, transa=False, transb=False, **kw):
    """The reference the service must match bit-for-bit."""
    if beta != 0.0:
        out = np.array(c, copy=True)
    else:
        out = np.zeros(
            (a.shape[1] if transa else a.shape[0],
             b.shape[0] if transb else b.shape[1]),
            dtype=np.result_type(a, b), order="F",
        )
    kw.setdefault("cutoff", CUT)
    dgefmm(a, b, out, alpha, beta, transa, transb, **kw)
    return out


class TestGemmService:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_bit_identical_under_load_all_policies(self, policy):
        rng = np.random.default_rng(7)
        shapes = [(24, 16, 20), (17, 17, 17), (8, 30, 9), (24, 16, 20)]
        cases = []
        for i in range(60):
            m, k, n = shapes[i % len(shapes)]
            alpha, beta = (1.5, 0.5) if i % 3 == 0 else (1.0, 0.0)
            a = rng.standard_normal((m, k))
            b = rng.standard_normal((k, n))
            c = rng.standard_normal((m, n)) if beta != 0.0 else None
            cases.append((a, b, c, alpha, beta))
        with GemmService(workers=3, policy=policy, capacity=512,
                         cutoff=CUT) as svc:
            futs = [svc.submit(a, b, c, alpha, beta)
                    for a, b, c, alpha, beta in cases]
            for fut, (a, b, c, alpha, beta) in zip(futs, cases):
                got = fut.result(timeout=30.0)
                assert np.array_equal(got, _direct(a, b, c, alpha, beta))
            st = svc.stats()
        assert st["counters"]["requests_completed"] == 60
        # unfused requests walk: the plan cache stays empty
        assert st["plan_cache"]["plans"] == st["plan_cache"]["misses"] == 0

    def test_transposes_and_dtypes(self):
        rng = np.random.default_rng(3)
        m, k, n = 13, 21, 9
        # beta == 0 ignores C, its dtype included: a float64 C passed
        # with narrower or exact operands must not type the output
        c64 = np.zeros((m, n))
        with GemmService(workers=2, cutoff=CUT) as svc:
            for transa in (False, True):
                for transb in (False, True):
                    for dt, c in ((np.float64, None), (np.complex128, None),
                                  (np.float32, c64), (np.int64, c64)):
                        a = rng.standard_normal(
                            (k, m) if transa else (m, k)).astype(dt)
                        b = rng.standard_normal(
                            (n, k) if transb else (k, n)).astype(dt)
                        got = svc.call(a, b, c, 1.0, 0.0,
                                       transa, transb, timeout=30.0)
                        ref = _direct(a, b, None, 1.0, 0.0,
                                      transa, transb)
                        assert got.dtype == dt
                        assert np.array_equal(got, ref)
                        if dt is np.int64:
                            opa = a.T if transa else a
                            opb = b.T if transb else b
                            assert np.array_equal(got, opa @ opb)

    def test_degenerate_requests_served(self):
        rng = np.random.default_rng(1)
        with GemmService(workers=1, cutoff=CUT) as svc:
            # alpha == 0: pure beta*C scaling, served off-plan
            a = rng.standard_normal((6, 5))
            b = rng.standard_normal((5, 4))
            c = rng.standard_normal((6, 4))
            got = svc.call(a, b, c, 0.0, 2.0, timeout=30.0)
            assert np.array_equal(got, _direct(a, b, c, 0.0, 2.0))
            # k == 0 with beta == 0: zeros
            got = svc.call(np.zeros((6, 0)), np.zeros((0, 4)),
                           timeout=30.0)
            assert got.shape == (6, 4) and not got.any()

    def test_recursing_and_object_requests_walk(self):
        """A request that recurses at the default cutoff, and an
        object-dtype one, return ``dgefmm``'s bits and compile no plan."""
        rng = np.random.default_rng(4)
        a = rng.standard_normal((300, 300))
        b = rng.standard_normal((300, 300))
        ao = rng.integers(-9, 9, (9, 9)).astype(object)
        with GemmService() as svc:
            got = svc.call(a, b, timeout=60.0)
            got_o = svc.call(ao, ao.T, cutoff=SimpleCutoff(4), timeout=30.0)
            assert len(svc.plan_cache) == 0
        ref = np.zeros((300, 300), order="F")
        dgefmm(a, b, ref)
        assert np.array_equal(got, ref)
        assert got_o.dtype == object
        assert np.array_equal(got_o, _direct(ao, ao.T, None, 1, 0,
                                             cutoff=SimpleCutoff(4)))

    def test_non_integral_exact_scalar_raised_by_submit(self):
        """Exact accuracy admits only integral scalars; submit itself
        raises, before any request is queued."""
        a = np.arange(16, dtype=np.int64).reshape(4, 4)
        with GemmService(workers=1, cutoff=CUT) as svc:
            with pytest.raises(ArgumentError):
                svc.submit(a, a, alpha=1.5)
            st = svc.stats()
        assert st["counters"]["requests_submitted"] == 0

    def test_caller_c_never_mutated(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((12, 12))
        b = rng.standard_normal((12, 12))
        c = rng.standard_normal((12, 12))
        c_before = c.copy()
        with GemmService(workers=1, cutoff=CUT) as svc:
            got = svc.call(a, b, c, 1.0, 1.0, timeout=30.0)
        assert np.array_equal(c, c_before)
        assert got is not c

    def test_micro_batching_amortizes(self):
        """A burst behind a slow head request forms multi-request batches."""
        rng = np.random.default_rng(5)
        big_a = rng.standard_normal((220, 220))
        big_b = rng.standard_normal((220, 220))
        small = [(rng.standard_normal((16, 16)),
                  rng.standard_normal((16, 16))) for _ in range(24)]
        with GemmService(workers=1, capacity=64, max_batch=32,
                         cutoff=CUT) as svc:
            svc.submit(big_a, big_b)          # occupies the lone worker
            futs = [svc.submit(a, b) for a, b in small]
            for f in futs:
                f.result(timeout=60.0)
            sizes = [f.batch_size for f in futs]
            st = svc.stats()
        assert max(sizes) >= 2, "burst never batched"
        assert st["histograms"]["batch_size"]["max"] >= 2
        # fewer batches than requests
        assert st["counters"]["batches"] < st["counters"][
            "requests_completed"]

    def test_reject_policy_overload(self):
        rng = np.random.default_rng(6)
        big = rng.standard_normal((260, 260))
        with GemmService(workers=1, capacity=2, policy="reject",
                         cutoff=CUT) as svc:
            svc.submit(big, big)              # executing
            held = []
            with pytest.raises(ServiceOverloaded):
                for i in range(60):           # overrun the bounded queue
                    held.append(svc.submit(*_ab(rng, i)))
            st = svc.stats()
            assert st["counters"]["requests_rejected"] >= 1
            for f in held:
                f.result(timeout=30.0)

    def test_shed_oldest_fails_victim_future(self):
        rng = np.random.default_rng(8)
        big = rng.standard_normal((260, 260))
        with GemmService(workers=1, capacity=1, policy="shed-oldest",
                         cutoff=CUT) as svc:
            svc.submit(big, big)
            victim = svc.submit(*_ab(rng, 0))
            shed_seen = False
            for i in range(40):
                svc.submit(*_ab(rng, 1 + i))
                if victim.done():
                    break
            try:
                victim.result(timeout=30.0)
            except ServiceOverloaded:
                shed_seen = True
            st = svc.stats()
        # either the victim was shed, or the worker raced in and served it
        assert shed_seen or st["counters"]["requests_shed"] >= 1

    def test_deadline_expires_queued_request(self):
        rng = np.random.default_rng(9)
        big = rng.standard_normal((300, 300))
        with GemmService(workers=1, cutoff=CUT) as svc:
            svc.submit(big, big)
            fut = svc.submit(*_ab(rng, 0), timeout=1e-4)
            with pytest.raises(ServiceTimeout):
                fut.result(timeout=30.0)
            assert svc.stats()["counters"]["requests_timeout"] >= 1

    def test_close_idempotent_and_rejects_after(self):
        svc = GemmService(workers=1, cutoff=CUT)
        svc.close()
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.submit(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_close_without_drain_fails_queued(self):
        rng = np.random.default_rng(10)
        big = rng.standard_normal((300, 300))
        svc = GemmService(workers=1, cutoff=CUT)
        svc.submit(big, big)
        futs = [svc.submit(*_ab(rng, i)) for i in range(4)]
        svc.close(drain=False)
        outcomes = []
        for f in futs:
            try:
                f.result(timeout=30.0)
                outcomes.append("done")
            except ServiceClosed:
                outcomes.append("closed")
        # whatever the worker had already grabbed completes; the rest fail
        assert "closed" in outcomes or all(o == "done" for o in outcomes)

    def test_close_drain_timeout_resolves_every_future(self):
        """The graceful-shutdown contract: when the drain budget
        expires with work still queued, every accepted future resolves
        *at close time* — completed, or failed with ServiceClosed.
        Regression: a timed-out drain used to leave untaken queued
        requests to the daemon workers' discretion, so a caller
        blocking on one of those futures could hang indefinitely.

        Distinct shapes per request, so micro-batching cannot fold the
        queue into the first pickup: the single worker is busy with the
        first request while the rest sit queued when close() fires.
        """
        rng = np.random.default_rng(12)
        big = rng.standard_normal((200, 200))
        svc = GemmService(workers=1, cutoff=CUT)
        futs = [svc.submit(big, big)]
        futs += [
            svc.submit(rng.standard_normal((40 + i, 30)),
                       rng.standard_normal((30, 50 + i)))
            for i in range(5)
        ]
        svc.close(drain=True, timeout=0.0)   # budget exhausted instantly
        # queued-but-untaken requests must have been failed by close()
        # itself; only work a worker already held may still be running
        stranded = [f for f in futs if not f.done()]
        assert len(stranded) <= 1, (
            "close() left queued futures unresolved"
        )
        outcomes = []
        for f in futs:
            try:
                f.result(timeout=60.0)
                outcomes.append("done")
            except ServiceClosed:
                outcomes.append("closed")
        assert "closed" in outcomes

    def test_latency_split_and_work_accounting(self):
        rng = np.random.default_rng(11)
        a, b = rng.standard_normal((20, 20)), rng.standard_normal((20, 20))
        ref_ctx = ExecutionContext()
        out = np.zeros((20, 20), order="F")
        dgefmm(a, b, out, cutoff=CUT, ctx=ref_ctx)
        with GemmService(workers=2, cutoff=CUT) as svc:
            futs = [svc.submit(a, b) for _ in range(6)]
            for f in futs:
                f.result(timeout=30.0)
                assert f.wait_s >= 0.0 and f.compute_s > 0.0
                assert f.batch_size >= 1
            svc.close()
            ctx = svc.context()
            st = svc.stats()
        # 6 identical problems: exactly 6x the single-call kernel tallies
        for kernel, n_calls in ref_ctx.kernel_calls.items():
            assert ctx.kernel_calls[kernel] == 6 * n_calls
        assert ctx.mul_flops == 6 * ref_ctx.mul_flops
        assert st["work"]["flops"] == ctx.flops
        lat = st["histograms"]["latency_ms"]
        assert lat["count"] == 6 and lat["p50"] is not None

    def test_stats_json_serializable(self):
        with GemmService(workers=1, cutoff=CUT) as svc:
            svc.call(np.ones((4, 4)), np.ones((4, 4)), timeout=30.0)
            json.dumps(svc.stats())


def _ab(rng, i, m=16):
    del i
    return rng.standard_normal((m, m)), rng.standard_normal((m, m))


# ---------------------------------------------------------------------- #
class TestLoadgen:
    def test_build_mix_deterministic_no_alias(self):
        m1 = build_mix(n_shapes=6, seed=4)
        m2 = build_mix(n_shapes=6, seed=4)
        assert m1 == m2
        assert all(c.alias == "none" for c in m1)

    def test_run_load_verified_clean(self):
        rep = run_load(duration=0.6, rate=150, workers=2, n_shapes=5,
                       seed=2, max_dim=24)
        assert rep["errors"] == 0
        assert rep["divergent"] == 0
        assert rep["completed"] + rep["rejected"] + rep["shed"] \
            + rep["timeouts"] == rep["attempts"]
        assert rep["completed"] > 0
        assert rep["service"]["counters"]["requests_completed"] \
            == rep["completed"]
        json.dumps(rep)

    @pytest.mark.slow
    def test_acceptance_500_requests_zero_divergence(self):
        """>=500 mixed-shape requests with zero divergence; fused, the
        repeating mix hits the plan cache on more than 80% of them."""
        rep = run_load(duration=4.0, rate=150, workers=3, n_shapes=8,
                       seed=0, max_dim=48)
        assert rep["attempts"] >= 500
        assert rep["divergent"] == 0 and rep["errors"] == 0
        rep = run_load(duration=2.0, rate=150, workers=3, n_shapes=8,
                       seed=0, max_dim=48, fuse=True)
        assert rep["divergent"] == 0 and rep["errors"] == 0
        assert rep["service"]["plan_cache"]["hit_rate"] > 0.8


# ---------------------------------------------------------------------- #
class TestServeCLI:
    def test_serve_human(self, capsys):
        rc = main(["serve", "--duration", "0.5", "--rate", "100",
                   "--shapes", "4", "--max-dim", "24"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "serve: ok" in out
        assert "plan cache" in out and "latency ms" in out

    def test_serve_json(self, capsys):
        rc = main(["serve", "--duration", "0.5", "--rate", "100",
                   "--shapes", "4", "--max-dim", "24", "--json"])
        out = capsys.readouterr().out
        assert rc == 0, out
        doc = json.loads(out)
        assert doc["bench"] == "serve" and doc["schema"] == 1
        assert doc["ok"] is True
        row = doc["rows"][0]
        assert row["divergent"] == 0 and row["errors"] == 0
        assert row["service"]["histograms"]["latency_ms"]["count"] > 0


# ---------------------------------------------------------------------- #
class TestHistogramFamily:
    def test_per_label_isolation_and_snapshot(self):
        from repro.serve.metrics import HistogramFamily

        fam = HistogramFamily("lat_by_sig")
        fam.observe("a", 1.0)
        fam.observe("a", 3.0)
        fam.observe("b", 10.0)
        snap = fam.snapshot()
        assert set(snap) == {"a", "b"}
        assert snap["a"]["count"] == 2
        assert snap["a"]["mean"] == pytest.approx(2.0)
        assert snap["b"]["count"] == 1
        assert fam.get("a").count == 2
        assert fam.get("missing") is None
        assert sorted(fam.labels()) == ["a", "b"]

    def test_label_cardinality_is_bounded(self):
        from repro.serve.metrics import HistogramFamily

        fam = HistogramFamily("lat", max_labels=3)
        for i in range(10):
            fam.observe(f"sig{i}", float(i))
        snap = fam.snapshot()
        # 3 real labels plus the overflow bucket, never more
        assert len(snap) == 4
        assert snap[HistogramFamily.OVERFLOW]["count"] == 7

    def test_registry_family_get_or_create_and_kind_clash(self):
        m = MetricsRegistry()
        f1 = m.histogram_family("by_sig")
        f2 = m.histogram_family("by_sig")
        assert f1 is f2
        m.counter("taken")
        with pytest.raises(ValueError):
            m.histogram_family("taken")
        f1.observe("x", 2.0)
        snap = m.snapshot()
        assert snap["families"]["by_sig"]["x"]["count"] == 1


class TestSignatureBreakdown:
    def test_stats_per_signature_latency_and_counts(self):
        rng = np.random.default_rng(21)
        a, b = rng.standard_normal((16, 16)), rng.standard_normal((16, 16))
        small = rng.standard_normal((4, 4))
        with GemmService(workers=1, cutoff=CUT) as svc:
            for _ in range(3):
                svc.submit(a, b).result(30.0)
            svc.submit(small, small).result(30.0)
            st = svc.stats()
        sigs = st["signatures"]
        assert len(sigs) == 2
        big = sigs["16x16x16:float64:b0:auto:interp:fast"]
        assert big["count"] == 3
        assert big["m"] == 16 and big["beta_zero"] is True
        assert big["latency_ms"]["count"] == 3
        assert big["latency_ms"]["mean"] > 0.0
        assert sigs["4x4x4:float64:b0:auto:interp:fast"]["count"] == 1
        json.dumps(st)  # the breakdown must stay JSON-clean

    def test_degenerate_traffic_buckets_separately(self):
        with GemmService(workers=1, cutoff=CUT) as svc:
            svc.submit(np.zeros((0, 4)), np.zeros((4, 3))).result(30.0)
            st = svc.stats()
        assert st["signatures"]["degenerate"]["count"] == 1

    def test_stats_profiles_section_mirrors_store(self):
        from repro.tune import ProfileStore

        store = ProfileStore()
        with GemmService(workers=1, profiles=store) as svc:
            svc.submit(np.ones((8, 8)), np.ones((8, 8))).result(30.0)
            st = svc.stats()
        assert st["profiles"]["profiles"] == 0
        assert st["profiles"]["missed"] >= 1
        # without a store there is no profiles section at all
        with GemmService(workers=1) as svc:
            assert "profiles" not in svc.stats()
