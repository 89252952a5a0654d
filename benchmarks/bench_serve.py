"""Serving bench: micro-batched pipeline vs one-request-at-a-time.

The serving subsystem's acceptance target: a burst of small
same-signature requests through the micro-batching engine must beat the
naive one-request-at-a-time baseline (a synchronous submit-wait loop on
a ``max_batch=1`` service — every request pays the full round trip of
worker wakeup, queue handoff, and result wakeup) by at least 1.2x
throughput.  Small problems are the honest regime: per-call fixed
overhead is the entire difference between the two modes, and it is
exactly what batching exists to amortize.

Also reported (informationally, unasserted): the async-burst
``max_batch=1`` middle ground, tail latencies, and the batch-size
distribution, all emitted as ``BENCH_serve.json``.
"""

import time

import numpy as np

from benchmarks.conftest import emit, emit_json
from repro.core.cutoff import SimpleCutoff
from repro.serve import GemmService, run_load

N_REQUESTS = 400
ORDER = 12
CUT = SimpleCutoff(16)   # above order: every request is one base kernel


def _requests(n=N_REQUESTS, order=ORDER, seed=0):
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal((order, order)),
             rng.standard_normal((order, order))) for _ in range(n)]


def _service(max_batch):
    return GemmService(workers=1, capacity=4 * N_REQUESTS,
                       max_batch=max_batch, cutoff=CUT)


def _run_sync(reqs):
    """One-request-at-a-time: submit, wait, repeat."""
    with _service(max_batch=1) as svc:
        t0 = time.perf_counter()
        for a, b in reqs:
            svc.call(a, b, timeout=60.0)
        return time.perf_counter() - t0, svc.stats()


def _run_burst(reqs, max_batch):
    """Async burst: submit everything, then drain the futures."""
    with _service(max_batch=max_batch) as svc:
        t0 = time.perf_counter()
        futs = [svc.submit(a, b) for a, b in reqs]
        for f in futs:
            f.result(timeout=60.0)
        return time.perf_counter() - t0, svc.stats()


def _best(fn, rounds=3):
    results = [fn() for _ in range(rounds)]
    return min(results, key=lambda r: r[0])


def test_microbatch_throughput(benchmark):
    """Batched burst vs sync loop on 400 tiny same-signature requests."""
    reqs = _requests()

    t_sync, st_sync = _best(lambda: _run_sync(reqs))
    t_naive, st_naive = _best(lambda: _run_burst(reqs, max_batch=1))
    t_batch, st_batch = benchmark.pedantic(
        lambda: _best(lambda: _run_burst(reqs, max_batch=32)),
        rounds=1, iterations=1,
    )

    n = len(reqs)
    rows = []
    for label, t, st in (("sync_one_at_a_time", t_sync, st_sync),
                         ("burst_unbatched", t_naive, st_naive),
                         ("burst_batched", t_batch, st_batch)):
        lat = st["histograms"]["latency_ms"]
        bat = st["histograms"]["batch_size"]
        rows.append({
            "mode": label,
            "total_s": t,
            "throughput_rps": n / t,
            "latency_p50_ms": lat["p50"],
            "latency_p99_ms": lat["p99"],
            "batches": st["counters"]["batches"],
            "batch_size_mean": bat["mean"],
            "batch_size_max": bat["max"],
        })

    speedup = t_sync / t_batch
    emit(
        "Serving: micro-batched pipeline vs one-request-at-a-time",
        "\n".join(
            f"{r['mode']:<20} {r['total_s'] * 1e3:7.1f} ms "
            f"({r['throughput_rps']:7.0f} req/s), p99 "
            f"{r['latency_p99_ms']:.2f} ms, mean batch "
            f"{r['batch_size_mean']:.1f}"
            for r in rows
        ) + f"\nbatched vs sync speedup {speedup:.2f}x",
    )
    emit_json(
        "serve",
        {"n_requests": n, "order": ORDER, "tau": CUT.tau,
         "max_batch": 32, "workers": 1},
        rows,
        speedup_batched_vs_sync=speedup,
    )

    # acceptance: batching amortizes per-request overhead >= 1.2x
    assert speedup >= 1.2, (
        f"batched throughput only {speedup:.2f}x the one-at-a-time "
        f"baseline (need >= 1.2x)"
    )
    # batching must actually have engaged
    assert rows[2]["batch_size_max"] >= 8


def test_fused_serving_throughput(benchmark):
    """Fused vs walked micro-batched bursts on one hot signature.

    Reuses the micro-batch burst harness with ``fuse`` on: every request
    replays the same cache-hot fused program, where an unfused request
    walks the recursion.  Order 48 at tau = 16 recurses two levels per
    request (8 internal nodes, 49 base kernels; the fused program packs
    them into 7 batched groups and 28 direct products), a small explicit
    cutoff under which the walk pays its per-node overhead.  The gap is
    reported informationally; the asserted fused-replay floor lives in
    ``bench_plan.py::test_plan_fused_replay``.
    """
    reqs = _requests(n=200, order=48)

    def burst(fuse):
        with GemmService(workers=1, capacity=1024, max_batch=32,
                         cutoff=SimpleCutoff(16), fuse=fuse) as svc:
            t0 = time.perf_counter()
            futs = [svc.submit(a, b) for a, b in reqs]
            for f in futs:
                f.result(timeout=60.0)
            return time.perf_counter() - t0, svc.stats()

    t_walk, _ = _best(lambda: burst(False))
    t_fus, st = benchmark.pedantic(
        lambda: _best(lambda: burst(True)), rounds=1, iterations=1,
    )
    n = len(reqs)
    emit(
        "Serving: fused vs walked batched bursts (order-48, tau=16)",
        f"walked {t_walk * 1e3:7.1f} ms ({n / t_walk:7.0f} req/s)\n"
        f"fused  {t_fus * 1e3:7.1f} ms ({n / t_fus:7.0f} req/s)\n"
        f"ratio {t_walk / t_fus:.2f}x",
    )
    emit_json(
        "serve_fused",
        {"n_requests": n, "order": 48, "tau": 16, "max_batch": 32,
         "workers": 1},
        [{"mode": "burst_walk", "total_s": t_walk,
          "throughput_rps": n / t_walk},
         {"mode": "burst_fused", "total_s": t_fus,
          "throughput_rps": n / t_fus}],
        ratio_fused_vs_walk=t_walk / t_fus,
    )
    # fused serving must never lose outright; the strong floor is
    # asserted on the deep-plan bench
    assert t_fus <= 1.2 * t_walk
    assert st["plan_cache"]["plans"] == 1


def test_open_loop_load(benchmark):
    """Open-loop mixed-shape load: verified, with tail-latency report."""
    report = benchmark.pedantic(
        lambda: run_load(duration=2.0, rate=300, workers=2, n_shapes=6,
                         seed=1, max_dim=32),
        rounds=1, iterations=1,
    )
    svc = report["service"]
    lat = svc["histograms"]["latency_ms"]
    emit(
        "Serving: open-loop mixed-shape load (2 s at 300 req/s)",
        f"completed {report['completed']}/{report['attempts']} "
        f"({report['achieved_rate']:.0f} req/s), divergent "
        f"{report['divergent']}, errors {report['errors']}\n"
        f"latency ms: p50 {lat['p50']:.2f}, p95 {lat['p95']:.2f}, "
        f"p99 {lat['p99']:.2f}\n"
        f"plan cache hit rate {svc['plan_cache']['hit_rate']:.2f}, "
        f"pool arenas {svc['pool']['created']}",
    )
    emit_json(
        "serve_load",
        {"duration": 2.0, "rate": 300, "workers": 2, "n_shapes": 6,
         "seed": 1, "max_dim": 32},
        [report],
    )
    assert report["divergent"] == 0 and report["errors"] == 0
    assert report["completed"] >= 500


def test_open_loop_load_fused(benchmark):
    """Open-loop load with fused plans: every reply is still verified.

    Same harness as :func:`test_open_loop_load` but with ``fuse=True``,
    so the loadgen checks each fused reply bit-for-bit against a fused
    reference replay.  The assertion of record is ``divergent == 0``:
    fused serving under concurrent mixed-shape load must be
    deterministic and correct, not merely fast.
    """
    report = benchmark.pedantic(
        lambda: run_load(duration=2.0, rate=300, workers=2, n_shapes=6,
                         seed=1, max_dim=32, fuse=True),
        rounds=1, iterations=1,
    )
    svc = report["service"]
    lat = svc["histograms"]["latency_ms"]
    emit(
        "Serving: fused open-loop mixed-shape load (2 s at 300 req/s)",
        f"completed {report['completed']}/{report['attempts']} "
        f"({report['achieved_rate']:.0f} req/s), divergent "
        f"{report['divergent']}, errors {report['errors']}\n"
        f"latency ms: p50 {lat['p50']:.2f}, p99 {lat['p99']:.2f}\n"
        f"plan cache hit rate {svc['plan_cache']['hit_rate']:.2f}",
    )
    emit_json(
        "serve_load_fused",
        {"duration": 2.0, "rate": 300, "workers": 2, "n_shapes": 6,
         "seed": 1, "max_dim": 32, "fuse": True},
        [report],
    )
    assert report["fuse"] is True
    assert report["divergent"] == 0 and report["errors"] == 0
    assert report["completed"] >= 500
    assert svc["plan_cache"]["hit_rate"] > 0.8
