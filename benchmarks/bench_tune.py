"""Autotuning bench: the closed loop's two numbers that matter.

1. **Predictor error** — the Section 3.4 crossover measured on this
   host with the calibration timers, next to the cost-model ladder's
   predictions of the same experiment.  The models' crossover is the
   quantity the whole offline methodology hangs on; the tuner exists
   precisely because this error is not zero, and ``BENCH_tune.json``
   tracks it instead of assuming it.

2. **Tuned-vs-default serving throughput** — ``tune_class`` on one
   signature class under a short budget, the winner persisted and
   hot-loaded into a ``GemmService`` through the ``profiles`` store,
   then the same burst served with and without the profile.  The ratio
   is the end-to-end value of closing the loop.

Acceptance: the tuned service must not lose to the default one (the
tuner's floor is the default config, so a regression here means the
serving integration — not the search — is broken), and every tuned
response stays bit-identical to direct dgefmm under the tuned config.
"""

import time

import numpy as np

from benchmarks.conftest import emit, emit_json
from repro.core.dgefmm import dgefmm
from repro.plan import PlanCache
from repro.serve import GemmService
from repro.tune import ProfileStore, measure_crossover, tune_class

ORDER = 200
N_REQUESTS = 16
BUDGET_S = 20.0


def _requests(n=N_REQUESTS, order=ORDER, seed=0):
    rng = np.random.default_rng(seed)
    return [(np.asfortranarray(rng.standard_normal((order, order))),
             np.asfortranarray(rng.standard_normal((order, order))))
            for _ in range(n)]


def _serve_burst(reqs, store=None):
    kwargs = {"profiles": store} if store is not None else {}
    with GemmService(workers=1, capacity=4 * len(reqs), **kwargs) as svc:
        t0 = time.perf_counter()
        futs = [svc.submit(a, b) for a, b in reqs]
        outs = [f.result(timeout=120.0) for f in futs]
        dt = time.perf_counter() - t0
        stats = svc.stats()
    return dt, outs, stats


def test_tune_loop(benchmark, tmp_path):
    """Measure the predictor, tune one class, serve through the swap."""
    # -- 1. measured vs predicted crossover ---------------------------- #
    crossover = measure_crossover(lo=64, hi=320, step=64, repeats=1)

    # -- 2. tune one signature class under budget ---------------------- #
    prof = benchmark.pedantic(
        lambda: tune_class(ORDER, ORDER, ORDER, budget_s=BUDGET_S),
        rounds=1, iterations=1,
    )
    store = ProfileStore(str(tmp_path))
    store.put(prof)
    store.save()

    # -- 3. tuned vs default serving throughput ------------------------ #
    reqs = _requests()
    t_default, _, _ = _serve_burst(reqs)
    swapped = ProfileStore(str(tmp_path))
    swapped.load()
    t_tuned, outs, stats = _serve_burst(reqs, store=swapped)

    # bit-exactness of every tuned response vs direct dgefmm
    cfg = prof.to_config()
    cache = PlanCache(max_plans=8)
    exact = 0
    for (a, b), got in zip(reqs, outs):
        want = np.zeros((ORDER, ORDER), order="F")
        dgefmm(a, b, want, cutoff=cfg.cutoff, scheme=cfg.scheme,
               peel=cfg.peel, nb=cfg.nb, backend=cfg.backend,
               plan_cache=cache)
        exact += np.array_equal(got, want)

    ratio = t_default / t_tuned
    meas = prof.measured
    rows = [
        {"stage": "crossover", **crossover},
        {"stage": "search", "profile": prof.to_json(),
         "tuned_s": meas["tuned_s"], "default_s": meas["default_s"],
         "speedup": meas["speedup"], "spent_s": meas["spent_s"]},
        {"stage": "serve",
         "n_requests": len(reqs), "order": ORDER,
         "default_total_s": t_default,
         "tuned_total_s": t_tuned,
         "default_rps": len(reqs) / t_default,
         "tuned_rps": len(reqs) / t_tuned,
         "throughput_ratio": ratio,
         "exact": exact,
         "profile_resolved": stats["counters"]["profile_resolved"]},
    ]

    pred = crossover["predicted"]
    measured = crossover["measured"]
    cross_line = (
        f"measured tau {measured['recommended']}" if measured
        else f"no measured crossover ({crossover['reason']})"
    )
    emit(
        "Autotune: predictor error and tuned-vs-default serving",
        f"crossover: {cross_line}; predicted opcount {pred['opcount']}, "
        f"traffic {pred['traffic']}\n"
        f"tuned config: {prof.scheme}/{prof.peel}, {prof.cutoff!r}, "
        f"nb={prof.nb}, backend={prof.backend} "
        f"(probe speedup {meas['speedup']:.2f}x in {meas['spent_s']:.1f} s)\n"
        f"serving {len(reqs)} x {ORDER}^3: default "
        f"{len(reqs) / t_default:.1f} req/s, tuned "
        f"{len(reqs) / t_tuned:.1f} req/s ({ratio:.2f}x), "
        f"{exact}/{len(reqs)} bit-identical",
    )
    emit_json(
        "tune",
        {"order": ORDER, "n_requests": len(reqs), "budget_s": BUDGET_S,
         "scan": crossover["scan"]},
        rows,
        throughput_ratio=ratio,
        predictor_error=crossover["error"],
    )

    # acceptance: zero divergence, profile actually governed the burst,
    # and the tuned service does not lose to the default one
    assert exact == len(reqs)
    assert stats["counters"]["profile_resolved"] == len(reqs)
    assert ratio >= 0.9, (
        f"tuned serving {ratio:.2f}x the default — the swapped profile "
        f"made serving slower than its own measured floor"
    )
