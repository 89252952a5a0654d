"""Plan bench: warm cached fused replay vs the vendor walk.

A compiled plan is the fused program of a vendor signature under fast
accuracy, and ``dgefmm(backend="vendor", plan_cache=)`` replays it when
the call's root recurses; every other call walks the recursion.  These
benches time the two engines that remain against each other in the
deep-recursion regime of a small explicit cutoff, where the walk's
per-node cost (cutoff tests, peeling logic, workspace frames, per-op
validation and charges) is largest, plus the cache's compile-once
economics and a compile-time regression guard.  That a warm replay
allocates nothing and compiles once is pinned by
``tests/test_plan.py::TestPooledReplay``.
"""

import time

import numpy as np

from benchmarks.conftest import emit, emit_json
from repro.core.config import GemmConfig
from repro.core.cutoff import SimpleCutoff
from repro.core.dgefmm import dgefmm
from repro.core.pool import WorkspacePool, workspace_bound_bytes
from repro.plan import PlanCache
from repro.plan.compiler import compile_plan, signature_for


def _best(fn, n=7):
    ts = []
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        ts.append(time.perf_counter() - t0)
    return min(ts)


def _best_alternated(fns, n=7):
    """Best-of-``n`` time of each function, the functions run in turn
    within every round so host drift hits them alike."""
    best = [float("inf")] * len(fns)
    for _ in range(n):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def test_plan_cache_amortization(benchmark):
    """Compile-once economics over a mixed-shape workload.

    Times the first (compiling) pass against later warm passes over the
    same shape mix through one bounded cache, and reports how plan bytes
    and evictions behave when the bound is deliberately small.
    """
    crit = SimpleCutoff(16)
    shapes = [(64, 64, 64), (65, 63, 67), (96, 48, 80), (33, 97, 41)]
    rng = np.random.default_rng(1)
    work = []
    for mm, kk, nn in shapes:
        work.append((
            np.asfortranarray(rng.standard_normal((mm, kk))),
            np.asfortranarray(rng.standard_normal((kk, nn))),
            np.zeros((mm, nn), order="F"),
        ))
    cache = PlanCache(max_plans=len(shapes))

    def sweep():
        for a, b, c in work:
            dgefmm(a, b, c, cutoff=crit, backend="vendor", plan_cache=cache)

    t_cold = _best(sweep, 1)        # every shape compiles
    t_warm = benchmark.pedantic(lambda: _best(sweep, 5),
                                rounds=1, iterations=1)
    stats = cache.stats()
    emit(
        "Plan cache amortization over a 4-shape workload",
        f"cold sweep (compiles) {t_cold * 1e3:.2f} ms, warm sweep "
        f"{t_warm * 1e3:.2f} ms ({t_cold / t_warm:.1f}x)\n"
        f"cache: {stats['plans']} plans, {stats['bytes']:,} B, "
        f"{stats['hits']} hits, {stats['misses']} misses, "
        f"{stats['evictions']} evictions",
    )
    assert stats["misses"] == len(shapes)
    assert stats["evictions"] == 0
    assert t_warm < t_cold


def test_plan_fused_replay(benchmark):
    """Warm cached fused replay vs the pooled vendor walk, m=k=n=192,
    tau=24.

    Fused replay sheds the walk's per-node and per-op cost: the plan's
    ops run as one inline loop, and each base-case product is one
    strided ``np.matmul`` with the vendor kernel's arithmetic (343
    products here).  Both calls are ``dgefmm(backend="vendor",
    pool=)``, with and without a plan cache, so the timed difference is
    the engine alone, and the results are bit-identical.  The assert
    floor is 1.6x (the last run is recorded in BENCH_plan_fused.json).
    """
    m = k = n = 192
    crit = SimpleCutoff(24)
    rng = np.random.default_rng(3)
    a = np.asfortranarray(rng.standard_normal((m, k)))
    b = np.asfortranarray(rng.standard_normal((k, n)))
    c0 = np.asfortranarray(rng.standard_normal((m, n)))

    pool = WorkspacePool(workspace_bound_bytes(m, k, n, "strassen1"))
    cache = PlanCache()
    rows = []
    speedups = {}
    for beta in (0.0, 0.5):
        c_walk = c0.copy(order="F")
        c_fus = c0.copy(order="F")

        def walk():
            dgefmm(a, b, c_walk, 1.0, beta, cutoff=crit, pool=pool,
                   backend="vendor")

        def fused():
            dgefmm(a, b, c_fus, 1.0, beta, cutoff=crit, pool=pool,
                   plan_cache=cache, backend="vendor")

        walk()
        fused()     # warm-up: compiles the plan, grows the arena
        np.testing.assert_array_equal(c_fus, c_walk)

        t_walk, t_fus = _best_alternated((walk, fused))
        speedups[beta] = t_walk / t_fus
        rows.append({"beta": beta, "path": "vendor_walk_pooled",
                     "best_s": t_walk})
        rows.append({"beta": beta, "path": "fused_warm", "best_s": t_fus})

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    sig = signature_for(m, k, n, False, False, False, True,
                        "float64", GemmConfig(cutoff=crit,
                                              backend="vendor"))
    plan = cache.peek(sig)
    products = plan.counts["kernel_calls"]["dgemm"]
    emit(
        "Fused replay vs the vendor walk, m=192, tau=24",
        "\n".join(
            f"beta={beta}: vendor walk "
            f"{rows[2 * i]['best_s'] * 1e3:.2f} ms, fused "
            f"{rows[2 * i + 1]['best_s'] * 1e3:.2f} ms "
            f"-> {speedups[beta]:.2f}x"
            for i, beta in enumerate((0.0, 0.5))
        ) + f"\nplan: {plan!r}, {products} products",
    )
    emit_json(
        "plan_fused",
        {"m": m, "k": k, "n": n, "cutoff": crit.tau, "repeats": 7,
         "assert_floor": 1.6},
        rows,
        summary={
            "speedup_beta0": speedups[0.0],
            "speedup_beta": speedups[0.5],
            "ops": plan.n_ops,
            "direct_products": products,
        },
    )
    for beta, s in speedups.items():
        assert s >= 1.6, (
            f"fused replay only {s:.2f}x the vendor walk at beta={beta} "
            f"(assert floor 1.6x)"
        )


#: pre-refactor reference times (seconds) for the traversal-core
#: rewrite, measured on this bench's fixed workload (m=k=n=192,
#: tau=24) immediately before the single-decide refactor landed.  The
#: guard allows a generous 3x over them: it exists to catch an
#: accidental complexity-class or per-node-cost blowup in the shared
#: decide() kernel, not to pin CI-host jitter.
_PRE_REFACTOR_S = {
    "compile_serial": 4.77e-3,
    "recursive": 11.57e-3,
}
_GUARD_SLACK = 3.0


def test_traversal_refactor_guard(benchmark):
    """Compile time and the walk vs pre-refactor numbers.

    The single-traversal-core refactor routed every walker through one
    decide() kernel; this guard re-runs the plan bench's workload and
    asserts neither compiling the vendor plan nor the eager recursive
    walk regressed past 3x the numbers recorded before the refactor.
    (The parallel-plan compile and the interpreted replay it also timed
    are gone: parallel levels run live, and a plan replays fused.)
    """
    m = k = n = 192
    crit = SimpleCutoff(24)
    sig = signature_for(m, k, n, False, False, False, True, "float64",
                        GemmConfig(cutoff=crit, backend="vendor"))

    rng = np.random.default_rng(2)
    a = np.asfortranarray(rng.standard_normal((m, k)))
    b = np.asfortranarray(rng.standard_normal((k, n)))
    c = np.zeros((m, n), order="F")
    pool = WorkspacePool(workspace_bound_bytes(m, k, n, "strassen1"))

    def recursive():
        dgefmm(a, b, c, cutoff=crit, pool=pool)

    recursive()  # warm the pooled arena
    measured = {
        "compile_serial": _best(lambda: compile_plan(sig), 3),
        "recursive": benchmark.pedantic(lambda: _best(recursive),
                                        rounds=1, iterations=1),
    }

    lines = []
    for key, t in measured.items():
        ref = _PRE_REFACTOR_S[key]
        lines.append(f"{key:<16} {t * 1e3:7.2f} ms "
                     f"(pre-refactor {ref * 1e3:.2f} ms, "
                     f"{t / ref:.2f}x)")
    emit("Traversal-core refactor regression guard, m=192, tau=24",
         "\n".join(lines))
    emit_json(
        "traversal_refactor_guard",
        {"m": m, "k": k, "n": n, "cutoff": crit.tau,
         "slack": _GUARD_SLACK},
        [{"path": key, "best_s": t,
          "pre_refactor_s": _PRE_REFACTOR_S[key]}
         for key, t in measured.items()],
    )
    for key, t in measured.items():
        ref = _PRE_REFACTOR_S[key]
        assert t <= _GUARD_SLACK * ref, (
            f"{key} regressed: {t * 1e3:.2f} ms vs pre-refactor "
            f"{ref * 1e3:.2f} ms (allowed {_GUARD_SLACK}x)"
        )
