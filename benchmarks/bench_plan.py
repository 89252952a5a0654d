"""Plan-compiler bench: warm-cache replay vs the recursive driver.

The plan subsystem's acceptance target is mechanical: with a warm
:class:`PlanCache` and a warm :class:`WorkspacePool`, repeated
same-signature serial-plan replays must (a) allocate nothing fresh and
(b) cut the *non-kernel overhead* — wall time above the pure
kernel-sequence floor — by at least 20% versus the recursive driver,
in the deep-recursion regime of a small explicit cutoff.  ``dgefmm``
walks every unfused call, so the bench replays serial plans through
:func:`~repro.core.dgefmm.replay_serial`.

The floor is measured honestly: the compiled op list is replayed over
operand views resolved *outside* the timed region, which is exactly the
kernel call sequence both paths execute, with zero planning, zero
allocation, and zero view construction around it.  Whatever either
driver spends above that floor is its per-call overhead.
"""

import time

import numpy as np

from benchmarks.conftest import emit, emit_json
from repro.context import ExecutionContext
from repro.core.config import GemmConfig
from repro.core.cutoff import SimpleCutoff
from repro.core.dgefmm import dgefmm, replay_serial
from repro.core.pool import WorkspacePool, workspace_bound_bytes
from repro.plan import PlanCache
from repro.plan.compiler import compile_plan, signature_for
from repro.plan.executor import _aligned_buffer, _resolve, _run_ops


def _best(fn, n=7):
    ts = []
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        ts.append(time.perf_counter() - t0)
    return min(ts)


def test_plan_overhead(benchmark):
    """Warm-cache planned replay vs recursive walk, m=k=n=192, tau=24.

    A deep recursion over small base blocks maximizes the per-call
    planning share (cutoff tests, peeling logic, workspace frames,
    closure and event construction), which is the regime the plan
    subsystem exists for.
    """
    m = k = n = 192
    alpha, beta = 1.0, 0.0
    crit = SimpleCutoff(24)
    rng = np.random.default_rng(0)
    a = np.asfortranarray(rng.standard_normal((m, k)))
    b = np.asfortranarray(rng.standard_normal((k, n)))
    c_rec = np.zeros((m, n), order="F")
    c_pln = np.zeros((m, n), order="F")

    pool = WorkspacePool(workspace_bound_bytes(m, k, n, "strassen1"))
    cache = PlanCache()

    def recursive():
        dgefmm(a, b, c_rec, alpha, beta, cutoff=crit, pool=pool)

    def planned():
        replay_serial(a, b, c_pln, alpha, beta, cutoff=crit, pool=pool,
                      plan_cache=cache)

    recursive()
    planned()  # warm-up: compiles the plan, grows the pooled arena
    np.testing.assert_array_equal(c_pln, c_rec)

    # the zero-allocation claim: nothing fresh once cache and pool are warm
    warm_bytes = pool.new_buffer_bytes
    for _ in range(3):
        planned()
    assert pool.new_buffer_bytes == warm_bytes
    assert cache.stats()["misses"] == 1

    sig = signature_for("serial", m, k, n, False, False, False,
                        beta == 0.0, "float64", GemmConfig(cutoff=crit))
    plan = cache.get_or_compile(sig)  # a hit: planned() compiled it
    assert cache.stats()["misses"] == 1 and not plan.branches

    # kernel-sequence floor: same ops, operands pre-resolved
    buf = _aligned_buffer(plan.arena_bytes)
    c_floor = np.zeros((m, n), order="F")
    views = _resolve(plan, a, b, c_floor, buf)
    st = (alpha, -alpha, beta, -beta)
    ctx = ExecutionContext()

    def floor():
        _run_ops(plan.ops_quiet, views, st, ctx, plan.nb, plan.backend)
        if plan.epilogue_quiet:
            _run_ops(plan.epilogue_quiet, views, st, ctx, plan.nb,
                     plan.backend)

    t_floor = _best(floor)
    t_rec = _best(recursive)
    t_pln = benchmark.pedantic(lambda: _best(planned),
                               rounds=1, iterations=1)
    over_rec = t_rec - t_floor
    over_pln = t_pln - t_floor
    reduction = 1.0 - over_pln / over_rec

    emit(
        "Plan replay vs recursive DGEFMM, m=192, tau=24",
        f"kernel floor {t_floor * 1e3:.2f} ms/call\n"
        f"recursive    {t_rec * 1e3:.2f} ms/call "
        f"({over_rec * 1e3:.2f} ms non-kernel overhead)\n"
        f"planned warm {t_pln * 1e3:.2f} ms/call "
        f"({over_pln * 1e3:.2f} ms non-kernel overhead)\n"
        f"non-kernel overhead reduction {reduction:.0%} "
        f"(acceptance floor 20%); fresh bytes after warm-up: "
        f"{pool.new_buffer_bytes - warm_bytes}",
    )
    emit_json(
        "plan_overhead",
        {"m": m, "k": k, "n": n, "alpha": alpha, "beta": beta,
         "cutoff": crit.tau, "repeats": 7},
        [
            {"path": "kernel_floor", "best_s": t_floor, "overhead_s": 0.0},
            {"path": "recursive", "best_s": t_rec, "overhead_s": over_rec},
            {"path": "planned_warm", "best_s": t_pln,
             "overhead_s": over_pln},
        ],
        summary={"overhead_reduction": reduction,
                 "fresh_bytes_after_warmup": pool.new_buffer_bytes
                 - warm_bytes,
                 "cache": cache.stats()},
    )
    # the acceptance criterion: planned replay sheds >= 20% of the
    # recursive driver's non-kernel overhead
    assert reduction >= 0.20, (t_floor, t_rec, t_pln)


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
            replay_serial(a, b, c, cutoff=crit, plan_cache=cache)

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
    """Fused replay vs interpreted replay, warm cache, m=k=n=192.

    The fusion pass (:mod:`repro.plan.fuse`) exists to shed the
    interpreted executor's per-op Python dispatch: elementwise chains
    run as one inline loop, partnered base-case products execute as one
    batched ``np.matmul`` over packed stacks, and lone products as one
    strided ``np.matmul`` each.  Acceptance asks >= 2x warm-replay
    throughput on cache-hot signatures; the assert below uses 1.6x to
    keep headroom for CI-host jitter (measured on a 2-vCPU host:
    2.0-2.35x for both beta classes over several runs — the last
    recorded in BENCH_plan_fused.json).
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
        c_int = c0.copy(order="F")
        c_fus = c0.copy(order="F")

        def interpreted():
            replay_serial(a, b, c_int, 1.0, beta, cutoff=crit, pool=pool,
                          plan_cache=cache)

        def fused():
            dgefmm(a, b, c_fus, 1.0, beta, cutoff=crit, pool=pool,
                   plan_cache=cache, fuse=True)

        interpreted()
        fused()     # warm-up: compiles both plans, grows the arena
        # the documented tolerance: batched/direct matmul accumulation
        # order differs from the tiled substrate kernel — never exact,
        # always within the oracle's float64 tolerance
        scale = max(1.0, float(np.max(np.abs(c_int))))
        assert float(np.max(np.abs(c_fus - c_int))) <= 1e-9 * scale

        t_int = _best(interpreted)
        t_fus = _best(fused)
        speedups[beta] = t_int / t_fus
        rows.append({"beta": beta, "path": "interpreted_warm",
                     "best_s": t_int})
        rows.append({"beta": beta, "path": "fused_warm", "best_s": t_fus})

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    sig = signature_for("serial", m, k, n, False, False, False, True,
                        "float64", GemmConfig(cutoff=crit, fuse=True))
    fp = cache.peek(sig).fused
    emit(
        "Fused vs interpreted plan replay, m=192, tau=24",
        "\n".join(
            f"beta={beta}: interpreted "
            f"{rows[2 * i]['best_s'] * 1e3:.2f} ms, fused "
            f"{rows[2 * i + 1]['best_s'] * 1e3:.2f} ms "
            f"-> {speedups[beta]:.2f}x"
            for i, beta in enumerate((0.0, 0.5))
        ) + f"\nfused program: {fp!r}",
    )
    emit_json(
        "plan_fused",
        {"m": m, "k": k, "n": n, "cutoff": crit.tau, "repeats": 7,
         "assert_floor": 1.6},
        rows,
        summary={
            "speedup_beta0": speedups[0.0],
            "speedup_beta": speedups[0.5],
            "steps": len(fp.steps),
            "batched_groups": fp.n_batched,
            "max_batch_depth": fp.max_batch,
            "direct_products": fp.n_direct,
            "pack_bytes": fp.pack_bytes,
        },
    )
    for beta, s in speedups.items():
        assert s >= 1.6, (
            f"fused replay only {s:.2f}x interpreted at beta={beta} "
            f"(acceptance target 2x, assert floor 1.6x)"
        )


#: pre-refactor reference times (seconds) for the traversal-core
#: rewrite, measured on this bench's fixed workload (m=k=n=192,
#: tau=24) immediately before the single-decide refactor landed.  The
#: guard allows a generous 3x over them: it exists to catch an
#: accidental complexity-class or per-node-cost blowup in the shared
#: decide() kernel, not to pin CI-host jitter.
_PRE_REFACTOR_S = {
    "compile_serial": 4.77e-3,
    "compile_parallel": 6.08e-3,
    "replay_warm": 10.38e-3,
    "recursive": 11.57e-3,
}
_GUARD_SLACK = 3.0


def test_traversal_refactor_guard(benchmark):
    """Compile time and warm-replay overhead vs pre-refactor numbers.

    The single-traversal-core refactor routed every walker through one
    decide() kernel; this guard re-runs the plan bench's workload and
    asserts none of compile (serial + parallel mirror), warm replay, or
    the eager recursive walk regressed past 3x the numbers recorded
    before the refactor.
    """
    m = k = n = 192
    crit = SimpleCutoff(24)
    cfg = GemmConfig(cutoff=crit)
    sig_s = signature_for("serial", m, k, n, False, False, False, True,
                          "float64", cfg)
    sig_p = signature_for("parallel", m, k, n, False, False, False,
                          True, "float64", cfg, 1)

    rng = np.random.default_rng(2)
    a = np.asfortranarray(rng.standard_normal((m, k)))
    b = np.asfortranarray(rng.standard_normal((k, n)))
    c = np.zeros((m, n), order="F")
    pool = WorkspacePool(workspace_bound_bytes(m, k, n, "strassen1"))
    cache = PlanCache()

    def replay():
        replay_serial(a, b, c, cutoff=crit, pool=pool, plan_cache=cache)

    def recursive():
        dgefmm(a, b, c, cutoff=crit, pool=pool)

    replay()  # warm the cache and the pooled arena
    measured = {
        "compile_serial": _best(lambda: compile_plan(sig_s), 3),
        "compile_parallel": _best(lambda: compile_plan(sig_p), 3),
        "replay_warm": _best(replay),
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
