"""Parallel-extension bench: pdgefmm vs serial DGEFMM (wall clock).

Two exhibits:

- the one-level memory-for-parallelism trade of the original extension
  (correctness + workspace ratio, speedup *reported*), and
- the repeated-call throughput regime the multi-level engine targets:
  depth-2 ``pdgefmm`` with a warm :class:`WorkspacePool` against serial
  ``dgefmm``, with per-call fresh-allocation bytes measured before and
  after pooling so the amortization claim is a number, not an assertion.

Speedup depends on host core count (a single-core container shows ~1x
or slightly below due to pool overhead), so the wall-clock comparison is
asserted only on multi-core hosts; the zero-allocation claim is
deterministic and asserted everywhere.
"""

import os
import time

import numpy as np

from benchmarks.conftest import emit
from repro.context import ExecutionContext
from repro.core.cutoff import SimpleCutoff
from repro.core.dgefmm import dgefmm
from repro.core.parallel import parallel_arena_count, pdgefmm
from repro.core.pool import WorkspacePool, workspace_bound_bytes
from repro.core.workspace import Workspace
from repro.plan import PlanCache


def _best(fn, n=3):
    ts = []
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        ts.append(time.perf_counter() - t0)
    return min(ts)


def test_parallel_level(benchmark):
    m = 768
    rng = np.random.default_rng(0)
    a = np.asfortranarray(rng.standard_normal((m, m)))
    b = np.asfortranarray(rng.standard_normal((m, m)))
    c_s = np.zeros((m, m), order="F")
    c_p = np.zeros((m, m), order="F")
    crit = SimpleCutoff(128)

    t_serial = _best(lambda: dgefmm(a, b, c_s, cutoff=crit))
    t_par = benchmark.pedantic(
        lambda: _best(lambda: pdgefmm(a, b, c_p, cutoff=crit)),
        rounds=1, iterations=1,
    )
    ws_s, ctx_p = Workspace(), ExecutionContext()
    dgefmm(a, b, c_s, cutoff=crit, workspace=ws_s)
    pdgefmm(a, b, c_p, cutoff=crit, ctx=ctx_p)
    peak_p = ctx_p.stats["workspace_peak_bytes"]
    emit(
        "Parallel extension: pdgefmm vs dgefmm, m=768",
        f"serial {t_serial:.3f} s, parallel {t_par:.3f} s "
        f"(speedup {t_serial / t_par:.2f}x on {os.cpu_count()} cpus)\n"
        f"workspace: serial {ws_s.peak_elements / m**2:.3f} m^2, "
        f"parallel {peak_p / c_p.itemsize / m**2:.3f} m^2 "
        f"(the memory-for-parallelism trade)",
    )
    np.testing.assert_allclose(c_p, c_s, atol=1e-9)
    assert peak_p > 2 * ws_s.peak_bytes


def test_pooled_throughput(benchmark):
    """Depth-2 pdgefmm + warm pool vs serial dgefmm, repeated 1024s.

    Measures per-call fresh-allocation bytes in three configurations
    (serial unpooled, parallel unpooled, parallel pooled) so the
    amortization benefit of the pool is visible as a before/after
    number.  Asserts the zero-allocation claim always, and the
    wall-clock win only where threads can actually overlap (>= 2 cpus).
    """
    m = 1024
    workers, depth, repeat = 14, 2, 3
    rng = np.random.default_rng(1)
    a = np.asfortranarray(rng.standard_normal((m, m)))
    b = np.asfortranarray(rng.standard_normal((m, m)))
    c_s = np.zeros((m, m), order="F")
    c_p = np.zeros((m, m), order="F")
    crit = SimpleCutoff(128)

    # -- serial, unpooled: fresh Workspace per call ---------------------- #
    serial_bytes = []

    def serial_call():
        ws = Workspace()
        dgefmm(a, b, c_s, cutoff=crit, workspace=ws)
        serial_bytes.append(ws.new_buffer_bytes)

    t_serial = _best(serial_call, repeat)

    # -- parallel, unpooled: fresh arenas per call (the "before") -------- #
    probe = WorkspacePool()  # measures what unpooled calls would allocate
    pdgefmm(a, b, c_p, cutoff=crit, workers=workers,
            max_parallel_depth=depth, pool=probe)
    unpooled_bytes = probe.new_buffer_bytes  # cold pool == per-call cost

    # -- parallel, pooled and warm (the "after") ------------------------- #
    pool = WorkspacePool(
        workspace_bound_bytes(m, m, m, "parallel"),
        prewarm=parallel_arena_count(workers, depth),
    )

    def pooled_call():
        pdgefmm(a, b, c_p, cutoff=crit, workers=workers,
                max_parallel_depth=depth, pool=pool)

    pooled_call()  # warm-up
    warm_bytes = pool.new_buffer_bytes
    t_pooled = benchmark.pedantic(
        lambda: _best(pooled_call, repeat), rounds=1, iterations=1,
    )
    pooled_delta = pool.new_buffer_bytes - warm_bytes

    emit(
        "Pooled multi-level pdgefmm: repeated-call throughput, m=1024",
        f"serial {t_serial:.3f} s/call, pooled depth-{depth} parallel "
        f"{t_pooled:.3f} s/call (speedup {t_serial / t_pooled:.2f}x on "
        f"{os.cpu_count()} cpus, workers={workers})\n"
        f"fresh allocation per call: serial {serial_bytes[-1]:,} B, "
        f"parallel unpooled {unpooled_bytes:,} B, "
        f"parallel pooled+warm {pooled_delta // repeat:,} B "
        f"({pool.arenas_created} pooled arenas)",
    )
    np.testing.assert_allclose(c_p, c_s, atol=1e-9)
    # the amortization claim, measured: zero fresh bytes after warm-up
    assert pooled_delta == 0
    # per-call allocation before pooling is real and nonzero
    assert unpooled_bytes > 0 and serial_bytes[-1] > 0
    cpus = os.cpu_count() or 1
    if cpus >= 2:
        # with real cores to overlap on, warm depth-2 pooled parallel
        # must beat serial wall-clock (the acceptance target)
        assert t_pooled < t_serial


def test_parallel_refactor_guard(benchmark):
    """Warm cached ``pdgefmm`` vs the uncached one-shot call, both over
    the vendor leaf.

    Parallel levels run live either way.  With the cache, each product
    below them (96^3, which recurses under tau = 24) replays its cached
    fused plan; without it, the product walks.  The guard asserts that
    the replaying call is no slower than the walking one.
    """
    m = 192
    crit = SimpleCutoff(24)
    rng = np.random.default_rng(3)
    a = np.asfortranarray(rng.standard_normal((m, m)))
    b = np.asfortranarray(rng.standard_normal((m, m)))
    c = np.zeros((m, m), order="F")

    pool = WorkspacePool(workspace_bound_bytes(m, m, m, "parallel"))
    cache = PlanCache()

    def replay():
        pdgefmm(a, b, c, cutoff=crit, pool=pool, plan_cache=cache,
                backend="vendor")

    def one_shot():
        pdgefmm(a, b, c, cutoff=crit, pool=pool, backend="vendor")

    replay()  # warm the arenas and compile the products' fused plans
    t_replay = _best(replay, 5)
    t_one_shot = benchmark.pedantic(lambda: _best(one_shot, 5),
                                    rounds=1, iterations=1)

    emit(
        "Parallel traversal-refactor guard, vendor leaf, m=192, tau=24, "
        "depth 1",
        f"warm cached call {t_replay * 1e3:.2f} ms/call, uncached "
        f"one-shot {t_one_shot * 1e3:.2f} ms/call",
    )
    # a cache must not slow the call (1.2x tolerance for thread-pool
    # noise)
    assert t_replay <= 1.2 * t_one_shot, (t_replay, t_one_shot)
