"""PlanExecutor: replay compiled plans with zero per-call planning.

Executing a plan is a flat loop over op tuples: resolve each operand
region to a live numpy view (roots are sliced from the call's operands;
temporaries are carved from one arena buffer at the plan's precomputed
byte offsets), resolve each scalar code against the call's
``alpha``/``beta``, and invoke the *same* instrumented kernels the
recursive driver uses — :func:`~repro.blas.addsub.madd` and friends,
:func:`~repro.blas.level3.dgemm`, and the peeling fix-up executors.
Because the kernels, operand layouts, and scalar arithmetic are
identical, planned execution is bit-identical to the recursive path and
charges the context identically; what a plan *removes* is everything
around the kernels — per-node cutoff evaluation, peeling decisions,
scheme dispatch, workspace frames and allocation accounting, closure
construction, and recursion bookkeeping.

Plans run where something consumes them: fused calls (``fuse=True``,
through :func:`repro.core.dgefmm.dgefmm` and the serving engine), the
parallel plans of :func:`repro.core.parallel.pdgefmm` (whose branch
leaves are serial plans), and the explicit :func:`~repro.plan.compiler.
compile_plan` / :func:`execute_plan` route.  An unfused serial call
walks the recursion instead: at the default cutoff, interpreted replay
of a serial plan measured no faster than the walk it mirrors.

Arenas come from a :class:`~repro.core.pool.WorkspacePool` when one is
supplied: the executor reserves the plan's precomputed requirement once
(:meth:`~repro.core.pool.PooledWorkspace.reserve`) and binds temporary
views against the arena buffer — warm repeated calls perform **zero**
new allocations and reuse the bound views via a per-buffer cache.
Without a pool, a private aligned buffer per call keeps the path
correct, just not amortized.

Parallel plans are how :func:`repro.core.parallel.pdgefmm` runs: the
``workers`` budget splits level-by-level (structure fixed by the plan,
thread count by the budget), with private worker contexts merged in
job order so instrumentation is thread-schedule-independent.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Any, List, Optional

from repro.blas.addsub import NUMERIC_KERNELS, kernels_for
from repro.blas.dtypes import require_integral_scalar
from repro.blas.level3 import dgemm
from repro.blas.validate import copy_on_overlap
from repro.context import ExecutionContext
from repro.core.parallel import _split_budget
from repro.core.peeling import apply_fixups, apply_fixups_head
from repro.core.pool import WorkspacePool, _aligned_buffer
from repro.errors import ArgumentError
from repro.plan.fuse import run_fused
from repro.plan.ops import (
    OP_ACCUM,
    OP_AXPBY,
    OP_EVENT,
    OP_FIXUP,
    OP_GEMM,
    OP_MADD,
    OP_MSUB,
    ROOT_TEMP,
)

__all__ = ["execute_plan"]


def _bind_temps(plan, buf) -> dict:
    """Views for every temp region of ``plan`` carved out of ``buf``."""
    itemsize = plan.dtype.itemsize
    dtype = plan.dtype
    bases: dict = {}
    views: dict = {}
    for idx, desc in enumerate(plan.regions):
        kind, off, fr, fc, r0, c0, rows, cols = desc
        if kind != ROOT_TEMP:
            continue
        base_key = (off, fr, fc)
        base = bases.get(base_key)
        if base is None:
            nbytes = fr * fc * itemsize
            base = buf[off:off + nbytes].view(dtype).reshape(
                (fr, fc), order="F"
            )
            bases[base_key] = base
        if (r0, c0, rows, cols) == (0, 0, fr, fc):
            views[idx] = base
        else:
            views[idx] = base[r0:r0 + rows, c0:c0 + cols]
    return views


def _resolve(plan, va, vb, vc, buf) -> List[Any]:
    """Per-call region table: root windows sliced fresh, temps cached.

    The temp-view cache is keyed by the arena buffer's id; the buffer is
    stored alongside, so an entry both stays valid (views pin the buffer
    alive, making id reuse impossible while the entry exists) and is
    verified by identity before use (a regrown arena gets fresh views).
    """
    cache = plan._temp_cache
    key = id(buf)
    entry = cache.get(key)
    if entry is None or entry[0] is not buf:
        if len(cache) >= 64:
            cache.clear()
        entry = (buf, _bind_temps(plan, buf))
        cache[key] = entry
    temps = entry[1]
    roots = (va, vb, vc)
    views: List[Any] = []
    for idx, desc in enumerate(plan.regions):
        kind, off, fr, fc, r0, c0, rows, cols = desc
        if kind == ROOT_TEMP:
            views.append(temps[idx])
        else:
            views.append(roots[kind][r0:r0 + rows, c0:c0 + cols])
    return views


def _run_ops(ops, v, st, ctx, nb, backend,
             em=NUMERIC_KERNELS, accuracy="fast") -> None:
    """The flat replay loop.  ``v`` is the resolved region table; ``st``
    the scalar table ``(alpha, -alpha, beta, -beta)`` — int-coded op
    scalars index it, literals (float, or ``np.int64`` in exact plans)
    pass through.  ``em`` is the accuracy-selected block-kernel table
    and ``accuracy`` the matching base-case discipline, so plan replay
    dispatches the *same* kernels the recursive driver would for that
    config (bit-identity per accuracy, not just for "fast")."""
    madd, msub, accum, axpby = em
    for op in ops:
        code = op[0]
        if code == OP_MADD:
            _, xi, yi, oi, al = op
            madd(v[xi], v[yi], v[oi],
                 st[al] if al.__class__ is int else al, ctx=ctx)
        elif code == OP_MSUB:
            _, xi, yi, oi, al = op
            msub(v[xi], v[yi], v[oi],
                 st[al] if al.__class__ is int else al, ctx=ctx)
        elif code == OP_ACCUM:
            accum(v[op[1]], v[op[2]], ctx=ctx)
        elif code == OP_AXPBY:
            _, al, xi, be, yi = op
            axpby(st[al] if al.__class__ is int else al, v[xi],
                  st[be] if be.__class__ is int else be, v[yi], ctx=ctx)
        elif code == OP_GEMM:
            _, ai, bi, ci, al, be = op
            dgemm(v[ai], v[bi], v[ci],
                  st[al] if al.__class__ is int else al,
                  st[be] if be.__class__ is int else be,
                  ctx=ctx, nb=nb, backend=backend, accuracy=accuracy)
        elif code == OP_FIXUP:
            _, ai, bi, ci, al, be, side, divisors = op
            fix = apply_fixups if side == "tail" else apply_fixups_head
            fix(v[ai], v[bi], v[ci],
                st[al] if al.__class__ is int else al,
                st[be] if be.__class__ is int else be, ctx=ctx,
                divisors=divisors)
        else:  # OP_EVENT
            ctx.record(op[1])


def _exec(plan, va, vb, vc, st, ctx, pool, workers) -> None:
    """Execute one plan node (serial body or parallel level)."""
    # Fused replay needs per-op hooks absent: tracing replays EVENT ops,
    # dry runs skip numerics per kernel, and machine models charge
    # modeled seconds per call — all three fall back to the interpreted
    # stream (same plan, bit-identical numerics on the fallback).
    fused = plan.fused
    if fused is not None and (
        ctx.trace or ctx.dry or ctx.machine is not None
    ):
        fused = None
    need = fused.arena_bytes if fused is not None else plan.arena_bytes

    pooled = False
    ws = None
    if need or plan.branches:
        if pool is not None:
            ws = pool.checkout()
            buf = ws.reserve(need)
            pooled = True
        else:
            buf = _aligned_buffer(need)
    else:
        buf = None

    try:
        v = _resolve(plan, va, vb, vc, buf) if plan.regions else []
        em = kernels_for(plan.accuracy)
        if fused is not None:
            run_fused(fused, v, st, ctx, buf)
        else:
            _run_ops(plan.ops if ctx.trace else plan.ops_quiet,
                     v, st, ctx, plan.nb, plan.backend,
                     em, plan.accuracy)

        if plan.branches:
            branches = plan.branches
            threads, sub_budget = _split_budget(workers, len(branches))
            worker_ctxs = [
                ExecutionContext(ctx.machine, trace=ctx.trace)
                for _ in branches
            ]

            def run(idx: int) -> None:
                ai, bi, ci, child = branches[idx]
                _exec(child, v[ai], v[bi], v[ci], st,
                      worker_ctxs[idx], pool, sub_budget)

            if threads == 1:
                for i in range(len(branches)):
                    run(i)
            else:
                with ThreadPoolExecutor(max_workers=threads) as tpool:
                    list(tpool.map(run, range(len(branches))))
            for wctx in worker_ctxs:
                ctx.merge_child(wctx)

            _run_ops(
                plan.epilogue if ctx.trace else plan.epilogue_quiet,
                v, st, ctx, plan.nb, plan.backend,
                em, plan.accuracy,
            )
    except BaseException:
        if pooled:
            pool.release(ws)
        raise
    if pooled:
        pool.checkin(ws)


def execute_plan(
    plan,
    a: Any,
    b: Any,
    c: Any,
    alpha: Any = 1.0,
    beta: Any = 0.0,
    *,
    ctx: ExecutionContext,
    pool: Optional[WorkspacePool] = None,
    workers: int = 1,
) -> Any:
    """Replay ``plan`` against op-resolved operands; returns ``c``.

    ``a``/``b`` must already be transpose-resolved views of shape
    ``(m, k)`` / ``(k, n)`` matching the plan (the driver wrappers do
    this).  ``alpha``/``beta`` must belong to the zero/nonzero classes
    the plan was compiled for.  ``workers`` is the parallel replay
    budget (ignored by serial plans), split level-by-level as described
    in :mod:`repro.core.parallel`.

    Like the drivers, the executor applies the copy-on-overlap fallback
    when ``c`` may share memory with ``a`` or ``b`` — replayed ops write
    into C's windows mid-plan, exactly like the recursion they mirror
    (the driver wrappers have usually resolved overlap already, in which
    case this re-check is one cheap bounds comparison per operand).
    """
    a, b = copy_on_overlap(c, a, b, ctx=ctx)
    sig = plan.signature
    if sig is not None:
        if tuple(a.shape) != (sig.m, sig.k) or b.shape[1] != sig.n:
            raise ArgumentError(
                "execute_plan", "a/b",
                f"operands {tuple(a.shape)}x{b.shape[1]} do not match "
                f"plan {(sig.m, sig.k, sig.n)}",
            )
        if tuple(c.shape) != (sig.m, sig.n):
            raise ArgumentError(
                "execute_plan", "c",
                f"output {tuple(c.shape)} does not match plan "
                f"{(sig.m, sig.n)}",
            )
        if sig.alpha_zero != (alpha == 0.0) or sig.beta_zero != (beta == 0.0):
            raise ArgumentError(
                "execute_plan", "alpha/beta",
                "scalar zero-class differs from the plan signature",
            )
    if plan.accuracy == "exact":
        # integral scalars, as the drivers' prologue coerces them
        alpha = require_integral_scalar("execute_plan", "alpha", alpha)
        beta = require_integral_scalar("execute_plan", "beta", beta)
    st = (alpha, -alpha, beta, -beta)
    _exec(plan, a, b, c, st, ctx, pool, workers)
    ctx.stats_max("workspace_peak_bytes", plan.charge_bytes)
    return c
