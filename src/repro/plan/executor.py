"""execute_plan: replay a compiled plan with zero per-call planning.

A plan is the fused vendor program of one signature
(:mod:`repro.plan.fuse`).  Replaying it resolves each operand region to
a live numpy view (roots are sliced from the call's operands;
temporaries are carved from one arena buffer at the plan's precomputed
byte offsets), resolves each scalar code against the call's
``alpha``/``beta``, and runs the program through
:func:`~repro.plan.fuse.run_fused`: bit-identical to the vendor walk
and charged with its tallies.  What a plan *removes* is everything
around the kernels — per-node cutoff evaluation, peeling decisions,
scheme dispatch, workspace frames and allocation accounting, closure
construction, recursion bookkeeping, and per-op dispatch, validation
and charges.

Plans run where something consumes them: the fused plan of a vendor
call under fast accuracy whose root recurses (through
:func:`repro.core.dgefmm.dgefmm`, the products below a
:func:`repro.core.parallel.pdgefmm` parallel level, and the serving
engine, from a plan cache), and the explicit
:func:`~repro.plan.compiler.compile_plan` / :func:`execute_plan` route.
A context that traces, dry-runs or holds a machine model needs per-op
hooks that a replay charged once per call lacks: :func:`execute_plan`
refuses it, and the drivers walk such calls instead.

Arenas come from a :class:`~repro.core.pool.WorkspacePool` when one is
supplied: the executor reserves the plan's precomputed requirement once
(:meth:`~repro.core.pool.PooledWorkspace.reserve`) and binds temporary
and scratch views against the arena buffer — warm repeated calls
perform **zero** new allocations and reuse the bound views via a
per-buffer cache.  Without a pool, a private aligned buffer per call
keeps the path correct, just not amortized.
"""

from __future__ import annotations

from typing import Any, List, Optional

# not called here: benchmarks/e2e/trace.py patches this name
from repro.blas.level3 import dgemm  # noqa: F401
from repro.blas.validate import copy_on_overlap
from repro.context import ExecutionContext
# not called here: benchmarks/e2e/trace.py patches these names
from repro.core.peeling import apply_fixups, apply_fixups_head  # noqa: F401
from repro.core.pool import WorkspacePool, _aligned_buffer
from repro.errors import ArgumentError
from repro.plan.fuse import run_fused
from repro.plan.ops import ROOT_TEMP

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


def _views(plan, buf, pooled: bool) -> tuple:
    """``(temps, scratch)``: the temporaries' views carved out of
    ``buf``, and the dict :func:`run_fused` fills with the products'
    scratch views.  Cached on the plan when ``buf`` is a pooled arena's:
    only such a buffer comes back on a later call.

    An entry is keyed by the buffer's id with the buffer stored
    alongside, so it both stays valid (its views pin the buffer alive,
    making id reuse impossible while the entry exists) and is verified
    by identity before use (a regrown arena gets fresh views).  Any
    other buffer is fresh per call: its views are bound for this call
    alone, since cached ones would pin the dead buffer.
    """
    cache = plan._views
    entry = cache.get(id(buf)) if pooled else None
    if entry is None or entry[0] is not buf:
        entry = (buf, _bind_temps(plan, buf), {})
        if pooled:
            if len(cache) >= 64:
                cache.clear()
            cache[id(buf)] = entry
    return entry[1], entry[2]


def _resolve(plan, va, vb, vc, temps) -> List[Any]:
    """Per-call region table: root windows sliced fresh, temps from
    ``temps``."""
    roots = (va, vb, vc)
    views: List[Any] = []
    for idx, desc in enumerate(plan.regions):
        kind, off, fr, fc, r0, c0, rows, cols = desc
        if kind == ROOT_TEMP:
            views.append(temps[idx])
        else:
            views.append(roots[kind][r0:r0 + rows, c0:c0 + cols])
    return views


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
) -> Any:
    """Replay ``plan`` against op-resolved operands; returns ``c``.

    ``a``/``b`` must already be transpose-resolved views of shape
    ``(m, k)`` / ``(k, n)`` matching the plan (the driver wrappers do
    this).  ``alpha``/``beta`` must belong to the zero/nonzero classes
    the plan was compiled for.  ``ctx`` must be a plain numeric
    context: one that traces, dry-runs or holds a machine model raises
    :class:`ArgumentError` (walk it with ``dgefmm`` instead).

    Like the drivers, the executor applies the copy-on-overlap fallback
    when ``c`` may share memory with ``a`` or ``b`` — replayed ops write
    into C's windows mid-plan, exactly like the recursion they mirror
    (the driver wrappers have usually resolved overlap already, in which
    case this re-check is one cheap bounds comparison per operand).
    """
    if ctx.trace or ctx.dry or ctx.machine is not None:
        raise ArgumentError(
            "execute_plan", "ctx",
            "a plan replays with one charge per call: a context that "
            "traces, dry-runs or holds a machine model needs the walk "
            "(dgefmm)",
        )
    a, b = copy_on_overlap(c, a, b, ctx=ctx)
    sig = plan.signature
    if tuple(a.shape) != (sig.m, sig.k) or b.shape[1] != sig.n:
        raise ArgumentError(
            "execute_plan", "a/b",
            f"operands {tuple(a.shape)}x{b.shape[1]} do not match "
            f"plan {(sig.m, sig.k, sig.n)}",
        )
    if tuple(c.shape) != (sig.m, sig.n):
        raise ArgumentError(
            "execute_plan", "c",
            f"output {tuple(c.shape)} does not match plan {(sig.m, sig.n)}",
        )
    if sig.alpha_zero != (alpha == 0.0) or sig.beta_zero != (beta == 0.0):
        raise ArgumentError(
            "execute_plan", "alpha/beta",
            "scalar zero-class differs from the plan signature",
        )
    st = (alpha, -alpha, beta, -beta)

    need = plan.arena_bytes
    ws = pool.checkout() if need and pool is not None else None
    try:
        if ws is not None:
            buf = ws.reserve(need)
        else:
            buf = _aligned_buffer(need) if need else None
        temps, scratch = _views(plan, buf, ws is not None)
        run_fused(plan, _resolve(plan, a, b, c, temps), st, ctx, buf,
                  scratch)
    except BaseException:
        if ws is not None:
            pool.release(ws)
        raise
    if ws is not None:
        pool.checkin(ws)
    ctx.stats_max("workspace_peak_bytes", plan.peak_bytes)
    return c
