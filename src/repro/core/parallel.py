"""Task-parallel DGEFMM — the paper's "extend ... to use parallelism".

Every registry scheme is a bilinear algorithm whose level forms R block
products from U/V sums of A and B blocks and combines them into C
through W.  The R products touch disjoint outputs and read-only inputs,
so a parallel level materializes every operand sum, runs the products
on a thread pool (each product recurses; numpy's einsum kernels release
the GIL, so threads genuinely overlap), then combines C serially.

Parallel levels run live.  A recursing node above
``max_parallel_depth`` fans its scheme's R products out with
:func:`repro.core.uvw.fan_out`, runs them on worker threads, and writes
C with :func:`repro.core.uvw.combine` and the peeling fix-up.
Recurse-vs-base and peel decisions come from the shared traversal core
(:func:`repro.core.traversal.decide`), so the parallel recursion's
*structure* is the serial driver's for the same
:class:`~repro.core.config.GemmConfig`, for every scheme, and a
parallel level records the ``peel``/``recurse`` trace events of
:func:`repro.core.dgefmm._rec` at its true depth.  Below the parallel
region each product is a ``dgefmm`` call at its true depth with the
node's child scheme (:func:`repro.core.dgefmm._serial`), so it gets
exactly ``dgefmm``'s engine choice: a base-case root is one ``dgemm``
call, a recursing vendor root under fast accuracy replays its fused
plan from ``plan_cache``, and every other product walks, in a pooled
arena when ``pool`` is given.  Only a top-level base case takes
``dgefmm``'s path whole.

Only the block additions at parallel levels differ from the serial
schedule that would have run the node: the generic operand sums do not
reuse Winograd's S/T chain (a Winograd level issues 36 additions), so
float results may differ from ``dgefmm`` in the last bits.  They are
bit-identical across ``workers``, thread schedules, pools and plan
caches, and exact for the exact dtypes.

**Multi-level parallelism.**  Parallel levels recurse under a bounded
*worker budget*: a level run with a budget of ``w`` runs its R products
on ``t = min(w, R)`` threads and hands each product the remaining
budget ``max(1, w // t)``.  Down to ``max_parallel_depth`` every
recursing product is itself a parallel level, run on as many threads
as its inherited budget affords (a sub-budget of 1 runs it
sequentially); below the parallel region each product is an ordinary
serial DGEFMM recursion *continuing at its true depth* — so
depth-sensitive criteria like :class:`~repro.core.cutoff.DepthCutoff`
see one consistent depth whether a level ran parallel or serial.  So
for a seven-product scheme ``workers=7`` gives the classic one-level
fan-out, ``workers=14, max_parallel_depth=2`` runs 7 x 2 threads across
two levels, and ``workers=49`` saturates two full levels.  What runs
depends only on the depth knob and the config — never on the budget —
so op counts and workspace accounting are identical for every
``workers`` value at a fixed depth.

**Workspace pooling.**  Every parallel level fans out into its own
arena (concurrent products cannot share one buffer), and every
recursing product below the region draws its temporaries from its own.
Without a pool a level's arena is one fresh buffer sized for its
fan-out and a product's a fresh workspace; with a
:class:`~repro.core.pool.WorkspacePool` the arenas are checked out,
reused, and checked back in — repeated same-shape calls amortize
temporary allocation to zero (:func:`~repro.core.pool.
workspace_bound_bytes` sizes the arenas from the paper's Table 1
bounds; :func:`parallel_arena_count` bounds how many a given budget can
hold at once).  Object operands take plain workspaces, as in
``dgefmm``: pooled arenas carve typed views out of a byte buffer.

The parallel level deliberately abandons the memory frugality of the
serial schedules: every non-trivial S and T sum and all R products are
live at once (for Winograd's level four S, four T and seven P blocks,
mk + kn + 7mn/4 extra elements), the classical memory-for-parallelism
trade the paper's serial design avoided.  The workspace accounting
makes that cost visible, as everywhere else:
``ctx.stats["workspace_peak_bytes"]`` charges the *deterministic upper
bound* — the level's own peak plus the sum of all its products'
charges, as if all workers hit their peaks simultaneously — so the
figure is exact and thread-schedule-independent.

Instrumentation: every product charges a private context, merged into
the level's context in job order once the workers have joined
(:meth:`~repro.context.ExecutionContext.merge_child`), so op counts
and traces remain exact at every depth; ``elapsed`` (model time)
accumulates *summed* worker time, i.e. it stays a work measure, not a
wall-clock prediction.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from typing import Any, Optional

import numpy as np

from repro.blas.addsub import kernels_for
from repro.blas.level3 import DEFAULT_TILE
from repro.context import ExecutionContext, RecursionEvent, ensure_context
from repro.core.config import resolve_config
from repro.core.cutoff import CutoffCriterion
from repro.core.dgefmm import _Call, _prologue, _serial
from repro.core.peeling import apply_fixups, apply_fixups_head, core_views
from repro.core.pool import PooledWorkspace, WorkspacePool
from repro.core.schemes import LEVEL_SCHEME, get_scheme
from repro.core.traversal import Base
from repro.core.uvw import combine, fan_out, fan_out_bytes
from repro.core.workspace import Workspace
from repro.errors import DimensionError

__all__ = ["pdgefmm", "parallel_arena_count"]


def _split_budget(budget: int, r: int) -> tuple:
    """(threads at a level of ``r`` products, budget each inherits)."""
    t = min(budget, r)
    return t, max(1, budget // t)


def parallel_arena_count(workers: int, max_parallel_depth: int = 1) -> int:
    """Most arenas a ``pdgefmm`` call can hold checked out at once.

    Counts seven-product levels (every ⟨2,2,2;7⟩ scheme).  Use as the
    ``prewarm`` count of a :class:`~repro.core.pool.WorkspacePool`
    so even the first fully-parallel call constructs no arenas mid-flight.
    """
    if workers < 1:
        raise DimensionError(
            f"parallel_arena_count: workers={workers} must be >= 1"
        )
    if max_parallel_depth < 1:
        raise DimensionError(
            f"parallel_arena_count: max_parallel_depth={max_parallel_depth}"
            " must be >= 1"
        )

    def held(budget: int, level: int) -> int:
        t, sub = _split_budget(budget, 7)
        if level < max_parallel_depth:
            per_job = held(sub, level + 1)
        else:
            per_job = 1
        return 1 + t * per_job

    return held(workers, 1)


def pdgefmm(
    a: Any,
    b: Any,
    c: Any,
    alpha: float = 1.0,
    beta: float = 0.0,
    transa: bool = False,
    transb: bool = False,
    *,
    workers: int = 7,
    max_parallel_depth: int = 1,
    cutoff: Optional[CutoffCriterion] = None,
    scheme: str = "auto",
    peel: str = "tail",
    ctx: Optional[ExecutionContext] = None,
    pool: Optional[WorkspacePool] = None,
    nb: int = DEFAULT_TILE,
    backend: str = "substrate",
    plan_cache: Optional["PlanCache"] = None,
    accuracy: Optional[str] = None,
) -> Any:
    """Parallel Strassen GEMM: ``C <- alpha*op(A)*op(B) + beta*C``.

    Up to ``max_parallel_depth`` levels run their scheme's R products
    concurrently under a total budget of ``workers`` threads (split
    level-by-level, see the module docstring); below the parallel region
    each product is an ordinary serial DGEFMM recursion continuing at
    its true depth with the same frozen
    :class:`~repro.core.config.GemmConfig`.  The driver accepts the full
    serial knob set — ``cutoff``, ``scheme``, ``peel``, ``nb``,
    ``backend``, ``accuracy`` — and shares
    :func:`~repro.core.dgefmm.dgefmm`'s prologue (validation, degenerate
    cases, copy-on-overlap).  As there, ``cutoff=None`` follows the leaf
    kernel (:func:`~repro.core.config.default_cutoff`): the substrate's
    ``DEFAULT_CUTOFF``, or ``BLAS_CUTOFF`` with ``backend="vendor"``.

    The parallel levels run live, and every product below them takes
    ``dgefmm``'s engine choice: under the vendor backend and fast
    accuracy a recursing product replays its fused plan from
    ``plan_cache`` (a :class:`~repro.plan.cache.PlanCache`, keyed by
    the product's depth), bit-identical to its walk, and the cache's
    counters land in ``ctx.stats["plan_cache"]``; every other product
    walks.  Only a top-level base case takes exactly ``dgefmm``'s path
    instead, and is bit-identical to it.  ``pool`` supplies the
    per-level and per-product arenas.  Depth-sensitive cutoff criteria
    (e.g.
    :class:`~repro.core.cutoff.DepthCutoff`) are fully supported: the
    traversal passes the current depth to ``stop`` at every node.  Not
    supported in dry mode (simulated time has no thread model).
    """
    ctx = ensure_context(ctx)
    if ctx.dry:
        raise DimensionError("pdgefmm does not support dry-run contexts")
    if workers < 1:
        raise DimensionError(f"pdgefmm: workers={workers} must be >= 1")
    if max_parallel_depth < 1:
        raise DimensionError(
            f"pdgefmm: max_parallel_depth={max_parallel_depth} must be >= 1"
        )
    call = _prologue(
        "pdgefmm", a, b, c, alpha, beta, transa, transb, ctx,
        cutoff, scheme, peel, nb, backend, accuracy,
    )
    if call is None:
        return c
    root = call.root()
    if isinstance(root, Base):
        return _serial(call, c, ctx, None, pool, plan_cache, root)
    _level(call, c, ctx, root, pool, plan_cache, workers,
           max_parallel_depth)
    if plan_cache is not None and call.cfg.fusable:
        ctx.stats_set("plan_cache", plan_cache.stats())
    return c


def _level(
    call: _Call,
    c: Any,
    ctx: ExecutionContext,
    node: Any,
    pool: Optional[WorkspacePool],
    plan_cache: Optional["PlanCache"],
    budget: int,
    levels: int,
) -> None:
    """Run the recursing ``node`` of ``call`` as a parallel level on a
    ``budget`` of threads, with ``levels`` parallel levels from here
    down; charge its deterministic workspace bound."""
    a, b, alpha, beta, cfg = call.a, call.b, call.alpha, call.beta, call.cfg
    depth = call.depth
    if node.peeled:
        ctx.record(RecursionEvent("peel", node.m, node.k, node.n, depth))
        core_a, core_b, core_c = core_views(a, b, c, cfg.peel,
                                            node.divisors)
    else:
        core_a, core_b, core_c = a, b, c
    ctx.record(RecursionEvent("recurse", node.mp, node.kp, node.np_,
                              depth, node.level))
    sch = get_scheme(LEVEL_SCHEME[node.level])
    em = kernels_for(cfg.accuracy)
    # every product is a beta = 0 call with the node's child scheme;
    # exact arithmetic keeps its scalars integral
    one, zero = (1, 0) if cfg.accuracy == "exact" else (1.0, 0.0)
    child = resolve_config(node.child_scheme, cfg.peel, cfg.cutoff, cfg.nb,
                           cfg.backend, cfg.dtype, cfg.accuracy)
    if cfg.dtype == "object":
        arena = nullcontext(Workspace())
    elif pool is not None:
        arena = pool.arena()
    else:
        # one buffer for the whole fan-out, as a pooled arena carves it:
        # separate blocks are trimmed and page-faulted again every call
        arena = nullcontext(PooledWorkspace(fan_out_bytes(
            sch, core_a, core_b, np.dtype(cfg.dtype).itemsize)))
    with arena as ws, ws.frame():
        jobs = fan_out(sch, core_a, core_b, ws, cfg.dtype, em, ctx)
        ctxs = [ExecutionContext(ctx.machine, trace=ctx.trace)
                for _ in jobs]
        threads, sub_budget = _split_budget(budget, len(jobs))

        def run(i: int) -> None:
            s, t, p = jobs[i]
            job = _Call(s, t, one, zero, False, False, child, depth + 1)
            root = job.root()
            if levels > 1 and not isinstance(root, Base):
                _level(job, p, ctxs[i], root, pool, plan_cache,
                       sub_budget, levels - 1)
            else:
                _serial(job, p, ctxs[i], None, pool, plan_cache, root)

        if threads == 1:
            for i in range(len(jobs)):
                run(i)
        else:
            with ThreadPoolExecutor(max_workers=threads) as tpool:
                list(tpool.map(run, range(len(jobs))))
        charge = ws.peak_bytes
        for jctx in ctxs:
            ctx.merge_child(jctx)
            charge += jctx.stats["workspace_peak_bytes"]
        combine(sch, jobs, core_c, alpha, beta, em, ctx)
    if node.peeled:
        fix = apply_fixups if cfg.peel == "tail" else apply_fixups_head
        fix(a, b, c, alpha, beta, ctx=ctx, divisors=node.divisors)
    ctx.stats_max("workspace_peak_bytes", charge)
