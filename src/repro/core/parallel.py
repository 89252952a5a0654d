"""Task-parallel DGEFMM — the paper's "extend ... to use parallelism".

Every registry scheme is a bilinear algorithm whose level forms R block
products from U/V sums of A and B blocks and combines them into C
through W.  The R products touch disjoint outputs and read-only inputs,
so a parallel level materializes every operand sum, runs the products
on a thread pool (each product recurses; numpy's einsum kernels release
the GIL, so threads genuinely overlap), then combines C serially.

Parallel execution is plan replay.  :func:`pdgefmm` compiles (or fetches
from a plan cache) a *parallel plan* —
:func:`repro.plan.compiler.compile_plan` with ``kind="parallel"`` — and
replays it with :func:`repro.plan.executor.execute_plan`.  The compiler
records :func:`repro.core.uvw.fan_out` as a node's prologue and
branches and :func:`repro.core.uvw.combine` as its epilogue, and
compiles the serial subtrees below the parallel region with the one
DGEFMM walker (:func:`repro.core.dgefmm._rec`) at their true depth.
Recurse-vs-base and peel decisions come from the shared traversal core
(:func:`repro.core.traversal.decide`), so the parallel recursion's
*structure* is the serial driver's for the same
:class:`~repro.core.config.GemmConfig`, for every scheme.  A top-level
base case and any object-dtype call take
:func:`~repro.core.dgefmm.dgefmm`'s path unchanged.

Only the block additions at parallel levels differ from the serial
schedule that would have run the node: the generic operand sums do not
reuse Winograd's S/T chain (a Winograd level issues 36 additions), so
float results may differ from ``dgefmm`` in the last bits.  They are
bit-identical across ``workers``, thread schedules, and cached vs
per-call plans, and exact for the exact dtypes.

**Multi-level parallelism.**  Parallel levels recurse under a bounded
*worker budget*: a node replayed with ``workers=w`` runs its R
products on ``t = min(w, R)`` threads and hands each product the
remaining budget ``max(1, w // t)``.  Down to ``max_parallel_depth``
every product is itself a parallel level, run on as many threads as its
inherited budget affords (a sub-budget of 1 runs it sequentially);
below the parallel region each product is an ordinary serial DGEFMM
recursion *continuing at its true depth* — so depth-sensitive criteria
like :class:`~repro.core.cutoff.DepthCutoff` see one consistent depth
whether a level ran parallel or serial.  So for a seven-product scheme
``workers=7`` gives the classic one-level fan-out, ``workers=14,
max_parallel_depth=2`` runs 7 x 2 threads across two levels, and
``workers=49`` saturates two full levels.  The plan's structure depends
only on the depth knob and the config — never on the budget — so op
counts and workspace accounting are identical for every ``workers``
value at a fixed depth.

**Workspace pooling.**  Every plan node replays in its own arena
(concurrent branches cannot share one buffer).  Without a pool each is
a fresh aligned buffer; with a :class:`~repro.core.pool.WorkspacePool`
the arenas are checked out, reused, and checked back in — repeated
same-shape calls amortize temporary allocation to zero
(:func:`~repro.core.pool.workspace_bound_bytes` sizes the arenas from
the paper's Table 1 bounds; :func:`parallel_arena_count` bounds how many
a given budget can hold at once).

The parallel level deliberately abandons the memory frugality of the
serial schedules: every non-trivial S and T sum and all R products are
live at once (for Winograd's level four S, four T and seven P blocks,
mk + kn + 7mn/4 extra elements), the classical memory-for-parallelism
trade the paper's serial design avoided.  The workspace accounting
makes that cost visible, as everywhere else:
``ctx.stats["workspace_peak_bytes"]`` charges the *deterministic upper
bound* — the level's own peak plus the sum of all its products' peaks,
as if all workers hit their peaks simultaneously — so the figure is
exact and thread-schedule-independent.

Instrumentation: worker threads charge private contexts which are merged
into the caller's context afterwards
(:meth:`~repro.context.ExecutionContext.merge_child`), so op counts
remain exact at every depth; ``elapsed`` (model time) accumulates
*summed* worker time, i.e. it stays a work measure, not a wall-clock
prediction.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.blas.level3 import DEFAULT_TILE
from repro.context import ExecutionContext, ensure_context
from repro.core.cutoff import CutoffCriterion
from repro.core.dgefmm import _prologue, _replay, _serial
# Not called here: benchmarks/e2e/trace.py patches these names in this
# module, so they stay importable from it.
from repro.core.peeling import apply_fixups, apply_fixups_head  # noqa: F401
from repro.core.pool import WorkspacePool
from repro.core.traversal import Base, decide
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
    fuse: bool = False,
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
    ``backend``, ``fuse``, ``accuracy`` — and shares
    :func:`~repro.core.dgefmm.dgefmm`'s prologue (validation, degenerate
    cases, copy-on-overlap).  As there, ``cutoff=None`` follows the leaf
    kernel (:func:`~repro.core.config.default_cutoff`): the substrate's
    ``DEFAULT_CUTOFF``, or ``BLAS_CUTOFF`` with ``backend="vendor"`` or
    ``fuse=True``.

    The call replays a parallel plan: fetched from ``plan_cache`` (a
    :class:`~repro.plan.cache.PlanCache`) when one is given, compiled
    for this call otherwise.  Only a top-level base case and an
    object-dtype problem take exactly ``dgefmm``'s path instead, and
    are bit-identical to it.  ``pool`` supplies the per-worker arenas.
    Depth-sensitive cutoff criteria (e.g.
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
        cutoff, scheme, peel, nb, backend, fuse, accuracy,
    )
    if call is None:
        return c
    cfg = call.cfg
    m, k = call.a.shape
    node = decide(m, k, call.b.shape[1], 0, cfg.scheme, call.beta == 0.0,
                  cfg.cutoff)
    if cfg.dtype == "object" or isinstance(node, Base):
        return _serial(call, c, ctx, None, pool, plan_cache)
    _replay(call, c, ctx, call.signature("parallel", max_parallel_depth),
            pool, plan_cache, workers)
    return c
