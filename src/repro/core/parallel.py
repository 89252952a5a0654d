"""Task-parallel DGEFMM — the paper's "extend ... to use parallelism".

Strassen's construction is naturally task-parallel: after stages (1) and
(2) produce the S/T block sums, the seven products of stage (3) touch
disjoint outputs and read-only inputs.  A parallel level materializes
all eight sums, runs the seven products on a thread pool (each product
recurses; numpy's einsum kernels release the GIL, so threads genuinely
overlap), then combines stage (4) serially.

Parallel execution is plan replay.  :func:`pdgefmm` compiles (or fetches
from a plan cache) a *parallel plan* —
:func:`repro.plan.compiler.compile_plan` with ``kind="parallel"`` — and
replays it with :func:`repro.plan.executor.execute_plan`.  The compiler
records this module's stage helpers (:func:`_stage_sums`,
:func:`_job_operands`, :func:`_stage_combine`) as a node's prologue,
branches and epilogue, and compiles the serial subtrees below the
parallel region with the one DGEFMM walker
(:func:`repro.core.dgefmm._rec`) at their true depth.  Recurse-vs-base
and peel decisions come from the shared traversal core
(:func:`repro.core.traversal.decide`), so the parallel recursion's
*structure* is the serial driver's for the same
:class:`~repro.core.config.GemmConfig`.  The parallel level always
materializes the seven Winograd products, whichever serial schedule
(two-temporary, six-temporary, multiply-accumulate, or BDPZ) would have
run the node; levels whose bilinear form is *not* the seven Winograd
products (:data:`PARALLEL_LEVELS` is the allow-list — ``textbook`` and
the ⟨3,3,3;23⟩ Laderman level are outside it) run serially.  A call
whose top node cannot run a parallel level, and any object-dtype call,
takes :func:`~repro.core.dgefmm.dgefmm`'s path unchanged.

**Multi-level parallelism.**  Parallel levels recurse under a bounded
*worker budget*: a node replayed with ``workers=w`` runs its seven
products on ``t = min(w, 7)`` threads and hands each product the
remaining budget ``max(1, w // t)``.  Down to ``max_parallel_depth``
every product is itself a parallel level, run on as many threads as its
inherited budget affords (a sub-budget of 1 runs it sequentially);
below the parallel region each product is an ordinary serial DGEFMM
recursion *continuing at its true depth* — so depth-sensitive criteria
like :class:`~repro.core.cutoff.DepthCutoff` see one consistent depth
whether a level ran parallel or serial.  So ``workers=7`` gives the
classic one-level fan-out, ``workers=14, max_parallel_depth=2`` runs
7 x 2 threads across two levels, and ``workers=49`` saturates two full
levels.  The plan's structure depends only on the depth knob and the
config — never on the budget — so op counts and workspace accounting
are identical for every ``workers`` value at a fixed depth.

**Workspace pooling.**  Every plan node replays in its own arena
(concurrent branches cannot share one buffer).  Without a pool each is
a fresh aligned buffer; with a :class:`~repro.core.pool.WorkspacePool`
the arenas are checked out, reused, and checked back in — repeated
same-shape calls amortize temporary allocation to zero
(:func:`~repro.core.pool.workspace_bound_bytes` sizes the arenas from
the paper's Table 1 bounds; :func:`parallel_arena_count` bounds how many
a given budget can hold at once).

The parallel level deliberately abandons the memory frugality of the
serial schedules: all four S, all four T and all seven P blocks are live
at once (mk + kn + 7mn/4 extra in the general case), the classical
memory-for-parallelism trade the paper's serial design avoided.  The
workspace accounting makes that cost visible, as everywhere else:
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

from repro.blas.addsub import BlockKernels
from repro.blas.level3 import DEFAULT_TILE
from repro.context import ExecutionContext, ensure_context
from repro.core.cutoff import CutoffCriterion
from repro.core.dgefmm import _prologue, _serial
# Not called here: benchmarks/e2e/trace.py patches these names in this
# module, so they stay importable from it.
from repro.core.peeling import apply_fixups, apply_fixups_head  # noqa: F401
from repro.core.pool import WorkspacePool
from repro.core.traversal import Base, decide
from repro.errors import DimensionError

__all__ = ["pdgefmm", "parallel_arena_count", "PARALLEL_LEVELS"]

#: Level codes the fixed parallel schedule can host: every schedule whose
#: bilinear form is the seven Winograd products.  Other levels (textbook's
#: eight-product combine, Laderman's 23-product ⟨3,3,3⟩) run serially —
#: :func:`pdgefmm` routes on this set at the top node, the plan compiler
#: at every node below it.
PARALLEL_LEVELS = frozenset({"s1b0", "s1g", "s2", "bdpz"})


def _split_budget(budget: int, r: int = 7) -> tuple:
    """(threads at this level, budget inherited by each product)."""
    t = min(budget, r)
    return t, max(1, budget // t)


def parallel_arena_count(workers: int, max_parallel_depth: int = 1) -> int:
    """Most arenas a ``pdgefmm`` call can hold checked out at once.

    Use as the ``prewarm`` count of a :class:`~repro.core.pool.WorkspacePool`
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
        t, sub = _split_budget(budget)
        if level < max_parallel_depth:
            per_job = held(sub, level + 1)
        else:
            per_job = 1
        return 1 + t * per_job

    return held(workers, 1)


def _quadrants(x: Any) -> tuple:
    """The four half-size blocks of an even-dimensioned matrix."""
    m, n = x.shape
    hm, hn = m // 2, n // 2
    return x[:hm, :hn], x[:hm, hn:], x[hm:, :hn], x[hm:, hn:]


def _stage_sums(a: Any, b: Any, ws: Any, dt: Any, em: BlockKernels) -> tuple:
    """Stages (1)/(2) of the parallel level: materialize all four S and
    four T block sums plus the seven product blocks.

    Returns ``((s1..s4), (t1..t4), (p1..p7))`` — every block drawn from
    ``ws`` in a fixed order, so the compiled arena layout is one bump
    allocation per call.  The plan compiler runs this with recording
    ``em`` kernels and a recording workspace.
    """
    a11, a12, a21, a22 = _quadrants(a)
    b11, b12, b21, b22 = _quadrants(b)
    hm, hk = a11.shape
    hn = b11.shape[1]
    s1 = em.madd(a21, a22, ws.alloc(hm, hk, dt))
    s2 = em.msub(s1, a11, ws.alloc(hm, hk, dt))
    s3 = em.msub(a11, a21, ws.alloc(hm, hk, dt))
    s4 = em.msub(a12, s2, ws.alloc(hm, hk, dt))
    t1 = em.msub(b12, b11, ws.alloc(hk, hn, dt))
    t2 = em.msub(b22, t1, ws.alloc(hk, hn, dt))
    t3 = em.msub(b22, b12, ws.alloc(hk, hn, dt))
    t4 = em.msub(t2, b21, ws.alloc(hk, hn, dt))
    ps = tuple(ws.alloc(hm, hn, dt) for _ in range(7))
    return (s1, s2, s3, s4), (t1, t2, t3, t4), ps


def _job_operands(a: Any, b: Any, s: tuple, t: tuple, ps: tuple) -> tuple:
    """The seven independent products of stage (3) as (a, b, out) triples."""
    a11, a12, a21, a22 = _quadrants(a)
    b11, b12, b21, b22 = _quadrants(b)
    s1, s2, s3, s4 = s
    t1, t2, t3, t4 = t
    p1, p2, p3, p4, p5, p6, p7 = ps
    return (
        (a11, b11, p1), (a12, b21, p2), (s4, b22, p3), (a22, t4, p4),
        (s1, t1, p5), (s2, t2, p6), (s3, t3, p7),
    )


def _stage_combine(
    ps: tuple, c: Any, alpha: Any, beta: Any, em: BlockKernels
) -> None:
    """Stage (4), serial: the U-tree over the materialized products."""
    c11, c12, c21, c22 = _quadrants(c)
    p1, p2, p3, p4, p5, p6, p7 = ps
    em.accum(p1, p6)                 # p6 = U2
    em.accum(p1, p2)                 # p2 = U1
    em.axpby(alpha, p2, beta, c11)   # C11 done
    em.accum(p6, p7)                 # p7 = U3
    em.axpby(alpha, p7, beta, c21)
    em.axpby(-alpha, p4, 1.0, c21)   # C21 done
    em.axpby(alpha, p7, beta, c22)
    em.axpby(alpha, p5, 1.0, c22)    # C22 done
    em.accum(p6, p5)                 # p5 = U4
    em.accum(p3, p5)                 # p5 = U5
    em.axpby(alpha, p5, beta, c12)   # C12 done


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

    Up to ``max_parallel_depth`` Winograd levels run their seven products
    concurrently under a total budget of ``workers`` threads (split
    level-by-level, see the module docstring); below the parallel region
    each product is an ordinary serial DGEFMM recursion continuing at
    its true depth with the same frozen
    :class:`~repro.core.config.GemmConfig`.  The driver accepts the full
    serial knob set — ``cutoff``, ``scheme``, ``peel``, ``nb``,
    ``backend``, ``fuse``, ``accuracy`` — and shares
    :func:`~repro.core.dgefmm.dgefmm`'s prologue (validation, degenerate
    cases, copy-on-overlap).

    When the top-level node is a :data:`PARALLEL_LEVELS` level, the call
    replays a parallel plan: fetched from ``plan_cache`` (a
    :class:`~repro.plan.cache.PlanCache`) when one is given, compiled
    for this call otherwise.  Every other call — a top-level base case,
    a scheme outside :data:`PARALLEL_LEVELS` (``textbook``'s 15-add
    combine tree, ``laderman``'s 23-product ⟨3,3,3⟩ partition), or an
    object-dtype problem — takes exactly ``dgefmm``'s path and is
    bit-identical to it.  ``pool`` supplies the per-worker arenas.
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
    if (cfg.dtype == "object" or isinstance(node, Base)
            or node.level not in PARALLEL_LEVELS):
        return _serial(call, c, ctx, None, pool, plan_cache)

    # lazy imports: repro.plan compiles through this module's stage
    # helpers
    from repro.plan.compiler import compile_plan
    from repro.plan.executor import execute_plan

    sig = call.signature("parallel", max_parallel_depth)
    plan = (plan_cache.get_or_compile(sig) if plan_cache is not None
            else compile_plan(sig))
    execute_plan(plan, call.a, call.b, c, call.alpha, call.beta, ctx=ctx,
                 pool=pool, workers=workers)
    if plan_cache is not None:
        ctx.stats_set("plan_cache", plan_cache.stats())
    return c
