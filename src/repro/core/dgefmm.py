"""DGEFMM — the paper's drop-in replacement for Level 3 BLAS DGEMM.

``dgefmm`` computes ``C <- alpha * op(A) * op(B) + beta * C`` exactly like
DGEMM (Section 3.1), but multiplies by the Winograd variant of Strassen's
algorithm whenever the cutoff criterion says a recursion level pays off:

1. **Cutoff test** (Section 3.4): the criterion (default: the paper's
   hybrid condition, eq. 15) decides recurse-vs-base at *every* level; the
   base case calls the standard-algorithm :func:`repro.blas.dgemm`.
2. **Dynamic peeling** (Section 3.3): odd dimensions are stripped at each
   level, the Strassen schedule runs on the even core, and the peeled
   row/column contributions are applied with DGER/DGEMV fix-ups.
3. **Scheme dispatch** (Section 3.2): ``beta == 0`` uses STRASSEN1's
   two-temporary variant (extra memory ``(m*max(k,n) + kn)/3``); general
   ``beta`` uses STRASSEN2's three-temporary multiply-accumulate schedule
   (``(mk + kn + mn)/3``) — the Table 1 "DGEFMM" row.

All three choices are made per node by the shared traversal core
(:func:`repro.core.traversal.decide`).  :func:`_rec` is the one walker
of that recursion: a *binding* supplies its side effects — live kernels
and workspace here, recording kernels in the plan compiler
(:mod:`repro.plan.compiler`), which drives this same function.

Example
-------
>>> import numpy as np
>>> from repro import dgefmm
>>> rng = np.random.default_rng(7)
>>> A = rng.standard_normal((300, 300))
>>> B = rng.standard_normal((300, 300))
>>> C = np.zeros((300, 300), order="F")
>>> dgefmm(A, B, C)                                   # doctest: +ELLIPSIS
array(...)
>>> bool(np.allclose(C, A @ B))
True
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional, Tuple

from repro.blas.addsub import kernels_for
from repro.blas.dtypes import canonical_dtype, require_integral_scalar
from repro.blas.level3 import DEFAULT_TILE, dgemm
from repro.blas.validate import (
    copy_on_overlap,
    opshape,
    require_matrix,
    require_writable,
)
from repro.context import (
    ExecutionContext,
    RecursionEvent,
    ensure_context,
)
from repro.core.config import (
    DEFAULT_CUTOFF,
    SCHEMES,
    GemmConfig,
    resolve_config,
)
from repro.core.cutoff import CutoffCriterion
from repro.core.peeling import (
    apply_fixups,
    apply_fixups_head,
    core_views,
)
from repro.core.bdpz import bdpz_level
from repro.core.schemes import LEVEL_SCHEME
from repro.core.strassen1 import (
    strassen1_beta0_level,
    strassen1_general_level,
)
from repro.core.strassen2 import strassen2_level
from repro.core.textbook import textbook_level
from repro.core.traversal import Base, decide
from repro.core.uvw import make_uvw_level
from repro.core.workspace import Workspace
from repro.errors import DimensionError

__all__ = ["dgefmm", "zgefmm", "DEFAULT_CUTOFF", "SCHEMES", "LEVEL_FNS"]

#: Schedule functions by traversal level code, dispatched by
#: :func:`_rec` under either binding (live or plan-recording).
#: Hand-written schedules first; every registry level without one
#: (e.g. "l23") gets the generic UVW interpreter built from its
#: coefficients — a new registry scheme is executable with no driver
#: change at all.
LEVEL_FNS = {
    "s1b0": strassen1_beta0_level,
    "s1g": strassen1_general_level,
    "s2": strassen2_level,
    "tb": textbook_level,
    "bdpz": bdpz_level,
}
for _level, _scheme_name in LEVEL_SCHEME.items():
    if _level not in LEVEL_FNS:
        LEVEL_FNS[_level] = make_uvw_level(_scheme_name)
del _level, _scheme_name


def dgefmm(
    a: Any,
    b: Any,
    c: Any,
    alpha: float = 1.0,
    beta: float = 0.0,
    transa: bool = False,
    transb: bool = False,
    *,
    cutoff: Optional[CutoffCriterion] = None,
    scheme: str = "auto",
    peel: str = "tail",
    ctx: Optional[ExecutionContext] = None,
    workspace: Optional[Workspace] = None,
    pool: Optional["WorkspacePool"] = None,
    nb: int = DEFAULT_TILE,
    backend: str = "substrate",
    plan_cache: Optional["PlanCache"] = None,
    fuse: bool = False,
    accuracy: Optional[str] = None,
) -> Any:
    """Strassen-based GEMM: ``C <- alpha*op(A)*op(B) + beta*C`` in place.

    Parameters
    ----------
    a, b, c:
        numpy arrays (any strides — C/Fortran order, non-contiguous and
        negative-stride views all accepted; Fortran order is fastest) or
        Phantoms in dry mode.  ``op(A)`` is m-by-k, ``op(B)`` k-by-n,
        ``C`` m-by-n; ``C`` is mutated and returned.  ``C`` *may* share
        memory with ``A`` or ``B`` (e.g. ``dgefmm(A, B, C=A)``): the
        overlap guard detects this and falls back to a private copy of
        the overlapping input, so the result equals the non-overlapping
        call's exactly (see :func:`repro.blas.validate.copy_on_overlap`).
    alpha, beta:
        DGEMM scalars.  ``beta == 0`` means C's input content is ignored
        — C is *overwritten*, never read, so pre-existing NaN/Inf in C
        does not propagate.  ``alpha == 0`` (or ``k == 0``) skips the
        product entirely and only scales C by beta; an empty C
        (``m == 0`` or ``n == 0``) returns immediately.  None of the
        degenerate cases recurse or touch workspace.
    transa, transb:
        Apply the operation to ``A^T`` / ``B^T`` (views; nothing copied).
    cutoff:
        A :class:`~repro.core.cutoff.CutoffCriterion`.  None (the
        default) follows the leaf kernel
        (:func:`~repro.core.config.default_cutoff`):
        :data:`DEFAULT_CUTOFF` over the substrate, and
        :data:`~repro.core.config.BLAS_CUTOFF` over ``np.matmul``
        leaves, i.e. with ``backend="vendor"``.  An explicit criterion
        always wins.  Recursion also stops whenever a dimension drops
        below 2.
    scheme:
        ``"auto"`` (the paper's DGEFMM dispatch: STRASSEN1 when beta = 0,
        STRASSEN2 otherwise), or force any registry scheme
        (:data:`repro.core.schemes.SCHEME_NAMES`): ``"strassen1"``,
        ``"strassen2"``, ``"strassen1_general"`` (the general schedule
        at every level, reproducing Table 1's 2m^2 figure),
        ``"textbook"``, ``"bdpz"`` (the Boyer–Dumas–Pernet–Zhou
        two-temporary accumulating Winograd schedule), or
        ``"laderman"`` (the ⟨3,3,3;23⟩ family member) for study.
    peel:
        Odd-dimension peeling side, ``"tail"`` (the paper's: strip the
        last row/column) or ``"head"`` (strip the first) — an alternate
        peeling technique from the paper's future-work list; costs are
        identical by symmetry.
    ctx:
        Instrumentation/simulation context (op counts, model time, trace).
    workspace:
        Workspace to draw temporaries from (default: a fresh one).  The
        peak is reported in ``ctx.stats["workspace_peak_bytes"]``.
    pool:
        A :class:`~repro.core.pool.WorkspacePool` to check a reusable
        arena out of for this call (ignored when ``workspace`` is given,
        when the root is a base case, which draws no temporaries, and
        in dry mode, where phantom temporaries cost nothing).  Repeated
        same-shape calls through a pool amortize temporary allocation
        to zero after the first, warm-up call.
    nb:
        Tile edge for the base-case standard-algorithm kernel.
    backend:
        Base-case kernel backend (see :data:`repro.blas.level3.BACKENDS`):
        ``"substrate"`` (default, the package's own standard-algorithm
        kernel) or ``"vendor"`` (numpy's BLAS matmul) for modern-host
        practicality experiments.  The backend picks the defaulted
        ``cutoff``.
    plan_cache:
        A :class:`~repro.plan.cache.PlanCache` of fused plans.  A
        vendor call under fast accuracy whose root recurses replays its
        fused plan (:mod:`repro.plan.fuse`) from the cache, compiled on
        the first call of its shape; the result is bit-identical to the
        walk.  The cache's counters then land in
        ``ctx.stats["plan_cache"]``.  No other call touches the
        cache: a base-case root is one ``dgemm`` call, and the
        substrate backend, a non-fast accuracy, an explicit
        ``workspace``, object dtype, and a context that dry-runs,
        traces or holds a machine model walk the recursion.
    fuse:
        Alias for ``backend="vendor"``, kept for callers that still
        spell it.
    accuracy:
        Accuracy mode (:data:`repro.blas.dtypes.ACCURACIES`): ``"fast"``
        (native rounding), ``"compensated"`` (wide-promoted / Kahan
        floating point) or ``"exact"`` (integer/object arithmetic,
        integral scalars enforced, no float intermediates).  ``None``
        (the default) resolves per dtype: ``"exact"`` for int64/object
        operands, ``"fast"`` otherwise — so existing float callers and
        integer callers both keep working unannotated.

    The scheme/peel/cutoff/nb/backend/dtype/accuracy knobs are
    validated as a :class:`~repro.core.config.GemmConfig`, built the
    first time a knob tuple is seen and interned after that
    (:func:`~repro.core.config.resolve_config`); the same frozen config
    drives the traversal, the plan signature, and the serving engine.
    """
    ctx = ensure_context(ctx)
    call = _prologue(
        "dgefmm", a, b, c, alpha, beta, transa, transb, ctx,
        cutoff, scheme, peel, nb, "vendor" if fuse else backend, accuracy,
    )
    if call is None:
        return c
    return _serial(call, c, ctx, workspace, pool, plan_cache)


def zgefmm(
    a: Any,
    b: Any,
    c: Any,
    alpha: complex = 1.0,
    beta: complex = 0.0,
    transa: bool = False,
    transb: bool = False,
    **kwargs: Any,
) -> Any:
    """Complex GEMM by the same Strassen machinery (ZGEMM counterpart).

    The paper notes DGEMMW "also provides routines for multiplying
    complex matrices, a feature not contained in our package"; this
    extension closes that gap.  Strassen's construction is field-
    agnostic, so the schedules run unchanged over complex128 operands
    (temporaries are allocated in the output's dtype); each "multiply"
    in the operation-count model then stands for one complex multiply.

    ``transa``/``transb`` request the **transpose**, not the conjugate
    transpose (matching ``op(X) = X^T`` in the real interface); apply
    ``numpy.conj`` to an operand view for the conjugated case.
    """
    return dgefmm(a, b, c, alpha, beta, transa, transb, **kwargs)


class _Call(NamedTuple):
    """One validated, non-degenerate GEMM call, ready to walk or replay.

    ``a``/``b`` are the transpose-resolved operand views (overlap with C
    already resolved); ``alpha``/``beta`` are Python ints under exact
    accuracy.  ``depth`` is the depth of the call's root in the
    recursion: 0 for a driver's call, the true depth for a product
    below a parallel level (:mod:`repro.core.parallel`).
    """

    a: Any
    b: Any
    alpha: Any
    beta: Any
    transa: bool
    transb: bool
    cfg: GemmConfig
    depth: int = 0

    def root(self) -> Any:
        """The traversal's decision at the call's root node."""
        m, k = self.a.shape
        return decide(m, k, self.b.shape[1], self.depth, self.cfg.scheme,
                      self.beta == 0.0, self.cfg.cutoff)

    def signature(self):
        """The call's :class:`~repro.plan.compiler.PlanSignature`
        (interned per call shape by ``signature_for``)."""
        # lazy import: repro.plan compiles through this module's walker
        from repro.plan.compiler import signature_for

        m, k = self.a.shape
        return signature_for(
            m, k, self.b.shape[1], self.transa, self.transb,
            False, self.beta == 0.0, self.cfg.dtype, self.cfg, self.depth,
        )


def _prologue(
    where: str,
    a: Any,
    b: Any,
    c: Any,
    alpha: Any,
    beta: Any,
    transa: bool,
    transb: bool,
    ctx: ExecutionContext,
    cutoff: Optional[CutoffCriterion],
    scheme: str,
    peel: str,
    nb: int,
    backend: str,
    accuracy: Optional[str],
) -> Optional[_Call]:
    """The drivers' shared front door; ``None`` when the call is done.

    Validates the operands, resolves dtype and accuracy into one frozen
    (interned) :class:`GemmConfig`, coerces the scalars to ints under
    exact accuracy, and answers the BLAS degenerate cases before any
    workspace or plan machinery spins up.
    """
    require_matrix(where, "a", a)
    require_matrix(where, "b", b)
    require_matrix(where, "c", c)
    require_writable(where, "c", c)
    dt = canonical_dtype(getattr(c, "dtype", None) or "float64")
    cfg = resolve_config(scheme, peel, cutoff, nb, backend, dt, accuracy)
    if cfg.accuracy == "exact":
        # Integral scalars ride through every layer as Python ints, so
        # in-place integer scaling (``y *= beta``) never trips numpy's
        # unsafe-cast refusal and object arrays stay arbitrary-precision.
        alpha = require_integral_scalar(where, "alpha", alpha)
        beta = require_integral_scalar(where, "beta", beta)
    m, k = opshape(a, transa)
    kb, n = opshape(b, transb)
    if kb != k:
        raise DimensionError(
            f"{where}: op(A) is {m}x{k} but op(B) is {kb}x{n}"
        )
    if tuple(c.shape) != (m, n):
        raise DimensionError(
            f"{where}: C has shape {tuple(c.shape)}, expected {(m, n)}"
        )

    # BLAS degenerate semantics: an empty C is a no-op; k == 0 or
    # alpha == 0 forms no product and only scales C by beta (overwriting
    # when beta == 0, so NaN/Inf garbage in C never propagates).
    if m == 0 or n == 0 or k == 0 or alpha == 0.0:
        if m and n:
            kernels_for(cfg.accuracy).axpby(0, c, beta, c, ctx=ctx)
        ctx.stats_max("workspace_peak_bytes", 0)
        return None

    # Overlap guard: the schedules write C's quadrants mid-recursion
    # while A/B are still live, so an output that shares memory with an
    # input would be silently corrupted.  Any (conservatively detected)
    # overlapping input is replaced by a private copy first — the
    # documented copy-on-overlap fallback.
    a, b = copy_on_overlap(c, a, b, ctx=ctx)
    return _Call(
        a.T if transa else a, b.T if transb else b, alpha, beta,
        bool(transa), bool(transb), cfg,
    )


def _serial(
    call: _Call,
    c: Any,
    ctx: ExecutionContext,
    workspace: Optional[Workspace],
    pool: Optional["WorkspacePool"],
    plan_cache: Optional["PlanCache"],
    root: Any = None,
) -> Any:
    """``dgefmm``'s path after the prologue, chosen once per call from
    the root node (``root``, when the caller has already decided it);
    also the path of every product below a ``pdgefmm`` parallel level.

    A base-case root is one :func:`dgemm` call: no workspace, binding,
    pool checkout or walker frame (its ``base`` event is recorded when
    the context traces).  A recursing root replays its fused plan from
    ``plan_cache`` when the config is fusable (vendor leaves, fast
    accuracy), the call has no explicit ``workspace`` and runs typed,
    and the context neither traces nor holds a machine model (they
    record each node's events and charge each kernel call's modelled
    time, which only the walk does); every other recursing root walks,
    in a pooled arena when ``pool`` is given and the call runs typed."""
    if root is None:
        root = call.root()
    if isinstance(root, Base):
        cfg = call.cfg
        if ctx.trace:
            m, k = call.a.shape
            ctx.record(RecursionEvent("base", m, k, call.b.shape[1],
                                      call.depth))
        dgemm(call.a, call.b, c, call.alpha, call.beta, ctx=ctx, nb=cfg.nb,
              backend=cfg.backend, accuracy=cfg.accuracy)
        ctx.stats_max("workspace_peak_bytes",
                      0 if workspace is None else workspace.peak_bytes)
        return c
    # pooled arenas and plan temporaries carve typed views out of a byte
    # buffer — fine for every fixed-width dtype, impossible for object
    # arrays (and pointless in dry mode, where temporaries cost nothing)
    if workspace is None and not ctx.dry and call.cfg.dtype != "object":
        if (plan_cache is not None and call.cfg.fusable and not ctx.trace
                and ctx.machine is None):
            # lazy import: repro.plan compiles through this module's walker
            from repro.plan.executor import execute_plan

            execute_plan(plan_cache.get_or_compile(call.signature()),
                         call.a, call.b, c, call.alpha, call.beta, ctx=ctx,
                         pool=pool)
            ctx.stats_set("plan_cache", plan_cache.stats())
            return c
        if pool is not None:
            with pool.arena() as ws:
                return _walk(call, c, ctx, ws, root)
    if workspace is None:
        workspace = Workspace(dry=ctx.dry)
    return _walk(call, c, ctx, workspace, root)


def _walk(call: _Call, c: Any, ctx: ExecutionContext, ws: Workspace,
          root: Any) -> Any:
    """Run :func:`_rec` from the decided, recursing ``root`` with the
    numeric binding; report the peak."""
    _rec(call.a, call.b, c, call.alpha, call.beta, call.depth,
         call.cfg.scheme, _NumericBinding(call.cfg, ctx, ws), root)
    ctx.stats_max("workspace_peak_bytes", ws.peak_bytes)
    return c


class _NumericBinding:
    """Binds :func:`_rec` to live execution.

    A binding supplies the walker's side effects: the block ``kernels``
    and workspace ``ws`` the schedules draw on, the base-case ``gemm``,
    the peeling ``fixup``, and the ``event`` sink; ``ctx`` is passed to
    the schedules.  The plan compiler's recorder
    (:mod:`repro.plan.compiler`) is the other binding.  ``dgemm`` and
    ``apply_fixups``/``apply_fixups_head`` are looked up in this
    module's globals at call time, so ``benchmarks/e2e/trace.py``
    wrappers installed here see every walker call.
    """

    __slots__ = ("cfg", "ctx", "ws", "kernels")

    def __init__(self, cfg: GemmConfig, ctx: ExecutionContext,
                 ws: Workspace) -> None:
        self.cfg = cfg
        self.ctx = ctx
        self.ws = ws
        self.kernels = kernels_for(cfg.accuracy)

    def event(self, action: str, m: int, k: int, n: int, depth: int,
              scheme: str = "") -> None:
        self.ctx.record(RecursionEvent(action, m, k, n, depth, scheme))

    def gemm(self, a: Any, b: Any, c: Any, alpha: Any, beta: Any) -> None:
        cfg = self.cfg
        dgemm(a, b, c, alpha, beta, ctx=self.ctx, nb=cfg.nb,
              backend=cfg.backend, accuracy=cfg.accuracy)

    def fixup(self, a: Any, b: Any, c: Any, alpha: Any, beta: Any,
              divisors: Tuple[int, int, int]) -> None:
        fix = apply_fixups if self.cfg.peel == "tail" else apply_fixups_head
        fix(a, b, c, alpha, beta, ctx=self.ctx, divisors=divisors)


def _rec(
    a: Any,
    b: Any,
    c: Any,
    alpha: Any,
    beta: Any,
    depth: int,
    scheme: str,
    bind: Any,
    node: Any = None,
) -> None:
    """The DGEFMM walker: one traversal node, bound through ``bind``.

    ``scheme`` is the node's scheme (it changes down the tree per the
    traversal's ``child_scheme``); ``bind`` carries the config and every
    side effect (:class:`_NumericBinding` executes, the plan compiler's
    recorder emits ops).  ``depth`` may start above 0 — a product below
    a parallel level walks (or compiles its plan) at its true depth.
    ``node`` is the traversal's decision for a non-degenerate node
    whose caller already made it (a live call's root); the walker
    decides every other node itself.
    """
    m, k = a.shape
    n = b.shape[1]
    cfg = bind.cfg
    if node is None:
        if m == 0 or n == 0:
            return
        if k == 0 or alpha == 0.0:
            bind.kernels.axpby(0.0, c, beta, c, ctx=bind.ctx)
            return
        node = decide(m, k, n, depth, scheme, beta == 0.0, cfg.cutoff)
    if isinstance(node, Base):
        bind.event("base", m, k, n, depth)
        bind.gemm(a, b, c, alpha, beta)
        return

    if node.peeled:
        bind.event("peel", m, k, n, depth)
    bind.event("recurse", node.mp, node.kp, node.np_, depth, node.level)

    if node.peeled:
        core_a, core_b, core_c = core_views(
            a, b, c, cfg.peel, node.divisors
        )
    else:
        core_a, core_b, core_c = a, b, c

    def recurse(aa: Any, bb: Any, cc: Any, al: Any, be: Any) -> None:
        _rec(aa, bb, cc, al, be, depth + 1, node.child_scheme, bind)

    LEVEL_FNS[node.level](
        core_a, core_b, core_c, alpha, beta,
        ctx=bind.ctx, ws=bind.ws, recurse=recurse, kernels=bind.kernels,
    )

    if node.peeled:
        bind.fixup(a, b, c, alpha, beta, node.divisors)
