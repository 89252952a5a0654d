"""PlanCompiler: walk the DGEFMM recursion once, emit a flat plan.

The compiler runs the *real* driver logic — the one DGEFMM walker
(:func:`repro.core.dgefmm._rec`: the shared traversal core's
recurse-vs-base decision at every level, dynamic peeling, scheme
dispatch, and the actual STRASSEN1/STRASSEN2/textbook schedule
functions) — exactly once per problem signature, recording what the
recursion *would do* as a flat tuple of typed ops
(:mod:`repro.plan.ops`).

The walker takes a *binding* that supplies its side effects; the
compiler passes a recorder (:class:`_Recorder`) instead of the live
one, so one execution of the control flow doubles as compilation with
zero duplicated schedule code:

- **recording kernels** — a :class:`~repro.blas.addsub.BlockKernels` set
  whose members append MADD/MSUB/ACCUM/AXPBY ops instead of computing,
  and base-GEMM, fix-up and event hooks that append GEMM/FIXUP/EVENT
  ops;
- **regions** — :class:`~repro.plan.ops.Region` operands that track the
  windowing the schedules perform on the call operands and temporaries;
- **a recording workspace** — mirrors the pooled arena's bump-allocator
  arithmetic (:class:`~repro.core.pool.PooledWorkspace`: 64-byte-aligned
  cursor, frame rewind) so every temporary gets the byte offset the live
  pooled execution would give it, and mirrors the plain workspace's
  live/peak accounting so the plan can report the same
  ``workspace_peak_bytes`` figure the recursive driver measures.

Scalars are compiled per *class*: the signature records whether alpha
and beta are zero; nonzero scalars flow through compilation as
:class:`~repro.plan.ops.SymScalar` placeholders resolved per call, so
one plan serves every nonzero value bit-identically.  Exact-accuracy
plans store their literals as ``np.int64`` (:func:`_encode_exact`).

Parallel plans are the only form of parallel execution
(:func:`repro.core.parallel.pdgefmm` replays them).  Every non-base
node is built from its scheme's registry data: the U/V operand sums of
:func:`repro.core.uvw.fan_out` are its prologue, the R independent
products become *branches* (each a self-contained sub-plan over the
branch's operand windows), and the W combine of
:func:`repro.core.uvw.combine` plus any peeling fix-up form the
epilogue.  The worker *budget* is an execution-time knob — the plan's
structure depends only on ``max_parallel_depth`` and the config.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import field, fields, make_dataclass, replace
from typing import Any, Iterator, List, Optional, Tuple

import numpy as np

from repro.blas.addsub import BlockKernels
from repro.blas.dtypes import canonical_dtype
from repro.blas.level3 import gemm_flops
from repro.context import RecursionEvent
from repro.core.config import GemmConfig
from repro.core.dgefmm import _rec
from repro.core.peeling import core_views
from repro.core.pool import _align_up
from repro.core.schemes import LEVEL_SCHEME, get_scheme
from repro.core.traversal import Base, decide
from repro.core.uvw import combine, fan_out
from repro.errors import ArgumentError
from repro.plan.fuse import fuse_plan
from repro.plan.ops import (
    OP_ACCUM,
    OP_AXPBY,
    OP_EVENT,
    OP_FIXUP,
    OP_GEMM,
    OP_MADD,
    OP_MSUB,
    ROOT_A,
    ROOT_B,
    ROOT_C,
    ROOT_TEMP,
    Region,
    SymScalar,
    encode_scalar,
    scalar_repr,
)

__all__ = ["PlanSignature", "ExecutionPlan", "compile_plan", "signature_for"]


def _signature_config(self) -> GemmConfig:
    """Rebuild the validated :class:`GemmConfig` these fields came from."""
    return GemmConfig(
        **{f.name: getattr(self, f.name) for f in fields(GemmConfig)}
    )


#: The plan-cache key, derived *structurally* from ``GemmConfig``: the
#: problem fields come first, then every ``GemmConfig`` field in
#: declaration order, then ``max_parallel_depth``.  Adding a knob to
#: ``GemmConfig`` automatically adds it to the cache key — signature
#: completeness is a property of the type, not an audit.
PlanSignature = make_dataclass(
    "PlanSignature",
    [
        ("kind", str),
        ("m", int),
        ("k", int),
        ("n", int),
        ("transa", bool),
        ("transb", bool),
        ("alpha_zero", bool),
        ("beta_zero", bool),
    ]
    + [(f.name, f.type, field(default=f.default)) for f in fields(GemmConfig)]
    + [("max_parallel_depth", int, field(default=0))],
    frozen=True,
    namespace={"config": _signature_config},
)
PlanSignature.__module__ = __name__
PlanSignature.__doc__ = """The cache key: everything the plan's structure depends on.

    ``kind`` is ``"serial"`` (the :func:`~repro.core.dgefmm.dgefmm`
    path) or ``"parallel"`` (:func:`~repro.core.parallel.pdgefmm`;
    ``max_parallel_depth`` then matters, the worker budget never does —
    it only sets how many threads replay the branches).  Scalars enter
    as zero/nonzero *classes*; cutoff criteria are the (hashable frozen
    dataclass) objects themselves.

    The behaviour-knob fields (``scheme``, ``peel``, ``cutoff``, ``nb``,
    ``backend``, ``dtype``, ``accuracy``) are not hand-listed:
    they are generated from ``dataclasses.fields(GemmConfig)`` at
    class-creation time, in declaration order, between the problem
    fields and ``max_parallel_depth``.  A knob added to ``GemmConfig``
    therefore cannot be forgotten here — the type system keeps the
    plan-cache key complete.  The operand ``dtype`` and the ``accuracy``
    mode are config fields (not problem fields): :func:`signature_for`
    folds the observed operand dtype into the config, so mutating either
    is structurally a cache miss.  :meth:`config` rebuilds (and
    re-validates) the ``GemmConfig`` the knob fields encode.

    Deliberately excluded because they cannot change the result or the
    plan's structure: ``workers`` (execution-time thread budget),
    ``pool``/``workspace`` (where temporaries live, not what is
    computed), ``ctx`` (instrumentation sink), and operand memory
    layout/strides (plans bind root windows per call; the kernels accept
    any strides).  ``tests/test_plan.py`` pins this: mutating any knob
    field must miss the cache.
    """


#: Most call shapes :func:`signature_for` interns.
SIGNATURE_MEMO_MAX = 1024

#: call shape -> the PlanSignature built for it
_SIGNATURES: dict = {}


def signature_for(
    kind: str,
    m: int,
    k: int,
    n: int,
    transa: bool,
    transb: bool,
    alpha_zero: bool,
    beta_zero: bool,
    dtype: str,
    config: GemmConfig,
    max_parallel_depth: int = 0,
) -> "PlanSignature":
    """The :class:`PlanSignature` of a problem and a ``GemmConfig``.

    The drivers construct their cache keys through this helper so the
    knob fields are copied from the frozen config structurally — never
    hand-listed at a call site.  ``dtype`` is the *observed* operand
    dtype: it is folded into the config (re-running the config's
    dtype/accuracy validation) so the signature's ``dtype`` field always
    reflects what the kernels will actually see, even when the caller's
    config still carries the float64 default.

    Signatures are interned per call shape — the arguments, config
    included — in a memo of at most :data:`SIGNATURE_MEMO_MAX` entries,
    so a repeated call builds none.  A config that cannot be hashed
    skips the memo and gets a fresh signature, as before.
    """
    key = (kind, m, k, n, transa, transb, alpha_zero, beta_zero, dtype,
           config, max_parallel_depth)
    try:
        return _SIGNATURES[key]
    except KeyError:
        hashable = True
    except TypeError:
        hashable = False
    if canonical_dtype(dtype) != config.dtype:
        config = replace(config, dtype=canonical_dtype(dtype))
    sig = PlanSignature(
        kind, m, k, n, transa, transb, alpha_zero, beta_zero,
        *(getattr(config, f.name) for f in fields(GemmConfig)),
        max_parallel_depth,
    )
    if hashable:
        _SIGNATURES[key] = sig
        if len(_SIGNATURES) > SIGNATURE_MEMO_MAX:
            # full: undo, so racing inserts cannot outgrow the bound
            _SIGNATURES.pop(key, None)
    return sig


class ExecutionPlan:
    """An immutable, flat, replayable DGEFMM program.

    ``ops`` is the serial body (a parallel node's prologue); ``branches``
    holds the node's independent products as ``(a_idx, b_idx, c_idx,
    child_plan)`` with indices into this plan's region table;
    ``epilogue`` combines the products and applies peeling fix-ups.  A
    serial plan has empty branches/epilogue.  ``ops_quiet`` /
    ``epilogue_quiet`` are the same programs with trace-replay EVENT ops
    stripped, chosen when the executing context is not tracing.
    """

    __slots__ = (
        "signature", "m", "k", "n", "dtype", "nb", "backend", "accuracy",
        "regions", "ops", "ops_quiet", "branches", "epilogue",
        "epilogue_quiet", "arena_bytes", "peak_bytes", "charge_bytes",
        "counts", "nbytes", "fused", "_temp_cache",
    )

    def __init__(
        self,
        signature: Optional["PlanSignature"],
        m: int,
        k: int,
        n: int,
        dtype: Any,
        nb: int,
        backend: str,
        regions: Tuple[tuple, ...],
        ops: Tuple[tuple, ...],
        branches: Tuple[tuple, ...],
        epilogue: Tuple[tuple, ...],
        arena_bytes: int,
        peak_bytes: int,
        charge_bytes: int,
        counts: dict,
        accuracy: str = "fast",
    ) -> None:
        self.signature = signature
        self.m, self.k, self.n = m, k, n
        self.dtype = np.dtype(dtype)
        self.nb = nb
        self.backend = backend
        #: accuracy mode baked in from the signature's config: the
        #: executor replays the op stream through the matching kernel
        #: table, so plan replay stays bit-identical to the recursive
        #: driver at every accuracy
        self.accuracy = accuracy
        self.regions = regions
        self.ops = ops
        self.ops_quiet = tuple(op for op in ops if op[0] != OP_EVENT)
        self.branches = branches
        self.epilogue = epilogue
        self.epilogue_quiet = tuple(
            op for op in epilogue if op[0] != OP_EVENT
        )
        self.arena_bytes = int(arena_bytes)
        self.peak_bytes = int(peak_bytes)
        self.charge_bytes = int(charge_bytes)
        self.counts = counts
        #: optional :class:`~repro.plan.fuse.FusedProgram` attached by
        #: the compiler to a serial plan whose config is fusable (vendor
        #: leaves, fast accuracy); the executor replays it for plain
        #: numeric contexts and falls back to the interpreted op stream
        #: otherwise
        self.fused = None
        self.nbytes = (
            256
            + 64 * len(regions)
            + 96 * (len(ops) + len(epilogue))
            + sum(child.nbytes for *_ids, child in branches)
        )
        #: per-arena-buffer cache of bound temporary views (warm calls
        #: skip re-carving the arena); keyed by the buffer's id with the
        #: buffer itself stored so entries can never alias a new buffer
        self._temp_cache: dict = {}

    # ------------------------------------------------------------------ #
    @property
    def n_ops(self) -> int:
        """Total executable ops (events excluded), branches included."""
        return (
            len(self.ops_quiet)
            + len(self.epilogue_quiet)
            + sum(child.n_ops for *_ids, child in self.branches)
        )

    def total_counts(self) -> dict:
        """Aggregate op/flop tallies over this plan and all branches."""
        total = {
            "recurse": self.counts["recurse"],
            "base": self.counts["base"],
            "peel": self.counts["peel"],
            "max_depth": self.counts["max_depth"],
            "mul_flops": self.counts["mul_flops"],
            "mul_flops_total": self.counts["mul_flops_total"],
            "add_flops_total": self.counts["add_flops_total"],
            "base_shapes": dict(self.counts["base_shapes"]),
            "kernel_calls": Counter(self.counts["kernel_calls"]),
        }
        for *_ids, child in self.branches:
            sub = child.total_counts()
            for key in ("recurse", "base", "peel", "mul_flops",
                        "mul_flops_total", "add_flops_total"):
                total[key] += sub[key]
            total["max_depth"] = max(total["max_depth"], sub["max_depth"])
            for shape, cnt in sub["base_shapes"].items():
                total["base_shapes"][shape] = (
                    total["base_shapes"].get(shape, 0) + cnt
                )
            total["kernel_calls"].update(sub["kernel_calls"])
        return total

    def describe(self, max_ops: Optional[int] = None) -> List[str]:
        """Human-readable op listing for ``python -m repro plan explain``."""

        def reg(idx: int) -> str:
            kind, off, fr, fc, r0, c0, rows, cols = self.regions[idx]
            root = ("A", "B", "C", f"T@{off}")[kind]
            return f"{root}[{r0}:{r0 + rows},{c0}:{c0 + cols}]"

        lines: List[str] = []
        for op in self.ops + (("--branches--",) if self.branches else ()):
            if op == ("--branches--",):
                for i, (ai, bi, ci, child) in enumerate(self.branches):
                    lines.append(
                        f"branch {i}: {reg(ai)} x {reg(bi)} -> {reg(ci)} "
                        f"({child.n_ops} ops, "
                        f"{'parallel' if child.branches else 'serial'})"
                    )
                continue
            lines.append(_op_repr(op, reg))
        for op in self.epilogue:
            lines.append(_op_repr(op, reg))
        if max_ops is not None and len(lines) > max_ops:
            lines = lines[:max_ops] + [
                f"... ({len(lines) - max_ops} more ops)"
            ]
        return lines

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "parallel" if self.branches else "serial"
        return (
            f"ExecutionPlan({kind}, {self.m}x{self.k}x{self.n}, "
            f"{self.n_ops} ops, arena={self.arena_bytes}B)"
        )


def _op_repr(op: tuple, reg) -> str:
    code = op[0]
    if code == OP_MADD:
        return (f"madd  {reg(op[3])} <- {scalar_repr(op[4])}*"
                f"({reg(op[1])} + {reg(op[2])})")
    if code == OP_MSUB:
        return (f"msub  {reg(op[3])} <- {scalar_repr(op[4])}*"
                f"({reg(op[1])} - {reg(op[2])})")
    if code == OP_ACCUM:
        return f"accum {reg(op[2])} += {reg(op[1])}"
    if code == OP_AXPBY:
        return (f"axpby {reg(op[4])} <- {scalar_repr(op[1])}*{reg(op[2])} "
                f"+ {scalar_repr(op[3])}*{reg(op[4])}")
    if code == OP_GEMM:
        return (f"gemm  {reg(op[3])} <- {scalar_repr(op[4])}*"
                f"{reg(op[1])}@{reg(op[2])} + {scalar_repr(op[5])}*"
                f"{reg(op[3])}")
    if code == OP_FIXUP:
        return (f"fixup {reg(op[3])} ({op[6]} peel mod {op[7]}, alpha="
                f"{scalar_repr(op[4])}, beta={scalar_repr(op[5])})")
    ev = op[1]
    return f"event {ev.action} ({ev.m},{ev.k},{ev.n}) depth={ev.depth}"


# ---------------------------------------------------------------------- #
class _RecordingWorkspace:
    """Mirror of the pooled arena's bump arithmetic + raw accounting.

    ``alloc`` hands back temporary :class:`Region` objects carrying the
    byte offset a :class:`~repro.core.pool.PooledWorkspace` would assign
    (aligned cursor, frame rewind), while tracking the plain
    :class:`~repro.core.workspace.Workspace` live/peak byte figures so
    the plan reports the same ``workspace_peak_bytes`` as the recursive
    driver.
    """

    def __init__(self) -> None:
        self._cursor = 0
        self._cursor_stack: List[int] = []
        self._frames: List[int] = []
        self._live = 0
        self.peak = 0
        self.required = 0

    @contextmanager
    def frame(self) -> Iterator["_RecordingWorkspace"]:
        self._cursor_stack.append(self._cursor)
        self._frames.append(0)
        try:
            yield self
        finally:
            freed = self._frames.pop()
            self._live -= freed
            self._cursor = self._cursor_stack.pop()

    def alloc(self, m: int, n: int, dtype: Any = np.float64) -> Region:
        dt = np.dtype(dtype)
        nbytes = m * n * dt.itemsize
        self._frames[-1] += nbytes
        self._live += nbytes
        if self._live > self.peak:
            self.peak = self._live
        start = _align_up(self._cursor)
        end = start + nbytes
        self._cursor = end
        if end > self.required:
            self.required = end
        return Region(ROOT_TEMP, start, m, n, 0, 0, m, n, dt)


def _encode_exact(s: Any) -> Any:
    """Exact plans' scalar encoder: literals become ``np.int64`` —
    integral, and never the ``int`` class replay reads as a code."""
    return s.code if isinstance(s, SymScalar) else np.int64(s)


class _Recorder:
    """The plan-recording binding of :func:`repro.core.dgefmm._rec`.

    Supplies recording ``kernels``, a recording workspace ``ws``, and
    ``gemm``/``fixup``/``event`` hooks that append ops instead of
    executing; ``ctx`` is ``None`` (recording kernels charge nothing).
    Interns every operand region and keeps the predicted tallies.
    """

    ctx = None

    def __init__(self, cfg: GemmConfig, dtype: Any) -> None:
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        self.ws = _RecordingWorkspace()
        self.ops: List[tuple] = []
        self.epilogue: List[tuple] = []
        self._sink = self.ops
        self._intern: dict = {}
        self.region_descs: List[tuple] = []
        self.kernel_calls: Counter = Counter()
        self.mul_flops_total = 0.0
        self.add_flops_total = 0.0
        self.counts = {
            "recurse": 0, "base": 0, "peel": 0, "max_depth": 0,
            "mul_flops": 0.0, "base_shapes": {},
        }
        self.kernels = BlockKernels(
            self._madd, self._msub, self._accum, self._axpby
        )
        # chosen once per plan: exact plans carry integral literals
        self.scalar = (_encode_exact if cfg.accuracy == "exact"
                       else encode_scalar)

    def begin_epilogue(self) -> None:
        self._sink = self.epilogue

    def reg(self, r: Region) -> int:
        desc = r.descriptor()
        idx = self._intern.get(desc)
        if idx is None:
            idx = len(self.region_descs)
            self._intern[desc] = idx
            self.region_descs.append(desc)
        return idx

    # -- recording BlockKernels --------------------------------------- #
    def _charge_add(self, name: str, r: Region) -> None:
        self.kernel_calls[name] += 1
        self.add_flops_total += float(r.shape[0]) * r.shape[1]

    def _madd(self, x, y, out, alpha=1.0, *, ctx=None):
        self._charge_add("madd", out)
        self._sink.append(
            (OP_MADD, self.reg(x), self.reg(y), self.reg(out),
             self.scalar(alpha))
        )
        return out

    def _msub(self, x, y, out, alpha=1.0, *, ctx=None):
        self._charge_add("msub", out)
        self._sink.append(
            (OP_MSUB, self.reg(x), self.reg(y), self.reg(out),
             self.scalar(alpha))
        )
        return out

    def _accum(self, x, out, *, ctx=None):
        self._charge_add("accum", out)
        self._sink.append((OP_ACCUM, self.reg(x), self.reg(out)))
        return out

    def _axpby(self, alpha, x, beta, y, *, ctx=None):
        self._charge_add("axpby", y)
        self._sink.append(
            (OP_AXPBY, self.scalar(alpha), self.reg(x),
             self.scalar(beta), self.reg(y))
        )
        return y

    # -- walker hooks ------------------------------------------------- #
    def event(self, action, m, k, n, depth, scheme="") -> None:
        # every walked node emits a base or recurse event at its depth,
        # so the event stream alone yields the node tallies
        self.counts[action] += 1
        if depth > self.counts["max_depth"]:
            self.counts["max_depth"] = depth
        self._sink.append(
            (OP_EVENT, RecursionEvent(action, m, k, n, depth, scheme))
        )

    def gemm(self, a: Region, b: Region, c: Region, alpha, beta) -> None:
        m, k = a.shape
        n = b.shape[1]
        muls, adds = gemm_flops(m, k, n)
        self.kernel_calls["dgemm"] += 1
        self.mul_flops_total += muls
        self.add_flops_total += adds
        self.counts["mul_flops"] += float(m) * k * n
        key = (m, k, n)
        shapes = self.counts["base_shapes"]
        shapes[key] = shapes.get(key, 0) + 1
        self._sink.append(
            (OP_GEMM, self.reg(a), self.reg(b), self.reg(c),
             self.scalar(alpha), self.scalar(beta))
        )

    def fixup(self, a: Region, b: Region, c: Region, alpha, beta,
              divisors: Tuple[int, int, int] = (2, 2, 2)) -> None:
        m, k = a.shape
        n = b.shape[1]
        # predicted kernel tallies follow apply_fixups/apply_fixups_head
        # exactly: one BLAS-2 call per peeled index, and which dimensions
        # peel depends only on the remainders modulo the scheme divisors
        dm, dk, dn = divisors
        mo, ko, no = m % dm, k % dk, n % dn
        mp, kp, np_ = m - mo, k - ko, n - no
        if ko and mp and np_:
            self.kernel_calls["dger"] += ko
            self.mul_flops_total += ko * float(mp) * np_
            self.add_flops_total += ko * float(mp) * np_
        if no and mp:
            self.kernel_calls["dgemv"] += no
            self.mul_flops_total += no * float(mp) * k
            self.add_flops_total += no * max(0.0, float(mp) * k - mp)
        if mo:
            self.kernel_calls["dgemv"] += mo
            self.mul_flops_total += mo * float(n) * k
            self.add_flops_total += mo * max(0.0, float(n) * k - n)
        self._sink.append(
            (OP_FIXUP, self.reg(a), self.reg(b), self.reg(c),
             self.scalar(alpha), self.scalar(beta), self.cfg.peel,
             divisors)
        )

    # ------------------------------------------------------------------ #
    def build(
        self,
        signature: Optional["PlanSignature"],
        m: int,
        k: int,
        n: int,
        branches: Tuple[tuple, ...] = (),
    ) -> ExecutionPlan:
        charge = self.ws.peak + sum(
            child.charge_bytes for *_ids, child in branches
        )
        counts = dict(self.counts)
        counts["kernel_calls"] = Counter(self.kernel_calls)
        counts["mul_flops_total"] = self.mul_flops_total
        counts["add_flops_total"] = self.add_flops_total
        cfg = self.cfg
        return ExecutionPlan(
            signature, m, k, n, self.dtype, cfg.nb, cfg.backend,
            tuple(self.region_descs), tuple(self.ops), branches,
            tuple(self.epilogue), self.ws.required, self.ws.peak,
            charge, counts, cfg.accuracy,
        )


# ---------------------------------------------------------------------- #
def _roots(m: int, k: int, n: int, dtype: Any) -> tuple:
    return (
        Region(ROOT_A, 0, m, k, 0, 0, m, k, dtype),
        Region(ROOT_B, 0, k, n, 0, 0, k, n, dtype),
        Region(ROOT_C, 0, m, n, 0, 0, m, n, dtype),
    )


def _compile_serial(
    m: int,
    k: int,
    n: int,
    alpha: Any,
    beta: Any,
    cfg: GemmConfig,
    scheme: str,
    dtype: Any,
    signature: Optional["PlanSignature"] = None,
    depth: int = 0,
) -> ExecutionPlan:
    """Compile a serial subtree rooted at ``depth`` with node ``scheme``.

    ``depth`` is 0 for whole serial plans; parallel plans compile their
    below-the-region serial children at the subtree's true depth, so
    depth-sensitive criteria see the same recursion as a serial call.
    """
    rec = _Recorder(cfg, dtype)
    a, b, c = _roots(m, k, n, dtype)
    _rec(a, b, c, alpha, beta, depth, scheme, rec)
    plan = rec.build(signature, m, k, n)
    if cfg.fusable:
        plan.fused = fuse_plan(plan)
        plan.nbytes += 96 * len(plan.fused.ops)
    return plan


# ---------------------------------------------------------------------- #
def _compile_pnode(
    m: int,
    k: int,
    n: int,
    alpha: Any,
    beta: Any,
    level: int,
    depth: int,
    node: Any,
    cfg: GemmConfig,
    max_depth: int,
    dtype: Any,
    signature: Optional["PlanSignature"] = None,
) -> ExecutionPlan:
    """One parallel level: the scheme's R products from its U/V/W."""
    rec = _Recorder(cfg, dtype)
    a, b, c = _roots(m, k, n, dtype)
    if node.peeled:
        core_a, core_b, core_c = core_views(
            a, b, c, cfg.peel, node.divisors
        )
    else:
        core_a, core_b, core_c = a, b, c

    sch = get_scheme(LEVEL_SCHEME[node.level])
    branches: List[tuple] = []
    with rec.ws.frame():
        jobs = fan_out(sch, core_a, core_b, rec.ws, rec.dtype, rec.kernels)
        for aa, bb, cc in jobs:
            jm, jk = aa.shape
            jn = bb.shape[1]
            if level < max_depth:
                child = _compile_parallel(
                    jm, jk, jn, 1.0, 0.0, level + 1, depth + 1, cfg,
                    node.child_scheme, max_depth, dtype,
                )
            else:
                child = _compile_serial(
                    jm, jk, jn, 1.0, 0.0, cfg, node.child_scheme, dtype,
                    depth=depth + 1,
                )
            branches.append((rec.reg(aa), rec.reg(bb), rec.reg(cc), child))
        rec.begin_epilogue()
        combine(sch, jobs, core_c, alpha, beta, rec.kernels)
        if node.peeled:
            rec.fixup(a, b, c, alpha, beta, node.divisors)

    return rec.build(signature, m, k, n, tuple(branches))


def _compile_parallel(
    m: int,
    k: int,
    n: int,
    alpha: Any,
    beta: Any,
    level: int,
    depth: int,
    cfg: GemmConfig,
    scheme: str,
    max_depth: int,
    dtype: Any,
    signature: Optional["PlanSignature"] = None,
) -> ExecutionPlan:
    """The parallel walker's dispatch: a parallel level, or a serial
    subtree where the traversal stops."""
    if m and n and k and alpha != 0.0:
        node = decide(m, k, n, depth, scheme, beta == 0.0, cfg.cutoff)
        if not isinstance(node, Base):
            return _compile_pnode(
                m, k, n, alpha, beta, level, depth, node, cfg, max_depth,
                dtype, signature,
            )
    return _compile_serial(
        m, k, n, alpha, beta, cfg, scheme, dtype, signature, depth,
    )


# ---------------------------------------------------------------------- #
def compile_plan(signature: "PlanSignature") -> ExecutionPlan:
    """Compile one :class:`PlanSignature` into an :class:`ExecutionPlan`."""
    if signature.kind not in ("serial", "parallel"):
        raise ArgumentError(
            "compile_plan", "kind",
            f"must be 'serial' or 'parallel', got {signature.kind!r}",
        )
    cfg = signature.config()
    if cfg.dtype == "object":
        raise ArgumentError(
            "compile_plan", "dtype",
            "object-dtype problems cannot be planned (plan temporaries "
            "are typed views over a byte arena); use the recursive "
            "driver",
        )
    alpha: Any = 0.0 if signature.alpha_zero else SymScalar("a")
    beta: Any = 0.0 if signature.beta_zero else SymScalar("b")
    if signature.kind == "serial":
        return _compile_serial(
            signature.m, signature.k, signature.n, alpha, beta,
            cfg, cfg.scheme, signature.dtype, signature,
        )
    return _compile_parallel(
        signature.m, signature.k, signature.n, alpha, beta, 1, 0,
        cfg, cfg.scheme, signature.max_parallel_depth, signature.dtype,
        signature,
    )
