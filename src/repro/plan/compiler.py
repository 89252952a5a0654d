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
one plan serves every nonzero value bit-identically.

Only fusable signatures compile (vendor leaves under fast accuracy,
:attr:`~repro.core.config.GemmConfig.fusable`): a plan is the fused
program (:func:`~repro.plan.fuse.fuse_plan`) of the vendor walk, which
the drivers replay when such a call's root recurses.  Every other
config walks, and :func:`compile_plan` refuses it.

A plan is one serial subtree rooted at the signature's ``depth``: 0 for
a driver's call, the true depth for a product below a
:func:`repro.core.parallel.pdgefmm` parallel level, so depth-sensitive
criteria compile the recursion that product walks.  Parallel levels
themselves run live and compile nothing.
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
from repro.core.pool import _align_up
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
#: declaration order, then ``depth``.  Adding a knob to ``GemmConfig``
#: automatically adds it to the cache key — signature completeness is a
#: property of the type, not an audit.
PlanSignature = make_dataclass(
    "PlanSignature",
    [
        ("m", int),
        ("k", int),
        ("n", int),
        ("transa", bool),
        ("transb", bool),
        ("alpha_zero", bool),
        ("beta_zero", bool),
    ]
    + [(f.name, f.type, field(default=f.default)) for f in fields(GemmConfig)]
    + [("depth", int, field(default=0))],
    frozen=True,
    namespace={"config": _signature_config},
)
PlanSignature.__module__ = __name__
PlanSignature.__doc__ = """The cache key: everything the plan's structure depends on.

    ``depth`` is the depth of the plan's root in the recursion: 0 for a
    driver's call, the true depth for a product below a
    :func:`~repro.core.parallel.pdgefmm` parallel level (whose ``scheme``
    is then the level's child scheme), so a depth-sensitive criterion
    never replays a plan compiled for another depth.  Scalars enter as
    zero/nonzero *classes*; cutoff criteria are the (hashable frozen
    dataclass) objects themselves.

    The behaviour-knob fields (``scheme``, ``peel``, ``cutoff``, ``nb``,
    ``backend``, ``dtype``, ``accuracy``) are not hand-listed:
    they are generated from ``dataclasses.fields(GemmConfig)`` at
    class-creation time, in declaration order, between the problem
    fields and ``depth``.  A knob added to ``GemmConfig``
    therefore cannot be forgotten here — the type system keeps the
    plan-cache key complete.  The operand ``dtype`` and the ``accuracy``
    mode are config fields (not problem fields): :func:`signature_for`
    folds the observed operand dtype into the config, so mutating either
    is structurally a cache miss.  :meth:`config` rebuilds (and
    re-validates) the ``GemmConfig`` the knob fields encode.

    Deliberately excluded because they cannot change the result or the
    plan's structure: ``workers`` and ``max_parallel_depth`` (how a
    ``pdgefmm`` call runs the levels above its plans),
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
    m: int,
    k: int,
    n: int,
    transa: bool,
    transb: bool,
    alpha_zero: bool,
    beta_zero: bool,
    dtype: str,
    config: GemmConfig,
    depth: int = 0,
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
    key = (m, k, n, transa, transb, alpha_zero, beta_zero, dtype, config,
           depth)
    try:
        return _SIGNATURES[key]
    except KeyError:
        hashable = True
    except TypeError:
        hashable = False
    if canonical_dtype(dtype) != config.dtype:
        config = replace(config, dtype=canonical_dtype(dtype))
    sig = PlanSignature(
        m, k, n, transa, transb, alpha_zero, beta_zero,
        *(getattr(config, f.name) for f in fields(GemmConfig)), depth,
    )
    if hashable:
        _SIGNATURES[key] = sig
        if len(_SIGNATURES) > SIGNATURE_MEMO_MAX:
            # full: undo, so racing inserts cannot outgrow the bound
            _SIGNATURES.pop(key, None)
    return sig


class ExecutionPlan:
    """An immutable, flat, replayable DGEFMM program: the fused vendor
    program of one fusable signature.

    ``stream`` is the op stream the compiler recorded over the interned
    region table ``regions``, trace events included: what ``plan
    explain`` lists.  ``ops`` is the program
    :func:`~repro.plan.fuse.run_fused` replays, the stream without its
    events, charged once per replay with the summed ``charges``
    (:func:`~repro.plan.fuse.fuse_plan`).  ``arena_bytes`` covers the
    temporaries, at the byte offsets their regions carry, plus the base
    products' scratch at ``direct_off``.
    """

    __slots__ = (
        "signature", "dtype", "regions", "stream", "ops", "charges",
        "direct_off", "arena_bytes", "peak_bytes", "counts", "nbytes",
        "_views",
    )

    def __init__(
        self,
        signature: "PlanSignature",
        dtype: Any,
        regions: Tuple[tuple, ...],
        stream: Tuple[tuple, ...],
        temp_bytes: int,
        peak_bytes: int,
        counts: dict,
    ) -> None:
        self.signature = signature
        self.dtype = np.dtype(dtype)
        self.regions = regions
        self.stream = stream
        self.ops, self.charges, self.direct_off, self.arena_bytes = (
            fuse_plan(stream, regions, self.dtype, temp_bytes)
        )
        self.peak_bytes = int(peak_bytes)
        self.counts = counts
        self.nbytes = 256 + 64 * len(regions) + 96 * (len(stream)
                                                      + len(self.ops))
        #: per-pooled-arena-buffer ``(buf, temps, scratch)`` views (warm
        #: calls skip re-carving the arena; see
        #: repro.plan.executor._views)
        self._views: dict = {}

    # ------------------------------------------------------------------ #
    @property
    def n_ops(self) -> int:
        """Executable ops (events excluded)."""
        return len(self.ops)

    def describe(self, max_ops: Optional[int] = None) -> List[str]:
        """Human-readable op listing for ``python -m repro plan explain``."""

        def reg(idx: int) -> str:
            kind, off, fr, fc, r0, c0, rows, cols = self.regions[idx]
            root = ("A", "B", "C", f"T@{off}")[kind]
            return f"{root}[{r0}:{r0 + rows},{c0}:{c0 + cols}]"

        lines = [_op_repr(op, reg) for op in self.stream]
        if max_ops is not None and len(lines) > max_ops:
            lines = lines[:max_ops] + [
                f"... ({len(lines) - max_ops} more ops)"
            ]
        return lines

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        sig = self.signature
        return (
            f"ExecutionPlan({sig.m}x{sig.k}x{sig.n}, "
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
        self.ops.append(
            (OP_MADD, self.reg(x), self.reg(y), self.reg(out),
             encode_scalar(alpha))
        )
        return out

    def _msub(self, x, y, out, alpha=1.0, *, ctx=None):
        self._charge_add("msub", out)
        self.ops.append(
            (OP_MSUB, self.reg(x), self.reg(y), self.reg(out),
             encode_scalar(alpha))
        )
        return out

    def _accum(self, x, out, *, ctx=None):
        self._charge_add("accum", out)
        self.ops.append((OP_ACCUM, self.reg(x), self.reg(out)))
        return out

    def _axpby(self, alpha, x, beta, y, *, ctx=None):
        self._charge_add("axpby", y)
        self.ops.append(
            (OP_AXPBY, encode_scalar(alpha), self.reg(x),
             encode_scalar(beta), self.reg(y))
        )
        return y

    # -- walker hooks ------------------------------------------------- #
    def event(self, action, m, k, n, depth, scheme="") -> None:
        # every walked node emits a base or recurse event at its depth,
        # so the event stream alone yields the node tallies
        self.counts[action] += 1
        if depth > self.counts["max_depth"]:
            self.counts["max_depth"] = depth
        self.ops.append(
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
        self.ops.append(
            (OP_GEMM, self.reg(a), self.reg(b), self.reg(c),
             encode_scalar(alpha), encode_scalar(beta))
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
        self.ops.append(
            (OP_FIXUP, self.reg(a), self.reg(b), self.reg(c),
             encode_scalar(alpha), encode_scalar(beta), self.cfg.peel,
             divisors)
        )

    # ------------------------------------------------------------------ #
    def build(self, signature: "PlanSignature") -> ExecutionPlan:
        counts = dict(self.counts)
        counts["kernel_calls"] = Counter(self.kernel_calls)
        counts["mul_flops_total"] = self.mul_flops_total
        counts["add_flops_total"] = self.add_flops_total
        return ExecutionPlan(
            signature, self.dtype, tuple(self.region_descs),
            tuple(self.ops), self.ws.required, self.ws.peak, counts,
        )


# ---------------------------------------------------------------------- #
def _roots(m: int, k: int, n: int, dtype: Any) -> tuple:
    return (
        Region(ROOT_A, 0, m, k, 0, 0, m, k, dtype),
        Region(ROOT_B, 0, k, n, 0, 0, k, n, dtype),
        Region(ROOT_C, 0, m, n, 0, 0, m, n, dtype),
    )


def compile_plan(signature: "PlanSignature") -> ExecutionPlan:
    """Compile one fusable :class:`PlanSignature` into an
    :class:`ExecutionPlan`: the serial subtree rooted at the signature's
    ``depth``.  Any other signature raises :class:`ArgumentError`."""
    cfg = signature.config()
    if not cfg.fusable:
        raise ArgumentError(
            "compile_plan", "signature",
            "only fusable configs compile (backend='vendor', accuracy="
            f"'fast'), got backend={cfg.backend!r}, accuracy="
            f"{cfg.accuracy!r}, dtype={cfg.dtype!r}; the drivers walk "
            "every other config",
        )
    m, k, n = signature.m, signature.k, signature.n
    rec = _Recorder(cfg, signature.dtype)
    a, b, c = _roots(m, k, n, signature.dtype)
    _rec(a, b, c, 0.0 if signature.alpha_zero else SymScalar("a"),
         0.0 if signature.beta_zero else SymScalar("b"), signature.depth,
         cfg.scheme, rec)
    return rec.build(signature)
