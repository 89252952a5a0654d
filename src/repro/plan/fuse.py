"""Plan fusion: replay a serial plan without per-op dispatch.

The interpreted executor (:mod:`repro.plan.executor`) pays Python
dispatch per typed op — one function call, operand validation, and a
context charge for every madd/msub/accum/axpby and every leaf
``dgemm``.  :func:`fuse_plan` compiles an
:class:`~repro.plan.compiler.ExecutionPlan` into a :class:`FusedProgram`:
the plan's quiet op stream (``ops_quiet``) in order, with every
``OP_GEMM`` replaced in place by one ``OP_DIRECT`` on the same operands
and scalars, and the whole program's kernel tallies summed once.
:func:`run_fused` replays it as one inline loop:

- elementwise ops run the numeric block kernels' numpy calls
  (:data:`repro.blas.addsub.NUMERIC_KERNELS`) in the same order, with
  no per-op call, validation or charge;
- ``OP_DIRECT`` runs the arithmetic of
  ``repro.blas.level3.dgemm(backend="vendor")``: one ``np.matmul``
  straight into the output when alpha = 1, beta = 0 and the product
  dtype is the output's, and otherwise one ``np.matmul`` into a
  Fortran-ordered scratch block past the plan's temporaries, with
  alpha and beta applied from there in ``dgemm``'s order;
- ``OP_FIXUP`` runs the peeling fix-up executors, as interpreted replay
  does.

The context is charged once per replay with the summed tallies; every
tally is an integer-valued float below 2**53, so the sums equal the
interpreted replay's per-op charges exactly.

Numerics: fused replay is **bit-identical** to the vendor kernel's
walk — ``dgefmm(..., backend="vendor")`` at the same cutoff — so it is
that backend's engine, not a knob: the compiler fuses every plan of a
vendor config under fast accuracy
(:attr:`~repro.core.config.GemmConfig.fusable`), and ``dgefmm`` replays
the fused plan from its plan cache when the call's root recurses and
walks otherwise.  Substrate plans never fuse (its tiled ``einsum``
accumulates in another order), and ``backend`` keys
:class:`~repro.plan.compiler.PlanSignature`, so the two never collide
in one cache.  A leaf whose output overlaps one of its inputs needs no
analysis: numpy buffers an ``out`` that overlaps an input, exactly as
for the vendor ``dgemm``.

The fused program runs only for plain numeric replay — no tracing, no
dry run, no attached machine model (those need per-op hooks).  The
executor falls back to the plan's interpreted stream otherwise, whose
vendor leaves compute the same bits.
"""

from __future__ import annotations

from typing import Any, List

import numpy as np

from repro.blas.level3 import gemm_flops
from repro.core.peeling import apply_fixups, apply_fixups_head
from repro.core.pool import _align_up
from repro.plan.ops import (
    OP_ACCUM,
    OP_AXPBY,
    OP_FIXUP,
    OP_GEMM,
    OP_MADD,
    OP_MSUB,
)

__all__ = ["FusedProgram", "fuse_plan", "run_fused", "OP_DIRECT"]

#: a base-case product in a fused program — (OP_DIRECT, a, b, c, alpha,
#: beta), the operands and scalars of the ``OP_GEMM`` it replaces
OP_DIRECT = 8

_EW_NAMES = {OP_MADD: "madd", OP_MSUB: "msub",
             OP_ACCUM: "accum", OP_AXPBY: "axpby"}


class FusedProgram:
    """A compiled fused replay program for one plan.

    ``ops`` is the plan's quiet op stream with every ``OP_GEMM``
    replaced by an ``OP_DIRECT``; ``charges`` holds the program's
    ``(kernel, calls, muls, adds)`` totals, fix-ups excluded (they
    charge themselves).  ``arena_bytes`` covers the plan's temporaries
    plus the direct products' scratch at ``direct_off``, sized for the
    largest product; the executor sizes the arena from it when
    replaying fused.
    """

    __slots__ = ("ops", "charges", "dtype", "arena_bytes", "direct_off",
                 "n_direct", "_bind_cache")

    def __init__(self, ops, charges, dtype, arena_bytes,
                 direct_off) -> None:
        self.ops = ops
        self.charges = charges
        self.dtype = np.dtype(dtype)
        self.arena_bytes = int(arena_bytes)
        self.direct_off = int(direct_off)
        self.n_direct = sum(1 for op in ops if op[0] == OP_DIRECT)
        #: per-pooled-arena-buffer cache of Fortran-ordered scratch views
        #: (see repro.plan.executor._views_for)
        self._bind_cache: dict = {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FusedProgram({len(self.ops)} ops, {self.n_direct} direct "
            f"products, scratch {self.arena_bytes - self.direct_off}B)"
        )


def fuse_plan(plan) -> FusedProgram:
    """Compile an :class:`ExecutionPlan` into a fused program."""
    regions = plan.regions
    ops: List[tuple] = []
    totals: dict = {}        # kernel -> [calls, muls, adds]
    direct_max = 0
    for op in plan.ops_quiet:
        code = op[0]
        if code == OP_FIXUP:
            ops.append(op)
            continue
        if code == OP_GEMM:
            _, ai, bi, ci, al, be = op
            m, k = regions[ai][6], regions[ai][7]
            n = regions[bi][7]
            name = "dgemm"
            muls, adds = gemm_flops(m, k, n)
            direct_max = max(direct_max, m * n)
            op = (OP_DIRECT, ai, bi, ci, al, be)
        else:
            out = op[4] if code == OP_AXPBY else (
                op[2] if code == OP_ACCUM else op[3]
            )
            name = _EW_NAMES[code]
            muls, adds = 0.0, float(regions[out][6]) * regions[out][7]
        entry = totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += muls
        entry[2] += adds
        ops.append(op)
    direct_off = _align_up(plan.arena_bytes)
    return FusedProgram(
        tuple(ops), tuple((name, *t) for name, t in totals.items()),
        plan.dtype, direct_off + direct_max * plan.dtype.itemsize,
        direct_off,
    )


def run_fused(fp: FusedProgram, v: List[Any], st: tuple, ctx,
              buf, scratch: dict) -> None:
    """Replay a fused program over the resolved region table ``v``.

    ``st`` is the executor's scalar table ``(alpha, -alpha, beta,
    -beta)``; ``buf`` the arena buffer, sized to ``fp.arena_bytes`` so
    the direct products' scratch exists past the plan's temporaries.
    ``scratch`` holds the scratch views of ``buf`` by product shape;
    the executor keeps it across calls only for a pooled arena.
    Only called for plain numeric contexts (no trace/dry/machine).
    """
    dtype = fp.dtype

    for op in fp.ops:
        code = op[0]
        if code == OP_MADD:
            _, xi, yi, oi, al = op
            out = v[oi]
            np.add(v[xi], v[yi], out=out)
            al = st[al] if al.__class__ is int else al
            if al != 1.0:
                out *= al
        elif code == OP_MSUB:
            _, xi, yi, oi, al = op
            out = v[oi]
            np.subtract(v[xi], v[yi], out=out)
            al = st[al] if al.__class__ is int else al
            if al != 1.0:
                out *= al
        elif code == OP_ACCUM:
            v[op[2]] += v[op[1]]
        elif code == OP_AXPBY:
            _, al, xi, be, yi = op
            al = st[al] if al.__class__ is int else al
            be = st[be] if be.__class__ is int else be
            y = v[yi]
            if be == 0.0:
                if al == 0.0:
                    y[...] = 0.0
                elif al == 1.0:
                    y[...] = v[xi]
                else:
                    np.multiply(v[xi], al, out=y)
            else:
                if be != 1.0:
                    y *= be
                if al == 1.0:
                    y += v[xi]
                elif al != 0.0:
                    y += al * v[xi]
        elif code == OP_DIRECT:
            # repro.blas.level3.dgemm(backend="vendor"), step for step
            _, ai, bi, ci, al, be = op
            al = st[al] if al.__class__ is int else al
            be = st[be] if be.__class__ is int else be
            a, b, cv = v[ai], v[bi], v[ci]
            pdt = a.dtype   # np.result_type(a, b), skipped when trivial
            if pdt != b.dtype or not pdt.isnative:
                pdt = np.result_type(a, b)
            if al == 1.0 and be == 0.0 and pdt == cv.dtype:
                np.matmul(a, b, out=cv)
                continue
            shape = cv.shape
            if pdt == dtype:
                prod = scratch.get(shape)
                if prod is None:
                    off = fp.direct_off
                    prod = scratch[shape] = (
                        buf[off:off + shape[0] * shape[1] * dtype.itemsize]
                        .view(dtype).reshape(shape, order="F")
                    )
            else:
                prod = np.empty(shape, dtype=pdt, order="F")
            np.matmul(a, b, out=prod)
            if al != 1.0:
                prod *= al
            if be == 0.0:
                cv[...] = prod
            else:
                if be != 1.0:
                    cv *= be
                cv += prod
        else:  # OP_FIXUP
            _, ai, bi, ci, al, be, side, divisors = op
            fix = apply_fixups if side == "tail" else apply_fixups_head
            fix(v[ai], v[bi], v[ci],
                st[al] if al.__class__ is int else al,
                st[be] if be.__class__ is int else be,
                ctx=ctx, divisors=divisors)
    for name, calls, muls, adds in fp.charges:
        ctx.charge_many(name, calls, muls=muls, adds=adds)
