"""Plan fusion: the program a compiled plan replays.

The compiler records the vendor walk of one signature as a stream of
typed ops (:mod:`repro.plan.ops`).  :func:`fuse_plan` turns that stream
into the plan's executable program: the same ops in the same order,
trace events dropped, with the whole program's kernel tallies summed
once.  :func:`run_fused` replays it as one inline loop:

- elementwise ops run the numeric block kernels' numpy calls
  (:data:`repro.blas.addsub.NUMERIC_KERNELS`) in the same order, with
  no per-op call, validation or charge;
- ``OP_GEMM`` runs the arithmetic of
  ``repro.blas.level3.dgemm(backend="vendor")``: one ``np.matmul``
  straight into the output when alpha = 1, beta = 0 and the product
  dtype is the output's, and otherwise one ``np.matmul`` into a
  Fortran-ordered scratch block past the plan's temporaries, with
  alpha and beta applied from there in ``dgemm``'s order;
- ``OP_FIXUP`` runs the peeling fix-up executors, as the walk does.

The context is charged once per replay with the summed tallies; every
tally is an integer-valued float below 2**53, so the sums equal the
vendor walk's per-op charges exactly.

Numerics: fused replay is **bit-identical** to the vendor kernel's
walk — ``dgefmm(..., backend="vendor")`` at the same cutoff — so it is
that backend's engine, not a knob: only configs with vendor leaves
under fast accuracy (:attr:`~repro.core.config.GemmConfig.fusable`)
compile, and ``dgefmm`` replays the plan from its plan cache when the
call's root recurses and walks otherwise.  A leaf whose output
overlaps one of its inputs needs no analysis: numpy buffers an ``out``
that overlaps an input, exactly as for the vendor ``dgemm``.

Replay runs only for plain numeric contexts: one that traces,
dry-runs or holds a machine model needs the per-op hooks of the walk.
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
    OP_EVENT,
    OP_FIXUP,
    OP_GEMM,
    OP_MADD,
    OP_MSUB,
)

__all__ = ["fuse_plan", "run_fused"]

_EW_NAMES = {OP_MADD: "madd", OP_MSUB: "msub",
             OP_ACCUM: "accum", OP_AXPBY: "axpby"}


def fuse_plan(stream, regions, dtype, temp_bytes: int) -> tuple:
    """The executable program of a recorded op ``stream``:
    ``(ops, charges, direct_off, arena_bytes)``.

    ``ops`` is the stream without its trace events; ``charges`` holds
    the program's ``(kernel, calls, muls, adds)`` totals, fix-ups
    excluded (they charge themselves).  The base products' scratch
    starts at ``direct_off``, the first aligned byte past the
    ``temp_bytes`` of temporaries, and holds the largest product, so
    ``arena_bytes`` is the arena a replay reserves.
    """
    ops: List[tuple] = []
    totals: dict = {}        # kernel -> [calls, muls, adds]
    direct_max = 0
    for op in stream:
        code = op[0]
        if code == OP_EVENT:
            continue
        ops.append(op)
        if code == OP_FIXUP:
            continue
        if code == OP_GEMM:
            _, ai, bi, ci, _al, _be = op
            m, k = regions[ai][6], regions[ai][7]
            n = regions[bi][7]
            name = "dgemm"
            muls, adds = gemm_flops(m, k, n)
            direct_max = max(direct_max, m * n)
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
    direct_off = _align_up(temp_bytes)
    return (tuple(ops), tuple((name, *t) for name, t in totals.items()),
            direct_off, direct_off + direct_max * dtype.itemsize)


def run_fused(plan, v: List[Any], st: tuple, ctx, buf,
              scratch: dict) -> None:
    """Replay ``plan``'s program over the resolved region table ``v``.

    ``st`` is the executor's scalar table ``(alpha, -alpha, beta,
    -beta)``; ``buf`` the arena buffer, sized to ``plan.arena_bytes``
    so the base products' scratch exists past the plan's temporaries.
    ``scratch`` holds the scratch views of ``buf`` by product shape;
    the executor keeps it across calls only for a pooled arena.
    Only called for plain numeric contexts (no trace/dry/machine).
    """
    dtype = plan.dtype

    for op in plan.ops:
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
        elif code == OP_GEMM:
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
                    off = plan.direct_off
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
    for name, calls, muls, adds in plan.charges:
        ctx.charge_many(name, calls, muls=muls, adds=adds)
