"""STRASSEN1 — the straightforward schedule of paper Section 3.2.

STRASSEN1 computes each of the seven Winograd products into its own
destination and combines them with matrix additions.  Two variants, as in
the paper:

**beta = 0 variant** (:func:`strassen1_beta0_level`) — the computation
order is designed so the four quadrants of C serve as four of the product
temporaries; only two real temporaries remain:

    R1 (m/2 x max(k,n)/2)  — holds the S-chain, then spare products,
    R2 (k/2 x n/2)         — holds the T-chain,

for a recursion-wide bound of ``(m*max(k,n) + kn)/3`` (``2m^2/3`` square).

**general variant** (:func:`strassen1_general_level`) — ``beta != 0``
means C's initial content is live, so products cannot be written into C;
six temporaries are used:

    R1 (m/2 x max(k,n)/2), R2 (k/2 x n/2), R3..R6 (m/2 x n/2 each),

total ``m*max(k,n)/4 + kn/4 + mn`` per level — the paper's bound
``(4mn + m*max(k,n) + kn)/3`` (``2m^2`` square) when all recursive calls
use this same schedule.

Scheduling note: keeping the strict two-temporary/six-temporary memory
bound forces a *flattened* accumulation of the U-tree (each product is
added into every quadrant that needs it), costing 18 block additions per
level instead of the algorithm's minimal 15.  The paper's own schedule
(in the unavailable tech report [14]) makes the same memory claim; the
three extra O(m^2/4) additions are negligible against the O(m^3) product
work and are visible only in the op-count instrumentation, where tests
pin them down explicitly.

Both variants draw every temporary from the workspace passed in, never
from the heap directly — so when the driver hands them a pooled arena
(:class:`~repro.core.pool.PooledWorkspace`), the frame discipline below
replays the same bump-allocator layout on every call and repeated GEMMs
allocate nothing new.  The schedules are agnostic to which workspace
implementation they run on.

All products recurse through the driver callback, so cutoffs and dynamic
peeling apply below this level.  In the beta = 0 variant the products are
themselves beta = 0 multiplies; the paper's Table 1 figure for the
general variant assumes general-schedule children ("computed recursively
using the same algorithm"), which the driver honours when this scheme is
forced (see :mod:`repro.core.dgefmm`).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.blas.addsub import NUMERIC_KERNELS, BlockKernels
from repro.context import ExecutionContext
from repro.core.workspace import Workspace

__all__ = ["strassen1_beta0_level", "strassen1_general_level"]

RecurseFn = Callable[[Any, Any, Any, float, float], None]


def strassen1_beta0_level(
    a: Any,
    b: Any,
    c: Any,
    alpha: float,
    beta: float,
    *,
    ctx: ExecutionContext,
    ws: Workspace,
    recurse: RecurseFn,
    kernels: Optional[BlockKernels] = None,
) -> None:
    """One STRASSEN1 level for ``C <- alpha*A*B`` (beta = 0), even dims.

    Takes ``beta`` like every other level function, but is only ever
    dispatched with ``beta == 0``, so it never reads it.  C's quadrants
    are written freely (their prior content is dead), so they host four
    of the seven products; R1/R2 host the S/T chains and the two
    products that cannot live in C.
    """
    em = kernels if kernels is not None else NUMERIC_KERNELS
    m, k = a.shape
    n = b.shape[1]
    hm, hk, hn = m // 2, k // 2, n // 2

    a11, a12, a21, a22 = a[:hm, :hk], a[:hm, hk:], a[hm:, :hk], a[hm:, hk:]
    b11, b12, b21, b22 = b[:hk, :hn], b[:hk, hn:], b[hk:, :hn], b[hk:, hn:]
    c11, c12, c21, c22 = c[:hm, :hn], c[:hm, hn:], c[hm:, :hn], c[hm:, hn:]

    dt = getattr(c, "dtype", None) or "float64"
    with ws.frame():
        r1 = ws.alloc(hm, max(hk, hn), dt)
        r2 = ws.alloc(hk, hn, dt)
        rs = r1[:, :hk]   # S-chain view (m/2 x k/2)
        rp = r1[:, :hn]   # product view (m/2 x n/2), live only when S dead

        em.madd(a21, a22, rs, alpha, ctx=ctx)        # rs = alpha*S1
        em.msub(b12, b11, r2, ctx=ctx)               # r2 = T1
        recurse(rs, r2, c22, 1.0, 0.0)            # C22 = alpha*P5
        em.axpby(-alpha, a11, 1.0, rs, ctx=ctx)      # rs = alpha*S2
        em.msub(b22, r2, r2, ctx=ctx)                # r2 = T2
        recurse(rs, r2, c21, 1.0, 0.0)            # C21 = alpha*P6
        em.axpby(alpha, a12, -1.0, rs, ctx=ctx)      # rs = alpha*S4
        em.msub(r2, b21, r2, ctx=ctx)                # r2 = T4
        recurse(rs, b22, c12, 1.0, 0.0)           # C12 = alpha*P3
        em.accum(c22, c12, ctx=ctx)                  # C12 = a*(P3+P5)
        em.accum(c21, c12, ctx=ctx)                  # C12 = a*(P3+P5+P6)
        em.accum(c21, c22, ctx=ctx)                  # C22 = a*(P5+P6)
        recurse(a22, r2, rp, alpha, 0.0)          # rp = alpha*P4
        em.axpby(-1.0, rp, 1.0, c21, ctx=ctx)        # C21 = a*(P6-P4)
        em.msub(a11, a21, rs, alpha, ctx=ctx)        # rs = alpha*S3
        em.msub(b22, b12, r2, ctx=ctx)               # r2 = T3
        recurse(rs, r2, c11, 1.0, 0.0)            # C11 = alpha*P7 (temp use)
        em.accum(c11, c21, ctx=ctx)                  # C21 = a*(P6+P7-P4)
        em.accum(c11, c22, ctx=ctx)                  # C22 = a*(P5+P6+P7)
        recurse(a11, b11, c11, alpha, 0.0)        # C11 = alpha*P1
        em.accum(c11, c12, ctx=ctx)                  # C12 = a*U5  (done)
        em.accum(c11, c21, ctx=ctx)                  # C21 = a*U6  (done)
        em.accum(c11, c22, ctx=ctx)                  # C22 = a*U7  (done)
        recurse(a12, b21, rp, alpha, 0.0)         # rp = alpha*P2
        em.accum(rp, c11, ctx=ctx)                   # C11 = a*U1  (done)


def strassen1_general_level(
    a: Any,
    b: Any,
    c: Any,
    alpha: float,
    beta: float,
    *,
    ctx: ExecutionContext,
    ws: Workspace,
    recurse: RecurseFn,
    kernels: Optional[BlockKernels] = None,
) -> None:
    """One STRASSEN1 level for general ``C <- alpha*A*B + beta*C``.

    C's prior content must survive until its single beta-scaled merge, so
    all seven products go to temporaries (six allocations: R1 doubles as
    the S-chain and the P1 slot once the S-chain is dead).
    """
    em = kernels if kernels is not None else NUMERIC_KERNELS
    m, k = a.shape
    n = b.shape[1]
    hm, hk, hn = m // 2, k // 2, n // 2

    a11, a12, a21, a22 = a[:hm, :hk], a[:hm, hk:], a[hm:, :hk], a[hm:, hk:]
    b11, b12, b21, b22 = b[:hk, :hn], b[:hk, hn:], b[hk:, :hn], b[hk:, hn:]
    c11, c12, c21, c22 = c[:hm, :hn], c[:hm, hn:], c[hm:, :hn], c[hm:, hn:]

    dt = getattr(c, "dtype", None) or "float64"
    with ws.frame():
        r1 = ws.alloc(hm, max(hk, hn), dt)
        r2 = ws.alloc(hk, hn, dt)
        r3 = ws.alloc(hm, hn, dt)
        r4 = ws.alloc(hm, hn, dt)
        r5 = ws.alloc(hm, hn, dt)
        r6 = ws.alloc(hm, hn, dt)
        rs = r1[:, :hk]   # S-chain view
        rp = r1[:, :hn]   # P1 slot, once the S-chain is dead

        em.madd(a21, a22, rs, ctx=ctx)               # rs = S1
        em.msub(b12, b11, r2, ctx=ctx)               # r2 = T1
        recurse(rs, r2, r3, 1.0, 0.0)             # r3 = P5
        em.axpby(-1.0, a11, 1.0, rs, ctx=ctx)        # rs = S2
        em.msub(b22, r2, r2, ctx=ctx)                # r2 = T2
        recurse(rs, r2, r4, 1.0, 0.0)             # r4 = P6
        em.axpby(1.0, a12, -1.0, rs, ctx=ctx)        # rs = S4
        em.msub(r2, b21, r2, ctx=ctx)                # r2 = T4
        recurse(rs, b22, r5, 1.0, 0.0)            # r5 = P3
        recurse(a22, r2, r6, 1.0, 0.0)            # r6 = P4
        em.axpby(-alpha, r6, beta, c21, ctx=ctx)     # C21 = b*C21 - a*P4
        em.msub(a11, a21, rs, ctx=ctx)               # rs = S3
        em.msub(b22, b12, r2, ctx=ctx)               # r2 = T3
        recurse(rs, r2, r6, 1.0, 0.0)             # r6 = P7
        recurse(a11, b11, rp, 1.0, 0.0)           # rp = P1 (S-chain dead)
        em.accum(rp, r4, ctx=ctx)                    # r4 = U2 = P1 + P6
        em.accum(r4, r6, ctx=ctx)                    # r6 = U3 = U2 + P7
        em.axpby(alpha, r6, 1.0, c21, ctx=ctx)       # C21 += a*U3   (done)
        em.axpby(alpha, r6, beta, c22, ctx=ctx)      # C22 = b*C22 + a*U3
        em.axpby(alpha, r3, 1.0, c22, ctx=ctx)       # C22 += a*P5   (done)
        em.accum(r3, r5, ctx=ctx)                    # r5 = P3 + P5
        em.accum(r4, r5, ctx=ctx)                    # r5 = U5 = U2 + P5 + P3
        em.axpby(alpha, r5, beta, c12, ctx=ctx)      # C12 = b*C12 + a*U5 (done)
        recurse(a12, b21, r3, 1.0, 0.0)           # r3 = P2 (P5 dead)
        em.accum(r3, rp, ctx=ctx)                    # rp = U1 = P1 + P2
        em.axpby(alpha, rp, beta, c11, ctx=ctx)      # C11 = b*C11 + a*U1 (done)
