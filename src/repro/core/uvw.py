"""Generic executor for registry schemes: one level from (U, V, W).

The hand-written 2x2 schedules (:mod:`repro.core.strassen1`,
:mod:`repro.core.strassen2`, :mod:`repro.core.textbook`,
:mod:`repro.core.bdpz`) are carefully ordered to minimise temporaries;
non-2x2 schemes enter the repository as pure coefficient data
(:mod:`repro.core.schemes`) and are executed by the interpreter built
here.  :func:`make_uvw_level` compiles one registry entry into a level
function with the same signature as the hand schedules — same
``kernels`` injection point, so the plan compiler records it with the
identical machinery, and live and compiled execution stay bit-equal.

Execution strategy per product ``r`` (mirrored exactly by
:func:`repro.core.schemes.uvw_profile`, which the op-count model
consumes — any drift between the two is caught by the conformance
harness):

- the A-side operand is the block itself when ``U``'s row is a single
  +1, one scaling AXPBY into the S temporary when a single -1, and a
  chain of AXPBYs when it mixes blocks (first one overwrites);
  likewise the B side;
- a product with a single destination block recurses *straight into
  that block of C*: the first product to touch a block carries the
  caller's beta, later ones accumulate (beta = 1);
- a product feeding several blocks recurses into the P temporary
  (beta = 0 child) and is merged with one AXPBY per destination,
  again folding the caller's beta into each block's first touch.

Only three temporaries exist per level — one S, one T, one P block —
so an ⟨mbar,kbar,nbar;R⟩ level costs ``mk/(mbar*kbar) + kn/(kbar*nbar)
+ mn/(mbar*nbar)`` extra elements regardless of R.

A parallel level (:mod:`repro.core.parallel`) runs the same data live:
:func:`fan_out` gives each of the R products its own temporaries, the
products run concurrently, and :func:`combine` writes C from them.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.blas.addsub import NUMERIC_KERNELS, BlockKernels
from repro.context import ExecutionContext
from repro.core.pool import _align_up
from repro.core.schemes import Scheme, get_scheme
from repro.core.workspace import Workspace

__all__ = ["make_uvw_level"]

RecurseFn = Callable[[Any, Any, Any, float, float], None]


def split_blocks(x: Any, rows: int, cols: int) -> tuple:
    """The ``rows`` x ``cols`` grid of equal blocks of ``x``, row-major."""
    bm, bn = x.shape[0] // rows, x.shape[1] // cols
    return tuple(x[i * bm:(i + 1) * bm, j * bn:(j + 1) * bn]
                 for i in range(rows) for j in range(cols))


def nonzero_rows(mat) -> tuple:
    """Each row of a coefficient matrix as its ``(column, coef)`` nonzeros."""
    return tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in mat)


def make_uvw_level(scheme_name: str):
    """Build a level function executing one registry scheme's UVW."""
    sch = get_scheme(scheme_name)
    urows, vrows = nonzero_rows(sch.u), nonzero_rows(sch.v)
    # per product: the (C block, coefficient) pairs it feeds
    dests = nonzero_rows(zip(*sch.w))

    def uvw_level(
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
        em = kernels if kernels is not None else NUMERIC_KERNELS
        ablk = split_blocks(a, sch.mbar, sch.kbar)
        bblk = split_blocks(b, sch.kbar, sch.nbar)
        cblk = split_blocks(c, sch.mbar, sch.nbar)
        dt = getattr(c, "dtype", None) or "float64"
        neg_alpha = -alpha
        with ws.frame():
            s = ws.alloc(*ablk[0].shape, dt)
            t = ws.alloc(*bblk[0].shape, dt)
            p = ws.alloc(*cblk[0].shape, dt)
            touched = [False] * len(cblk)
            for r in range(sch.r):
                sa = _operand(urows[r], ablk, s, em, ctx)
                tb = _operand(vrows[r], bblk, t, em, ctx)
                ds = dests[r]
                if len(ds) == 1:
                    ci, wc = ds[0]
                    recurse(
                        sa, tb, cblk[ci],
                        alpha if wc > 0 else neg_alpha,
                        1.0 if touched[ci] else beta,
                    )
                    touched[ci] = True
                else:
                    recurse(sa, tb, p, 1.0, 0.0)
                    for ci, wc in ds:
                        em.axpby(
                            alpha if wc > 0 else neg_alpha, p,
                            1.0 if touched[ci] else beta, cblk[ci],
                            ctx=ctx,
                        )
                        touched[ci] = True

    uvw_level.__name__ = f"uvw_{scheme_name}_level"
    uvw_level.__qualname__ = uvw_level.__name__
    return uvw_level


def fan_out(sch: Scheme, a: Any, b: Any, ws: Workspace, dt: Any,
            em: BlockKernels, ctx: ExecutionContext) -> tuple:
    """``sch``'s R products as independent (S, T, P) triples: S is the A
    block itself for a single-+1 U row, else its own ``ws`` temporary;
    T likewise from V; P is always its own temporary."""
    ablk = split_blocks(a, sch.mbar, sch.kbar)
    bblk = split_blocks(b, sch.kbar, sch.nbar)

    def operand(terms, blocks):
        tmp = None if _is_block(terms) else ws.alloc(*blocks[0].shape, dt)
        return _operand(terms, blocks, tmp, em, ctx)

    p_shape = ablk[0].shape[0], bblk[0].shape[1]
    return tuple(
        (operand(ur, ablk), operand(vr, bblk), ws.alloc(*p_shape, dt))
        for ur, vr in zip(nonzero_rows(sch.u), nonzero_rows(sch.v))
    )


def fan_out_bytes(sch: Scheme, a: Any, b: Any, itemsize: int) -> int:
    """Arena bytes that cover :func:`fan_out`'s temporaries for ``a`` and
    ``b`` under a pooled arena's 64-byte-aligned bump allocation."""
    am, ak = a.shape[0] // sch.mbar, a.shape[1] // sch.kbar
    bn = b.shape[1] // sch.nbar
    temps = (
        [am * ak] * sum(not _is_block(t) for t in nonzero_rows(sch.u))
        + [ak * bn] * sum(not _is_block(t) for t in nonzero_rows(sch.v))
        + [am * bn] * sch.r
    )
    return sum(_align_up(t * itemsize) for t in temps)


def combine(sch: Scheme, jobs: tuple, c: Any, alpha: Any, beta: Any,
            em: BlockKernels, ctx: ExecutionContext) -> None:
    """``C_i <- alpha * sum_r W[i][r] * P_r + beta * C_i`` for the
    :func:`fan_out` jobs; beta rides each block's first AXPBY."""
    cblk = split_blocks(c, sch.mbar, sch.nbar)
    for ci, terms in zip(cblk, nonzero_rows(sch.w)):
        for i, (r, wc) in enumerate(terms):
            em.axpby(alpha if wc > 0 else -alpha, jobs[r][2],
                     1.0 if i else beta, ci, ctx=ctx)


def _is_block(terms) -> bool:
    """True when an S/T row is one block taken as-is (no temporary)."""
    return len(terms) == 1 and terms[0][1] > 0


def _operand(terms, blocks, tmp, em, ctx):
    """Materialise one S/T linear combination (or return the block)."""
    if _is_block(terms):
        return blocks[terms[0][0]]
    first = True
    for j, coef in terms:
        em.axpby(float(coef), blocks[j], 0.0 if first else 1.0, tmp,
                 ctx=ctx)
        first = False
    return tmp
