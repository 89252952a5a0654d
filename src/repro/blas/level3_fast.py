"""Level 3 BLAS routines accelerated by fast multiplication (Higham [11]).

The paper cites Higham, *Exploiting fast matrix multiplication within the
level 3 BLAS* [11], for the idea that one fast GEMM upgrades the whole
Level 3 family.  This module implements the flagship case:

``dsyrk_fast``: the symmetric rank-k update ``C <- alpha*A*A^T + beta*C``
(or ``A^T*A``), computed by Higham's recursive partition

    C11 <- alpha*A1*A1^T + beta*C11        (recursive SYRK, half size)
    C22 <- alpha*A2*A2^T + beta*C22        (recursive SYRK, half size)
    C21 <- alpha*A2*A1^T + beta*C21        (general product -> DGEFMM)

so the off-diagonal half of the work — asymptotically all of it — flows
through Strassen, while symmetry still saves the upper triangle.  Only
the lower triangle of C is referenced and written, as in BLAS DSYRK.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.blas.level3 import dgemm
from repro.blas.validate import require_matrix, require_writable
from repro.context import ExecutionContext, ensure_context
from repro.core.cutoff import CutoffCriterion
from repro.core.config import default_cutoff
from repro.core.dgefmm import dgefmm
from repro.core.workspace import Workspace
from repro.errors import DimensionError

__all__ = ["dsyrk_fast", "dsyr2k_fast", "dtrmm_fast"]


def dsyrk_fast(
    a: Any,
    c: Any,
    alpha: float = 1.0,
    beta: float = 0.0,
    trans: bool = False,
    *,
    cutoff: Optional[CutoffCriterion] = None,
    block: int = 64,
    ctx: Optional[ExecutionContext] = None,
    workspace: Optional[Workspace] = None,
) -> Any:
    """Symmetric rank-k update with Strassen off-diagonal blocks.

    ``C <- alpha * A A^T + beta * C`` (``trans=False``, A is n-by-k) or
    ``C <- alpha * A^T A + beta * C`` (``trans=True``, A is k-by-n).
    Only C's lower triangle (including the diagonal) is read or written;
    the strict upper triangle is left untouched, exactly like BLAS DSYRK.

    ``block`` is the order below which the diagonal blocks fall back to
    a plain (standard-algorithm) update.
    """
    ctx = ensure_context(ctx)
    require_matrix("dsyrk_fast", "a", a)
    require_matrix("dsyrk_fast", "c", c)
    require_writable("dsyrk_fast", "c", c)
    n = a.shape[1] if trans else a.shape[0]
    k = a.shape[0] if trans else a.shape[1]
    if tuple(c.shape) != (n, n):
        raise DimensionError(
            f"dsyrk_fast: C has shape {tuple(c.shape)}, expected {(n, n)}"
        )
    if block < 1:
        raise DimensionError(f"dsyrk_fast: block={block} must be >= 1")
    crit = cutoff if cutoff is not None else default_cutoff()
    ws = workspace if workspace is not None else Workspace(dry=ctx.dry)
    opa = a.T if trans else a  # n-by-k view
    _syrk_rec(opa, c, alpha, beta, crit, block, ctx, ws)
    return c


def _syrk_base(
    a: Any, c: Any, alpha: float, beta: float, ctx: ExecutionContext
) -> None:
    """Unblocked lower-triangle update via the standard algorithm.

    Computes the full small product and merges its lower triangle; the
    upper triangle of C is preserved (BLAS contract).
    """
    n = c.shape[0]
    if n == 0:
        return
    if ctx.dry:
        dgemm(a, a.T, c, alpha, beta, ctx=ctx)
        return
    tmp = np.zeros((n, n), dtype=np.result_type(a, c), order="F")
    dgemm(a, a.T, tmp, 1.0, 0.0, ctx=ctx)
    il = np.tril_indices(n)
    if beta == 0.0:
        c[il] = alpha * tmp[il]
    else:
        c[il] = alpha * tmp[il] + beta * c[il]


def _syrk_rec(
    a: Any,
    c: Any,
    alpha: float,
    beta: float,
    crit: CutoffCriterion,
    block: int,
    ctx: ExecutionContext,
    ws: Workspace,
) -> None:
    n, k = a.shape
    if n <= block or n < 2:
        _syrk_base(a, c, alpha, beta, ctx)
        return
    h = n // 2
    a1, a2 = a[:h, :], a[h:, :]
    # off-diagonal block: a full general product -> Strassen
    dgefmm(a2, a1, c[h:, :h], alpha, beta, transb=True,
           cutoff=crit, ctx=ctx, workspace=ws)
    _syrk_rec(a1, c[:h, :h], alpha, beta, crit, block, ctx, ws)
    _syrk_rec(a2, c[h:, h:], alpha, beta, crit, block, ctx, ws)


def dsyr2k_fast(
    a: Any,
    b: Any,
    c: Any,
    alpha: float = 1.0,
    beta: float = 0.0,
    *,
    cutoff: Optional[CutoffCriterion] = None,
    block: int = 64,
    ctx: Optional[ExecutionContext] = None,
    workspace: Optional[Workspace] = None,
) -> Any:
    """Symmetric rank-2k update: ``C <- alpha*(A B^T + B A^T) + beta*C``.

    Same recursive partition as :func:`dsyrk_fast`; the off-diagonal
    block needs two general (Strassen) products per level, the diagonal
    blocks recurse.  Lower triangle only, like BLAS DSYR2K.
    """
    ctx = ensure_context(ctx)
    require_matrix("dsyr2k_fast", "a", a)
    require_matrix("dsyr2k_fast", "b", b)
    require_matrix("dsyr2k_fast", "c", c)
    require_writable("dsyr2k_fast", "c", c)
    if a.shape != b.shape:
        raise DimensionError(
            f"dsyr2k_fast: A {a.shape} and B {b.shape} must match"
        )
    n = a.shape[0]
    if tuple(c.shape) != (n, n):
        raise DimensionError(
            f"dsyr2k_fast: C has shape {tuple(c.shape)}, expected {(n, n)}"
        )
    if block < 1:
        raise DimensionError(f"dsyr2k_fast: block={block} must be >= 1")
    crit = cutoff if cutoff is not None else default_cutoff()
    ws = workspace if workspace is not None else Workspace(dry=ctx.dry)
    _syr2k_rec(a, b, c, alpha, beta, crit, block, ctx, ws)
    return c


def _syr2k_base(a, b, c, alpha, beta, ctx):
    n = c.shape[0]
    if n == 0:
        return
    if ctx.dry:
        dgemm(a, b.T if hasattr(b, "T") else b, c, alpha, beta, ctx=ctx)
        dgemm(b, a.T if hasattr(a, "T") else a, c, alpha, 1.0, ctx=ctx)
        return
    tmp = np.zeros((n, n), dtype=np.result_type(a, b, c), order="F")
    dgemm(a, b, tmp, 1.0, 0.0, transb=True, ctx=ctx)
    dgemm(b, a, tmp, 1.0, 1.0, transb=True, ctx=ctx)
    il = np.tril_indices(n)
    if beta == 0.0:
        c[il] = alpha * tmp[il]
    else:
        c[il] = alpha * tmp[il] + beta * c[il]


def _syr2k_rec(a, b, c, alpha, beta, crit, block, ctx, ws):
    n = a.shape[0]
    if n <= block or n < 2:
        _syr2k_base(a, b, c, alpha, beta, ctx)
        return
    h = n // 2
    a1, a2 = a[:h, :], a[h:, :]
    b1, b2 = b[:h, :], b[h:, :]
    # off-diagonal: C21 <- alpha*(A2 B1^T + B2 A1^T) + beta*C21
    dgefmm(a2, b1, c[h:, :h], alpha, beta, transb=True,
           cutoff=crit, ctx=ctx, workspace=ws)
    dgefmm(b2, a1, c[h:, :h], alpha, 1.0, transb=True,
           cutoff=crit, ctx=ctx, workspace=ws)
    _syr2k_rec(a1, b1, c[:h, :h], alpha, beta, crit, block, ctx, ws)
    _syr2k_rec(a2, b2, c[h:, h:], alpha, beta, crit, block, ctx, ws)


def dtrmm_fast(
    t: Any,
    b: Any,
    alpha: float = 1.0,
    *,
    cutoff: Optional[CutoffCriterion] = None,
    block: int = 64,
    ctx: Optional[ExecutionContext] = None,
    workspace: Optional[Workspace] = None,
) -> Any:
    """Triangular multiply ``B <- alpha * T * B`` (T lower triangular).

    Higham's recursive partition: with T = [[T11, 0], [T21, T22]] and
    B = [B1; B2],

        B2 <- alpha*T21*B1 + (alpha*T22)*B2    (general product + rec.)
        B1 <- alpha*T11*B1                     (recursive trmm)

    computed bottom-up so B1 is still unscaled when T21 consumes it.
    The strict upper triangle of T is never referenced (BLAS contract).
    """
    ctx = ensure_context(ctx)
    require_matrix("dtrmm_fast", "t", t)
    require_matrix("dtrmm_fast", "b", b)
    require_writable("dtrmm_fast", "b", b)
    n = t.shape[0]
    if t.shape[1] != n:
        raise DimensionError(
            f"dtrmm_fast: T must be square, got {tuple(t.shape)}"
        )
    if b.shape[0] != n:
        raise DimensionError(
            f"dtrmm_fast: B has {b.shape[0]} rows, expected {n}"
        )
    if block < 1:
        raise DimensionError(f"dtrmm_fast: block={block} must be >= 1")
    crit = cutoff if cutoff is not None else default_cutoff()
    ws = workspace if workspace is not None else Workspace(dry=ctx.dry)
    _trmm_rec(t, b, alpha, crit, block, ctx, ws)
    return b


def _trmm_rec(t, b, alpha, crit, block, ctx, ws):
    n = t.shape[0]
    if n == 0 or b.shape[1] == 0:
        return
    if n <= block or n < 2:
        if not ctx.dry:
            tl = np.tril(np.asarray(t, dtype=np.float64))
            prod = np.zeros_like(np.asarray(b, dtype=np.float64), order="F")
            dgemm(tl, b, prod, alpha, 0.0, ctx=ctx)
            b[...] = prod
        else:
            dgemm(t, b, b, alpha, 0.0, ctx=ctx)
        return
    h = n // 2
    t11, t21, t22 = t[:h, :h], t[h:, :h], t[h:, h:]
    b1, b2 = b[:h, :], b[h:, :]
    # bottom half first: consumes the unscaled B1
    _trmm_rec(t22, b2, alpha, crit, block, ctx, ws)       # B2 <- aT22 B2
    dgefmm(t21, b1, b2, alpha, 1.0, cutoff=crit, ctx=ctx,
           workspace=ws)                                  # B2 += aT21 B1
    _trmm_rec(t11, b1, alpha, crit, block, ctx, ws)       # B1 <- aT11 B1
