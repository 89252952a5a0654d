"""ESSL-style DGEMMS — IBM's Strassen routine, as the paper describes it.

The paper's Section 4.1 records the externally observable contract of
IBM ESSL's DGEMMS (Version 2.2), which is what Figures 1 (memory) and 3
(performance ratio) rely on:

- it performs **only the multiplication** ``C = op(A) * op(B)``; "the
  update of C and scaling by alpha and beta must be done separately by
  the calling routine whenever alpha != 1.0 or beta != 0.0";
- it implements the Winograd variant with an early cutoff;
- its documented workspace requirement is about ``1.40 m^2`` (Table 1),
  between DGEFMM's ``2m^2/3`` and CRAY SGEMMS' ``7m^2/3``.

Internals are closed-source; we realize the same contract with the
Winograd C-reuse schedule under **static padding** (pad once so the whole
planned recursion sees even dimensions — a plausible vendor strategy and
usefully different from both DGEFMM's peeling and DGEMMW's dynamic
padding).  :func:`essl_dgemms_general` reproduces the paper's timing
wrapper: the extra caller loop for alpha/beta around the multiply-only
routine, which is exactly how the paper timed the general case on ESSL.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.blas.addsub import axpby
from repro.blas.level3 import dgemm
from repro.blas.validate import opshape, require_matrix, require_writable
from repro.context import ExecutionContext, RecursionEvent, ensure_context
from repro.core.cutoff import CutoffCriterion, SimpleCutoff
from repro.core.padding import run_statically_padded
from repro.core.strassen1 import strassen1_beta0_level
from repro.core.workspace import Workspace
from repro.errors import DimensionError

__all__ = ["essl_dgemms", "essl_dgemms_general", "ESSL_DEFAULT_CUTOFF"]

ESSL_DEFAULT_CUTOFF = SimpleCutoff(tau=128)


def _planned_depth(m: int, k: int, n: int, crit: CutoffCriterion) -> int:
    """Recursion depth static padding must provision for.

    Halve (rounding up, as padding would) until the criterion stops.
    """
    depth = 0
    while (
        not crit.stop(m, k, n)
        and min(m, k, n) >= 2
        and depth < 48
    ):
        m, k, n = (m + 1) // 2, (k + 1) // 2, (n + 1) // 2
        depth += 1
    return depth


def essl_dgemms(
    a: Any,
    b: Any,
    c: Any,
    transa: bool = False,
    transb: bool = False,
    *,
    cutoff: Optional[CutoffCriterion] = None,
    ctx: Optional[ExecutionContext] = None,
    workspace: Optional[Workspace] = None,
) -> Any:
    """Multiply-only Strassen: ``C <- op(A) * op(B)`` (no alpha, no beta)."""
    ctx = ensure_context(ctx)
    require_matrix("essl_dgemms", "a", a)
    require_matrix("essl_dgemms", "b", b)
    require_matrix("essl_dgemms", "c", c)
    require_writable("essl_dgemms", "c", c)
    m, k = opshape(a, transa)
    kb, n = opshape(b, transb)
    if kb != k:
        raise DimensionError(
            f"essl_dgemms: op(A) is {m}x{k} but op(B) is {kb}x{n}"
        )
    if tuple(c.shape) != (m, n):
        raise DimensionError(
            f"essl_dgemms: C has shape {tuple(c.shape)}, expected {(m, n)}"
        )
    crit = cutoff if cutoff is not None else ESSL_DEFAULT_CUTOFF
    ws = workspace if workspace is not None else Workspace(dry=ctx.dry)
    opa = a.T if transa else a
    opb = b.T if transb else b

    if m == 0 or n == 0:
        return c
    if k == 0:
        axpby(0.0, c, 0.0, c, ctx=ctx)
        return c

    def multiply_even(aa: Any, bb: Any, cc: Any, al: float, be: float) -> None:
        # operands here have dims divisible by 2^depth: pure even recursion
        _rec_even(aa, bb, cc, al, 0, crit, ctx, ws)

    depth = _planned_depth(m, k, n, crit)
    run_statically_padded(
        opa, opb, c, 1.0, 0.0, depth, multiply_even, ws, ctx=ctx
    )
    ctx.stats_max("workspace_peak_bytes", ws.peak_bytes)
    return c


def _rec_even(
    a: Any,
    b: Any,
    c: Any,
    alpha: float,
    depth: int,
    crit: CutoffCriterion,
    ctx: ExecutionContext,
    ws: Workspace,
) -> None:
    """Winograd recursion on statically padded (all-even) operands."""
    m, k = a.shape
    n = b.shape[1]
    if crit.stop(m, k, n) or min(m, k, n) < 2 or m % 2 or k % 2 or n % 2:
        ctx.record(RecursionEvent("base", m, k, n, depth))
        dgemm(a, b, c, alpha, 0.0, ctx=ctx)
        return
    ctx.record(RecursionEvent("recurse", m, k, n, depth, scheme="s1b0"))

    def recurse(aa: Any, bb: Any, cc: Any, al: float, be: float) -> None:
        _rec_even(aa, bb, cc, al, depth + 1, crit, ctx, ws)

    strassen1_beta0_level(a, b, c, alpha, 0.0, ctx=ctx, ws=ws,
                          recurse=recurse)


def essl_dgemms_general(
    a: Any,
    b: Any,
    c: Any,
    alpha: float = 1.0,
    beta: float = 0.0,
    transa: bool = False,
    transb: bool = False,
    *,
    cutoff: Optional[CutoffCriterion] = None,
    ctx: Optional[ExecutionContext] = None,
    workspace: Optional[Workspace] = None,
) -> Any:
    """The paper's ESSL timing wrapper: DGEMMS plus a caller update loop.

    ``C <- alpha * (op(A) op(B)) + beta * C`` computed as the multiply-only
    call into an m-by-n buffer followed by an explicit scale-and-update —
    the extra work (and the extra m*n workspace) that makes ESSL's general
    case relatively slower, as Figure 3's discussion notes.
    """
    ctx = ensure_context(ctx)
    ws = workspace if workspace is not None else Workspace(dry=ctx.dry)
    if alpha == 1.0 and beta == 0.0:
        return essl_dgemms(
            a, b, c, transa, transb, cutoff=cutoff, ctx=ctx, workspace=ws
        )
    m, k = opshape(a, transa)
    _, n = opshape(b, transb)
    with ws.frame():
        t = ws.alloc(m, n, getattr(c, "dtype", None) or "float64")
        essl_dgemms(a, b, t, transa, transb, cutoff=cutoff, ctx=ctx, workspace=ws)
        axpby(alpha, t, beta, c, ctx=ctx)
    ctx.stats_max("workspace_peak_bytes", ws.peak_bytes)
    return c
