"""DGEMMW — re-implementation of Douglas et al.'s GEMMW [8].

GEMMW is the portable public-domain Winograd-variant Strassen code the
paper benchmarks against in Figures 5 and 6.  Its published design points,
all reproduced here:

- Winograd variant with the C-quadrant-reuse schedule (the paper notes
  our STRASSEN1 "is similar to the one used in the implementation ...
  DGEMMW"), so the product path shares
  :func:`repro.core.strassen1.strassen1_beta0_level`;
- **dynamic padding** for odd dimensions: each recursion level that meets
  an odd dimension pads the operands by one zero row/column, computes the
  even product into a padded buffer, and crops — no peeling, no fix-ups;
- the **simple cutoff criterion** (paper eq. 11): stop when any dimension
  is at most tau — which forgoes the beneficial extra recursion on
  long-thin problems that DGEFMM's hybrid criterion captures;
- the general ``beta != 0`` case via an m-by-n product buffer followed by
  one update pass: extra memory approximately ``mn + (mk + kn)/3``
  (Section 3.2's comparison), versus DGEFMM's ``(mk + kn + mn)/3``.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.blas.addsub import axpby, mcopy
from repro.blas.level3 import dgemm
from repro.blas.validate import opshape, require_matrix, require_writable
from repro.context import ExecutionContext, RecursionEvent, ensure_context
from repro.core.cutoff import CutoffCriterion, SimpleCutoff
from repro.core.padding import dynamic_pad_operands
from repro.core.strassen1 import strassen1_beta0_level
from repro.core.workspace import Workspace
from repro.errors import DimensionError

__all__ = ["dgemmw", "DGEMMW_DEFAULT_CUTOFF"]

#: Douglas et al. used the simple per-dimension criterion; tau is a
#: machine parameter — benches set it to the machine's square crossover.
DGEMMW_DEFAULT_CUTOFF = SimpleCutoff(tau=128)


def dgemmw(
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
    """GEMMW-style ``C <- alpha*op(A)*op(B) + beta*C`` (in place).

    See the module docstring for how this differs from
    :func:`repro.core.dgefmm.dgefmm`.
    """
    ctx = ensure_context(ctx)
    require_matrix("dgemmw", "a", a)
    require_matrix("dgemmw", "b", b)
    require_matrix("dgemmw", "c", c)
    require_writable("dgemmw", "c", c)
    m, k = opshape(a, transa)
    kb, n = opshape(b, transb)
    if kb != k:
        raise DimensionError(f"dgemmw: op(A) is {m}x{k} but op(B) is {kb}x{n}")
    if tuple(c.shape) != (m, n):
        raise DimensionError(
            f"dgemmw: C has shape {tuple(c.shape)}, expected {(m, n)}"
        )
    crit = cutoff if cutoff is not None else DGEMMW_DEFAULT_CUTOFF
    ws = workspace if workspace is not None else Workspace(dry=ctx.dry)
    opa = a.T if transa else a
    opb = b.T if transb else b

    if m == 0 or n == 0:
        return c
    if k == 0 or alpha == 0.0:
        axpby(0.0, c, beta, c, ctx=ctx)
        ctx.stats_max("workspace_peak_bytes", ws.peak_bytes)
        return c

    if beta == 0.0:
        _rec(opa, opb, c, alpha, 0, crit, ctx, ws)
    else:
        # general case: product buffer + one update pass (GEMMW's design)
        with ws.frame():
            t = ws.alloc(m, n, getattr(c, "dtype", None) or "float64")
            _rec(opa, opb, t, alpha, 0, crit, ctx, ws)
            axpby(1.0, t, beta, c, ctx=ctx)

    ctx.stats_max("workspace_peak_bytes", ws.peak_bytes)
    return c


def _rec(
    a: Any,
    b: Any,
    c: Any,
    alpha: float,
    depth: int,
    crit: CutoffCriterion,
    ctx: ExecutionContext,
    ws: Workspace,
) -> None:
    """``C <- alpha * A * B`` (overwrite) with dynamic padding."""
    m, k = a.shape
    n = b.shape[1]
    if m == 0 or n == 0:
        return
    if k == 0:
        axpby(0.0, c, 0.0, c, ctx=ctx)
        return
    if crit.stop(m, k, n) or min(m, k, n) < 2:
        ctx.record(RecursionEvent("base", m, k, n, depth))
        dgemm(a, b, c, alpha, 0.0, ctx=ctx)
        return

    def recurse(aa: Any, bb: Any, cc: Any, al: float, be: float) -> None:
        # strassen1_beta0_level only issues beta = 0 sub-products
        _rec(aa, bb, cc, al, depth + 1, crit, ctx, ws)

    if m % 2 or k % 2 or n % 2:
        ctx.record(RecursionEvent("pad", m, k, n, depth))
        with ws.frame():
            pa, pb, (pm, pk, pn) = dynamic_pad_operands(a, b, ws, ctx=ctx)
            pc = ws.alloc(pm, pn, getattr(c, "dtype", None) or "float64")
            ctx.record(
                RecursionEvent("recurse", pm, pk, pn, depth, scheme="s1b0")
            )
            strassen1_beta0_level(
                pa, pb, pc, alpha, 0.0, ctx=ctx, ws=ws, recurse=recurse
            )
            mcopy(pc[:m, :n], c, ctx=ctx)
    else:
        ctx.record(RecursionEvent("recurse", m, k, n, depth, scheme="s1b0"))
        strassen1_beta0_level(a, b, c, alpha, 0.0, ctx=ctx, ws=ws,
                              recurse=recurse)
