"""The 3M method: complex GEMM from three real Strassen products.

A complex product naively costs four real products (Cr = ArBr - AiBi,
Ci = ArBi + AiBr).  The "3M" identity (the matrix Karatsuba; used by the
GEMMW package for its complex routines and analyzed by Higham) needs
three:

    T1 = Ar * Br
    T2 = Ai * Bi
    T3 = (Ar + Ai) * (Br + Bi)
    Cr = T1 - T2
    Ci = T3 - T1 - T2

Each of the three real products goes through DGEFMM here, compounding
the 25 % saving of 3M with Strassen's per-product saving.  The price,
as in all Strassen-family tricks, is weaker *componentwise* accuracy:
the imaginary part's error bound involves ||A|| ||B|| rather than
|A| |B| (Higham, Sec. 23.2.4) — norm-wise stability is retained, which
the tests verify empirically.

:func:`zgefmm_3m` is an alternative to :func:`repro.core.dgefmm.zgefmm`
(which runs the schedules natively on complex128, and whose substrate
leaf computes each complex tile as four real products on op(A)'s
interleaved real view; see :func:`repro.blas.level3._tile`).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.blas.validate import opshape, require_matrix, require_writable
from repro.context import ExecutionContext, ensure_context
from repro.core.cutoff import CutoffCriterion
from repro.core.dgefmm import dgefmm
from repro.core.workspace import Workspace
from repro.errors import DimensionError

__all__ = ["zgefmm_3m"]


def zgefmm_3m(
    a: Any,
    b: Any,
    c: Any,
    alpha: complex = 1.0,
    beta: complex = 0.0,
    transa: bool = False,
    transb: bool = False,
    *,
    cutoff: Optional[CutoffCriterion] = None,
    ctx: Optional[ExecutionContext] = None,
    workspace: Optional[Workspace] = None,
) -> Any:
    """Complex GEMM via three real DGEFMM products (the 3M method).

    ``C <- alpha*op(A)*op(B) + beta*C`` for complex128 operands.  The
    alpha/beta scaling is applied on the assembled complex product (one
    O(mn) pass), keeping the three real multiplies pure.
    """
    ctx = ensure_context(ctx)
    require_matrix("zgefmm_3m", "a", a)
    require_matrix("zgefmm_3m", "b", b)
    require_matrix("zgefmm_3m", "c", c)
    require_writable("zgefmm_3m", "c", c)
    m, k = opshape(a, transa)
    kb, n = opshape(b, transb)
    if kb != k:
        raise DimensionError(
            f"zgefmm_3m: op(A) is {m}x{k} but op(B) is {kb}x{n}"
        )
    if tuple(c.shape) != (m, n):
        raise DimensionError(
            f"zgefmm_3m: C has shape {tuple(c.shape)}, expected {(m, n)}"
        )
    ws = workspace if workspace is not None else Workspace(dry=ctx.dry)

    opa = a.T if transa else a
    opb = b.T if transb else b

    if ctx.dry:
        # three real products (charged through dgefmm's dry path)
        for _ in range(3):
            dgefmm(opa, opb, c, 1.0, 0.0, cutoff=cutoff, ctx=ctx,
                   workspace=ws)
        return c

    # the real halves inherit C's precision: complex64 products run the
    # three real multiplies in float32, complex128 in float64
    rdt = np.empty(0, dtype=c.dtype).real.dtype
    ar = np.asfortranarray(np.ascontiguousarray(opa.real).astype(rdt))
    ai = np.asfortranarray(np.ascontiguousarray(opa.imag).astype(rdt))
    br = np.asfortranarray(np.ascontiguousarray(opb.real).astype(rdt))
    bi = np.asfortranarray(np.ascontiguousarray(opb.imag).astype(rdt))

    t1 = np.zeros((m, n), dtype=rdt, order="F")
    t2 = np.zeros((m, n), dtype=rdt, order="F")
    t3 = np.zeros((m, n), dtype=rdt, order="F")
    dgefmm(ar, br, t1, cutoff=cutoff, ctx=ctx, workspace=ws)
    dgefmm(ai, bi, t2, cutoff=cutoff, ctx=ctx, workspace=ws)
    dgefmm(
        np.asfortranarray(ar + ai), np.asfortranarray(br + bi), t3,
        cutoff=cutoff, ctx=ctx, workspace=ws,
    )
    prod = (t1 - t2) + 1j * (t3 - t1 - t2)
    if alpha != 1.0:
        prod *= alpha
    if beta == 0.0:
        c[...] = prod
    else:
        if beta != 1.0:
            c *= beta
        c += prod
    return c
