"""Level 2 BLAS: matrix-vector operations.

These two routines are exactly the ones the paper's dynamic-peeling fix-up
uses (Section 3.3): the stripped odd row/column contributions are applied
with one rank-one update (DGER) and two matrix-vector products (DGEMV).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.context import ExecutionContext, ensure_context
from repro.blas.validate import (
    require_matrix,
    require_vector,
    require_writable,
)
from repro.errors import DimensionError

__all__ = ["dgemv", "dger"]


def dgemv(
    a: Any,
    x: Any,
    y: Any,
    alpha: float = 1.0,
    beta: float = 0.0,
    trans: bool = False,
    *,
    ctx: Optional[ExecutionContext] = None,
) -> Any:
    """``y <- alpha*op(A)*x + beta*y`` (in place); returns ``y``.

    ``op(A)`` is ``A`` or ``A.T`` according to ``trans``.  ``A`` is m-by-n;
    ``x`` has length n (m if ``trans``), ``y`` length m (n if ``trans``).
    """
    ctx = ensure_context(ctx)
    m, n = require_matrix("dgemv", "a", a)
    require_vector("dgemv", "x", x)
    require_vector("dgemv", "y", y)
    require_writable("dgemv", "y", y)
    rows, cols = (n, m) if trans else (m, n)
    if x.shape[0] != cols:
        raise DimensionError(
            f"dgemv: x has length {x.shape[0]}, expected {cols}"
        )
    if y.shape[0] != rows:
        raise DimensionError(
            f"dgemv: y has length {y.shape[0]}, expected {rows}"
        )
    # Operation count: M(rows, cols, 1) = 2*rows*cols - rows.
    ctx.charge(
        "dgemv",
        muls=rows * cols,
        adds=max(0, rows * cols - rows),
        seconds=ctx.model_time("t_gemv", rows, cols),
    )
    if ctx.dry:
        return y
    if rows == 0:
        return y
    if beta == 0.0:
        y[...] = 0
    elif beta != 1.0:
        y *= beta
    if cols == 0 or alpha == 0.0:
        return y
    opa = a.T if trans else a
    # Standard algorithm via einsum (compiled loops, no vendor GEMV).
    prod = np.einsum("ij,j->i", opa, x)
    if alpha != 1.0:
        prod *= alpha
    y += prod
    return y


def dger(
    x: Any,
    y: Any,
    a: Any,
    alpha: float = 1.0,
    *,
    ctx: Optional[ExecutionContext] = None,
) -> Any:
    """Rank-one update ``A <- A + alpha * x * y^T`` (in place); returns ``A``.

    ``x`` has length m, ``y`` length n, ``A`` is m-by-n.
    """
    ctx = ensure_context(ctx)
    m, n = require_matrix("dger", "a", a)
    require_vector("dger", "x", x)
    require_vector("dger", "y", y)
    require_writable("dger", "a", a)
    if x.shape[0] != m:
        raise DimensionError(f"dger: x has length {x.shape[0]}, expected {m}")
    if y.shape[0] != n:
        raise DimensionError(f"dger: y has length {y.shape[0]}, expected {n}")
    ctx.charge(
        "dger",
        muls=m * n,
        adds=m * n,
        seconds=ctx.model_time("t_ger", m, n),
    )
    if ctx.dry or m == 0 or n == 0 or alpha == 0.0:
        return a
    # the outer product is built in A's own memory order, so the add
    # below streams both operands the same way
    outer = np.empty_like(a, dtype=np.result_type(x, y))
    np.multiply(x[:, None], y, out=outer)
    if alpha != 1.0:
        outer *= alpha
    a += outer
    return a
