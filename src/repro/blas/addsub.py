"""Matrix addition/subtraction kernels — the paper's ``G(m, n)`` cost unit.

Strassen's construction trades one block multiply for a fixed number of
block additions, so these kernels are the second currency of every cost
analysis in the paper (eq. 2).  Each charges ``G(m,n) = mn`` additions and
the machine model's ``t_add(m, n)``.

The four entry points cover every combination the two STRASSEN schedules
need (Section 3.2 / Figure 1):

- ``madd(x, y, out, alpha)`` — ``out <- alpha*(x + y)``
- ``msub(x, y, out, alpha)`` — ``out <- alpha*(x - y)``
- ``accum(x, out)``          — ``out <- out + x``
- ``axpby(alpha, x, beta, y)`` — ``y <- alpha*x + beta*y``

plus the data-movement kernels the padding comparators need
(:func:`mcopy`, :func:`mzero`), charged at copy bandwidth.

All outputs are mutated in place; full aliasing of an input with the
output is permitted wherever numpy ufunc semantics make it safe (the
schedules rely on ``msub(x, y, out=y)`` style in-place chains), but
``accum(x, out=x)`` is rejected as it is always a bug.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from repro.context import ExecutionContext, ensure_context
from repro.blas.dtypes import WIDE, require_integral_scalar
from repro.blas.validate import require_matrix, require_shape, require_writable
from repro.errors import ArgumentError

__all__ = [
    "madd",
    "msub",
    "accum",
    "axpby",
    "mcopy",
    "mzero",
    "BlockKernels",
    "NUMERIC_KERNELS",
    "COMPENSATED_KERNELS",
    "EXACT_KERNELS",
    "KERNEL_TABLES",
    "kernels_for",
]


def _charge_add(ctx: ExecutionContext, name: str, m: int, n: int) -> None:
    ctx.charge(
        name, adds=float(m) * n, seconds=ctx.model_time("t_add", m, n)
    )


def madd(
    x: Any,
    y: Any,
    out: Any,
    alpha: float = 1.0,
    *,
    ctx: Optional[ExecutionContext] = None,
) -> Any:
    """``out <- alpha*(x + y)``; returns ``out``."""
    ctx = ensure_context(ctx)
    m, n = require_matrix("madd", "x", x)
    require_shape("madd", "y", y, (m, n))
    require_shape("madd", "out", out, (m, n))
    require_writable("madd", "out", out)
    _charge_add(ctx, "madd", m, n)
    if not ctx.dry and m and n:
        np.add(x, y, out=out)
        if alpha != 1.0:
            out *= alpha
    return out


def msub(
    x: Any,
    y: Any,
    out: Any,
    alpha: float = 1.0,
    *,
    ctx: Optional[ExecutionContext] = None,
) -> Any:
    """``out <- alpha*(x - y)``; returns ``out``."""
    ctx = ensure_context(ctx)
    m, n = require_matrix("msub", "x", x)
    require_shape("msub", "y", y, (m, n))
    require_shape("msub", "out", out, (m, n))
    require_writable("msub", "out", out)
    _charge_add(ctx, "msub", m, n)
    if not ctx.dry and m and n:
        np.subtract(x, y, out=out)
        if alpha != 1.0:
            out *= alpha
    return out


def accum(
    x: Any,
    out: Any,
    *,
    ctx: Optional[ExecutionContext] = None,
) -> Any:
    """``out <- out + x``; returns ``out``."""
    ctx = ensure_context(ctx)
    m, n = require_matrix("accum", "x", x)
    require_shape("accum", "out", out, (m, n))
    require_writable("accum", "out", out)
    if out is x:
        raise ArgumentError("accum", "out", "must not alias x")
    _charge_add(ctx, "accum", m, n)
    if not ctx.dry and m and n:
        out += x
    return out


def axpby(
    alpha: float,
    x: Any,
    beta: float,
    y: Any,
    *,
    ctx: Optional[ExecutionContext] = None,
) -> Any:
    """``y <- alpha*x + beta*y`` (matrix AXPBY); returns ``y``.

    With ``beta=0`` this is a scaled copy (``y <- alpha*x``), used by
    STRASSEN2's scaling steps; with ``alpha=1, beta=beta`` it realizes the
    ``C <- beta*C + P`` updates.

    BLAS conformance: ``beta == 0`` means ``y``'s prior content is
    *ignored*, not multiplied — the output is overwritten, so NaN/Inf
    garbage already in ``y`` never propagates.  In particular
    ``alpha == 0, beta == 0`` writes exact zeros rather than computing
    ``0*y`` (whose ``0*NaN = NaN`` would leak the garbage through the
    degenerate ``C <- beta*C`` paths of the drivers).
    """
    ctx = ensure_context(ctx)
    m, n = require_matrix("axpby", "x", x)
    require_shape("axpby", "y", y, (m, n))
    require_writable("axpby", "y", y)
    _charge_add(ctx, "axpby", m, n)
    if ctx.dry or not (m and n):
        return y
    if beta == 0.0:
        if alpha == 0.0:
            y[...] = 0.0
        elif alpha == 1.0:
            y[...] = x
        else:
            np.multiply(x, alpha, out=y)
    else:
        if beta != 1.0:
            y *= beta
        if alpha == 1.0:
            y += x
        elif alpha != 0.0:
            y += alpha * x
    return y


class BlockKernels(NamedTuple):
    """The four block-addition entry points as an injectable namespace.

    The Strassen schedules (:mod:`repro.core.strassen1`,
    :mod:`repro.core.strassen2`, :mod:`repro.core.textbook`, and the
    parallel level's fan-out and combine in :mod:`repro.core.uvw`) take
    a ``kernels`` argument of this shape.  The default, :data:`NUMERIC_KERNELS`, performs the numerics;
    the plan compiler (:mod:`repro.plan.compiler`) substitutes a
    *recording* set that emits typed plan ops instead, so one schedule
    definition serves both live execution and plan compilation without
    the two ever drifting apart.
    """

    madd: Callable[..., Any]
    msub: Callable[..., Any]
    accum: Callable[..., Any]
    axpby: Callable[..., Any]


#: the real (numeric) kernel set — the default everywhere
NUMERIC_KERNELS = BlockKernels(madd, msub, accum, axpby)


# -- compensated kernel set -------------------------------------------- #
# Charges and kernel-call names are IDENTICAL to the fast set — the cost
# model and the exactness cross-checks see the same tallies at every
# accuracy; only the rounding error changes.  A single IEEE add or
# multiply is already correctly rounded, so ``accum`` and the one-op
# branches of the other kernels are reused verbatim: the compensated win
# is in multi-op expressions on the narrow dtypes, which evaluate in the
# WIDE counterpart and round once at the output write.  Double-precision
# dtypes have no wider hardware type; their compensation lives in the
# base GEMM's Kahan tile accumulation (:func:`repro.blas.level3.dgemm`
# with ``accuracy="compensated"``).


def _wide_of(out: Any) -> Optional[str]:
    dt = getattr(out, "dtype", None)
    return None if dt is None else WIDE.get(np.dtype(dt).name)


def madd_compensated(
    x: Any,
    y: Any,
    out: Any,
    alpha: float = 1.0,
    *,
    ctx: Optional[ExecutionContext] = None,
) -> Any:
    """``out <- alpha*(x + y)`` with one rounding on narrow dtypes."""
    ctx = ensure_context(ctx)
    m, n = require_matrix("madd", "x", x)
    require_shape("madd", "y", y, (m, n))
    require_shape("madd", "out", out, (m, n))
    require_writable("madd", "out", out)
    _charge_add(ctx, "madd", m, n)
    if not ctx.dry and m and n:
        wide = _wide_of(out)
        if wide is None or alpha == 1.0:
            np.add(x, y, out=out)
            if alpha != 1.0:
                out *= alpha
        else:
            out[...] = (np.add(x, y, dtype=wide) * alpha).astype(out.dtype)
    return out


def msub_compensated(
    x: Any,
    y: Any,
    out: Any,
    alpha: float = 1.0,
    *,
    ctx: Optional[ExecutionContext] = None,
) -> Any:
    """``out <- alpha*(x - y)`` with one rounding on narrow dtypes."""
    ctx = ensure_context(ctx)
    m, n = require_matrix("msub", "x", x)
    require_shape("msub", "y", y, (m, n))
    require_shape("msub", "out", out, (m, n))
    require_writable("msub", "out", out)
    _charge_add(ctx, "msub", m, n)
    if not ctx.dry and m and n:
        wide = _wide_of(out)
        if wide is None or alpha == 1.0:
            np.subtract(x, y, out=out)
            if alpha != 1.0:
                out *= alpha
        else:
            out[...] = (
                np.subtract(x, y, dtype=wide) * alpha
            ).astype(out.dtype)
    return out


def axpby_compensated(
    alpha: float,
    x: Any,
    beta: float,
    y: Any,
    *,
    ctx: Optional[ExecutionContext] = None,
) -> Any:
    """``y <- alpha*x + beta*y`` evaluated wide on narrow dtypes.

    The fast kernel's generic branch takes three roundings in ``y``'s
    precision; on float32/complex64 this one takes its roundings in the
    WIDE dtype and a single final rounding back down — which is what
    rescues the classic cancellation case ``alpha*x ≈ -beta*y`` (see
    ``tests/test_precision.py``).  Degenerate scalar classes and the
    double-precision dtypes match the fast kernel bit for bit.
    """
    ctx = ensure_context(ctx)
    m, n = require_matrix("axpby", "x", x)
    require_shape("axpby", "y", y, (m, n))
    require_writable("axpby", "y", y)
    _charge_add(ctx, "axpby", m, n)
    if ctx.dry or not (m and n):
        return y
    wide = _wide_of(y)
    if beta == 0.0:
        if alpha == 0.0:
            y[...] = 0.0
        elif alpha == 1.0:
            y[...] = x
        elif wide is None:
            np.multiply(x, alpha, out=y)
        else:
            y[...] = np.multiply(x, alpha, dtype=wide).astype(y.dtype)
    elif wide is None or alpha == 0.0:
        if beta != 1.0:
            y *= beta
        if alpha == 1.0:
            y += x
        elif alpha != 0.0:
            y += alpha * x
    else:
        y[...] = (
            np.multiply(y, beta, dtype=wide)
            + np.multiply(x, alpha, dtype=wide)
        ).astype(y.dtype)
    return y


#: compensated kernel set (``accuracy="compensated"``)
COMPENSATED_KERNELS = BlockKernels(
    madd_compensated, msub_compensated, accum, axpby_compensated
)


# -- exact kernel set -------------------------------------------------- #
# Integer/object arithmetic, no float intermediates: scalars must be
# integral (coerced to Python int, so ``int64 *= beta`` never trips
# numpy's unsafe-cast refusal and object arrays stay arbitrary
# precision), and outputs must carry an exact dtype — a float output
# would mean some upstream step already rounded.


def _require_exact_operand(where: str, name: str, out: Any) -> None:
    dt = getattr(out, "dtype", None)
    if dt is not None and np.dtype(dt).kind not in "iuO":
        raise ArgumentError(
            where, name,
            f"exact kernels require integer/object operands, "
            f"got dtype {np.dtype(dt).name}",
        )


def madd_exact(
    x: Any,
    y: Any,
    out: Any,
    alpha: float = 1.0,
    *,
    ctx: Optional[ExecutionContext] = None,
) -> Any:
    """``out <- alpha*(x + y)`` in exact integer/object arithmetic."""
    ctx = ensure_context(ctx)
    m, n = require_matrix("madd", "x", x)
    require_shape("madd", "y", y, (m, n))
    require_shape("madd", "out", out, (m, n))
    require_writable("madd", "out", out)
    ai = require_integral_scalar("madd", "alpha", alpha)
    _charge_add(ctx, "madd", m, n)
    if not ctx.dry and m and n:
        _require_exact_operand("madd", "out", out)
        np.add(x, y, out=out)
        if ai != 1:
            out *= ai
    return out


def msub_exact(
    x: Any,
    y: Any,
    out: Any,
    alpha: float = 1.0,
    *,
    ctx: Optional[ExecutionContext] = None,
) -> Any:
    """``out <- alpha*(x - y)`` in exact integer/object arithmetic."""
    ctx = ensure_context(ctx)
    m, n = require_matrix("msub", "x", x)
    require_shape("msub", "y", y, (m, n))
    require_shape("msub", "out", out, (m, n))
    require_writable("msub", "out", out)
    ai = require_integral_scalar("msub", "alpha", alpha)
    _charge_add(ctx, "msub", m, n)
    if not ctx.dry and m and n:
        _require_exact_operand("msub", "out", out)
        np.subtract(x, y, out=out)
        if ai != 1:
            out *= ai
    return out


def axpby_exact(
    alpha: float,
    x: Any,
    beta: float,
    y: Any,
    *,
    ctx: Optional[ExecutionContext] = None,
) -> Any:
    """``y <- alpha*x + beta*y`` in exact integer/object arithmetic."""
    ctx = ensure_context(ctx)
    m, n = require_matrix("axpby", "x", x)
    require_shape("axpby", "y", y, (m, n))
    require_writable("axpby", "y", y)
    ai = require_integral_scalar("axpby", "alpha", alpha)
    bi = require_integral_scalar("axpby", "beta", beta)
    _charge_add(ctx, "axpby", m, n)
    if ctx.dry or not (m and n):
        return y
    _require_exact_operand("axpby", "y", y)
    if bi == 0:
        if ai == 0:
            y[...] = 0
        elif ai == 1:
            y[...] = x
        else:
            np.multiply(x, ai, out=y)
    else:
        if bi != 1:
            y *= bi
        if ai == 1:
            y += x
        elif ai != 0:
            y += ai * x
    return y


#: exact kernel set (``accuracy="exact"``, int64/object dtypes)
EXACT_KERNELS = BlockKernels(madd_exact, msub_exact, accum, axpby_exact)


#: accuracy mode -> the BlockKernels set realizing it
KERNEL_TABLES = {
    "fast": NUMERIC_KERNELS,
    "compensated": COMPENSATED_KERNELS,
    "exact": EXACT_KERNELS,
}


def kernels_for(accuracy: str) -> BlockKernels:
    """The numeric kernel set for an accuracy mode."""
    try:
        return KERNEL_TABLES[accuracy]
    except KeyError:
        raise ArgumentError(
            "kernels_for", "accuracy",
            f"must be one of {tuple(KERNEL_TABLES)}, got {accuracy!r}",
        ) from None


def mcopy(
    x: Any,
    out: Any,
    *,
    ctx: Optional[ExecutionContext] = None,
) -> Any:
    """``out <- x`` (matrix copy, charged at copy bandwidth)."""
    ctx = ensure_context(ctx)
    m, n = require_matrix("mcopy", "x", x)
    require_shape("mcopy", "out", out, (m, n))
    require_writable("mcopy", "out", out)
    ctx.charge("mcopy", seconds=ctx.model_time("t_copy", m, n))
    if not ctx.dry and m and n:
        out[...] = x
    return out


def mzero(
    out: Any,
    *,
    ctx: Optional[ExecutionContext] = None,
) -> Any:
    """``out <- 0`` (charged at copy bandwidth)."""
    ctx = ensure_context(ctx)
    m, n = require_matrix("mzero", "out", out)
    require_writable("mzero", "out", out)
    ctx.charge("mzero", seconds=ctx.model_time("t_copy", m, n))
    if not ctx.dry and m and n:
        out[...] = 0.0
    return out
