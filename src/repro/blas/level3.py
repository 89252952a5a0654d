"""Level 3 BLAS: DGEMM, the standard O(mkn) matrix multiply.

This is the substrate's "vendor DGEMM": the base-case multiplier every
Strassen variant in this package calls when its cutoff criterion says to
stop recursing.  It computes

    ``C <- alpha * op(A) * op(B) + beta * C``

with the conventional (non-Strassen) algorithm, cache-blocked into square
tiles and contracted with ``np.einsum`` so the inner loops run in compiled
code without delegating to a vendor BLAS (numpy's ``einsum`` performs the
literal sum-of-products loop nest).  The tile size trades Python-loop
overhead against cache residency; the default suits L2 caches of a few
hundred KiB (three 160x160 float64 tiles ~= 600 KiB).

A complex tile runs as four real products on the interleaved real view
of op(A) (see :func:`_tile`): numpy's complex ``einsum`` loop reads about
half the real loop's flop rate for complex128 and a quarter for
complex64.  Each part of ``C`` is then a sum or difference of two real
dot products, inside the same ``γ_k·|A|·|B|`` bound as the complex
loop; the charge stays ``mkn`` complex multiplies.

Operation counts follow the paper's Section 2 model:
``M(m,k,n) = 2mkn - mn`` (``mkn`` multiplies, ``mkn - mn`` adds).
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.context import ExecutionContext, ensure_context
from repro.blas.dtypes import WIDE, require_integral_scalar
from repro.blas.validate import opshape, require_matrix, require_writable
from repro.errors import ArgumentError, DimensionError

__all__ = ["dgemm", "gemm_flops", "DEFAULT_TILE", "BACKENDS"]

#: default cache-blocking tile edge for the standard-algorithm kernel
DEFAULT_TILE = 160

#: base-case kernel backends: "substrate" is this module's own blocked
#: standard algorithm (the default everywhere — the reproduction's
#: "vendor DGEMM" stand-in); "vendor" delegates the inner product to
#: numpy's BLAS matmul, for honest *modern-host* experiments asking
#: whether Strassen still beats a tuned vendor kernel today
BACKENDS = ("substrate", "vendor")


def gemm_flops(m: int, k: int, n: int) -> tuple[float, float]:
    """(multiplies, additions) of the standard algorithm, paper eq. M(m,k,n)."""
    muls = float(m) * k * n
    adds = max(0.0, float(m) * k * n - float(m) * n)
    return muls, adds


def _tile(
    a: np.ndarray, b: np.ndarray, pdt: np.dtype,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """One tile's ``a @ b`` by the standard algorithm, written into
    ``out`` (a fresh array when None) and returned.

    A real, integer or object product is one ``einsum``.  A complex
    product (``pdt`` complex128 or complex64) runs as four real products,
    so no complex operand reaches numpy's scalar complex loop: both
    operands are promoted to ``pdt``, ``a`` is copied to Fortran order
    unless its rows are unit-stride, and its interleaved real view — a
    2m-by-k real array whose rows alternate real and imaginary parts —
    is contracted with ``b.real`` into ``X`` and with ``b.imag`` into
    ``Y``.  Then ``Re C = X[0::2] - Y[1::2]`` and
    ``Im C = X[1::2] + Y[0::2]``.
    """
    if pdt.kind != "c":
        return np.einsum("ik,kj->ij", a, b, out=out)
    if a.dtype != pdt:
        a = a.astype(pdt, order="F")
    if b.dtype != pdt:
        b = b.astype(pdt)
    if a.strides[0] != a.itemsize:
        a = np.asfortranarray(a)
    m = a.shape[0]
    n = b.shape[1]
    br, bi = b.real, b.imag
    a2 = a.T.view(br.dtype).T
    x = np.empty((2 * m, n), dtype=br.dtype, order="F")
    y = np.empty((2 * m, n), dtype=br.dtype, order="F")
    np.einsum("ik,kj->ij", a2, br, out=x)
    np.einsum("ik,kj->ij", a2, bi, out=y)
    if out is None:
        out = np.empty((m, n), dtype=pdt, order="F")
    np.subtract(x[0::2], y[1::2], out=out.real)
    np.add(x[1::2], y[0::2], out=out.imag)
    return out


def _blocked(a: np.ndarray, b: np.ndarray, nb: int,
             kahan: bool) -> np.ndarray:
    """``a @ b`` blocked into nb-by-nb tiles of :func:`_tile`, the
    k-tiles of each output block summed plainly or by Kahan's two-sum.

    ``a`` is m-by-k, ``b`` is k-by-n, both arbitrary-strided views.  The
    result is a fresh Fortran-ordered array (column-major, matching the
    package's BLAS-style storage convention).
    """
    m, k = a.shape
    _, n = b.shape
    pdt = np.result_type(a, b)
    out = np.zeros((m, n), dtype=pdt, order="F")
    if m == 0 or n == 0 or k == 0:
        return out
    if m <= nb and n <= nb and k <= nb:
        _tile(a, b, pdt, out)
        return out
    for j0 in range(0, n, nb):
        j1 = min(j0 + nb, n)
        for i0 in range(0, m, nb):
            i1 = min(i0 + nb, m)
            acc = out[i0:i1, j0:j1]
            comp = None
            for l0 in range(0, k, nb):
                l1 = min(l0 + nb, k)
                tile = _tile(a[i0:i1, l0:l1], b[l0:l1, j0:j1], pdt)
                if l0 == 0:
                    acc[...] = tile
                elif not kahan:
                    acc += tile
                else:
                    if comp is None:
                        comp = np.zeros_like(tile)
                    # Kahan step: y = tile - comp; t = acc + y;
                    # comp = (t - acc) - y; acc = t
                    y = tile - comp
                    t = acc + y
                    comp = (t - acc) - y
                    acc[...] = t
    return out


def _standard_product(a: np.ndarray, b: np.ndarray, nb: int) -> np.ndarray:
    """``a @ b`` by the standard algorithm, blocked into nb-by-nb tiles
    (a fresh Fortran-ordered array; see :func:`_blocked`)."""
    return _blocked(a, b, nb, False)


def _standard_product_kahan(
    a: np.ndarray, b: np.ndarray, nb: int
) -> np.ndarray:
    """Blocked standard product with Kahan (two-sum) tile accumulation.

    The compensated path for the double-precision dtypes: each output
    block carries a running compensation array across the k-tile loop,
    so the accumulated rounding error of ``ceil(k/nb)`` tile adds drops
    from O(k/nb)·u to O(1)·u.  Within a tile, :func:`_tile` performs the
    contraction the same way the fast path does — the compensation is
    split-free: products are rounded once, only the cross-tile summation
    is error-corrected.
    """
    return _blocked(a, b, nb, True)


def dgemm(
    a: Any,
    b: Any,
    c: Any,
    alpha: float = 1.0,
    beta: float = 0.0,
    transa: bool = False,
    transb: bool = False,
    *,
    ctx: Optional[ExecutionContext] = None,
    nb: int = DEFAULT_TILE,
    backend: str = "substrate",
    accuracy: str = "fast",
) -> Any:
    """Standard-algorithm GEMM: ``C <- alpha*op(A)*op(B) + beta*C`` in place.

    Parameters mirror the Level 3 BLAS DGEMM: ``op(A)`` is m-by-k,
    ``op(B)`` is k-by-n, ``C`` is m-by-n and is mutated (and returned).
    ``nb`` is the cache-blocking tile edge of the inner kernel;
    ``backend`` selects the inner product implementation (see
    :data:`BACKENDS`).

    ``accuracy`` selects the rounding discipline
    (:data:`repro.blas.dtypes.ACCURACIES`) at identical flop charges and
    kernel-call tallies:

    - ``"fast"``: native-precision evaluation (the default);
    - ``"compensated"``: float32/complex64 operands evaluate in their
      WIDE dtype and round once at the ``C`` write; double-precision
      operands use Kahan tile accumulation on the substrate backend
      (the vendor matmul's accumulation cannot be instrumented — it
      stays native there);
    - ``"exact"``: integer/object arithmetic, integral scalars enforced
      and **no** float intermediates — the product dtype is checked to
      still be exact before ``C`` is touched.

    This routine never recurses and never applies Strassen's construction;
    it is the baseline DGEMM of all experiments and the base case of every
    Strassen variant in :mod:`repro.core` and :mod:`repro.comparators`.

    Conformance (the reference DGEMM contract):

    - ``m == 0`` or ``n == 0``: no-op (C is empty);
    - ``k == 0`` or ``alpha == 0``: no product is formed — ``C`` is
      scaled by ``beta``, and ``beta == 0`` *overwrites* with zeros (it
      never computes ``0*C``, so NaN/Inf garbage in ``C`` is discarded);
    - ``beta == 0`` in the general path assigns the product into ``C``
      without reading ``C``'s prior content;
    - operands may be non-contiguous or negative-stride views, and ``C``
      may overlap them: the substrate materializes the product before
      ``C`` is written, and the vendor kernel's ``np.matmul(..., out=C)``
      (taken when ``alpha == 1``, ``beta == 0`` and the product dtype is
      ``C``'s) is buffered by numpy whenever ``out`` overlaps an input,
      so either way the result equals the non-aliased call's (the
      recursive drivers guard overlap themselves — see
      :func:`repro.blas.validate.copy_on_overlap`).

    The vendor kernel forms every other product in a Fortran-ordered
    temporary, also with ``np.matmul``, and applies ``alpha`` and
    ``beta`` from there exactly as the substrate does.
    """
    ctx = ensure_context(ctx)
    if backend not in BACKENDS:
        raise ArgumentError(
            "dgemm", "backend", f"must be one of {BACKENDS}, got {backend!r}"
        )
    if accuracy not in ("fast", "compensated", "exact"):
        raise ArgumentError(
            "dgemm", "accuracy",
            f"must be 'fast', 'compensated' or 'exact', got {accuracy!r}",
        )
    require_matrix("dgemm", "a", a)
    require_matrix("dgemm", "b", b)
    require_matrix("dgemm", "c", c)
    require_writable("dgemm", "c", c)
    m, k = opshape(a, transa)
    kb, n = opshape(b, transb)
    if kb != k:
        raise DimensionError(
            f"dgemm: op(A) is {m}x{k} but op(B) is {kb}x{n}"
        )
    if tuple(c.shape) != (m, n):
        raise DimensionError(
            f"dgemm: C has shape {tuple(c.shape)}, expected {(m, n)}"
        )
    if nb <= 0:
        raise DimensionError(f"dgemm: tile size nb={nb} must be positive")
    muls, adds = gemm_flops(m, k, n)
    ctx.charge(
        "dgemm", muls=muls, adds=adds, seconds=ctx.model_time("t_gemm", m, k, n)
    )
    if accuracy == "exact":
        alpha = require_integral_scalar("dgemm", "alpha", alpha)
        beta = require_integral_scalar("dgemm", "beta", beta)
    if ctx.dry:
        return c
    if m == 0 or n == 0:
        return c
    if k == 0 or alpha == 0.0:
        # C <- beta*C only.
        if beta == 0.0:
            c[...] = 0
        elif beta != 1.0:
            c *= beta
        return c
    opa = a.T if transa else a
    opb = b.T if transb else b
    wide = (
        WIDE.get(np.dtype(c.dtype).name)
        if accuracy == "compensated" else None
    )
    if wide is not None:
        # Narrow compensated path: evaluate the whole update in the
        # wide dtype, round once at the C write.
        opa = opa.astype(wide)
        opb = opb.astype(wide)
    pdt = np.result_type(opa, opb)
    if accuracy == "exact" and pdt.kind not in "iuO":
        raise ArgumentError(
            "dgemm", "accuracy",
            f"exact accuracy requires integer/object operands, "
            f"product dtype is {pdt}",
        )
    if backend == "vendor":
        if alpha == 1.0 and beta == 0.0 and pdt == c.dtype:
            # C <- op(A) op(B): the BLAS writes C itself (a wide
            # promotion never gets here: its product dtype is not C's)
            np.matmul(opa, opb, out=c)
            return c
        prod = np.empty((m, n), dtype=pdt, order="F")
        np.matmul(opa, opb, out=prod)
    elif accuracy == "compensated" and wide is None:
        prod = _standard_product_kahan(opa, opb, nb)
    else:
        prod = _standard_product(opa, opb, nb)
    if alpha != 1.0:
        prod *= alpha
    if wide is not None:
        if beta == 0.0:
            c[...] = prod.astype(c.dtype)
        else:
            c[...] = (
                prod + np.multiply(c, beta, dtype=wide)
            ).astype(c.dtype)
        return c
    if beta == 0.0:
        c[...] = prod
    else:
        if beta != 1.0:
            c *= beta
        c += prod
    return c
