"""Argument validation shared by the BLAS kernels (xerbla-style).

Checks are written to be cheap (tuple comparisons) because they sit on the
hot path of the Strassen recursion; failure messages name the routine and
argument the way the reference BLAS ``xerbla`` does, which makes shape bugs
in schedule code immediately legible.

Besides the shape checks, this module hosts the *operand-overlap guard*:
the reference BLAS leaves GEMM's behaviour undefined when the output
matrix shares storage with an input, but a Strassen schedule writes into
C's quadrants mid-computation while A/B are still being read, so an
overlapping call would be *silently* wrong rather than merely
unspecified.  :func:`overlaps` detects (conservatively, via
:func:`numpy.may_share_memory` — bounds overlap, never false negatives)
whether two operands may alias, and :func:`copy_on_overlap` implements
the documented fallback every driver uses: any input that may share
memory with the output is replaced by a private copy before the
recursion starts, making ``dgefmm(A, B, C=A_view)`` produce exactly the
result of the non-overlapping call at the cost of one operand copy
(charged to the context at copy bandwidth).  Phantoms carry no storage
and therefore never overlap.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np

from repro.errors import ArgumentError, DimensionError
from repro.phantom import is_phantom

__all__ = [
    "require_matrix",
    "require_vector",
    "require_shape",
    "require_writable",
    "opshape",
    "overlaps",
    "copy_on_overlap",
]


def require_matrix(routine: str, name: str, x: Any) -> Tuple[int, int]:
    """Check ``x`` is a 2-D array/Phantom; return its shape."""
    shape = getattr(x, "shape", None)
    if shape is None or len(shape) != 2:
        raise ArgumentError(routine, name, f"must be a 2-D matrix, got {x!r}")
    return shape[0], shape[1]


def require_vector(routine: str, name: str, x: Any) -> int:
    """Check ``x`` is a 1-D array/Phantom; return its length."""
    shape = getattr(x, "shape", None)
    if shape is None or len(shape) != 1:
        raise ArgumentError(routine, name, f"must be a 1-D vector, got {x!r}")
    return shape[0]


def require_shape(routine: str, name: str, x: Any, shape: Tuple[int, ...]) -> None:
    """Check ``x.shape == shape``."""
    actual = tuple(getattr(x, "shape", ()))
    if actual != tuple(shape):
        raise DimensionError(
            f"{routine}: operand '{name}' has shape {actual}, expected {shape}"
        )


def require_writable(routine: str, name: str, x: Any) -> None:
    """Check a numpy output operand is writable (Phantoms trivially are)."""
    if is_phantom(x):
        return
    flags = getattr(x, "flags", None)
    if flags is not None and not flags.writeable:
        raise ArgumentError(routine, name, "must be a writable array")


def opshape(x: Any, trans: bool) -> Tuple[int, int]:
    """Shape of ``op(x)`` — ``x`` transposed when ``trans`` is set."""
    m, n = x.shape
    return (n, m) if trans else (m, n)


def overlaps(x: Any, y: Any) -> bool:
    """Conservative test: may ``x`` and ``y`` share any memory?

    Phantom-aware (phantoms have no storage) and cheap: uses numpy's
    bounds-overlap test, which can report a false positive for disjoint
    views of one backing array but never a false negative.  A false
    positive only costs an unnecessary operand copy in
    :func:`copy_on_overlap`; a false negative would cost correctness.
    Empty operands never overlap.
    """
    if not isinstance(x, np.ndarray) or not isinstance(y, np.ndarray):
        return False  # phantoms included: they are not arrays
    if x.size == 0 or y.size == 0:
        return False
    return bool(np.may_share_memory(x, y))


def copy_on_overlap(
    out: Any,
    *operands: Any,
    ctx: Optional[Any] = None,
) -> Tuple[Any, ...]:
    """Replace any operand that may alias ``out`` with a private copy.

    The documented copy-on-overlap fallback of every DGEFMM driver:
    inputs are returned unchanged when they are disjoint from the output
    (the common case costs one bounds comparison per operand); an input
    that may share memory with ``out`` is copied (``order="K"``, so the
    view's element order is preserved) before the schedule runs.  Each
    copy is charged to ``ctx`` as an ``mcopy`` at copy bandwidth, making
    the fallback's cost visible in the instrumentation like every other
    data movement.
    """
    resolved = []
    for x in operands:
        if overlaps(out, x):
            x = x.copy(order="K")
            if ctx is not None:
                m, n = (x.shape if x.ndim == 2 else (1, x.size))
                ctx.charge("mcopy", seconds=ctx.model_time("t_copy", m, n))
        resolved.append(x)
    return tuple(resolved)
