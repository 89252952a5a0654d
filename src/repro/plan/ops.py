"""Typed plan ops, regions, and symbolic scalars — the plan vocabulary.

A compiled :class:`~repro.plan.compiler.ExecutionPlan` is a flat tuple of
small op tuples.  Each op names its operands by *region index*: an index
into the plan's interned region table, where every region is either a
rectangular window of one of the three call operands (op(A), op(B), C)
or a window of a temporary living at a precomputed byte offset inside
the plan's workspace arena (the bump-allocator layout the pooled
workspace would produce — see :class:`~repro.core.pool.PooledWorkspace`).

Scalars inside ops are either literals (the 1.0 / -1.0 / 0.0
coefficients the schedules hard-code: Python floats, or ``np.int64`` in
exact-accuracy plans so integer buffers are never scaled by a float) or
one of four small ``int`` codes standing for the call's
``alpha``/``beta``: the schedules only ever propagate ``±alpha`` and
``±beta``, so four codes cover every symbolic scalar a plan can
contain.  The executor resolves a code ``s`` as ``(alpha, -alpha, beta,
-beta)[s]`` — computing ``-alpha`` exactly like the live schedules do,
so planned and recursive execution are bit-identical.
"""

from __future__ import annotations

from typing import Any, Tuple

import numpy as np

__all__ = [
    "OP_MADD",
    "OP_MSUB",
    "OP_ACCUM",
    "OP_AXPBY",
    "OP_GEMM",
    "OP_FIXUP",
    "OP_EVENT",
    "OP_NAMES",
    "SC_ALPHA",
    "SC_NEG_ALPHA",
    "SC_BETA",
    "SC_NEG_BETA",
    "ROOT_A",
    "ROOT_B",
    "ROOT_C",
    "ROOT_TEMP",
    "Region",
    "SymScalar",
    "encode_scalar",
    "scalar_repr",
]

# ---------------------------------------------------------------------- #
# opcodes (first element of every op tuple)
OP_MADD = 0    # (OP_MADD, x, y, out, alpha)        out <- alpha*(x + y)
OP_MSUB = 1    # (OP_MSUB, x, y, out, alpha)        out <- alpha*(x - y)
OP_ACCUM = 2   # (OP_ACCUM, x, out)                 out <- out + x
OP_AXPBY = 3   # (OP_AXPBY, alpha, x, beta, y)      y <- alpha*x + beta*y
OP_GEMM = 4    # (OP_GEMM, a, b, c, alpha, beta)    base-case standard GEMM
OP_FIXUP = 5   # (OP_FIXUP, a, b, c, alpha, beta, side, divisors)  peel fixup
OP_EVENT = 6   # (OP_EVENT, RecursionEvent)         trace replay (trace only)

OP_NAMES = ("madd", "msub", "accum", "axpby", "gemm", "fixup", "event")

# symbolic-scalar codes (ints; literals stay floats, so the executor can
# distinguish them by type)
SC_ALPHA = 0
SC_NEG_ALPHA = 1
SC_BETA = 2
SC_NEG_BETA = 3

_SC_NAMES = ("alpha", "-alpha", "beta", "-beta")

# region roots
ROOT_A = 0
ROOT_B = 1
ROOT_C = 2
ROOT_TEMP = 3

_ROOT_NAMES = ("A", "B", "C", "T")


class SymScalar:
    """``±alpha`` / ``±beta`` placeholder flowing through compilation.

    The compiler feeds these to the *real* schedule functions in place of
    the numeric scalars.  The schedules only ever negate them (``-alpha``)
    or compare them against literals (``beta == 0.0`` in the scheme
    dispatch), so the class implements exactly that surface: ``__neg__``
    flips the sign, and equality against anything that is not a
    :class:`SymScalar` is False — the correct answer for the nonzero
    scalar class a symbolic plan is compiled for (the zero classes are
    compiled with literal ``0.0`` and take the live dispatch's other arm).
    """

    __slots__ = ("kind", "coef")

    def __init__(self, kind: str, coef: int = 1) -> None:
        self.kind = kind      # 'a' or 'b'
        self.coef = coef      # +1 or -1

    def __neg__(self) -> "SymScalar":
        return SymScalar(self.kind, -self.coef)

    def __eq__(self, other: Any) -> Any:
        if isinstance(other, SymScalar):
            return self.kind == other.kind and self.coef == other.coef
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.kind, self.coef))

    @property
    def code(self) -> int:
        if self.kind == "a":
            return SC_ALPHA if self.coef > 0 else SC_NEG_ALPHA
        return SC_BETA if self.coef > 0 else SC_NEG_BETA

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return _SC_NAMES[self.code]


def encode_scalar(s: Any) -> Any:
    """Plan encoding of a schedule scalar: int code for symbols, float
    (or complex, for literal complex coefficients) otherwise."""
    if isinstance(s, SymScalar):
        return s.code
    return s


def scalar_repr(s: Any) -> str:
    """Human-readable scalar for ``plan explain`` output."""
    if s.__class__ is int:
        return _SC_NAMES[s]
    return str(s)


class Region:
    """A rectangular window of a root operand or an arena temporary.

    Compile-time stand-in for a matrix view: carries shape and dtype,
    supports the 2-D slicing the schedules and the peeling helpers
    perform, and knows how to describe itself as an interning key.  For
    temporaries, ``offset`` is the byte offset of the *full* temporary
    inside the plan's arena (the bump-allocator address), and
    ``full_rows``/``full_cols`` its allocated shape; ``r0``/``c0`` locate
    this window inside it.  For roots, ``r0``/``c0`` are absolute in the
    op-resolved operand, so one slice binds the window at execution.
    """

    __slots__ = (
        "kind", "offset", "full_rows", "full_cols", "r0", "c0",
        "shape", "dtype",
    )

    def __init__(
        self,
        kind: int,
        offset: int,
        full_rows: int,
        full_cols: int,
        r0: int,
        c0: int,
        rows: int,
        cols: int,
        dtype: Any,
    ) -> None:
        self.kind = kind
        self.offset = offset
        self.full_rows = full_rows
        self.full_cols = full_cols
        self.r0 = r0
        self.c0 = c0
        self.shape: Tuple[int, int] = (rows, cols)
        self.dtype = np.dtype(dtype)

    # -- the surface the schedules use ------------------------------- #
    @property
    def ndim(self) -> int:
        return 2

    def __getitem__(self, key: Any) -> "Region":
        if not isinstance(key, tuple):
            key = (key,)
        if len(key) > 2:
            raise IndexError("Region supports at most 2-D slicing")
        key = key + (slice(None),) * (2 - len(key))
        rows, cols = self.shape
        rk, ck = key
        if not (isinstance(rk, slice) and isinstance(ck, slice)):
            raise IndexError(
                "Region slicing supports slices only (plan compilation "
                "never takes scalar indices)"
            )
        r0, r1, rs = rk.indices(rows)
        c0, c1, cs = ck.indices(cols)
        if rs != 1 or cs != 1:
            raise IndexError("Region slicing requires unit steps")
        return Region(
            self.kind, self.offset, self.full_rows, self.full_cols,
            self.r0 + r0, self.c0 + c0,
            max(0, r1 - r0), max(0, c1 - c0), self.dtype,
        )

    def descriptor(self) -> tuple:
        """Hashable identity for interning into the plan's region table."""
        return (
            self.kind, self.offset, self.full_rows, self.full_cols,
            self.r0, self.c0, self.shape[0], self.shape[1],
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        root = _ROOT_NAMES[self.kind]
        loc = f"@{self.offset}" if self.kind == ROOT_TEMP else ""
        return (
            f"{root}{loc}[{self.r0}:{self.r0 + self.shape[0]},"
            f"{self.c0}:{self.c0 + self.shape[1]}]"
        )
