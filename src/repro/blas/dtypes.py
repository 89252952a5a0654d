"""Per-dtype numeric traits: the one table the whole stack reads.

Precision used to be ambient convention — every layer assumed float64
unless an operand happened to say otherwise, and the assumption was
smeared across kernels, workspace sizing, tolerances and the wire.
This module makes it structural: the supported dtype universe, the
accuracy modes each dtype admits, the wide type a narrow dtype promotes
to under compensated arithmetic, and the unit roundoff driving error
bounds all live here, imported by everything from ``blas.addsub`` up to
the serving stack.

Three accuracy modes (:data:`ACCURACIES`):

``"fast"``
    The default: native-precision kernels, one rounding per scalar
    operation.  Legal for every inexact dtype.
``"compensated"``
    Higher-accuracy floating point.  Narrow dtypes (float32/complex64)
    evaluate in their :data:`WIDE` counterpart and round **once** at the
    output write; double-precision dtypes use Kahan (two-sum) carry
    accumulation across the base-kernel tile loop.  Same kernel names,
    same call counts, same flop charges — only the rounding error
    changes.
``"exact"``
    Integer/object arithmetic with **no** float intermediates — the
    Boyer-Dumas-Pernet-Zhou setting where the add/sub schedules we ship
    were analysed.  Required (and only legal) for the exact dtypes;
    scalars must be integral.

The exact ⟺ exact-dtype equivalence is deliberate: an ``int64``
multiplication through float kernels would silently round large
products, and "exact float64" would over-promise.  Validation lives in
:class:`~repro.core.config.GemmConfig`, which calls these predicates.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ArgumentError

__all__ = [
    "DTYPES",
    "ACCURACIES",
    "EXACT_DTYPES",
    "WIDE",
    "UNIT_ROUNDOFF",
    "canonical_dtype",
    "default_accuracy",
    "is_exact_dtype",
    "require_integral_scalar",
    "unit_roundoff",
    "wide_dtype",
]

#: The supported dtype universe, canonical numpy names.  ``object``
#: arrays carry Python ints (arbitrary precision) — exact, in-process
#: only, never on the wire.
DTYPES = ("float64", "float32", "complex128", "complex64", "int64",
          "object")

#: Accuracy modes — see the module docstring.
ACCURACIES = ("fast", "compensated", "exact")

#: Dtypes whose arithmetic is exact (no rounding): these require, and
#: are required by, ``accuracy="exact"``.
EXACT_DTYPES = ("int64", "object")

#: Compensated promotion map: narrow dtype -> the wide dtype it
#: evaluates in.  Double-precision dtypes have no wider hardware type;
#: they compensate via Kahan accumulation instead.
WIDE = {"float32": "float64", "complex64": "complex128"}

#: Unit roundoff u = 2^-(p) per inexact dtype (complex components round
#: in their real precision).  Exact dtypes have u = 0.
UNIT_ROUNDOFF = {
    "float64": 2.0 ** -53,
    "float32": 2.0 ** -24,
    "complex128": 2.0 ** -53,
    "complex64": 2.0 ** -24,
    "int64": 0.0,
    "object": 0.0,
}


#: Most dtype spellings :func:`canonical_dtype` answers from its table.
CANONICAL_MEMO_MAX = 256

#: valid spelling -> canonical name, filled by :func:`canonical_dtype`
_CANONICAL: dict = {}


def canonical_dtype(dtype) -> str:
    """The canonical name of ``dtype`` (``np.dtype`` accepted spellings:
    ``"float64"``, ``np.float32``, a dtype instance, ``"O"``, ...).

    Raises :class:`~repro.errors.ArgumentError` for anything outside
    :data:`DTYPES` — the compute stack supports exactly this universe,
    and an early loud failure beats a kernel-level ``UFuncTypeError``
    three recursion levels down.

    Every front door canonicalises per call, and ``np.dtype(x).name``
    costs microseconds, so each valid hashable spelling is resolved once
    and then answered from a table of at most
    :data:`CANONICAL_MEMO_MAX` entries.  Invalid spellings are never
    stored: they take the slow path and raise on every call.
    """
    try:
        return _CANONICAL[dtype]
    except KeyError:
        hashable = True
    except TypeError:
        hashable = False
    try:
        name = np.dtype(dtype).name
    except TypeError:
        raise ArgumentError(
            "dtype", "dtype", f"not a numpy dtype: {dtype!r}"
        ) from None
    if name not in DTYPES:
        raise ArgumentError(
            "dtype", "dtype", f"must be one of {DTYPES}, got {name!r}"
        )
    if hashable:
        _CANONICAL[dtype] = name
        if len(_CANONICAL) > CANONICAL_MEMO_MAX:
            # full: undo, so racing inserts cannot outgrow the bound
            _CANONICAL.pop(dtype, None)
    return name


def is_exact_dtype(dtype) -> bool:
    """True for the exact (integer/object) dtypes."""
    return canonical_dtype(dtype) in EXACT_DTYPES


def default_accuracy(dtype) -> str:
    """The accuracy mode a dtype gets when the caller expressed no
    preference: ``"exact"`` for the exact dtypes, ``"fast"`` otherwise.
    This is the sentinel resolution every driver applies to
    ``accuracy=None``."""
    return "exact" if is_exact_dtype(dtype) else "fast"


def unit_roundoff(dtype) -> float:
    """Unit roundoff of ``dtype`` (0.0 for the exact dtypes)."""
    return UNIT_ROUNDOFF[canonical_dtype(dtype)]


def wide_dtype(dtype) -> Optional[str]:
    """The compensated evaluation dtype for a narrow dtype, or None if
    the dtype is already as wide as the hardware goes."""
    return WIDE.get(canonical_dtype(dtype))


def require_integral_scalar(where: str, name: str, value) -> int:
    """Coerce a scalar to a Python int for the exact kernels.

    Exact arithmetic admits only integral scalars: ``alpha=1.5`` on an
    int64 multiplication has no representable result.  Accepts Python
    ints, integral floats (``2.0``) and integral complex with zero
    imaginary part (the generic drivers default ``alpha``/``beta`` to
    floats); anything else raises :class:`ArgumentError`.
    """
    if isinstance(value, complex):
        if value.imag != 0.0:
            raise ArgumentError(
                where, name,
                f"exact accuracy requires a real integral scalar, "
                f"got {value!r}",
            )
        value = value.real
    if isinstance(value, float) and not value.is_integer():
        raise ArgumentError(
            where, name,
            f"exact accuracy requires an integral scalar, got {value!r}",
        )
    return int(value)
