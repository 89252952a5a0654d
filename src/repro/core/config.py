"""GemmConfig: the frozen knob bundle every DGEFMM entry point shares.

One multiplication's behaviour is shaped by its knobs — cutoff
criterion, scheme, peeling side, base-case tile edge, base-case
kernel backend, numeric dtype and accuracy mode.  Before
this module each entry point (``dgefmm``,
``pdgefmm``, ``GemmService.submit``, the fuzz oracle, the CLI) validated
its own copies of those knobs and hand-listed them into
:class:`~repro.plan.compiler.PlanSignature`; drift between the copies
was guarded only by convention (and a test).  :class:`GemmConfig` is the
single validation point: the front doors resolve it through
:func:`resolve_config`, which builds one per knob tuple and interns it,
and every layer — drivers, traversal, plan compiler, serving engine —
reads the same frozen object.

The field order is load-bearing: :class:`~repro.plan.compiler.
PlanSignature` is *derived structurally* from ``fields(GemmConfig)``
(problem fields first, then the config fields in declaration order), so
adding a knob here automatically adds it to the plan-cache key.
Signature completeness is a property of the type, not an audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.blas.dtypes import (
    ACCURACIES,
    DTYPES,
    default_accuracy,
    is_exact_dtype,
)
from repro.blas.level3 import BACKENDS, DEFAULT_TILE
from repro.core.cutoff import CutoffCriterion, HybridCutoff
from repro.core.schemes import SCHEME_NAMES
from repro.errors import ArgumentError

__all__ = ["GemmConfig", "DEFAULT_CUTOFF", "BLAS_CUTOFF",
           "default_cutoff", "SCHEMES", "PEELS", "DTYPES", "ACCURACIES"]

#: Default cutoff over the substrate's leaves (the package's own
#: standard-algorithm kernel), for hosts where no calibration has been
#: run.  The tau values are deliberately conservative for a numpy-kernel
#: substrate; the calibration example (examples/cutoff_tuning.py) shows
#: how to measure machine-specific parameters the way Section 4.2 does.
DEFAULT_CUTOFF = HybridCutoff(tau=128, tau_m=96, tau_k=96, tau_n=96)

#: Default cutoff over ``np.matmul`` leaves (``backend="vendor"``),
#: set by the Section 3.4 crossover scan over the vendor
#: kernel with one BLAS thread (``benchmarks/bench_crossover.py``,
#: ``BENCH_crossover.json``).  On the 2-vCPU reference host (OpenBLAS
#: 0.3.31) no order of the scan won: from 512 to 4096 in steps of 512,
#: one level took 1.02-1.65x the time of the kernel alone (1.05x at
#: 2560, 1.02x at 4096, median of 5).  When no order wins, tau is the
#: top of the scan, 4096.  The plane parameters keep
#: :data:`DEFAULT_CUTOFF`'s ratio of 3/4 tau.
BLAS_CUTOFF = HybridCutoff(tau=4096, tau_m=3072, tau_k=3072, tau_n=3072)


def default_cutoff(backend: str = "substrate") -> CutoffCriterion:
    """The cutoff a call gets when it names none: it follows the leaf
    kernel.  :data:`BLAS_CUTOFF` when the leaves are ``np.matmul`` (the
    vendor backend), else :data:`DEFAULT_CUTOFF`."""
    return BLAS_CUTOFF if backend == "vendor" else DEFAULT_CUTOFF


#: Recognised values of the ``scheme`` argument — "auto" plus every
#: entry of the scheme registry (:mod:`repro.core.schemes`).
SCHEMES = SCHEME_NAMES

#: Recognised values of the ``peel`` argument.
PEELS = ("tail", "head")


@dataclass(frozen=True)
class GemmConfig:
    """Validated, hashable bundle of the DGEFMM behaviour knobs.

    ``scheme``
        ``"auto"`` (the paper's DGEFMM dispatch: STRASSEN1 when beta = 0,
        STRASSEN2 otherwise), or a forced schedule for study.
    ``peel``
        Odd-dimension peeling side, ``"tail"`` (the paper's) or
        ``"head"``.
    ``cutoff``
        A :class:`~repro.core.cutoff.CutoffCriterion` deciding
        recurse-vs-base at every level.  Left as None it takes
        :func:`default_cutoff` of the config's ``backend``.
    ``nb``
        Tile edge for the base-case standard-algorithm kernel.
    ``backend``
        Base-case kernel backend (:data:`repro.blas.level3.BACKENDS`).
        Only ``"vendor"`` with fast accuracy (:attr:`fusable`) compiles
        plans: fused programs (:mod:`repro.plan.fuse`) that compute the
        vendor walk's bits.
    ``dtype``
        Canonical operand dtype (:data:`repro.blas.dtypes.DTYPES`).
        Drives kernel selection, workspace/arena element sizes and the
        plan-cache key; drivers fold the observed operand dtype in via
        :func:`~repro.plan.compiler.signature_for`.
    ``accuracy``
        Accuracy mode (:data:`repro.blas.dtypes.ACCURACIES`):
        ``"fast"`` native rounding, ``"compensated"`` wide-promoted /
        Kahan-accumulated floating point, ``"exact"`` integer/object
        arithmetic with no float intermediates.  Legal combinations:
        exact ⟺ exact dtype (int64/object); compensated requires an
        inexact dtype.

    Declaration order matters — see the module docstring.
    """

    scheme: str = "auto"
    peel: str = "tail"
    cutoff: Optional[CutoffCriterion] = None
    nb: int = DEFAULT_TILE
    backend: str = "substrate"
    dtype: str = "float64"
    accuracy: str = "fast"

    @property
    def fusable(self) -> bool:
        """True when this config compiles plans: ``np.matmul`` leaves
        (the vendor backend) under fast accuracy, the one arithmetic
        :func:`~repro.plan.fuse.run_fused` replays.  Every other config
        walks, and :func:`~repro.plan.compiler.compile_plan` refuses
        it."""
        return self.backend == "vendor" and self.accuracy == "fast"

    def __post_init__(self) -> None:
        if self.cutoff is None:
            object.__setattr__(self, "cutoff", default_cutoff(self.backend))
        if self.scheme not in SCHEMES:
            raise ArgumentError(
                "GemmConfig", "scheme",
                f"must be one of {SCHEMES}, got {self.scheme!r}",
            )
        if self.peel not in PEELS:
            raise ArgumentError(
                "GemmConfig", "peel",
                f"must be one of {PEELS}, got {self.peel!r}",
            )
        if not isinstance(self.cutoff, CutoffCriterion):
            raise ArgumentError(
                "GemmConfig", "cutoff",
                f"must be a CutoffCriterion, got {type(self.cutoff).__name__}",
            )
        if (not isinstance(self.nb, (int, np.integer))
                or isinstance(self.nb, bool) or self.nb < 1):
            raise ArgumentError(
                "GemmConfig", "nb",
                f"must be an integer >= 1, got {self.nb!r}",
            )
        if self.backend not in BACKENDS:
            raise ArgumentError(
                "GemmConfig", "backend",
                f"must be one of {BACKENDS}, got {self.backend!r}",
            )
        if self.dtype not in DTYPES:
            raise ArgumentError(
                "GemmConfig", "dtype",
                f"must be one of {DTYPES}, got {self.dtype!r}",
            )
        if self.accuracy not in ACCURACIES:
            raise ArgumentError(
                "GemmConfig", "accuracy",
                f"must be one of {ACCURACIES}, got {self.accuracy!r}",
            )
        # Legal (dtype, accuracy) combinations: exact arithmetic and the
        # exact dtypes imply each other; compensated rounding is a
        # floating-point notion.
        if is_exact_dtype(self.dtype) and self.accuracy != "exact":
            raise ArgumentError(
                "GemmConfig", "accuracy",
                f"dtype {self.dtype!r} is exact: accuracy must be "
                f"'exact', got {self.accuracy!r}",
            )
        if self.accuracy == "exact" and not is_exact_dtype(self.dtype):
            raise ArgumentError(
                "GemmConfig", "accuracy",
                f"accuracy 'exact' requires an exact dtype "
                f"(int64/object), got dtype {self.dtype!r}",
            )


#: Most knob tuples :func:`resolve_config` interns.
CONFIG_MEMO_MAX = 1024

#: typed knob tuple -> the validated GemmConfig built for it
_CONFIGS: dict = {}


def resolve_config(
    scheme: Any,
    peel: Any,
    cutoff: Optional[CutoffCriterion],
    nb: Any,
    backend: Any,
    dtype: Any,
    accuracy: Optional[str],
) -> GemmConfig:
    """The validated :class:`GemmConfig` for one call's knobs, interned.

    ``cutoff=None`` takes :func:`default_cutoff` of the call's
    ``backend``, and ``accuracy=None`` the dtype's default
    (:func:`~repro.blas.dtypes.default_accuracy`).
    Every front door resolves its knobs here, so a repeated call builds
    no config: the first one built for a knob tuple is returned again,
    from a memo of at most :data:`CONFIG_MEMO_MAX` entries.  The key
    holds each knob's type next to its value, so an input
    ``GemmConfig`` rejects (``nb=True``) never finds an accepted,
    hash-equal twin (``nb=1``), and only configs that passed
    validation are stored.  Knobs that cannot be hashed (a criterion
    with ``__hash__ = None``) are validated and built on every call.
    """
    key = (scheme, peel, cutoff, nb, backend, dtype, accuracy,
           scheme.__class__, peel.__class__, cutoff.__class__,
           nb.__class__, backend.__class__, dtype.__class__,
           accuracy.__class__)
    try:
        return _CONFIGS[key]
    except KeyError:
        hashable = True
    except TypeError:
        hashable = False
    cfg = GemmConfig(
        scheme=scheme, peel=peel, cutoff=cutoff,
        nb=nb, backend=backend, dtype=dtype,
        accuracy=default_accuracy(dtype) if accuracy is None else accuracy,
    )
    if hashable:
        _CONFIGS[key] = cfg
        if len(_CONFIGS) > CONFIG_MEMO_MAX:
            # full: undo, so racing inserts cannot outgrow the bound
            _CONFIGS.pop(key, None)
    return cfg
