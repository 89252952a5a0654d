"""Execution-plan compilation, caching, and replay for DGEFMM.

The recursion that :func:`repro.core.dgefmm.dgefmm` walks — cutoff
tests (paper eq. 15), dynamic peeling, scheme dispatch, workspace
frames — is a pure function of the problem *signature* (dimensions,
scalar zero-classes, dtype, scheme, cutoff, root depth).  This package
compiles the vendor walk of a fusable signature (``backend="vendor"``,
fast accuracy: :attr:`~repro.core.config.GemmConfig.fusable`) once
into a flat, immutable :class:`~repro.plan.compiler.ExecutionPlan`,
caches plans in a thread-safe LRU :class:`~repro.plan.cache.PlanCache`,
and replays them with :func:`~repro.plan.executor.execute_plan` at zero
per-call planning or allocation cost (pool-backed arenas, precomputed
byte offsets).

A plan is a fused program (:mod:`repro.plan.fuse`): the recorded op
stream with its events dropped, every base-case product one direct
``np.matmul``, run as one inline loop and charged once per call.  Its
results are bit-identical to the vendor walk, and its charges equal the
walk's.  The drivers replay a plan from ``plan_cache=`` in one case
only: a vendor call under fast accuracy whose root recurses — a
``dgefmm`` call, or a product below a ``pdgefmm`` parallel level, whose
plan is keyed by its depth — in a context that neither traces, nor
dry-runs, nor holds a machine model.  Every other call walks the
recursion, and the parallel levels run live.
"""

from repro.plan.cache import PlanCache
from repro.plan.compiler import (
    ExecutionPlan,
    PlanSignature,
    compile_plan,
    signature_for,
)
from repro.plan.executor import execute_plan
from repro.plan.fuse import fuse_plan

__all__ = [
    "PlanCache",
    "PlanSignature",
    "ExecutionPlan",
    "compile_plan",
    "signature_for",
    "execute_plan",
    "fuse_plan",
]
