"""Execution-plan compilation, caching, and replay for DGEFMM.

The recursion that :func:`repro.core.dgefmm.dgefmm` walks — cutoff
tests (paper eq. 15), dynamic peeling, scheme dispatch, workspace
frames — is a pure function of the problem *signature* (dimensions,
scalar zero-classes, dtype, scheme, cutoff).  This package compiles
that walk once per signature into a flat, immutable
:class:`~repro.plan.compiler.ExecutionPlan`, caches plans in a
thread-safe LRU :class:`~repro.plan.cache.PlanCache`, and replays them
with :func:`~repro.plan.executor.execute_plan` at zero per-call
planning or allocation cost (pool-backed arenas, precomputed byte
offsets); a serial plan's results are bit-identical to the walk.  The
drivers replay plans where something consumes them: ``dgefmm(...,
fuse=True)`` runs a fused plan and ``pdgefmm`` a parallel one, each
from ``plan_cache=`` when given and compiled for the call otherwise.
An unfused ``dgefmm`` call walks the recursion.

With ``fuse=True`` on :class:`~repro.core.config.GemmConfig`, compiled
plans additionally carry a :class:`~repro.plan.fuse.FusedProgram` —
the op stream re-expressed as elementwise runs, packed batched-product
groups, and direct base-case products (:func:`~repro.plan.fuse.
fuse_plan`) — which the executor replays in place of the interpreted
loop.  Fused replay is deterministic and charge-identical, but not
bit-identical to the interpreted stream (different base-case kernel);
``fuse`` therefore keys the plan signature.
"""

from repro.plan.cache import PlanCache
from repro.plan.compiler import (
    ExecutionPlan,
    PlanSignature,
    compile_plan,
    signature_for,
)
from repro.plan.executor import execute_plan
from repro.plan.fuse import FusedProgram, fuse_plan

__all__ = [
    "PlanCache",
    "PlanSignature",
    "ExecutionPlan",
    "compile_plan",
    "signature_for",
    "execute_plan",
    "FusedProgram",
    "fuse_plan",
]
