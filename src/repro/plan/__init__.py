"""Execution-plan compilation, caching, and replay for DGEFMM.

The recursion that :func:`repro.core.dgefmm.dgefmm` walks — cutoff
tests (paper eq. 15), dynamic peeling, scheme dispatch, workspace
frames — is a pure function of the problem *signature* (dimensions,
scalar zero-classes, dtype, scheme, cutoff, root depth).  This package compiles
that walk once per signature into a flat, immutable
:class:`~repro.plan.compiler.ExecutionPlan`, caches plans in a
thread-safe LRU :class:`~repro.plan.cache.PlanCache`, and replays them
with :func:`~repro.plan.executor.execute_plan` at zero per-call
planning or allocation cost (pool-backed arenas, precomputed byte
offsets); a plan's results are bit-identical to the walk.  The drivers
replay a plan from ``plan_cache=`` in one case only: the fused plan of
a vendor call under fast accuracy whose root recurses — a ``dgefmm``
call, or a product below a ``pdgefmm`` parallel level, whose plan is
keyed by its depth.  Every other call walks the recursion, and the
parallel levels run live.

Compiled plans of a fusable config (``backend="vendor"``, fast
accuracy: :attr:`~repro.core.config.GemmConfig.fusable`) additionally
carry a :class:`~repro.plan.fuse.FusedProgram` — the op stream with
every base-case product replaced by one direct ``np.matmul`` step
(:func:`~repro.plan.fuse.fuse_plan`) — which the executor replays in
place of the interpreted loop.  Fused replay is charge-identical to the
interpreted stream and bit-identical to the vendor walk: a vendor call
with a cache replays a fused plan when its root recurses, and computes
the bits it would have walked.
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
