"""repro — reproduction of Huss-Lederman et al., SC 1996.

*Implementation of Strassen's Algorithm for Matrix Multiplication.*

The package provides:

- :func:`repro.dgefmm` — the paper's DGEMM-compatible Winograd-variant
  Strassen multiply (dynamic peeling, tunable cutoffs, minimal
  temporary memory);
- :mod:`repro.blas` — the instrumented standard-algorithm BLAS substrate
  (DGEMM, DGER, DGEMV, add/sub kernels) everything is built on;
- :mod:`repro.core` — schedules, cutoffs, workspace, op-count model;
- :mod:`repro.comparators` — DGEMMW / ESSL DGEMMS / CRAY SGEMMS
  reconstructions;
- :mod:`repro.machines` — calibrated RS/6000, C90, T3D cost models and
  the dry-run simulation machinery;
- :mod:`repro.serve` — in-process batched GEMM serving (admission
  control, FIFO micro-batching, live metrics);
- :mod:`repro.eigensolver` — the ISDA application of Section 4.4;
- :mod:`repro.harness` — one function per paper table/figure
  (``python -m repro.harness.report`` regenerates them all).

Quick start::

    import numpy as np
    from repro import dgefmm

    A = np.random.default_rng(0).standard_normal((600, 600))
    B = np.random.default_rng(1).standard_normal((600, 600))
    C = np.zeros((600, 600), order="F")
    dgefmm(A, B, C)           # C <- A @ B, via Strassen below the cutoff
"""

from repro.blas.level3 import dgemm
from repro.context import ExecutionContext
from repro.core.cutoff import (
    HighamCutoff,
    HybridCutoff,
    PlaneCutoff,
    SimpleCutoff,
    TheoreticalCutoff,
)
from repro.core.complex3m import zgefmm_3m
from repro.core.dgefmm import dgefmm, zgefmm
from repro.core.parallel import parallel_arena_count, pdgefmm
from repro.core.pool import (
    PooledWorkspace,
    WorkspacePool,
    workspace_bound_bytes,
)
from repro.core.workspace import Workspace
from repro.eigensolver import isda_eigh
from repro.linalg import getrf, lu_solve, solve
from repro.plan import (
    ExecutionPlan,
    PlanCache,
    PlanSignature,
    compile_plan,
    execute_plan,
)
from repro.serve import GemmService

__version__ = "1.0.0"

__all__ = [
    "dgefmm",
    "zgefmm",
    "zgefmm_3m",
    "pdgefmm",
    "dgemm",
    "isda_eigh",
    "getrf",
    "lu_solve",
    "solve",
    "ExecutionContext",
    "Workspace",
    "PooledWorkspace",
    "WorkspacePool",
    "workspace_bound_bytes",
    "parallel_arena_count",
    "PlanCache",
    "PlanSignature",
    "ExecutionPlan",
    "compile_plan",
    "execute_plan",
    "GemmService",
    "TheoreticalCutoff",
    "SimpleCutoff",
    "HighamCutoff",
    "PlaneCutoff",
    "HybridCutoff",
    "__version__",
]
