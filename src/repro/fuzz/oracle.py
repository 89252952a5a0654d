"""The differential oracle: one case, every execution path, cross-checked.

For a :class:`~repro.fuzz.cases.FuzzCase` the oracle runs nine
result-producing paths:

- ``serial``   — the recursive driver (:func:`repro.core.dgefmm.dgefmm`);
- ``plan``     — the same call as interpreted replay of its serial
  plan through a :class:`~repro.plan.cache.PlanCache`
  (:func:`repro.core.dgefmm.replay_serial`: ``dgefmm`` walks every
  substrate call);
- ``vendor`` and ``vendor-plan`` — the walk and the plan replay again
  with ``backend="vendor"``: every leaf is numpy's BLAS ``np.matmul``,
  which writes C directly when it can, so the leaf meets the case's
  aliasing, NaN-poisoned C and strided layouts.  A fast case's vendor
  plan replays its fused program (:mod:`repro.plan.fuse`);
- ``fused-replay`` — ``dgefmm(backend="vendor")`` through the plan
  cache, the engine choice a vendor caller gets: a fast case whose
  root recurses replays its cached fused plan, every other case walks;
- ``parallel`` — :func:`repro.core.parallel.pdgefmm` under the case's
  worker budget, parallel depth, and the full scheme/peel knob set,
  with no cache: live parallel levels that fan out the scheme's R
  products from its U/V/W, with ``dgefmm``'s walk below them (a
  top-level base case takes ``dgefmm``'s walk whole);
- ``parallel-serial`` — the same ``pdgefmm`` call at ``workers=1``,
  every product run in turn on the calling thread;
- ``parallel-fused`` — ``pdgefmm(backend="vendor")`` through the plan
  cache, whose recursing products below the parallel levels replay
  fused programs in fast cases;
- ``served`` — the case submitted to a
  :class:`~repro.serve.service.GemmService` with the case's knobs:
  admission through the drivers' prologue, then ``dgefmm``'s walk into
  the service's private output.

Vendor *serving* stays out: the service writes a fresh
Fortran-ordered output, and a leaf that ``np.matmul`` writes straight
into C can follow C's layout, so it need not match a ``vendor`` call on
the caller's C.

Checks, in decreasing strictness:

1. ``serial`` vs ``plan`` and ``vendor`` vs ``vendor-plan`` must be
   **bit-identical** (a plan replays the same kernels on the same views
   in the same order as the walk — any drift is a bug, not roundoff),
   and so must ``parallel`` vs ``parallel-serial`` (the thread schedule
   never reorders the arithmetic);
   ``vendor`` vs ``fused-replay`` must be bit-identical too — fused
   replay runs the vendor kernel's arithmetic at every leaf and the
   interpreted stream's everywhere else; ``served`` vs ``serial`` must
   be bit-identical unless C
   aliases an input (the service then reads the aliased view where
   ``dgefmm`` reads its contiguous copy-on-overlap copy, which may
   round differently);
2. every path must match the numpy reference
   ``alpha*op(A)@op(B) + beta*C`` — computed in float64/complex128 with
   the BLAS overwrite semantics (``beta == 0`` never reads C) — within a
   dtype-scaled tolerance;
3. any exception a path raises is itself a divergence (degenerate and
   aliased cases must execute, not crash).

Each path materializes its own operands from the case seed, so aliased
and NaN-poisoned outputs replay identically per path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.cutoff import SimpleCutoff
from repro.core.dgefmm import dgefmm, replay_serial
from repro.core.parallel import pdgefmm
from repro.fuzz.cases import FuzzCase, materialize
from repro.serve.service import GemmService

__all__ = ["run_case", "reference_result", "tolerance_for"]

#: absolute tolerance per element dtype, as a multiple of the result
#: scale.  Strassen's construction loses a few digits versus the
#: standard algorithm (the paper's Section 4.3 stability discussion);
#: genuine schedule bugs produce O(1) relative errors, far above these.
#: The exact dtypes tolerate **nothing**: integer arithmetic through
#: any schedule must reproduce the reference bit for bit.
_TOLS = {
    "float64": 1e-9,
    "float32": 1e-3,
    "complex128": 1e-9,
    "complex64": 2e-3,
    "int64": 0.0,
    "object": 0.0,
}


def tolerance_for(case: FuzzCase, expect: np.ndarray) -> float:
    """Scaled absolute tolerance for comparisons against the reference."""
    tol = _TOLS[case.dtype]
    if tol == 0.0:
        return 0.0
    scale = 1.0
    if expect.size:
        scale = max(scale, float(np.max(np.abs(expect))))
    return tol * scale


def reference_result(case: FuzzCase, a, b, c0) -> np.ndarray:
    """``alpha*op(A)@op(B) + beta*C`` with the conformant overwrite
    semantics: ``beta == 0`` never reads ``c0`` (so a NaN-poisoned C
    yields a finite reference), and ``alpha == 0`` (or ``k == 0``)
    skips the product.  Inexact dtypes are referenced in
    float64/complex128; int64 is referenced in int64 — numpy's ``@``
    is exact there, so the reference *is* the true product."""
    if case.dtype in ("complex128", "complex64"):
        ref_dt = np.complex128
    elif case.dtype == "int64":
        ref_dt = np.int64
    else:
        ref_dt = np.float64
    alpha, beta = case.scalars()
    opa = (a.T if case.transa else a).astype(ref_dt)
    opb = (b.T if case.transb else b).astype(ref_dt)
    expect = np.zeros((case.m, case.n), dtype=ref_dt)
    if alpha != 0 and case.k > 0:
        expect += alpha * (opa @ opb)
    if beta != 0:
        expect += beta * c0.astype(ref_dt)
    return expect


#: serial paths: (how, backend) — ``"walk"`` is ``dgefmm`` with no
#: cache, ``"cached"`` is ``dgefmm`` through the plan cache and
#: ``"replay"`` replays the serial plan (``replay_serial``)
_SERIAL_PATHS = {
    "serial": ("walk", "substrate"),
    "plan": ("replay", "substrate"),
    "vendor": ("walk", "vendor"),
    "vendor-plan": ("replay", "vendor"),
    "fused-replay": ("cached", "vendor"),
}


def _run_path(case: FuzzCase, path: str, plan_cache, pool, service):
    """Execute one path on freshly materialized operands; returns C."""
    a, b, c, _c0 = materialize(case)
    alpha, beta = case.scalars()
    crit = SimpleCutoff(case.tau)
    if path == "served":
        # the service never writes the caller's C: it returns a new array
        return service.call(
            a, b, c, alpha, beta, case.transa, case.transb,
            cutoff=crit, scheme=case.scheme, peel=case.peel,
            accuracy=case.accuracy,
        )
    if path in _SERIAL_PATHS:
        how, backend = _SERIAL_PATHS[path]
        knobs = dict(cutoff=crit, scheme=case.scheme, peel=case.peel,
                     backend=backend, accuracy=case.accuracy)
        if how == "replay":
            replay_serial(a, b, c, alpha, beta, case.transa, case.transb,
                          plan_cache=plan_cache, **knobs)
        else:
            dgefmm(a, b, c, alpha, beta, case.transa, case.transb,
                   plan_cache=plan_cache if how == "cached" else None,
                   **knobs)
    else:
        fused = path == "parallel-fused"
        pdgefmm(
            a, b, c, alpha, beta, case.transa, case.transb,
            cutoff=crit, scheme=case.scheme, peel=case.peel,
            workers=1 if path == "parallel-serial" else case.workers,
            max_parallel_depth=case.depth,
            pool=pool if case.pool else None,
            plan_cache=plan_cache if fused else None,
            backend="vendor" if fused else "substrate",
            accuracy=case.accuracy,
        )
    return c


def run_case(
    case: FuzzCase,
    plan_cache: Optional[Any] = None,
    pool: Optional[Any] = None,
    service: Optional[GemmService] = None,
) -> List[Dict[str, Any]]:
    """Run every applicable path for ``case``; return divergence records.

    An empty list means the case conforms.  Each record carries the
    ``path``, a ``kind`` (``"exception"``, ``"reference-mismatch"``, or
    ``"bit-divergence"``), and a human-readable ``detail``.
    ``service`` runs the ``served`` path (default: a one-worker service
    for this case).
    """
    if plan_cache is None:
        from repro.plan import PlanCache

        plan_cache = PlanCache()
    if pool is None and case.pool:
        from repro.core.pool import WorkspacePool

        pool = WorkspacePool()
    if service is None:
        with GemmService(workers=1) as own:
            return run_case(case, plan_cache, pool, own)

    a, b, _c, c0 = materialize(case)
    expect = reference_result(case, a, b, c0)
    atol = tolerance_for(case, expect)

    paths = ["serial", "plan", "vendor", "vendor-plan", "fused-replay",
             "parallel", "parallel-serial", "parallel-fused", "served"]

    failures: List[Dict[str, Any]] = []
    results: Dict[str, np.ndarray] = {}
    for path in paths:
        try:
            results[path] = _run_path(case, path, plan_cache, pool,
                                      service)
        except Exception as exc:  # noqa: BLE001 — every crash is a finding
            failures.append({
                "path": path, "kind": "exception",
                "dtype": case.dtype, "accuracy": case.accuracy,
                "detail": f"{type(exc).__name__}: {exc}",
            })

    for path, got in results.items():
        if got.shape != expect.shape:
            failures.append({
                "path": path, "kind": "reference-mismatch",
                "dtype": case.dtype, "accuracy": case.accuracy,
                "detail": f"shape {got.shape} != {expect.shape}",
            })
            continue
        exact = np.dtype(expect.dtype).kind in "iuO"
        err = np.abs(got.astype(expect.dtype) - expect)
        max_err = float(np.max(err)) if err.size else 0.0
        finite = True if exact else bool(np.isfinite(got).all())
        if not finite or max_err > atol:
            failures.append({
                "path": path, "kind": "reference-mismatch",
                "dtype": case.dtype, "accuracy": case.accuracy,
                "detail": f"max |err| {max_err:.3e} > atol {atol:.3e}"
                          + ("" if finite else " (non-finite entries)"),
            })

    pairs = [("serial", "plan"), ("vendor", "vendor-plan"),
             ("parallel", "parallel-serial"), ("vendor", "fused-replay")]
    if case.alias == "none":
        pairs.append(("serial", "served"))
    for lhs, rhs in pairs:
        if lhs in results and rhs in results and not np.array_equal(
            results[lhs], results[rhs]
        ):
            diff = np.abs(results[lhs] - results[rhs])
            failures.append({
                "path": rhs, "kind": "bit-divergence",
                "dtype": case.dtype, "accuracy": case.accuracy,
                "detail": f"{rhs} differs from {lhs}, max |diff| "
                          f"{float(np.max(diff)):.3e}",
            })
    return failures
