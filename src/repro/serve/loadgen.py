"""Self-contained load generator and correctness monitor for GemmService.

``python -m repro serve`` runs this: an **open-loop** arrival process
(requests land at a fixed rate whether or not earlier ones finished —
the honest way to probe a service's saturation behaviour, unlike
closed-loop clients whose back-pressure hides overload) over a
repeating mix of shapes drawn from the fuzz case distribution
(:mod:`repro.fuzz.cases`), so the traffic exercises the same transpose/
scalar/dtype/layout classes the differential oracle does.

Every completed response is verified **bit-identical** against a direct
:func:`~repro.core.dgefmm.dgefmm` call on the same operands (computed
once per mix entry — requests repeat the mix, so one reference serves
all its repeats).  A nonzero ``divergent`` count in the report is a
correctness failure, not a statistic.

The mix repeats deliberately: production GEMM traffic is dominated by
recurring shapes, and the repeat is what the workspace pool and, with
``fuse=True``, the plan cache amortize against — the report's
``plan_cache.hit_rate`` shows the latter (it stays 0 for unfused
traffic, which walks the recursion).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cutoff import SimpleCutoff
from repro.core.dgefmm import dgefmm
from repro.errors import ServiceOverloaded, ServiceTimeout
from repro.fuzz.cases import FuzzCase, draw_case, materialize
from repro.plan.cache import PlanCache
from repro.serve.service import GemmService

__all__ = ["build_mix", "run_load"]


def build_mix(
    n_shapes: int = 8,
    seed: int = 0,
    max_dim: int = 48,
    scheme: Optional[str] = None,
    fast_only: bool = False,
    dtypes: Optional[Sequence[str]] = None,
) -> List[FuzzCase]:
    """A deterministic mix of ``n_shapes`` serveable fuzz cases.

    Draws from the edge-heavy fuzz distribution, skipping aliased
    cases (the service snapshots C, so aliasing degenerates to the
    plain case) — everything else, including degenerate dimensions,
    zero scalars, mixed dtypes and hostile layouts, stays in the mix.
    ``scheme`` pins every case to one scheme (all other knobs keep
    their drawn values), mirroring ``repro fuzz --scheme``.
    ``fast_only`` additionally drops cases whose accuracy SLO is not
    ``"fast"`` — the fused plan path compiles against the fast kernels
    only, so a fused run must serve a fast-only mix.  ``dtypes``
    restricts the mix to an allowlist — the network path passes
    :data:`~repro.api.protocol.WIRE_DTYPES`, since exact dtypes don't
    travel over the wire.
    """
    rng = np.random.default_rng(seed)
    mix: List[FuzzCase] = []
    while len(mix) < n_shapes:
        case = draw_case(rng, max_dim=max_dim)
        if case.alias != "none":
            continue
        if fast_only and case.accuracy != "fast":
            continue
        if dtypes is not None and case.dtype not in dtypes:
            continue
        mix.append(case)
    if scheme is not None:
        mix = [dataclasses.replace(case, scheme=scheme) for case in mix]
    return mix


def _reference(case: FuzzCase, a, b, c, *,
               fuse: bool = False,
               plan_cache: Optional[PlanCache] = None) -> np.ndarray:
    """Direct dgefmm on operands materialized exactly like the service.

    The service starts ``beta == 0`` outputs from Fortran-ordered zeros
    and ``beta != 0`` outputs from a plain copy of the caller's C; the
    reference does the same, so bit-identity is the guarantee that the
    service runs ``dgefmm``'s own code and nothing else.  Under ``fuse``
    the reference runs through the fused plan path too (fused replay is
    deterministic but not bit-identical to the recursive driver — the
    batched kernel's accumulation order differs), so the monitor keeps
    asserting exact equality rather than a tolerance.
    """
    alpha, beta = case.scalars()
    if beta != 0.0:
        out = np.array(c, copy=True)
    else:
        dt = np.result_type(a, b)
        out = np.zeros((case.m, case.n), dtype=dt, order="F")
    kwargs = {"plan_cache": plan_cache, "fuse": True} if fuse else {}
    dgefmm(a, b, out, alpha, beta, case.transa, case.transb,
           cutoff=SimpleCutoff(case.tau), scheme=case.scheme,
           peel=case.peel, accuracy=case.accuracy, **kwargs)
    return out


def run_load(
    duration: float = 3.0,
    rate: float = 200.0,
    *,
    workers: int = 2,
    policy: str = "reject",
    capacity: int = 256,
    max_batch: int = 32,
    n_shapes: int = 8,
    seed: int = 0,
    max_dim: int = 48,
    scheme: Optional[str] = None,
    fuse: bool = False,
    request_timeout: Optional[float] = None,
    verify: bool = True,
    service: Optional[GemmService] = None,
    canonical_operands: bool = False,
    dtypes: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """Drive a GemmService at ``rate`` req/s for ``duration`` seconds.

    Returns a JSON-serializable report: attempt/outcome counts, the
    divergence tally (when ``verify``), achieved rate, and the
    service's full metrics snapshot.  ``service`` lets callers inject a
    preconfigured instance — anything with the ``submit``/``stats``
    surface works, including the network
    :class:`~repro.api.client.GemmClient`; otherwise one is built from
    the knobs and closed before returning.  ``scheme`` pins the whole
    mix to one scheme.  ``fuse`` serves (and verifies) the mix through
    the fused plan path; it applies to the locally-built service —
    configure an injected ``service`` directly.

    ``canonical_operands`` converts every operand to Fortran order
    before anything touches it.  Network serving needs this: the wire
    canonicalizes layout during serialization, and BLAS accumulation
    order (hence the result's low bits) is layout-dependent — with the
    flag set, reference and server provably compute on the same bytes
    and bit-identity stays assertable end to end.
    """
    mix = build_mix(n_shapes=n_shapes, seed=seed, max_dim=max_dim,
                    scheme=scheme, fast_only=fuse, dtypes=dtypes)
    operands: List[Tuple[Any, Any, Any]] = []
    expected: List[Optional[np.ndarray]] = []
    ref_cache = PlanCache() if (verify and fuse) else None
    for case in mix:
        a, b, c, c0 = materialize(case)
        if canonical_operands:
            a = np.asarray(a, order="F")
            b = np.asarray(b, order="F")
            c = np.asarray(c, order="F")
        operands.append((a, b, c))
        expected.append(
            _reference(case, a, b, c, fuse=fuse, plan_cache=ref_cache)
            if verify else None
        )

    own_service = service is None
    svc = service if service is not None else GemmService(
        workers=workers, capacity=capacity, policy=policy,
        max_batch=max_batch, fuse=fuse,
    )
    inflight: List[Tuple[int, Any]] = []   # (mix index, future)
    attempts = rejected = 0
    interval = 1.0 / rate if rate > 0 else 0.0
    t_start = time.monotonic()
    t_end = t_start + duration
    try:
        i = 0
        while True:
            next_arrival = t_start + i * interval
            now = time.monotonic()
            if next_arrival >= t_end:
                break
            if next_arrival > now:
                time.sleep(next_arrival - now)
                if time.monotonic() >= t_end:
                    break
            idx = i % len(mix)
            case = mix[idx]
            a, b, c = operands[idx]
            alpha, beta = case.scalars()
            attempts += 1
            try:
                fut = svc.submit(
                    a, b, c if beta != 0.0 else None, alpha, beta,
                    case.transa, case.transb,
                    timeout=request_timeout,
                    block_timeout=request_timeout,
                    cutoff=SimpleCutoff(case.tau),
                    scheme=case.scheme, peel=case.peel,
                    accuracy=case.accuracy,
                )
                inflight.append((idx, fut))
            except ServiceOverloaded:
                rejected += 1
            i += 1

        # drain: wait for every accepted request to resolve
        completed = shed = timeouts = errors = divergent = 0
        failures: List[str] = []
        for idx, fut in inflight:
            try:
                got = fut.result(timeout=60.0)
            except ServiceOverloaded:
                shed += 1
                continue
            except ServiceTimeout:
                timeouts += 1
                continue
            except Exception as exc:  # noqa: BLE001 — report, don't mask
                errors += 1
                if len(failures) < 10:
                    failures.append(f"{type(exc).__name__}: {exc}")
                continue
            completed += 1
            if verify and not np.array_equal(got, expected[idx]):
                divergent += 1
                if len(failures) < 10:
                    case = mix[idx]
                    failures.append(
                        f"divergence on {case.m}x{case.k}x{case.n} "
                        f"dtype={case.dtype}"
                    )
        elapsed = time.monotonic() - t_start
    finally:
        if own_service:
            svc.close()

    stats = svc.stats()
    return {
        "duration_s": elapsed,
        "offered_rate": rate,
        "achieved_rate": completed / elapsed if elapsed > 0 else 0.0,
        "attempts": attempts,
        "completed": completed,
        "rejected": rejected,
        "shed": shed,
        "timeouts": timeouts,
        "errors": errors,
        "divergent": divergent,
        "verified": bool(verify),
        "fuse": bool(fuse),
        "failures": failures,
        "mix": [
            {"m": c.m, "k": c.k, "n": c.n, "dtype": c.dtype,
             "accuracy": c.accuracy,
             "scheme": c.scheme, "tau": c.tau,
             "beta_zero": c.scalars()[1] == 0.0}
            for c in mix
        ],
        "service": stats,
    }
