"""Hot-swap verification: prove a profile swap changes *speed*, not bits.

The one invariant that makes live retuning safe to run against real
traffic: serving results are bit-identical to a direct
:func:`~repro.core.dgefmm.dgefmm` call under whatever config governed
the request's admission — before a swap (service defaults) and after
(the tuned profile).  :func:`hot_swap_check` stages exactly that
experiment: serve a batch under defaults, load profiles into the live
store *while requests are in flight*, serve another batch, and verify
every response exactly.  The CLI ``tune apply`` and the CI ``tune-smoke``
lane both run this check; the test suite pins its semantics.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.core.config import GemmConfig
from repro.core.dgefmm import dgefmm
from repro.errors import ArgumentError
from repro.plan import PlanCache
from repro.serve.service import GemmService
from repro.tune.store import ProfileStore

__all__ = ["hot_swap_check"]


def _reference(a: np.ndarray, b: np.ndarray, cfg: GemmConfig,
               cache: PlanCache) -> np.ndarray:
    """Direct dgefmm under ``cfg``, as the service runs it (the serving
    path's ground truth — a fused config replays its fused plan from
    ``cache``, an unfused one walks)."""
    c = np.zeros((a.shape[0], b.shape[1]),
                 dtype=np.result_type(a, b), order="F")
    dgefmm(
        a, b, c,
        cutoff=cfg.cutoff, scheme=cfg.scheme, peel=cfg.peel,
        nb=cfg.nb, backend=cfg.backend,
        plan_cache=cache, fuse=cfg.fuse, accuracy=cfg.accuracy,
    )
    return c


def hot_swap_check(
    directory: Optional[str] = None,
    *,
    store: Optional[ProfileStore] = None,
    m: int = 200,
    k: int = 200,
    n: int = 200,
    requests: int = 6,
    workers: int = 2,
    strict: bool = True,
    seed: int = 0,
) -> Dict[str, Any]:
    """Serve through a live profile swap and verify bit-exactness.

    Phases:

    1. serve ``requests`` problems with the store *empty* — every
       response must equal direct dgefmm under the service defaults;
    2. submit another ``requests`` problems and, while they are in
       flight, :meth:`~repro.tune.store.ProfileStore.load` the profiles
       from ``directory`` into the live store (the hot swap) — these
       admissions predate the swap, so they too must match defaults;
    3. serve a final ``requests`` problems — these resolve through the
       swapped-in profile and must equal direct dgefmm under *its*
       config.

    Every future must resolve (zero dropped).  Returns a JSON-ready
    report: ``{"ok", "load", "resolved_key", "phases": [...]}``.
    """
    if store is None:
        if directory is None:
            raise ArgumentError(
                "hot_swap_check", "directory",
                "is required when no store is given",
            )
        store = ProfileStore(directory)
    if len(store):
        store.clear()  # phase 1 must observe the pre-swap world

    rng = np.random.default_rng(seed)
    ref_cache = PlanCache(max_plans=16)
    default_cfg = GemmConfig()
    report: Dict[str, Any] = {"phases": [], "ok": True}

    def mats():
        a = np.asfortranarray(rng.standard_normal((m, k)))
        b = np.asfortranarray(rng.standard_normal((k, n)))
        return a, b

    with GemmService(workers=workers, profiles=store) as svc:
        # phase 1: pre-swap, defaults govern
        pre = [mats() for _ in range(requests)]
        pre_futs = [svc.submit(a, b) for a, b in pre]
        exact = sum(
            np.array_equal(
                fut.result(60.0), _reference(a, b, default_cfg, ref_cache)
            )
            for fut, (a, b) in zip(pre_futs, pre)
        )
        report["phases"].append({
            "phase": "pre-swap", "requests": requests, "exact": int(exact),
        })
        report["ok"] &= exact == requests

        # phase 2: swap while requests are in flight — admissions that
        # predate the load keep their already-resolved default knobs
        mid = [mats() for _ in range(requests)]
        mid_futs = [svc.submit(a, b) for a, b in mid]
        load = store.load(directory, strict=strict)
        report["load"] = load
        exact = sum(
            np.array_equal(
                fut.result(60.0), _reference(a, b, default_cfg, ref_cache)
            )
            for fut, (a, b) in zip(mid_futs, mid)
        )
        report["phases"].append({
            "phase": "in-flight", "requests": requests, "exact": int(exact),
        })
        report["ok"] &= exact == requests

        # phase 3: post-swap, the tuned profile governs (when one
        # matches this problem's class)
        prof = store.resolve(m, k, n, dtype="float64", beta_zero=True)
        post_cfg = prof.to_config() if prof is not None else default_cfg
        report["resolved_key"] = prof.key if prof is not None else None
        report["swapped"] = (
            prof is not None and post_cfg != default_cfg
        )
        post = [mats() for _ in range(requests)]
        post_futs = [svc.submit(a, b) for a, b in post]
        exact = sum(
            np.array_equal(
                fut.result(60.0), _reference(a, b, post_cfg, ref_cache)
            )
            for fut, (a, b) in zip(post_futs, post)
        )
        report["phases"].append({
            "phase": "post-swap", "requests": requests, "exact": int(exact),
        })
        report["ok"] &= exact == requests

        stats = svc.stats()
        report["profile_resolved"] = stats["counters"].get(
            "profile_resolved", 0
        )
    report["ok"] = bool(report["ok"])
    return report
