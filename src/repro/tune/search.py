"""Budgeted knob-space search: successive halving over measured time.

The knob space ``(cutoff, nb, scheme, peel, fuse)`` is small but
measurement is expensive — a single probe of a 512-square candidate
costs real milliseconds, and a tuner sharing a host with serving
traffic gets a *budget*, not an open meter.  Successive halving spends
that budget the way the multi-armed-bandit literature says to: measure
every candidate cheaply (one repeat), keep the best fraction, re-measure
the survivors more carefully, repeat.  Bad configs cost one noisy probe;
only contenders get clean medians.

Two further economies:

- candidates are *ordered by predicted cost* (:func:`repro.models.
  predict.config_cost` under the op-count model) before the first rung,
  so when the deadline truncates a rung mid-scan the unmeasured tail is
  the predictably-worst part of the grid;
- all candidates of one signature class share one
  :class:`~repro.plan.cache.PlanCache`, so each config pays its plan
  compilation once (in warmup) and the measured steady state is the
  serving steady state.

The budget is wall-clock and *checked before every measurement*: a
candidate partway through finishes (measurements are short by
construction), and whatever has been measured is ranked.
"""

from __future__ import annotations

import dataclasses
import datetime
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import DEFAULT_CUTOFF, GemmConfig
from repro.core.cutoff import HybridCutoff, NeverRecurse, SimpleCutoff
from repro.errors import ArgumentError
from repro.models.opcount_model import OperationCountModel
from repro.models.predict import config_cost
from repro.plan import PlanCache
from repro.tune.measure import time_config
from repro.tune.profile import TunedProfile, class_key
from repro.tune.store import host_fingerprint

__all__ = ["default_grid", "successive_halving", "tune_class"]


def default_grid(include_fused: bool = True) -> List[GemmConfig]:
    """The default candidate set (~20 configs across every knob).

    Covers each knob's plausible values without exploding the product:
    three cutoff stances (never recurse — the DGEMM baseline every
    tuning run must be allowed to pick; a simple eq. 11 criterion at
    two taus; the paper's hybrid eq. 15 at two scales), three base-case
    tiles, fused replay and the walk, plus single variants for the
    ``peel`` and ``scheme`` knobs (their effect is secondary but they
    must be reachable).
    """
    grid: List[GemmConfig] = []
    cutoffs = [
        NeverRecurse(),
        SimpleCutoff(64),
        SimpleCutoff(128),
        HybridCutoff(tau=64, tau_m=48, tau_k=48, tau_n=48),
        DEFAULT_CUTOFF,
    ]
    fuses = (False, True) if include_fused else (False,)
    for cutoff in cutoffs:
        for nb in (96, 160, 256):
            for fuse in fuses:
                if isinstance(cutoff, NeverRecurse) and fuse:
                    continue  # nothing to fuse below a no-recursion cutoff
                grid.append(GemmConfig(cutoff=cutoff, nb=nb, fuse=fuse))
    # secondary knobs: one probe each, riding the default cutoff/tile
    grid.append(GemmConfig(peel="head"))
    grid.append(GemmConfig(scheme="strassen1_general"))
    grid.append(GemmConfig(scheme="bdpz"))
    return grid


def successive_halving(
    candidates: Sequence[GemmConfig],
    measure: Callable[[GemmConfig, int], float],
    *,
    rungs: Sequence[int] = (1, 3),
    keep: float = 0.4,
    deadline: Optional[float] = None,
) -> Tuple[Optional[GemmConfig], Optional[float], List[Dict[str, Any]]]:
    """Rank ``candidates`` by measured time under a wall-clock deadline.

    ``measure(config, repeats)`` returns seconds; ``rungs`` gives the
    repeats per round; after each non-final rung only the fastest
    ``keep`` fraction survives.  Returns ``(best_config, best_seconds,
    trace)`` — best is None only if the deadline expired before any
    measurement completed.  The trace records, per rung, how many
    candidates were measured vs skipped, for the ``--json`` reports.
    """
    if not candidates:
        raise ArgumentError(
            "successive_halving", "candidates", "must be non-empty"
        )
    if not 0.0 < keep <= 1.0:
        raise ArgumentError(
            "successive_halving", "keep", f"must be in (0, 1], got {keep}"
        )
    survivors = list(candidates)
    best: Optional[Tuple[float, GemmConfig]] = None
    trace: List[Dict[str, Any]] = []
    for rung_idx, repeats in enumerate(rungs):
        timed: List[Tuple[float, int, GemmConfig]] = []
        skipped = 0
        for order, cfg in enumerate(survivors):
            if deadline is not None and time.monotonic() >= deadline:
                skipped = len(survivors) - order
                break
            timed.append((measure(cfg, repeats), order, cfg))
        if timed:
            timed.sort(key=lambda t: t[:2])
            if best is None or timed[0][0] < best[0]:
                best = (timed[0][0], timed[0][2])
        trace.append({
            "rung": rung_idx,
            "repeats": int(repeats),
            "candidates": len(survivors),
            "measured": len(timed),
            "skipped": skipped,
            "best_s": timed[0][0] if timed else None,
        })
        if not timed:
            break
        if rung_idx < len(rungs) - 1:
            n_keep = max(1, int(len(timed) * keep))
            survivors = [cfg for _, _, cfg in timed[:n_keep]]
    if best is None:
        return None, None, trace
    return best[1], best[0], trace


def tune_class(
    m: int,
    k: int,
    n: int,
    *,
    dtype: str = "float64",
    accuracy: str = "fast",
    beta_zero: bool = True,
    budget_s: float = 30.0,
    grid: Optional[Sequence[GemmConfig]] = None,
    rungs: Sequence[int] = (1, 3),
    keep: float = 0.4,
    version: int = 1,
    note: str = "",
) -> TunedProfile:
    """Tune one signature class on this host; returns the winning profile.

    The representative problem ``(m, k, n)`` stands in for its whole
    :func:`~repro.tune.profile.class_key` bucket.  Measures the default
    config first (the baseline every report compares against — and a
    floor: if the search budget expires before improving on it, the
    default *is* the winner), then successive-halves the grid within
    ``budget_s`` wall seconds.  The returned profile carries the
    measurement evidence (``tuned_s``, ``default_s``, ``speedup``,
    predicted-cost rank of the winner) and this host's fingerprint.

    ``dtype``/``accuracy`` pin the precision class being tuned: every
    candidate is probed with operands of that dtype under that rounding
    discipline (fused candidates drop out for non-fast accuracies —
    fused programs are compiled for the fast kernels only), and the
    winning profile carries the accuracy so admission resolves it.
    """
    if budget_s <= 0:
        raise ArgumentError(
            "tune_class", "budget_s", f"must be > 0, got {budget_s}"
        )
    t_start = time.monotonic()
    deadline = t_start + budget_s
    candidates = list(grid) if grid is not None else default_grid()
    candidates = [
        dataclasses.replace(cfg, dtype=dtype, accuracy=accuracy)
        for cfg in candidates
        if not (cfg.fuse and accuracy != "fast")
    ]

    # cheap model-predicted ordering: if the deadline truncates a rung,
    # the unmeasured tail is the predictably-worst part of the grid
    model = OperationCountModel()
    predicted = {
        cfg: config_cost(model, m, k, n, cfg, beta_zero=beta_zero)
        for cfg in candidates
    }
    candidates.sort(key=lambda cfg: predicted[cfg])

    cache = PlanCache(max_plans=max(64, 2 * len(candidates)))

    def measure(cfg: GemmConfig, repeats: int) -> float:
        return time_config(
            m, k, n, cfg,
            beta_zero=beta_zero, repeats=repeats, plan_cache=cache,
        )

    default_cfg = GemmConfig(dtype=dtype, accuracy=accuracy)
    default_s = measure(default_cfg, max(rungs))

    best_cfg, best_s, trace = successive_halving(
        candidates, measure,
        rungs=rungs, keep=keep, deadline=deadline,
    )
    if best_cfg is None or best_s is None or best_s >= default_s:
        # budget exhausted before any probe, or nothing beat the
        # baseline: the default config is the honest winner
        best_cfg, best_s = default_cfg, default_s

    pred_sorted = sorted(candidates, key=lambda cfg: predicted[cfg])
    try:
        pred_rank = pred_sorted.index(best_cfg)
    except ValueError:
        pred_rank = -1  # winner was the out-of-grid default config

    return TunedProfile(
        key=class_key(m, k, n, dtype=dtype, beta_zero=beta_zero),
        scheme=best_cfg.scheme,
        peel=best_cfg.peel,
        cutoff=best_cfg.cutoff,
        nb=best_cfg.nb,
        backend=best_cfg.backend,
        fuse=best_cfg.fuse,
        accuracy=best_cfg.accuracy,
        version=version,
        created=datetime.datetime.now(datetime.timezone.utc).isoformat(),
        host=host_fingerprint(),
        measured={
            "m": m, "k": k, "n": n,
            "dtype": dtype, "beta_zero": beta_zero,
            "accuracy": accuracy,
            "tuned_s": best_s,
            "default_s": default_s,
            "speedup": default_s / best_s if best_s > 0 else None,
            "budget_s": budget_s,
            "spent_s": time.monotonic() - t_start,
            "candidates": len(candidates),
            "predicted_rank": pred_rank,
            "trace": trace,
        },
        note=note,
    )
