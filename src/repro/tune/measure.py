"""Measurement primitives: wall-clock truth for the autotuner.

Everything the tuner decides, it decides from these probes:

- :func:`time_config` — median seconds to run one multiplication under
  a fully-specified :class:`~repro.core.config.GemmConfig`, through the
  warm plan path (one compile absorbed by warmup, exactly the steady
  state a serving worker replays);
- :func:`measure_crossover` — the paper's Section 3.4 square-crossover
  scan run with :func:`repro.machines.calibrate.host_timers`, i.e. the
  *same instruments* as offline host calibration, plus the cost-model
  ladder's predicted crossover alongside, so the predictor's error is a
  number we track (``BENCH_tune.json``) rather than an assumption we
  make.

Operand generation is deterministic per ``(m, k, n, seed)`` so repeated
probes of one candidate touch identical data and differences are timing,
not content.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.core.config import GemmConfig
from repro.core.dgefmm import dgefmm
from repro.machines.calibrate import (
    host_timers,
    measured_square_crossover,
)
from repro.models.opcount_model import OperationCountModel
from repro.models.predict import predicted_square_crossover
from repro.models.traffic import MemoryTrafficModel
from repro.plan import PlanCache
from repro.utils.timing import time_call

__all__ = [
    "make_operands",
    "time_config",
    "measure_crossover",
]


def make_operands(
    m: int, k: int, n: int,
    seed: int = 0,
    beta_zero: bool = True,
    dtype: str = "float64",
):
    """Deterministic F-ordered ``(a, b, c, beta)`` for one probe."""
    rng = np.random.default_rng(
        (m * 1000003 + k * 1009 + n) ^ (seed * 2654435761 & 0xFFFFFFFF)
    )
    a = np.asfortranarray(rng.standard_normal((m, k)).astype(dtype))
    b = np.asfortranarray(rng.standard_normal((k, n)).astype(dtype))
    c = np.asfortranarray(rng.standard_normal((m, n)).astype(dtype))
    beta = 0.0 if beta_zero else 1.0
    return a, b, c, beta


def time_config(
    m: int, k: int, n: int,
    config: GemmConfig,
    *,
    beta_zero: bool = True,
    repeats: int = 3,
    seed: int = 0,
    plan_cache: Optional[PlanCache] = None,
) -> float:
    """Median wall seconds for one multiplication under ``config``.

    Runs ``dgefmm`` the way a serving worker does: the walk for an
    unfused config, a fused plan from a warm cache for a fused one (the
    warmup run inside :func:`~repro.utils.timing.time_call` absorbs
    compilation) — tuning the cold path would optimize a state
    production never sits in.  A private cache is used unless the
    caller shares one across candidates of the same signature.
    """
    cache = plan_cache if plan_cache is not None else PlanCache(max_plans=8)
    a, b, c0, beta = make_operands(m, k, n, seed=seed, beta_zero=beta_zero,
                                   dtype=config.dtype)
    c = np.array(c0, order="F", copy=True)

    def run() -> None:
        # beta==0 ignores (and overwrites) c, so reuse is safe; with
        # beta!=0 each run accumulates, which changes values but not
        # the executed schedule or its cost.
        dgefmm(
            a, b, c, 1.0, beta,
            cutoff=config.cutoff,
            scheme=config.scheme,
            peel=config.peel,
            nb=config.nb,
            backend=config.backend,
            plan_cache=cache,
            fuse=config.fuse,
            accuracy=config.accuracy,
        )

    med, _ = time_call(run, repeats=repeats)
    return med


def measure_crossover(
    *,
    lo: int = 64,
    hi: int = 384,
    step: int = 32,
    repeats: int = 3,
    backend: str = "substrate",
    time_gemm: Optional[Callable[[int, int, int], float]] = None,
    time_one_level: Optional[Callable[[int, int, int], float]] = None,
) -> Dict[str, Any]:
    """Measured vs predicted square crossover on this host.

    Scans ``lo..hi`` (step ``step``) with the Section 3.4 probes from
    :func:`~repro.machines.calibrate.host_timers` on the leaf kernel
    ``backend`` (timers injectable for tests), and evaluates the
    cost-model ladder's predictions of the same experiment (the models
    describe the substrate kernel whatever the backend).  Degrades
    gracefully: when no crossover exists in the scan range (common for a
    short CI-budget scan over numpy kernels) the measured fields are
    None and ``reason`` says why — the caller still gets the
    predictions and the scan evidence.

    Returns ``{"backend": str, "measured": {first, always, recommended}
    | None, "predicted": {opcount, traffic}, "error": {...} | None,
    "scan": {lo, hi, step, repeats}, "timings": [{order, gemm_s,
    one_level_s}, ...], "reason": str | None}``.
    """
    if time_gemm is None or time_one_level is None:
        time_gemm, time_one_level = host_timers(repeats=repeats,
                                                backend=backend)

    step = max(2, step)
    step += step % 2  # even steps avoid peel noise, like calibrate_host

    # the scan's evidence: both probes' seconds at every order
    timed: Dict[int, Dict[str, float]] = {}

    def probe(key: str, timer: Callable[[int, int, int], float]):
        def run(s: int) -> float:
            timed.setdefault(s, {})[key] = t = timer(s, s, s)
            return t
        return run

    measured: Optional[Dict[str, int]] = None
    reason: Optional[str] = None
    try:
        first, always, recommended = measured_square_crossover(
            probe("gemm_s", time_gemm),
            probe("one_level_s", time_one_level),
            lo, hi, step,
        )
        measured = {
            "first": int(first),
            "always": int(always),
            "recommended": int(recommended),
        }
    except ValueError:
        reason = f"no crossover in scan range [{lo}, {hi}]"

    predicted = {
        "opcount": int(
            predicted_square_crossover(OperationCountModel(), lo=4, hi=hi)
        ),
        "traffic": int(
            predicted_square_crossover(
                MemoryTrafficModel(), lo=4, hi=hi
            )
        ),
    }

    error: Optional[Dict[str, Any]] = None
    if measured is not None:
        tau = measured["recommended"]
        error = {}
        for name, pred in predicted.items():
            error[name] = {
                "abs": abs(pred - tau),
                "rel": abs(pred - tau) / tau if tau else None,
            }

    return {
        "backend": backend,
        "measured": measured,
        "predicted": predicted,
        "error": error,
        "scan": {"lo": lo, "hi": hi, "step": step, "repeats": repeats},
        "timings": [{"order": s, **t} for s, t in sorted(timed.items())],
        "reason": reason,
    }
