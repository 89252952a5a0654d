"""Prediction machinery generic over the cost-model ladder.

Evaluates the cost of DGEFMM's actual execution structure (Winograd
schedule shapes, dynamic peeling fix-ups) under any
:class:`~repro.models.base.CostModel`, and locates predicted crossovers.
These predictions are what Section 3.4 compares against measurements to
argue for empirically tuned cutoffs.
"""

from __future__ import annotations

from typing import Optional

from repro.core.cutoff import CutoffCriterion, DepthCutoff
from repro.core.schemes import LEVEL_PROFILE
from repro.core.traversal import Base, decide
from repro.models.base import CostModel

__all__ = [
    "dgemm_cost",
    "strassen_cost",
    "one_level_cost",
    "config_cost",
    "predicted_square_crossover",
    "predicted_rect_crossover",
]


def dgemm_cost(model: CostModel, m: int, k: int, n: int) -> float:
    """Model cost of the standard algorithm."""
    return model.mult_cost(m, k, n)


def strassen_cost(
    model: CostModel,
    m: int,
    k: int,
    n: int,
    criterion: Optional[CutoffCriterion] = None,
    scheme: str = "auto",
    beta_zero: bool = True,
) -> float:
    """Model cost of DGEFMM's recursion (peeling included).

    Consumes the shared traversal kernel (:func:`repro.core.traversal.
    decide`) like every driver: cutoff test, peel non-divisible dims,
    one scheme level, DGER/DGEMV fix-ups — the structure whose real
    charges the machine simulations accumulate, evaluated under an
    abstract model instead.  Each node is charged its level's executed
    block-addition profile (:data:`repro.core.schemes.LEVEL_PROFILE`),
    so any registry scheme — including non-2x2 families — can be
    costed; the defaults reproduce the historical behaviour (the
    ``auto``/beta = 0 two-temporary Winograd schedule).
    """
    crit = criterion if criterion is not None else DepthCutoff(64)

    def w(m_: int, k_: int, n_: int, depth: int,
          sch: str, b0: bool) -> float:
        if m_ == 0 or n_ == 0:
            return 0.0
        if k_ == 0:
            return model.add_cost(m_, n_)
        node = decide(m_, k_, n_, depth, sch, b0, crit)
        if isinstance(node, Base):
            return model.mult_cost(m_, k_, n_)
        prof = LEVEL_PROFILE[node.level]
        hm, hk, hn = node.child_dims
        cost = prof.a_adds * model.add_cost(hm, hk)
        cost += prof.b_adds * model.add_cost(hk, hn)
        cost += prof.c_adds(b0) * model.add_cost(hm, hn)
        for cls in prof.child_classes:
            cost += w(hm, hk, hn, depth + 1, node.child_scheme,
                      b0 if cls is None else cls)
        ko, no, mo = k_ - node.kp, n_ - node.np_, m_ - node.mp
        if ko and node.mp and node.np_:
            cost += ko * model.ger_cost(node.mp, node.np_)
        if no and node.mp:
            cost += no * model.gemv_cost(node.mp, k_)
        if mo:
            cost += mo * model.gemv_cost(n_, k_)
        return cost

    return w(m, k, n, 0, scheme, beta_zero)


def one_level_cost(model: CostModel, m: int, k: int, n: int) -> float:
    """Model cost of exactly one Strassen level (the crossover probe)."""
    return strassen_cost(model, m, k, n, DepthCutoff(1))


def config_cost(
    model: CostModel,
    m: int,
    k: int,
    n: int,
    config,
    beta_zero: bool = True,
) -> float:
    """Model cost of the recursion a :class:`~repro.core.config.
    GemmConfig` would execute on ``(m, k, n)``.

    The bridge between the cost-model ladder and the tuner's knob
    space: the autotuner (:mod:`repro.tune.search`) ranks candidate
    configs by predicted cost to order its measurement schedule, and
    ``BENCH_tune.json`` tracks how far these predictions drift from
    measured wall time — the quantitative form of the paper's Section
    3.4 warning that op counts alone mistune real code.  Only the
    traversal-shaping knobs (``cutoff``, ``scheme``) affect the model;
    ``nb``/``backend`` change constants the ladder does not
    see, which is precisely the error the benchmark measures.
    """
    return strassen_cost(
        model, m, k, n,
        criterion=config.cutoff,
        scheme=config.scheme,
        beta_zero=beta_zero,
    )


def predicted_square_crossover(
    model: CostModel, lo: int = 4, hi: int = 4096
) -> int:
    """Smallest even square order where one level beats DGEMM.

    Returns ``hi`` if no crossover is found in range (a model that never
    favours recursion).
    """
    lo += lo % 2
    for m in range(lo, hi + 1, 2):
        if one_level_cost(model, m, m, m) < dgemm_cost(model, m, m, m):
            return m
    return hi


def predicted_rect_crossover(
    model: CostModel,
    which: str,
    fixed: int = 2000,
    lo: int = 4,
    hi: int = 2000,
) -> int:
    """Smallest even size of one dimension (others fixed) where one
    Strassen level wins — the Table 3 experiment under a model."""
    maps = {
        "m": lambda x: (x, fixed, fixed),
        "k": lambda x: (fixed, x, fixed),
        "n": lambda x: (fixed, fixed, x),
    }
    dims = maps[which]
    lo += lo % 2
    for x in range(lo, hi + 1, 2):
        d = dims(x)
        if one_level_cost(model, *d) < dgemm_cost(model, *d):
            return x
    return hi
