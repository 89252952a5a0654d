"""Closed-form recursion analytics, cross-checked against execution.

For planning and for testing, it is useful to predict — without running
anything — what a cutoff criterion will make the DGEFMM recursion do:
how deep it goes, how many base-case multiplies it issues, how much
multiply work remains.  These helpers walk the same
:func:`repro.core.traversal.decide` kernel the drivers and the plan
compiler consume, so the test suite can assert they match the
instrumented counts of real executions exactly — node for node.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.config import default_cutoff
from repro.core.cutoff import CutoffCriterion
from repro.core.traversal import Base, decide

__all__ = [
    "recursion_profile",
    "base_multiplies",
    "multiply_fraction",
]


def recursion_profile(
    m: int,
    k: int,
    n: int,
    criterion: Optional[CutoffCriterion] = None,
    scheme: str = "auto",
) -> Dict:
    """Predicted recursion structure for one DGEFMM call.

    Returns ``{"recurse": #internal nodes, "base": #base multiplies,
    "peel": #peeled nodes, "max_depth": deepest base level,
    "mul_flops": scalar multiplies of all base cases (the Strassen
    currency; fix-up multiplies excluded), "base_shapes": {shape:
    count}}``.  ``scheme`` selects the registry family: each node fans
    out into its level's product count (7 for the Winograd schedules,
    8 for textbook, 23 for ⟨3,3,3;23⟩ Laderman) over that level's
    partition shape.  (The structure is beta-independent, so the
    profile holds for every scalar class.)
    """
    crit = criterion if criterion is not None else default_cutoff()
    prof = {
        "recurse": 0,
        "base": 0,
        "peel": 0,
        "max_depth": 0,
        "mul_flops": 0.0,
        "base_shapes": {},
    }

    def walk(m_: int, k_: int, n_: int, depth: int, sch: str) -> None:
        if m_ == 0 or n_ == 0 or k_ == 0:
            return
        prof["max_depth"] = max(prof["max_depth"], depth)
        node = decide(m_, k_, n_, depth, sch, True, crit)
        if isinstance(node, Base):
            prof["base"] += 1
            prof["mul_flops"] += float(m_) * k_ * n_
            key = (m_, k_, n_)
            prof["base_shapes"][key] = prof["base_shapes"].get(key, 0) + 1
            return
        if node.peeled:
            prof["peel"] += 1
        prof["recurse"] += 1
        hm, hk, hn = node.child_dims
        for _ in range(node.children):
            walk(hm, hk, hn, depth + 1, node.child_scheme)

    walk(m, k, n, 0, scheme)
    return prof


def base_multiplies(
    m: int,
    k: int,
    n: int,
    criterion: Optional[CutoffCriterion] = None,
) -> int:
    """Number of base-case standard multiplies (7^depth on even sizes)."""
    return recursion_profile(m, k, n, criterion)["base"]


def multiply_fraction(
    m: int,
    k: int,
    n: int,
    criterion: Optional[CutoffCriterion] = None,
) -> float:
    """Strassen's multiply saving: base multiplies / standard multiplies.

    (7/8)^d for d even recursion levels — e.g. 0.669 for three levels —
    excluding the O(n^2) peeling fix-ups.
    """
    if m == 0 or k == 0 or n == 0:
        return 1.0
    prof = recursion_profile(m, k, n, criterion)
    return prof["mul_flops"] / (float(m) * k * n)
