"""The fuzz campaign loop behind ``python -m repro fuzz``.

A campaign is deterministic in its ``seed``: the same seed and case
count draw the same :class:`~repro.fuzz.cases.FuzzCase` sequence on any
machine, so a CI divergence reproduces locally with the same flags.
Failing cases are appended to a JSON-lines replay file (one
``{"case": ..., "failures": [...]}`` object per line); a later run with
``--replay <file>`` re-executes exactly those cases — the triage loop is
fuzz, fix, replay, then re-fuzz.

One :class:`~repro.plan.cache.PlanCache`, one
:class:`~repro.core.pool.WorkspacePool` and one
:class:`~repro.serve.service.GemmService` are shared across the whole
campaign, deliberately: cross-case cache reuse is itself under test
(a stale or under-keyed plan signature shows up as a divergence on the
*second* case that hits it, which per-case caches would never catch).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.blas.dtypes import is_exact_dtype
from repro.core.pool import WorkspacePool
from repro.fuzz.cases import FuzzCase, case_from_dict, case_to_dict, draw_case
from repro.fuzz.oracle import run_case
from repro.plan import PlanCache
from repro.serve.service import GemmService

__all__ = ["FuzzReport", "run_fuzz", "load_replay", "save_failures"]


@dataclass
class FuzzReport:
    """Outcome of one campaign: counts plus the surviving evidence."""

    cases: int = 0
    divergent: int = 0
    failures: List[Dict[str, Any]] = field(default_factory=list)
    #: how often each knob class was exercised (coverage sanity check)
    coverage: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.divergent == 0

    def _cover(self, case: FuzzCase) -> None:
        cov = self.coverage
        for key in (
            f"dtype:{case.dtype}",
            f"accuracy:{case.accuracy}",
            f"scheme:{case.scheme}",
            f"peel:{case.peel}",
            f"alias:{case.alias}",
        ):
            cov[key] = cov.get(key, 0) + 1
        if 0 in (case.m, case.k, case.n):
            cov["zero-dim"] = cov.get("zero-dim", 0) + 1
        if case.nan_c:
            cov["nan-c"] = cov.get("nan-c", 0) + 1
        alpha, beta = case.scalars()
        if alpha == 0:
            cov["alpha-zero"] = cov.get("alpha-zero", 0) + 1
        if beta == 0:
            cov["beta-zero"] = cov.get("beta-zero", 0) + 1
        if case.transa or case.transb:
            cov["transposed"] = cov.get("transposed", 0) + 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cases": self.cases,
            "divergent": self.divergent,
            "ok": self.ok,
            "coverage": dict(sorted(self.coverage.items())),
            "failures": self.failures,
        }


def load_replay(path: str) -> List[FuzzCase]:
    """Cases from a JSON-lines replay file written by a previous run."""
    cases: List[FuzzCase] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            cases.append(case_from_dict(rec["case"] if "case" in rec else rec))
    return cases


def save_failures(path: str, failures: Sequence[Dict[str, Any]]) -> None:
    """Append failure records (``{"case", "failures"}``) as JSON lines."""
    with open(path, "a", encoding="utf-8") as fh:
        for rec in failures:
            fh.write(json.dumps(rec) + "\n")


def run_fuzz(
    cases: int = 200,
    seed: int = 0,
    max_dim: int = 32,
    replay: Optional[Sequence[FuzzCase]] = None,
    failures_path: Optional[str] = None,
    progress: Optional[Any] = None,
    scheme: Optional[str] = None,
    dtype: Optional[str] = None,
    accuracy: Optional[str] = None,
) -> FuzzReport:
    """Run a differential campaign; returns a :class:`FuzzReport`.

    ``replay`` (a sequence of cases, e.g. from :func:`load_replay`)
    short-circuits drawing and runs exactly those cases; otherwise
    ``cases`` draws from the seeded edge-heavy distribution.
    ``failures_path`` appends divergent cases as JSON lines for later
    ``--replay``.  ``progress`` is an optional callable
    ``(index, total, divergent)`` invoked after each case.  ``scheme``
    pins every case (drawn or replayed) to one scheme — the per-scheme
    CI smoke lanes; all other knobs keep their drawn values.

    ``dtype``/``accuracy`` pin the precision dimension — the CI
    precision-matrix lanes.  Dtype compatibility wins over an accuracy
    pin: exact dtypes always run the exact discipline, and a case whose
    drawn ``"exact"`` accuracy becomes illegal under an inexact dtype
    pin falls back to ``"fast"``.  NaN poisoning is cleared for exact
    dtypes (they cannot hold a NaN).
    """
    rng = np.random.default_rng(seed)
    plan_cache = PlanCache()
    pool = WorkspacePool()
    report = FuzzReport()

    todo: Sequence[FuzzCase]
    if replay is not None:
        todo = list(replay)
    else:
        todo = [draw_case(rng, max_dim=max_dim) for _ in range(cases)]
    if scheme is not None:
        todo = [dataclasses.replace(case, scheme=scheme) for case in todo]
    if dtype is not None or accuracy is not None:
        pinned: List[FuzzCase] = []
        for case in todo:
            dt = dtype if dtype is not None else case.dtype
            acc = accuracy if accuracy is not None else case.accuracy
            if is_exact_dtype(dt):
                acc = "exact"
            elif acc == "exact":
                acc = "fast"
            pinned.append(dataclasses.replace(
                case, dtype=dt, accuracy=acc,
                nan_c=case.nan_c and not is_exact_dtype(dt),
            ))
        todo = pinned

    service = GemmService(workers=1)
    try:
        for idx, case in enumerate(todo):
            report.cases += 1
            report._cover(case)
            failures = run_case(case, plan_cache=plan_cache, pool=pool,
                                service=service)
            if failures:
                report.divergent += 1
                report.failures.append(
                    {"case": case_to_dict(case), "failures": failures}
                )
            if progress is not None:
                progress(idx + 1, len(todo), report.divergent)
    finally:
        service.close()

    if failures_path and report.failures:
        save_failures(failures_path, report.failures)
    return report
