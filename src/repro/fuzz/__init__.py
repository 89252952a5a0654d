"""Differential fuzzing: the standing DGEMM-conformance harness.

Four execution paths now produce every DGEFMM result — the recursive
driver, the multi-level parallel driver, compiled serial-plan replay,
and the serving engine — and all four must agree with the reference
GEMM *and* (where the schedule is shared) with each other bit-for-bit.
This package draws randomized cases over the full knob space (shapes
including degenerate zero/one dims, strides and memory orders including
negative-stride views, dtypes, alpha/beta classes, transposes, schemes,
peeling sides, worker budgets, plan-cache and pool toggles, operand
aliasing, NaN-poisoned outputs) and cross-checks every path per case:

- :mod:`repro.fuzz.cases` — the case space: drawing, materialization,
  JSON (de)serialization for failing-case replay;
- :mod:`repro.fuzz.oracle` — run one case through every applicable
  path, check against a numpy float64/complex128 reference and between
  paths, and report divergences;
- :mod:`repro.fuzz.runner` — the campaign loop behind
  ``python -m repro fuzz`` (``--cases``, ``--seed``, ``--replay``),
  serializing failures to a JSON-lines replay file.

The tests drive the same oracle under hypothesis
(``tests/test_fuzz.py``), so shrinking is available during development
while CI runs the deterministic seeded campaign.
"""

from repro.fuzz.cases import FuzzCase, case_from_dict, case_to_dict, draw_case
from repro.fuzz.oracle import run_case
from repro.fuzz.runner import FuzzReport, run_fuzz

__all__ = [
    "FuzzCase",
    "FuzzReport",
    "case_from_dict",
    "case_to_dict",
    "draw_case",
    "run_case",
    "run_fuzz",
]
