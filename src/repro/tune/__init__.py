"""Online autotuning: close the loop from live metrics to tuned configs.

The paper's methodology (Section 3.4) is offline: measure crossovers on
a machine, fit cutoff parameters, recompile.  This package runs the same
loop *against the serving stack, while it serves*:

- :mod:`repro.tune.measure` — wall-clock probes: per-config timing
  through the warm plan path, and the Section 3.4 crossover scan with
  the cost-model ladder's predictions alongside (the predictor's error
  is tracked in ``BENCH_tune.json``);
- :mod:`repro.tune.search` — budgeted successive halving over the knob
  grid ``(cutoff, nb, backend, scheme, peel)``, producing a
  :class:`~repro.tune.profile.TunedProfile` per signature class;
- :mod:`repro.tune.profile` / :mod:`repro.tune.store` — versioned,
  host-fingerprinted profile JSON and the thread-safe
  :class:`~repro.tune.store.ProfileStore` the serving admission path
  resolves against (``GemmService(profiles=...)``);
- :mod:`repro.tune.feed` — ranks live per-signature traffic from
  ``GemmService.stats()`` into a tuning worklist;
- :mod:`repro.tune.apply` — the hot-swap bit-exactness check run by
  ``python -m repro tune apply`` and the CI smoke lane.

Layering: tune sits *above* serve (it imports the service to verify
swaps; the service sees only a duck-typed ``profiles`` object), and the
compute stack (blas/core/plan) never imports tune — enforced by
``tests/test_layering.py``.
"""

from repro.tune.apply import hot_swap_check
from repro.tune.feed import observations, select_targets
from repro.tune.measure import make_operands, measure_crossover, time_config
from repro.tune.profile import (
    TunedProfile,
    class_key,
    cutoff_from_json,
    cutoff_to_json,
)
from repro.tune.search import default_grid, successive_halving, tune_class
from repro.tune.store import ProfileStore, host_fingerprint

__all__ = [
    "TunedProfile",
    "class_key",
    "cutoff_to_json",
    "cutoff_from_json",
    "ProfileStore",
    "host_fingerprint",
    "make_operands",
    "time_config",
    "measure_crossover",
    "default_grid",
    "successive_halving",
    "tune_class",
    "observations",
    "select_targets",
    "hot_swap_check",
]
