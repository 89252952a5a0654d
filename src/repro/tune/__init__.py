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

import importlib

#: each re-exported name -> the submodule that defines it.  Resolved on
#: first access (PEP 562), so ``from repro.tune.store import
#: ProfileStore`` -- all a serving process needs -- loads only
#: ``profile`` and ``store``, not the tuner and its model ladder.
_EXPORTS = {
    "hot_swap_check": "apply",
    "observations": "feed",
    "select_targets": "feed",
    "make_operands": "measure",
    "measure_crossover": "measure",
    "time_config": "measure",
    "TunedProfile": "profile",
    "class_key": "profile",
    "cutoff_from_json": "profile",
    "cutoff_to_json": "profile",
    "default_grid": "search",
    "successive_halving": "search",
    "tune_class": "search",
    "ProfileStore": "store",
    "host_fingerprint": "store",
}


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


__all__ = list(_EXPORTS)
