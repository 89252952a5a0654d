"""TunedProfile: versioned, host-stamped GemmConfig knob bundles.

The paper calibrated cutoffs per machine by hand (Tables 2-3); the tune
subsystem discovers them on the running host and has to hand the result
to a *serving* process that was launched before the measurement ran.
The unit of exchange is a :class:`TunedProfile`: one winning knob
combination — ``(scheme, peel, cutoff, nb, backend)``, exactly the fields
of :class:`~repro.core.config.GemmConfig` the tuner searches — bound to
a **signature class** (a shape/dtype/scalar bucket, :func:`class_key`),
stamped with the fingerprint of the host it was measured on, and
carrying a monotonically increasing ``version`` so stores can reject
stale writes.

Profiles are plain JSON on disk (:meth:`TunedProfile.to_json` /
:meth:`TunedProfile.from_json` round-trip bit-exactly — pinned by
``tests/test_tune.py``), and :meth:`TunedProfile.to_config` rebuilds
the frozen, validated ``GemmConfig``, so every knob a profile can carry
is a knob the plan-cache signature already keys on: a hot-swapped
profile can never alias a differently-configured plan.

Cutoff criteria are frozen dataclasses; :func:`cutoff_to_json` /
:func:`cutoff_from_json` encode them by registry (class name + field
dict) so any criterion in :mod:`repro.core.cutoff` survives the trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Optional

from repro.blas.level3 import BACKENDS, DEFAULT_TILE
from repro.core import cutoff as _cutoff_mod
from repro.core.config import GemmConfig
from repro.core.cutoff import CutoffCriterion
from repro.errors import ArgumentError

__all__ = [
    "PROFILE_SCHEMA",
    "CUTOFF_KINDS",
    "cutoff_to_json",
    "cutoff_from_json",
    "class_key",
    "TunedProfile",
]

#: on-disk schema version of a profile document
PROFILE_SCHEMA = 1

#: every concrete criterion class, keyed by name — the codec registry
CUTOFF_KINDS: Dict[str, type] = {
    name: getattr(_cutoff_mod, name)
    for name in _cutoff_mod.__all__
    if name != "CutoffCriterion"
}


def cutoff_to_json(crit: CutoffCriterion) -> Dict[str, Any]:
    """Encode a frozen criterion as ``{"kind", "params"}``."""
    kind = type(crit).__name__
    if kind not in CUTOFF_KINDS:
        raise ArgumentError(
            "cutoff_to_json", "crit",
            f"unknown criterion class {kind!r} (not in repro.core.cutoff)",
        )
    return {
        "kind": kind,
        "params": {f.name: getattr(crit, f.name) for f in fields(crit)},
    }


def cutoff_from_json(doc: Dict[str, Any]) -> CutoffCriterion:
    """Decode :func:`cutoff_to_json`'s document back to the criterion."""
    kind = doc.get("kind")
    cls = CUTOFF_KINDS.get(kind)
    if cls is None:
        raise ArgumentError(
            "cutoff_from_json", "kind",
            f"unknown criterion kind {kind!r}",
        )
    return cls(**doc.get("params", {}))


def class_key(
    m: int, k: int, n: int,
    dtype: str = "float64",
    beta_zero: bool = True,
) -> str:
    """The signature-class bucket a problem tunes and resolves under.

    Profiles must generalize past the exact ``(m, k, n)`` they were
    measured on — production traffic repeats *shapes of a kind*, not
    single triples — so problems bucket by:

    - **shape class**: ``sq`` when the aspect ratio ``max/min`` is at
      most 2 (the paper's square-crossover regime), ``rect`` otherwise
      (the long-thin regime of Table 3, where different cutoffs win);
    - **size bucket**: the largest power of two not exceeding the
      geometric mean of the dimensions — crossovers move with problem
      scale, not with every individual size;
    - **dtype** and **beta class**: both change the executed schedule
      (``auto`` dispatches STRASSEN1 vs STRASSEN2 on ``beta``), so they
      change what is worth tuning.

    Degenerate problems (any dimension < 1) return the ``"degenerate"``
    bucket; stores never resolve profiles for it.
    """
    if m < 1 or k < 1 or n < 1:
        return f"degenerate:{dtype}"
    g = float(m * k * n) ** (1.0 / 3.0)
    bucket = 1
    while bucket * 2 <= g:
        bucket *= 2
    aspect = max(m, k, n) / min(m, k, n)
    shape = "sq" if aspect <= 2.0 else "rect"
    b = "b0" if beta_zero else "bg"
    return f"{shape}{bucket}:{dtype}:{b}"


@dataclass(frozen=True)
class TunedProfile:
    """One signature class's winning knobs, host-stamped and versioned.

    ``key``
        The :func:`class_key` bucket this profile serves.
    ``scheme``/``peel``/``cutoff``/``nb``/``backend``
        The knob values — the same vocabulary as
        :class:`~repro.core.config.GemmConfig`, validated identically
        (construction runs ``to_config()`` once); a ``cutoff`` left None
        takes the config's default for the profile's leaf kernel.
    ``version``
        Monotonic per key; :class:`~repro.tune.store.ProfileStore`
        refuses to replace a profile with an older or equal version.
    ``created``
        ISO-8601 timestamp of the measurement.
    ``host``
        :func:`~repro.tune.store.host_fingerprint` of the measuring
        host; stores compare the ``digest`` entry and treat a mismatch
        as stale (crossovers are a per-machine property).
    ``measured``
        Free-form measurement evidence (``tuned_s``, ``default_s``,
        ``speedup``, the probe dimensions, budget spent).
    """

    key: str
    scheme: str = "auto"
    peel: str = "tail"
    cutoff: Optional[CutoffCriterion] = None
    nb: int = DEFAULT_TILE
    backend: str = "substrate"
    accuracy: str = "fast"
    version: int = 1
    created: str = ""
    host: Dict[str, Any] = field(default_factory=dict)
    measured: Dict[str, Any] = field(default_factory=dict)
    note: str = ""

    def __post_init__(self) -> None:
        if not self.key or not isinstance(self.key, str):
            raise ArgumentError(
                "TunedProfile", "key", f"must be a nonempty str, "
                f"got {self.key!r}",
            )
        if self.version < 1:
            raise ArgumentError(
                "TunedProfile", "version",
                f"must be >= 1, got {self.version}",
            )
        # one validation point: every knob combination a profile can
        # carry is a combination GemmConfig accepts (which also fills a
        # defaulted cutoff for the profile's leaf kernel)
        object.__setattr__(self, "cutoff", self.to_config().cutoff)

    # ------------------------------------------------------------------ #
    def to_config(self) -> GemmConfig:
        """The frozen, validated config these knobs encode.

        Validates under the default (float64) dtype, which restricts
        profile accuracies to ``"fast"``/``"compensated"`` — the exact
        discipline is never *tuned into* a profile, it follows from the
        request's dtype at admission.
        """
        return GemmConfig(
            scheme=self.scheme, peel=self.peel, cutoff=self.cutoff,
            nb=self.nb, backend=self.backend, accuracy=self.accuracy,
        )

    def to_json(self) -> Dict[str, Any]:
        """Plain-JSON document (round-trips via :meth:`from_json`)."""
        return {
            "schema": PROFILE_SCHEMA,
            "key": self.key,
            "scheme": self.scheme,
            "peel": self.peel,
            "cutoff": cutoff_to_json(self.cutoff),
            "nb": self.nb,
            "backend": self.backend,
            "accuracy": self.accuracy,
            "version": self.version,
            "created": self.created,
            "host": dict(self.host),
            "measured": dict(self.measured),
            "note": self.note,
        }

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "TunedProfile":
        """Rebuild (and re-validate) a profile from its JSON document."""
        schema = doc.get("schema")
        if schema != PROFILE_SCHEMA:
            raise ArgumentError(
                "TunedProfile.from_json", "schema",
                f"expected {PROFILE_SCHEMA}, got {schema!r}",
            )
        return cls(
            key=doc["key"],
            scheme=doc.get("scheme", "auto"),
            peel=doc.get("peel", "tail"),
            cutoff=cutoff_from_json(doc["cutoff"]),
            nb=int(doc.get("nb", DEFAULT_TILE)),
            # a document's "fuse": true selected fused replay, which
            # computes the vendor backend's bits
            backend=("vendor" if doc.get("fuse")
                     else doc.get("backend", "substrate")),
            # documents written before the precision dimension carry no
            # accuracy key; they decode to the fast discipline
            accuracy=doc.get("accuracy", "fast"),
            version=int(doc.get("version", 1)),
            created=doc.get("created", ""),
            host=dict(doc.get("host", {})),
            measured=dict(doc.get("measured", {})),
            note=doc.get("note", ""),
        )

    def host_digest(self) -> Optional[str]:
        """The measuring host's fingerprint digest (None if unstamped)."""
        return self.host.get("digest")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TunedProfile({self.key!r} v{self.version}: "
            f"{self.scheme}/{self.peel}, {self.cutoff!r}, nb={self.nb}, "
            f"backend={self.backend})"
        )


# silence the unused-import lint for BACKENDS: it documents the backend
# vocabulary profiles validate against (via GemmConfig).
_ = BACKENDS
