"""The traversal core: DGEFMM's one recurse-vs-base decision kernel.

The paper's DGEFMM is a single algorithm — cutoff test (eq. 15),
dynamic peeling of odd dimensions (Section 3.3), and
STRASSEN1/STRASSEN2 scheme dispatch (Section 3.2).  Four walkers
consume that recursion: the DGEFMM walker
(:func:`repro.core.dgefmm._rec`, which executes live or records plan
ops depending on its binding), ``pdgefmm``'s parallel levels
(:mod:`repro.core.parallel`), the closed-form recursion analytics, and
the cost-model predictor.  This module is the *only* place the per-node decision
lives; every walker consumes :func:`decide` and interprets the returned
node in its own way (execute kernels, record plan ops, tally counts, or
sum model costs).

Schemes are no longer hard-wired 2x2: the level vocabulary comes from
the declarative registry (:mod:`repro.core.schemes`), each level
carrying its own ⟨mbar, kbar, nbar⟩ partition divisors.  The returned
nodes embed those divisors, so peeling (strip ``dim % divisor`` trailing
indices, not just one) and child dimensions (``core // divisor``) fall
out of the node without any walker knowing which family it is walking.

:func:`decide` is stateless: given ``(m, k, n, depth)``, the scheme,
the beta scalar class, and a cutoff criterion it returns one typed node

- :class:`Base` — multiply with the standard algorithm;
- :class:`Recurse` — apply one scheme level on the (already
  divisor-exact) dimensions, carrying the level code and the
  children's scheme;
- :class:`Peel` — a :class:`Recurse` whose node has non-divisible
  dimensions: strip the remainder rows/columns, run the level on the
  divisible ``(mp, kp, np_)`` core, then apply the DGER/DGEMV fix-ups.

Callers handle the degenerate GEMM cases (empty output, ``k == 0``,
``alpha == 0``) *before* consulting the kernel — those are BLAS
conformance semantics (scale or no-op), not traversal decisions, and
each walker treats them differently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from repro.core.cutoff import CutoffCriterion
from repro.core.schemes import LEVEL_DIVISORS, LEVELS, SCHEME_DISPATCH

__all__ = [
    "Base",
    "Recurse",
    "Peel",
    "DecisionNode",
    "peel_split",
    "pick_level",
    "decide",
    "LEVELS",
]


def peel_split(
    m: int, k: int, n: int, divisors: Tuple[int, int, int] = (2, 2, 2)
) -> Tuple[int, int, int]:
    """Divisor-exact core dimensions: each dimension loses its remainder
    modulo the scheme's partition divisor (one index per odd dimension
    in the classic 2x2 case)."""
    dm, dk, dn = divisors
    return m - m % dm, k - k % dk, n - n % dn


def pick_level(scheme: str, beta_zero: bool) -> Tuple[str, str]:
    """Resolve ``(level code, child scheme)`` for one recursion node.

    The dispatch table lives in the scheme registry
    (:data:`repro.core.schemes.SCHEME_DISPATCH`).  The child scheme
    matters for ``"strassen1"``: the paper's Table 1 figure for the
    general case assumes the seven (beta = 0) products are "computed
    recursively using the same algorithm", i.e. the general
    six-temporary schedule — so the general variant pins its children
    to ``"strassen1_general"`` rather than letting them drop back to
    the cheaper beta = 0 variant.
    """
    try:
        entry = SCHEME_DISPATCH[scheme]
    except KeyError:
        raise ValueError(f"unknown scheme {scheme!r}") from None
    return entry[0] if beta_zero else entry[1]


@dataclass(frozen=True)
class Base:
    """Stop here: one standard-algorithm multiply of (m, k, n)."""

    m: int
    k: int
    n: int
    depth: int


@dataclass(frozen=True)
class Recurse:
    """Apply one scheme level; dimensions are already divisor-exact.

    ``mp``/``kp``/``np_`` are the divisor-exact core dimensions the
    level runs on (equal to ``m``/``k``/``n`` unless this is a
    :class:`Peel`); ``level`` is the schedule code (``"s1b0"``,
    ``"s1g"``, ``"s2"``, ``"tb"``, ``"bdpz"``, ``"l23"``, ...);
    ``child_scheme`` is the scheme the recursive products carry;
    ``mbar``/``kbar``/``nbar`` the level's partition divisors;
    ``children`` how many products the level spawns, each of dimensions
    ``(mp//mbar, kp//kbar, np_//nbar)``.
    """

    m: int
    k: int
    n: int
    depth: int
    mp: int
    kp: int
    np_: int
    level: str
    child_scheme: str
    mbar: int = 2
    kbar: int = 2
    nbar: int = 2

    @property
    def peeled(self) -> bool:
        """True when remainder indices were stripped (a :class:`Peel`)."""
        return (self.mp, self.kp, self.np_) != (self.m, self.k, self.n)

    @property
    def divisors(self) -> Tuple[int, int, int]:
        """The level's partition divisors as one tuple."""
        return self.mbar, self.kbar, self.nbar

    @property
    def children(self) -> int:
        """Recursive products this level spawns (R of the scheme)."""
        return LEVELS[self.level]

    @property
    def child_dims(self) -> Tuple[int, int, int]:
        """Dimensions of each recursive product."""
        return (
            self.mp // self.mbar,
            self.kp // self.kbar,
            self.np_ // self.nbar,
        )


@dataclass(frozen=True)
class Peel(Recurse):
    """A :class:`Recurse` with stripped dimensions: core + DGER/DGEMV
    fix-ups."""


DecisionNode = Union[Base, Recurse]


def decide(
    m: int,
    k: int,
    n: int,
    depth: int,
    scheme: str,
    beta_zero: bool,
    crit: CutoffCriterion,
) -> DecisionNode:
    """The per-node decision every DGEFMM walker consumes.

    Dimensions must be >= 1 (callers resolve the degenerate GEMM
    classes first).  Recursion stops — :class:`Base` — when the cutoff
    criterion says so at this depth or when any dimension is below the
    resolved level's partition divisor (a 1-wide dimension cannot host
    a 2x2 split, nor a 2-wide one a 3x3 split); otherwise the node is a
    :class:`Recurse` (or :class:`Peel` when a dimension has a
    remainder) carrying the resolved level, child scheme, and
    divisors.
    """
    if crit.stop(m, k, n, depth):
        return Base(m, k, n, depth)
    level, child_scheme = pick_level(scheme, beta_zero)
    mbar, kbar, nbar = LEVEL_DIVISORS[level]
    if m < mbar or k < kbar or n < nbar:
        return Base(m, k, n, depth)
    mp, kp, np_ = peel_split(m, k, n, (mbar, kbar, nbar))
    cls = Peel if (mp, kp, np_) != (m, k, n) else Recurse
    return cls(
        m, k, n, depth, mp, kp, np_, level, child_scheme,
        mbar, kbar, nbar,
    )
