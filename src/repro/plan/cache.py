"""PlanCache: thread-safe LRU cache of compiled execution plans.

Production traffic (the ROADMAP's north star) is dominated by repeated
problem shapes, so the cost of compiling a plan — one walk of the
recursion — is paid once per distinct :class:`~repro.plan.compiler.
PlanSignature` and amortized to a dictionary lookup thereafter.  The
drivers cache the fused plans they replay — those of a vendor call
under fast accuracy whose root recurses, and of every such product
below a ``pdgefmm`` parallel level, keyed by its depth; every other
call walks.  The cache is bounded two ways, by plan count and by estimated
plan bytes, evicting least-recently-used entries; hit/miss/eviction
counters are surfaced through ``ExecutionContext.stats["plan_cache"]``
by the drivers so experiments can report cache behaviour alongside op
counts.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

from repro.errors import ArgumentError
from repro.plan.compiler import ExecutionPlan, PlanSignature, compile_plan

__all__ = ["PlanCache"]


class PlanCache:
    """LRU cache mapping :class:`PlanSignature` to :class:`ExecutionPlan`.

    Parameters
    ----------
    max_plans:
        Most plans retained at once (least-recently-used evicted first).
    max_bytes:
        Bound on the summed size estimate of retained plans.  A single
        plan larger than the bound is still cached alone — the bound
        sheds history, it never refuses service.

    All operations take the cache lock, so one instance can safely serve
    ``dgefmm``/``pdgefmm`` calls from many threads; compilation happens
    under the lock, so concurrent callers of the same signature compile
    it exactly once.
    """

    def __init__(self, max_plans: int = 64,
                 max_bytes: int = 64 * 1024 * 1024) -> None:
        if max_plans < 1:
            raise ArgumentError(
                "PlanCache", "max_plans", f"must be >= 1, got {max_plans}"
            )
        if max_bytes < 1:
            raise ArgumentError(
                "PlanCache", "max_bytes", f"must be >= 1, got {max_bytes}"
            )
        self.max_plans = int(max_plans)
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._plans: "OrderedDict[PlanSignature, ExecutionPlan]" = (
            OrderedDict()
        )
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.cleared = 0

    # ------------------------------------------------------------------ #
    def get_or_compile(self, signature: PlanSignature) -> ExecutionPlan:
        """The cached plan for ``signature``, compiling on first use."""
        with self._lock:
            plan = self._plans.get(signature)
            if plan is not None:
                self.hits += 1
                self._plans.move_to_end(signature)
                return plan
            plan = compile_plan(signature)   # a refused one counts nothing
            self.misses += 1
            self._plans[signature] = plan
            self._bytes += plan.nbytes
            self._evict()
            return plan

    def peek(self, signature: PlanSignature) -> Optional[ExecutionPlan]:
        """Look up without compiling, counting, or LRU-touching.

        For introspection (benchmarks, tests) that must not skew the
        hit/miss accounting or the eviction order.
        """
        with self._lock:
            return self._plans.get(signature)

    def hit_rate(self) -> float:
        """``hits / (hits + misses)`` so far (0.0 before any lookup).

        Shares :meth:`_hit_rate_locked` with :meth:`stats`, so the two
        can never disagree on the denominator: every lookup that returns
        a plan — hit or miss, including lookups whose entries were later
        evicted or dropped by :meth:`clear` — counts exactly once in
        both.
        """
        with self._lock:
            return self._hit_rate_locked()

    def _hit_rate_locked(self) -> float:
        # caller holds self._lock (which is not reentrant)
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def _evict(self) -> None:
        # over-count: drop LRU entries; over-bytes: likewise, but never
        # evict the entry just inserted (len > 1 guard)
        while len(self._plans) > self.max_plans or (
            self._bytes > self.max_bytes and len(self._plans) > 1
        ):
            _sig, plan = self._plans.popitem(last=False)
            self._bytes -= plan.nbytes
            self.evictions += 1

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def clear(self) -> None:
        """Drop every cached plan (counters are retained)."""
        with self._lock:
            self.cleared += len(self._plans)
            self._plans.clear()
            self._bytes = 0

    def stats(self) -> dict:
        """Counters snapshot, suitable for ``ctx.stats["plan_cache"]``.

        Taken under the cache lock, so the snapshot is *consistent*:
        ``misses - evictions - plans`` equals the number of entries
        dropped by :meth:`clear` (zero when clear was never called), no
        matter how many threads are churning the cache concurrently: a
        miss is counted only when its plan is inserted.
        """
        with self._lock:
            return {
                "plans": len(self._plans),
                "bytes": self._bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "cleared": self.cleared,
                "hit_rate": self._hit_rate_locked(),
                "max_plans": self.max_plans,
                "max_bytes": self.max_bytes,
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        s = self.stats()
        return (
            f"PlanCache(plans={s['plans']}, bytes={s['bytes']}, "
            f"hits={s['hits']}, misses={s['misses']}, "
            f"evictions={s['evictions']})"
        )
