"""Execution context: instrumentation, simulated time, dry-run switch.

Every kernel in :mod:`repro.blas` and every Strassen driver accepts an
optional :class:`ExecutionContext`.  The context serves three roles:

1. **Instrumentation** — counts kernel invocations and floating-point
   operations using the paper's operation-count conventions
   (Section 2: ``M(m,k,n) = 2mkn - mn`` for a standard multiply,
   ``G(m,n) = mn`` for a matrix add/subtract).

2. **Simulated clock** — when a :class:`~repro.machines.model.MachineModel`
   is attached, each kernel also charges its *modeled* execution time for
   that machine, enabling deterministic reproduction of the paper's
   timing-shaped experiments (cutoff crossovers, criteria comparisons,
   code-vs-code ratios) without 1996 hardware.

3. **Dry-run switch** — with ``dry=True`` the kernels skip all numerics
   (operands are :class:`~repro.phantom.Phantom` shapes), so parameter
   sweeps over thousands of large problems are instant while exercising
   the identical control flow.

The context is deliberately cheap: plain attribute bumps, no locking —
one context per top-level call or experiment.  When one context *must*
be shared by concurrent top-level calls (the serving engine's shared
instrumentation, or user code hammering ``pdgefmm`` from threads),
construct it with ``threadsafe=True``: every counter update —
:meth:`~ExecutionContext.charge`, :meth:`~ExecutionContext.merge_child`,
:meth:`~ExecutionContext.record` and the :meth:`~ExecutionContext.
stats_max`/:meth:`~ExecutionContext.stats_set` helpers — then runs under
one reentrant lock, so tallies stay exact instead of losing
read-modify-write races.  The default stays lock-free.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["ExecutionContext", "ensure_context", "RecursionEvent"]


@dataclass
class RecursionEvent:
    """One node of the Strassen recursion tree, recorded when tracing.

    ``action`` is one of ``"recurse"``, ``"base"``, ``"peel"``; dims are
    the (m, k, n) of the product at this node; ``depth`` is the recursion
    depth (0 = top-level call).
    """

    action: str
    m: int
    k: int
    n: int
    depth: int
    scheme: str = ""


class ExecutionContext:
    """Mutable per-call instrumentation and simulation state.

    Parameters
    ----------
    machine:
        Optional machine cost model (see :mod:`repro.machines`).  When
        present, kernels advance :attr:`elapsed` by the model's predicted
        time for each operation.
    dry:
        When True, kernels validate shapes and charge costs but perform no
        floating-point work; operands must then be Phantoms (or are simply
        not touched).
    trace:
        When True, Strassen drivers append :class:`RecursionEvent` records
        to :attr:`events` — used by tests and by the recursion-depth
        experiments (Table 5).
    threadsafe:
        When True, all counter mutations take a private reentrant lock,
        so the context can be shared by concurrent top-level calls with
        exact tallies.  Leave False (the default) for the usual
        one-context-per-call pattern — the hot path then pays no lock.
    """

    def __init__(
        self,
        machine: Optional[Any] = None,
        *,
        dry: bool = False,
        trace: bool = False,
        threadsafe: bool = False,
    ) -> None:
        if dry and machine is None:
            # Dry runs are allowed without a machine (pure op counting),
            # but most callers want timing; nothing to validate here.
            pass
        self.machine = machine
        self.dry = bool(dry)
        self.trace = bool(trace)
        self._lock = threading.RLock() if threadsafe else None
        self.reset()

    @property
    def threadsafe(self) -> bool:
        """True when counter updates are serialized through a lock."""
        return self._lock is not None

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Zero all counters and the simulated clock."""
        #: total floating-point operations charged (multiplies + adds)
        self.flops: float = 0.0
        #: scalar multiplications charged (the "7 multiplies" currency)
        self.mul_flops: float = 0.0
        #: scalar additions/subtractions charged
        self.add_flops: float = 0.0
        #: simulated seconds elapsed (0 unless a machine model is attached)
        self.elapsed: float = 0.0
        #: kernel name -> number of invocations
        self.kernel_calls: Counter = Counter()
        #: recursion trace (populated when ``trace=True``)
        self.events: List[RecursionEvent] = []
        #: scratch area for drivers (workspace peak, decisions, ...)
        self.stats: Dict[str, Any] = {}

    # ------------------------------------------------------------------ #
    def charge(
        self,
        kernel: str,
        *,
        muls: float = 0.0,
        adds: float = 0.0,
        seconds: Optional[float] = None,
    ) -> None:
        """Record one kernel invocation.

        ``muls``/``adds`` follow the paper's operation-count model;
        ``seconds`` is the machine-model time (ignored when no machine is
        attached — callers pass it unconditionally for simplicity).
        """
        if self._lock is not None:
            with self._lock:
                self._charge(kernel, muls, adds, seconds)
        else:
            self._charge(kernel, muls, adds, seconds)

    def _charge(
        self,
        kernel: str,
        muls: float,
        adds: float,
        seconds: Optional[float],
    ) -> None:
        self.kernel_calls[kernel] += 1
        self.mul_flops += muls
        self.add_flops += adds
        self.flops += muls + adds
        if self.machine is not None and seconds is not None:
            self.elapsed += seconds

    def charge_many(
        self,
        kernel: str,
        calls: int,
        *,
        muls: float = 0.0,
        adds: float = 0.0,
    ) -> None:
        """Record ``calls`` invocations of ``kernel`` in one update.

        ``muls``/``adds`` are the *aggregate* tallies across all the
        calls.  The fused plan replay loop (:mod:`repro.plan.fuse`)
        charges each kernel's totals over the whole program once per
        replay through here; because every tally is an integer-valued
        float well below 2**53, the aggregate sums equal the per-call
        sums bit-for-bit.  No model time is charged — fused replay is
        gated off when a machine model is attached.
        """
        if self._lock is not None:
            with self._lock:
                self._charge_many(kernel, calls, muls, adds)
        else:
            self._charge_many(kernel, calls, muls, adds)

    def _charge_many(
        self, kernel: str, calls: int, muls: float, adds: float
    ) -> None:
        self.kernel_calls[kernel] += calls
        self.mul_flops += muls
        self.add_flops += adds
        self.flops += muls + adds

    def record(self, event: RecursionEvent) -> None:
        """Append a recursion-trace event (no-op unless tracing)."""
        if self.trace:
            if self._lock is not None:
                with self._lock:
                    self.events.append(event)
            else:
                self.events.append(event)

    def merge_child(self, child: "ExecutionContext") -> None:
        """Fold a worker's counters into this context — exactly.

        The parallel driver gives every worker thread a *private* child
        context (no locking on the hot path) and merges them back in job
        order once the workers have joined, so the merged op counts,
        kernel tallies and trace are identical to a serial execution of
        the same schedule, independent of thread interleaving.
        ``elapsed`` accumulates *summed* worker time: a work measure,
        not a wall-clock prediction.  ``stats`` entries are driver-owned
        (e.g. the parallel driver aggregates workspace peaks itself) and
        are deliberately not merged here.
        """
        if self._lock is not None:
            with self._lock:
                self._merge_child(child)
        else:
            self._merge_child(child)

    def _merge_child(self, child: "ExecutionContext") -> None:
        self.flops += child.flops
        self.mul_flops += child.mul_flops
        self.add_flops += child.add_flops
        self.elapsed += child.elapsed
        self.kernel_calls.update(child.kernel_calls)
        self.events.extend(child.events)

    # ------------------------------------------------------------------ #
    def stats_max(self, key: str, value: Any) -> None:
        """``stats[key] = max(stats.get(key, value), value)`` — atomically.

        Drivers report high-water marks (workspace peaks) through this
        helper instead of open-coded read-modify-write, so a context
        shared by concurrent top-level calls (``threadsafe=True``) never
        loses an update.
        """
        if self._lock is not None:
            with self._lock:
                self.stats[key] = max(self.stats.get(key, value), value)
        else:
            self.stats[key] = max(self.stats.get(key, value), value)

    def stats_set(self, key: str, value: Any) -> None:
        """``stats[key] = value`` under the context lock (when present).

        For last-writer-wins snapshot entries (e.g. plan-cache counter
        snapshots), where the value itself is computed atomically by its
        owner and only the dictionary store needs serializing.
        """
        if self._lock is not None:
            with self._lock:
                self.stats[key] = value
        else:
            self.stats[key] = value

    # ------------------------------------------------------------------ #
    def model_time(self, method: str, *dims: int) -> Optional[float]:
        """Predicted seconds for a kernel on the attached machine.

        ``method`` names a timing method of the machine model
        (``"t_gemm"``, ``"t_add"``, ``"t_ger"``, ``"t_gemv"``,
        ``"t_copy"``, ``"t_scal"``).  Returns None when no machine model
        is attached (wall-clock mode).
        """
        if self.machine is None:
            return None
        return getattr(self.machine, method)(*dims)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mach = type(self.machine).__name__ if self.machine else None
        return (
            f"ExecutionContext(machine={mach}, dry={self.dry}, "
            f"flops={self.flops:.3g}, elapsed={self.elapsed:.3g}s)"
        )


def ensure_context(ctx: Optional[ExecutionContext]) -> ExecutionContext:
    """Return ``ctx`` or a fresh default context.

    Public entry points call this once and pass the result down the whole
    recursion, so a user who does not care about instrumentation pays only
    one small allocation per top-level call.
    """
    return ctx if ctx is not None else ExecutionContext()
