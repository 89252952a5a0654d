"""Requests and futures: the unit of work the serving engine moves.

A :class:`GemmRequest` is one admitted ``C <- alpha*op(A)*op(B) +
beta*C`` problem.  Admission runs the drivers' own front door
(:func:`repro.core.dgefmm._prologue`) on the request's private output,
so operand validation, dtype and accuracy resolution, exact-scalar
coercion and the degenerate cases are exactly ``dgefmm``'s.  The
request keeps the prologue's call and that output; a worker runs the
call through ``dgefmm``'s own serial path.  Degenerate problems (empty
output, ``k == 0``, ``alpha == 0``) are answered by the prologue at
admission and carry no call.

A :class:`GemmFuture` is the caller's handle: ``result(timeout)`` blocks
until the worker publishes the output array or the failure
(:class:`~repro.errors.ServiceOverloaded` when shed,
:class:`~repro.errors.ServiceTimeout` on deadline expiry, or whatever
the execution raised).  Completed futures also expose the per-request
latency split — ``wait_s`` before its own execution starts versus
``compute_s`` on a worker, which sum to its service latency —
and the size of the batch they rode in; ``add_done_callback(fn)`` runs
``fn(future)`` on the thread that completes it.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Any, Callable, List, Optional

import numpy as np

from repro.blas.level3 import DEFAULT_TILE
from repro.blas.validate import opshape, require_matrix
from repro.context import ExecutionContext, ensure_context
from repro.core.cutoff import CutoffCriterion
from repro.core.dgefmm import _prologue
from repro.errors import ServiceTimeout

__all__ = ["GemmFuture", "GemmRequest"]

_log = logging.getLogger(__name__)


class GemmFuture:
    """Write-once result handle for one submitted request."""

    __slots__ = ("_event", "_result", "_exception", "_callbacks",
                 "wait_s", "compute_s", "batch_size")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._result: Optional[np.ndarray] = None
        self._exception: Optional[BaseException] = None
        self._callbacks: List[Callable[["GemmFuture"], Any]] = []
        #: seconds from submission to the start of this request's own
        #: execution, the time behind its batch mates included
        self.wait_s: Optional[float] = None
        #: seconds of worker execution for this request alone
        self.compute_s: Optional[float] = None
        #: how many requests shared the batch (1 = unbatched)
        self.batch_size: Optional[int] = None

    # ------------------------------------------------------------------ #
    def done(self) -> bool:
        """True once a result or failure has been published."""
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """The output array C; blocks until published.

        Raises the request's failure if it was rejected, shed, timed
        out, or crashed; raises :class:`~repro.errors.ServiceTimeout`
        if ``timeout`` seconds elapse first (the request itself stays
        in flight — a later ``result()`` can still succeed).
        """
        if not self._event.wait(timeout):
            raise ServiceTimeout(
                f"result not available within {timeout} s"
            )
        if self._exception is not None:
            raise self._exception
        return self._result

    def exception(
        self, timeout: Optional[float] = None
    ) -> Optional[BaseException]:
        """The failure, or None for success; blocks like :meth:`result`."""
        if not self._event.wait(timeout):
            raise ServiceTimeout(
                f"result not available within {timeout} s"
            )
        return self._exception

    def add_done_callback(self, fn: Callable[["GemmFuture"], Any]) -> None:
        """Call ``fn(self)`` once: on the thread that completes the
        future, or at once if it is done.  What ``fn`` raises is logged,
        never passed on to the service thread that completed it."""
        self._callbacks.append(fn)
        if self._event.is_set():
            self._run_callbacks()

    # ------------------------------------------------------------------ #
    def _set_result(self, value: np.ndarray) -> None:
        self._result = value
        self._event.set()
        if self._callbacks:
            self._run_callbacks()

    def _set_exception(self, exc: BaseException) -> None:
        self._exception = exc
        self._event.set()
        if self._callbacks:
            self._run_callbacks()

    def _run_callbacks(self) -> None:
        # list.pop is atomic: a callback registered while the future
        # completes runs once, on whichever thread pops it
        while self._callbacks:
            try:
                fn = self._callbacks.pop(0)
            except IndexError:
                return
            try:
                fn(self)
            except Exception:  # noqa: BLE001 — never into the completer
                _log.exception("GemmFuture done callback %r raised", fn)


class GemmRequest:
    """One validated GEMM problem queued for service.

    Built by :meth:`~repro.serve.service.GemmService.submit`; not
    normally constructed directly.  Operands are held by reference —
    the caller must not mutate ``a``/``b`` until the future resolves.
    ``out`` is the request's private output: a fresh Fortran-ordered
    array typed by A and B when ``beta == 0`` (conformant GEMM never
    reads C then, its dtype included), else a copy of C — so the
    caller's C is never written and repeated submissions of one logical
    request stay independent.  ``call`` is the prologue's validated
    call (None for a degenerate problem, whose ``out`` already holds
    the answer) and ``ctx`` takes the prologue's charges.
    ``cutoff=None`` takes the default of the request's leaf kernel, like
    ``dgefmm``'s.
    """

    __slots__ = ("call", "out", "future", "deadline", "t_submit")

    def __init__(
        self,
        a: Any,
        b: Any,
        c: Optional[Any] = None,
        alpha: float = 1.0,
        beta: float = 0.0,
        transa: bool = False,
        transb: bool = False,
        *,
        cutoff: Optional[CutoffCriterion],
        scheme: str = "auto",
        peel: str = "tail",
        nb: int = DEFAULT_TILE,
        backend: str = "substrate",
        accuracy: Optional[str] = None,
        deadline: Optional[float] = None,
        ctx: Optional[ExecutionContext] = None,
    ) -> None:
        where = "GemmService.submit"
        if beta == 0.0:
            # typed errors before the operands' shapes size the output
            require_matrix(where, "a", a)
            require_matrix(where, "b", b)
            out = np.zeros((opshape(a, transa)[0], opshape(b, transb)[1]),
                           dtype=np.result_type(a, b), order="F")
        else:
            require_matrix(where, "c", c)
            out = np.array(c, copy=True)
        self.call = _prologue(
            where, a, b, out, alpha, beta, transa, transb,
            ensure_context(ctx), cutoff, scheme, peel, nb, backend,
            accuracy,
        )
        self.out = out
        self.deadline = deadline
        self.future = GemmFuture()
        self.t_submit = time.monotonic()

    def expired(self, now: Optional[float] = None) -> bool:
        """True when the request's deadline has passed."""
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) > self.deadline

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "degenerate" if self.call is None else self.call.cfg
        return f"GemmRequest({self.out.shape}, {kind})"
