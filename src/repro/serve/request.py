"""Requests and futures: the unit of work the serving engine moves.

A :class:`GemmRequest` is one admitted ``C <- alpha*op(A)*op(B) +
beta*C`` problem.  Admission runs the drivers' own front door
(:func:`repro.core.dgefmm._prologue`) on the request's private output,
so operand validation, dtype and accuracy resolution, exact-scalar
coercion and the degenerate cases are exactly ``dgefmm``'s.  The
request keeps the prologue's call, that output, and the call's serial
:class:`~repro.plan.compiler.PlanSignature` — the key the micro-batcher
groups by and, for a fused request, the plan cache's key.  A worker
runs the call through ``dgefmm``'s own serial path.  Degenerate
problems (empty output, ``k == 0``, ``alpha == 0``) are answered by the
prologue at admission; they carry no call and no signature, so each
queues alone.

A :class:`GemmFuture` is the caller's handle: ``result(timeout)`` blocks
until the worker publishes the output array or the failure
(:class:`~repro.errors.ServiceOverloaded` when shed,
:class:`~repro.errors.ServiceTimeout` on deadline expiry, or whatever
the execution raised).  Completed futures also expose the per-request
latency split — ``wait_s`` in queue versus ``compute_s`` on a worker —
and the size of the batch they rode in.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Optional

import numpy as np

from repro.blas.level3 import DEFAULT_TILE
from repro.blas.validate import opshape, require_matrix
from repro.context import ExecutionContext, ensure_context
from repro.core.config import resolve_config
from repro.core.cutoff import CutoffCriterion
from repro.core.dgefmm import _prologue
from repro.errors import ServiceTimeout

__all__ = ["GemmFuture", "GemmRequest"]


class GemmFuture:
    """Write-once result handle for one submitted request."""

    __slots__ = ("_event", "_result", "_exception",
                 "wait_s", "compute_s", "batch_size")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._result: Optional[np.ndarray] = None
        self._exception: Optional[BaseException] = None
        #: seconds spent queued before a worker picked the request up
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

    # ------------------------------------------------------------------ #
    def _set_result(self, value: np.ndarray) -> None:
        self._result = value
        self._event.set()

    def _set_exception(self, exc: BaseException) -> None:
        self._exception = exc
        self._event.set()


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

    ``fuse=None`` is a *defaulted* fuse: it fuses only when the
    resolved accuracy is ``"fast"`` (fused programs exist for the fast
    kernels only), whereas an explicit ``fuse=True`` conflict is a
    validation error.  ``cutoff=None`` takes the default of the kernel
    the request ends up with, fused or not, like ``dgefmm``'s.
    """

    __slots__ = ("call", "out", "signature", "future", "deadline", "seq",
                 "t_submit")

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
        fuse: Optional[bool] = False,
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
        call = _prologue(
            where, a, b, out, alpha, beta, transa, transb,
            ensure_context(ctx), cutoff, scheme, peel, nb, backend,
            False if fuse is None else fuse, accuracy,
        )
        if fuse is None and call is not None and call.cfg.accuracy == "fast":
            # re-resolved from the caller's cutoff: a defaulted one
            # follows the fused leaves, as in dgefmm(fuse=True)
            cfg = call.cfg
            call = call._replace(cfg=resolve_config(
                cfg.scheme, cfg.peel, cutoff, cfg.nb, cfg.backend, True,
                cfg.dtype, cfg.accuracy,
            ))
        self.call = call
        self.out = out
        self.signature = None if call is None else call.signature("serial")
        self.deadline = deadline
        self.future = GemmFuture()
        self.seq = -1            # assigned at admission
        self.t_submit = time.monotonic()

    def expired(self, now: Optional[float] = None) -> bool:
        """True when the request's deadline has passed."""
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) > self.deadline

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GemmRequest({self.signature or 'degenerate'})"
