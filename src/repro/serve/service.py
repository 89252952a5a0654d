"""GemmService: the in-process batched GEMM serving engine.

The service runs streams of requests through ``dgefmm``'s own serial
path: a :class:`~repro.core.pool.WorkspacePool` amortizes workspace to
zero fresh allocation, a :class:`~repro.plan.cache.PlanCache` compiles
the fused plan of each vendor signature whose root recurses once, and
the micro-batching scheduler amortizes the worker handoff — queue
lock, worker wakeup — across batches of the oldest queued requests.

Life of a request::

    submit() -> resolve knobs (explicit > tuned profile > default)
             -> GemmRequest: private output + the drivers' prologue
                (validation, dtype/accuracy, degenerate answers)
             -> AdmissionQueue (policy: reject/block/shed)
             -> worker takes the oldest queued requests as a batch
             -> one call into dgefmm's serial path per request: the
                walk (in a pooled arena when the root recurses and the
                dtype is typed), or, for a vendor request under fast
                accuracy whose root recurses, its fused plan from the
                PlanCache — bit-identical to the walk
             -> future resolves; metrics record wait/compute/latency

Results are **bit-identical** to a direct :func:`~repro.core.dgefmm.
dgefmm` call on the same operands, because the service runs the same
code after the same prologue — pinned end-to-end by
``tests/test_serve.py`` across every admission policy and re-checked
continuously by the fuzz oracle's ``served`` path.

Instrumentation uses per-worker accumulation + merge (each worker
charges a private :class:`~repro.context.ExecutionContext`; totals are
merged under a lock into a ``threadsafe=True`` aggregate on demand), so
the hot path stays lock-free while shared tallies stay exact.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional

import numpy as np

from repro.blas.level3 import DEFAULT_TILE
from repro.context import ExecutionContext
from repro.core.cutoff import CutoffCriterion
from repro.core.dgefmm import _serial
from repro.core.pool import WorkspacePool
from repro.errors import (
    ArgumentError,
    ServiceClosed,
    ServiceOverloaded,
    ServiceTimeout,
)
from repro.plan.cache import PlanCache
# not called here: benchmarks/e2e/trace.py patches this name
from repro.plan.executor import execute_plan  # noqa: F401
from repro.serve.metrics import MetricsRegistry
from repro.serve.queue import POLICIES, AdmissionQueue
from repro.serve.request import GemmFuture, GemmRequest

__all__ = ["GemmService"]


class GemmService:
    """Asynchronous, micro-batching, in-process GEMM server.

    Parameters
    ----------
    workers:
        Worker threads draining the queue.  Each executes whole batches;
        within a request execution is serial (the service parallelizes
        *across* requests, respecting one global thread budget instead
        of oversubscribing per-call parallelism on top of it).
    capacity, policy:
        Admission queue bound and overflow policy (see
        :mod:`repro.serve.queue`): ``"reject"``, ``"block"``, or
        ``"shed-oldest"``.
    max_batch:
        Most requests a worker takes from the queue at once, oldest
        first, and runs back to back.
    cutoff:
        Default cutoff criterion for submitted requests (must be a
        frozen, hashable criterion — it is part of the plan signature).
        None (the default) leaves it to each request's config, which
        takes :func:`~repro.core.config.default_cutoff` of the
        request's leaf kernel: ``DEFAULT_CUTOFF`` over the substrate,
        ``BLAS_CUTOFF`` over the vendor kernel.
    backend:
        Base-case kernel backend of requests no tuned profile governs
        (:data:`repro.blas.level3.BACKENDS`).  A ``"vendor"`` request
        under fast accuracy whose root recurses replays its fused plan
        (:mod:`repro.plan.fuse`), cached in ``plan_cache``, instead of
        walking; the bits are the walk's either way.
    plan_cache, pool, metrics:
        Bring-your-own shared instances (e.g. one cache across several
        services), or None for private ones.  Only fused replays use
        the plan cache.
    profiles:
        Optional tuned-profile resolver consulted at admission — any
        object exposing ``resolve(m, k, n, dtype=..., beta_zero=...)
        -> profile-or-None`` where a profile carries the GemmConfig
        knob attributes (``scheme``/``peel``/``cutoff``/``nb``/
        ``backend``), plus ``stats()``.  In practice a
        :class:`repro.tune.store.ProfileStore`; the parameter is
        duck-typed because the serve layer sits *below* tune in the
        layering lint and must not import it.  Resolution order per
        knob: explicit per-request argument > profile > service
        default.  Hot-swapping = mutating the store's contents;
        in-flight requests carry their already-resolved knobs, so a
        swap never disturbs them.

    Use as a context manager, or call :meth:`close` — workers are
    daemonic, but an orderly close drains or fails queued work and
    makes final metrics deterministic.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        capacity: int = 256,
        policy: str = "reject",
        max_batch: int = 32,
        cutoff: Optional[CutoffCriterion] = None,
        backend: str = "substrate",
        plan_cache: Optional[PlanCache] = None,
        pool: Optional[WorkspacePool] = None,
        metrics: Optional[MetricsRegistry] = None,
        profiles: Optional[Any] = None,
    ) -> None:
        if workers < 1:
            raise ArgumentError(
                "GemmService", "workers", f"must be >= 1, got {workers}"
            )
        if max_batch < 1:
            raise ArgumentError(
                "GemmService", "max_batch",
                f"must be >= 1, got {max_batch}",
            )
        self.cutoff = cutoff
        self.backend = backend
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self.pool = pool if pool is not None else WorkspacePool()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.profiles = profiles
        self.max_batch = int(max_batch)
        self._queue = AdmissionQueue(capacity, policy)
        self._closed = False
        self._close_lock = threading.Lock()

        m = self.metrics
        self._m_submitted = m.counter("requests_submitted")
        self._m_completed = m.counter("requests_completed")
        self._m_rejected = m.counter("requests_rejected")
        self._m_shed = m.counter("requests_shed")
        self._m_timeout = m.counter("requests_timeout")
        self._m_failed = m.counter("requests_failed")
        self._m_batches = m.counter("batches")
        self._m_profile = m.counter("profile_resolved")
        self._h_queue_depth = m.histogram("queue_depth")
        self._h_batch = m.histogram("batch_size")
        self._h_wait = m.histogram("wait_ms")
        self._h_compute = m.histogram("compute_ms")
        self._h_latency = m.histogram("latency_ms")
        self._f_sig_latency = m.histogram_family("latency_by_signature")

        # per-signature traffic accounting: label -> structured meta
        # (dims, dtype, beta class, knobs, count) for stats() and the
        # tuner's feed; the latency distribution itself lives in the
        # histogram family above under the same label
        self._sig_lock = threading.Lock()
        self._sig_meta: Dict[str, Dict[str, Any]] = {}

        # per-worker accumulation + merge: private contexts on the hot
        # path, merged into a fresh aggregate whenever a reader asks;
        # admission (degenerate answers) charges one shared context
        self._admit_ctx = ExecutionContext(threadsafe=True)
        self._worker_ctxs: List[ExecutionContext] = []
        self._threads: List[threading.Thread] = []
        for i in range(workers):
            wctx = ExecutionContext()
            self._worker_ctxs.append(wctx)
            t = threading.Thread(
                target=self._worker_loop, args=(wctx,),
                name=f"gemm-serve-{i}", daemon=True,
            )
            self._threads.append(t)
            t.start()

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        a: Any,
        b: Any,
        c: Optional[Any] = None,
        alpha: float = 1.0,
        beta: float = 0.0,
        transa: bool = False,
        transb: bool = False,
        *,
        timeout: Optional[float] = None,
        block_timeout: Optional[float] = None,
        cutoff: Optional[CutoffCriterion] = None,
        scheme: Optional[str] = None,
        peel: Optional[str] = None,
        nb: Optional[int] = None,
        accuracy: Optional[str] = None,
    ) -> GemmFuture:
        """Queue ``C <- alpha*op(A)*op(B) + beta*C``; returns a future.

        ``c`` supplies the initial C content when ``beta != 0`` (it is
        copied, never written — the future resolves to a *new* array);
        with ``beta == 0`` C is ignored, its dtype included.
        ``timeout`` is the request's service deadline in seconds: if it
        has not finished executing by then it fails with
        :class:`~repro.errors.ServiceTimeout`.  ``block_timeout`` bounds
        the submitter's wait under the ``"block"`` policy.  Operands
        ``a``/``b`` are held by reference and must not be mutated until
        the future resolves.

        The knob arguments (``cutoff``/``scheme``/``peel``/``nb``/
        ``accuracy``) default to None, meaning *no per-request
        override*: the effective value then comes from the tuned
        profile resolved for this problem's signature class (when the
        service has a ``profiles`` store and it holds a matching
        profile), else from the service defaults.  Passing an explicit
        value — including ``scheme="auto"`` or ``peel="tail"`` —
        always wins over both.  Resolution happens here, at admission:
        requests already queued keep their knobs across a profile
        hot-swap.

        ``accuracy`` is the request's accuracy SLO (one of
        :data:`repro.core.config.ACCURACIES`); unset, it defaults to
        the profile's, else — in the drivers' prologue — to the dtype's
        natural discipline (``"exact"`` for integer/object operands,
        ``"fast"`` otherwise).  The backend comes from the profile, else
        from the service.

        Admission runs ``dgefmm``'s own prologue, so every validation
        error it raises — malformed operands, illegal knobs, a
        non-integral scalar under exact accuracy — is raised here,
        synchronously; so are :class:`~repro.errors.ServiceOverloaded`
        (full queue, ``"reject"`` policy or ``"block"`` timeout) and
        :class:`~repro.errors.ServiceClosed`.  Execution failures
        arrive through the future.
        """
        if self._closed:
            raise ServiceClosed("service is closed")
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        prof = self._resolve_profile(a, b, c, transa, transb, beta)
        if prof is not None:
            self._m_profile.inc()
        req = GemmRequest(
            a, b, c, alpha, beta, transa, transb,
            cutoff=cutoff if cutoff is not None else (
                prof.cutoff if prof is not None else self.cutoff
            ),
            scheme=scheme if scheme is not None else (
                prof.scheme if prof is not None else "auto"
            ),
            peel=peel if peel is not None else (
                prof.peel if prof is not None else "tail"
            ),
            nb=nb if nb is not None else (
                prof.nb if prof is not None else DEFAULT_TILE
            ),
            backend=prof.backend if prof is not None else self.backend,
            # accuracy SLO: explicit > tuned profile > dtype default
            accuracy=accuracy if accuracy is not None else getattr(
                prof, "accuracy", None),
            deadline=deadline,
            ctx=self._admit_ctx,
        )
        self._h_queue_depth.observe(self._queue.depth)
        try:
            shed = self._queue.put(req, timeout=block_timeout)
        except ServiceOverloaded:
            self._m_rejected.inc()
            raise
        self._m_submitted.inc()
        if shed is not None:
            self._m_shed.inc()
            shed.future._set_exception(ServiceOverloaded(
                "shed by a newer request (shed-oldest policy)"
            ))
        return req.future

    def _resolve_profile(
        self,
        a: Any,
        b: Any,
        c: Optional[Any],
        transa: bool,
        transb: bool,
        beta: float,
    ) -> Optional[Any]:
        """The tuned profile governing this admission, or None.

        Best-effort by design: the problem dimensions are peeked from
        the operand shapes *before* full validation (which happens in
        ``GemmRequest``), so anything malformed simply resolves to no
        profile and fails with the same validation error as before.
        """
        if self.profiles is None:
            return None
        try:
            sa = a.shape
            sb = b.shape
            m, k = (sa[1], sa[0]) if transa else (sa[0], sa[1])
            n = sb[0] if transb else sb[1]
            if c is not None and beta != 0.0:
                dtype = str(np.asarray(c).dtype)
            else:
                dtype = str(np.result_type(a, b))
            return self.profiles.resolve(
                m, k, n, dtype=dtype, beta_zero=(beta == 0.0)
            )
        except Exception:  # noqa: BLE001 — resolution must never admit-fail
            return None

    def call(
        self,
        a: Any,
        b: Any,
        c: Optional[Any] = None,
        alpha: float = 1.0,
        beta: float = 0.0,
        transa: bool = False,
        transb: bool = False,
        **kwargs: Any,
    ) -> np.ndarray:
        """Synchronous convenience: submit and wait for the result."""
        timeout = kwargs.get("timeout")
        fut = self.submit(a, b, c, alpha, beta, transa, transb, **kwargs)
        return fut.result(timeout)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _worker_loop(self, wctx: ExecutionContext) -> None:
        while True:
            batch = self._queue.take_batch(self.max_batch)
            if batch is None:
                return
            if not batch:
                continue
            self._execute_batch(batch, wctx)

    def _execute_batch(
        self, batch: List[GemmRequest], wctx: ExecutionContext
    ) -> None:
        self._m_batches.inc()
        self._h_batch.observe(len(batch))

        for req in batch:
            t0 = time.monotonic()
            # checked per request: a deadline can pass while the
            # request's batch mates run
            if req.expired(t0):
                self._m_timeout.inc()
                req.future._set_exception(ServiceTimeout(
                    "deadline expired before execution"
                ))
                continue
            try:
                # degenerate requests were answered at admission
                if req.call is not None:
                    _serial(req.call, req.out, wctx, None, self.pool,
                            self.plan_cache)
            except BaseException as exc:  # noqa: BLE001 — per-request
                self._m_failed.inc()
                req.future._set_exception(exc)
                continue
            t1 = time.monotonic()
            fut = req.future
            # stamped at the request's own start, so the time behind
            # its batch mates is wait: wait + compute is the latency
            fut.wait_s = t0 - req.t_submit
            fut.compute_s = t1 - t0
            fut.batch_size = len(batch)
            self._h_wait.observe(fut.wait_s * 1e3)
            self._h_compute.observe(fut.compute_s * 1e3)
            latency_ms = (t1 - req.t_submit) * 1e3
            self._h_latency.observe(latency_ms)
            self._record_signature(req.call, latency_ms)
            self._m_completed.inc()
            fut._set_result(req.out)

    @staticmethod
    def _sig_label(call: Optional[Any]) -> str:
        """Compact stable label for one signature's traffic, read off
        the request's validated call."""
        if call is None:
            return "degenerate"
        m, k = call.a.shape
        cfg = call.cfg
        b = "b0" if call.beta == 0.0 else "bg"
        return (
            f"{m}x{k}x{call.b.shape[1]}:{cfg.dtype}:{b}:{cfg.scheme}"
            f":{cfg.backend}:{cfg.accuracy}"
        )

    def _record_signature(self, call: Optional[Any],
                          latency_ms: float) -> None:
        """Charge one completion to its signature's traffic breakdown.

        The histogram family bounds label cardinality itself; the meta
        map mirrors that bound so both stay in step.
        """
        label = self._sig_label(call)
        with self._sig_lock:
            meta = self._sig_meta.get(label)
            if meta is None:
                if len(self._sig_meta) >= 256:
                    label = "__overflow__"
                    meta = self._sig_meta.get(label)
                if meta is None:
                    # a degenerate request has no call to describe
                    meta = {} if call is None else {
                        "m": call.a.shape[0], "k": call.a.shape[1],
                        "n": call.b.shape[1],
                        "dtype": call.cfg.dtype,
                        "beta_zero": bool(call.beta == 0.0),
                        "scheme": call.cfg.scheme,
                        "backend": call.cfg.backend,
                        "accuracy": call.cfg.accuracy,
                    }
                    meta["count"] = 0
                    self._sig_meta[label] = meta
            meta["count"] += 1
        self._f_sig_latency.observe(label, latency_ms)

    # ------------------------------------------------------------------ #
    # lifecycle & introspection
    # ------------------------------------------------------------------ #
    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Shut down: stop admissions, then drain or fail queued work.

        ``drain=True`` lets workers finish everything queued;
        ``drain=False`` fails queued requests with
        :class:`~repro.errors.ServiceClosed` immediately.  Either way
        every accepted future resolves: whatever is still queued after
        the workers are joined (drain budget exhausted, or a worker
        died) fails with :class:`~repro.errors.ServiceClosed` rather
        than hanging its caller forever.  Idempotent.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        if not drain:
            for req in self._queue.drain():
                req.future._set_exception(
                    ServiceClosed("service closed before execution")
                )
        self._queue.close()
        deadline = time.monotonic() + timeout
        for t in self._threads:
            t.join(max(0.0, deadline - time.monotonic()))
        # Nothing may be left dangling: a timed-out drain (or a dead
        # worker) can strand accepted requests in the queue with their
        # futures unresolved.
        for req in self._queue.drain():
            req.future._set_exception(
                ServiceClosed("service closed before execution")
            )

    def __enter__(self) -> "GemmService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    @property
    def queue_depth(self) -> int:
        """Requests currently queued (not yet picked up by a worker)."""
        return self._queue.depth

    def context(self) -> ExecutionContext:
        """Aggregate instrumentation: per-worker counters, merged.

        The per-worker-accumulation-plus-merge pattern: worker hot
        paths charge private contexts with no locking, and a *fresh*
        threadsafe aggregate is built on the reader's clock each call
        (so repeated reads never double-count).  While traffic is in
        flight the aggregate can lag by the charges of the instant it
        was taken; after :meth:`close` it is exact.
        """
        agg = ExecutionContext(threadsafe=True)
        for wctx in (self._admit_ctx, *self._worker_ctxs):
            agg.merge_child(wctx)
        return agg

    def stats(self) -> Dict[str, Any]:
        """One JSON-serializable snapshot of the whole serving stack."""
        snap = self.metrics.snapshot()
        snap["plan_cache"] = self.plan_cache.stats()
        snap["pool"] = self.pool.stats()
        snap["queue"] = {
            "depth": self._queue.depth,
            "capacity": self._queue.capacity,
            "policy": self._queue.policy,
        }
        ctx = self.context()
        snap["work"] = {
            "flops": ctx.flops,
            "mul_flops": ctx.mul_flops,
            "add_flops": ctx.add_flops,
            "kernel_calls": dict(ctx.kernel_calls),
        }
        # per-signature traffic breakdown: structured meta + the latency
        # distribution recorded under the same label — what the tuner's
        # feed (repro.tune.feed) and capacity planners read
        lat = self._f_sig_latency.snapshot()
        with self._sig_lock:
            metas = {k: dict(v) for k, v in self._sig_meta.items()}
        snap["signatures"] = {
            label: {**meta, "latency_ms": lat.get(label)}
            for label, meta in sorted(metas.items())
        }
        if self.profiles is not None:
            try:
                snap["profiles"] = self.profiles.stats()
            except Exception:  # noqa: BLE001 — stats must never fail
                snap["profiles"] = None
        return snap

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"GemmService(workers={len(self._threads)}, "
            f"policy={self._queue.policy!r}, depth={self._queue.depth}, "
            f"max_batch={self.max_batch}, closed={self._closed})"
        )
