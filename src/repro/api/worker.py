"""The shard worker process: one GemmService, arena-warm, GIL-free.

Each worker is a separate OS process hosting its own
:class:`~repro.serve.service.GemmService` with a **private**
:class:`~repro.plan.cache.PlanCache` and
:class:`~repro.core.pool.WorkspacePool`.  The router sends each request
to the least-loaded worker, so every worker serves every signature: a
request that a tuned profile gives the vendor backend compiles its
fused plan once per worker, when its root recurses, in this worker's
cache, and the pool keeps arenas sized for the shapes this worker has
served (the amortization the in-process service already exploits, now
multiplied across processes instead of fighting over one GIL).

Operands never travel through the pipe: the router leases regions of
this worker's :class:`~repro.api.shm.ShmArena` and sends a descriptor
(offsets + shapes); :func:`worker_main` maps Fortran-ordered ndarray
*views* over the same physical pages and submits them to the local
service.  The result is written back into the descriptor's ``out``
region **before** the completion message is sent, so the router may
read it the moment the reply arrives.

No thread of the worker's own: the main thread drains the pipe
(submissions stay admission-ordered, so the shard's queue policy sees
arrivals in true order), and each request replies from a done-callback
on whichever thread completes its future — the service thread that ran
it or expired it, the main thread for a request shed at admission or
failed by ``close``.  One lock serializes every send on the pipe.
Deadlines propagate: the descriptor carries the *remaining* seconds,
re-anchored on this process's clock, and the local admission queue
enforces it exactly like an in-process caller's.

Control ops: ``("stats", token)`` returns the service's full metrics
snapshot; ``("reload", token, directory)`` hot-swaps tuned profiles
into the worker's live :class:`~repro.tune.store.ProfileStore` (None =
the configured ``profile_dir``) without touching in-flight requests and
answers ``("reloaded", token, report)``; ``("drain",)`` closes the
service gracefully (stop admitting, flush in-flight batches, join the
service threads, whose callbacks send every remaining reply), and
answers ``("drained", stats)`` before exiting — the clean-shutdown
contract the api CI lane asserts.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from typing import Any, Dict, Optional

from repro.api.shm import ShmArena
from repro.core.cutoff import SimpleCutoff
from repro.serve.service import GemmService
from repro.tune.store import ProfileStore

__all__ = ["worker_main"]

#: seconds a draining worker gives its service to flush queued batches
DRAIN_TIMEOUT_S = 30.0


def _failure(exc: BaseException) -> Dict[str, Any]:
    """The reply body for a request or control op that raised."""
    return {"ok": False, "error": type(exc).__name__, "detail": str(exc)}


def _gemm_views(arena: ShmArena, d: Dict[str, Any]):
    """Views of the descriptor's ``a``, ``b``, ``c`` and ``out`` regions
    (``c`` is None when the request has no C)."""
    return [None if d[x] is None
            else arena.view(d[x][0], d[x][1:], d["dtype"])
            for x in ("a", "b", "c", "out")]


def worker_main(conn, shm_name: str, cfg: Dict[str, Any]) -> None:
    """Entry point of one worker process (spawn-safe, import-by-name)."""
    # A terminal Ctrl-C signals the whole foreground process group,
    # workers included.  Shutdown is coordinated by the router over the
    # pipe (the "drain" op), so a worker taking its own KeyboardInterrupt
    # mid-recv would abandon in-flight requests and die loudly instead
    # of draining.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover — exotic platforms
        pass
    arena = ShmArena.attach(shm_name)
    # Every worker carries a live ProfileStore; it starts empty (serving
    # defaults) unless a profile_dir was configured, and the "reload"
    # control op swaps new profiles in at any point without touching
    # requests already admitted.
    profile_dir = cfg["profile_dir"]
    profiles = ProfileStore(profile_dir)
    if profile_dir:
        profiles.load()
    svc = GemmService(
        workers=cfg["threads"],
        capacity=cfg["capacity"],
        policy=cfg["policy"],
        max_batch=cfg["max_batch"],
        profiles=profiles,
    )
    send_lock = threading.Lock()

    def reply(msg) -> None:
        with send_lock:
            try:
                conn.send(msg)
            except (BrokenPipeError, OSError):  # router died; nothing to do
                pass

    def handle_gemm(req_id: int, d: Dict[str, Any]) -> None:
        try:
            a, b, c, out = _gemm_views(arena, d)
            timeout: Optional[float] = d.get("timeout")
            cutoff = None if d.get("tau") is None else SimpleCutoff(d["tau"])
            # Wire defaults mean "the client didn't ask": map them to
            # None so tuned profiles can govern.  An explicit client
            # pin survives because it differs from the default — except
            # scheme="auto"/peel="tail" themselves, which are identical
            # to the no-request case by the wire protocol's design (the
            # request dict carries no was-it-explicit bit).
            scheme = None if d["scheme"] == "auto" else d["scheme"]
            peel = None if d["peel"] == "tail" else d["peel"]
            # accuracy is already None when the wire header omitted it
            # (no-override: profile, then dtype default, governs)
            fut = svc.submit(
                a, b, c, d["alpha"], d["beta"], d["transa"], d["transb"],
                timeout=timeout, block_timeout=timeout,
                cutoff=cutoff, scheme=scheme, peel=peel,
                accuracy=d.get("accuracy"),
            )
        except BaseException as exc:  # noqa: BLE001 — admission failures
            reply(("done", req_id, _failure(exc)))
            return

        def finish(fut) -> None:
            # the result lands in the out region before the reply leaves
            try:
                out[...] = fut.result()
                body = {
                    "ok": True,
                    "wait_ms": (fut.wait_s or 0.0) * 1e3,
                    "compute_ms": (fut.compute_s or 0.0) * 1e3,
                    "batch_size": fut.batch_size,
                }
            except BaseException as exc:  # noqa: BLE001 — wire taxonomy
                body = _failure(exc)
            reply(("done", req_id, body))

        fut.add_done_callback(finish)

    draining = False
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            op = msg[0]
            if op == "gemm":
                handle_gemm(msg[1], msg[2])
            elif op == "stats":
                stats = svc.stats()
                stats["pid"] = os.getpid()
                reply(("stats", msg[1], stats))
            elif op == "reload":
                directory = msg[2] if len(msg) > 2 else None
                try:
                    report = profiles.load(directory)
                    report["ok"] = True
                except BaseException as exc:  # noqa: BLE001 — wire taxonomy
                    report = _failure(exc)
                report["profiles"] = profiles.stats()
                reply(("reloaded", msg[1], report))
            elif op == "drain":
                draining = True
                break
    finally:
        # Graceful path: stop admitting and let the service flush every
        # queued batch.  Each request replies as it completes, so once
        # close() has joined the service threads every reply is sent.
        t0 = time.monotonic()
        svc.close(drain=draining, timeout=DRAIN_TIMEOUT_S)
        if draining:
            stats = svc.stats()
            stats["drain_s"] = time.monotonic() - t0
            reply(("drained", stats))
        arena.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
