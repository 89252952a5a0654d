"""The shard worker process: one GemmService, arena-warm, GIL-free.

Each worker is a separate OS process hosting its own
:class:`~repro.serve.service.GemmService` with a **private**
:class:`~repro.plan.cache.PlanCache` and
:class:`~repro.core.pool.WorkspacePool`.  The router shards requests by
plan signature, so every signature lands on the same worker run after
run — its pooled arenas stay warm, and a request that a tuned profile
fuses compiles its plan once, in this worker's cache (the amortization
the in-process service already exploits, now multiplied across
processes instead of fighting over one GIL).

Operands never travel through the pipe: the router leases regions of
this worker's :class:`~repro.api.shm.ShmArena` and sends a descriptor
(offsets + shapes); :func:`worker_main` maps Fortran-ordered ndarray
*views* over the same physical pages and submits them to the local
service.  The result is written back into the descriptor's ``out``
region **before** the completion message is sent, so the router may
read it the moment the reply arrives.

Two threads per worker: the main thread drains the pipe (submissions
stay admission-ordered, so the shard's queue policy sees arrivals in
true order) and a responder thread resolves futures FIFO and replies.
Deadlines propagate: the descriptor carries the *remaining* seconds,
re-anchored on this process's clock, and the local admission queue
enforces it exactly like an in-process caller's.

Control ops: ``("stats", token)`` returns the service's full metrics
snapshot; ``("reload", token, directory)`` hot-swaps tuned profiles
into the worker's live :class:`~repro.tune.store.ProfileStore` (None =
the configured ``profile_dir``) without touching in-flight requests and
answers ``("reloaded", token, report)``; ``("drain",)`` closes the
service gracefully (stop admitting, flush in-flight batches, join
workers), flushes every queued reply, and answers ``("drained",
stats)`` before exiting — the clean-shutdown contract the api CI lane
asserts.
"""

from __future__ import annotations

import queue
import signal
import threading
import time
from typing import Any, Dict, Optional

from repro.api.shm import ShmArena
from repro.core.cutoff import SimpleCutoff
from repro.serve.service import GemmService
from repro.tune.store import ProfileStore

__all__ = ["worker_main", "WORKER_DEFAULTS"]

#: service knobs a worker accepts from the router (with defaults)
WORKER_DEFAULTS = {
    "threads": 1,
    "capacity": 256,
    "policy": "reject",
    "max_batch": 32,
    "profile_dir": None,
}

_STOP = object()


def _gemm_views(arena: ShmArena, d: Dict[str, Any]):
    """Map the descriptor's operand regions as ndarray views."""
    dtype = d["dtype"]
    a = arena.view(d["a"][0], (d["a"][1], d["a"][2]), dtype)
    b = arena.view(d["b"][0], (d["b"][1], d["b"][2]), dtype)
    c = None
    if d.get("c") is not None:
        c = arena.view(d["c"][0], (d["c"][1], d["c"][2]), dtype)
    return a, b, c


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
    knobs = dict(WORKER_DEFAULTS)
    knobs.update(cfg or {})
    arena = ShmArena.attach(shm_name)
    # Every worker carries a live ProfileStore; it starts empty (serving
    # defaults) unless a profile_dir was configured, and the "reload"
    # control op swaps new profiles in at any point without touching
    # requests already admitted.
    profile_dir = knobs.get("profile_dir")
    profiles = ProfileStore(profile_dir)
    if profile_dir:
        profiles.load()
    svc = GemmService(
        workers=int(knobs["threads"]),
        capacity=int(knobs["capacity"]),
        policy=str(knobs["policy"]),
        max_batch=int(knobs["max_batch"]),
        profiles=profiles,
    )
    send_lock = threading.Lock()
    pending: "queue.SimpleQueue" = queue.SimpleQueue()

    def reply(msg) -> None:
        with send_lock:
            try:
                conn.send(msg)
            except (BrokenPipeError, OSError):  # router died; nothing to do
                pass

    def respond_loop() -> None:
        while True:
            item = pending.get()
            if item is _STOP:
                return
            req_id, fut, out_desc, dtype = item
            try:
                result = fut.result()
            except BaseException as exc:  # noqa: BLE001 — wire taxonomy
                reply(("done", req_id, {
                    "ok": False,
                    "error": type(exc).__name__,
                    "detail": str(exc),
                }))
                continue
            out = arena.view(out_desc[0], (out_desc[1], out_desc[2]), dtype)
            out[...] = result
            reply(("done", req_id, {
                "ok": True,
                "wait_ms": (fut.wait_s or 0.0) * 1e3,
                "compute_ms": (fut.compute_s or 0.0) * 1e3,
                "batch_size": fut.batch_size,
            }))

    responder = threading.Thread(
        target=respond_loop, name="api-worker-responder", daemon=True
    )
    responder.start()

    def handle_gemm(req_id: int, d: Dict[str, Any]) -> None:
        try:
            a, b, c = _gemm_views(arena, d)
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
            reply(("done", req_id, {
                "ok": False,
                "error": type(exc).__name__,
                "detail": str(exc),
            }))
            return
        pending.put((req_id, fut, d["out"], d["dtype"]))

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
                stats["pid"] = __import__("os").getpid()
                reply(("stats", msg[1], stats))
            elif op == "reload":
                directory = msg[2] if len(msg) > 2 else None
                try:
                    report = profiles.load(directory)
                    report["ok"] = True
                except BaseException as exc:  # noqa: BLE001 — wire taxonomy
                    report = {
                        "ok": False,
                        "error": type(exc).__name__,
                        "detail": str(exc),
                    }
                report["profiles"] = profiles.stats()
                reply(("reloaded", msg[1], report))
            elif op == "drain":
                draining = True
                break
    finally:
        # Graceful path: stop admitting, let the service flush every
        # queued batch, then flush every queued reply before answering.
        t0 = time.monotonic()
        svc.close(drain=draining, timeout=max(1.0, float(
            knobs.get("drain_timeout", 30.0)
        )))
        pending.put(_STOP)
        responder.join(timeout=30.0)
        if draining:
            stats = svc.stats()
            stats["drain_s"] = time.monotonic() - t0
            reply(("drained", stats))
        arena.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
