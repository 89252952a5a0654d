"""Signature-sharded router over a pool of worker processes.

The router owns the worker pool: it spawns each
:func:`~repro.api.worker.worker_main` process (``spawn`` context — the
front-end runs an event loop and threads, which ``fork`` would
duplicate into the children), one pipe and one
:class:`~repro.api.shm.ShmArena` per worker, and dispatches every
request to the shard its **plan signature** consistently hashes to.
Sharding by signature is the point of the whole design: a signature
always lands on the same worker, so that worker's queue batches its
requests together, its :class:`~repro.core.pool.WorkspacePool` keeps
warm arenas sized for exactly the signatures it serves, and a fused
signature compiles its plan once in the worker's private
:class:`~repro.plan.cache.PlanCache` — warm serving without any
cross-process cache coherence.

The hash ring is the classic consistent-hashing construction (64
virtual nodes per shard, BLAKE2b points): adding or losing a worker
remaps only the keys adjacent to its vnodes, and lookups walk the ring
past dead shards so a crashed worker degrades capacity instead of
availability.

Backpressure mirrors the in-process admission policies
(:mod:`repro.serve.queue`) at the dispatch boundary: each shard has a
:class:`ShardGate` bounding its in-flight requests, and at capacity the
configured policy decides — ``reject`` fails fast
(:class:`~repro.errors.ServiceOverloaded` → HTTP 503), ``block`` makes
the dispatcher await a slot (bounded by the request deadline), and
``shed-oldest`` fails the oldest *waiting* dispatch so the wait set
stays fresh.  The same policy configures each worker's own
``AdmissionQueue``, so the deep queue behaves identically.  Deadlines
propagate end to end: the wire's ``timeout_ms`` bounds the gate wait,
and the remaining budget rides the descriptor into the worker's
admission queue.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import itertools
import multiprocessing as mp
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.api.shm import ShmArena, ShmLease
from repro.api.worker import worker_main
from repro.blas.level3 import DEFAULT_TILE
from repro.core.config import resolve_config
from repro.core.cutoff import SimpleCutoff
from repro.errors import (
    ArgumentError,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
    ServiceTimeout,
    WorkspaceError,
)
from repro.plan.compiler import signature_for
from repro.serve.queue import POLICIES

__all__ = ["HashRing", "Router", "ShardGate", "routing_signature"]

#: default shared-memory transport size per worker
DEFAULT_ARENA_BYTES = 64 * 1024 * 1024


# ---------------------------------------------------------------------- #
# consistent hashing
# ---------------------------------------------------------------------- #
def _hash_point(key: str) -> int:
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Consistent hash ring: ``vnodes`` points per shard, BLAKE2b keyed.

    Deterministic across processes and runs (no PYTHONHASHSEED
    dependence), so a given signature routes to the same shard on every
    server start with the same worker count — warm-start friendly.
    """

    def __init__(self, n_shards: int, vnodes: int = 64) -> None:
        if n_shards < 1:
            raise ArgumentError(
                "HashRing", "n_shards", f"must be >= 1, got {n_shards}"
            )
        self.n_shards = n_shards
        self.vnodes = vnodes
        points: List[Tuple[int, int]] = []
        for idx in range(n_shards):
            for v in range(vnodes):
                points.append((_hash_point(f"shard-{idx}-vnode-{v}"), idx))
        points.sort()
        self._points = points
        self._keys = [p[0] for p in points]

    def lookup(self, key: str, alive=None) -> Optional[int]:
        """Shard index for ``key``; walks past shards ``alive`` rejects.

        Returns None when every shard is rejected (no live workers).
        """
        h = _hash_point(key)
        start = bisect.bisect_left(self._keys, h) % len(self._points)
        for step in range(len(self._points)):
            idx = self._points[(start + step) % len(self._points)][1]
            if alive is None or alive(idx):
                return idx
        return None


def routing_signature(g: Dict[str, Any]) -> str:
    """The ring key for one validated gemm request.

    Batchable requests key on the **exact PlanSignature** their shard's
    service will batch them by (resolved through the same
    ``resolve_config`` and ``signature_for`` the in-process path uses,
    wire defaults for ``nb``/``backend``), so shard-affinity and
    batching can never drift apart, and a repeated request builds
    neither a config nor a signature.  Degenerate problems (zero
    dims, ``alpha == 0``) never reach the plan machinery; they key on
    their coordinates just to spread across shards.
    """
    m, k, n = g["m"], g["k"], g["n"]
    if m == 0 or n == 0 or k == 0 or g["alpha"] == 0:
        return f"solo:{m}x{k}x{n}:{g['dtype']}"
    cfg = resolve_config(
        g["scheme"], g["peel"],
        None if g["tau"] is None else SimpleCutoff(g["tau"]),
        DEFAULT_TILE, "substrate", False, g["dtype"], g.get("accuracy"),
    )
    sig = signature_for(
        "serial", m, k, n, g["transa"], g["transb"],
        False, g["beta"] == 0, g["dtype"], cfg,
    )
    return repr(sig)


# ---------------------------------------------------------------------- #
# per-shard dispatch gate
# ---------------------------------------------------------------------- #
class ShardGate:
    """Bounded in-flight gate with the admission-queue policy vocabulary.

    Single event loop only (no locks).  ``acquire`` admits immediately
    while slots are free; at capacity the policy decides: ``reject``
    raises, ``block`` waits FIFO (bounded by the request deadline),
    ``shed-oldest`` fails the oldest waiter and then waits — the wait
    set keeps the newest work, matching the in-process queue's
    freshness-first semantics.  Slots transfer directly to the next
    live waiter on :meth:`release`.
    """

    def __init__(self, capacity: int, policy: str) -> None:
        if capacity < 1:
            raise ArgumentError(
                "ShardGate", "capacity", f"must be >= 1, got {capacity}"
            )
        if policy not in POLICIES:
            raise ArgumentError(
                "ShardGate", "policy",
                f"must be one of {POLICIES}, got {policy!r}",
            )
        self.capacity = int(capacity)
        self.policy = policy
        self._inflight = 0
        self._waiters: Deque[asyncio.Future] = deque()
        self.admitted = 0
        self.rejected = 0
        self.shed = 0

    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def waiting(self) -> int:
        return sum(1 for f in self._waiters if not f.done())

    async def acquire(self, deadline: Optional[float] = None) -> None:
        if self._inflight < self.capacity and not self.waiting:
            self._inflight += 1
            self.admitted += 1
            return
        if self.policy == "reject":
            self.rejected += 1
            raise ServiceOverloaded(
                f"shard at capacity ({self._inflight}/{self.capacity})"
            )
        if self.policy == "shed-oldest":
            while self._waiters:
                old = self._waiters.popleft()
                if not old.done():
                    old.set_exception(ServiceOverloaded(
                        "shed by a newer request (shed-oldest policy)"
                    ))
                    self.shed += 1
                    break
        fut = asyncio.get_running_loop().create_future()
        self._waiters.append(fut)
        try:
            if deadline is None:
                await fut
            else:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    fut.cancel()
                    self.rejected += 1
                    raise ServiceOverloaded(
                        "deadline expired waiting for a dispatch slot"
                    )
                await asyncio.wait_for(fut, remaining)
        except asyncio.TimeoutError:
            self.rejected += 1
            raise ServiceOverloaded(
                f"no dispatch slot within the request deadline "
                f"({self._inflight}/{self.capacity} in flight)"
            ) from None
        self.admitted += 1

    def release(self) -> None:
        while self._waiters:
            fut = self._waiters.popleft()
            if not fut.done():
                fut.set_result(None)   # slot transfers to the waiter
                return
        self._inflight -= 1

    def stats(self) -> Dict[str, int]:
        return {
            "capacity": self.capacity,
            "policy": self.policy,
            "inflight": self._inflight,
            "waiting": self.waiting,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "shed": self.shed,
        }


# ---------------------------------------------------------------------- #
# the router
# ---------------------------------------------------------------------- #
class _Shard:
    """One worker process and its transport state (router side)."""

    def __init__(self, idx: int) -> None:
        self.idx = idx
        self.proc: Optional[mp.process.BaseProcess] = None
        self.conn = None
        self.arena: Optional[ShmArena] = None
        self.gate: Optional[ShardGate] = None
        self.reader: Optional[threading.Thread] = None
        self.alive = False
        self.inflight: Dict[int, asyncio.Future] = {}
        self.control: Dict[int, asyncio.Future] = {}
        self.routed = 0
        self.completed = 0
        self.failed = 0
        self.final_stats: Optional[Dict[str, Any]] = None


class Router:
    """Spawns, shards over, and drains the worker-process pool."""

    def __init__(
        self,
        *,
        workers: int = 2,
        threads: int = 1,
        capacity: int = 256,
        policy: str = "reject",
        max_batch: int = 32,
        arena_bytes: int = DEFAULT_ARENA_BYTES,
        gate_capacity: Optional[int] = None,
        profile_dir: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ArgumentError(
                "Router", "workers", f"must be >= 1, got {workers}"
            )
        self.workers = int(workers)
        self.worker_cfg = {
            "threads": int(threads),
            "capacity": int(capacity),
            "policy": str(policy),
            "max_batch": int(max_batch),
            "profile_dir": profile_dir,
        }
        self.profile_dir = profile_dir
        self.policy = str(policy)
        self.arena_bytes = int(arena_bytes)
        self.gate_capacity = int(
            gate_capacity if gate_capacity is not None else capacity
        )
        self.ring = HashRing(self.workers)
        self._shards: List[_Shard] = [_Shard(i) for i in range(self.workers)]
        self._ids = itertools.count(1)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._draining = False
        self._started = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Spawn every worker and its reader thread."""
        self._loop = asyncio.get_running_loop()
        ctx = mp.get_context("spawn")
        for shard in self._shards:
            shard.arena = ShmArena(self.arena_bytes)
            shard.gate = ShardGate(self.gate_capacity, self.policy)
            parent, child = ctx.Pipe()
            shard.conn = parent
            shard.proc = ctx.Process(
                target=worker_main,
                args=(child, shard.arena.name, self.worker_cfg),
                name=f"repro-api-worker-{shard.idx}",
                daemon=True,
            )
            shard.proc.start()
            child.close()
            shard.alive = True
            shard.reader = threading.Thread(
                target=self._read_loop, args=(shard,),
                name=f"api-shard-reader-{shard.idx}", daemon=True,
            )
            shard.reader.start()
        self._started = True

    def _read_loop(self, shard: _Shard) -> None:
        while True:
            try:
                msg = shard.conn.recv()
            except (EOFError, OSError):
                break
            self._loop.call_soon_threadsafe(self._on_message, shard, msg)
        self._loop.call_soon_threadsafe(self._on_reader_exit, shard)

    def _on_message(self, shard: _Shard, msg) -> None:
        kind = msg[0]
        if kind == "done":
            fut = shard.inflight.pop(msg[1], None)
            if fut is not None and not fut.done():
                fut.set_result(msg[2])
        elif kind in ("stats", "reloaded"):
            fut = shard.control.pop(msg[1], None)
            if fut is not None and not fut.done():
                fut.set_result(msg[2])
        elif kind == "drained":
            shard.final_stats = msg[1]
            fut = shard.control.pop(-1, None)
            if fut is not None and not fut.done():
                fut.set_result(msg[1])

    def _on_reader_exit(self, shard: _Shard) -> None:
        shard.alive = False
        exc = ServiceError(f"api worker {shard.idx} exited")
        for fut in list(shard.inflight.values()):
            if not fut.done():
                fut.set_exception(exc)
        shard.inflight.clear()
        for fut in list(shard.control.values()):
            if not fut.done():
                fut.set_exception(exc)
        shard.control.clear()

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def shard_index_for(self, key: str) -> Optional[int]:
        """Ring lookup skipping dead shards (None = no live workers)."""
        return self.ring.lookup(
            key, alive=lambda i: self._shards[i].alive
        )

    async def dispatch(
        self, g: Dict[str, Any], payloads: Sequence[bytes]
    ) -> Tuple[Dict[str, Any], bytes]:
        """Route one validated gemm request; returns (header, payload).

        Worker-reported failures come back as ``status="error"``
        headers; router-side failures (overload, timeout, closed) raise
        the corresponding :mod:`repro.errors` exception for the server
        to map onto the wire.
        """
        if self._draining or not self._started:
            raise ServiceClosed("api server is draining")
        key = routing_signature(g)
        idx = self.shard_index_for(key)
        if idx is None:
            raise ServiceClosed("no live workers")
        shard = self._shards[idx]
        deadline = None
        if g["timeout_ms"] is not None:
            deadline = time.monotonic() + g["timeout_ms"] / 1e3

        await shard.gate.acquire(deadline)
        leases: List[ShmLease] = []
        req_id = next(self._ids)
        try:
            try:
                for buf in payloads:
                    leases.append(shard.arena.lease(len(buf)))
                out_lease = shard.arena.lease(g["out_bytes"])
                leases.append(out_lease)
            except WorkspaceError as exc:
                raise ServiceOverloaded(
                    f"shard {idx} transport arena full: {exc}"
                ) from None
            for lease, buf in zip(leases, payloads):
                shard.arena.write_bytes(lease, buf)

            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServiceTimeout(
                        "deadline expired before dispatch"
                    )
            desc = {
                "m": g["m"], "k": g["k"], "n": g["n"],
                "transa": g["transa"], "transb": g["transb"],
                "alpha": g["alpha"], "beta": g["beta"],
                "dtype": g["dtype"], "tau": g["tau"],
                "scheme": g["scheme"], "peel": g["peel"],
                "accuracy": g.get("accuracy"),
                "timeout": remaining,
                "a": (leases[0].offset, *g["a_shape"]),
                "b": (leases[1].offset, *g["b_shape"]),
                "c": ((leases[2].offset, g["m"], g["n"])
                      if g["has_c"] else None),
                "out": (out_lease.offset, g["m"], g["n"]),
            }
            fut = self._loop.create_future()
            shard.inflight[req_id] = fut
            shard.routed += 1
            try:
                shard.conn.send(("gemm", req_id, desc))
            except (BrokenPipeError, OSError):
                shard.inflight.pop(req_id, None)
                raise ServiceError(f"api worker {idx} unreachable") from None
            d = await fut
            if d["ok"]:
                shard.completed += 1
                payload = shard.arena.read_bytes(
                    out_lease.offset, g["out_bytes"]
                )
                return ({
                    "id": g["id"], "status": "ok",
                    "m": g["m"], "n": g["n"], "dtype": g["dtype"],
                    "server": {
                        "shard": idx,
                        "wait_ms": d.get("wait_ms"),
                        "compute_ms": d.get("compute_ms"),
                        "batch_size": d.get("batch_size"),
                    },
                }, payload)
            shard.failed += 1
            return ({
                "id": g["id"], "status": "error",
                "error": d.get("error", "InternalError"),
                "detail": d.get("detail", ""),
                "server": {"shard": idx},
            }, b"")
        finally:
            shard.inflight.pop(req_id, None)
            for lease in leases:
                shard.arena.release(lease)
            shard.gate.release()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def live_workers(self) -> int:
        return sum(1 for s in self._shards if s.alive)

    def health(self) -> Dict[str, Any]:
        return {
            "status": (
                "draining" if self._draining
                else "ok" if self.live_workers == self.workers
                else "degraded" if self.live_workers else "down"
            ),
            "workers": [
                {"shard": s.idx,
                 "pid": s.proc.pid if s.proc is not None else None,
                 "alive": s.alive,
                 "inflight": s.gate.inflight if s.gate else 0}
                for s in self._shards
            ],
        }

    async def stats(self, timeout: float = 5.0) -> List[Dict[str, Any]]:
        """Per-shard snapshots: worker service stats + transport stats."""
        async def one(shard: _Shard) -> Dict[str, Any]:
            base = {
                "shard": shard.idx,
                "alive": shard.alive,
                "routed": shard.routed,
                "completed": shard.completed,
                "failed": shard.failed,
                "gate": shard.gate.stats() if shard.gate else None,
                "arena": shard.arena.stats() if shard.arena else None,
            }
            stats_src = shard.final_stats
            if stats_src is None and shard.alive:
                token = next(self._ids)
                fut = self._loop.create_future()
                shard.control[token] = fut
                try:
                    shard.conn.send(("stats", token))
                    stats_src = await asyncio.wait_for(fut, timeout)
                except (asyncio.TimeoutError, OSError, ServiceError):
                    shard.control.pop(token, None)
                    base["stale"] = True
            if stats_src is not None:
                base["service"] = stats_src
            return base

        return list(await asyncio.gather(
            *(one(s) for s in self._shards)
        ))

    async def reload_profiles(
        self, directory: Optional[str] = None, timeout: float = 10.0
    ) -> List[Dict[str, Any]]:
        """Hot-swap tuned profiles into every live worker.

        Sends the ``reload`` control op (``directory`` None = each
        worker's configured ``profile_dir``) and gathers the per-shard
        reports.  Workers load under their store's lock while serving
        continues — requests admitted before the swap keep their
        resolved knobs, requests after it see the new profiles; nothing
        is dropped.  A dead or unresponsive shard reports
        ``{"ok": False, ...}`` instead of failing the whole reload.
        """
        async def one(shard: _Shard) -> Dict[str, Any]:
            base: Dict[str, Any] = {"shard": shard.idx, "alive": shard.alive}
            if not shard.alive:
                base.update(ok=False, error="ShardDown")
                return base
            token = next(self._ids)
            fut = self._loop.create_future()
            shard.control[token] = fut
            try:
                shard.conn.send(("reload", token, directory))
                base.update(await asyncio.wait_for(fut, timeout))
            except (asyncio.TimeoutError, OSError, ServiceError) as exc:
                shard.control.pop(token, None)
                base.update(ok=False, error=type(exc).__name__)
            return base

        return list(await asyncio.gather(
            *(one(s) for s in self._shards)
        ))

    # ------------------------------------------------------------------ #
    # shutdown
    # ------------------------------------------------------------------ #
    async def drain(self, timeout: float = 30.0) -> List[Dict[str, Any]]:
        """Graceful shutdown: refuse new work, flush in-flight, stop.

        Returns the final per-shard stats snapshots.  In-flight
        dispatches get ``timeout`` seconds to complete; anything still
        pending after that fails with ``ServiceClosed`` when the
        workers exit.
        """
        self._draining = True
        deadline = time.monotonic() + timeout
        while any(s.inflight for s in self._shards):
            if time.monotonic() >= deadline:
                break
            await asyncio.sleep(0.01)
        finals: List[Dict[str, Any]] = []
        for shard in self._shards:
            if shard.alive:
                fut = self._loop.create_future()
                shard.control[-1] = fut
                try:
                    shard.conn.send(("drain",))
                    await asyncio.wait_for(
                        fut, max(1.0, deadline - time.monotonic())
                    )
                except (asyncio.TimeoutError, OSError, ServiceError):
                    shard.control.pop(-1, None)
        stats = await self.stats(timeout=1.0)
        for shard in self._shards:
            if shard.proc is not None:
                await self._join_proc(shard, 5.0)
            finals.append(stats[shard.idx])
        self._teardown()
        return finals

    async def _join_proc(self, shard: _Shard, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while shard.proc.is_alive() and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        if shard.proc.is_alive():
            shard.proc.terminate()
            shard.proc.join(1.0)

    def kill(self) -> None:
        """Hard stop (no drain): terminate processes, free transports."""
        for shard in self._shards:
            if shard.proc is not None and shard.proc.is_alive():
                shard.proc.terminate()
                shard.proc.join(1.0)
        self._teardown()

    def _teardown(self) -> None:
        for shard in self._shards:
            shard.alive = False
            if shard.conn is not None:
                try:
                    shard.conn.close()
                except OSError:  # pragma: no cover
                    pass
            if shard.arena is not None:
                shard.arena.close()
                shard.arena.unlink()
