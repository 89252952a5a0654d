"""repro.api — the network front-end over multi-process sharded serving.

The layer above :mod:`repro.serve`: an asyncio HTTP + WebSocket server
(:class:`~repro.api.server.ApiServer`, ``python -m repro api serve``)
routes wire requests across a pool of worker *processes*, each hosting
its own :class:`~repro.serve.service.GemmService` with a private plan
cache and workspace pool.  Requests shard by plan signature over a
consistent hash ring (:class:`~repro.api.router.Router`), so every
signature keeps hitting the same warm worker; operands travel through
per-worker shared memory (:class:`~repro.api.shm.ShmArena`) rather
than pickles; per-client token buckets
(:class:`~repro.api.ratelimit.ClientLimits`) and per-shard admission
gates apply the same overload policies the in-process service uses.

:class:`~repro.api.client.GemmClient` is the caller's side: a
``GemmService``-shaped handle whose futures resolve over the wire,
plus :func:`~repro.api.client.http_gemm` for one-shot calls.
:func:`~repro.api.wirefuzz.run_wire_fuzz` proves the whole path
bit-identical to in-process DGEFMM.

Layering: ``api`` may import ``serve``, ``plan``, ``core``, ``blas``;
nothing below ``api`` may import it or touch the network
(``tests/test_layering.py`` enforces both directions).
"""

import importlib

from repro.api.client import GemmClient, WireFuture, http_gemm, http_get
from repro.api.protocol import (
    HTTP_STATUS,
    ProtocolError,
    WIRE_DTYPES,
    pack_message,
    unpack_message,
    validate_gemm,
)
from repro.api.ratelimit import ClientLimits, TokenBucket
from repro.api.router import HashRing, Router, ShardGate, routing_signature
from repro.api.server import ApiServer, ApiServerThread
from repro.api.shm import ShmArena, ShmLease

#: names re-exported from the wire fuzz, resolved on first access
#: (PEP 562): a serving process never runs it, nor the fuzz oracle it
#: checks against
_EXPORTS = {"run_wire_fuzz": "wirefuzz"}


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


__all__ = [
    "ApiServer",
    "ApiServerThread",
    "ClientLimits",
    "GemmClient",
    "HashRing",
    "HTTP_STATUS",
    "ProtocolError",
    "Router",
    "ShardGate",
    "ShmArena",
    "ShmLease",
    "TokenBucket",
    "WIRE_DTYPES",
    "WireFuture",
    "http_gemm",
    "http_get",
    "pack_message",
    "routing_signature",
    "run_wire_fuzz",
    "unpack_message",
    "validate_gemm",
]
