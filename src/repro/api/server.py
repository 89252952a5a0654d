"""The asyncio network front-end: HTTP + WebSocket over one port.

``python -m repro api serve`` runs this server.  One asyncio event
loop accepts connections and speaks two transports over the same
listener — plain HTTP/1.1 (``POST /v1/gemm``, one framed message per
request body) and RFC 6455 WebSockets (``GET /v1/ws`` upgrades; each
binary frame is one framed message and responses may return out of
order, so a single socket is a full request pipeline).  Both are
implemented directly on ``asyncio`` streams: the contract of this repo
is stdlib + numpy/scipy, so there is no aiohttp to lean on — and a
gemm wire protocol needs exactly none of it.

The front-end owns admission, the :class:`~repro.api.router.Router`
owns placement.  Per-client token buckets
(:class:`~repro.api.ratelimit.ClientLimits`) refuse chatty clients
before anything is parsed into matrices (HTTP 429); the router's
per-shard gates apply the configured overload policy; and the error
taxonomy of :mod:`repro.errors` maps onto HTTP status codes
(:data:`~repro.api.protocol.HTTP_STATUS`) so callers can tell a
malformed request (400) from overload (503) from a blown deadline
(504).

Lifecycle: ``GET /healthz`` reports ``ok``/``degraded``/``draining``,
``GET /metrics`` returns the full counter snapshot (front-end counters,
rate-limit stats, per-shard service + transport stats), and
:meth:`ApiServer.drain` performs the graceful shutdown the CI smoke
lane asserts — stop accepting, fail new work with ``ServiceClosed``,
flush every in-flight request, close every connection (a WebSocket
session with code 1001), drain every worker, free every shm segment.
:class:`ApiServerThread` embeds the whole thing in a background thread
for tests, benchmarks, and the loadgen CLI.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.protocol import (
    HTTP_STATUS,
    ProtocolError,
    WSFrameAssembler,
    error_response,
    pack_message,
    unpack_message,
    validate_gemm,
    ws_accept,
    ws_encode_frame,
)
from repro.api.ratelimit import ClientLimits
from repro.api.router import DEFAULT_ARENA_BYTES, Router
from repro.errors import RateLimited, ServiceClosed

__all__ = ["ApiServer", "ApiServerThread"]

_REASONS = {
    101: "Switching Protocols", 200: "OK", 400: "Bad Request",
    404: "Not Found", 405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}

#: largest accepted HTTP body / websocket message (operands included)
MAX_BODY = 1 << 30


class ApiServer:
    """HTTP + WebSocket front-end over a sharded worker pool."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        threads: int = 1,
        capacity: int = 256,
        policy: str = "reject",
        max_batch: int = 32,
        arena_bytes: int = DEFAULT_ARENA_BYTES,
        rate: float = 0.0,
        burst: Optional[float] = None,
        profile_dir: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.router = Router(
            workers=workers, threads=threads, capacity=capacity,
            policy=policy, max_batch=max_batch, arena_bytes=arena_bytes,
            profile_dir=profile_dir,
        )
        self.limits = ClientLimits(rate, burst)
        self._server: Optional[asyncio.base_events.Server] = None
        self._draining = False
        self._tasks: set = set()        # requests being answered
        self._conns: Dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._sessions: set = set()     # writers of upgraded connections
        self._t_start = 0.0
        self.counters: Dict[str, Any] = {
            "requests_total": 0,
            "ok_total": 0,
            "ratelimited_total": 0,
            "errors": {},
            "http_requests": 0,
            "ws_connections": 0,
            "ws_messages": 0,
            "bytes_in": 0,
            "bytes_out": 0,
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Spawn the worker pool, then bind and listen."""
        await self.router.start()
        self._server = await asyncio.start_server(
            self._on_conn, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._t_start = time.monotonic()

    async def drain(self, timeout: float = 30.0) -> Dict[str, Any]:
        """Graceful shutdown; returns the final stats snapshot.

        Requests in flight answer first; then every connection closes
        (a WebSocket session with close code 1001, "going away") and
        its handler is awaited before the router drains.
        """
        self._draining = True
        deadline = time.monotonic() + timeout
        if self._server is not None:
            self._server.close()
        while self._tasks and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        for writer in self._conns:
            if writer in self._sessions:
                writer.write(ws_encode_frame(0x8, (1001).to_bytes(2, "big")))
            writer.close()
        if self._conns:
            await asyncio.wait(list(self._conns.values()),
                               timeout=max(1.0, deadline - time.monotonic()))
        for writer in self._conns:          # a peer that never read
            writer.transport.abort()
        if self._server is not None:
            await self._server.wait_closed()
        shards = await self.router.drain(
            max(1.0, deadline - time.monotonic())
        )
        return self._snapshot(shards)

    def kill(self) -> None:
        """Hard stop: drop connections, terminate workers, free shm."""
        self._draining = True
        if self._server is not None:
            self._server.close()
        for writer in self._conns:
            writer.transport.abort()
        self.router.kill()

    # ------------------------------------------------------------------ #
    # stats
    # ------------------------------------------------------------------ #
    def _snapshot(self, shards: List[Dict[str, Any]]) -> Dict[str, Any]:
        return {
            "uptime_s": time.monotonic() - self._t_start,
            "health": self.router.health(),
            "frontend": dict(self.counters, errors=dict(
                self.counters["errors"]
            )),
            "ratelimit": self.limits.stats(),
            "shards": shards,
        }

    async def stats(self) -> Dict[str, Any]:
        return self._snapshot(await self.router.stats())

    # ------------------------------------------------------------------ #
    # request handling (transport-independent)
    # ------------------------------------------------------------------ #
    def _track(self, coro) -> asyncio.Task:
        """Run one request's handling as a task ``drain`` waits for."""
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    async def _handle_message(
        self, data: bytes | bytearray, peer: str
    ) -> Tuple[Dict[str, Any], bytes]:
        """One framed request in, one framed response header+payload out."""
        self.counters["requests_total"] += 1
        self.counters["bytes_in"] += len(data)
        req_id = 0
        try:
            header, payloads = unpack_message(data)
            req_id = int(header.get("id", 0) or 0)
            g = validate_gemm(header, payloads)
            req_id = g["id"]
            client = g["client"] or peer
            if not self.limits.check(client):
                raise RateLimited(
                    f"client {client!r} exceeded "
                    f"{self.limits.rate:g} req/s"
                )
            if self._draining:
                raise ServiceClosed("api server is draining")
            resp, payload = await self.router.dispatch(g, payloads)
        except ProtocolError as exc:
            resp, payload = error_response(req_id, "BadRequest",
                                           str(exc)), b""
        except Exception as exc:  # noqa: BLE001 — wire taxonomy boundary
            resp, payload = error_response(req_id, type(exc).__name__,
                                           str(exc)), b""
        if resp.get("status") == "ok":
            self.counters["ok_total"] += 1
        else:
            name = resp.get("error", "InternalError")
            if name == "RateLimited":
                self.counters["ratelimited_total"] += 1
            errs = self.counters["errors"]
            errs[name] = errs.get(name, 0) + 1
        return resp, payload

    # ------------------------------------------------------------------ #
    # HTTP
    # ------------------------------------------------------------------ #
    async def _on_conn(self, reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter) -> None:
        self._conns[writer] = asyncio.current_task()
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "unknown"
        try:
            while True:
                req = await self._read_http_request(reader)
                if req is None:
                    break
                method, path, headers, body = req
                self.counters["http_requests"] += 1
                if (path == "/v1/ws"
                        and "websocket" in headers.get(
                            "upgrade", "").lower()):
                    await self._ws_session(reader, writer, headers, peer)
                    break
                keep = headers.get("connection", "").lower() != "close"
                await self._track(
                    self._http_dispatch(writer, method, path, body, peer)
                )
                if not keep:
                    break
        except (asyncio.IncompleteReadError, ConnectionError,
                ProtocolError):
            pass
        finally:
            del self._conns[writer]
            self._sessions.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_http_request(self, reader: asyncio.StreamReader):
        try:
            line = await reader.readline()
        except (ValueError, ConnectionError):
            return None
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            raise ProtocolError("malformed request line")
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if b":" in line:
                k, v = line.decode("latin-1").split(":", 1)
                headers[k.strip().lower()] = v.strip()
        n = int(headers.get("content-length", 0) or 0)
        if n > MAX_BODY:
            raise ProtocolError(f"body of {n} B refused")
        body = await reader.readexactly(n) if n else b""
        return method, path, headers, body

    async def _http_dispatch(self, writer, method: str, path: str,
                             body: bytes, peer: str) -> None:
        if path == "/healthz":
            health = self.router.health()
            if self._draining:
                health["status"] = "draining"
            self._write_http(writer, 200, json.dumps(health).encode(),
                             "application/json")
        elif path == "/metrics":
            snap = await self.stats()
            self._write_http(writer, 200, json.dumps(snap).encode(),
                             "application/json")
        elif path == "/v1/reload":
            if method != "POST":
                self._write_http(writer, 405, b'{"error":"use POST"}',
                                 "application/json")
            else:
                try:
                    doc = json.loads(body) if body else {}
                except ValueError:
                    doc = {}
                reports = await self.router.reload_profiles(
                    doc.get("directory")
                )
                ok = all(r.get("ok") for r in reports)
                self._write_http(
                    writer,
                    200 if ok else 500,
                    json.dumps({"ok": ok, "shards": reports}).encode(),
                    "application/json",
                )
        elif path == "/v1/gemm":
            if method != "POST":
                self._write_http(writer, 405, b'{"error":"use POST"}',
                                 "application/json")
            else:
                resp, payload = await self._handle_message(body, peer)
                status = (200 if resp.get("status") == "ok"
                          else HTTP_STATUS.get(resp.get("error"), 500))
                out = pack_message(resp, [payload] if payload else [])
                self._write_http(writer, status, out,
                                 "application/x-repro-gemm")
        else:
            self._write_http(writer, 404, b'{"error":"not found"}',
                             "application/json")
        await writer.drain()

    def _write_http(self, writer, status: int, body: bytes,
                    ctype: str) -> None:
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        self.counters["bytes_out"] += len(body)

    # ------------------------------------------------------------------ #
    # WebSocket
    # ------------------------------------------------------------------ #
    async def _ws_session(self, reader, writer,
                          headers: Dict[str, str], peer: str) -> None:
        key = headers.get("sec-websocket-key")
        if not key:
            self._write_http(writer, 400, b'{"error":"missing ws key"}',
                             "application/json")
            await writer.drain()
            return
        writer.write((
            "HTTP/1.1 101 Switching Protocols\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Accept: {ws_accept(key)}\r\n"
            "\r\n"
        ).encode("latin-1"))
        await writer.drain()
        self._sessions.add(writer)
        self.counters["ws_connections"] += 1
        asm = WSFrameAssembler(max_message=MAX_BODY)
        send_lock = asyncio.Lock()

        async def send_frame(opcode: int, payload: bytes) -> None:
            async with send_lock:
                writer.write(ws_encode_frame(opcode, payload))
                self.counters["bytes_out"] += len(payload)
                await writer.drain()

        async def answer(data: bytearray) -> None:
            self.counters["ws_messages"] += 1
            resp, payload = await self._handle_message(data, peer)
            out = pack_message(resp, [payload] if payload else [])
            try:
                await send_frame(0x2, out)
            except (ConnectionError, OSError):  # peer went away mid-reply
                pass

        while True:
            data = await reader.read(1 << 16)
            if not data:
                return
            for opcode, payload in asm.feed(data):
                if opcode == 0x2:                      # binary: a request
                    self._track(answer(payload))
                elif opcode == 0x8:                    # close
                    try:
                        await send_frame(0x8, payload[:2])
                    except (ConnectionError, OSError):
                        pass
                    return
                elif opcode == 0x9:                    # ping -> pong
                    await send_frame(0xA, payload)


class ApiServerThread:
    """An :class:`ApiServer` on a background event-loop thread.

    The embedded form used by tests, the end-to-end benchmark, and
    the ``api load``/``api fuzz`` CLI actions: start() blocks until the
    socket is bound (the real port is in ``.port``), drain()/kill()
    marshal into the loop, and the thread exits when the loop stops.
    """

    def __init__(self, **cfg: Any) -> None:
        self._cfg = cfg
        self.server: Optional[ApiServer] = None
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_exc: Optional[BaseException] = None

    # -- context manager sugar ----------------------------------------- #
    def __enter__(self) -> "ApiServerThread":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._thread is not None and self._thread.is_alive():
            try:
                self.drain(timeout=10.0)
            except Exception:  # noqa: BLE001 — teardown must not mask
                self.kill()

    def start(self, timeout: float = 60.0) -> "ApiServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-api-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("api server failed to start in time")
        if self._startup_exc is not None:
            raise self._startup_exc
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self.server = ApiServer(**self._cfg)
        try:
            loop.run_until_complete(self.server.start())
            self.port = self.server.port
        except BaseException as exc:  # noqa: BLE001 — report to starter
            self._startup_exc = exc
            self._ready.set()
            self.server.kill()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    def _call(self, coro, timeout: float):
        fut = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return fut.result(timeout)

    def stats(self, timeout: float = 10.0) -> Dict[str, Any]:
        return self._call(self.server.stats(), timeout)

    def reload(
        self,
        directory: Optional[str] = None,
        timeout: float = 15.0,
    ) -> List[Dict[str, Any]]:
        """Hot-swap tuned profiles into every worker (see Router)."""
        return self._call(
            self.server.router.reload_profiles(directory), timeout
        )

    def drain(self, timeout: float = 30.0) -> Dict[str, Any]:
        """Graceful shutdown; joins the server thread."""
        final = self._call(self.server.drain(timeout), timeout + 15.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        return final

    def kill(self) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self.server.kill)
            try:
                # one more turn of the loop, in which the aborted
                # connections close their sockets
                self._call(asyncio.sleep(0), 1.0)
            except Exception:  # noqa: BLE001
                pass
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=5.0)
        elif self.server is not None:
            self.server.kill()
