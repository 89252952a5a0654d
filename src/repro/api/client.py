"""Blocking client for the api server — the network GemmService.

:class:`GemmClient` opens one WebSocket and pipelines requests over it:
``submit`` returns a :class:`WireFuture` immediately — a
:class:`~repro.serve.request.GemmFuture` whose ``wait_s``/``compute_s``/
``batch_size`` split is measured on the worker's side of the wire, plus
the ``shard`` that served it — and a background reader thread resolves
futures as binary response frames arrive, in whatever order the shards
finish.  Once the reader exits (the server closed the session or the
connection dropped), pending futures fail and ``submit`` raises
:class:`~repro.errors.ServiceClosed`.  Because the surface matches
``GemmService``, existing machinery runs unchanged against the network:
``repro.serve.loadgen.run_load(service=client)`` is exactly how the
``api load`` CLI drives a live server.

Wire failures come back as error headers; the client re-raises the
service taxonomy (:class:`~repro.errors.ServiceOverloaded`,
``ServiceTimeout``, ``ServiceClosed``, ``RateLimited``, ...) so caller
code cannot tell a remote rejection from a local one.  Classes whose
constructors need more than a message string arrive as
:class:`~repro.errors.RemoteError` with the original class name in
``.error``.

:func:`http_gemm` is the one-shot form (``POST /v1/gemm``) for callers
that want request/response semantics without a socket to manage.
"""

from __future__ import annotations

import base64
import itertools
import json
import os
import socket
import threading
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.api.protocol import (
    ProtocolError,
    WSFrameAssembler,
    array_payload,
    gemm_request_header,
    pack_message,
    unpack_message,
    ws_accept,
    ws_encode_frame,
)
from repro.errors import (
    ArgumentError,
    RateLimited,
    RemoteError,
    ServiceClosed,
    ServiceError,
    ServiceOverloaded,
    ServiceTimeout,
    WorkspaceError,
)
from repro.serve.request import GemmFuture

__all__ = ["GemmClient", "WireFuture", "http_gemm", "http_get"]

#: wire error classes safe to reconstruct from a single message string
_EXC_MAP = {
    "ServiceOverloaded": ServiceOverloaded,
    "ServiceTimeout": ServiceTimeout,
    "ServiceClosed": ServiceClosed,
    "RateLimited": RateLimited,
    "WorkspaceError": WorkspaceError,
    "ServiceError": ServiceError,
}


def _wire_exception(error: str, detail: str) -> Exception:
    cls = _EXC_MAP.get(error)
    if cls is not None:
        return cls(detail)
    return RemoteError(error, detail)


class WireFuture(GemmFuture):
    """A :class:`GemmFuture` for one wire request, plus its ``shard``."""

    __slots__ = ("shard",)

    def __init__(self) -> None:
        super().__init__()
        #: the shard that served the request (None until it answers)
        self.shard: Optional[int] = None


class GemmClient:
    """One pipelined WebSocket connection to an api server."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8771, *,
                 client_id: Optional[str] = None,
                 connect_timeout: float = 10.0) -> None:
        self.host = host
        self.port = int(port)
        self.client_id = client_id
        self._sock = socket.create_connection(
            (host, self.port), timeout=connect_timeout
        )
        self._handshake(connect_timeout)
        self._sock.settimeout(None)
        self._send_lock = threading.Lock()
        self._lock = threading.Lock()
        self._pending: Dict[int, Tuple[WireFuture, Tuple[int, int], str]] = {}
        self._ids = itertools.count(1)
        self._closed = False        # also once the reader has exited
        self.submitted = 0
        self.completed = 0
        self._reader = threading.Thread(
            target=self._read_loop, name="gemm-client-reader", daemon=True
        )
        self._reader.start()

    # ------------------------------------------------------------------ #
    def _handshake(self, timeout: float) -> None:
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        self._sock.sendall((
            f"GET /v1/ws HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Upgrade: websocket\r\n"
            f"Connection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\n"
            f"Sec-WebSocket-Version: 13\r\n"
            f"\r\n"
        ).encode("latin-1"))
        self._sock.settimeout(timeout)
        buf = b""
        while b"\r\n\r\n" not in buf:
            chunk = self._sock.recv(4096)
            if not chunk:
                raise ServiceError("server closed during ws handshake")
            buf += chunk
        head, rest = buf.split(b"\r\n\r\n", 1)
        lines = head.decode("latin-1").split("\r\n")
        if " 101 " not in lines[0] + " ":
            raise ServiceError(f"ws upgrade refused: {lines[0]}")
        accept = next(
            (ln.split(":", 1)[1].strip() for ln in lines[1:]
             if ln.lower().startswith("sec-websocket-accept:")), None,
        )
        if accept != ws_accept(key):
            raise ServiceError("bad Sec-WebSocket-Accept from server")
        self._preread = rest

    def _read_loop(self) -> None:
        asm = WSFrameAssembler()
        data = self._preread
        while True:
            if data:
                try:
                    messages = asm.feed(data)
                except ProtocolError as exc:
                    self._fail_all(ServiceError(f"bad frame: {exc}"))
                    return
                for opcode, payload in messages:
                    if opcode == 0x2:
                        self._on_response(payload)
                    elif opcode == 0x8:
                        self._fail_all(
                            ServiceClosed("server closed the connection")
                        )
                        return
            try:
                data = self._sock.recv(1 << 16)
            except OSError:
                data = b""
            if not data:
                self._fail_all(ServiceClosed("connection lost"))
                return

    def _on_response(self, payload: bytearray) -> None:
        try:
            header, payloads = unpack_message(payload)
        except ProtocolError:
            return
        with self._lock:
            entry = self._pending.pop(int(header.get("id", 0)), None)
        if entry is None:
            return
        fut, (m, n), dtype = entry
        self.completed += 1
        server = header.get("server") or {}
        fut.wait_s = (server.get("wait_ms") or 0.0) / 1e3
        fut.compute_s = (server.get("compute_ms") or 0.0) / 1e3
        fut.batch_size = server.get("batch_size")
        fut.shard = server.get("shard")
        if header.get("status") == "ok" and payloads:
            flat = np.frombuffer(payloads[0], dtype=np.dtype(dtype))
            fut._set_result(flat.reshape((m, n), order="F").copy(order="F"))
        elif header.get("status") == "ok":
            fut._set_result(
                np.zeros((m, n), dtype=np.dtype(dtype), order="F")
            )
        else:
            fut._set_exception(_wire_exception(
                header.get("error", "InternalError"),
                header.get("detail", ""),
            ))

    def _fail_all(self, exc: Exception) -> None:
        with self._lock:
            self._closed = True
            pending = list(self._pending.values())
            self._pending.clear()
        for fut, _shape, _dtype in pending:
            if not fut.done():
                fut._set_exception(exc)

    # ------------------------------------------------------------------ #
    def submit(self, a, b, c=None, alpha=1.0, beta=0.0,
               transa: bool = False, transb: bool = False, *,
               timeout: Optional[float] = None,
               block_timeout: Optional[float] = None,
               cutoff=None, scheme: str = "auto",
               peel: str = "tail",
               accuracy: Optional[str] = None) -> WireFuture:
        """Pipeline one gemm; mirrors ``GemmService.submit``.

        ``block_timeout`` has no client-side meaning (admission waits
        happen on the server, bounded by ``timeout``); it is accepted
        so call sites are interchangeable with the in-process service.
        ``accuracy`` is the request's accuracy SLO (``"fast"`` or
        ``"compensated"`` — the wire's dtypes are all inexact); None
        omits the header key, deferring to the shard's tuned profile
        and then the dtype default.
        """
        if self._closed:
            raise ServiceClosed("client is closed or disconnected")
        beta_c = complex(beta)
        if beta_c != 0 and c is None:
            raise ArgumentError("GemmClient.submit", "c",
                                "beta != 0 requires C")
        a = np.asarray(a)
        b = np.asarray(b)
        if a.ndim != 2 or b.ndim != 2:
            raise ArgumentError("GemmClient.submit", "a/b",
                                "operands must be 2-D")
        m, k = (a.shape[1], a.shape[0]) if transa else a.shape
        kb, n = (b.shape[1], b.shape[0]) if transb else b.shape
        if kb != k:
            raise ArgumentError(
                "GemmClient.submit", "b",
                f"inner dims disagree: A gives k={k}, B gives k={kb}",
            )
        dt = np.result_type(a.dtype, b.dtype)
        if c is not None and beta_c != 0:
            dt = np.result_type(dt, np.asarray(c).dtype)
        if complex(alpha).imag or beta_c.imag:
            dt = np.result_type(dt, np.complex64)
        dtype = str(dt)
        tau = None
        if cutoff is not None:
            tau = getattr(cutoff, "tau", None)
            if tau is None:
                raise ArgumentError(
                    "GemmClient.submit", "cutoff",
                    "only tau-style cutoffs cross the wire",
                )
        has_c = beta_c != 0
        payloads = [
            array_payload(np.asarray(a, dtype=dt)),
            array_payload(np.asarray(b, dtype=dt)),
        ]
        if has_c:
            payloads.append(array_payload(np.asarray(c, dtype=dt)))
        req_id = next(self._ids)
        header = gemm_request_header(
            req_id, m, k, n, transa=transa, transb=transb,
            alpha=complex(alpha), beta=beta_c, dtype=dtype, tau=tau,
            scheme=scheme, peel=peel, accuracy=accuracy,
            timeout_ms=(None if timeout is None
                        else max(0, int(timeout * 1e3))),
            client=self.client_id, has_c=has_c,
        )
        fut = WireFuture()
        with self._lock:
            if self._closed:
                raise ServiceClosed("client is closed or disconnected")
            self._pending[req_id] = (fut, (m, n), dtype)
        frame = ws_encode_frame(
            0x2, pack_message(header, payloads), mask=True
        )
        try:
            with self._send_lock:
                self._sock.sendall(frame)
        except OSError as exc:
            with self._lock:
                self._pending.pop(req_id, None)
            raise ServiceClosed(f"connection lost: {exc}") from None
        self.submitted += 1
        return fut

    def call(self, a, b, c=None, alpha=1.0, beta=0.0,
             transa: bool = False, transb: bool = False, *,
             timeout: Optional[float] = None, result_timeout: float = 60.0,
             **kw: Any) -> np.ndarray:
        """Synchronous convenience: submit and wait for the result."""
        fut = self.submit(a, b, c, alpha, beta, transa, transb,
                          timeout=timeout, **kw)
        return fut.result(timeout=result_timeout)

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """The server's ``/metrics`` snapshot (fresh HTTP connection, so
        it works before, during, and after this socket's lifetime)."""
        status, body = http_get(self.host, self.port, "/metrics")
        if status != 200:
            raise ServiceError(f"/metrics returned HTTP {status}")
        return json.loads(body)

    def healthz(self) -> Dict[str, Any]:
        status, body = http_get(self.host, self.port, "/healthz")
        return dict(json.loads(body), http_status=status)

    def close(self) -> None:
        """Send a close frame and tear down; pending futures fail."""
        if self._sock.fileno() == -1:
            return
        self._closed = True
        try:
            with self._send_lock:
                self._sock.sendall(ws_encode_frame(0x8, b"", mask=True))
        except OSError:
            pass
        try:
            self._sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        self._reader.join(timeout=5.0)
        self._fail_all(ServiceClosed("client closed"))
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "GemmClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# one-shot HTTP helpers
# ---------------------------------------------------------------------- #
def _http_roundtrip(host: str, port: int, method: str, path: str,
                    body: bytes = b"", ctype: str = "application/json",
                    timeout: float = 60.0) -> Tuple[int, bytes]:
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall((
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n"
            f"\r\n"
        ).encode("latin-1") + body)
        buf = b""
        while b"\r\n\r\n" not in buf:
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise ServiceError("server closed mid-response")
            buf += chunk
        head, rest = buf.split(b"\r\n\r\n", 1)
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = next(
            (int(ln.split(":", 1)[1]) for ln in lines[1:]
             if ln.lower().startswith("content-length:")), None,
        )
        body = bytearray(rest)          # grows in place, not by re-copying
        while length is not None and len(body) < length:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            body += chunk
        return status, bytes(body)


def http_get(host: str, port: int, path: str,
             timeout: float = 60.0) -> Tuple[int, bytes]:
    """GET a JSON endpoint (``/healthz``, ``/metrics``)."""
    return _http_roundtrip(host, port, "GET", path, timeout=timeout)


def http_gemm(host: str, port: int, a, b, c=None, alpha=1.0, beta=0.0,
              transa: bool = False, transb: bool = False, *,
              tau: Optional[int] = None, scheme: str = "auto",
              peel: str = "tail", accuracy: Optional[str] = None,
              timeout_ms: Optional[int] = None,
              client: Optional[str] = None,
              timeout: float = 60.0) -> np.ndarray:
    """One-shot ``POST /v1/gemm``: same wire message, no socket to keep.

    Raises the same mapped taxonomy as :class:`GemmClient` on error
    responses.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    m, k = (a.shape[1], a.shape[0]) if transa else a.shape
    _, n = (b.shape[1], b.shape[0]) if transb else b.shape
    beta_c = complex(beta)
    dt = np.result_type(a.dtype, b.dtype)
    if c is not None and beta_c != 0:
        dt = np.result_type(dt, np.asarray(c).dtype)
    if complex(alpha).imag or beta_c.imag:
        dt = np.result_type(dt, np.complex64)
    has_c = beta_c != 0
    payloads = [array_payload(np.asarray(a, dtype=dt)),
                array_payload(np.asarray(b, dtype=dt))]
    if has_c:
        payloads.append(array_payload(np.asarray(c, dtype=dt)))
    header = gemm_request_header(
        1, m, k, n, transa=transa, transb=transb,
        alpha=complex(alpha), beta=beta_c, dtype=str(dt), tau=tau,
        scheme=scheme, peel=peel, accuracy=accuracy,
        timeout_ms=timeout_ms, client=client,
        has_c=has_c,
    )
    body = pack_message(header, payloads)
    status, resp_body = _http_roundtrip(
        host, port, "POST", "/v1/gemm", body,
        ctype="application/x-repro-gemm", timeout=timeout,
    )
    resp, resp_payloads = unpack_message(resp_body)
    if resp.get("status") != "ok":
        raise _wire_exception(resp.get("error", "InternalError"),
                              resp.get("detail", f"HTTP {status}"))
    if not resp_payloads:                       # empty result (m*n == 0)
        return np.zeros((m, n), dtype=np.dtype(str(dt)), order="F")
    flat = np.frombuffer(resp_payloads[0], dtype=np.dtype(str(dt)))
    return flat.reshape((m, n), order="F").copy(order="F")
