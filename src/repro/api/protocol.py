"""The wire protocol shared by the api server and client.

One message format serves both transports:

- **HTTP**: ``POST /v1/gemm`` with ``Content-Type:
  application/x-repro-gemm``; the body is one framed message, the
  response body another.
- **WebSocket**: ``GET /v1/ws`` upgrades; each *binary* frame is one
  framed message.  Responses carry the request's ``id`` and may return
  out of order — the socket is a full pipeline.

A framed message is::

    [4-byte big-endian header length] [header JSON, UTF-8] [payload...]

The header's ``"lens"`` list gives the byte length of each payload
buffer, concatenated in order after the JSON.  Matrix payloads are raw
Fortran-order element bytes — exactly the bytes the worker's ndarray
view will alias, so a round trip is bit-exact by construction.

Request headers (``op: "gemm"``) carry the problem (``m, k, n, transa,
transb, alpha, beta, dtype``, scalars as ``[re, im]`` pairs), the plan
knobs the wire supports (``tau`` — a :class:`~repro.core.cutoff.
SimpleCutoff` threshold — ``scheme``, ``peel``, and the ``accuracy``
SLO, ``"fast"`` or ``"compensated"``; omitted knobs defer to the
shard's tuned profile), an optional ``timeout_ms`` deadline that
propagates to the worker's admission queue, and an optional ``client``
id for rate-limit bucketing.
Payloads are ``op``-untransposed A (``m x k`` raw or ``k x m`` when
``transa``), B likewise, and C exactly when ``beta != 0``.

Response headers echo ``id`` and report ``status: "ok"`` (payload: the
``m x n`` result) or ``status: "error"`` with an ``error`` class name
from the service taxonomy (:mod:`repro.errors`) and a ``detail``
string; ``server`` carries shard id and the wait/compute/batch split.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import struct
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.schemes import SCHEME_NAMES

__all__ = [
    "ProtocolError",
    "pack_message",
    "unpack_message",
    "array_payload",
    "array_from_payload",
    "gemm_request_header",
    "validate_gemm",
    "error_response",
    "HTTP_STATUS",
    "WS_GUID",
    "ws_accept",
    "ws_encode_frame",
    "WSFrameAssembler",
    "WIRE_DTYPES",
]

#: element types the wire accepts (mirrors the fuzz case space)
WIRE_DTYPES = ("float64", "float32", "complex128", "complex64")

#: HTTP status for each wire error class (anything else maps to 500)
HTTP_STATUS = {
    "ok": 200,
    "BadRequest": 400,
    "ArgumentError": 400,
    "DimensionError": 400,
    "RateLimited": 429,
    "ServiceOverloaded": 503,
    "ServiceClosed": 503,
    "ServiceTimeout": 504,
    "WorkspaceError": 503,
    "InternalError": 500,
}

_MAX_HEADER = 1 << 20          # 1 MiB of JSON is already absurd
_MAX_DIM = 1 << 20             # per-dimension sanity bound


class ProtocolError(ValueError):
    """A malformed or out-of-contract wire message (HTTP 400)."""


# ---------------------------------------------------------------------- #
# framing
# ---------------------------------------------------------------------- #
def pack_message(header: Dict[str, Any],
                 payloads: Sequence[bytes] = ()) -> bytes:
    """Frame ``header`` + ``payloads`` into one wire message."""
    header = dict(header)
    header["lens"] = [len(p) for p in payloads]
    hj = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return b"".join([struct.pack(">I", len(hj)), hj, *payloads])


def unpack_message(
    data: bytes | bytearray,
) -> Tuple[Dict[str, Any], List[bytes | bytearray]]:
    """Inverse of :func:`pack_message`; raises :class:`ProtocolError`.

    The payloads are copies sliced out of ``data``, of its type.
    """
    if len(data) < 4:
        raise ProtocolError("message shorter than its length prefix")
    (hlen,) = struct.unpack(">I", data[:4])
    if hlen > _MAX_HEADER or 4 + hlen > len(data):
        raise ProtocolError(f"bad header length {hlen}")
    try:
        header = json.loads(data[4:4 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"header is not JSON: {exc}") from None
    if not isinstance(header, dict):
        raise ProtocolError("header must be a JSON object")
    lens = header.get("lens", [])
    if not isinstance(lens, list) or not all(
        isinstance(n, int) and n >= 0 for n in lens
    ):
        raise ProtocolError("'lens' must be a list of byte counts")
    off = 4 + hlen
    payloads: List[bytes | bytearray] = []
    for n in lens:
        if off + n > len(data):
            raise ProtocolError("payloads truncated")
        payloads.append(data[off:off + n])
        off += n
    if off != len(data):
        raise ProtocolError(f"{len(data) - off} trailing bytes")
    return header, payloads


# ---------------------------------------------------------------------- #
# matrix payloads
# ---------------------------------------------------------------------- #
def array_payload(arr: np.ndarray) -> bytes:
    """Raw Fortran-order bytes of a 2-D array (copies iff non-F-contiguous)."""
    return np.asarray(arr).tobytes(order="F")


def array_from_payload(payload: bytes, rows: int, cols: int,
                       dtype: str) -> np.ndarray:
    """Rebuild the ``rows x cols`` Fortran-ordered array (zero-copy view
    of the payload bytes, made writable by copy only by the caller)."""
    dt = np.dtype(dtype)
    expect = rows * cols * dt.itemsize
    if len(payload) != expect:
        raise ProtocolError(
            f"payload is {len(payload)} B, expected {expect} B "
            f"for {rows}x{cols} {dtype}"
        )
    flat = np.frombuffer(payload, dtype=dt)
    return flat.reshape((rows, cols), order="F")


# ---------------------------------------------------------------------- #
# gemm request construction / validation
# ---------------------------------------------------------------------- #
def _scalar_pair(v: Any) -> complex:
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    if isinstance(v, (int, float)):
        return complex(float(v), 0.0)
    raise ProtocolError(f"scalar must be a number or [re, im], got {v!r}")


def gemm_request_header(
    req_id: int, m: int, k: int, n: int, *,
    transa: bool = False, transb: bool = False,
    alpha: complex = 1.0, beta: complex = 0.0,
    dtype: str = "float64", tau: int = None,
    scheme: str = "auto", peel: str = "tail",
    accuracy: str = None,
    timeout_ms: int = None, client: str = None,
    has_c: bool = False,
) -> Dict[str, Any]:
    """Client-side header builder (kept next to the validator so the
    two sides of the contract evolve together).  ``accuracy`` is the
    request's accuracy SLO; like ``tau``/``timeout_ms`` it is appended
    only when set — an absent key means "no override", letting the
    shard's tuned profile (or the dtype default) govern."""
    alpha, beta = complex(alpha), complex(beta)
    hdr: Dict[str, Any] = {
        "op": "gemm", "id": int(req_id),
        "m": int(m), "k": int(k), "n": int(n),
        "transa": bool(transa), "transb": bool(transb),
        "alpha": [alpha.real, alpha.imag],
        "beta": [beta.real, beta.imag],
        "dtype": str(dtype), "scheme": str(scheme), "peel": str(peel),
        "has_c": bool(has_c),
    }
    if tau is not None:
        hdr["tau"] = int(tau)
    if accuracy is not None:
        hdr["accuracy"] = str(accuracy)
    if timeout_ms is not None:
        hdr["timeout_ms"] = int(timeout_ms)
    if client is not None:
        hdr["client"] = str(client)
    return hdr


def validate_gemm(header: Dict[str, Any],
                  payloads: Sequence[bytes]) -> Dict[str, Any]:
    """Normalize and bounds-check one gemm request.

    Returns a plain dict with typed fields (``alpha``/``beta`` as
    complex, shapes for each operand buffer, byte counts cross-checked
    against the payloads).  Raises :class:`ProtocolError` on any
    mismatch — the server maps that to HTTP 400 before anything
    touches a shard.
    """
    if header.get("op") != "gemm":
        raise ProtocolError(f"unsupported op {header.get('op')!r}")
    try:
        m = int(header["m"])
        k = int(header["k"])
        n = int(header["n"])
    except (KeyError, TypeError, ValueError):
        raise ProtocolError("m/k/n must be integers") from None
    for name, dim in (("m", m), ("k", k), ("n", n)):
        if not 0 <= dim <= _MAX_DIM:
            raise ProtocolError(f"{name}={dim} out of range [0, {_MAX_DIM}]")
    transa = bool(header.get("transa", False))
    transb = bool(header.get("transb", False))
    alpha = _scalar_pair(header.get("alpha", 1.0))
    beta = _scalar_pair(header.get("beta", 0.0))
    dtype = str(header.get("dtype", "float64"))
    if dtype not in WIRE_DTYPES:
        raise ProtocolError(f"dtype must be one of {WIRE_DTYPES}, "
                            f"got {dtype!r}")
    if np.dtype(dtype).kind != "c" and (alpha.imag or beta.imag):
        raise ProtocolError("complex scalars require a complex dtype")
    scheme = str(header.get("scheme", "auto"))
    if scheme not in SCHEME_NAMES:
        raise ProtocolError(f"scheme must be one of {tuple(SCHEME_NAMES)}, "
                            f"got {scheme!r}")
    peel = str(header.get("peel", "tail"))
    if peel not in ("tail", "head"):
        raise ProtocolError(f"peel must be 'tail' or 'head', got {peel!r}")
    tau = header.get("tau")
    if tau is not None:
        tau = int(tau)
        if tau < 0:
            raise ProtocolError(f"tau must be >= 0, got {tau}")
    accuracy = header.get("accuracy")
    if accuracy is not None:
        accuracy = str(accuracy)
        # the wire's dtypes are all inexact, so "exact" is not a legal
        # SLO here — integer/object serving stays an in-process affair
        if accuracy not in ("fast", "compensated"):
            raise ProtocolError(
                f"accuracy must be 'fast' or 'compensated', "
                f"got {accuracy!r}"
            )
    timeout_ms = header.get("timeout_ms")
    if timeout_ms is not None:
        timeout_ms = int(timeout_ms)
        if timeout_ms < 0:
            raise ProtocolError(f"timeout_ms must be >= 0, got {timeout_ms}")
    has_c = bool(header.get("has_c", False))
    if (beta != 0) and not has_c:
        raise ProtocolError("beta != 0 requires a C payload")
    if np.dtype(dtype).kind != "c":
        # real dtype: hand the service real scalars, or beta * C would
        # upcast the whole computation to complex
        alpha, beta = alpha.real, beta.real

    itemsize = np.dtype(dtype).itemsize
    a_shape = (k, m) if transa else (m, k)
    b_shape = (n, k) if transb else (k, n)
    shapes = [a_shape, b_shape] + ([(m, n)] if has_c else [])
    if len(payloads) != len(shapes):
        raise ProtocolError(
            f"expected {len(shapes)} payload buffers, got {len(payloads)}"
        )
    for which, (shape, buf) in enumerate(zip(shapes, payloads)):
        expect = shape[0] * shape[1] * itemsize
        if len(buf) != expect:
            raise ProtocolError(
                f"buffer {which} is {len(buf)} B, expected {expect} B "
                f"for {shape[0]}x{shape[1]} {dtype}"
            )
    return {
        "id": int(header.get("id", 0)),
        "m": m, "k": k, "n": n,
        "transa": transa, "transb": transb,
        "alpha": alpha, "beta": beta,
        "dtype": dtype, "tau": tau, "scheme": scheme, "peel": peel,
        "accuracy": accuracy,
        "timeout_ms": timeout_ms,
        "client": str(header["client"]) if "client" in header else None,
        "has_c": has_c,
        "a_shape": a_shape, "b_shape": b_shape,
        "out_bytes": m * n * itemsize,
    }


def error_response(req_id: int, error: str, detail: str) -> Dict[str, Any]:
    """A status="error" response header."""
    return {"id": int(req_id), "status": "error",
            "error": error, "detail": detail}


# ---------------------------------------------------------------------- #
# WebSocket (RFC 6455) helpers — stdlib-only, binary frames
# ---------------------------------------------------------------------- #
WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"


def ws_accept(key: str) -> str:
    """Sec-WebSocket-Accept for a handshake key."""
    digest = hashlib.sha1((key + WS_GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def ws_encode_frame(opcode: int, payload: bytes, *,
                    mask: bool = False) -> bytearray:
    """One unfragmented frame (FIN set), as a new ``bytearray``.

    Clients must mask.  A masked frame is built in one buffer: header,
    key, then the payload masked straight into place.
    """
    head = bytearray([0x80 | (opcode & 0x0F)])
    n = len(payload)
    mask_bit = 0x80 if mask else 0
    if n < 126:
        head.append(mask_bit | n)
    elif n < (1 << 16):
        head.append(mask_bit | 126)
        head += struct.pack(">H", n)
    else:
        head.append(mask_bit | 127)
        head += struct.pack(">Q", n)
    if mask:
        head += os.urandom(4)
        frame = bytearray(len(head) + n)
        frame[:len(head)] = head
        _mask_into(memoryview(frame)[len(head):], payload, head[-4:])
        return frame
    return head + payload


def _mask_into(dst, src, key: bytes) -> None:
    """Write ``src[i] ^ key[i % 4]`` into ``dst`` (RFC 6455 section 5.3).

    ``src`` is any contiguous buffer (bytes, bytearray, memoryview);
    ``dst`` is a writable one of the same byte length and may be
    ``src`` itself.  The bulk is one XOR over 8-byte words against the
    key repeated to the word width, the tail of under 8 bytes one XOR
    over bytes.  Both operands go through the same word view, so byte
    order does not matter; a word boundary is a multiple of 4 bytes,
    so the key's phase restarts at each word.
    """
    s = np.frombuffer(src, dtype=np.uint8)
    d = np.frombuffer(dst, dtype=np.uint8)
    key8 = bytes(key) * 2
    cut = s.size & ~7
    if cut:
        np.bitwise_xor(s[:cut].view(np.uint64),
                       np.frombuffer(key8, dtype=np.uint64),
                       out=d[:cut].view(np.uint64))
    if cut < s.size:
        np.bitwise_xor(s[cut:],
                       np.frombuffer(key8, dtype=np.uint8)[:s.size - cut],
                       out=d[cut:])


class WSFrameAssembler:
    """Incremental RFC 6455 frame parser for a byte stream.

    Feed raw socket bytes in any chunking; complete *messages* come out
    as ``(opcode, payload)`` pairs (fragmented messages are reassembled;
    control frames are never fragmented and pass straight through).
    Used by both sides: the server sees masked client frames, the
    client sees unmasked server frames.  Every payload is a new
    ``bytearray`` the caller owns: each frame's payload is copied out of
    the receive buffer once and unmasked in place, and the fragments of
    a fragmented message are joined into a new one.
    """

    def __init__(self, *, max_message: int = 1 << 30) -> None:
        self._buf = bytearray()
        self._frag_op: int = 0
        self._frag: List[bytearray] = []
        self._frag_len = 0
        self.max_message = max_message

    def feed(self, data: bytes) -> List[Tuple[int, bytearray]]:
        self._buf += data
        out: List[Tuple[int, bytearray]] = []
        while True:
            frame = self._next_frame()
            if frame is None:
                return out
            fin, opcode, payload = frame
            if opcode >= 0x8:            # control frame, never fragmented
                out.append((opcode, payload))
                continue
            if opcode != 0:              # first (or only) fragment
                self._frag_op, self._frag, self._frag_len = opcode, [], 0
            elif not self._frag_op:      # continuation
                raise ProtocolError("continuation frame with no start")
            self._frag.append(payload)
            self._frag_len += len(payload)
            if self._frag_len > self.max_message:
                raise ProtocolError("websocket message too large")
            if fin:
                # ws_encode_frame always sets FIN, so this package's own
                # messages are one frame each and need no join copy
                frags = self._frag
                out.append((self._frag_op, frags[0] if len(frags) == 1
                            else bytearray().join(frags)))
                self._frag_op, self._frag = 0, []

    def _next_frame(self):
        buf = self._buf
        if len(buf) < 2:
            return None
        fin = bool(buf[0] & 0x80)
        opcode = buf[0] & 0x0F
        masked = bool(buf[1] & 0x80)
        n = buf[1] & 0x7F
        off = 2
        if n == 126:
            if len(buf) < off + 2:
                return None
            (n,) = struct.unpack(">H", buf[off:off + 2])
            off += 2
        elif n == 127:
            if len(buf) < off + 8:
                return None
            (n,) = struct.unpack(">Q", buf[off:off + 8])
            off += 8
        if n > self.max_message:
            raise ProtocolError(f"websocket frame of {n} B refused")
        key = b""
        if masked:
            if len(buf) < off + 4:
                return None
            key = buf[off:off + 4]
            off += 4
        if len(buf) < off + n:
            return None
        payload = buf[off:off + n]
        del buf[:off + n]
        if masked:
            _mask_into(payload, payload, key)
        return fin, opcode, payload
