"""The network front-end (:mod:`repro.api`).

Unit layers first — the shm transport allocator, token buckets, the
dispatch gate, the wire protocol — then the
load-bearing end-to-end property at the bottom: a real server with two
spawned worker processes answers **bit-identically** to an in-process
``dgefmm`` on the canonical (as-transmitted) operands, across every
registered scheme, both transports, error taxonomy included, with
every shm lease released and a clean drain at the end.
"""

import asyncio
import json
import os
import signal
import socket
import struct
import time

import numpy as np
import pytest

from repro.api import protocol
from repro.api.client import GemmClient, http_gemm, http_get
from repro.api.protocol import (
    HTTP_STATUS,
    ProtocolError,
    WSFrameAssembler,
    gemm_request_header,
    pack_message,
    unpack_message,
    validate_gemm,
    ws_accept,
    ws_encode_frame,
)
from repro.api.ratelimit import ClientLimits, TokenBucket
from repro.api.router import Router, ShardGate
from repro.api.server import ApiServerThread
from repro.api.shm import ALIGN, ShmArena, ShmLease
from repro.api.wirefuzz import run_wire_fuzz
from repro.core.cutoff import SimpleCutoff
from repro.core.dgefmm import dgefmm
from repro.core.schemes import SCHEME_NAMES
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

TAU = 8
CUT = SimpleCutoff(TAU)


# ---------------------------------------------------------------------- #
class TestShmArena:
    def test_lease_release_accounting(self):
        arena = ShmArena(4096)
        try:
            l1 = arena.lease(100)
            l2 = arena.lease(200)
            s = arena.stats()
            assert s["leases_outstanding"] == 2
            assert s["leased_bytes"] == l1.nbytes + l2.nbytes
            assert l1.nbytes % ALIGN == 0 and l1.nbytes >= 100
            arena.release(l1)
            arena.release(l2)
            s = arena.stats()
            assert s["leases_outstanding"] == 0
            assert s["leased_bytes"] == 0
            assert s["free_holes"] == 1       # fully coalesced
        finally:
            arena.close()
            arena.unlink()

    def test_coalescing_out_of_order(self):
        arena = ShmArena(ALIGN * 8)
        try:
            leases = [arena.lease(ALIGN) for _ in range(8)]
            # release evens then odds: holes must merge back into one
            for lease in leases[::2]:
                arena.release(lease)
            for lease in leases[1::2]:
                arena.release(lease)
            assert arena.stats()["free_holes"] == 1
            # the full span is usable again
            big = arena.lease(ALIGN * 8)
            arena.release(big)
        finally:
            arena.close()
            arena.unlink()

    def test_exhaustion_raises_workspace_error(self):
        arena = ShmArena(ALIGN * 4)
        try:
            lease = arena.lease(ALIGN * 4)
            with pytest.raises(WorkspaceError):
                arena.lease(1)
            assert arena.stats()["lease_failures"] == 1
            arena.release(lease)
        finally:
            arena.close()
            arena.unlink()

    def test_zero_byte_lease_legal(self):
        arena = ShmArena(ALIGN)
        try:
            z = arena.lease(0)
            assert z.nbytes == 0
            arena.release(z)
            assert arena.stats()["leases_outstanding"] == 0
        finally:
            arena.close()
            arena.unlink()

    def test_freed_block_merges_with_both_neighbours(self):
        arena = ShmArena(ALIGN * 3)
        try:
            l1, l2, l3 = (arena.lease(ALIGN) for _ in range(3))
            arena.release(l1)
            arena.release(l3)
            assert arena.stats()["free_holes"] == 2
            # the middle block is adjacent to free holes on BOTH sides
            arena.release(l2)
            assert arena.stats()["free_holes"] == 1
            big = arena.lease(ALIGN * 3)
            arena.release(big)
        finally:
            arena.close()
            arena.unlink()

    def test_interleaved_lease_release_stress(self):
        """Randomized interleaved traffic must re-coalesce to one hole
        and leave zero outstanding leases — the no-fragmentation and
        no-leak invariants together."""
        import random

        rng = random.Random(42)
        arena = ShmArena(ALIGN * 256)
        try:
            live = []
            for step in range(2000):
                if live and (len(live) > 48 or rng.random() < 0.5):
                    arena.release(live.pop(rng.randrange(len(live))))
                else:
                    try:
                        live.append(arena.lease(rng.randrange(1, ALIGN * 8)))
                    except WorkspaceError:
                        # transient exhaustion under fragmentation is
                        # legal; drain a little and carry on
                        arena.release(live.pop(rng.randrange(len(live))))
                # free-list order and disjointness hold at every step
                holes = arena._free
                for (o1, s1), (o2, _s2) in zip(holes, holes[1:]):
                    assert o1 + s1 < o2   # ordered, disjoint, coalesced
            for lease in live:
                arena.release(lease)
            s = arena.stats()
            assert s["leases_outstanding"] == 0
            assert s["leased_bytes"] == 0
            assert s["free_holes"] == 1
        finally:
            arena.close()
            arena.unlink()

    def test_release_overlapping_free_hole_refused(self):
        arena = ShmArena(ALIGN * 4)
        try:
            lease = arena.lease(ALIGN)
            arena.release(lease)
            forged = ShmLease(lease.offset, lease.nbytes)
            before = list(arena._free)
            with pytest.raises(WorkspaceError):
                arena.release(forged)   # overlaps the hole just freed
            assert arena._free == before   # validated before mutation
        finally:
            arena.close()
            arena.unlink()

    def test_double_release_refused(self):
        arena = ShmArena(1024)
        try:
            lease = arena.lease(64)
            arena.release(lease)
            with pytest.raises(WorkspaceError):
                arena.release(lease)
        finally:
            arena.close()
            arena.unlink()

    def test_cross_attach_view_roundtrip(self):
        """Bytes written through the creator's lease are the same bytes
        an attached arena's ndarray view sees — the zero-copy claim."""
        arena = ShmArena(1 << 16)
        other = None
        try:
            rng = np.random.default_rng(0)
            mat = np.asfortranarray(rng.standard_normal((37, 21)))
            lease = arena.lease(mat.nbytes)
            arena.write_bytes(lease, mat.tobytes(order="F"))
            other = ShmArena.attach(arena.name)
            view = other.view(lease.offset, (37, 21), "float64")
            assert np.array_equal(view, mat)
            view[3, 4] = 42.0                 # write back through the view
            got = arena.view(lease.offset, (37, 21), "float64")
            assert got[3, 4] == 42.0
            del view, got
            arena.release(lease)
        finally:
            if other is not None:
                other.close()
            arena.close()
            arena.unlink()


# ---------------------------------------------------------------------- #
class TestRateLimit:
    def test_bucket_burst_and_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=lambda: now[0])
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False
        ]
        now[0] += 1.0                          # 2 tokens refill
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()
        now[0] += 100.0                        # refill clamps at burst
        assert bucket.tokens <= bucket.burst
        assert bucket.allowed == 5 and bucket.refused == 2

    def test_limits_per_client_isolation(self):
        now = [0.0]
        limits = ClientLimits(rate=1.0, burst=1.0, clock=lambda: now[0])
        assert limits.check("alice")
        assert not limits.check("alice")       # alice's bucket is empty
        assert limits.check("bob")             # bob has his own bucket
        assert limits.refused == 1

    def test_limits_disabled_passes_everything(self):
        limits = ClientLimits(rate=0.0)
        assert not limits.enabled
        assert all(limits.check("x") for _ in range(100))

    def test_idle_buckets_expire(self):
        now = [0.0]
        limits = ClientLimits(rate=1.0, idle_expiry=10.0,
                              clock=lambda: now[0])
        limits.check("old")
        now[0] = 11.0
        limits.check("new")                    # first sight triggers sweep
        assert "old" not in limits._buckets


# ---------------------------------------------------------------------- #
class TestShardGate:
    def test_reject_at_capacity(self):
        async def run():
            gate = ShardGate(2, "reject")
            await gate.acquire()
            await gate.acquire()
            with pytest.raises(ServiceOverloaded):
                await gate.acquire()
            gate.release()
            await gate.acquire()               # slot freed, admit again
            assert gate.stats()["rejected"] == 1
        asyncio.run(run())

    def test_block_waits_for_slot(self):
        async def run():
            gate = ShardGate(1, "block")
            await gate.acquire()
            order = []

            async def waiter():
                await gate.acquire(deadline=time.monotonic() + 5.0)
                order.append("acquired")

            task = asyncio.ensure_future(waiter())
            await asyncio.sleep(0.01)
            assert order == []                 # still blocked
            gate.release()
            await task
            assert order == ["acquired"]
        asyncio.run(run())

    def test_block_deadline_expires(self):
        async def run():
            gate = ShardGate(1, "block")
            await gate.acquire()
            with pytest.raises(ServiceOverloaded):
                await gate.acquire(deadline=time.monotonic() + 0.02)
        asyncio.run(run())

    def test_shed_oldest_fails_oldest_waiter(self):
        async def run():
            gate = ShardGate(1, "shed-oldest")
            await gate.acquire()
            outcomes = {}

            async def waiter(name):
                try:
                    await gate.acquire()
                    outcomes[name] = "acquired"
                except ServiceOverloaded:
                    outcomes[name] = "shed"

            t1 = asyncio.ensure_future(waiter("first"))
            await asyncio.sleep(0.01)
            t2 = asyncio.ensure_future(waiter("second"))
            await asyncio.sleep(0.01)          # second sheds first
            gate.release()
            await asyncio.gather(t1, t2)
            assert outcomes == {"first": "shed", "second": "acquired"}
            assert gate.stats()["shed"] == 1
        asyncio.run(run())


# ---------------------------------------------------------------------- #
class TestProtocol:
    def test_frame_roundtrip(self):
        hdr = {"op": "gemm", "id": 7}
        payloads = [b"abc", b"", b"xy" * 100]
        hdr2, payloads2 = unpack_message(pack_message(hdr, payloads))
        assert hdr2["id"] == 7 and hdr2["lens"] == [3, 0, 200]
        assert payloads2 == payloads

    @pytest.mark.parametrize("mutilate", [
        lambda d: d[:3],                       # shorter than the prefix
        lambda d: d[:-1],                      # truncated payload
        lambda d: d + b"!",                    # trailing bytes
        lambda d: b"\xff\xff\xff\xff" + d[4:],  # absurd header length
    ])
    def test_frame_corruption_detected(self, mutilate):
        data = pack_message({"op": "gemm"}, [b"payload"])
        with pytest.raises(ProtocolError):
            unpack_message(mutilate(data))

    def _valid(self, m=4, k=3, n=2, dtype="float64", **kw):
        hdr = gemm_request_header(1, m, k, n, dtype=dtype, tau=TAU, **kw)
        itemsize = np.dtype(dtype).itemsize
        payloads = [bytes(m * k * itemsize), bytes(k * n * itemsize)]
        if kw.get("has_c"):
            payloads.append(bytes(m * n * itemsize))
        return hdr, payloads

    def test_validate_normalizes(self):
        hdr, payloads = self._valid(beta=2.0, has_c=True)
        g = validate_gemm(hdr, payloads)
        assert (g["m"], g["k"], g["n"]) == (4, 3, 2)
        assert isinstance(g["beta"], float) and g["beta"] == 2.0
        assert g["out_bytes"] == 4 * 2 * 8

    def test_validate_keeps_complex_scalars_complex(self):
        hdr, payloads = self._valid(dtype="complex128", alpha=1 + 2j)
        g = validate_gemm(hdr, payloads)
        assert g["alpha"] == 1 + 2j

    @pytest.mark.parametrize("corrupt", [
        {"op": "nope"},
        {"m": -1},
        {"dtype": "float16"},
        {"scheme": "winograd9000"},
        {"peel": "sideways"},
        {"alpha": "NaN-soup"},
        {"timeout_ms": -5},
    ])
    def test_validate_refuses(self, corrupt):
        hdr, payloads = self._valid()
        hdr.update(corrupt)
        with pytest.raises(ProtocolError):
            validate_gemm(hdr, payloads)

    def test_validate_cross_checks_payload_bytes(self):
        hdr, payloads = self._valid()
        with pytest.raises(ProtocolError):
            validate_gemm(hdr, payloads[:1])           # missing B
        with pytest.raises(ProtocolError):
            validate_gemm(hdr, [payloads[0][:-8], payloads[1]])
        hdr2, payloads2 = self._valid(beta=1.0)        # C promised...
        with pytest.raises(ProtocolError):
            validate_gemm(hdr2, payloads2)             # ...but absent

    def test_ws_accept_rfc_vector(self):
        # the worked example from RFC 6455 section 1.3
        assert ws_accept("dGhlIHNhbXBsZSBub25jZQ==") == \
            "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="

    @pytest.mark.parametrize("size", [0, 5, 126, 200, 70000])
    @pytest.mark.parametrize("mask", [False, True])
    def test_ws_frame_roundtrip(self, size, mask):
        payload = bytes(range(256)) * (size // 256 + 1)
        payload = payload[:size]
        frame = ws_encode_frame(0x2, payload, mask=mask)
        asm = WSFrameAssembler()
        out = []
        for i in range(0, len(frame), 7):      # hostile chunking
            out += asm.feed(frame[i:i + 7])
        assert out == [(0x2, payload)]

    def test_ws_rfc_masked_vector(self, monkeypatch):
        # the masked "Hello" text frame of RFC 6455 section 5.7
        monkeypatch.setattr(protocol.os, "urandom",
                            lambda n: bytes.fromhex("37fa213d"))
        frame = ws_encode_frame(0x1, b"Hello", mask=True)
        assert frame == bytes.fromhex("818537fa213d7f9f4d5158")
        assert type(frame) is type(ws_encode_frame(0x1, b"Hello")) \
            is bytearray
        assert WSFrameAssembler().feed(frame) == [(0x1, b"Hello")]

    @pytest.mark.parametrize("size", [*range(20), 65535, 65536, 70001])
    def test_ws_masking_matches_bytewise_reference(self, size,
                                                   monkeypatch):
        key = bytes.fromhex("37fa213d")
        monkeypatch.setattr(protocol.os, "urandom", lambda n: key)
        data = bytes((7 * i + 3) & 0xFF for i in range(size))
        want = bytes(b ^ key[i % 4] for i, b in enumerate(data))
        for src in (data, bytearray(data), memoryview(data)):
            dst = bytearray(size)
            protocol._mask_into(dst, src, key)
            assert dst == want, type(src)
        inplace = bytearray(data)
        protocol._mask_into(inplace, inplace, key)
        assert inplace == want
        # the whole frame: header for every length class, key, payload
        if size < 126:
            head = bytes([0x82, 0x80 | size])
        elif size < 1 << 16:
            head = bytes([0x82, 0x80 | 126]) + struct.pack(">H", size)
        else:
            head = bytes([0x82, 0x80 | 127]) + struct.pack(">Q", size)
        frame = ws_encode_frame(0x2, data, mask=True)
        assert frame == head + key + want
        assert WSFrameAssembler().feed(frame) == [(0x2, data)]

    def test_ws_masked_fragments_reassemble_at_max_message(self):
        message = bytes(range(256)) * 40             # 10240 B
        pieces = [message[i:i + 1000] for i in range(0, len(message), 1000)]
        stream = bytearray()
        for i, piece in enumerate(pieces):
            frame = bytearray(ws_encode_frame(0x2, piece, mask=True))
            fin = 0x80 if i == len(pieces) - 1 else 0
            frame[0] = fin | (0x2 if i == 0 else 0x0)
            stream += frame
            if i == 3:                     # control frames may interleave
                stream += ws_encode_frame(0x9, b"ping", mask=True)
        for limit, ok in ((len(message), True), (len(message) - 1, False)):
            asm = WSFrameAssembler(max_message=limit)
            out = []
            try:
                for i in range(0, len(stream), 777):   # hostile chunking
                    out += asm.feed(bytes(stream[i:i + 777]))
            except ProtocolError:
                assert not ok
                assert out == [(0x9, b"ping")]     # refused at the last piece
            else:
                assert ok
                assert out == [(0x9, b"ping"), (0x2, message)]
                # one payload type for control, fragmented and
                # one-frame messages alike
                out += asm.feed(ws_encode_frame(0x2, b"one", mask=True))
                assert [type(p) for _, p in out] == [bytearray] * 3

    def test_ws_interleaved_frames_one_feed(self):
        f1 = ws_encode_frame(0x2, b"one", mask=True)
        f2 = ws_encode_frame(0x9, b"ping")
        f3 = ws_encode_frame(0x2, b"three")
        asm = WSFrameAssembler()
        assert asm.feed(f1 + f2 + f3) == [
            (0x2, b"one"), (0x9, b"ping"), (0x2, b"three")
        ]


# ---------------------------------------------------------------------- #
# end to end: a real server, spawned worker processes, both transports
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def server():
    srv = ApiServerThread(workers=2, threads=1, capacity=64,
                          policy="block", max_batch=16).start()
    yield srv
    final = srv.drain(timeout=30.0)
    # the module's parting assertion: clean drain, nothing leaked
    for shard in final["shards"]:
        assert shard["arena"]["leases_outstanding"] == 0, shard
        assert shard["gate"]["inflight"] == 0, shard


@pytest.fixture()
def client(server):
    cli = GemmClient("127.0.0.1", server.port, client_id="test-api")
    yield cli
    cli.close()


def _expected(a, b, c, alpha, beta, transa, transb, scheme="auto",
              peel="tail"):
    """In-process reference on canonical (as-transmitted) operands."""
    aF = np.asarray(a, order="F")
    bF = np.asarray(b, order="F")
    m = aF.shape[1] if transa else aF.shape[0]
    n = bF.shape[0] if transb else bF.shape[1]
    if complex(beta) != 0:
        out = np.array(np.asarray(c, order="F"), copy=True)
    else:
        out = np.zeros((m, n), dtype=np.result_type(aF, bF), order="F")
    dgefmm(aF, bF, out, alpha, beta, transa, transb,
           cutoff=CUT, scheme=scheme, peel=peel)
    return out


class TestEndToEnd:
    def test_bit_identity_every_scheme(self, client):
        rng = np.random.default_rng(1)
        a = np.asfortranarray(rng.standard_normal((24, 17)))
        b = np.asfortranarray(rng.standard_normal((17, 19)))
        for scheme in SCHEME_NAMES:
            got = client.call(a, b, cutoff=CUT, scheme=scheme)
            want = _expected(a, b, None, 1.0, 0.0, False, False, scheme)
            assert np.array_equal(got, want), f"scheme {scheme}"

    def test_bit_identity_transposes_beta_dtypes(self, client):
        rng = np.random.default_rng(2)
        for dtype, alpha, beta in (
            ("float64", -1.5, 2.0),
            ("float32", 0.5, 1.0),
            ("complex128", 1 + 2j, -1j),
        ):
            a = np.asfortranarray(
                rng.standard_normal((13, 21)).astype(dtype))
            b = np.asfortranarray(
                rng.standard_normal((11, 13)).astype(dtype))
            c = np.asfortranarray(
                rng.standard_normal((21, 11)).astype(dtype))
            got = client.call(a, b, c, alpha, beta, True, True,
                              cutoff=CUT, scheme="strassen1")
            want = _expected(a, b, c, alpha, beta, True, True,
                             "strassen1")
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), dtype

    def test_degenerate_dimensions_and_alpha_zero(self, client):
        rng = np.random.default_rng(3)
        # m == 0: empty result
        got = client.call(np.zeros((0, 5)), rng.standard_normal((5, 4)))
        assert got.shape == (0, 4)
        # k == 0 with beta: pure beta*C scaling
        c = np.asfortranarray(rng.standard_normal((6, 4)))
        got = client.call(np.zeros((6, 0)), np.zeros((0, 4)), c,
                          1.0, 2.0)
        assert np.array_equal(got, 2.0 * c)
        # alpha == 0 short-circuit
        a = np.asfortranarray(rng.standard_normal((6, 5)))
        b = np.asfortranarray(rng.standard_normal((5, 4)))
        got = client.call(a, b, c, 0.0, 3.0)
        assert np.array_equal(got, 3.0 * c)

    def test_deadline_expiry_propagates_over_the_wire(self, client):
        rng = np.random.default_rng(5)
        a = np.asfortranarray(rng.standard_normal((64, 64)))
        fut = client.submit(a, a, cutoff=CUT, scheme="strassen1",
                            timeout=0.0)
        with pytest.raises(ServiceTimeout):
            fut.result(timeout=60.0)

    def test_http_parity_with_websocket(self, server, client):
        rng = np.random.default_rng(6)
        a = np.asfortranarray(rng.standard_normal((15, 12)))
        b = np.asfortranarray(rng.standard_normal((12, 18)))
        ws = client.call(a, b, cutoff=CUT, scheme="strassen2")
        http = http_gemm("127.0.0.1", server.port, a, b,
                         tau=TAU, scheme="strassen2")
        assert np.array_equal(ws, http)

    def test_http_large_result_matches_websocket(self, server, client):
        # a tiny request with an 8 MiB response body read over HTTP
        rng = np.random.default_rng(9)
        a = np.asfortranarray(rng.standard_normal((1024, 1)))
        b = np.asfortranarray(rng.standard_normal((1, 1024)))
        ws = client.call(a, b, cutoff=CUT)
        http = http_gemm("127.0.0.1", server.port, a, b, tau=TAU)
        assert http.nbytes == 8 << 20
        assert np.array_equal(ws, http)

    def test_large_masked_request_bit_identity(self, client):
        # an 8 MiB masked client frame: 64-bit length header, and the
        # server reassembles it from over a hundred socket reads
        rng = np.random.default_rng(10)
        a = np.asfortranarray(rng.standard_normal((2048, 512)))
        b = np.asfortranarray(rng.standard_normal((512, 2)))
        assert a.nbytes == 8 << 20
        got = client.call(a, b, cutoff=CUT)
        want = _expected(a, b, None, 1.0, 0.0, False, False)
        assert np.array_equal(got, want)

    def test_error_taxonomy_over_the_wire(self, server, client):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 5))
        bad_b = rng.standard_normal((6, 3))    # inner dims disagree
        with pytest.raises(ArgumentError):
            client.submit(a, bad_b)            # caught client-side
        # shipped to the server: a dimension lie in the header
        hdr = gemm_request_header(9, 4, 5, 3, dtype="float64")
        payloads = [bytes(4 * 5 * 8), bytes(99)]
        from repro.api.client import _http_roundtrip

        status, body = _http_roundtrip(
            "127.0.0.1", server.port, "POST", "/v1/gemm",
            pack_message(hdr, payloads),
            ctype="application/x-repro-gemm",
        )
        assert status == HTTP_STATUS["BadRequest"]
        resp, _ = unpack_message(body)
        assert resp["error"] == "BadRequest"

    def test_garbage_body_is_400_not_500(self, server):
        from repro.api.client import _http_roundtrip

        status, body = _http_roundtrip(
            "127.0.0.1", server.port, "POST", "/v1/gemm",
            b"this is not a framed message",
            ctype="application/x-repro-gemm",
        )
        assert status == 400

    def test_healthz_and_metrics_endpoints(self, server):
        status, body = http_get("127.0.0.1", server.port, "/healthz")
        health = json.loads(body)
        assert status == 200 and health["status"] == "ok"
        assert [w["alive"] for w in health["workers"]] == [True, True]
        status, body = http_get("127.0.0.1", server.port, "/metrics")
        snap = json.loads(body)
        assert status == 200
        assert {"frontend", "ratelimit", "shards"} <= set(snap)
        assert len(snap["shards"]) == 2

    def test_no_leases_outstanding_when_idle(self, client):
        rng = np.random.default_rng(8)
        for i in range(4):
            a = np.asfortranarray(rng.standard_normal((20 + i, 16)))
            b = np.asfortranarray(rng.standard_normal((16, 10 + i)))
            client.call(a, b, cutoff=CUT)
        snap = client.stats()
        for shard in snap["shards"]:
            assert shard["arena"]["leases_outstanding"] == 0, shard

    def test_wire_fuzz_short_campaign(self, server):
        report, stats = run_wire_fuzz(
            cases=20, seed=7, host="127.0.0.1", port=server.port,
        )
        assert report.ok, report.failures
        assert report.cases == 20


class TestRouting:
    """The router sends each request to the live shard with the fewest
    requests in flight, ties to the one that has routed the fewest; it
    reads nothing of the request to choose."""

    @pytest.fixture()
    def pair(self):
        srv = ApiServerThread(workers=2, threads=1).start()
        cli = GemmClient("127.0.0.1", srv.port)
        rng = np.random.default_rng(4)
        a = np.asfortranarray(rng.standard_normal((32, 32)))
        b = np.asfortranarray(rng.standard_normal((32, 32)))
        want = _expected(a, b, None, 1.0, 0.0, False, False,
                         scheme="strassen1")
        try:
            yield cli, a, b, want
        finally:
            cli.close()
            final = srv.drain(timeout=30.0)
        for shard in final["shards"]:
            assert shard["arena"]["leases_outstanding"] == 0, shard

    def test_idle_shards_take_turns(self, pair):
        cli, a, b, want = pair
        shards = []
        for _ in range(4):         # both shards idle: the tie-break
            fut = cli.submit(a, b, cutoff=CUT, scheme="strassen1")
            assert np.array_equal(fut.result(timeout=60.0), want)
            shards.append(fut.shard)
        assert shards == [0, 1, 0, 1]

    def test_concurrent_requests_of_one_signature_use_every_shard(
            self, pair):
        cli, a, b, want = pair
        futs = [cli.submit(a, b, cutoff=CUT, scheme="strassen1")
                for _ in range(8)]
        for fut in futs:
            assert np.array_equal(fut.result(timeout=60.0), want)
        assert {fut.shard for fut in futs} == {0, 1}

    def test_dispatch_skips_dead_shards(self):
        router = Router(workers=3)
        s0, s1, s2 = router._shards
        for shard, routed in ((s0, 4), (s1, 5), (s2, 3)):
            shard.gate = ShardGate(4, "reject")
            shard.alive, shard.routed = True, routed
        assert router._pick() is s2        # all idle: fewest routed
        s2.alive = False
        assert router._pick() is s0        # the dead shard is skipped
        asyncio.run(s0.gate.acquire())
        assert router._pick() is s1        # fewest in flight first
        s0.alive = s1.alive = False
        with pytest.raises(ServiceClosed):
            router._pick()


class TestRateLimitEndToEnd:
    def test_429_then_drain(self):
        srv = ApiServerThread(workers=1, capacity=16, policy="block",
                              rate=1.0, burst=2.0).start()
        try:
            cli = GemmClient("127.0.0.1", srv.port, client_id="chatty")
            try:
                a = np.asfortranarray(np.eye(8))
                futs = [cli.submit(a, a, cutoff=CUT) for _ in range(6)]
                outcomes = {"ok": 0, "limited": 0}
                for fut in futs:
                    try:
                        fut.result(timeout=60.0)
                        outcomes["ok"] += 1
                    except RateLimited:
                        outcomes["limited"] += 1
                assert outcomes["ok"] == 2        # the burst
                assert outcomes["limited"] == 4   # refused before admission
                snap = cli.stats()
                assert snap["frontend"]["ratelimited_total"] == 4
                assert snap["ratelimit"]["refused"] == 4
            finally:
                cli.close()
        except BaseException:
            srv.kill()
            raise
        else:
            final = srv.drain(timeout=20.0)
            assert final["health"]["status"] == "draining"
            assert final["frontend"]["ok_total"] == 2
            for shard in final["shards"]:
                assert shard["arena"]["leases_outstanding"] == 0

    def test_draining_server_refuses_with_503(self):
        srv = ApiServerThread(workers=1, capacity=8).start()
        cli = GemmClient("127.0.0.1", srv.port)
        try:
            a = np.asfortranarray(np.eye(4))
            assert cli.call(a, a, cutoff=CUT) is not None
        finally:
            cli.close()
            srv.drain(timeout=20.0)
        # post-drain: the listener is gone entirely
        import socket as _socket

        with pytest.raises(OSError):
            _socket.create_connection(("127.0.0.1", srv.port),
                                      timeout=1.0)


class TestServerGoneUnderLiveClient:
    """A client whose server drains or dies refuses work at once."""

    @pytest.mark.parametrize("stop", ["drain", "kill"])
    def test_submit_raises_service_closed(self, stop):
        srv = ApiServerThread(workers=1, capacity=8).start()
        cli = GemmClient("127.0.0.1", srv.port)
        try:
            a = np.asfortranarray(np.eye(4))
            assert np.array_equal(cli.call(a, a, cutoff=CUT), a)
            if stop == "drain":
                srv.drain(timeout=20.0)
            else:
                srv.kill()
            t0 = time.monotonic()
            # a submit that slips in before the reader exits fails with
            # its future; after that, submit itself refuses
            with pytest.raises(ServiceClosed):
                while True:
                    cli.submit(a, a, cutoff=CUT).result(timeout=2.0)
            assert time.monotonic() - t0 < 2.0
            with pytest.raises(ServiceClosed):
                cli.submit(a, a, cutoff=CUT)
        finally:
            cli.close()
        assert cli._sock.fileno() == -1      # close() released the socket

    def test_drain_closes_sessions_with_going_away(self):
        srv = ApiServerThread(workers=1, capacity=8).start()
        with socket.create_connection(("127.0.0.1", srv.port),
                                      timeout=10.0) as sock:
            sock.sendall(
                b"GET /v1/ws HTTP/1.1\r\nHost: test\r\n"
                b"Upgrade: websocket\r\nConnection: Upgrade\r\n"
                b"Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\n"
                b"Sec-WebSocket-Version: 13\r\n\r\n"
            )
            head = b""
            while b"\r\n\r\n" not in head:
                head += sock.recv(4096)
            assert b" 101 " in head
            srv.drain(timeout=20.0)
            data = head.split(b"\r\n\r\n", 1)[1]
            while len(data) < 4:
                chunk = sock.recv(64)
                assert chunk, "connection dropped without a close frame"
                data += chunk
        assert WSFrameAssembler().feed(data) == [
            (0x8, (1001).to_bytes(2, "big"))
        ]


class TestWorkerDeath:
    def test_sigkill_fails_in_flight_and_survivor_serves(self):
        srv = ApiServerThread(workers=2, threads=1, capacity=16).start()
        cli = GemmClient("127.0.0.1", srv.port)
        try:
            rng = np.random.default_rng(21)
            big = np.asfortranarray(rng.standard_normal((1200, 1200)))
            fut = cli.submit(big, big)
            deadline = time.monotonic() + 30.0
            while True:                       # until a shard is busy
                workers = cli.healthz()["workers"]
                busy = [w["shard"] for w in workers if w["inflight"]]
                if busy:
                    break
                assert time.monotonic() < deadline, workers
                time.sleep(0.005)
            (dead,) = busy
            os.kill(workers[dead]["pid"], signal.SIGKILL)
            t0 = time.monotonic()
            exc = fut.exception(timeout=5.0)
            assert type(exc) is ServiceError, exc
            assert time.monotonic() - t0 < 5.0

            health = cli.healthz()
            assert health["status"] == "degraded"
            assert [w["alive"] for w in health["workers"]] == [
                i != dead for i in range(2)
            ]

            # every request now runs on the survivor: the router skips
            # the dead shard, though it is idle and soon has routed less
            for m in range(8, 12):
                a = np.asfortranarray(rng.standard_normal((m, 24)))
                b = np.asfortranarray(rng.standard_normal((24, 16)))
                fut = cli.submit(a, b)
                got = fut.result(timeout=60.0)
                want = np.zeros((m, 16), order="F")
                dgefmm(a, b, want)
                assert fut.shard == 1 - dead
                assert np.array_equal(got, want), m
        finally:
            cli.close()
        final = srv.drain(timeout=30.0)
        for shard in final["shards"]:
            assert shard["arena"]["leases_outstanding"] == 0, shard


class TestStalledWorker:
    def test_loop_stays_live_while_a_worker_reads_nothing(self):
        """More requests than a pipe holds (about 170 small messages)
        go to a stopped worker: the router queues them instead of
        blocking its event loop on the pipe, so the server keeps
        answering, and every request completes once the worker runs."""
        srv = ApiServerThread(workers=1, capacity=1024, policy="block",
                              ).start()
        cli = GemmClient("127.0.0.1", srv.port)
        try:
            pid = cli.healthz()["workers"][0]["pid"]
            a = np.asfortranarray(np.random.default_rng(22)
                                  .standard_normal((4, 4)))
            os.kill(pid, signal.SIGSTOP)
            try:
                futs = [cli.submit(a, a) for _ in range(400)]
                deadline = time.monotonic() + 10.0
                while True:          # every answer shows the loop live
                    _, body = http_get("127.0.0.1", srv.port, "/healthz",
                                       timeout=2.0)
                    if json.loads(body)["workers"][0]["inflight"] == 400:
                        break
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
            finally:
                os.kill(pid, signal.SIGCONT)
            want = np.zeros((4, 4), order="F")
            dgefmm(a, a, want)
            for fut in futs:
                assert np.array_equal(fut.result(timeout=60.0), want)
        finally:
            cli.close()
        final = srv.drain(timeout=30.0)
        assert final["shards"][0]["arena"]["leases_outstanding"] == 0


# ---------------------------------------------------------------------- #
# tuned-profile hot swap over the wire
# ---------------------------------------------------------------------- #
class TestProfileReload:
    """The ``reload`` control op: tuned profiles hot-swap into live
    workers without dropping requests, and post-swap responses stay
    bit-identical to direct dgefmm under the tuned config."""

    @staticmethod
    def _write_profile(directory, m):
        from repro.core.cutoff import SimpleCutoff as _SC
        from repro.tune import ProfileStore, TunedProfile, class_key

        prof = TunedProfile(
            key=class_key(m, m, m),
            cutoff=_SC(32), nb=96, backend="vendor",
        )
        store = ProfileStore(str(directory))
        store.put(prof)
        store.save()
        return prof

    def test_reload_and_post_swap_bit_identity(self, server, tmp_path):
        m = 96
        prof = self._write_profile(tmp_path, m)
        rng = np.random.default_rng(11)
        a = np.asfortranarray(rng.standard_normal((m, m)))
        b = np.asfortranarray(rng.standard_normal((m, m)))

        # pre-swap: a knobless request serves under the defaults
        pre = GemmClient("127.0.0.1", server.port, client_id="reload-pre")
        try:
            got = pre.call(a, b)
        finally:
            pre.close()
        want = np.zeros((m, m), order="F")
        dgefmm(a, b, want)
        assert np.array_equal(got, want)

        # the swap: every live shard loads the profile
        reports = server.reload(str(tmp_path))
        assert reports, "no shards answered the reload"
        for rep in reports:
            assert rep["ok"] is True, rep
            assert rep["loaded"] == 1, rep
            assert prof.key in rep["profiles"]["keys"], rep

        # post-swap: the same knobless request resolves the tuned
        # vendor config, whose recursing root replays a fused plan in
        # the worker; the reference walks, which gives the same bits
        post = GemmClient("127.0.0.1", server.port, client_id="reload-post")
        try:
            got = post.call(a, b)
        finally:
            post.close()
        cfg = prof.to_config()
        want = np.zeros((m, m), order="F")
        dgefmm(a, b, want, cutoff=cfg.cutoff, scheme=cfg.scheme,
               peel=cfg.peel, nb=cfg.nb, backend=cfg.backend)
        assert np.array_equal(got, want)

        # an explicit per-request knob still beats the profile — for
        # that knob; resolution is per-knob, so the unpinned knobs
        # (nb, backend) keep coming from the profile
        explicit = GemmClient("127.0.0.1", server.port,
                              client_id="reload-explicit")
        try:
            got = explicit.call(a, b, cutoff=CUT)
        finally:
            explicit.close()
        want = np.zeros((m, m), order="F")
        dgefmm(a, b, want, cutoff=CUT, scheme=cfg.scheme, peel=cfg.peel,
               nb=cfg.nb, backend=cfg.backend)
        assert np.array_equal(got, want)

    def test_reload_endpoint_over_http(self, server, tmp_path):
        from repro.api.client import _http_roundtrip

        self._write_profile(tmp_path, 64)
        status, body = _http_roundtrip(
            "127.0.0.1", server.port, "POST", "/v1/reload",
            json.dumps({"directory": str(tmp_path)}).encode(),
        )
        assert status == 200, body
        doc = json.loads(body)
        assert doc["ok"] is True
        assert all(s["ok"] for s in doc["shards"])

    def test_reload_missing_directory_reports_empty(self, server,
                                                    tmp_path):
        reports = server.reload(str(tmp_path / "nowhere"))
        for rep in reports:
            assert rep["ok"] is True
            assert rep["loaded"] == 0 and rep["files"] == 0
