"""WebSocket framing bench: what the wire costs next to a plain copy.

Every api request crosses the wire as one masked client frame (RFC 6455
requires clients to mask), and every response as one unmasked server
frame.  This bench times :func:`~repro.api.protocol.ws_encode_frame`
and :class:`~repro.api.protocol.WSFrameAssembler`, masked and unmasked,
at 16 KiB (an api-small request), 1 MiB and 16 MiB.  Decode is fed in
64 KiB chunks, the size of the server's socket reads.  Each row reports
the best of N as ms and MB/s, and its ratio to one plain copy of the
same bytes (``bytearray(payload)``), which carries across hosts where
the raw times do not.

Gate: masked encode and masked decode at 1 MiB each take at most 25x a
copy.  A mask built with ``np.resize``, one numpy array per four
payload bytes, read about 640x on a 2-vCPU host.  Run it with::

    PYTHONPATH=src python -m pytest benchmarks/bench_wire.py -s
"""

import os
import time

from benchmarks.conftest import emit, emit_json
from repro.api.protocol import WSFrameAssembler, ws_encode_frame

#: payload bytes -> repetitions (best of)
SIZES = {16 << 10: 50, 1 << 20: 15, 16 << 20: 3}
CHUNK = 1 << 16
GATE_SIZE = 1 << 20
GATE_X_COPY = 25.0


def _best(fn, n):
    ts = []
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        ts.append(time.perf_counter() - t0)
    return min(ts)


def _decode(chunks):
    asm = WSFrameAssembler()
    out = []
    for chunk in chunks:
        out += asm.feed(chunk)
    return out


def _measure():
    rows = []
    for size, reps in SIZES.items():
        payload = os.urandom(size)
        copy_s = _best(lambda: bytearray(payload), reps)
        for mask in (True, False):
            frame = bytes(ws_encode_frame(0x2, payload, mask=mask))
            chunks = [frame[i:i + CHUNK]
                      for i in range(0, len(frame), CHUNK)]
            assert _decode(chunks) == [(0x2, payload)]
            timed = {
                "encode": lambda: ws_encode_frame(0x2, payload, mask=mask),
                "decode": lambda: _decode(chunks),
            }
            for op, fn in timed.items():
                best = _best(fn, reps)
                rows.append({
                    "op": op, "mask": mask, "bytes": size,
                    "best_ms": best * 1e3, "mb_s": size / best / 1e6,
                    "copy_ms": copy_s * 1e3, "x_copy": best / copy_s,
                })
    return rows


def test_wire_framing(benchmark):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    emit(
        "Wire framing: best-of-N ms (MB/s, x one copy)",
        "\n".join(
            f"{r['op']:>6} {'masked' if r['mask'] else 'plain':>6} "
            f"{r['bytes']:>9} B  {r['best_ms']:9.3f} ms "
            f"({r['mb_s']:8.0f} MB/s, {r['x_copy']:7.1f}x)"
            for r in rows
        ),
    )
    emit_json("wire", {"sizes": list(SIZES), "repeats": list(SIZES.values()),
                       "chunk": CHUNK, "gate_bytes": GATE_SIZE,
                       "gate_x_copy": GATE_X_COPY}, rows)
    gated = [r for r in rows if r["mask"] and r["bytes"] == GATE_SIZE]
    assert len(gated) == 2
    for r in gated:
        assert r["x_copy"] <= GATE_X_COPY, r
