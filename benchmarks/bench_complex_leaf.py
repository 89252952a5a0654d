"""Complex leaf bench: the substrate DGEMM on complex tiles.

The substrate computes a complex tile as four real products on the
interleaved real view of op(A) (:func:`repro.blas.level3._tile`).  This
bench times substrate ``dgemm`` on 32³ and 128³ complex128 and complex64
tiles against the loop it replaced: one ``np.einsum`` over the same
complex operands, written into a Fortran-ordered output, kept inline
here as the baseline.  float64 and float32 ``dgemm`` rows give the real
loop's rate for reference, and ``dgefmm`` rows at 256³ and 512³ show
what the leaf makes of a whole recursion.  Each row is the best of N,
as ms and real GFLOP/s: 8mkn real flops for a complex product, 2mkn for
a real one (for ``dgefmm``, the classical count: an effective rate).

Gate: at 128³ substrate ``dgemm`` is at least 1.6x the complex einsum
for complex128 and 3x for complex64.  On a 2-vCPU host the complex loop
read 3.2 and 3.1 real GFLOP/s, against 6.6 for float64 and 13.1 for
float32.  Run it with::

    PYTHONPATH=src python -m pytest benchmarks/bench_complex_leaf.py -s
"""

import time

import numpy as np

from benchmarks.conftest import emit, emit_json
from repro import dgefmm
from repro.blas.level3 import dgemm

#: tile edge -> repetitions (best of)
TILES = {32: 200, 128: 15}
#: dgefmm order -> repetitions (best of)
ORDERS = {256: 3, 512: 2}
COMPLEX = ("complex128", "complex64")
REAL = ("float64", "float32")
GATE_N = 128
GATE_X = {"complex128": 1.6, "complex64": 3.0}


def _best(fn, n):
    fn()
    ts = []
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        ts.append(time.perf_counter() - t0)
    return min(ts)


def _operands(rng, n, dtype):
    def draw():
        x = rng.standard_normal((n, n))
        if dtype in COMPLEX:
            x = x + 1j * rng.standard_normal((n, n))
        return np.asfortranarray(x.astype(dtype))

    return draw(), draw(), np.zeros((n, n), dtype=dtype, order="F")


def _complex_einsum(a, b):
    """The replaced complex tile: numpy's scalar complex einsum loop."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=a.dtype, order="F")
    np.einsum("ik,kj->ij", a, b, out=out)
    return out


def _row(op, dtype, n, best, **extra):
    flops = (8.0 if dtype in COMPLEX else 2.0) * n ** 3
    return {"op": op, "dtype": dtype, "n": n, "best_ms": best * 1e3,
            "real_gflops": flops / best / 1e9, **extra}


def _measure():
    rng = np.random.default_rng(0)
    rows = []
    for n, reps in TILES.items():
        for dtype in COMPLEX + REAL:
            a, b, c = _operands(rng, n, dtype)
            leaf = _best(lambda: dgemm(a, b, c), reps)
            if dtype in COMPLEX:
                loop = _best(lambda: _complex_einsum(a, b), reps)
                rows.append(_row("einsum", dtype, n, loop))
                rows.append(_row("dgemm", dtype, n, leaf,
                                 x_einsum=loop / leaf))
            else:
                rows.append(_row("dgemm", dtype, n, leaf))
    for n, reps in ORDERS.items():
        for dtype in COMPLEX:
            a, b, c = _operands(rng, n, dtype)
            rows.append(_row("dgefmm", dtype, n,
                             _best(lambda: dgefmm(a, b, c), reps)))
    return rows


def test_complex_leaf(benchmark):
    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)
    emit(
        "Complex leaf: best-of-N ms (real GFLOP/s, x complex einsum)",
        "\n".join(
            f"{r['op']:>7} {r['dtype']:>10} {r['n']:>4}³ "
            f"{r['best_ms']:10.3f} ms ({r['real_gflops']:6.2f} GFLOP/s"
            + (f", {r['x_einsum']:5.2f}x" if "x_einsum" in r else "")
            + ")"
            for r in rows
        ),
    )
    emit_json("complex_leaf", {"tiles": list(TILES),
                               "tile_repeats": list(TILES.values()),
                               "orders": list(ORDERS),
                               "order_repeats": list(ORDERS.values()),
                               "gate_n": GATE_N, "gate_x_einsum": GATE_X},
              rows)
    gated = [r for r in rows if r["n"] == GATE_N and "x_einsum" in r]
    assert sorted(r["dtype"] for r in gated) == sorted(COMPLEX)
    for r in gated:
        assert r["x_einsum"] >= GATE_X[r["dtype"]], r
