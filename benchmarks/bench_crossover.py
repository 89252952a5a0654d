"""Section 3.4 over the host BLAS: where does a Strassen level beat it?

The paper sets DGEFMM's cutoff by measuring where one Strassen level
beats the DGEMM it calls (Table 2: tau = 199, 129 and 325 on three
machines).  This bench asks the same question of numpy's BLAS, the
``np.matmul`` leaf that ``backend="vendor"`` calls, walked or replayed, with
one BLAS thread so the numbers are per processor, as the paper's are:

1. effective GFLOP/s (``2mkn / seconds``) of one ``np.matmul``, the
   vendor walk (``dgefmm(backend="vendor")``) and warm fused replay
   (the same call through a plan cache) at ``DepthCutoff(0)``, ``(1)``
   and ``(2)``, for square orders 512-4096 and the odd orders 1023 and
   2047 (which peel);
2. the :func:`repro.tune.measure.measure_crossover` scan over the
   vendor kernel that sets :data:`repro.core.config.BLAS_CUTOFF`: its
   recommended tau when some order wins, else the top of the scan.

Every output is checked against ``np.matmul`` within the fuzz oracle's
float64 tolerance; speed is reported, never asserted.  The measurement
runs in a child process that sets ``OPENBLAS_NUM_THREADS=1`` before
numpy loads.  Run it with::

    PYTHONPATH=src python -m pytest benchmarks/bench_crossover.py -s

or directly, ``PYTHONPATH=src python -m benchmarks.bench_crossover``.
The full run takes a few minutes and about 1 GB at order 4096.
"""

import json
import os
import subprocess
import sys

import pytest

ORDERS = (512, 1023, 1024, 1536, 2047, 2048, 3072, 4096)
DEPTHS = (0, 1, 2)
REPEATS = 3
#: the crossover scan behind BLAS_CUTOFF: square orders lo..hi
SCAN = {"lo": 512, "hi": 4096, "step": 512, "repeats": 5}
#: float64 tolerance of repro.fuzz.oracle, times the result's scale
TOL = 1e-9


def _measure() -> dict:
    """Every row and the scan; runs with one BLAS thread."""
    import numpy as np

    from repro.core.config import BLAS_CUTOFF
    from repro.core.cutoff import DepthCutoff
    from repro.core.dgefmm import dgefmm
    from repro.core.pool import WorkspacePool
    from repro.plan import PlanCache
    from repro.tune.measure import measure_crossover
    from repro.utils.timing import time_call

    rows = []
    for m in ORDERS:
        rng = np.random.default_rng(m)
        a = np.asfortranarray(rng.standard_normal((m, m)))
        b = np.asfortranarray(rng.standard_normal((m, m)))
        c = np.empty((m, m), order="F")
        expect = a @ b
        atol = TOL * max(1.0, float(np.max(np.abs(expect))))
        cache, pool = PlanCache(), WorkspacePool()
        runs = [("matmul", 0, lambda: np.matmul(a, b, out=c))]
        for d in DEPTHS:
            crit = DepthCutoff(d)
            runs.append(("vendor", d, lambda crit=crit: dgefmm(
                a, b, c, cutoff=crit, backend="vendor")))
            runs.append(("fused", d, lambda crit=crit: dgefmm(
                a, b, c, cutoff=crit, plan_cache=cache, pool=pool,
                backend="vendor")))
        base = None
        for path, d, fn in runs:
            c.fill(np.nan)
            med, best = time_call(fn, repeats=REPEATS)
            err = float(np.max(np.abs(c - expect)))
            base = med if base is None else base
            rows.append({
                "order": m, "path": path, "depth": d,
                "median_s": med, "best_s": best,
                "gflops_median": 2.0 * m ** 3 / med / 1e9,
                "gflops_best": 2.0 * m ** 3 / best / 1e9,
                "vs_matmul": base / med,
                "max_err": err, "atol": atol,
                "ok": bool(np.isfinite(c).all()) and err <= atol,
            })
        del a, b, c, expect, cache, pool

    crossover = measure_crossover(backend="vendor", **SCAN)
    measured = crossover["measured"]
    tau = measured["recommended"] if measured is not None else SCAN["hi"]
    return {
        "params": {"orders": list(ORDERS), "depths": list(DEPTHS),
                   "repeats": REPEATS, "scan": SCAN, "tol": TOL,
                   "cpus": os.cpu_count(), "numpy": np.__version__,
                   "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
        "rows": rows,
        "crossover": crossover,
        "blas_cutoff": {
            "tau": tau,
            "rule": "the scan's recommended tau when some order wins, "
                    "else the top of the scan",
            "committed": BLAS_CUTOFF.tau,
        },
    }


def _table(doc: dict) -> str:
    lines = ["  order  path     depth  GFLOP/s (best/median)  vs matmul"]
    for r in doc["rows"]:
        lines.append(
            f"  {r['order']:5d}  {r['path']:7s}  {r['depth']:5d}  "
            f"{r['gflops_best']:8.1f} / {r['gflops_median']:6.1f}   "
            f"{r['vs_matmul']:6.2f}x")
    cr = doc["crossover"]
    for t in cr["timings"]:
        lines.append(f"  scan {t['order']:5d}: one level / dgemm = "
                     f"{t['one_level_s'] / t['gemm_s']:.3f}")
    found = (f"first win {cr['measured']['first']}" if cr["measured"]
             else cr["reason"])
    lines.append(f"  vendor crossover scan: {found}; "
                 f"BLAS_CUTOFF tau = {doc['blas_cutoff']['tau']}")
    return "\n".join(lines)


@pytest.mark.slow
def test_crossover(benchmark):
    from benchmarks.conftest import emit, emit_json

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), root]
        + [p for p in [os.environ.get("PYTHONPATH")] if p])

    def run() -> dict:
        out = subprocess.run(
            [sys.executable, "-m", "benchmarks.bench_crossover"],
            cwd=root, env=env, check=True, capture_output=True, text=True)
        return json.loads(out.stdout)

    doc = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_json("crossover", doc["params"], doc["rows"],
              crossover=doc["crossover"], blas_cutoff=doc["blas_cutoff"])
    emit("Crossover over the host BLAS (one thread)", _table(doc))
    bad = [r for r in doc["rows"] if not r["ok"]]
    assert not bad, bad
    assert doc["params"]["blas_threads"] == "1"


if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    json.dump(_measure(), sys.stdout)
