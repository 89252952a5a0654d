"""api start-up bench: what a serving process pays before it serves.

Every api process (the front end, each worker, each respawn) imports
the package before it answers a request.  Two timings, each the median
of ``REPS`` fresh interpreters:

- ``import_s``: ``import repro, repro.api``, numpy included, with the
  number of modules it loads and whether scipy is among them;
- ``first16_s``: a 2-worker ``ApiServerThread`` (one service thread per
  worker, as the e2e ``api-small`` workload runs it) from ``start()``
  until the first 16 ``api-small`` responses are back, one request per
  signature of the e2e serving mix through one ``GemmClient``.  This is
  worker spawn and worker imports, then the first plan compiles.  Each
  response is checked bit-identical to a direct ``dgefmm`` call.

BLAS runs on one thread, as in the e2e runner.  Run it on this tree::

    PYTHONPATH=src python -m pytest benchmarks/bench_api_start.py -s

``BENCH_api_start.json`` holds a before/after pair: run as a module
with a second tree's ``src/``, the bench alternates fresh interpreters
between the two trees and writes one row per tree and timing::

    python -m benchmarks.bench_api_start --parent-src ../parent/src
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from benchmarks.conftest import emit, emit_json

ROOT = Path(__file__).resolve().parent.parent
REPS = 3

IMPORT_PROBE = """
import json, sys, time
t0 = time.perf_counter()
import repro, repro.api
dt = time.perf_counter() - t0
print(json.dumps({"s": dt, "modules": len(sys.modules),
                  "scipy": any(m.startswith("scipy") for m in sys.modules)}))
"""

FIRST16_PROBE = """
import json, time
import numpy as np
from benchmarks.e2e.workloads import make_problems
from repro import dgefmm
from repro.api import ApiServerThread, GemmClient

problems = make_problems("api-small", 0)
t0 = time.perf_counter()
srv = ApiServerThread(workers=2, threads=1)
srv.start()
client = GemmClient("127.0.0.1", srv.port)
futs = [client.submit(p.a, p.b, p.c0, p.alpha, p.beta, p.transa, p.transb)
        for p in problems]
outs = [f.result(timeout=60.0) for f in futs]
dt = time.perf_counter() - t0
client.close()
srv.drain(timeout=20.0)
for p, got in zip(problems, outs):
    want = p.reset()
    dgefmm(p.a, p.b, want, p.alpha, p.beta, p.transa, p.transb)
    assert np.array_equal(got, want), (p.m, p.k, p.n, p.dtype)
print(json.dumps({"s": dt, "responses": len(outs)}))
"""

PROBES = {"import_s": IMPORT_PROBE, "first16_s": FIRST16_PROBE}


def _probe(src: Path, code: str) -> dict:
    """Run ``code`` in a fresh interpreter on the tree at ``src``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join((str(src), str(ROOT))))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def measure(trees: dict) -> list:
    """One row per (tree, timing): the median over ``REPS`` runs.

    Runs alternate between the trees, and the tree that goes first
    alternates from rep to rep, so drift hits every tree alike.  One
    untimed import per tree first writes its bytecode caches.
    """
    for src in trees.values():
        _probe(src, IMPORT_PROBE)
    runs = {(tree, name): [] for tree in trees for name in PROBES}
    names = list(trees)
    for rep in range(REPS):
        order = names if rep % 2 == 0 else names[::-1]
        for name, code in PROBES.items():
            for tree in order:
                runs[tree, name].append(_probe(trees[tree], code))
    rows = []
    for (tree, name), got in runs.items():
        row = {"tree": tree, "timing": name,
               "median_s": statistics.median(r["s"] for r in got),
               "runs_s": [r["s"] for r in got]}
        if name == "import_s":
            row["modules"] = got[-1]["modules"]
            row["scipy_loaded"] = got[-1]["scipy"]
        rows.append(row)
    return rows


def _table(rows: list) -> str:
    return "\n".join(
        f"{r['tree']:>7} {r['timing']:>10}  median {r['median_s']:.3f} s  "
        f"runs {', '.join(f'{s:.3f}' for s in r['runs_s'])}"
        + (f"  ({r['modules']} modules, scipy "
           f"{'loaded' if r['scipy_loaded'] else 'not loaded'})"
           if "modules" in r else "")
        for r in rows)


def test_api_start(benchmark):
    rows = benchmark.pedantic(lambda: measure({"tree": ROOT / "src"}),
                              rounds=1, iterations=1)
    emit("api start-up: import, and first 16 api-small responses",
         _table(rows))
    assert {r["timing"] for r in rows} == set(PROBES)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent-src", type=Path, required=True,
                    help="the src/ directory of the tree to compare with")
    args = ap.parse_args(argv)
    rows = measure({"parent": args.parent_src.resolve(),
                    "change": ROOT / "src"})
    print(_table(rows))
    emit_json("api_start", {
        "reps": REPS, "workers": 2, "threads": 1, "requests": 16,
        "statistic": "median of fresh interpreters, trees alternated",
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__, "blas_threads": 1},
    }, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
