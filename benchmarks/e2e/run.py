"""End-to-end benchmark runner: one workload per process, or all of them.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload gemm-square --seed 1 \\
        --seconds 20 --trace 0
    python -m benchmarks.e2e                  # every workload, in turn

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the same phases with the outside-in span tracer
installed and reports the per-layer metrics.  Every metric is printed
by name with its unit; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The full
result (host, per-phase counts, quartiles, set-up repetitions) goes to
``--out`` (default ``benchmarks/e2e/out/``), and a traced run's spans to
``<workload>.spans.jsonl`` beside it.  A run exits 1 when any output
diverges from its reference, and 2 when the package cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# Run as a script, this directory heads sys.path and its trace.py would
# shadow the standard library's; the repository root and src/ go first.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
for _p in (ROOT, ROOT / "src"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

def load_spec() -> dict:
    """``BENCHMARK.json``: the workloads, metric names, units and bounds."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


WORKLOAD_NAMES = tuple(w["name"] for w in load_spec()["workloads"])


def _git_commit() -> str | None:
    """HEAD's commit, read from ``.git`` (None outside a git checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, asked of the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def host_info() -> dict:
    """The host every number in a result was measured on."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in
                ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in
                     ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
                     if k in os.environ},
        "git_commit": _git_commit(),
    }


def stop_children() -> None:
    """Stop and reap every process the run started.

    The api workload's worker processes are joined by its drain, but its
    shared-memory arenas also start multiprocessing's resource tracker,
    which outlives the run unless stopped and waited for here.
    """
    import multiprocessing as mp
    from multiprocessing import resource_tracker

    for proc in mp.active_children():
        proc.terminate()
        proc.join(5.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
    resource_tracker._resource_tracker._stop()


def run_one(args: argparse.Namespace, spec: dict) -> int:
    try:
        return _run_one(args, spec)
    finally:
        stop_children()


def _run_one(args: argparse.Namespace, spec: dict) -> int:
    t0 = time.perf_counter()
    try:
        # timed: importing what the workload's front door needs is
        # set-up work
        import repro  # noqa: F401
        if args.workload == "api-small":
            import repro.api  # noqa: F401
    except ImportError as exc:
        print(f"e2e: cannot import the repro package: {exc}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    from benchmarks.e2e.trace import Tracer
    from benchmarks.e2e.workloads import run_workload

    tracer = Tracer() if args.trace else None
    doc = run_workload(args.workload, args.seed, args.seconds, import_s,
                       tracer, quick=args.quick)
    doc["import_s"] = import_s
    doc["host"] = host_info()

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = doc["layers"] if args.trace else doc["e2e"]
    doc["not_exercised"] = sorted(m["name"] for m in wanted
                                  if m["name"] not in source)
    if not args.trace and doc["not_exercised"]:
        raise RuntimeError(f"end-to-end metrics missing: "
                           f"{doc['not_exercised']}")
    metrics = {m["name"]: {"value": float(source.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    doc["metrics"] = metrics

    out = Path(args.out) if args.out else (
        HERE / "out" / f"{args.workload}-seed{args.seed}"
                       f"-trace{int(args.trace)}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:  # one line: result files concatenate to JSONL
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
    if tracer is not None:
        tracer.dump(str(out.parent / f"{args.workload}.spans.jsonl"))

    for name, m in metrics.items():
        print(f"{args.workload:<14} {name:<34} {m['value']:>14.6g} "
              f"{m['unit']}")
    print(f"{args.workload:<14} attempted {doc['attempted']}, failed "
          f"{doc['failed']}, correct {doc['correct']}; result {out}")
    print(json.dumps({"correct": doc["correct"],
                      "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0 if doc["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in a fresh interpreter."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        if args.quick:
            cmd.append("--quick")
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
    return status


def main(argv: list | None = None) -> int:
    # Single-threaded BLAS, set before numpy loads: on a shared 2-vCPU
    # host a threaded OpenBLAS call stalls for seconds whenever the
    # other vCPU is taken away, and the paper's comparisons are per
    # processor.  Spawned api workers inherit it.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=("all",) + WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="measured time per run (set-up excluded)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="1: traced run, per-layer metrics")
    ap.add_argument("--quick", action="store_true",
                    help="small library shapes, for the smoke test")
    ap.add_argument("--out", help="result JSON path")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
