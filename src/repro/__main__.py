"""Command-line interface: ``python -m repro <command>``.

Commands
--------
report    regenerate the paper's tables/figures (see harness.report)
figures   export figure series as CSV files
memory    print the Table 1 memory coefficients for a given order
parallel  repeated-call throughput: serial vs pooled parallel DGEFMM
plan      compile/explain/replay execution plans (``--selftest`` verifies)
fuzz      differential fuzzing campaign over every execution path
serve     batched GEMM service under open-loop load, verified live
api       network front-end over multi-process sharded serving
          (actions: serve, fuzz, load)
calibrate fit a MachineModel: paper presets, or this host (--host)
tune      online autotuning loop (actions: measure, search, show, apply)
selftest  quick end-to-end verification of the installation

Every command accepts ``--json`` and then prints a single JSON document
with the benchmark schema ``{"bench", "schema", "params", "rows"}`` —
the same shape ``benchmarks/conftest.py`` writes as ``BENCH_*.json`` —
so CLI runs can be captured as bench trajectories.  Commands exit 0 on
success, 1 when their own checks fail (fuzz divergence, selftest
failure, serve divergence/error), and 70 (EX_SOFTWARE) when an
unexpected internal error escapes a command.
"""

from __future__ import annotations

import argparse
import sys


def _print_bench_json(bench: str, params: dict, rows: list, **extra) -> None:
    """Emit one benchmark-schema JSON document on stdout."""
    import json

    doc = {"bench": bench, "schema": 1, "params": params, "rows": rows}
    doc.update(extra)
    print(json.dumps(doc, indent=2, sort_keys=True))


def _cmd_report(args) -> int:
    from repro.harness.report import render

    text = render(args.only, args.full)
    if args.json:
        _print_bench_json(
            "report", {"only": args.only or None, "full": args.full},
            [], lines=text.splitlines(),
        )
        return 0
    sys.stdout.write(text)
    return 0


def _cmd_figures(args) -> int:
    from repro.harness.figdata import export_all_figures

    paths = export_all_figures(args.outdir, fast=not args.full)
    if args.json:
        _print_bench_json(
            "figures", {"outdir": args.outdir, "full": args.full},
            [{"path": str(p)} for p in paths],
        )
        return 0
    for p in paths:
        print(p)
    return 0


def _cmd_memory(args) -> int:
    from repro.harness.experiments import table1_memory
    from repro.utils.tables import format_table

    rows = table1_memory(m=args.order)
    if args.json:
        _print_bench_json("memory", {"order": args.order}, rows)
        return 0
    print(
        format_table(
            ["implementation", "beta=0 (m^2)", "general (m^2)"],
            [
                (r["implementation"], f"{r['beta0']:.3f}",
                 f"{r['general']:.3f}")
                for r in rows
            ],
            title=f"measured workspace coefficients, order {args.order}",
        )
    )
    return 0


def _cmd_parallel(args) -> int:
    """Throughput of repeated GEMMs: serial vs multi-level parallel/pooled."""
    import time

    import numpy as np

    from repro.core.cutoff import SimpleCutoff
    from repro.core.dgefmm import dgefmm
    from repro.core.parallel import parallel_arena_count, pdgefmm
    from repro.core.pool import WorkspacePool, workspace_bound_bytes
    from repro.core.workspace import Workspace

    m = args.order
    rng = np.random.default_rng(0)
    a = np.asfortranarray(rng.standard_normal((m, m)))
    b = np.asfortranarray(rng.standard_normal((m, m)))
    c = np.zeros((m, m), order="F")
    crit = SimpleCutoff(args.cutoff)

    pool = None
    if args.pool:
        pool = WorkspacePool(
            workspace_bound_bytes(m, m, m, "parallel"),
            prewarm=parallel_arena_count(args.workers, args.depth),
        )

    rows = []

    def measure(fn, label, new_bytes=None):
        fn()  # warm-up call (grows pooled arenas, faults pages)
        base = new_bytes() if new_bytes is not None else 0
        times = []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        per_call = None
        if new_bytes is not None:
            per_call = (new_bytes() - base) / max(args.repeat, 1)
            alloc = f"{per_call:,.0f} fresh B/call after warm-up"
        else:
            alloc = "fresh B/call untracked (no pool)"
        best = min(times)
        rows.append({
            "label": label,
            "best_s": best,
            "gflops_eq": 2.0 * m**3 / best / 1e9,
            "fresh_bytes_per_call": per_call,
        })
        if not args.json:
            print(
                f"{label:<28} best {best:.4f} s "
                f"({2.0 * m**3 / best / 1e9:.2f} GFLOP/s eq), {alloc}"
            )
        return best

    serial_alloc = [0]

    def serial():
        ws = Workspace()
        dgefmm(a, b, c, cutoff=crit, workspace=ws)
        serial_alloc[0] += ws.new_buffer_bytes

    def parallel():
        pdgefmm(a, b, c, cutoff=crit, workers=args.workers,
                max_parallel_depth=args.depth, pool=pool)

    if not args.json:
        print(
            f"order {m}, cutoff {args.cutoff}, workers {args.workers}, "
            f"max_parallel_depth {args.depth}, pool "
            f"{'on' if pool is not None else 'off'}, {args.repeat} calls"
        )
    t_s = measure(serial, "serial dgefmm", lambda: serial_alloc[0])
    t_p = measure(parallel, "pdgefmm",
                  (lambda: pool.new_buffer_bytes) if pool is not None
                  else None)
    if args.json:
        _print_bench_json(
            "parallel",
            {"order": m, "cutoff": args.cutoff, "workers": args.workers,
             "depth": args.depth, "repeat": args.repeat,
             "pool": pool is not None},
            rows,
            summary={
                "speedup": t_s / t_p,
                "pool_arenas": (pool.arenas_created
                                if pool is not None else None),
                "pool_new_buffer_bytes": (pool.new_buffer_bytes
                                          if pool is not None else None),
            },
        )
        return 0
    print(f"speedup {t_s / t_p:.2f}x")
    if pool is not None:
        print(f"pool: {pool.arenas_created} arenas, "
              f"{pool.new_buffer_bytes:,} B total fresh allocation")
    return 0


def _plan_signature(args):
    from repro.core.config import GemmConfig
    from repro.core.cutoff import SimpleCutoff
    from repro.plan.compiler import signature_for

    m = args.m if args.m is not None else args.order
    k = args.k if args.k is not None else args.order
    n = args.n if args.n is not None else args.order
    cfg = GemmConfig(scheme=args.scheme, peel=args.peel,
                     cutoff=SimpleCutoff(args.cutoff), backend="vendor")
    return signature_for(
        m, k, n, False, False, False, args.beta == 0.0, args.dtype, cfg,
    )


def _sig_params(sig) -> dict:
    d = {f: getattr(sig, f) for f in sig.__dataclass_fields__}
    d["cutoff"] = repr(sig.cutoff)
    return d


def _counts_json(counts: dict) -> dict:
    out = dict(counts)
    out["kernel_calls"] = dict(counts["kernel_calls"])
    out["base_shapes"] = {
        "x".join(map(str, shape)): count
        for shape, count in counts["base_shapes"].items()
    }
    return out


def _plan_cache_stats(args) -> int:
    import numpy as np

    from repro.core.cutoff import SimpleCutoff
    from repro.core.dgefmm import dgefmm
    from repro.plan import PlanCache

    m = args.m if args.m is not None else args.order
    k = args.k if args.k is not None else args.order
    n = args.n if args.n is not None else args.order
    shapes = sorted({
        (m, k, n),
        (max(1, m // 2 + 1), max(1, k // 2 + 1), max(1, n // 2 + 1)),
        (m, max(1, k // 2), n),
    })
    cache = PlanCache(max_plans=args.max_plans)
    crit = SimpleCutoff(args.cutoff)
    rng = np.random.default_rng(0)
    for _ in range(max(args.repeat, 1)):
        for mm, kk, nn in shapes:
            a = np.asfortranarray(rng.standard_normal((mm, kk)))
            b = np.asfortranarray(rng.standard_normal((kk, nn)))
            c = np.zeros((mm, nn), order="F")
            dgefmm(a, b, c, cutoff=crit, scheme=args.scheme,
                   peel=args.peel, plan_cache=cache, backend="vendor")
    stats = cache.stats()
    if args.json:
        _print_bench_json(
            "plan_cache",
            {"shapes": ["x".join(map(str, s)) for s in shapes],
             "repeat": args.repeat, "cutoff": args.cutoff,
             "scheme": args.scheme, "peel": args.peel,
             "max_plans": args.max_plans, "backend": "vendor"},
            [stats],
        )
        return 0
    print(f"workload: {len(shapes)} shapes x {max(args.repeat, 1)} repeats,"
          f" vendor backend, cutoff {args.cutoff}")
    print(f"plan cache: {stats['plans']} plans, {stats['bytes']:,} B, "
          f"{stats['hits']} hits, {stats['misses']} misses, "
          f"{stats['evictions']} evictions")
    return 0


def _plan_selftest(json_out: bool = False) -> int:
    """Vendor walk vs cached fused replay on a small grid (CI quick
    lane): bits, kernel tallies, flops, peak and the plan's profile."""
    import numpy as np

    from repro.context import ExecutionContext
    from repro.core.config import GemmConfig
    from repro.core.cutoff import SimpleCutoff
    from repro.core.dgefmm import dgefmm
    from repro.core.recursion import recursion_profile
    from repro.plan import PlanCache, signature_for

    crit = SimpleCutoff(8)
    cfg = GemmConfig(cutoff=crit, backend="vendor")
    cache = PlanCache()
    rng = np.random.default_rng(0)
    cases = [(16, 16, 16), (17, 13, 19), (24, 10, 31), (29, 29, 29)]
    rows = []
    ok = True
    for mm, kk, nn in cases:
        a = np.asfortranarray(rng.standard_normal((mm, kk)))
        b = np.asfortranarray(rng.standard_normal((kk, nn)))
        c0 = np.asfortranarray(rng.standard_normal((mm, nn)))
        for alpha, beta in ((1.0, 0.0), (1.5, 0.5)):
            c_walk, c_pln = c0.copy(order="F"), c0.copy(order="F")
            ctx_w, ctx_p = ExecutionContext(), ExecutionContext()
            dgefmm(a, b, c_walk, alpha, beta, cutoff=crit, ctx=ctx_w,
                   backend="vendor")
            dgefmm(a, b, c_pln, alpha, beta, cutoff=crit, ctx=ctx_p,
                   backend="vendor", plan_cache=cache)
            plan = cache.peek(signature_for(
                mm, kk, nn, False, False, False, beta == 0.0, "float64",
                cfg))
            prof = recursion_profile(mm, kk, nn, crit)
            bit = bool(np.array_equal(c_walk, c_pln))
            kc = (ctx_w.kernel_calls == ctx_p.kernel_calls
                  and (ctx_w.mul_flops, ctx_w.add_flops)
                  == (ctx_p.mul_flops, ctx_p.add_flops)
                  and ctx_w.stats["workspace_peak_bytes"]
                  == ctx_p.stats["workspace_peak_bytes"])
            # every grid root recurses, so the cached call compiled it
            pr = plan is not None and all(
                plan.counts[key] == prof[key]
                for key in ("recurse", "base", "peel", "max_depth",
                            "mul_flops", "base_shapes")
            )
            ok = ok and bit and kc and pr
            rows.append({"m": mm, "k": kk, "n": nn, "alpha": alpha,
                         "beta": beta, "bit_identical": bit,
                         "kernel_counts_match": kc, "profile_match": pr})
            if not json_out:
                print(f"plan {mm}x{kk}x{nn} alpha={alpha} beta={beta}: "
                      f"bit-identical {'ok' if bit else 'FAILED'}, "
                      f"kernel counts {'ok' if kc else 'FAILED'}, "
                      f"profile {'ok' if pr else 'FAILED'}")
    # warm replay: every signature is cached now, so only hits accrue
    before = cache.stats()
    for mm, kk, nn in cases:
        a = np.asfortranarray(rng.standard_normal((mm, kk)))
        b = np.asfortranarray(rng.standard_normal((kk, nn)))
        dgefmm(a, b, np.zeros((mm, nn), order="F"), cutoff=crit,
               backend="vendor", plan_cache=cache)
    after = cache.stats()
    warm = (after["misses"] == before["misses"]
            and after["hits"] == before["hits"] + len(cases))
    ok = ok and warm
    if json_out:
        _print_bench_json("plan_selftest", {"cutoff": 8}, rows,
                          cache=after, warm_replay_all_hits=warm, ok=ok)
    else:
        print(f"warm replay: {'all hits' if warm else 'UNEXPECTED MISSES'}"
              f" ({after['hits']} hits, {after['misses']} misses, "
              f"{after['plans']} plans)")
        print(f"plan selftest: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def _cmd_plan(args) -> int:
    if args.selftest:
        return _plan_selftest(json_out=args.json)
    if args.action == "cache-stats":
        return _plan_cache_stats(args)

    from repro.plan import compile_plan

    sig = _plan_signature(args)
    plan = compile_plan(sig)
    if args.action == "explain":
        lines = plan.describe(max_ops=args.max_ops)
        if args.json:
            _print_bench_json("plan_explain", _sig_params(sig), [],
                              lines=lines)
        else:
            print("\n".join(lines))
        return 0
    counts = _counts_json(plan.counts)
    row = {
        "n_ops": plan.n_ops,
        "regions": len(plan.regions),
        "arena_bytes": plan.arena_bytes,
        "peak_bytes": plan.peak_bytes,
        "plan_nbytes": plan.nbytes,
        "counts": counts,
    }
    if args.json:
        _print_bench_json("plan_compile", _sig_params(sig), [row])
        return 0
    print(f"signature: {sig}")
    print(f"ops {plan.n_ops}, regions {len(plan.regions)}")
    print(f"arena {plan.arena_bytes:,} B, workspace peak "
          f"{plan.peak_bytes:,} B, plan size ~{plan.nbytes:,} B")
    print(f"recursion: {counts['recurse']} recurse, {counts['base']} base, "
          f"{counts['peel']} peel, max depth {counts['max_depth']}")
    print(f"mul flops {int(counts['mul_flops']):,}; kernel calls: "
          + ", ".join(f"{name} {num}" for name, num
                      in sorted(counts["kernel_calls"].items())))
    return 0


def _cmd_fuzz(args) -> int:
    """Differential fuzzing campaign (see :mod:`repro.fuzz`)."""
    from repro.fuzz.runner import load_replay, run_fuzz

    replay = load_replay(args.replay) if args.replay else None

    def progress(done: int, total: int, divergent: int) -> None:
        if not args.json and done % 100 == 0:
            print(f"  {done}/{total} cases, {divergent} divergent")

    report = run_fuzz(
        cases=args.cases,
        seed=args.seed,
        max_dim=args.max_dim,
        replay=replay,
        failures_path=args.failures,
        progress=progress,
        scheme=args.scheme or None,
        dtype=args.dtype or None,
        accuracy=args.accuracy or None,
    )
    if args.json:
        _print_bench_json(
            "fuzz",
            {"cases": args.cases, "seed": args.seed,
             "max_dim": args.max_dim, "replay": args.replay or None,
             "scheme": args.scheme or None,
             "dtype": args.dtype or None,
             "accuracy": args.accuracy or None},
            [report.to_dict()],
        )
        return 0 if report.ok else 1
    src = f"replay file {args.replay}" if args.replay else f"seed {args.seed}"
    print(f"fuzz: {report.cases} cases ({src}), "
          f"{report.divergent} divergent")
    for key, num in sorted(report.coverage.items()):
        print(f"  coverage {key:<24} {num}")
    for rec in report.failures:
        print(f"  FAIL case={rec['case']}")
        for f in rec["failures"]:
            print(f"    [{f['path']}] {f['kind']}: {f['detail']}")
    if report.failures and args.failures:
        print(f"failing cases appended to {args.failures} "
              f"(re-run with --replay {args.failures})")
    print(f"fuzz: {'ok' if report.ok else 'FAILED'}")
    return 0 if report.ok else 1


def _cmd_serve(args) -> int:
    """Run the GEMM service under open-loop load with live verification."""
    from repro.serve import run_load

    report = run_load(
        duration=args.duration,
        rate=args.rate,
        workers=args.workers,
        policy=args.policy,
        capacity=args.capacity,
        max_batch=args.max_batch,
        n_shapes=args.shapes,
        seed=args.seed,
        max_dim=args.max_dim,
        scheme=args.scheme or None,
        backend=args.backend,
        request_timeout=args.timeout,
        verify=not args.no_verify,
    )
    ok = report["errors"] == 0 and report["divergent"] == 0
    if args.json:
        _print_bench_json(
            "serve",
            {"duration": args.duration, "rate": args.rate,
             "workers": args.workers, "policy": args.policy,
             "capacity": args.capacity, "max_batch": args.max_batch,
             "shapes": args.shapes, "seed": args.seed,
             "max_dim": args.max_dim, "scheme": args.scheme or None,
             "backend": args.backend, "verify": not args.no_verify},
            [report], ok=ok,
        )
        return 0 if ok else 1
    svc = report["service"]
    print(f"serve: {args.duration:.1f} s at {args.rate:.0f} req/s offered, "
          f"{args.workers} workers, policy {args.policy!r}, "
          f"max_batch {args.max_batch}")
    print(f"  attempts {report['attempts']}, "
          f"completed {report['completed']} "
          f"({report['achieved_rate']:.0f}/s), "
          f"rejected {report['rejected']}, shed {report['shed']}, "
          f"timeouts {report['timeouts']}, errors {report['errors']}")
    lat = svc["histograms"]["latency_ms"]
    bat = svc["histograms"]["batch_size"]
    if lat["count"]:
        print(f"  latency ms: p50 {lat['p50']:.2f}, p95 {lat['p95']:.2f}, "
              f"p99 {lat['p99']:.2f}, max {lat['max']:.2f}")
    if bat["count"]:
        print(f"  batches {svc['counters']['batches']}, "
              f"mean size {bat['mean']:.2f}, max size {bat['max']:.0f}")
    pc = svc["plan_cache"]
    print(f"  plan cache: {pc['plans']} plans, hit rate "
          f"{pc['hit_rate']:.2f}; pool arenas {svc['pool']['created']}")
    if not args.no_verify:
        print(f"  verified: {report['divergent']} divergences "
              f"across {report['completed']} responses")
        for line in report["failures"]:
            print(f"  FAIL {line}")
    print(f"serve: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def _api_pool_flags(p) -> None:
    """Worker-pool knobs shared by every ``api`` action."""
    p.add_argument("--workers", type=int, default=2,
                   help="worker processes / shards (default 2)")
    p.add_argument("--threads", type=int, default=1,
                   help="service threads per worker (default 1)")
    p.add_argument("--capacity", type=int, default=256,
                   help="admission bound per shard (default 256)")
    p.add_argument("--policy", default="reject",
                   choices=["reject", "block", "shed-oldest"],
                   help="overload policy (gate and worker queue)")
    p.add_argument("--max-batch", dest="max_batch", type=int, default=32,
                   help="micro-batch ceiling per worker (default 32)")
    p.add_argument("--arena-mb", dest="arena_mb", type=int, default=64,
                   help="shared-memory transport per worker, MiB")
    p.add_argument("--profiles", default=None,
                   help="tuned-profile directory loaded by every worker "
                        "(hot-swappable via POST /v1/reload)")


def _api_pool_cfg(args) -> dict:
    return {
        "workers": args.workers,
        "threads": args.threads,
        "capacity": args.capacity,
        "policy": args.policy,
        "max_batch": args.max_batch,
        "arena_bytes": args.arena_mb * 1024 * 1024,
        "profile_dir": args.profiles,
    }


def _cmd_api_serve(args) -> int:
    """Run the network front-end until interrupted, then drain."""
    import time as _time

    from repro.api.server import ApiServerThread

    srv = ApiServerThread(
        host=args.host, port=args.port, rate=args.rate_limit,
        burst=args.burst, **_api_pool_cfg(args),
    ).start()
    print(f"api: listening on http://{args.host}:{srv.port} "
          f"({args.workers} workers x {args.threads} threads, "
          f"policy {args.policy!r}, "
          f"rate limit {args.rate_limit:g}/s)")
    print("api: POST /v1/gemm | GET /v1/ws | /healthz | /metrics "
          "(Ctrl-C drains)")
    try:
        while True:
            _time.sleep(1.0)
    except KeyboardInterrupt:
        pass
    final = srv.drain(timeout=30.0)
    fe = final["frontend"]
    print(f"api: drained; {fe['requests_total']} requests "
          f"({fe['ok_total']} ok), "
          f"{sum(fe['errors'].values())} errors")
    return 0


def _cmd_api_fuzz(args) -> int:
    """Differential fuzz through client, transport, router, and workers."""
    from repro.api.wirefuzz import run_wire_fuzz

    def progress(done: int, total: int, divergent: int) -> None:
        if not args.json and done % 100 == 0:
            print(f"  {done}/{total} cases, {divergent} divergent")

    report, stats = run_wire_fuzz(
        cases=args.cases, seed=args.seed, max_dim=args.max_dim,
        scheme=args.scheme or None,
        host=args.host or None, port=args.port,
        workers=args.workers, threads=args.threads,
        capacity=args.capacity, policy=args.policy,
        max_batch=args.max_batch, progress=progress,
    )
    shards = [
        {"shard": s.get("shard"), "routed": s.get("routed"),
         "hit_rate": (s.get("service", {})
                      .get("plan_cache", {}).get("hit_rate")),
         "leases_outstanding": (s.get("arena") or {})
         .get("leases_outstanding")}
        for s in stats.get("shards", [])
    ]
    if args.json:
        _print_bench_json(
            "api_fuzz",
            {"cases": args.cases, "seed": args.seed,
             "max_dim": args.max_dim, "scheme": args.scheme or None,
             "workers": args.workers, "threads": args.threads,
             "policy": args.policy},
            [report.to_dict()], shards=shards,
        )
        return 0 if report.ok else 1
    print(f"api fuzz: {report.cases} cases over the wire "
          f"(seed {args.seed}), {report.divergent} divergent")
    for key, num in sorted(report.coverage.items()):
        print(f"  coverage {key:<24} {num}")
    for s in shards:
        print(f"  shard {s['shard']}: routed {s['routed']}, "
              f"leases outstanding {s['leases_outstanding']}")
    for rec in report.failures:
        print(f"  FAIL case={rec['case']}")
        for f in rec["failures"]:
            print(f"    {f}")
    print(f"api fuzz: {'ok' if report.ok else 'FAILED'}")
    return 0 if report.ok else 1


def _cmd_api_load(args) -> int:
    """Open-loop load through the network stack, verified bit-exact."""
    from repro.api.client import GemmClient
    from repro.api.protocol import WIRE_DTYPES
    from repro.serve.loadgen import run_load

    own = None
    host = args.host or "127.0.0.1"
    port = args.port
    if not args.host:
        from repro.api.server import ApiServerThread

        own = ApiServerThread(**_api_pool_cfg(args)).start()
        port = own.port
    client = GemmClient(host, port, client_id="api-load")
    try:
        report = run_load(
            duration=args.duration, rate=args.rate,
            n_shapes=args.shapes, seed=args.seed, max_dim=args.max_dim,
            scheme=args.scheme or None,
            request_timeout=args.timeout, verify=not args.no_verify,
            service=client, canonical_operands=True,
            dtypes=WIRE_DTYPES,
        )
    finally:
        client.close()
        if own is not None:
            final = own.drain(timeout=30.0)
            report["server_final"] = final
    ok = report["errors"] == 0 and report["divergent"] == 0
    shards = report.get("server_final", report["service"]).get("shards", [])
    if args.json:
        _print_bench_json(
            "api_load",
            {"duration": args.duration, "rate": args.rate,
             "shapes": args.shapes, "seed": args.seed,
             "max_dim": args.max_dim, "scheme": args.scheme or None,
             "workers": args.workers, "threads": args.threads,
             "policy": args.policy, "verify": not args.no_verify},
            [report], ok=ok,
        )
        return 0 if ok else 1
    print(f"api load: {args.duration:.1f} s at {args.rate:.0f} req/s "
          f"offered over the wire, {args.workers} workers, "
          f"policy {args.policy!r}")
    print(f"  attempts {report['attempts']}, "
          f"completed {report['completed']} "
          f"({report['achieved_rate']:.0f}/s), "
          f"rejected {report['rejected']}, shed {report['shed']}, "
          f"timeouts {report['timeouts']}, errors {report['errors']}")
    for s in shards:
        svc = s.get("service", {})
        pc = svc.get("plan_cache", {})
        arena = s.get("arena") or {}
        print(f"  shard {s.get('shard')}: routed {s.get('routed')}, "
              f"hit rate {pc.get('hit_rate', 0.0):.2f}, "
              f"leases outstanding "
              f"{arena.get('leases_outstanding')}")
    if not args.no_verify:
        print(f"  verified: {report['divergent']} divergences "
              f"across {report['completed']} responses")
        for line in report["failures"]:
            print(f"  FAIL {line}")
    print(f"api load: {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def _cmd_calibrate(args) -> int:
    """Fit (or recall) a MachineModel; JSON-serializable either way."""
    from repro.machines.calibrate import (
        calibrate_host,
        machine_to_json,
        model_rect_crossover,
        model_square_crossover,
    )
    from repro.machines.presets import MACHINES

    if args.host:
        mach = calibrate_host(
            scan_lo=args.scan_lo, scan_hi=args.scan_hi, fixed=args.fixed,
        )
        source = "host"
    else:
        mach = MACHINES[args.preset]
        source = f"preset:{args.preset}"
    doc = machine_to_json(mach)
    rows = [{
        "name": mach.name,
        "square_tau": model_square_crossover(mach),
        "tau_m": model_rect_crossover(mach, "m", float(args.fixed)),
        "tau_k": model_rect_crossover(mach, "k", float(args.fixed)),
        "tau_n": model_rect_crossover(mach, "n", float(args.fixed)),
    }]
    if args.out:
        import json as _json

        with open(args.out, "w", encoding="utf-8") as fh:
            _json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.json:
        _print_bench_json(
            "calibrate",
            {"source": source, "fixed": args.fixed,
             "scan_lo": args.scan_lo, "scan_hi": args.scan_hi},
            rows, model=doc,
        )
        return 0
    print(f"machine: {mach.name} ({source})")
    r = rows[0]
    print(f"  square crossover tau = {r['square_tau']:.1f}")
    print(f"  long-thin tau_m/tau_k/tau_n = {r['tau_m']:.1f} / "
          f"{r['tau_k']:.1f} / {r['tau_n']:.1f}  (fixed={args.fixed})")
    if args.out:
        print(f"  model written to {args.out}")
    return 0


def _cmd_tune_measure(args) -> int:
    from repro.blas.level3 import BACKENDS
    from repro.tune.measure import measure_crossover

    # one scan per leaf kernel: the substrate's crossover and the one
    # over np.matmul that BLAS_CUTOFF comes from
    reps = [
        measure_crossover(lo=args.lo, hi=args.hi, step=args.step,
                          repeats=args.repeats, backend=backend)
        for backend in BACKENDS
    ]
    if args.json:
        _print_bench_json("tune_measure", dict(reps[0]["scan"]), reps)
        return 0
    for rep in reps:
        print(f"[{rep['backend']}]")
        if rep["measured"] is not None:
            m = rep["measured"]
            print(f"  measured square crossover: first win {m['first']}, "
                  f"always from {m['always']}, "
                  f"recommended tau {m['recommended']}")
        else:
            print(f"  measured square crossover: none ({rep['reason']})")
        for name, tau in rep["predicted"].items():
            err = (rep["error"] or {}).get(name)
            tail = (f"  (error {err['abs']} / {err['rel']:.0%})"
                    if err else "")
            print(f"  predicted ({name}): {tau}{tail}")
    return 0


def _cmd_tune_search(args) -> int:
    from repro.tune.search import tune_class
    from repro.tune.store import ProfileStore

    m = args.m if args.m else args.order
    k = args.k if args.k else args.order
    n = args.n if args.n else args.order
    prof = tune_class(
        m, k, n,
        beta_zero=not args.beta,
        budget_s=args.budget,
        version=args.version,
    )
    saved = []
    if args.out:
        store = ProfileStore(args.out)
        store.put(prof, force=True)
        saved = store.save()
    meas = prof.measured
    if args.json:
        _print_bench_json(
            "tune_search",
            {"m": m, "k": k, "n": n, "beta_zero": not args.beta,
             "budget_s": args.budget},
            [prof.to_json()], saved=saved,
        )
        return 0
    print(f"class {prof.key}: winner "
          f"{prof.scheme}/{prof.peel}, {prof.cutoff!r}, nb={prof.nb}, "
          f"backend={prof.backend}")
    print(f"  tuned {meas['tuned_s'] * 1e3:.2f} ms vs default "
          f"{meas['default_s'] * 1e3:.2f} ms "
          f"(speedup {meas['speedup']:.2f}x) in {meas['spent_s']:.1f} s "
          f"of {meas['budget_s']:.0f} s budget")
    for path in saved:
        print(f"  profile written to {path}")
    return 0


def _cmd_tune_show(args) -> int:
    from repro.tune.store import ProfileStore, host_fingerprint

    store = ProfileStore(args.dir)
    report = store.load(strict=False)
    here = host_fingerprint()["digest"]
    rows = []
    for prof in store.profiles():
        rows.append(dict(
            prof.to_json(),
            stale=(prof.host_digest() is not None
                   and prof.host_digest() != here),
        ))
    if args.json:
        _print_bench_json(
            "tune_show", {"dir": args.dir, "host_digest": here},
            rows, load=report,
        )
        return 0
    if not rows:
        print(f"no profiles under {args.dir}")
        return 0
    for r in rows:
        mark = " [STALE: other host]" if r["stale"] else ""
        meas = r.get("measured", {})
        speed = meas.get("speedup")
        extra = f", speedup {speed:.2f}x" if speed else ""
        print(f"{r['key']} v{r['version']}: {r['scheme']}/{r['peel']}, "
              f"{r['cutoff']['kind']}, nb={r['nb']}, "
              f"backend={r['backend']}{extra}{mark}")
    return 0


def _cmd_tune_apply(args) -> int:
    from repro.tune.apply import hot_swap_check

    m = args.m if args.m else args.order
    k = args.k if args.k else args.order
    n = args.n if args.n else args.order
    rep = hot_swap_check(
        args.dir, m=m, k=k, n=n,
        requests=args.requests, workers=args.workers,
    )
    if args.json:
        _print_bench_json(
            "tune_apply",
            {"dir": args.dir, "m": m, "k": k, "n": n,
             "requests": args.requests},
            rep["phases"], ok=rep["ok"], load=rep["load"],
            resolved_key=rep["resolved_key"], swapped=rep["swapped"],
        )
        return 0 if rep["ok"] else 1
    print(f"loaded {rep['load']['loaded']} profile(s) "
          f"({rep['load']['skipped_stale']} stale, "
          f"{rep['load']['skipped_invalid']} invalid)")
    for ph in rep["phases"]:
        print(f"  {ph['phase']}: {ph['exact']}/{ph['requests']} "
              f"bit-identical to direct dgefmm")
    print(f"profile for this class: {rep['resolved_key'] or 'none'}"
          + (" (hot-swapped)" if rep["swapped"] else ""))
    print(f"tune apply: {'ok' if rep['ok'] else 'FAILED'}")
    return 0 if rep["ok"] else 1


def _cmd_selftest(args) -> int:
    import numpy as np

    from repro import SimpleCutoff, dgefmm, isda_eigh
    from repro.utils.matrixgen import random_symmetric

    rng = np.random.default_rng(0)
    a = np.asfortranarray(rng.standard_normal((150, 130)))
    b = np.asfortranarray(rng.standard_normal((130, 170)))
    c = np.zeros((150, 170), order="F")
    dgefmm(a, b, c, cutoff=SimpleCutoff(32))
    ok_mm = bool(np.allclose(c, a @ b, atol=1e-9))
    s = random_symmetric(48, seed=1)
    w, v, _ = isda_eigh(s)
    ok_eig = bool(np.allclose(w, np.linalg.eigvalsh(s), atol=1e-8))
    if args.json:
        _print_bench_json(
            "selftest", {},
            [{"check": "dgefmm", "ok": ok_mm},
             {"check": "isda_eigh", "ok": ok_eig}],
            ok=ok_mm and ok_eig,
        )
        return 0 if (ok_mm and ok_eig) else 1
    print(f"dgefmm: {'ok' if ok_mm else 'FAILED'}")
    print(f"isda_eigh: {'ok' if ok_eig else 'FAILED'}")
    return 0 if (ok_mm and ok_eig) else 1


def main(argv=None) -> int:
    from repro.blas.level3 import BACKENDS
    from repro.core.schemes import SCHEME_NAMES
    from repro.fuzz.cases import DTYPES as FUZZ_DTYPES

    ap = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="regenerate paper exhibits")
    p.add_argument("--only", default="", help="one exhibit, e.g. table4")
    p.add_argument("--full", action="store_true")
    p.add_argument("--json", action="store_true",
                   help="emit the benchmark-schema JSON document")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("figures", help="export figure CSVs")
    p.add_argument("--outdir", default="figures")
    p.add_argument("--full", action="store_true")
    p.add_argument("--json", action="store_true",
                   help="emit the benchmark-schema JSON document")
    p.set_defaults(fn=_cmd_figures)

    p = sub.add_parser("memory", help="Table 1 coefficients")
    p.add_argument("--order", type=int, default=2048)
    p.add_argument("--json", action="store_true",
                   help="emit the benchmark-schema JSON document")
    p.set_defaults(fn=_cmd_memory)

    p = sub.add_parser(
        "parallel",
        help="repeated-call throughput: serial vs pooled parallel DGEFMM",
    )
    p.add_argument("--order", type=int, default=1024,
                   help="square problem size m (default 1024)")
    p.add_argument("--workers", type=int, default=7,
                   help="total thread budget across parallel levels")
    p.add_argument("--depth", type=int, default=1,
                   help="max_parallel_depth: parallel recursion levels")
    p.add_argument("--repeat", type=int, default=3,
                   help="timed calls after the warm-up call")
    p.add_argument("--cutoff", type=int, default=128,
                   help="SimpleCutoff tau for both codes")
    p.add_argument("--no-pool", dest="pool", action="store_false",
                   help="disable the workspace pool (fresh arenas)")
    p.add_argument("--json", action="store_true",
                   help="emit the benchmark-schema JSON document")
    p.set_defaults(fn=_cmd_parallel, pool=True)

    p = sub.add_parser(
        "plan",
        help="compile, explain, or exercise cached execution plans",
    )
    p.add_argument("action", nargs="?", default="compile",
                   choices=["compile", "explain", "cache-stats"],
                   help="what to do with the plan (default: compile)")
    p.add_argument("--order", type=int, default=96,
                   help="square problem size when --m/--k/--n not given")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--scheme", default="auto", choices=list(SCHEME_NAMES))
    p.add_argument("--peel", default="tail", choices=["tail", "head"])
    p.add_argument("--cutoff", type=int, default=32,
                   help="SimpleCutoff tau for the compiled signature")
    p.add_argument("--dtype", default="float64",
                   choices=["float64", "float32", "complex128"])
    p.add_argument("--beta", type=float, default=0.0,
                   help="beta scalar class for the signature (0 or not)")
    p.add_argument("--max-ops", dest="max_ops", type=int, default=60,
                   help="op lines shown by the explain action")
    p.add_argument("--max-plans", dest="max_plans", type=int, default=64,
                   help="PlanCache bound for the cache-stats action")
    p.add_argument("--repeat", type=int, default=3,
                   help="workload repeats for the cache-stats action")
    p.add_argument("--selftest", action="store_true",
                   help="compile + execute + cache-stats on a small grid")
    p.add_argument("--json", action="store_true",
                   help="emit the benchmark-schema JSON document")
    p.set_defaults(fn=_cmd_plan)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing across serial/parallel/plan paths",
    )
    p.add_argument("--cases", type=int, default=200,
                   help="number of randomized cases to draw (default 200)")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign RNG seed (same seed -> same cases)")
    p.add_argument("--max-dim", dest="max_dim", type=int, default=32,
                   help="upper bound for each of m/k/n (default 32)")
    p.add_argument("--replay", default="",
                   help="JSON-lines file of cases to re-run instead of "
                        "drawing (as written by --failures)")
    p.add_argument("--failures", default="",
                   help="append divergent cases to this JSON-lines file")
    p.add_argument("--scheme", default="",
                   choices=[""] + list(SCHEME_NAMES),
                   help="pin every case to one scheme (per-scheme CI "
                        "smoke lanes); default: draw schemes per case")
    p.add_argument("--dtype", default="",
                   choices=[""] + list(FUZZ_DTYPES),
                   help="pin every case to one operand dtype (the CI "
                        "precision-matrix lanes); default: draw per case")
    p.add_argument("--accuracy", default="",
                   choices=["", "fast", "compensated", "exact"],
                   help="pin the accuracy discipline (exact dtypes "
                        "always run exact regardless)")
    p.add_argument("--json", action="store_true",
                   help="emit the benchmark-schema JSON document")
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser(
        "serve",
        help="batched GEMM service under open-loop load, verified live",
    )
    p.add_argument("--duration", type=float, default=3.0,
                   help="seconds of open-loop load (default 3)")
    p.add_argument("--rate", type=float, default=200.0,
                   help="offered arrival rate, requests/s (default 200)")
    p.add_argument("--workers", type=int, default=2,
                   help="service worker threads (default 2)")
    p.add_argument("--policy", default="reject",
                   choices=["reject", "block", "shed-oldest"],
                   help="admission policy at queue capacity")
    p.add_argument("--capacity", type=int, default=256,
                   help="admission queue bound (default 256)")
    p.add_argument("--max-batch", dest="max_batch", type=int, default=32,
                   help="micro-batch size ceiling (default 32)")
    p.add_argument("--shapes", type=int, default=8,
                   help="distinct shapes in the repeating mix (default 8)")
    p.add_argument("--seed", type=int, default=0,
                   help="shape-mix RNG seed (same seed -> same mix)")
    p.add_argument("--max-dim", dest="max_dim", type=int, default=48,
                   help="upper bound for each of m/k/n (default 48)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-request deadline in seconds (default: none)")
    p.add_argument("--scheme", default="",
                   choices=[""] + list(SCHEME_NAMES),
                   help="pin the whole shape mix to one scheme "
                        "(mirrors 'repro fuzz --scheme')")
    p.add_argument("--backend", default="substrate", choices=BACKENDS,
                   help="base-case kernel of the served mix: substrate "
                        "(default) or vendor (np.matmul leaves; a root "
                        "that recurses replays its cached fused plan)")
    p.add_argument("--no-verify", dest="no_verify", action="store_true",
                   help="skip bit-identity verification against dgefmm")
    p.add_argument("--json", action="store_true",
                   help="emit the benchmark-schema JSON document")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "api",
        help="network front-end over multi-process sharded serving",
    )
    api_sub = p.add_subparsers(dest="action", required=True)

    q = api_sub.add_parser("serve", help="run the HTTP+WebSocket server")
    _api_pool_flags(q)
    q.add_argument("--host", default="127.0.0.1")
    q.add_argument("--port", type=int, default=8771)
    q.add_argument("--rate-limit", dest="rate_limit", type=float,
                   default=0.0,
                   help="per-client token-bucket rate, req/s "
                        "(0 disables; default 0)")
    q.add_argument("--burst", type=float, default=None,
                   help="token-bucket burst (default 2x rate)")
    q.set_defaults(fn=_cmd_api_serve)

    q = api_sub.add_parser(
        "fuzz", help="differential fuzz through the full network stack"
    )
    _api_pool_flags(q)
    q.add_argument("--cases", type=int, default=200,
                   help="number of randomized cases (default 200)")
    q.add_argument("--seed", type=int, default=0,
                   help="campaign RNG seed (same seed -> same cases)")
    q.add_argument("--max-dim", dest="max_dim", type=int, default=32,
                   help="upper bound for each of m/k/n (default 32)")
    q.add_argument("--scheme", default="",
                   choices=[""] + list(SCHEME_NAMES),
                   help="pin every case to one scheme")
    q.add_argument("--host", default="",
                   help="target a live server instead of an embedded one")
    q.add_argument("--port", type=int, default=8771)
    q.add_argument("--json", action="store_true",
                   help="emit the benchmark-schema JSON document")
    q.set_defaults(fn=_cmd_api_fuzz)

    q = api_sub.add_parser(
        "load", help="open-loop load through the network front-end"
    )
    _api_pool_flags(q)
    q.add_argument("--duration", type=float, default=3.0,
                   help="seconds of open-loop load (default 3)")
    q.add_argument("--rate", type=float, default=100.0,
                   help="offered arrival rate, requests/s (default 100)")
    q.add_argument("--shapes", type=int, default=8,
                   help="distinct shapes in the repeating mix (default 8)")
    q.add_argument("--seed", type=int, default=0,
                   help="shape-mix RNG seed")
    q.add_argument("--max-dim", dest="max_dim", type=int, default=48,
                   help="upper bound for each of m/k/n (default 48)")
    q.add_argument("--scheme", default="",
                   choices=[""] + list(SCHEME_NAMES),
                   help="pin the whole mix to one scheme")
    q.add_argument("--timeout", type=float, default=None,
                   help="per-request deadline in seconds (default: none)")
    q.add_argument("--no-verify", dest="no_verify", action="store_true",
                   help="skip bit-identity verification")
    q.add_argument("--host", default="",
                   help="target a live server instead of an embedded one")
    q.add_argument("--port", type=int, default=8771)
    q.add_argument("--json", action="store_true",
                   help="emit the benchmark-schema JSON document")
    q.set_defaults(fn=_cmd_api_load)

    p = sub.add_parser(
        "calibrate",
        help="fit a MachineModel (paper preset, or this host)",
    )
    p.add_argument("--preset", default="RS6000",
                   choices=["RS6000", "C90", "T3D"],
                   help="paper machine to recall (default RS6000)")
    p.add_argument("--host", action="store_true",
                   help="wall-clock calibrate THIS host "
                        "(minutes, not seconds)")
    p.add_argument("--scan-lo", dest="scan_lo", type=int, default=32)
    p.add_argument("--scan-hi", dest="scan_hi", type=int, default=512)
    p.add_argument("--fixed", type=int, default=768,
                   help="held dimension of the long-thin experiments")
    p.add_argument("--out", default=None,
                   help="write the model JSON to this path")
    p.add_argument("--json", action="store_true",
                   help="emit the benchmark-schema JSON document")
    p.set_defaults(fn=_cmd_calibrate)

    p = sub.add_parser(
        "tune",
        help="online autotuning: measure, search, show, apply",
    )
    tune_sub = p.add_subparsers(dest="action", required=True)

    q = tune_sub.add_parser(
        "measure",
        help="measured vs predicted crossover on this host, per leaf kernel"
    )
    q.add_argument("--lo", type=int, default=64)
    q.add_argument("--hi", type=int, default=384)
    q.add_argument("--step", type=int, default=32)
    q.add_argument("--repeats", type=int, default=3)
    q.add_argument("--json", action="store_true",
                   help="emit the benchmark-schema JSON document")
    q.set_defaults(fn=_cmd_tune_measure)

    q = tune_sub.add_parser(
        "search", help="budgeted knob search for one signature class"
    )
    q.add_argument("--order", type=int, default=256,
                   help="square problem order (default 256)")
    q.add_argument("--m", type=int, default=0)
    q.add_argument("--k", type=int, default=0)
    q.add_argument("--n", type=int, default=0)
    q.add_argument("--beta", action="store_true",
                   help="tune the beta != 0 class (default beta == 0)")
    q.add_argument("--budget", type=float, default=30.0,
                   help="wall-clock search budget, seconds (default 30)")
    q.add_argument("--version", type=int, default=1,
                   help="profile version to stamp (default 1)")
    q.add_argument("--out", default=None,
                   help="profiles directory to persist the winner into")
    q.add_argument("--json", action="store_true",
                   help="emit the benchmark-schema JSON document")
    q.set_defaults(fn=_cmd_tune_search)

    q = tune_sub.add_parser(
        "show", help="list the profiles in a directory"
    )
    q.add_argument("--dir", required=True, help="profiles directory")
    q.add_argument("--json", action="store_true",
                   help="emit the benchmark-schema JSON document")
    q.set_defaults(fn=_cmd_tune_show)

    q = tune_sub.add_parser(
        "apply",
        help="hot-swap profiles into a live service and verify "
             "bit-exactness",
    )
    q.add_argument("--dir", required=True, help="profiles directory")
    q.add_argument("--order", type=int, default=200)
    q.add_argument("--m", type=int, default=0)
    q.add_argument("--k", type=int, default=0)
    q.add_argument("--n", type=int, default=0)
    q.add_argument("--requests", type=int, default=6,
                   help="requests per phase (default 6)")
    q.add_argument("--workers", type=int, default=2)
    q.add_argument("--json", action="store_true",
                   help="emit the benchmark-schema JSON document")
    q.set_defaults(fn=_cmd_tune_apply)

    p = sub.add_parser("selftest", help="quick installation check")
    p.add_argument("--json", action="store_true",
                   help="emit the benchmark-schema JSON document")
    p.set_defaults(fn=_cmd_selftest)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # noqa: BLE001 — CLI boundary
        # Internal failure (bug, bad environment): distinct exit code so
        # CI lanes and scripts can tell it from a failed check (exit 1).
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 70


if __name__ == "__main__":
    raise SystemExit(main())
