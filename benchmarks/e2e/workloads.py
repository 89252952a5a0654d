"""The four workloads: seeded inputs, entry points, timed phases, checks.

Every workload drives the five direct library entry points on its own
operands, one closed-loop caller, interleaved round-robin so drift on a
shared host hits all of them alike:

- ``dgefmm``  — one-shot default call (the paper's DGEFMM);
- ``planned`` — warm ``plan_cache`` + ``pool`` replay;
- ``fused``   — warm ``fuse=True`` replay;
- ``vendor``  — one-shot ``backend="vendor"`` (numpy's BLAS at the base);
- ``pdgefmm`` — one-shot ``pdgefmm(workers=2)``.

The *front door* is what a user of the workload calls: ``dgefmm`` for
the two library workloads, a ``GemmService`` for ``serve-small`` and a
``GemmClient`` into a 2-shard ``ApiServerThread`` for ``api-small``.
The serving workloads add two front-door phases: a closed loop with two
requests outstanding (throughput) and an open loop at a fixed reference
rate (latency, timed from each request's due time; a completion thread
waits on the futures in submission order).

``--seed`` draws every operand value and the order of the serving
stream.  Shapes, dtypes and scalars are each workload's definition and
do not vary with the seed, so runs on different seeds measure the same
work.
"""

from __future__ import annotations

import hashlib
import math
import queue
import statistics
import threading
import time
from collections import defaultdict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import GemmService, PlanCache, WorkspacePool, dgefmm, pdgefmm
from repro.blas.level3 import dgemm
from repro.errors import ServiceOverloaded, ServiceTimeout
from repro.fuzz.oracle import tolerance_for

from benchmarks.e2e.trace import (
    NAME, PARENT, PHASE, T0, T1, TID, WORK, Tracer, self_times,
)

__all__ = ["WORKLOADS", "ENTRY_POINTS", "make_problems", "inputs_digest",
           "run_workload"]

ENTRY_POINTS = ("dgefmm", "planned", "fused", "vendor", "pdgefmm")

#: set-up repetitions per run; ``setup_s`` reports their median
SETUP_REPS = 3
#: fewest interleaved rounds a run makes, however short ``--seconds``
MIN_ROUNDS = 3
#: requests kept in flight by the closed-loop front-door phase
OUTSTANDING = 2
#: closed-loop windows; the reported throughput is their median
CLOSED_WINDOWS = 12
#: measured seconds between host-clock ticks in the direct rounds
TICK_S = 0.05
#: share of ``--seconds`` per serving phase: direct calls, closed loop,
#: open loop at the reference rate
SERVING_SPLIT = (0.35, 0.35, 0.3)

#: (m, k, n, beta) per library workload; quick variants keep the
#: peeling/recursion structure at a fraction of the cost
LIBRARY_SHAPES = {
    "gemm-square": (
        [(1024, 1024, 1024, 0.0)],
        [(256, 256, 256, 0.0)],
    ),
    "gemm-odd-rect": (
        [(1023, 1023, 1023, 0.0), (1000, 300, 1000, 1.0),
         (513, 1025, 769, 0.5)],
        [(255, 255, 255, 0.0), (200, 60, 200, 1.0), (129, 257, 193, 0.5)],
    ),
}

#: the serving mix: 16 recurring signatures drawn once from this fixed
#: design seed (dims log-uniform in [4, 96]); the run's seed only
#: draws operand values and the request order
MIX_DESIGN_SEED = 20240611
MIX_SIZE = 16
MIX_DTYPES = ("float64", "float32", "complex128")
MIX_BETAS = (0.0, 0.5)


@dataclass(frozen=True)
class Workload:
    """A workload's front door and serving settings; why each workload
    exists is written in ``BENCHMARK.json``."""

    name: str
    front: str              # "dgefmm" | "service" | "client"
    ref_rate: float = 0.0   # open-loop reference rate, req/s
    limit_ms: float = 0.0   # p99 latency limit at the reference rate


WORKLOADS = {
    w.name: w for w in (
        Workload("gemm-square", "dgefmm"),
        Workload("gemm-odd-rect", "dgefmm"),
        Workload("serve-small", "service", ref_rate=1000.0, limit_ms=25.0),
        Workload("api-small", "client", ref_rate=150.0, limit_ms=50.0),
    )
}


# ---------------------------------------------------------------------- #
# inputs
# ---------------------------------------------------------------------- #
@dataclass
class Problem:
    """One GEMM with its F-ordered operands and a reusable output."""

    m: int
    k: int
    n: int
    dtype: str
    alpha: float
    beta: float
    transa: bool
    transb: bool
    a: np.ndarray
    b: np.ndarray
    c0: Optional[np.ndarray]
    out: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.out = np.empty((self.m, self.n), dtype=self.dtype, order="F")

    @property
    def flops(self) -> float:
        """Effective flops, 2mkn (complex products counted the same)."""
        return 2.0 * self.m * self.k * self.n

    def reset(self) -> np.ndarray:
        """The output buffer, primed: NaN garbage when ``beta == 0``
        (a conformant GEMM overwrites it), else the initial C."""
        if self.beta == 0.0:
            self.out.fill(np.nan)
        else:
            self.out[...] = self.c0
        return self.out


def _operand(rng: np.random.Generator, shape: Tuple[int, int],
             dtype: str) -> np.ndarray:
    x = rng.standard_normal(shape)
    if dtype.startswith("complex"):
        x = x + 1j * rng.standard_normal(shape)
    return np.asfortranarray(x.astype(dtype))


def _problem(rng: np.random.Generator, m: int, k: int, n: int, dtype: str,
             beta: float, transa: bool = False,
             transb: bool = False) -> Problem:
    a = _operand(rng, (k, m) if transa else (m, k), dtype)
    b = _operand(rng, (n, k) if transb else (k, n), dtype)
    c0 = _operand(rng, (m, n), dtype) if beta != 0.0 else None
    return Problem(m, k, n, dtype, 1.0, beta, transa, transb, a, b, c0)


def serving_mix() -> List[tuple]:
    """The fixed 16-signature design: (m, k, n, dtype, beta, ta, tb)."""
    rng = np.random.default_rng(MIX_DESIGN_SEED)
    lo, hi = math.log(4), math.log(96)
    mix = []
    for i in range(MIX_SIZE):
        m, k, n = (int(round(math.exp(rng.uniform(lo, hi))))
                   for _ in range(3))
        mix.append((m, k, n, MIX_DTYPES[i % 3], MIX_BETAS[(i // 3) % 2],
                    bool(i % 2), bool((i // 2) % 2)))
    return mix


def make_problems(workload: str, seed: int,
                  quick: bool = False) -> List[Problem]:
    """The workload's problems with operands drawn from ``seed``."""
    rng = np.random.default_rng([seed, 0])
    if workload in LIBRARY_SHAPES:
        shapes = LIBRARY_SHAPES[workload][1 if quick else 0]
        return [_problem(rng, m, k, n, "float64", beta)
                for m, k, n, beta in shapes]
    return [_problem(rng, *sig) for sig in serving_mix()]


def request_order(seed: int, n: int) -> Iterator[int]:
    """Indices into the mix: one seeded permutation per cycle."""
    rng = np.random.default_rng([seed, 1])
    while True:
        yield from (int(i) for i in rng.permutation(n))


def inputs_digest(problems: List[Problem], seed: int) -> str:
    """blake2b over every operand byte and the first request cycles."""
    h = hashlib.blake2b(digest_size=16)
    for p in problems:
        for x in (p.a, p.b, p.c0):
            if x is not None:
                h.update(x.tobytes(order="F"))
    order = request_order(seed, len(problems))
    h.update(bytes(next(order) for _ in range(4 * len(problems))))
    return h.hexdigest()


# ---------------------------------------------------------------------- #
# correctness and accounting
# ---------------------------------------------------------------------- #
#: entry points held to bit-identity with a direct default ``dgefmm``;
#: the rest are checked against the f64/c128 reference within the
#: per-dtype tolerance of ``repro.fuzz.oracle``
BIT_EXACT = frozenset({"dgefmm", "planned", "front"})


class Checker:
    """References per problem, and every output compared against them."""

    def __init__(self, problems: List[Problem]) -> None:
        self.expect: List[np.ndarray] = []
        self.atol: List[float] = []
        self.bits: List[np.ndarray] = []
        self.failures: List[str] = []
        for i, p in enumerate(problems):
            wide = (np.complex128 if p.dtype.startswith("complex")
                    else np.float64)
            opa = (p.a.T if p.transa else p.a).astype(wide)
            opb = (p.b.T if p.transb else p.b).astype(wide)
            expect = p.alpha * (opa @ opb)
            if p.beta != 0.0:
                expect += p.beta * p.c0.astype(wide)
            self.expect.append(expect)
            self.atol.append(tolerance_for(SimpleNamespace(dtype=p.dtype),
                                           expect))
            bits = np.array(p.reset(), copy=True, order="F")
            dgefmm(p.a, p.b, bits, p.alpha, p.beta, p.transa, p.transb)
            self.bits.append(bits)
            if not self._within(i, bits):
                self.failures.append(f"reference dgefmm off on problem {i}")

    def _within(self, i: int, got: np.ndarray) -> bool:
        expect = self.expect[i]
        return bool(np.isfinite(got).all()) and float(
            np.max(np.abs(got.astype(expect.dtype) - expect))
        ) <= self.atol[i]

    def check(self, path: str, i: int, got: np.ndarray) -> bool:
        """True when ``got`` is a correct output of ``path`` on problem i."""
        if path in BIT_EXACT:
            ok = bool(np.array_equal(got, self.bits[i]))
        else:
            ok = self._within(i, got)
        if not ok and len(self.failures) < 10:
            self.failures.append(f"{path} diverged on problem {i}")
        return ok


class Accounting:
    """attempted/succeeded/failed per phase, and failure causes."""

    def __init__(self) -> None:
        self.phases: Dict[str, Dict[str, int]] = {}
        self.causes: Dict[str, int] = {}

    def record(self, phase: str, outcome: str = "ok") -> None:
        row = self.phases.setdefault(
            phase, {"attempted": 0, "succeeded": 0, "failed": 0})
        row["attempted"] += 1
        if outcome == "ok":
            row["succeeded"] += 1
        else:
            row["failed"] += 1
            self.causes[outcome] = self.causes.get(outcome, 0) + 1

    def total(self, key: str) -> int:
        return sum(row[key] for name, row in self.phases.items()
                   if name != "setup")


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #
def percentile(xs: List[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 1]); 0.0 for no samples."""
    if not xs:
        return 0.0
    s = sorted(xs)
    return s[min(len(s), max(1, math.ceil(q * len(s)))) - 1]


#: the host clock's loop times on the reference host (the 2-vCPU host
#: the committed results come from, in a quiet period); normalized
#: timings read in that host's units
CAL_REF_S = {"num": 0.0020, "py": 0.0009, "par": 0.0029}


def _num_loop(t: List[np.ndarray], x: List[np.ndarray]) -> None:
    np.einsum("ik,kj->ij", t[0], t[1])
    np.add(x[0], x[1], out=x[2])


def _py_loop() -> int:
    acc, d = 0, {}
    for i in range(4000):
        d[i & 63] = (i, str(i & 7))
        acc += len(d[i & 63][1])
    return acc


class HostClock:
    """Fixed loops timed at every boundary between measurements.

    On a shared host other tenants slow everything down, by tens of
    percent for minutes at a time, and not everything alike.  A tick
    times three loops that run no ``repro`` code, so no change to the
    package can move them, each the fastest of two passes:

    - ``num``: one 160^3 ``einsum`` tile product and one 400k-element
      ``np.add``, the kernels of the substrate's base GEMMs and block
      additions;
    - ``py``: dict and tuple operations, the interpreter work that
      dominates small requests;
    - ``par``: the ``num`` loop on two threads at once, which slows when
      the second vCPU is taken away.

    The tick's value is the host's *slowness*: the geometric mean of the
    three times over their ``CAL_REF_S``, 1.0 on the reference host in
    a quiet period.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._ops = [
            ([np.asfortranarray(rng.standard_normal((160, 160)))
              for _ in range(2)],
             [rng.standard_normal(400_000) for _ in range(3)])
            for _ in range(2)]
        self._helper = ThreadPoolExecutor(1, thread_name_prefix="e2e-clock")
        self.samples: List[Dict[str, float]] = []

    @staticmethod
    def _best(fn: Callable[[], Any]) -> float:
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    def _par(self) -> None:
        fut = self._helper.submit(_num_loop, *self._ops[1])
        _num_loop(*self._ops[0])
        fut.result()

    def tick(self) -> float:
        """Time the loops; record their seconds, return the slowness."""
        t = {"num": self._best(lambda: _num_loop(*self._ops[0])),
             "py": self._best(_py_loop),
             "par": self._best(self._par)}
        self.samples.append(t)
        return math.prod(t[k] / CAL_REF_S[k] for k in t) ** (1 / len(t))

    def close(self) -> None:
        self._helper.shutdown()


#: how much of the host clock's slowness the workloads feel.  The clock's
#: short loops slow down more than the workloads under the same
#: contention: dividing by the full slowness read slow runs 10-20% above
#: quiet ones.  0.7 minimized the widest spread of the end-to-end rates
#: over twenty runs per workload on the reference host.
HOST_EXPONENT = 0.7


def host_scales(ticks: List[float]) -> List[float]:
    """Per interval between consecutive ticks, the factor taking its
    seconds to reference-host seconds: the median slowness of the four
    ticks around it, which damps the noise of a single tick but follows
    slowdowns that last a few intervals, to the power -HOST_EXPONENT."""
    return [statistics.median(ticks[max(0, i - 1):i + 3]) ** -HOST_EXPONENT
            for i in range(len(ticks) - 1)]


class Passes:
    """Per-round pass times of each key, raw and host-normalized.

    Calls accumulate seconds; once TICK_S of them has passed the host
    clock ticks.  Each call is normalized by the scale of the interval
    it ran in (see :func:`host_scales`): a library workload's calls get
    an interval each, a serving round of small calls shares one.
    """

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self.raw: List[Dict[str, float]] = []
        self.ticks = [clock.tick()]
        self._calls: List[Tuple[int, str, float, int]] = []
        self._void: set = set()
        self._since = time.perf_counter()

    def new_round(self) -> None:
        self.raw.append(defaultdict(float))

    def add(self, key: str, dt: float) -> None:
        r = len(self.raw) - 1
        self.raw[r][key] += dt
        self._calls.append((r, key, dt, len(self.ticks) - 1))
        if time.perf_counter() - self._since >= TICK_S:
            self.tick()

    def void(self, key: str) -> None:
        """Drop ``key``'s pass of the current round."""
        self._void.add((len(self.raw) - 1, key))

    def valid(self, r: int, key: str) -> bool:
        return key in self.raw[r] and (r, key) not in self._void

    def tick(self) -> None:
        self.ticks.append(self.clock.tick())
        self._since = time.perf_counter()

    def median(self, key: str, raw: bool = False) -> float:
        """Median pass time of ``key`` over its valid rounds,
        host-normalized unless ``raw``."""
        rows = self.raw
        if not raw:
            scales = host_scales(self.ticks)
            rows = [defaultdict(float) for _ in self.raw]
            for r, k, dt, seg in self._calls:
                rows[r][k] += dt * scales[seg]
        xs = [row[key] for r, row in enumerate(rows) if self.valid(r, key)]
        return statistics.median(xs) if xs else math.inf


# ---------------------------------------------------------------------- #
# entry points
# ---------------------------------------------------------------------- #
class EntryPoints:
    """The five direct entry points over one plan cache and pool."""

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.cache = PlanCache()
        self.pool = WorkspacePool()
        self.fresh_bytes = 0
        self.planned_calls = 0
        self.tracer = tracer
        if tracer is not None:
            # root spans: the benchmark's own calls into each driver
            self._traced = (tracer.wrap("core.dgefmm", dgefmm),
                            tracer.wrap("core.parallel", pdgefmm))

    def call(self, path: str, p: Problem, out: np.ndarray) -> None:
        serial, parallel = (
            self._traced if self.tracer is not None and self.tracer.active
            else (dgefmm, pdgefmm))
        args = (p.a, p.b, out, p.alpha, p.beta, p.transa, p.transb)
        if path == "dgefmm":
            serial(*args)
        elif path == "planned":
            before = self.pool.new_buffer_bytes
            serial(*args, plan_cache=self.cache, pool=self.pool)
            self.fresh_bytes += self.pool.new_buffer_bytes - before
            self.planned_calls += 1
        elif path == "fused":
            serial(*args, plan_cache=self.cache, pool=self.pool, fuse=True)
        elif path == "vendor":
            serial(*args, backend="vendor")
        else:
            parallel(*args, workers=2)


class ServiceFront:
    """An in-process ``GemmService()`` with default settings."""

    def __init__(self) -> None:
        self.svc = GemmService()

    def submit(self, p: Problem):
        return self.svc.submit(p.a, p.b, p.c0, p.alpha, p.beta,
                               p.transa, p.transb)

    def close(self) -> Dict[str, Any]:
        self.svc.close()
        return self.svc.stats()

    def kill(self) -> None:
        self.svc.close(drain=False)


class ClientFront:
    """One ``GemmClient`` into ``ApiServerThread(workers=2, threads=1)``."""

    def __init__(self) -> None:
        from repro.api import ApiServerThread, GemmClient

        self.srv = ApiServerThread(workers=2, threads=1)
        self.srv.start()
        try:
            self.client = GemmClient("127.0.0.1", self.srv.port)
        except BaseException:
            self.srv.kill()
            raise

    def submit(self, p: Problem):
        return self.client.submit(p.a, p.b, p.c0, p.alpha, p.beta,
                                  p.transa, p.transb)

    def close(self) -> Dict[str, Any]:
        self.client.close()
        return self.srv.drain(timeout=20.0)

    def kill(self) -> None:
        self.client.close()
        self.srv.kill()


FRONTS = {"service": ServiceFront, "client": ClientFront}


# ---------------------------------------------------------------------- #
# the run
# ---------------------------------------------------------------------- #
class Bench:
    """State shared by the phases of one run."""

    def __init__(self, workload: Workload, problems: List[Problem],
                 seed: int, tracer: Optional[Tracer]) -> None:
        self.wl = workload
        self.problems = problems
        self.seed = seed
        self.tracer = tracer
        self.clock = HostClock()
        self.main_thread = threading.get_ident()
        self.acct = Accounting()
        self.checker = Checker(problems)
        for _ in self.checker.failures:
            self.acct.record("reference", "divergent")
        self.detail: Dict[str, Any] = {}
        self.e2e: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.setup_reps: List[float] = []
        self.front = None
        self.eps: Optional[EntryPoints] = None
        self.cache_base: List[Tuple[PlanCache, int, int]] = []

    # -- tracing helpers ------------------------------------------------ #
    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def traced(self, on: bool) -> None:
        if self.tracer is not None:
            if on:
                self.tracer.install()
            else:
                self.tracer.uninstall()

    # -- set-up ----------------------------------------------------------- #
    def setup(self, import_s: float) -> None:
        """SETUP_REPS fresh set-ups; the last one's objects are kept.

        One set-up builds a plan cache, a pool and (serving) the front
        door, then warms every entry point once per problem: plan and
        fusion compiles, arena growth, worker spawn and imports.  Output
        checks run inside the loop; their time is taken out of the rep.
        ``setup_s`` is the median over reps of the package import plus
        the rep, host-normalized.
        """
        self.phase("setup")
        ticks = [self.clock.tick()]
        self.traced(True)
        try:
            for _ in range(SETUP_REPS):
                if self.front is not None:
                    self.front.close()
                    self.front = None
                t0 = time.perf_counter()
                checking = 0.0
                self.eps = EntryPoints(self.tracer)
                for i, p in enumerate(self.problems):
                    for path in ENTRY_POINTS:
                        self.eps.call(path, p, p.reset())
                        c0 = time.perf_counter()
                        self.acct.record("setup", "ok" if self.checker.check(
                            path, i, p.out) else "divergent")
                        checking += time.perf_counter() - c0
                if self.wl.front != "dgefmm":
                    self.front = FRONTS[self.wl.front]()
                    futs = [self.front.submit(p) for p in self.problems]
                    for i, fut in enumerate(futs):
                        got = fut.result(timeout=60.0)
                        c0 = time.perf_counter()
                        self.acct.record("setup", "ok" if self.checker.check(
                            "front", i, got) else "divergent")
                        checking += time.perf_counter() - c0
                self.setup_reps.append(time.perf_counter() - t0 - checking)
                ticks.append(self.clock.tick())
        finally:
            self.traced(False)
        self.e2e["setup_s"] = statistics.median(
            (import_s + rep) * scale for rep, scale in
            zip(self.setup_reps, host_scales(ticks)))
        caches = [self.eps.cache]
        if self.wl.front == "service":
            caches.append(self.front.svc.plan_cache)
        self.cache_base = [(c, c.hits, c.misses) for c in caches]
        self.eps.fresh_bytes = self.eps.planned_calls = 0

    # -- direct entry points ---------------------------------------------- #
    def direct_rounds(self, seconds: float) -> None:
        """Interleaved closed-loop calls of every entry point.

        One round calls every path once on every problem, in an order
        rotated per round.  Untraced runs time each path.  Traced runs
        also time one untraced ``dgefmm`` call per problem per round
        (the base of ``trace.overhead``) and the ``np.matmul`` and
        direct substrate ``dgemm`` floors; the five paths run traced.
        Each path reports the median over rounds of its normalized pass
        time, the sum of its calls in the round.  On the library
        workloads the ``dgefmm`` path is the front door, so its passes
        also give ``closed_rps``.
        """
        probs = self.problems
        passes = Passes(self.clock)
        t_end = time.perf_counter() + seconds
        while len(passes.raw) < MIN_ROUNDS or time.perf_counter() < t_end:
            k = len(passes.raw) % len(ENTRY_POINTS)
            order = ENTRY_POINTS[k:] + ENTRY_POINTS[:k]
            passes.new_round()
            for i, p in enumerate(probs):
                if self.tracer is not None:
                    self._time_call("untraced", "dgefmm", i, p, passes)
                    self._time_floors(p, passes)
                self.traced(True)
                try:
                    for path in order:
                        self._time_call(path, path, i, p, passes)
                finally:
                    self.traced(False)
        passes.tick()
        self.detail["direct_rounds"] = len(passes.raw)

        flops = sum(p.flops for p in probs)
        self.detail["raw_gflops"] = {}
        for path in ENTRY_POINTS:
            self.e2e[f"{path}_gflops"] = flops / passes.median(path) / 1e9
            self.detail["raw_gflops"][path] = (
                flops / passes.median(path, raw=True) / 1e9)
        if self.wl.front == "dgefmm":
            self.e2e["closed_rps"] = len(probs) / passes.median("dgefmm")
        if self.tracer is not None:
            self.layers["host.matmul_gflops"] = (
                flops / passes.median("matmul", raw=True) / 1e9)
            self.layers["blas.level3.substrate_gflops"] = (
                flops / passes.median("substrate", raw=True) / 1e9)
            self.layers["trace.overhead"] = statistics.median(
                row["dgefmm"] / row["untraced"] for r, row in
                enumerate(passes.raw) if passes.valid(r, "dgefmm")
                and passes.valid(r, "untraced"))

    def _time_call(self, key: str, path: str, i: int, p: Problem,
                   passes: "Passes") -> None:
        """Time one call into ``key``'s pass; a failed or wrong call
        voids the round's pass for that key."""
        self.phase(path)
        out = p.reset()
        t0 = time.perf_counter()
        try:
            self.eps.call(path, p, out)
        except Exception as exc:  # noqa: BLE001 — counted, not masked
            self.acct.record(path, type(exc).__name__)
            passes.void(key)
            return
        dt = time.perf_counter() - t0
        ok = self.checker.check(path, i, out)
        self.acct.record(path, "ok" if ok else "divergent")
        if ok:
            passes.add(key, dt)
        else:
            passes.void(key)

    @staticmethod
    def _time_floors(p: Problem, passes: "Passes") -> None:
        opa = p.a.T if p.transa else p.a
        opb = p.b.T if p.transb else p.b
        out = p.reset()
        t0 = time.perf_counter()
        np.matmul(opa, opb, out=out)
        passes.add("matmul", time.perf_counter() - t0)
        out = p.reset()
        t0 = time.perf_counter()
        dgemm(opa, opb, out, p.alpha, p.beta)
        passes.add("substrate", time.perf_counter() - t0)

    # -- serving front door ------------------------------------------------ #
    def closed_loop(self, seconds: float) -> None:
        """OUTSTANDING requests in flight, in CLOSED_WINDOWS windows
        between host-clock ticks; reports the median normalized rate.

        Traced runs alternate traced and untraced windows; the ratio of
        their medians is ``trace.overhead``.
        """
        order = request_order(self.seed + 7, len(self.problems))
        rates: List[float] = []
        self.phase("front")
        ticks = [self.clock.tick()]
        for w in range(CLOSED_WINDOWS):
            self.traced(self.tracer is not None and w % 2 == 1)
            try:
                rates.append(self._closed_window(
                    order, seconds / CLOSED_WINDOWS))
            finally:
                self.traced(False)
            ticks.append(self.clock.tick())

        def rate(traced: bool) -> float:
            """Median normalized rate of the (un)traced windows."""
            return statistics.median(
                r / scale for w, (r, scale) in
                enumerate(zip(rates, host_scales(ticks)))
                if (self.tracer is not None and w % 2 == 1) == traced)

        self.e2e["closed_rps"] = rate(False)
        self.detail["raw_closed_rps"] = statistics.median(rates)
        if self.tracer is not None:
            self.layers["trace.overhead"] = rate(False) / rate(True)

    def _closed_window(self, order: Iterator[int], seconds: float) -> float:
        inflight: deque = deque()
        done = 0
        t0 = time.perf_counter()
        t_end = t0 + seconds
        while True:
            if time.perf_counter() < t_end:
                while len(inflight) < OUTSTANDING:
                    i = next(order)
                    try:
                        inflight.append(
                            (i, self.front.submit(self.problems[i])))
                    except ServiceOverloaded:
                        self.acct.record("closed", "rejected")
            if not inflight:
                break
            i, fut = inflight.popleft()
            if self._settle("closed", i, fut) is not None:
                done += 1
        return done / (time.perf_counter() - t0)

    def _settle(self, phase: str, i: int, fut) -> Optional[float]:
        """Wait for one response, check it and count its outcome;
        returns the completion time of a correct response, else None."""
        try:
            got = fut.result(timeout=60.0)
        except ServiceOverloaded:
            self.acct.record(phase, "shed")
            return None
        except ServiceTimeout:
            self.acct.record(phase, "timeout")
            return None
        except Exception as exc:  # noqa: BLE001 — counted, not masked
            self.acct.record(phase, type(exc).__name__)
            return None
        t_done = time.perf_counter()
        ok = self.checker.check("front", i, got)
        self.acct.record(phase, "ok" if ok else "divergent")
        return t_done if ok else None

    def open_loop(self, seconds: float) -> None:
        """Requests at the reference rate, timed from their due time.

        On a shared 2-vCPU host latency does not repeat across runs well
        enough to gate (see the README), so the phase feeds the per-layer
        numbers:
        latency, the server's wait/compute split, submit times and, over
        the wire, transport.
        """
        rate = self.wl.ref_rate
        order = request_order(self.seed + 11, len(self.problems))
        pending: "queue.SimpleQueue" = queue.SimpleQueue()
        records: List[Tuple[float, ...]] = []

        def complete() -> None:
            while True:
                item = pending.get()
                if item is None:
                    return
                i, due, s0, s1, fut = item
                done = self._settle("reference", i, fut)
                if done is not None:
                    records.append((due, s0, s1, done,
                                    (fut.wait_s or 0.0) * 1e3,
                                    (fut.compute_s or 0.0) * 1e3,
                                    fut.batch_size or 0))

        completer = threading.Thread(target=complete, name="e2e-completer",
                                     daemon=True)
        completer.start()
        self.phase("front")
        self.traced(True)
        try:
            t0 = time.perf_counter()
            for j in range(int(seconds * rate)):
                due = t0 + j / rate
                now = time.perf_counter()
                if due > now:
                    time.sleep(due - now)
                i = next(order)
                if self.tracer is not None:
                    self.tracer.set_rid(j)
                s0 = time.perf_counter()
                try:
                    fut = self.front.submit(self.problems[i])
                except ServiceOverloaded:
                    self.acct.record("reference", "rejected")
                    continue
                pending.put((i, due, s0, time.perf_counter(), fut))
        finally:
            pending.put(None)
            completer.join(timeout=120.0)
            self.traced(False)
            if self.tracer is not None:
                self.tracer.set_rid(None)

        def pct(xs: List[float], prefix: str) -> None:
            self.layers[f"{prefix}_p50"] = percentile(xs, 0.50)
            self.layers[f"{prefix}_p99"] = percentile(xs, 0.99)

        lat = [(r[3] - r[0]) * 1e3 for r in records]
        pct(lat, "serve.latency_ms")
        self.detail["reference"] = {
            "rate_rps": rate, "limit_ms": self.wl.limit_ms,
            "samples": len(lat), "p50_ms": percentile(lat, 0.50),
            "p99_ms": percentile(lat, 0.99),
            "p99_within_limit": percentile(lat, 0.99) <= self.wl.limit_ms,
        }
        side = "api.client" if self.wl.front == "client" else "serve"
        pct([(r[2] - r[1]) * 1e6 for r in records], f"{side}.submit_us")
        pct([r[4] for r in records], "serve.wait_ms")
        pct([r[5] for r in records], "serve.compute_ms")
        self.layers["loadgen.late_ms_p99"] = percentile(
            [(r[1] - r[0]) * 1e3 for r in records], 0.99)
        batches = [r[6] for r in records if r[6]]
        self.layers["serve.batch_size_mean"] = (
            statistics.fmean(batches) if batches else 0.0)
        if self.wl.front == "client":
            pct([(r[3] - r[1]) * 1e3 - r[4] - r[5] for r in records],
                "api.transport_ms")

    # -- wrap-up ------------------------------------------------------------ #
    def close_front(self, ok: bool) -> None:
        """Drain (or, after a failure, kill) the front door and read
        its final counters."""
        if self.front is None:
            return
        front, self.front = self.front, None
        if not ok:
            front.kill()
            return
        final = front.close()
        if self.wl.front == "client":
            shards = final["shards"]
            self.layers["api.shard_hit_rate_min"] = min(
                s["service"]["plan_cache"]["hit_rate"] for s in shards
                if s.get("service") and s.get("routed"))
            self.layers["api.shm.leases_outstanding"] = sum(
                s["arena"]["leases_outstanding"] for s in shards)
            fe = final["frontend"]
            self.layers["api.bytes_per_request"] = (
                (fe["bytes_in"] + fe["bytes_out"]) / fe["requests_total"])

    def finish(self) -> None:
        """Counters from the caches and pool, then the span breakdown."""
        hits = misses = 0
        for cache, h0, m0 in self.cache_base:
            hits += cache.hits - h0
            misses += cache.misses - m0
        self.layers["plan.cache.hit_rate"] = (
            hits / (hits + misses) if hits + misses else 0.0)
        self.layers["core.pool.fresh_bytes_per_call"] = (
            self.eps.fresh_bytes / max(1, self.eps.planned_calls))
        if self.tracer is not None:
            self._span_layers()

    def _span_layers(self) -> None:
        spans = self.tracer.spans
        own = self_times(spans)
        itemsize = self.problems[0].out.itemsize
        kernels = ("blas.level3.dgemm", "core.peeling.fixup")

        def is_kernel(name: str) -> bool:
            return name in kernels or name.startswith("blas.addsub.")

        def of(phase: str) -> Tuple[List[tuple], List[tuple]]:
            ps = [s for s in spans if s[PHASE] == phase]
            roots = [s for s in ps if not s[PARENT]
                     and s[TID] == self.main_thread
                     and s[NAME] in ("core.dgefmm", "core.parallel")]
            return ps, roots

        def dur(ss) -> int:
            return sum(s[T1] - s[T0] for s in ss)

        ps, roots = of("dgefmm")
        calls, wall = max(1, len(roots)), max(1, dur(roots))
        gemms = [s for s in ps if s[NAME] == "blas.level3.dgemm"]
        adds = [s for s in ps if s[NAME].startswith("blas.addsub.")]
        fixups = [s for s in ps if s[NAME] == "core.peeling.fixup"]
        add_elems = sum(s[WORK] for s in adds)
        gemm_flops = sum(s[WORK] for s in gemms)
        L = self.layers
        L["blas.level3.dgemm_ms"] = sum(own[s[0]] for s in gemms) / calls / 1e6
        L["blas.level3.dgemm_calls"] = len(gemms) / calls
        L["blas.level3.dgemm_gflops"] = gemm_flops / max(1, dur(gemms))
        L["blas.addsub.ms"] = sum(own[s[0]] for s in adds) / calls / 1e6
        L["blas.addsub.calls"] = len(adds) / calls
        L["blas.addsub.gbs"] = (3 * add_elems * itemsize / dur(adds)
                                if adds else 0.0)
        L["blas.add_time_share"] = sum(own[s[0]] for s in adds) / wall
        L["blas.add_flop_share"] = add_elems / max(1, add_elems + gemm_flops)
        L["core.peeling.fixup_ms"] = (
            sum(own[s[0]] for s in fixups) / calls / 1e6)
        L["core.peeling.fixup_calls"] = len(fixups) / calls
        L["core.dgefmm.self_ms"] = sum(own[s[0]] for s in roots) / calls / 1e6
        mine = [s for s in ps if s[TID] == self.main_thread]
        self.detail["self_time_sum_ratio"] = (
            sum(own[s[0]] for s in mine) / wall)

        ps, roots = of("planned")
        L["blas.kernel_share"] = sum(
            own[s[0]] for s in ps if is_kernel(s[NAME])) / max(1, dur(roots))
        L["plan.executor.self_ms"] = sum(
            own[s[0]] for s in ps if s[NAME] == "plan.executor"
        ) / max(1, len(roots)) / 1e6

        ps, roots = of("fused")
        L["plan.fuse.run_fused_ms"] = dur(
            [s for s in ps if s[NAME] == "plan.fuse.run_fused"]
        ) / max(1, len(roots)) / 1e6

        ps, roots = of("pdgefmm")
        L["core.parallel.parallelism"] = dur(
            [s for s in ps if is_kernel(s[NAME])]) / max(1, dur(roots))

        ps = [s for s in spans if s[PHASE] == "setup"]
        L["plan.compiler.compile_ms"] = dur(
            [s for s in ps if s[NAME] == "plan.compiler.compile"]
        ) / SETUP_REPS / 1e6
        L["plan.fuse.fuse_plan_ms"] = dur(
            [s for s in ps if s[NAME] == "plan.fuse.fuse_plan"]
        ) / SETUP_REPS / 1e6


def run_workload(name: str, seed: int, seconds: float, import_s: float,
                 tracer: Optional[Tracer] = None,
                 quick: bool = False) -> Dict[str, Any]:
    """One run of one workload (traced when given a tracer); returns
    its result document.  ``import_s`` is the package import time,
    part of set-up."""
    wl = WORKLOADS[name]
    problems = make_problems(name, seed, quick)
    bench = Bench(wl, problems, seed, tracer)
    ok = False
    try:
        bench.setup(import_s)
        if wl.front == "dgefmm":
            bench.direct_rounds(seconds)
        else:
            direct, closed, ref = (seconds * s for s in SERVING_SPLIT)
            bench.direct_rounds(direct)
            bench.closed_loop(closed)
            bench.open_loop(ref)
        ok = True
    finally:
        bench.close_front(ok)
        bench.clock.close()
    bench.finish()
    causes = bench.acct.causes
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": tracer is not None,
        "quick": quick,
        "inputs_digest": inputs_digest(problems, seed),
        "e2e": bench.e2e,
        "layers": bench.layers,
        "setup_reps_s": bench.setup_reps,
        "host_clock_s": bench.clock.samples,
        "detail": bench.detail,
        "phases": bench.acct.phases,
        "failure_causes": causes,
        "failures": bench.checker.failures,
        "attempted": bench.acct.total("attempted"),
        "failed": bench.acct.total("failed"),
        "correct": not causes.get("divergent"),
    }
