"""Outside-in span tracing: timing wrappers swapped in at import sites.

Nothing under ``src/`` knows about this module.  :meth:`Tracer.install`
replaces, for the duration of a traced phase, the functions each layer
calls in the next one down — at the *import site* the caller resolves
them through — and :meth:`Tracer.uninstall` puts the originals back:

- ``dgemm`` in ``repro.core.dgefmm`` (walker and eager parallel driver)
  and ``repro.plan.executor`` (plan replay);
- every ``BlockKernels`` table in ``repro.blas.addsub.KERNEL_TABLES``,
  which ``kernels_for`` hands to both the walker and the replay loop;
- ``apply_fixups``/``apply_fixups_head`` in ``core.dgefmm``,
  ``core.parallel``, ``plan.executor`` and ``plan.fuse``;
- ``execute_plan`` (``plan.executor``, where the drivers import it
  lazily, and ``serve.service``), ``run_fused`` (``plan.executor``),
  ``fuse_plan`` (``plan.compiler``) and ``compile_plan``
  (``plan.cache``);
- ``PlanCache.get_or_compile``, ``GemmService.submit`` and
  ``GemmClient.submit`` on their classes.

The fused batched ``np.matmul`` and the api worker processes cannot be
wrapped from outside: ``run_fused`` is one span, and the api layers
come from the client side plus the server timings echoed in each
response.

A span is ``(sid, name, t0_ns, t1_ns, parent, thread, rid, phase,
work)``: ``parent`` is the enclosing span on the same thread (0 for a
root), ``rid`` the request id the benchmark set on the thread, ``phase``
the benchmark phase running when the span closed, and ``work`` the
flops (``dgemm``, 2mkn) or additions (block kernels, mn) of the call.
Spans stay in memory until :meth:`Tracer.dump` writes them as JSONL.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "self_times"]

#: span tuple field indices
SID, NAME, T0, T1, PARENT, TID, RID, PHASE, WORK = range(9)


def _dgemm_flops(args: tuple, kwargs: dict) -> int:
    """2mkn of a ``dgemm(a, b, c, alpha, beta, transa, ...)`` call."""
    a, c = args[0], args[2]
    transa = kwargs.get("transa", args[5] if len(args) > 5 else False)
    k = a.shape[0] if transa else a.shape[1]
    return 2 * c.shape[0] * c.shape[1] * k


def _add_elements(out_pos: int) -> Callable[[tuple, dict], int]:
    """Elements of a block addition's output: the paper's ``G(m, n)``
    unit, one addition per element."""
    def work(args: tuple, kwargs: dict) -> int:
        return args[out_pos].size
    return work


#: BlockKernels field -> position of the output operand
_ADD_OUT = {"madd": 2, "msub": 2, "accum": 1, "axpby": 3}


class Tracer:
    """Collects spans from wrappers it installs; one per traced run."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._saved: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    @property
    def active(self) -> bool:
        """True while the wrappers are installed."""
        return bool(self._saved)

    def set_rid(self, rid: Optional[int]) -> None:
        """Tag spans closed on this thread with request id ``rid``."""
        self._tls.rid = rid

    def wrap(self, name: str, fn: Callable,
             work: Optional[Callable[[tuple, dict], int]] = None
             ) -> Callable:
        """``fn`` recording one span named ``name`` per call."""
        spans, ids, tls = self.spans, self._ids, self._tls
        clock = time.perf_counter_ns
        get_ident = threading.get_ident
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tls.__dict__.get("stack")
            if stack is None:
                stack = tls.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((
                    sid, name, t0, t1, parent, get_ident(),
                    getattr(tls, "rid", None), tracer.phase,
                    work(args, kwargs) if work is not None else 0,
                ))

        return traced

    def _patch(self, owner: Any, attr: str, name: str,
               work: Optional[Callable] = None) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, work))

    def install(self) -> None:
        """Swap the timing wrappers in (idempotent while installed).

        Each swap is one attribute or dict-key assignment, so a thread
        already inside a layer finishes with whichever function it
        looked up; install between phases for whole-phase spans.
        """
        if self._saved:
            return
        # import_module, not ``import a.b as c``: packages re-export
        # functions under their submodules' names (repro.core.dgefmm)
        (addsub, core_dgefmm, core_parallel, plan_cache, plan_compiler,
         plan_executor, plan_fuse, serve_service) = (
            importlib.import_module(f"repro.{name}") for name in (
                "blas.addsub", "core.dgefmm", "core.parallel", "plan.cache",
                "plan.compiler", "plan.executor", "plan.fuse",
                "serve.service"))

        for mod in (core_dgefmm, plan_executor):
            self._patch(mod, "dgemm", "blas.level3.dgemm", _dgemm_flops)
        for mod in (core_dgefmm, core_parallel, plan_executor, plan_fuse):
            self._patch(mod, "apply_fixups", "core.peeling.fixup")
            self._patch(mod, "apply_fixups_head", "core.peeling.fixup")
        self._patch(plan_executor, "execute_plan", "plan.executor")
        self._patch(serve_service, "execute_plan", "plan.executor")
        self._patch(plan_executor, "run_fused", "plan.fuse.run_fused")
        self._patch(plan_compiler, "fuse_plan", "plan.fuse.fuse_plan")
        self._patch(plan_cache, "compile_plan", "plan.compiler.compile")
        self._patch(plan_cache.PlanCache, "get_or_compile", "plan.cache")
        self._patch(serve_service.GemmService, "submit", "serve.submit")
        # patched only when loaded: importing the api pulls in scipy,
        # which the library workloads would otherwise never pay for
        client = sys.modules.get("repro.api.client")
        if client is not None:
            self._patch(client.GemmClient, "submit", "api.client.submit")

        # per-key assignment: a concurrent kernels_for() lookup always
        # finds a table, wrapped or not
        tables = addsub.KERNEL_TABLES
        for accuracy, table in list(tables.items()):
            self._saved.append((tables, accuracy, table))
            tables[accuracy] = type(table)(*(
                self.wrap(f"blas.addsub.{field}", fn,
                          _add_elements(_ADD_OUT[field]))
                for field, fn in zip(table._fields, table)
            ))

    def uninstall(self) -> None:
        """Restore every original the last :meth:`install` replaced."""
        while self._saved:
            owner, key, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # ------------------------------------------------------------------ #
    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        keys = ("sid", "name", "t0_ns", "t1_ns", "parent", "thread",
                "rid", "phase", "work")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans: List[tuple]) -> Dict[int, int]:
    """Span id -> self time in ns: duration minus the time its child
    spans cover.  Children run on their parent's thread, one at a
    time, so the time they cover is the sum of their durations."""
    covered: Dict[int, int] = defaultdict(int)
    for s in spans:
        if s[PARENT]:
            covered[s[PARENT]] += s[T1] - s[T0]
    return {s[SID]: (s[T1] - s[T0]) - covered[s[SID]] for s in spans}
