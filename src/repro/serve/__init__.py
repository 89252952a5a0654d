"""In-process batched GEMM serving: queueing, micro-batching, metrics.

The subsystem turns the library's drivers into a long-lived service:
:class:`~repro.serve.service.GemmService` accepts ``C <-
alpha*op(A)*op(B) + beta*C`` requests into a bounded
admission-controlled queue, groups them by plan signature into
micro-batches, runs each request through ``dgefmm``'s serial path on a
worker pool (the walk, in a pooled arena when the root recurses, or a
vendor request's cached fused plan), and
reports live metrics (queue depth, batch sizes, wait/compute split,
tail latency, cache hit rate).

Entry points:

- :class:`GemmService` — the engine (``submit``/``call``/``stats``).
- :func:`run_load` — open-loop load generator with bit-identity
  verification against direct ``dgefmm`` (``python -m repro serve``).
"""

from repro.serve.loadgen import build_mix, run_load
from repro.serve.metrics import Counter, Histogram, MetricsRegistry
from repro.serve.queue import POLICIES, AdmissionQueue
from repro.serve.request import GemmFuture, GemmRequest
from repro.serve.service import GemmService

__all__ = [
    "AdmissionQueue",
    "Counter",
    "GemmFuture",
    "GemmRequest",
    "GemmService",
    "Histogram",
    "MetricsRegistry",
    "POLICIES",
    "build_mix",
    "run_load",
]
