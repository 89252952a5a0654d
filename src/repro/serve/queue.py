"""Bounded admission queue with signature-keyed micro-batch formation.

The queue is the service's pressure point: submissions race workers for
a bounded buffer, and what happens at capacity is an explicit,
configurable *policy* rather than an accident of buffering:

``"reject"``
    Fail fast: :class:`~repro.errors.ServiceOverloaded` to the
    submitter.  The classic load-shedding front door — callers retry
    against a replica or degrade gracefully.
``"block"``
    Backpressure: the submitting thread waits for space (optionally
    bounded by a timeout, after which ``ServiceOverloaded`` is raised).
    Converts overload into submitter-side latency — the closed-loop
    batch-workload choice.
``"shed-oldest"``
    Admit the newcomer by failing the *oldest* queued request with
    ``ServiceOverloaded``.  Freshness-first: under sustained overload
    the queue holds the newest work, and the shed request's future
    fails immediately instead of waiting out a doomed deadline.

Requests are bucketed by plan signature as they arrive, so batch
formation is O(distinct signatures), not O(queue): a worker takes the
bucket whose *head is globally oldest* (no signature can starve) and
drains up to ``max_batch`` requests from it — one worker wakeup and
queue handoff for the whole batch, whose requests then run back to
back.  Unbatchable requests
(degenerate problems, ``signature is None``) get a private bucket each
and ride through as singleton batches.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict, deque
from typing import Deque, Dict, Hashable, List, Optional

from repro.errors import ArgumentError, ServiceClosed, ServiceOverloaded
from repro.serve.request import GemmRequest

__all__ = ["AdmissionQueue", "POLICIES"]

#: recognised admission-control policies
POLICIES = ("reject", "block", "shed-oldest")


class AdmissionQueue:
    """Bounded, signature-bucketed FIFO with pluggable overflow policy.

    FIFO is global across buckets in the sense that matters for
    fairness: admission order assigns a monotone sequence number, batch
    formation always serves the bucket holding the oldest outstanding
    request, and ``shed-oldest`` evicts the globally oldest request.
    """

    def __init__(self, capacity: int = 256, policy: str = "reject") -> None:
        if capacity < 1:
            raise ArgumentError(
                "AdmissionQueue", "capacity",
                f"must be >= 1, got {capacity}",
            )
        if policy not in POLICIES:
            raise ArgumentError(
                "AdmissionQueue", "policy",
                f"must be one of {POLICIES}, got {policy!r}",
            )
        self.capacity = int(capacity)
        self.policy = policy
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._buckets: "OrderedDict[Hashable, Deque[GemmRequest]]" = (
            OrderedDict()
        )
        self._count = 0
        self._closed = False
        self._seq = itertools.count()

    # ------------------------------------------------------------------ #
    @property
    def depth(self) -> int:
        """Requests currently queued."""
        with self._lock:
            return self._count

    def _key(self, req: GemmRequest) -> Hashable:
        # degenerate requests are unbatchable: a unique key each
        if req.signature is None:
            return ("solo", req.seq)
        return req.signature

    def _insert(self, req: GemmRequest) -> None:
        # caller holds the lock; seq must already be assigned
        bucket = self._buckets.get(self._key(req))
        if bucket is None:
            self._buckets[self._key(req)] = deque((req,))
        else:
            bucket.append(req)
        self._count += 1
        self._not_empty.notify()

    def _pop_oldest(self) -> GemmRequest:
        # caller holds the lock; queue must be non-empty
        oldest_key = min(self._buckets, key=lambda k: self._buckets[k][0].seq)
        bucket = self._buckets[oldest_key]
        req = bucket.popleft()
        if not bucket:
            del self._buckets[oldest_key]
        self._count -= 1
        return req

    # ------------------------------------------------------------------ #
    def put(
        self, req: GemmRequest, timeout: Optional[float] = None
    ) -> Optional[GemmRequest]:
        """Admit ``req``; returns the request *shed* to make room, if any.

        Raises :class:`~repro.errors.ServiceOverloaded` when the queue
        is full under ``"reject"``, or when a ``"block"`` wait exceeds
        ``timeout``; raises :class:`~repro.errors.ServiceClosed` after
        :meth:`close`.  The caller (the service) fails a shed request's
        future — the queue itself never touches futures.
        """
        with self._lock:
            if self._closed:
                raise ServiceClosed("queue is closed to submissions")
            shed: Optional[GemmRequest] = None
            if self._count >= self.capacity:
                if self.policy == "reject":
                    raise ServiceOverloaded(
                        f"queue full ({self._count}/{self.capacity})"
                    )
                if self.policy == "block":
                    deadline = (
                        None if timeout is None
                        else time.monotonic() + timeout
                    )
                    while self._count >= self.capacity:
                        if self._closed:
                            raise ServiceClosed(
                                "queue closed while waiting for space"
                            )
                        if deadline is None:
                            self._not_full.wait()
                        else:
                            remaining = deadline - time.monotonic()
                            if remaining <= 0 or not self._not_full.wait(
                                remaining
                            ):
                                raise ServiceOverloaded(
                                    f"no queue space within {timeout} s "
                                    f"({self._count}/{self.capacity})"
                                )
                else:  # shed-oldest
                    shed = self._pop_oldest()
            req.seq = next(self._seq)
            self._insert(req)
            return shed

    def take_batch(
        self, max_batch: int, timeout: Optional[float] = None
    ) -> Optional[List[GemmRequest]]:
        """Oldest-first batch of same-signature requests; None on close.

        Blocks until work arrives (or ``timeout`` elapses — then an
        empty list is returned so pollers can heartbeat).  After
        :meth:`close`, remaining requests are still handed out so
        shutdown can drain; None signals drained-and-closed.
        """
        if max_batch < 1:
            raise ArgumentError(
                "AdmissionQueue", "max_batch",
                f"must be >= 1, got {max_batch}",
            )
        with self._lock:
            while self._count == 0:
                if self._closed:
                    return None
                if not self._not_empty.wait(timeout):
                    return []
            first = self._pop_oldest()
            batch = [first]
            key = self._key(first)
            bucket = self._buckets.get(key)
            if bucket is not None and first.signature is not None:
                while bucket and len(batch) < max_batch:
                    batch.append(bucket.popleft())
                    self._count -= 1
                if not bucket:
                    del self._buckets[key]
            self._not_full.notify(len(batch))
            return batch

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop admissions; queued work remains drainable."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

    def drain(self) -> List[GemmRequest]:
        """Remove and return everything queued (for failing at shutdown)."""
        with self._lock:
            out: List[GemmRequest] = []
            while self._count:
                out.append(self._pop_oldest())
            self._not_full.notify_all()
            return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        with self._lock:
            return (
                f"AdmissionQueue(depth={self._count}/{self.capacity}, "
                f"buckets={len(self._buckets)}, policy={self.policy!r}, "
                f"closed={self._closed})"
            )
