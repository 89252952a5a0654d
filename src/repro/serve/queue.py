"""Bounded FIFO admission queue with micro-batch formation.

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

A worker takes the oldest queued requests, up to ``max_batch``, whatever
their signatures — one worker wakeup and queue handoff for the whole
batch, whose requests then run back to back.  Each request makes its
own call into ``dgefmm``'s serial path, so nothing in a batch depends on
its mates.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, List, Optional

from repro.errors import ArgumentError, ServiceClosed, ServiceOverloaded
from repro.serve.request import GemmRequest

__all__ = ["AdmissionQueue", "POLICIES"]

#: recognised admission-control policies
POLICIES = ("reject", "block", "shed-oldest")


class AdmissionQueue:
    """Bounded FIFO with pluggable overflow policy: batches come off the
    head, and ``shed-oldest`` evicts the head."""

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
        self._queue: Deque[GemmRequest] = deque()
        self._closed = False

    # ------------------------------------------------------------------ #
    @property
    def depth(self) -> int:
        """Requests currently queued."""
        with self._lock:
            return len(self._queue)

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
            if len(self._queue) >= self.capacity:
                if self.policy == "reject":
                    raise ServiceOverloaded(
                        f"queue full ({len(self._queue)}/{self.capacity})"
                    )
                if self.policy == "block":
                    deadline = (
                        None if timeout is None
                        else time.monotonic() + timeout
                    )
                    while len(self._queue) >= self.capacity:
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
                                    f"({len(self._queue)}/{self.capacity})"
                                )
                else:  # shed-oldest
                    shed = self._queue.popleft()
            self._queue.append(req)
            self._not_empty.notify()
            return shed

    def take_batch(
        self, max_batch: int, timeout: Optional[float] = None
    ) -> Optional[List[GemmRequest]]:
        """The oldest queued requests, up to ``max_batch``; None on close.

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
            while not self._queue:
                if self._closed:
                    return None
                if not self._not_empty.wait(timeout):
                    return []
            q = self._queue
            batch = [q.popleft() for _ in range(min(max_batch, len(q)))]
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
            out = list(self._queue)
            self._queue.clear()
            self._not_full.notify_all()
            return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        with self._lock:
            return (
                f"AdmissionQueue(depth={len(self._queue)}/{self.capacity}, "
                f"policy={self.policy!r}, closed={self._closed})"
            )
