"""Reusable workspace arenas: amortizing temporary allocation to zero.

The serial driver allocates every temporary with ``np.empty`` inside a
:class:`~repro.core.workspace.Workspace` frame.  That is fine for one
multiply, but a service that runs the *same* GEMM shape thousands of
times (the ROADMAP's heavy-traffic regime) pays the allocator — and the
page-faulting of fresh memory — on every call.  Huang et al.'s BLIS
Strassen (PAPERS.md) locate much of their practical speedup in exactly
this: pre-provisioned, reused workspace.

Two classes implement the fix:

:class:`PooledWorkspace`
    A :class:`~repro.core.workspace.Workspace` whose allocations are
    carved out of one contiguous backing buffer with a bump pointer.
    Stack discipline makes this exact: frames rewind the pointer on
    exit, so the buffer layout replays identically on every call.  The
    buffer can only be *grown* while no frames are open (live views
    would otherwise dangle), so an under-sized arena falls back to
    ``np.empty`` for the overflowing request, records the true
    requirement, and regrows at check-in.  After one warm-up call at a
    given problem size, repeated calls perform **zero** new allocations.

:class:`WorkspacePool`
    A thread-safe check-out/check-in pool of such arenas.  Every node of
    a parallel plan replay checks out its own arena, so arenas are
    never shared between concurrent multiplications; check-in makes
    the (grown) buffer available to the next call.

Sizing comes from the paper's Table 1 bounds
(:func:`workspace_bound_bytes`): e.g. STRASSEN2 needs at most
``(mk + kn + mn)/3`` extra elements over the whole recursion, so an
arena hinted with that figure never grows at all.

The stack-discipline :class:`~repro.errors.WorkspaceError` invariants
are inherited unchanged — a leaked frame is detected inside a pooled
arena exactly as in a plain workspace, and a leaked arena is *dropped*
(never re-pooled) because live views may still reference its buffer.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator, List

import numpy as np

from repro.core.workspace import Workspace
from repro.errors import WorkspaceError

__all__ = ["PooledWorkspace", "WorkspacePool", "workspace_bound_bytes"]

#: bump-pointer alignment: one cache line, a multiple of every dtype the
#: schedules allocate (float64, complex128)
_ALIGN = 64


def _align_up(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) & ~(_ALIGN - 1)


def _aligned_buffer(nbytes: int) -> np.ndarray:
    """A uint8 buffer whose base address is 64-byte aligned.

    numpy only guarantees 16-byte alignment; over-allocate and offset so
    the bump allocator's relative offsets are absolute alignments too
    (and the layout replays identically after a regrow moves the base).
    """
    raw = np.empty(int(nbytes) + _ALIGN, dtype=np.uint8)
    off = (-raw.ctypes.data) % _ALIGN
    return raw[off:off + int(nbytes)]


def workspace_bound_bytes(
    m: int,
    k: int,
    n: int,
    scheme: str = "strassen2",
    dtype=np.float64,
) -> int:
    """Recursion-wide workspace bound, in bytes, for one m x k x n GEMM.

    ``scheme`` is any registry scheme name — the per-scheme element
    bounds (the paper's Table 1 figures, plus the registered non-2x2
    families) live in :func:`repro.core.schemes.bound_elements` — or
    ``"parallel"``: one task-parallel level (all four S, four T and
    seven quarter-size P blocks live at once) on top of a STRASSEN2
    recursion inside each product.  The figure includes alignment slack
    for the bump allocator, so an arena hinted with it never regrows.
    """
    if scheme == "parallel":
        mk, kn, mn = max(m * k, 1), max(k * n, 1), max(m * n, 1)
        # one level: S blocks (4 * mk/4) + T blocks (4 * kn/4) + seven
        # P blocks (7 * mn/4); each product then runs STRASSEN2 at
        # half size inside its own arena, which is sized separately.
        elems = mk + kn + 7 * mn / 4.0
    else:
        from repro.core.schemes import bound_elements

        try:
            elems = bound_elements(scheme, m, k, n)
        except KeyError:
            raise WorkspaceError(
                f"unknown workspace bound scheme {scheme!r}"
            ) from None
    itemsize = np.dtype(dtype).itemsize
    # the recursion allocates O(log) temporaries per level; 64 B of
    # alignment slack each is covered comfortably by one extra KiB plus
    # a 2 % margin for the odd-dimension peeling remainders
    return int(elems * itemsize * 1.02) + 1024


class PooledWorkspace(Workspace):
    """A workspace whose temporaries live in one reusable backing buffer.

    Parameters
    ----------
    nbytes:
        Initial capacity of the backing buffer.  Zero is valid: the
        arena then learns its requirement on the first call (every
        request overflows to ``np.empty``) and provisions the buffer at
        the first quiescent point (:meth:`regrow`).
    """

    def __init__(self, nbytes: int = 0) -> None:
        super().__init__()
        self._buffer = _aligned_buffer(nbytes)
        if nbytes:
            self.new_buffer_bytes += int(nbytes)
            self.new_buffer_count += 1
        self._cursor = 0
        self._cursor_stack: List[int] = []
        self._required = 0
        #: allocations that did not fit the buffer and fell back to
        #: ``np.empty`` (they regrow the buffer at the next check-in)
        self.overflow_count = 0

    @property
    def capacity_bytes(self) -> int:
        """Current size of the reusable backing buffer."""
        return int(self._buffer.nbytes)

    @contextmanager
    def frame(self) -> Iterator["PooledWorkspace"]:
        self._cursor_stack.append(self._cursor)
        try:
            with super().frame():
                yield self
        finally:
            self._cursor = self._cursor_stack.pop()

    def _make(self, m: int, n: int, dtype, nbytes: int) -> Any:
        start = _align_up(self._cursor)
        end = start + nbytes
        if end > self._required:
            self._required = end
        if end > self._buffer.nbytes:
            # cannot regrow mid-call: earlier views alias the buffer.
            # Serve this request from the heap, but keep advancing the
            # cursor virtually so ``_required`` records the true layout
            # requirement and one regrow at check-in suffices.
            self._cursor = end
            self.overflow_count += 1
            return super()._make(m, n, dtype, nbytes)
        self._cursor = end
        flat = self._buffer[start:end].view(dtype)
        return flat.reshape((m, n), order="F")

    def begin_call(self) -> None:
        """Reset per-call accounting (peak watermark) at check-out.

        The buffer and its lifetime counters (``new_buffer_*``) are
        deliberately *not* reset — they are the amortization record.
        """
        if self._frames:
            raise WorkspaceError(
                f"begin_call with {len(self._frames)} frame(s) still open"
            )
        self._peak_bytes = self._live_bytes  # == 0 at depth 0

    def reserve(self, nbytes: int) -> np.ndarray:
        """Ensure the backing buffer holds at least ``nbytes``; return it.

        The plan executor (:mod:`repro.plan.executor`) sizes an arena
        once from a compiled plan's precomputed layout, then binds all
        temporary views against the returned buffer.  Only legal while
        no frames are open (a regrow moves the base and would dangle
        any live frame views).  The request is recorded in ``_required``
        so a later :meth:`regrow` never shrinks below it.
        """
        if self._frames:
            raise WorkspaceError(
                f"reserve with {len(self._frames)} frame(s) still open"
            )
        if nbytes < 0:
            raise WorkspaceError(f"invalid reserve request {nbytes}")
        if nbytes > self._required:
            self._required = int(nbytes)
        if self._required > self._buffer.nbytes:
            self._buffer = _aligned_buffer(self._required)
            self.new_buffer_bytes += int(self._buffer.nbytes)
            self.new_buffer_count += 1
        return self._buffer

    def regrow(self) -> None:
        """Provision the buffer for the largest requirement seen so far.

        Only legal while no frames are open (no live views).  Called by
        the pool at check-in, so the *next* call at the same problem
        size is served entirely from the buffer.
        """
        if self._frames:
            raise WorkspaceError(
                f"regrow with {len(self._frames)} frame(s) still open"
            )
        if self._required > self._buffer.nbytes:
            self._buffer = _aligned_buffer(self._required)
            self.new_buffer_bytes += int(self._buffer.nbytes)
            self.new_buffer_count += 1


class WorkspacePool:
    """Thread-safe pool of :class:`PooledWorkspace` arenas.

    Parameters
    ----------
    size_hint_bytes:
        Capacity every newly created arena starts with.  Use
        :func:`workspace_bound_bytes` for the paper's Table 1 figure of
        the shapes you will run; a zero hint merely costs one warm-up
        call per arena.
    prewarm:
        Create this many arenas eagerly, so a fully parallel first call
        performs no arena construction either.

    Check-out hands each caller a *private* arena (arenas are never
    shared between outstanding check-outs), so pooled execution needs no
    locking on the allocation hot path — the lock guards only the free
    list.  :meth:`checkin` enforces the quiescence invariant (all frames
    closed) with :class:`~repro.errors.WorkspaceError`; :meth:`release`
    is the exception-path variant that never raises and silently drops a
    non-quiescent arena instead of re-pooling it.
    """

    def __init__(self, size_hint_bytes: int = 0, *, prewarm: int = 0) -> None:
        if size_hint_bytes < 0:
            raise WorkspaceError(
                f"invalid pool size hint {size_hint_bytes}"
            )
        self.size_hint_bytes = int(size_hint_bytes)
        self._lock = threading.Lock()
        self._free: List[PooledWorkspace] = []
        self._all: List[PooledWorkspace] = []
        self._created = 0
        self._outstanding = 0
        for _ in range(prewarm):
            self._free.append(self._new_arena())

    # ------------------------------------------------------------------ #
    def _new_arena(self) -> PooledWorkspace:
        ws = PooledWorkspace(self.size_hint_bytes)
        self._all.append(ws)
        self._created += 1
        return ws

    @property
    def arenas_created(self) -> int:
        """Total arenas ever constructed by this pool (survives shrink)."""
        return self._created

    @property
    def outstanding(self) -> int:
        """Arenas currently checked out."""
        return self._outstanding

    @property
    def idle(self) -> int:
        """Arenas currently in the free list."""
        return len(self._free)

    @property
    def new_buffer_bytes(self) -> int:
        """Fresh heap bytes requested across all arenas, ever.

        Flat across calls == the amortization claim holds (warm pool,
        zero new allocations).
        """
        with self._lock:
            return sum(ws.new_buffer_bytes for ws in self._all)

    @property
    def new_buffer_count(self) -> int:
        """Fresh buffer requests across all arenas, ever."""
        with self._lock:
            return sum(ws.new_buffer_count for ws in self._all)

    def stats(self) -> dict:
        """Consistent counters snapshot (one lock acquisition).

        The long-running-service view of the pool: arena population,
        how many are in flight, resident buffer bytes, and the lifetime
        allocation record that backs the amortization claim.
        """
        with self._lock:
            return {
                "arenas": len(self._all),
                "created": self._created,
                "idle": len(self._free),
                "outstanding": self._outstanding,
                "capacity_bytes": sum(
                    ws.capacity_bytes for ws in self._all
                ),
                "new_buffer_bytes": sum(
                    ws.new_buffer_bytes for ws in self._all
                ),
                "new_buffer_count": sum(
                    ws.new_buffer_count for ws in self._all
                ),
            }

    def shrink(self, keep_idle: int = 0) -> int:
        """Drop idle arenas beyond ``keep_idle``; returns bytes released.

        Memory-pressure hook for long-running services: a traffic burst
        can grow the free list well past steady-state needs, and the
        arenas (with their grown buffers) would otherwise stay resident
        forever.  Outstanding arenas are untouched.  Dropped arenas
        leave the stats population, so their ``new_buffer_*`` history
        leaves with them — callers tracking the amortization claim
        should snapshot :meth:`stats` before shrinking.
        """
        if keep_idle < 0:
            raise WorkspaceError(f"invalid keep_idle {keep_idle}")
        with self._lock:
            released = 0
            while len(self._free) > keep_idle:
                ws = self._free.pop(0)
                self._all.remove(ws)
                released += ws.capacity_bytes
            return released

    # ------------------------------------------------------------------ #
    def checkout(self) -> PooledWorkspace:
        """Acquire a private arena (reused if one is idle)."""
        with self._lock:
            ws = self._free.pop() if self._free else self._new_arena()
            self._outstanding += 1
        ws.begin_call()
        return ws

    def checkin(self, ws: PooledWorkspace) -> None:
        """Return a quiescent arena to the pool.

        Raises :class:`~repro.errors.WorkspaceError` if the arena still
        has open frames — returning it would let the next caller scribble
        over live views (the pool-level stack-discipline invariant).
        """
        if ws.depth != 0:
            with self._lock:
                self._outstanding -= 1
            raise WorkspaceError(
                f"checkin of arena with {ws.depth} open frame(s)"
            )
        ws.regrow()
        with self._lock:
            self._outstanding -= 1
            self._free.append(ws)

    def release(self, ws: PooledWorkspace) -> None:
        """Exception-safe check-in: never raises.

        A cleanly unwound arena is re-pooled (after regrowing); a leaked
        one is dropped so its buffer can never be handed to another
        caller while views survive.
        """
        if ws.depth == 0:
            self.checkin(ws)
        else:
            # quarantined: stays in the stats (`_all`) but never in the
            # free list, so its live views can never be scribbled over
            with self._lock:
                self._outstanding -= 1

    @contextmanager
    def arena(self) -> Iterator[PooledWorkspace]:
        """``with pool.arena() as ws:`` — checkout/checkin guard.

        On an exception the arena goes through :meth:`release`, so a
        frame leaked by the failing call is quarantined rather than
        masking the original error with a pool error.
        """
        ws = self.checkout()
        try:
            yield ws
        except BaseException:
            self.release(ws)
            raise
        self.checkin(ws)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"WorkspacePool(arenas={self.arenas_created}, "
            f"idle={self.idle}, outstanding={self.outstanding}, "
            f"hint={self.size_hint_bytes}B)"
        )
