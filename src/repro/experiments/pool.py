"""A persistent worker pool shared across experiments.

A pool per experiment would make a sweep of thirty shallow grid points
pay thirty pool spawns, and the fuzz inner loop one per
probe. :class:`WorkerPool` is created once — by the caller, or by a
``with WorkerPool(...)`` around one campaign or one
:func:`~repro.experiments.campaign.run_scenario` call — and reused for
every experiment dispatched through it, so consecutive grid points,
fuzz probes, and campaign entries share one set of warm worker
processes.

Two dispatch surfaces:

- :meth:`submit` — the point loop's async path (campaigns, single
  runs, the estimate service): enqueue one payload
  with a completion callback, so chunks from *different* grid points
  can interleave in the same pool and wide, shallow grids keep every
  worker busy.
- :meth:`imap_unordered` — a node's lease path: apply a worker function
  to a payload list, yielding results as they arrive. With
  ``workers == 1`` it degenerates to a lazy in-process loop (no
  processes, no pickling), which is also the only mode that supports
  payloads built from unpicklable closures.

Neither surface throttles below the process count: ``--workers auto``
never sizes a pool beyond the machine's cores, so a pool that does
oversubscribe was asked to by an explicit count.

Worker processes import :mod:`repro.experiments` once at start-up (so
builtin scenarios resolve by name) and then ``gc.freeze()`` the imported
world: the catalog and module objects live for the worker's whole life,
and freezing them out of the cyclic collector keeps collections off the
trial hot loop.
"""

import gc
import multiprocessing
import os
import threading
import weakref
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Union

from repro.util.errors import ConfigurationError

#: A worker-count argument: an explicit count, or "auto"/None to derive
#: one from the machine (see :func:`resolve_workers`).
WorkerCount = Union[int, str, None]

#: Upper clamp for ``--workers auto``: beyond this, coordination overhead
#: on the kinds of trial loads we run outweighs extra parallelism.
MAX_AUTO_WORKERS = 8

def resolve_workers(workers: WorkerCount) -> int:
    """Resolve a worker-count argument to a concrete process count.

    ``"auto"`` (or ``None``) asks the machine: ``os.cpu_count()`` clamped
    to ``[1, MAX_AUTO_WORKERS]``, so users stop guessing and oversized
    hosts don't spawn 128 workers for a 200-trial sweep. Integers pass
    through (validated ``>= 1``).
    """
    if workers is None or workers == "auto":
        return max(1, min(os.cpu_count() or 1, MAX_AUTO_WORKERS))
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise ConfigurationError(
            f"workers must be an integer or 'auto', got {workers!r}"
        )
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return workers


def _init_worker() -> None:
    """Pool-process initializer: register the catalog, then freeze it.

    The import mirrors what
    :func:`~repro.experiments.runner._run_chunk_folded` would do lazily;
    doing it here moves the cost off the first chunk.
    ``gc.freeze`` then permanently exempts those import-time objects from
    cyclic collection — they can never die while the worker lives, so
    scanning them on every collection is pure overhead.
    """
    import repro.experiments  # noqa: F401 - registers builtin scenarios

    gc.collect()
    gc.freeze()


def _terminate(pool: "multiprocessing.pool.Pool") -> None:
    """GC-time backstop for a pool the owner forgot to close."""
    pool.terminate()


class WorkerPool:
    """A context-managed, lazily-spawned, reusable process pool.

    Parameters
    ----------
    workers:
        Process count, or ``"auto"``/``None`` for
        :func:`resolve_workers`'s machine-derived default. ``1`` means
        strictly in-process: no child processes are ever spawned and
        payloads are never pickled.

    The underlying ``multiprocessing.Pool`` is created on the first
    parallel dispatch (``warm_up()`` forces it, e.g. to keep spawn cost
    out of a benchmark's timed region) and lives until :meth:`close` —
    every experiment dispatched in between reuses the same worker
    processes. A ``weakref.finalize`` terminates leaked pools at GC.
    """

    #: Lock discipline, checked by ``python -m repro lint`` (R201):
    #: lifecycle state under ``_pool_guard`` — serve.py dispatches
    #: campaigns from concurrent request threads, and two racing
    #: ``_ensure_pool`` calls used to each spawn a multiprocessing.Pool
    #: (the loser's workers leaked until GC) — counters under their own
    #: lock so dispatch bookkeeping never contends with lifecycle.
    _GUARDED_BY = {
        "_pool": "_pool_guard",
        "_closed": "_pool_guard",
        "_finalizer": "_pool_guard",
        "_dispatched": "_counters_lock",
        "_completed": "_counters_lock",
        "_failed": "_counters_lock",
    }

    def __init__(self, workers: WorkerCount = 1):
        self.workers = resolve_workers(workers)
        self._pool_guard = threading.Lock()
        self._pool: Optional[Any] = None
        self._finalizer = None
        self._closed = False
        # Lifetime chunk counters — observability only (the /metrics
        # endpoints mirror them); scheduling never consults them.
        self._counters_lock = threading.Lock()
        self._dispatched = 0
        self._completed = 0
        self._failed = 0

    def _count(self, dispatched: int = 0, completed: int = 0, failed: int = 0) -> None:
        with self._counters_lock:
            self._dispatched += dispatched
            self._completed += completed
            self._failed += failed

    def counters(self) -> Dict[str, int]:
        """Lifetime chunk counts: ``dispatched``/``completed``/``failed``.

        Best-effort bookkeeping for the metrics endpoints: a chunk
        abandoned by an early-exiting consumer stays dispatched without
        ever completing, and an exception raised out of
        :meth:`imap_unordered` counts the failing chunk only.
        """
        with self._counters_lock:
            return {
                "dispatched": self._dispatched,
                "completed": self._completed,
                "failed": self._failed,
            }

    # -- lifecycle -----------------------------------------------------

    @property
    def parallel(self) -> bool:
        """Whether dispatches may use worker processes at all."""
        return self.workers > 1

    @property
    def started(self) -> bool:
        """Whether the worker processes currently exist."""
        with self._pool_guard:
            return self._pool is not None

    def warm_up(self) -> "WorkerPool":
        """Spawn the worker processes now (no-op when ``workers == 1``)."""
        if self.parallel:
            self._ensure_pool()
        return self

    def close(self) -> None:
        """Shut the workers down gracefully; the pool stays closed.

        Graceful means *waiting*: queued work still runs to completion
        before the workers exit. Only use this on the clean path — after
        an exception (notably ``KeyboardInterrupt`` mid-dispatch) call
        :meth:`terminate` instead, or teardown blocks on every chunk
        still in the queue.
        """
        with self._pool_guard:
            self._closed = True
            pool = self._detach_pool_locked()
        # Joining outside the guard: a graceful close can block for as
        # long as the queued chunks take, and holding the guard that
        # whole time would stall every counters()/started probe.
        if pool is not None:
            pool.close()
            pool.join()

    def terminate(self) -> None:
        """Kill the worker processes now; in-flight chunks are lost.

        The error-path twin of :meth:`close`: a ``KeyboardInterrupt``
        during dispatch used to leave children alive behind a graceful
        ``close()`` that blocked on the unfinished queue — ``terminate``
        sends SIGTERM and joins, so Ctrl-C tears the whole process tree
        down promptly. The pool stays closed afterwards.
        """
        with self._pool_guard:
            self._closed = True
            pool = self._detach_pool_locked()
        if pool is not None:
            pool.terminate()
            pool.join()

    def _detach_pool_locked(self):
        pool, self._pool = self._pool, None
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        return pool

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Exceptions (KeyboardInterrupt above all) must not block on
        # queued work the user just asked to stop.
        if exc_type is not None:
            self.terminate()
        else:
            self.close()

    def _ensure_pool(self):
        # The check and the spawn are one critical section: concurrent
        # dispatches (the estimate service runs campaigns from several
        # request threads against one shared pool) must agree on a
        # single multiprocessing.Pool rather than each creating one.
        with self._pool_guard:
            if self._closed:
                raise ConfigurationError("worker pool is closed")
            if self._pool is None:
                self._pool = multiprocessing.Pool(
                    processes=self.workers, initializer=_init_worker
                )
                self._finalizer = weakref.finalize(
                    self, _terminate, self._pool
                )
            return self._pool

    # -- dispatch ------------------------------------------------------

    def imap_unordered(
        self, fn: Callable[[Any], Any], payloads: Iterable[Any]
    ) -> Iterator[Any]:
        """Apply ``fn`` to every payload, yielding results as they land.

        In-process (lazy, ordered) when ``workers == 1``; otherwise the
        shared pool, whose own task queue caps concurrency at the
        process count. Callers must treat arrival order as arbitrary
        either way.
        """
        if not self.parallel:
            for payload in payloads:
                self._count(dispatched=1)
                try:
                    result = fn(payload)
                except BaseException:
                    self._count(failed=1)
                    raise
                self._count(completed=1)
                yield result
            return
        pool = self._ensure_pool()
        payloads = list(payloads)
        self._count(dispatched=len(payloads))
        try:
            for result in pool.imap_unordered(fn, payloads):
                self._count(completed=1)
                yield result
        except BaseException:
            self._count(failed=1)
            raise

    def submit(
        self,
        fn: Callable[[Any], Any],
        payload: Any,
        callback: Callable[[Any], None],
        error_callback: Callable[[BaseException], None],
    ) -> None:
        """Enqueue one payload asynchronously (parallel pools only).

        ``callback``/``error_callback`` fire on the pool's result-handler
        thread — hand the value to a thread-safe queue, don't do work
        there. The campaign orchestrator uses this to interleave chunks
        from many grid points; serial orchestration has no queue to keep
        full, so ``workers == 1`` pools reject it.
        """
        if not self.parallel:
            raise ConfigurationError(
                "submit() requires a parallel pool; run serial work inline"
            )

        def counted(result, _callback=callback):
            self._count(completed=1)
            _callback(result)

        def counted_error(exc, _callback=error_callback):
            self._count(failed=1)
            _callback(exc)

        self._count(dispatched=1)
        self._ensure_pool().apply_async(
            fn, (payload,), callback=counted, error_callback=counted_error
        )
