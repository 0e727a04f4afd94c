"""The shared intra-query worker pool: morsel-driven parallelism.

One process-global :class:`WorkerPool` serves every parallel consumer —
morsel-parallel scans inside a single-node plan, the cluster executor's
shard fragments, and the serving pool's worker sessions all submit to
the same bounded set of threads, so a 4-shard cluster running 4-worker
queries under an 8-worker serving pool can never oversubscribe the
machine: total thread demand is capped by the pool's capacity, full
stop.

Fairness is lease-based.  A parallel operator asks for N workers
(:meth:`WorkerPool.lease`) and is *granted* anywhere between 0 and N
slots depending on how many are already leased out; a grant of 0 (or 1)
degrades that operator to inline serial execution.  Because a grant
only bounds the in-flight window of the ordered morsel scheduler — it
never changes morsel boundaries or gather order — the *results* of a
query are byte-identical whatever the grant turns out to be.

The ordered gather (:meth:`_Lease.ordered_map`) is the correctness
backbone of the whole layer: morsels are submitted in scan order with a
bounded in-flight window and their results are yielded strictly in
submission order, so every downstream consumer observes exactly the
batch stream the serial path would have produced.

Since the segment layer landed, a columnar scan's morsels are its
storage **scan units** — one per sealed segment (``SEGMENT_ROWS`` =
``BATCH_ROWS``) plus the append tail — and the coordinator consults
each unit's zone maps *before* submission: a provably-empty segment is
dropped from the task list entirely, so skipping composes with
parallelism instead of wasting a worker on an empty morsel.  Runtime
join filters prune at the same point: a hash join's build-key range is
checked against each segment's zones during dispatch, so a morsel a
sibling's build side rules out is never submitted (and never charged
simulated I/O), while the row test against the build's key set runs
inside the workers — only its counters fold back on the coordinator,
keeping every statistics mutation single-threaded.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Iterable, Iterator, Optional, TypeVar

from ..telemetry.metrics import METRICS

_T = TypeVar("_T")

#: Upper bound on threads the global pool will ever run.  Sized so the
#: default serving pool (8 workers) times the default intra-query
#: grant stays within it; the lease accounting enforces the rest.
DEFAULT_CAPACITY = max(8, min(32, (os.cpu_count() or 8) * 2))

# Cached handles: lease/submit are per-morsel hot paths, so skip the
# registry lookup (``MetricsRegistry.reset`` zeroes in place).
_TASKS = METRICS.counter("workers.tasks_submitted")
_LEASES = METRICS.counter("workers.leases_granted")
_LEASES_DEGRADED = METRICS.counter("workers.leases_degraded")
_LEASED_GAUGE = METRICS.gauge("workers.leased")


class _Lease:
    """A grant of worker slots, released on context exit.

    ``workers`` is the granted slot count (possibly less than asked,
    possibly 0).  With fewer than 2 granted workers,
    :meth:`ordered_map` runs inline — same results, no threads.
    """

    def __init__(self, pool: "WorkerPool", workers: int):
        self.pool = pool
        self.workers = workers

    def __enter__(self) -> "_Lease":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()

    def release(self) -> None:
        if self.workers:
            self.pool._release(self.workers)
            self.workers = 0

    def ordered_map(self, fn: Callable[[Any], _T],
                    items: Iterable[Any]) -> Iterator[_T]:
        """Apply ``fn`` to every item on the pool, yielding **in order**.

        Submissions run ahead of consumption by a bounded window
        (``2 × workers``) so workers pipeline I/O and compute while the
        coordinator drains results in submission order — the property
        that keeps parallel execution byte-identical to serial.
        """
        if self.workers < 2:
            for item in items:
                yield fn(item)
            return
        window = self.workers * 2
        pending: list[Future] = []
        iterator = iter(items)
        exhausted = False
        while True:
            while not exhausted and len(pending) < window:
                try:
                    item = next(iterator)
                except StopIteration:
                    exhausted = True
                    break
                pending.append(self.pool.submit(fn, item))
            if not pending:
                return
            yield pending.pop(0).result()


class WorkerPool:
    """A bounded thread pool with lease-based fairness accounting."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = max(1, capacity)
        self._mutex = threading.Lock()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._leased = 0
        #: Introspection counters (the serving/cluster statistics pages).
        self.leases_granted = 0
        self.leases_degraded = 0
        self.tasks_submitted = 0

    # -- execution ---------------------------------------------------------

    def submit(self, fn: Callable[..., _T], *args: Any, **kwargs: Any
               ) -> "Future[_T]":
        """Run ``fn`` on the pool (threads start lazily on first use)."""
        with self._mutex:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.capacity,
                    thread_name_prefix="repro-worker")
            self.tasks_submitted += 1
            executor = self._executor
        _TASKS.inc()
        return executor.submit(fn, *args, **kwargs)

    # -- fairness ----------------------------------------------------------

    def lease(self, requested: int) -> _Lease:
        """Grant up to ``requested`` worker slots (never more than free).

        Leases are advisory concurrency budgets, not thread
        reservations: a holder bounds its in-flight submissions by the
        grant, so the sum of grants bounds total thread demand.  When
        everything is spoken for the grant is 0 and the caller runs
        inline — intra-query parallelism degrades before it queues.
        """
        requested = max(0, requested)
        with self._mutex:
            granted = min(requested, self.capacity - self._leased)
            granted = max(0, granted)
            self._leased += granted
            self.leases_granted += 1
            if granted < requested:
                self.leases_degraded += 1
            leased_now = self._leased
        _LEASES.inc()
        if granted < requested:
            _LEASES_DEGRADED.inc()
        _LEASED_GAUGE.set(leased_now)
        return _Lease(self, granted)

    def _release(self, workers: int) -> None:
        with self._mutex:
            self._leased = max(0, self._leased - workers)
            leased_now = self._leased
        _LEASED_GAUGE.set(leased_now)

    @property
    def leased(self) -> int:
        with self._mutex:
            return self._leased

    def statistics(self) -> dict[str, int]:
        with self._mutex:
            return {
                "capacity": self.capacity,
                "leased": self._leased,
                "leases_granted": self.leases_granted,
                "leases_degraded": self.leases_degraded,
                "tasks_submitted": self.tasks_submitted,
            }

    def shutdown(self) -> None:
        """Stop the underlying threads (tests only — the pool is global)."""
        with self._mutex:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False)


_global_pool: Optional[WorkerPool] = None
_global_mutex = threading.Lock()


def get_worker_pool() -> WorkerPool:
    """The process-wide shared pool (created on first use)."""
    global _global_pool
    with _global_mutex:
        if _global_pool is None:
            _global_pool = WorkerPool()
        return _global_pool
