"""The shared worker pool behind the cluster's scatter.

The engine executes every plan serially: under CPython's GIL extra
threads add no CPU to a scan.  One process-global :class:`WorkerPool`
runs the cluster executor's shard fragments, so any number of
clusters under a concurrent serving workload can never oversubscribe
the machine: total thread demand is capped by the pool's capacity.

Fairness is lease-based.  A caller asks for N workers
(:meth:`WorkerPool.lease`) and is *granted* anywhere between 0 and N
slots depending on how many are already leased out; a grant of 0 (or 1)
runs the work inline.  A grant only bounds the in-flight window of
:meth:`_Lease.ordered_map`, which yields results strictly in
submission order, so results never depend on the grant.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Iterable, Iterator, Optional, TypeVar

from ..telemetry.metrics import METRICS

_T = TypeVar("_T")

#: Upper bound on threads the global pool will ever run; the lease
#: accounting enforces it.
DEFAULT_CAPACITY = max(8, min(32, (os.cpu_count() or 8) * 2))

# Cached handles: lease/submit are per-fragment hot paths, so skip the
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
        (``2 × workers``) while the caller drains results in submission
        order, so the output never depends on the grant.
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
        inline — a scatter degrades before it queues.
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
