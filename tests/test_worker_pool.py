"""The shared worker pool the cluster's scatter leases from.

Leases bound how many fragments run at once; ``ordered_map`` yields
results in submission order whatever the grant, runs at most two
submissions per granted worker ahead of the consumer, and a grant
below two runs the work inline.
"""

from __future__ import annotations

import threading

from repro.engine import WorkerPool, get_worker_pool


class TestWorkerPool:
    def test_ordered_map_preserves_submission_order(self):
        pool = WorkerPool(capacity=4)
        try:
            with pool.lease(4) as lease:
                assert lease.workers == 4
                out = list(lease.ordered_map(lambda n: n * n, range(50)))
            assert out == [n * n for n in range(50)]
        finally:
            pool.shutdown()

    def test_lease_grants_degrade_then_release(self):
        pool = WorkerPool(capacity=4)
        first = pool.lease(3)
        assert first.workers == 3
        second = pool.lease(3)
        assert second.workers == 1          # only one slot left
        third = pool.lease(2)
        assert third.workers == 0           # fully leased: run inline
        assert list(third.ordered_map(str, [1, 2])) == ["1", "2"]
        first.release()
        second.release()
        third.release()
        assert pool.leased == 0
        assert pool.statistics()["leases_degraded"] == 2

    def test_global_pool_is_shared(self):
        assert get_worker_pool() is get_worker_pool()

    def test_grant_below_two_runs_inline_on_the_caller(self):
        pool = WorkerPool(capacity=4)
        try:
            with pool.lease(1) as lease:
                assert lease.workers == 1
                threads = list(lease.ordered_map(
                    lambda _: threading.get_ident(), range(5)))
            assert threads == [threading.get_ident()] * 5
            assert pool.statistics()["tasks_submitted"] == 0
        finally:
            pool.shutdown()

    def test_submissions_run_at_most_two_per_worker_ahead(self):
        pool = WorkerPool(capacity=4)
        pulled = 0

        def items():
            nonlocal pulled
            for item in range(40):
                pulled += 1
                yield item

        try:
            with pool.lease(2) as lease:
                for consumed, value in enumerate(
                        lease.ordered_map(lambda n: n + 1, items()), start=1):
                    assert value == consumed
                    assert pulled - consumed <= 2 * lease.workers
            assert pulled == 40
            assert pool.statistics()["tasks_submitted"] == 40
        finally:
            pool.shutdown()
