"""Concurrent serving layer tests.

Covers the reader–writer locks (reentrancy, exclusion, upgrade
refusal, contention counters), the database snapshot epoch, the
:class:`SkyServerPool` admission control (per-class quotas, queue
depth, queue timeouts), the shared result cache (hits, DML / DDL /
ANALYZE invalidation, session-state exclusions), torn-read safety for
mixed SELECT/INSERT/VACUUM workloads over both storage layouts, and —
via hypothesis — result-cache key correctness under arbitrary DML
interleavings, and read sets: entries kept across writes that miss
their rows, cone searches cached under their declared reads, and every
served answer equal to a fresh session's.
"""

from __future__ import annotations

import threading
import time

import pytest
from request_templates import pool_templates
from hypothesis import given, settings, strategies as st

from repro.engine import (Database, ForeignKey, LockUpgradeError, PrimaryKey,
                          ReadWriteLock, SqlSession, bigint, floating, integer,
                          read_locks)
from repro.engine.sql import PlanCache
from repro.skyserver import (AdmissionRejected, QueryLimits, QueueTimeout,
                             ServiceClass, SkyServer, SkyServerPool)
from repro.skyserver.pool import CacheEntry, ResultCache


def _make_database(storage: str, rows: int = 400) -> Database:
    """A small table whose rows satisfy the invariant ``b == 2 * a``."""
    database = Database(f"concurrency-{storage}")
    table = database.create_table("obj", [
        bigint("id"), bigint("a"), bigint("b"), floating("mag"),
    ], primary_key=PrimaryKey(["id"]), storage=storage)
    table.insert_many([{"id": index, "a": index, "b": 2 * index,
                        "mag": 14.0 + (index % 100) / 10.0}
                       for index in range(rows)])
    database.analyze()
    return database


# ---------------------------------------------------------------------------
# ReadWriteLock
# ---------------------------------------------------------------------------

class TestReadWriteLock:
    def test_readers_share_writers_exclude(self):
        lock = ReadWriteLock("t")
        order: list[str] = []

        def reader(name):
            with lock.read():
                order.append(f"{name}-in")
                time.sleep(0.05)
                order.append(f"{name}-out")

        threads = [threading.Thread(target=reader, args=(f"r{i}",)) for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # All three readers were inside simultaneously: every -in comes
        # before any -out would be impossible if they serialized.
        in_positions = [i for i, event in enumerate(order) if event.endswith("-in")]
        assert in_positions == [0, 1, 2]

    def test_writer_blocks_until_readers_leave(self):
        lock = ReadWriteLock("t")
        events: list[str] = []
        reader_in = threading.Event()

        def reader():
            with lock.read():
                reader_in.set()
                time.sleep(0.08)
                events.append("reader-done")

        def writer():
            reader_in.wait()
            with lock.write():
                events.append("writer-in")

        threads = [threading.Thread(target=reader), threading.Thread(target=writer)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert events == ["reader-done", "writer-in"]
        assert lock.write_contentions == 1

    def test_reentrant_read_and_write(self):
        lock = ReadWriteLock("t")
        with lock.write():
            with lock.write():
                with lock.read():      # reading inside one's own write is fine
                    pass
        with lock.read():
            with lock.read():
                pass
        assert lock.read_acquisitions == 3
        assert lock.write_acquisitions == 2

    def test_upgrade_raises(self):
        lock = ReadWriteLock("t")
        with lock.read():
            with pytest.raises(LockUpgradeError):
                lock.acquire_write()

    def test_read_locks_helper_orders_and_dedupes(self):
        database = _make_database("row")
        table = database.table("obj")
        before = table.lock.read_acquisitions
        with read_locks([table, table]):
            assert table.lock.read_acquisitions == before + 1
        # released: a writer can get in now
        with table.lock.write():
            pass

    def test_fk_load_query_vacuum_mix_does_not_deadlock(self):
        """Regression: FK-checked bulk inserts acquire the child write
        lock and the parent read locks upfront in global name order.
        Acquiring the parent read *inside* the held write used to form a
        cycle with a reader pair and a waiting vacuum (writer preference
        blocks new readers), deadlocking loader + query + vacuum."""
        database = Database("fkmix")
        parent = database.create_table("aparent", [bigint("pid")],
                                       primary_key=PrimaryKey(["pid"]))
        parent.insert_many([{"pid": i} for i in range(50)])
        child = database.create_table("zchild", [
            bigint("cid"), bigint("pid"),
        ], primary_key=PrimaryKey(["cid"]),
            foreign_keys=[ForeignKey(["pid"], "aparent", ["pid"])])

        def loader():
            for batch in range(30):
                child.insert_many(
                    [{"cid": batch * 10 + i, "pid": (batch + i) % 50}
                     for i in range(10)], database=database)

        def reader():
            for _ in range(200):
                with read_locks([parent, child]):
                    pass

        def vacuumer():
            for _ in range(100):
                parent.delete_row(parent.insert({"pid": 1000}))
                parent.vacuum()

        threads = [threading.Thread(target=fn)
                   for fn in (loader, reader, reader, vacuumer)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads), "deadlocked"
        assert child.row_count == 300

    def test_exclusive_release_bumps_epoch(self):
        database = _make_database("row")
        table = database.table("obj")
        before = database.epoch
        table.insert({"id": 10_000, "a": 1, "b": 2, "mag": 15.0})
        assert database.epoch == before + 1
        table.delete_row(0)
        assert database.epoch == before + 2


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------

def _sleepy_database() -> Database:
    """One-row table plus a registered fSleep() so queries take real time."""
    database = Database("sleepy")
    table = database.create_table("one", [bigint("id")],
                                  primary_key=PrimaryKey(["id"]))
    table.insert({"id": 1})
    database.register_scalar_function(
        "fSleep", lambda seconds: time.sleep(seconds) or 1,
        description="sleep, then 1")
    return database


class TestAdmissionControl:
    def test_unknown_class_rejected(self):
        with SkyServerPool(_make_database("row"), workers=1) as pool:
            with pytest.raises(AdmissionRejected) as excinfo:
                pool.submit("select count(*) as n from obj", "nobody")
            assert excinfo.value.reason == "unknown-class"

    def test_queue_full_rejected(self):
        classes = {"public": ServiceClass(
            "public", QueryLimits.private(), max_concurrent=1,
            max_queue_depth=1, queue_timeout_seconds=None)}
        with SkyServerPool(_sleepy_database(), workers=1,
                           service_classes=classes) as pool:
            running = pool.submit("select dbo.fSleep(0.3) as x from one")
            time.sleep(0.1)          # let the worker pick it up
            queued = pool.submit("select dbo.fSleep(0.01) as y from one")
            with pytest.raises(AdmissionRejected) as excinfo:
                pool.submit("select dbo.fSleep(0.02) as z from one")
            assert excinfo.value.reason == "queue-full"
            assert running.result(5.0).rows and queued.result(5.0).rows
            statistics = pool.statistics()
            assert statistics["rejected"] == 1
            assert statistics["classes"]["public"]["rejected"] == 1

    def test_per_class_concurrency_quota_serializes(self):
        classes = {"public": ServiceClass(
            "public", QueryLimits.private(), max_concurrent=1,
            max_queue_depth=10, queue_timeout_seconds=None)}
        with SkyServerPool(_sleepy_database(), workers=4,
                           service_classes=classes) as pool:
            started = time.perf_counter()
            tickets = [pool.submit(f"select dbo.fSleep(0.1) + {i} as x from one")
                       for i in range(3)]
            for ticket in tickets:
                ticket.result(5.0)
            elapsed = time.perf_counter() - started
        # Quota 1 forces the three 0.1 s queries to run one at a time
        # even though four workers are available.
        assert elapsed >= 0.3

    def test_quota_allows_true_concurrency(self):
        classes = {"public": ServiceClass(
            "public", QueryLimits.private(), max_concurrent=4,
            max_queue_depth=10, queue_timeout_seconds=None)}
        with SkyServerPool(_sleepy_database(), workers=4,
                           service_classes=classes) as pool:
            started = time.perf_counter()
            tickets = [pool.submit(f"select dbo.fSleep(0.15) + {i} as x from one")
                       for i in range(4)]
            for ticket in tickets:
                ticket.result(5.0)
            elapsed = time.perf_counter() - started
        # time.sleep releases the GIL: four workers overlap the waits.
        assert elapsed < 0.45

    def test_queue_timeout_expires_waiting_query(self):
        classes = {"public": ServiceClass(
            "public", QueryLimits.private(), max_concurrent=1,
            max_queue_depth=10, queue_timeout_seconds=0.05)}
        with SkyServerPool(_sleepy_database(), workers=1,
                           service_classes=classes) as pool:
            blocker = pool.submit("select dbo.fSleep(0.3) as x from one")
            time.sleep(0.1)
            waiter = pool.submit("select dbo.fSleep(0.01) as y from one")
            assert blocker.result(5.0).rows
            with pytest.raises(QueueTimeout):
                waiter.result(5.0)
            assert waiter.status == "timeout"
            assert pool.statistics()["queue_timeouts"] == 1

    def test_public_row_limit_enforced_through_pool(self):
        from repro.engine.errors import QueryLimitExceeded

        classes = {"public": ServiceClass(
            "public", QueryLimits(max_rows=10, max_seconds=None),
            max_concurrent=2, max_queue_depth=10, queue_timeout_seconds=None)}
        with SkyServerPool(_make_database("row"), workers=2,
                           service_classes=classes) as pool:
            with pytest.raises(QueryLimitExceeded):
                pool.execute("select id from obj")

    def test_shutdown_fails_queued_tickets(self):
        from repro.skyserver import PoolShutdown

        classes = {"public": ServiceClass(
            "public", QueryLimits.private(), max_concurrent=1,
            max_queue_depth=10, queue_timeout_seconds=None)}
        pool = SkyServerPool(_sleepy_database(), workers=1,
                             service_classes=classes)
        blocker = pool.submit("select dbo.fSleep(0.2) as x from one")
        time.sleep(0.05)
        queued = pool.submit("select dbo.fSleep(0.01) as y from one")
        pool.shutdown(wait=True)
        assert blocker.result(5.0).rows     # the running query finished
        with pytest.raises(PoolShutdown):
            queued.result(5.0)
        with pytest.raises(PoolShutdown):
            pool.submit("select 1 as x from one")


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------

class TestResultCache:
    SQL = "select count(*) as n, max(b) as mx from obj where a >= 0"

    def test_repeat_query_served_from_cache(self):
        with SkyServerPool(_make_database("row"), workers=2) as pool:
            first = pool.submit(self.SQL)
            first.result(5.0)
            second = pool.submit(self.SQL)
            result = second.result(5.0)
            assert second.cache_hit and not first.cache_hit
            assert result.rows == first.result().rows
            assert pool.result_cache.hits == 1

    def test_cached_rows_are_caller_owned_copies(self):
        with SkyServerPool(_make_database("row"), workers=2) as pool:
            first = pool.execute(self.SQL)
            first.rows[0]["n"] = -999
            second = pool.execute(self.SQL)
            assert second.rows[0]["n"] != -999

    def test_dml_invalidates_cached_result(self):
        database = _make_database("row")
        with SkyServerPool(database, workers=2) as pool:
            before = pool.execute(self.SQL)
            database.table("obj").insert(
                {"id": 10_000, "a": 10_000, "b": 20_000, "mag": 15.0})
            after = pool.execute(self.SQL)
            assert after.rows[0]["n"] == before.rows[0]["n"] + 1
            assert pool.result_cache.invalidations == 1

    def test_analyze_invalidates_cached_result(self):
        database = _make_database("row")
        with SkyServerPool(database, workers=2) as pool:
            pool.execute(self.SQL)
            pool.execute(self.SQL)
            assert pool.result_cache.hits == 1
            database.analyze_table("obj")   # bumps schema_version
            pool.execute(self.SQL)
            assert pool.result_cache.invalidations == 1
            assert pool.result_cache.hits == 1

    def test_ddl_invalidates_cached_result(self):
        database = _make_database("row")
        with SkyServerPool(database, workers=2) as pool:
            pool.execute(self.SQL)
            database.table("obj").create_index("ix_mag", ["mag"])
            pool.execute(self.SQL)
            assert pool.result_cache.invalidations == 1

    def test_variable_batches_not_cached(self):
        with SkyServerPool(_make_database("row"), workers=2) as pool:
            sql = ("declare @lo bigint "
                   "set @lo = 10 "
                   "select count(*) as n from obj where a >= @lo")
            pool.execute(sql)
            pool.execute(sql)
            assert pool.result_cache.hits == 0
            assert len(pool.result_cache) == 0

    def test_select_into_not_cached(self):
        with SkyServerPool(_make_database("row"), workers=2,
                           service_classes={
                               "admin": ServiceClass("admin", QueryLimits.private(),
                                                     max_concurrent=1,
                                                     max_queue_depth=4,
                                                     queue_timeout_seconds=None)}) as pool:
            sql = "select id, a into ##tmp1 from obj where a < 10"
            pool.execute(sql, "admin")
            assert len(pool.result_cache) == 0

    def test_cache_entries_are_per_service_class(self):
        """Regression: a power user's oversized result must never be
        served to a public user whose row limit would have rejected it."""
        from repro.engine.errors import QueryLimitExceeded

        classes = {
            "public": ServiceClass("public", QueryLimits(max_rows=10, max_seconds=None),
                                   max_concurrent=2, max_queue_depth=8,
                                   queue_timeout_seconds=None),
            "power": ServiceClass("power", QueryLimits.private(),
                                  max_concurrent=2, max_queue_depth=8,
                                  queue_timeout_seconds=None),
        }
        with SkyServerPool(_make_database("row"), workers=2,
                           service_classes=classes) as pool:
            sql = "select id from obj"
            assert len(pool.execute(sql, "power").rows) == 400
            with pytest.raises(QueryLimitExceeded):
                pool.execute(sql, "public")

    def test_table_valued_function_results_not_cached(self):
        """Regression: TVF reads are opaque to the dependency tracker, so
        their results must re-execute (DML would otherwise be invisible)."""
        import time as _time

        database = Database("tvf")
        table = database.create_table("src", [bigint("id")],
                                      primary_key=PrimaryKey(["id"]))
        table.insert({"id": 1})
        database.register_table_function(
            "fNow", [bigint("tick")],
            lambda: [{"tick": _time.perf_counter_ns()}])
        with SkyServerPool(database, workers=2,
                           service_classes=ADMIN_ONLY) as pool:
            sql = "select tick from fNow()"
            first = pool.execute(sql, "admin")
            second = pool.execute(sql, "admin")
            assert first.rows != second.rows      # re-executed, not served stale
            assert len(pool.result_cache) == 0

    def test_vacuum_does_not_invalidate_but_delete_does(self):
        database = _make_database("row")
        table = database.table("obj")
        with SkyServerPool(database, workers=2) as pool:
            pool.execute(self.SQL)
            table.delete_row(0)
            after_delete = pool.execute(self.SQL)
            assert pool.result_cache.invalidations == 1
            # VACUUM compacts without changing visible contents: the
            # modification counter is untouched, the entry stays valid.
            assert table.vacuum() > 0
            cached = pool.execute(self.SQL)
            assert cached.rows == after_delete.rows
            assert pool.result_cache.hits == 1

    def test_cache_key_normalizes_whitespace(self):
        sql = "select count(*) as n from obj"
        assert (SkyServerPool._cache_key(sql, "public")
                == SkyServerPool._cache_key("select  count(*)  as n \n from obj",
                                            "public"))

    def test_start_pool_parallelism_is_accepted_and_ignored(self):
        """``start_pool(parallelism=)`` survives only for an older
        caller: the pool it starts is the plain one, and its answers
        (cached or not) are a serial session's."""
        database = _make_database("column")
        server = SkyServer(database, limits=QueryLimits.private())
        pool = server.start_pool(workers=2, parallelism=4)
        try:
            assert server.pool is pool
            assert not hasattr(pool, "parallelism")
            first = pool.submit(self.SQL)
            first.result(5.0)
            second = pool.submit(self.SQL)
            assert repr(second.result(5.0).rows) == repr(
                SqlSession(database).query(self.SQL).rows)
            assert second.cache_hit and not first.cache_hit
            statistics = pool.statistics()
            assert statistics["submitted"] == statistics["completed"] == 2
        finally:
            pool.shutdown()


# ---------------------------------------------------------------------------
# Mixed concurrent workloads (both storage layouts)
# ---------------------------------------------------------------------------

ADMIN_ONLY = {"admin": ServiceClass("admin", QueryLimits.private(),
                                    max_concurrent=8, max_queue_depth=64,
                                    queue_timeout_seconds=None)}


@pytest.mark.parametrize("storage", ["row", "column"])
class TestConcurrentMixedWorkload:
    READERS = 4
    QUERIES_PER_READER = 12
    WRITER_BATCHES = 10
    BATCH_ROWS = 20

    def test_no_torn_reads_and_serial_equivalence(self, storage):
        database = _make_database(storage)
        failures: list[str] = []
        stop_vacuum = threading.Event()

        def reader(pool, index):
            for i in range(self.QUERIES_PER_READER):
                sql = (f"select a, b from obj where a >= {(index + i) % 5}"
                       " order by a")
                rows = pool.execute(sql, "admin").rows
                for row in rows:
                    if row["b"] != 2 * row["a"]:
                        failures.append(f"torn row {row!r}")
                        return

        def writer(table, index):
            base = 100_000 * (index + 1)
            for batch in range(self.WRITER_BATCHES):
                start = base + batch * self.BATCH_ROWS
                table.insert_many([
                    {"id": value, "a": value, "b": 2 * value, "mag": 15.0}
                    for value in range(start, start + self.BATCH_ROWS)])
                # Delete the first row of every even batch, keeping the
                # final state deterministic regardless of interleaving.
                if batch % 2 == 0:
                    deleted = table.delete_where(lambda row: row["id"] == start)
                    if deleted != 1:
                        failures.append(f"writer {index} delete miss at {start}")

        def vacuumer(table):
            while not stop_vacuum.is_set():
                table.vacuum()
                time.sleep(0.002)

        table = database.table("obj")
        with SkyServerPool(database, workers=self.READERS,
                           service_classes=ADMIN_ONLY) as pool:
            threads = (
                [threading.Thread(target=reader, args=(pool, i))
                 for i in range(self.READERS)]
                + [threading.Thread(target=writer, args=(table, i))
                   for i in range(2)])
            vacuum_thread = threading.Thread(target=vacuumer, args=(table,))
            vacuum_thread.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stop_vacuum.set()
            vacuum_thread.join()
            assert failures == []

            # Serial equivalence: apply the same deterministic write set
            # to a fresh database and compare full contents.
            expected_db = _make_database(storage)
            expected_table = expected_db.table("obj")
            for index in range(2):
                writer(expected_table, index)
            final_sql = "select id, a, b from obj order by id"
            concurrent_rows = pool.execute(final_sql, "admin").rows
            serial_rows = SqlSession(expected_db).query(final_sql).rows
            assert concurrent_rows == serial_rows
            statistics = pool.statistics()
            assert statistics["failed"] == 0
            assert statistics["completed"] == statistics["submitted"]

    def test_lock_counters_surface_in_serving_statistics(self, storage):
        database = _make_database(storage)
        server = SkyServer(database, limits=QueryLimits.private())
        pool = server.start_pool(workers=2)
        try:
            pool.execute("select count(*) as n from obj")
            serving = server.site_statistics()["serving"]
            assert serving["pool"]["completed"] == 1
            assert serving["locks"]["read_acquisitions"] >= 1
            assert serving["locks"]["epoch"] == database.epoch
        finally:
            pool.shutdown()


# ---------------------------------------------------------------------------
# Hypothesis: result-cache key correctness under DML
# ---------------------------------------------------------------------------

QUERIES = (
    "select count(*) as n from t1",
    "select count(*) as n, min(v) as mn from t1 where v >= 5",
    "select count(*) as n from t2",
    "select sum(v) as s from t2 where v < 100",
)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("query"), st.integers(0, len(QUERIES) - 1)),
        st.tuples(st.just("insert"), st.integers(0, 1)),
        st.tuples(st.just("delete"), st.integers(0, 1)),
        st.tuples(st.just("analyze"), st.integers(0, 1)),
    ),
    min_size=1, max_size=30)


class TestResultCacheKeyProperty:
    @settings(max_examples=40, deadline=None)
    @given(ops=OPS)
    def test_cached_result_always_matches_fresh_execution(self, ops):
        """The pool's caching discipline, replayed deterministically:
        whatever DML interleaves, a valid cache entry must equal a fresh
        execution of the same SQL."""
        database = Database("prop")
        tables = []
        for name in ("t1", "t2"):
            table = database.create_table(name, [bigint("id"), bigint("v")],
                                          primary_key=PrimaryKey(["id"]))
            table.insert_many([{"id": i, "v": i} for i in range(10)])
            tables.append(table)
        next_id = [1000, 1000]
        session = SqlSession(database)
        cache = ResultCache(capacity=8)

        for kind, which in ops:
            if kind == "query":
                sql = QUERIES[which]
                table = tables[0 if "t1" in sql else 1]
                key = PlanCache.normalize(sql)
                cached = cache.lookup(key, database)
                fresh = session.query(sql)
                if cached is not None:
                    assert cached.rows == fresh.rows, sql
                else:
                    cache.put(key, CacheEntry(
                        database.schema_version,
                        {table.name.lower(): database.table_versions(table.name)},
                        fresh))
            elif kind == "insert":
                tables[which].insert({"id": next_id[which], "v": next_id[which]})
                next_id[which] += 1
            elif kind == "delete":
                tables[which].delete_where(lambda row: row["id"] % 7 == 3)
            elif kind == "analyze":
                database.analyze_table(tables[which].name)


# ---------------------------------------------------------------------------
# Read sets: entries that outlive writes which miss their rows
# ---------------------------------------------------------------------------

def _make_sky(storage: str, rows: int = 30, seed: int = 0) -> Database:
    """A PhotoObj small enough to rebuild per example, indexed on htmID
    and carrying the spatial functions, plus an unrelated table."""
    from repro.skyserver.spatial import register_spatial_functions

    database = Database(f"sky-{storage}")
    photo = database.create_table("PhotoObj", [
        bigint("objID"), floating("ra"), floating("dec"), integer("type"),
        integer("mode"), floating("modelMag_r"), bigint("htmID"),
    ], primary_key=PrimaryKey(["objID"]), storage=storage)
    photo.insert_many([_sky_row(index, 185.0 + 0.004 * ((index * 7 + seed) % 11 - 5),
                                0.004 * ((index * 3 + seed) % 9 - 4))
                       for index in range(rows)])
    photo.create_index("ix_htm", ["htmID"])
    database.create_table("Other", [bigint("id")]).insert({"id": 1})
    register_spatial_functions(database)
    return database


def _sky_row(objid: int, ra: float, dec: float) -> dict:
    from repro.htm import lookup_id

    return {"objID": objid, "ra": ra, "dec": dec, "type": 3 + objid % 4,
            "mode": 1, "modelMag_r": 18.0 + objid % 5, "htmID": lookup_id(ra, dec)}


CONE = "select N.objID, N.distance from fGetNearbyObjEq(185.0, 0.0, 1.0) as N"


class TestReadSets:
    def test_cone_kept_across_an_insert_outside_it_dropped_inside(self):
        database = _make_sky("column")
        photo, other = database.table("PhotoObj"), database.table("Other")
        with SkyServerPool(database, workers=1, service_classes=ADMIN_ONLY) as pool:
            other_reads = other.lock.read_acquisitions
            photo_reads = photo.lock.read_acquisitions
            first = pool.submit(CONE, "admin")
            first.result(5.0)
            assert not first.cache_hit and first.result().rows
            # Declared reads: the cone read-locks PhotoObj alone.
            assert photo.lock.read_acquisitions == photo_reads + 1
            assert other.lock.read_acquisitions == other_reads

            photo.insert(_sky_row(10_000, 185.5, 0.0))            # 30' away
            kept = pool.submit(CONE, "admin")
            assert kept.cache_hit
            assert repr(kept.result().rows) == repr(SqlSession(database).query(CONE).rows)
            assert pool.result_cache.revalidated == 1

            photo.insert(_sky_row(10_001, 185.0, 0.005))          # 0.3' away
            dropped = pool.submit(CONE, "admin")
            rows = dropped.result(5.0).rows
            assert not dropped.cache_hit
            assert 10_001 in {row["objID"] for row in rows}
            assert repr(rows) == repr(SqlSession(database).query(CONE).rows)
            statistics = pool.result_cache.statistics()
            assert statistics["revalidated"] == 1
            assert statistics["invalidations"] == 1
            assert statistics["stale_by_log"] == 0

    def test_tied_top_boundary_is_not_kept(self):
        """Rows that tie at a TOP's cut may come out in another order
        from another plan, so such an entry is not kept across a write;
        a boundary the sort saw strictly is.  The kept rows' keys (0, 1,
        2) are strict here: only the row the TOP cut ties."""
        database = _make_database("row", rows=40)
        table = database.table("obj")
        tied = ("select top 3 id, a from obj where a < 10 "
                "order by case when a > 2 then 2 else a end")
        strict = "select top 3 id, a from obj where a < 10 order by a"
        with SkyServerPool(database, workers=1, service_classes=ADMIN_ONLY) as pool:
            pool.execute(tied, "admin")
            pool.execute(strict, "admin")
            table.insert({"id": 5_000, "a": 5_000, "b": 10_000, "mag": 20.0})
            tied_again = pool.submit(tied, "admin")
            strict_again = pool.submit(strict, "admin")
            for ticket, sql in ((tied_again, tied), (strict_again, strict)):
                assert repr(ticket.result(5.0).rows) == repr(
                    SqlSession(database).query(sql).rows)
            assert not tied_again.cache_hit
            assert strict_again.cache_hit

    def test_order_dependent_outputs_are_not_kept(self):
        """MIN, MAX and GROUP BY over a float column keep whichever of
        two equal values (0.0 and -0.0) arrives first, and a NaN sorts
        against nothing, so another plan may answer otherwise: such
        entries keep exact validation.  Their integer counterparts are
        kept across a write that misses them."""
        database = _make_database("row", rows=40)
        table = database.table("obj")
        table.insert_many([{"id": 100, "a": 1, "b": 2, "mag": 0.0},
                           {"id": 101, "a": 2, "b": 4, "mag": -0.0},
                           {"id": 102, "a": 3, "b": 6, "mag": float("nan")}])
        dropped = ("select min(mag) as mn, max(mag) as mx from obj where a < 5",
                   "select mag, count(*) as n from obj where a between 1 and 2 "
                   "group by mag order by mag",
                   "select top 2 id, mag from obj where a between 3 and 4 order by mag")
        kept = ("select count(*) as n, min(a) as mn, max(b) as mx from obj where a < 5",
                "select a, count(*) as n from obj where a < 5 group by a order by a")
        with SkyServerPool(database, workers=1, service_classes=ADMIN_ONLY) as pool:
            for sql in dropped + kept:
                pool.execute(sql, "admin")
            table.insert({"id": 5_000, "a": 5_000, "b": 10_000, "mag": 20.0})
            for sql in dropped + kept:
                ticket = pool.submit(sql, "admin")
                assert repr(ticket.result(5.0).rows) == repr(
                    SqlSession(database).query(sql).rows)
                assert ticket.cache_hit == (sql in kept), sql

    def test_barrier_drops_entries_and_logs_stop_with_the_pool(self):
        database = _make_database("column", rows=40)
        table = database.table("obj")
        sql = "select count(*) as n from obj where a < 10"
        with SkyServerPool(database, workers=1, service_classes=ADMIN_ONLY) as pool:
            assert table.changes is not None
            pool.execute(sql, "admin")
            table.truncate()
            table.insert({"id": 1, "a": 50, "b": 100, "mag": 15.0})
            assert pool.execute(sql, "admin").rows == [{"n": 0}]
            assert pool.result_cache.stale_by_log == 1
            pool.execute(sql, "admin")
            # An overflowing bulk is a barrier too.
            table.insert_many([{"id": 100 + i, "a": 50, "b": 100, "mag": 15.0}
                               for i in range(table.changes.CAPACITY + 1)])
            assert pool.execute(sql, "admin").rows == [{"n": 0}]
            assert pool.result_cache.stale_by_log == 2
        assert table.changes is None

    def test_undeclared_function_still_uncached_and_locks_everything(self):
        database = _make_sky("row")
        database.register_table_function(
            "fPhotoCopy", [bigint("objID")],
            lambda: [{"objID": row["objid"]} for _rid, row in
                     database.table("PhotoObj").storage.iter_rows(["objid"])])
        other = database.table("Other")
        with SkyServerPool(database, workers=1, service_classes=ADMIN_ONLY) as pool:
            reads = other.lock.read_acquisitions
            pool.execute("select count(*) as n from fPhotoCopy()", "admin")
            pool.execute("select count(*) as n from fPhotoCopy()", "admin")
            assert pool.result_cache.hits == 0 and len(pool.result_cache) == 0
            assert other.lock.read_acquisitions == reads + 2


READ_SET_QUERIES = (
    "select * from obj where id = 7",
    "select count(*) as n, min(v) as mn, max(g) as mx from obj where g >= 3",
    "select count(*) as n from obj where h > 0 "
    "and (case when h = 50 then 'x' else h end) > 0",
    "select count(*) as n, max(v) as mx from hot where v < 10",
    "select count(*) as n, min(g) as mn, max(h) as mx from hot",
    "select top 3 id, g from obj where w < 30 order by g",
    "select top 3 id, g from obj where w < 30 order by g desc, id",
    "select top 4 id, v from obj where w < 30 order by v",
    "select v, count(*) as n from obj where h = 100 group by v order by v",
    "select sum(v) as s from obj where g < 5",
    "select count(*) as n from obj",
    CONE,
)

_G = st.one_of(st.none(), st.integers(0, 6))
#: Float values, the signed zeros and NaN included: they are equal (or
#: unordered) without being the same value, so MIN, MAX, GROUP BY and
#: ORDER BY over them follow the order rows arrive in.
_V = st.one_of(st.none(), st.sampled_from(
    [0.5, 1.25, 3.0, 7.75, 12.5, 0.1, 0.0, -0.0, float("nan")]))
_OBJ_ROW = st.tuples(_G, _V, st.sampled_from([-5, 10, 20, 50, 100]),
                     st.sampled_from([5, 25, 60]))

#: Writes (and ANALYZE, a release flip, a PhotoObj insert at a distance
#: in arcminutes from the cone's centre), each followed by one query.
READ_SET_OPS = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(st.just("insert"), _OBJ_ROW),
            st.tuples(st.just("insert_many"), st.lists(_OBJ_ROW, min_size=1, max_size=4)),
            st.tuples(st.just("delete_where"), _G),
            st.tuples(st.just("photo"), st.sampled_from([0.2, 0.9, 1.1, 6.0])),
            st.tuples(st.sampled_from(["truncate", "analyze", "flip", "none"]),
                      st.none()),
        ),
        st.integers(0, len(READ_SET_QUERIES) - 1)),
    min_size=4, max_size=30)


def _obj_rows(start: int, values) -> list[dict]:
    return [{"id": start + offset, "g": g, "v": v, "h": h, "w": w}
            for offset, (g, v, h, w) in enumerate(values)]


def _read_set_database(storage: str, seed: int = 0) -> Database:
    from repro.engine import View, parse_expression

    database = _make_sky(storage, seed=seed)
    table = database.create_table("obj", [
        bigint("id"), integer("g", nullable=True), floating("v", nullable=True),
        integer("h"), integer("w"),
    ], primary_key=PrimaryKey(["id"]), storage=storage)
    table.insert_many(_obj_rows(0, [
        ((index + seed) % 7 if index % 5 else None, [0.5, 1.25, 3.0][index % 3],
         [10, 20, 100][index % 3], (index * 13 + seed) % 40)
        for index in range(24)]))
    database.create_view(View("hot", "obj", parse_expression("g >= 3")))
    database.analyze()
    return database


@pytest.mark.parametrize("storage", ["row", "column"])
class TestReadSetProperty:
    @settings(max_examples=30, deadline=None)
    @given(ops=READ_SET_OPS)
    def test_served_results_equal_a_fresh_session(self, storage, ops):
        """Interleave one-relation statements with every kind of write,
        ANALYZE and a release flip: whatever the pool serves — executed,
        an exact hit, or an entry kept across writes — is ``repr``-equal
        to a fresh session's answer (or both raise)."""
        from repro.engine import ExpressionError, lock_tables

        database = _read_set_database(storage)
        table, photo = database.table("obj"), database.table("PhotoObj")
        next_id = [1_000]

        def check(pool, sql):
            try:
                fresh = repr(SqlSession(database).query(sql).rows)
            except ExpressionError:
                with pytest.raises(ExpressionError):
                    pool.execute(sql, "admin", timeout=5.0)
                return
            assert repr(pool.execute(sql, "admin", timeout=5.0).rows) == fresh, sql

        with SkyServerPool(database, workers=1, service_classes=ADMIN_ONLY) as pool:
            for sql in READ_SET_QUERIES:
                check(pool, sql)
            for (kind, argument), query in ops:
                if kind in ("insert", "insert_many"):
                    rows = _obj_rows(next_id[0], [argument] if kind == "insert" else argument)
                    next_id[0] += len(rows)
                    if kind == "insert":
                        table.insert(rows[0])
                    else:
                        table.insert_many(rows)
                elif kind == "delete_where":
                    table.delete_where(lambda row, g=argument: row["g"] == g)
                elif kind == "truncate":
                    table.truncate()
                elif kind == "analyze":
                    database.analyze_table("obj")
                elif kind == "flip":
                    fresh_release = _read_set_database(storage, seed=len(ops))
                    tables = [database.table(name) for name in database.table_names()]
                    with lock_tables([(each, "write") for each in tables]):
                        database.adopt_release(fresh_release)
                elif kind == "photo":
                    next_id[0] += 1
                    photo.insert(_sky_row(next_id[0], 185.0 + argument / 60.0, 0.0))
                check(pool, READ_SET_QUERIES[query])
            for sql in READ_SET_QUERIES:
                check(pool, sql)


# ---------------------------------------------------------------------------
# One parse per pooled statement
# ---------------------------------------------------------------------------

class TestSharedParse:
    def test_parse_batch_runs_once_per_cold_statement(self, monkeypatch):
        import repro.engine.sql.session as session_module
        import repro.skyserver.pool as pool_module

        # The traced benchmark wraps both names (harness.WRAP_POINTS).
        assert pool_module.parse_batch is session_module.parse_batch
        parsed: list[str] = []
        real = pool_module.parse_batch

        def counting(sql):
            parsed.append(sql)
            return real(sql)

        monkeypatch.setattr(pool_module, "parse_batch", counting)
        monkeypatch.setattr(session_module, "parse_batch", counting)
        database = _make_database("row")
        statements = [f"select count(*) as n, max(b) as mx from obj where a < {bound}"
                      for bound in range(0, 400, 20)]
        with SkyServerPool(database, workers=2) as pool:
            for round_ in range(3):
                for sql in statements:
                    pool.execute(sql)
                # Every entry is stale: each statement runs again, on
                # either worker, planned from the pool's parse.
                database.table("obj").insert(
                    {"id": 1000 + round_, "a": -1, "b": -2, "mag": 15.0})
        assert sorted(parsed) == sorted(statements)

    @pytest.mark.parametrize("columnar", [False, True], ids=["row", "column"])
    def test_workers_plan_one_parse_at_once(self, survey_output, columnar):
        from repro.loader import load_release_database

        database, _report = load_release_database(survey_output, columnar=columnar)
        server = SkyServer(database, limits=QueryLimits.private())
        pool = server.start_pool(workers=2)
        try:
            target = server._first_row("PhotoObj")
            for magnitude in (17.5, 19.24, 21.0):
                templates = pool_templates(target["ra"], target["dec"],
                                           target["objid"], magnitude)
                for sql in templates.values():
                    expected = repr(SqlSession(database).query(sql).rows)
                    info = pool._analyze_batch(sql, pool._cache_key(sql, "public"))
                    sessions = [SqlSession(database) for _ in range(2)]
                    answers: list[str] = []
                    barrier = threading.Barrier(2)

                    def run(session):
                        barrier.wait()
                        answers.append(repr(session.query(
                            sql, statements=info.statements).rows))

                    threads = [threading.Thread(target=run, args=(session,))
                               for session in sessions]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=30.0)
                    assert not any(thread.is_alive() for thread in threads)
                    assert answers == [expected, expected], sql
                    for session in sessions:
                        (entry,) = session.plan_cache._entries.values()
                        assert entry.statements is info.statements
                    assert repr(pool.execute(sql, "power").rows) == expected
        finally:
            pool.shutdown()
