"""Property tests: morsel-parallel execution is byte-identical to serial.

The whole parallel layer rests on one claim — the ordered gather makes
a parallel plan's output indistinguishable from the serial plan's, for
any worker count and any lease grant.  These tests attack the claim
from every side: random single-table queries (filters, projections,
order-sensitive float SUM/AVG, DISTINCT, TOP-N) and hash joins run
under workers ∈ {1, 2, 4} over both storage layouts and must return
*identical* row lists (order included); deterministic unit
tests then aim at the seams — morsel boundaries around deleted rows,
live-mask snapshots under concurrent DML, vacuum — and at the serving
pool's parallelism-blind cache keys and admission quotas.
"""

from __future__ import annotations

import threading

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.engine import (Database, Planner, PrimaryKey, SqlSession,
                          WorkerPool, bigint, floating, get_worker_pool,
                          integer)
from repro.engine.batch import BATCH_ROWS, morsel_ranges
from repro.engine.sql import parse_select
from repro.skyserver.pool import SkyServerPool

settings.register_profile("repro-parallel", deadline=None, max_examples=25)
settings.load_profile("repro-parallel")

WORKER_COUNTS = (1, 2, 4)


def _exact(rows) -> str:
    """A bit-faithful rendering (repr distinguishes 0.0 from -0.0)."""
    return repr(rows)


def _run(database: Database, sql: str, **planner_kwargs):
    planner = Planner(database, parallel_row_threshold=0, **planner_kwargs)
    plan = planner.plan(parse_select(sql))
    return plan.execute()


# ---------------------------------------------------------------------------
# Hypothesis: random single-table queries
# ---------------------------------------------------------------------------

SINGLE_TABLE_QUERIES = [
    "select objid, mag, run from obj where mag < 21 and run % 3 = 0",
    "select top 7 objid, mag from obj where mag > 15",
    "select distinct run from obj where mag < 22",
    "select count(*) as n, sum(mag) as s, avg(mag) as a from obj",
    "select run, count(*) as n, sum(mag) as s, avg(mag) as a "
    "from obj group by run",
    "select run, min(objid) as lo, max(mag) as hi from obj "
    "where mag < 23 group by run",
    "select count(distinct run) as d from obj where mag >= 16",
    "select sum(run) as s, avg(run) as a, count(*) as n from obj "
    "where mag < 22",
]


def _build_obj(storage: str, rows, analyze: bool) -> Database:
    database = Database(f"par-{storage}")
    table = database.create_table("obj", [
        bigint("objid"), floating("mag"), integer("run"),
    ], primary_key=PrimaryKey(["objid"]), storage=storage)
    table.insert_many({"objid": index, "mag": mag, "run": run}
                      for index, (mag, run) in enumerate(rows))
    if analyze:
        database.analyze()
    return database


@given(rows=st.lists(
        st.tuples(st.floats(min_value=14.0, max_value=24.0, allow_nan=False),
                  st.integers(min_value=0, max_value=9)),
        min_size=0, max_size=120),
       query_index=st.integers(min_value=0, max_value=63),
       storage=st.sampled_from(["row", "column"]),
       analyze=st.booleans())
def test_parallel_single_table_byte_identical(rows, query_index, storage,
                                              analyze):
    database = _build_obj(storage, rows, analyze)
    sql = SINGLE_TABLE_QUERIES[query_index % len(SINGLE_TABLE_QUERIES)]
    baseline = _run(database, sql, parallelism=1)
    for workers in WORKER_COUNTS[1:]:
        result = _run(database, sql, parallelism=workers)
        assert _exact(result.rows) == _exact(baseline.rows), (sql, workers)
        assert result.columns == baseline.columns


# ---------------------------------------------------------------------------
# Hypothesis: hash joins
# ---------------------------------------------------------------------------

JOIN_SQL = ("select o.objid, o.mag, n.z from obj o, nbr n "
            "where o.objid = n.objid and o.mag < 23")
JOIN_AGG_SQL = ("select n.grp, count(*) as c, sum(o.run) as s "
                "from obj o, nbr n where o.objid = n.objid group by n.grp")


def _build_join_pair(storage: str, obj_rows, nbr_ids, analyze: bool) -> Database:
    database = Database(f"parjoin-{storage}")
    obj = database.create_table("obj", [
        bigint("objid"), floating("mag"), integer("run"),
    ], primary_key=PrimaryKey(["objid"]), storage=storage)
    nbr = database.create_table("nbr", [
        bigint("objid"), floating("z"), integer("grp"),
    ], primary_key=PrimaryKey(["objid"]), storage=storage)
    obj.insert_many({"objid": index, "mag": mag, "run": run}
                    for index, (mag, run) in enumerate(obj_rows))
    # nbr keys ascend (a subset of obj ids), NULL-free.
    nbr.insert_many({"objid": objid, "z": objid * 0.125, "grp": objid % 5}
                    for objid in sorted(nbr_ids))
    if analyze:
        database.analyze()
    return database


@given(obj_rows=st.lists(
        st.tuples(st.floats(min_value=14.0, max_value=24.0, allow_nan=False),
                  st.integers(min_value=0, max_value=9)),
        min_size=1, max_size=100),
       nbr_ids=st.sets(st.integers(min_value=0, max_value=140),
                       min_size=1, max_size=60),
       storage=st.sampled_from(["row", "column"]),
       analyze=st.booleans(),
       sql=st.sampled_from([JOIN_SQL, JOIN_AGG_SQL]))
def test_parallel_joins_byte_identical(obj_rows, nbr_ids, storage, analyze,
                                       sql):
    database = _build_join_pair(storage, obj_rows, nbr_ids, analyze)
    baseline = _run(database, sql, parallelism=1, enable_index_join=False)
    for workers in WORKER_COUNTS[1:]:
        parallel = _run(database, sql, parallelism=workers,
                        enable_index_join=False)
        assert _exact(parallel.rows) == _exact(baseline.rows), (sql, workers)


# ---------------------------------------------------------------------------
# Morsel boundaries, live-mask snapshots, DML and vacuum
# ---------------------------------------------------------------------------

def _big_column_table(rows: int = 10_000) -> Database:
    database = Database("morsel-unit")
    table = database.create_table("obj", [
        bigint("objid"), floating("mag"), integer("run"),
    ], primary_key=PrimaryKey(["objid"]), storage="column")
    table.insert_many({"objid": index, "mag": 14.0 + (index % 997) * 0.01,
                       "run": index % 11} for index in range(rows))
    return database


def test_morsel_ranges_tile_exactly():
    assert morsel_ranges(0) == []
    assert morsel_ranges(1) == [(0, 1)]
    assert morsel_ranges(BATCH_ROWS) == [(0, BATCH_ROWS)]
    ranges = morsel_ranges(BATCH_ROWS * 2 + 5)
    assert ranges == [(0, BATCH_ROWS), (BATCH_ROWS, 2 * BATCH_ROWS),
                      (2 * BATCH_ROWS, 2 * BATCH_ROWS + 5)]


def test_parallel_spans_multiple_morsels_and_matches_serial():
    database = _big_column_table()
    sql = "select run, count(*) as n, sum(mag) as s from obj group by run"
    baseline = _run(database, sql, parallelism=1)
    parallel = _run(database, sql, parallelism=4)
    assert _exact(parallel.rows) == _exact(baseline.rows)
    assert parallel.statistics.morsels_dispatched == 3   # 10k rows / 4096
    assert parallel.statistics.parallel_workers >= 1
    assert baseline.statistics.morsels_dispatched == 0


def test_deletes_at_morsel_boundaries_stay_identical():
    database = _big_column_table()
    table = database.table("obj")
    # Tombstones hugging every morsel boundary, plus a fully-dead morsel.
    victims = [BATCH_ROWS - 1, BATCH_ROWS, BATCH_ROWS + 1,
               2 * BATCH_ROWS - 1, 2 * BATCH_ROWS]
    victims += list(range(2 * BATCH_ROWS, min(3 * BATCH_ROWS, 10_000)))
    dead = set(victims)
    table.delete_where(lambda row: row["objid"] in dead)
    sql = "select count(*) as n, sum(mag) as s, avg(mag) as a from obj"
    baseline = _run(database, sql, parallelism=1)
    parallel = _run(database, sql, parallelism=4)
    assert _exact(parallel.rows) == _exact(baseline.rows)
    # Vacuum compacts the buffers (under the exclusive lock); results of
    # a fresh parallel scan are unchanged.
    table.vacuum()
    after = _run(database, sql, parallelism=4)
    assert _exact(after.rows) == _exact(baseline.rows)


def test_live_mask_snapshot_freezes_the_row_set():
    database = _big_column_table(100)
    storage = database.table("obj").storage
    mask = storage.live_mask_snapshot()
    database.table("obj").insert({"objid": 100, "mag": 15.0, "run": 0})
    assert len(storage.live_mask_snapshot()) == 101
    # The frozen mask never sees the new row, whatever range is asked.
    assert storage.live_positions(0, 101, mask) == list(range(100))
    assert storage.live_positions(96, 200, mask) == [96, 97, 98, 99]


def test_parallel_counts_are_snapshots_under_concurrent_appends():
    database = _big_column_table(8000)
    table = database.table("obj")
    stop = threading.Event()
    errors: list[BaseException] = []

    def appender():
        objid = 10_000
        while not stop.is_set():
            table.insert({"objid": objid, "mag": 20.0, "run": objid % 11},
                         database=database)
            objid += 1

    writer = threading.Thread(target=appender)
    writer.start()
    try:
        planner = Planner(database, parallelism=4, parallel_row_threshold=0)
        previous = 0
        for _ in range(20):
            result = planner.plan(
                parse_select("select count(*) as n from obj")).execute()
            count = result.rows[0]["n"]
            # One scan = one snapshot: a single consistent count that
            # can only grow between scans.
            assert count >= previous >= 0
            previous = count
    except BaseException as error:      # pragma: no cover - diagnostic aid
        errors.append(error)
    finally:
        stop.set()
        writer.join()
    assert not errors
    final = planner.plan(parse_select("select count(*) as n from obj"))
    assert final.execute().rows[0]["n"] == table.row_count


# ---------------------------------------------------------------------------
# The worker pool: leases, ordering, degradation
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE actuals and session statistics
# ---------------------------------------------------------------------------

def test_explain_analyze_reports_actuals_and_morsels():
    database = _big_column_table()
    session = SqlSession(database, planner=Planner(database, parallelism=4))
    sql = "select count(*) as n from obj where mag > 9999"
    text = session.explain(sql, analyze=True)
    # Every operator reports actuals after execution — including zero:
    # the aggregate produced one row, the scan matched none.
    for line in text.splitlines():
        if line.lstrip().startswith("->"):
            assert "actual rows=" in line, line
    assert "workers=4" in text
    assert "morsels=" in text
    modes = session.execution_mode_statistics()
    assert modes["parallel_executions"] == 1
    # The two sealed segments' zone maps prove mag > 9999 can never
    # match (mag tops out around 24), so only the append tail becomes a
    # morsel — segment skipping composes with the pool.
    assert modes["morsels_dispatched"] == 1
    assert "skipped=2" in text

    # Without an analyzable predicate nothing is skippable: every scan
    # unit (two sealed segments + the tail) is dispatched as a morsel.
    session.execute("select count(*) as n from obj")
    modes = session.execution_mode_statistics()
    assert modes["morsels_dispatched"] == 1 + 3


def test_parallelism_one_plans_and_renders_identically():
    database = _big_column_table()
    sql = "select run, count(*) as n from obj where mag < 20 group by run"
    stock = Planner(database).plan(parse_select(sql))
    pinned = Planner(database, parallelism=1).plan(parse_select(sql))
    assert stock.explain() == pinned.explain()
    assert _exact(stock.execute().rows) == _exact(pinned.execute().rows)


# ---------------------------------------------------------------------------
# Serving pool: parallelism never leaks into cache keys or admission
# ---------------------------------------------------------------------------

class TestServingPoolParallelism:
    def test_cache_key_ignores_parallelism(self):
        sql = "select count(*) as n from obj"
        assert (SkyServerPool._cache_key(sql, "public")
                == SkyServerPool._cache_key("select  count(*)  as n \n from obj",
                                            "public"))

    def test_parallel_and_serial_share_a_cache_entry(self):
        database = _big_column_table()
        with SkyServerPool(database, workers=2, parallelism=4) as pool:
            assert pool.parallelism >= 1
            sql = "select run, count(*) as n from obj group by run"
            first = pool.execute(sql)
            second = pool.execute(sql)
            assert _exact(second.rows) == _exact(first.rows)
            assert pool.result_cache.hits >= 1
            # The entry a parallel worker filled serves a serial run of
            # the same SQL (and vice versa): one key, either mode.
            serial = SqlSession(database).query(sql)
            assert _exact(serial.rows) == _exact(first.rows)

    def test_parallelism_clamped_to_shared_pool_capacity(self):
        database = Database("clamp")
        database.create_table("t", [bigint("x")], storage="column")
        with SkyServerPool(database, workers=8, parallelism=1024) as pool:
            assert pool.parallelism * 8 <= get_worker_pool().capacity

    def test_admission_counts_queries_not_workers(self):
        database = _big_column_table()
        with SkyServerPool(database, workers=2, parallelism=4) as pool:
            tickets = [pool.submit(
                f"select count(*) as n from obj where run <> {index}")
                for index in range(6)]
            for ticket in tickets:
                ticket.result(timeout=30)
            stats = pool.statistics()
            # 6 admissions, whatever the intra-query fan-out was.
            assert stats["submitted"] == 6
            assert stats["completed"] == 6
            assert stats["rejected"] == 0


# ---------------------------------------------------------------------------
# Acceptance: the fig13 suite under parallelism=4, single-node and sharded
# ---------------------------------------------------------------------------

def _assert_suites_identical(expected, actual):
    assert len(expected) == len(actual) >= 20
    for want, got in zip(expected, actual):
        assert got.query_id == want.query_id
        assert got.result.columns == want.result.columns, want.query_id
        assert _exact(got.result.rows) == _exact(want.result.rows), want.query_id


@pytest.fixture(scope="module")
def columnar_skyserver(survey_output):
    from repro.loader import SkyServerLoader
    from repro.schema import create_skyserver_database
    from repro.skyserver import QueryLimits, SkyServer

    database = create_skyserver_database(with_indices=False)
    loader = SkyServerLoader(database, columnar=True)
    report = loader.load_pipeline_output(survey_output)
    assert report.succeeded, report.summary()
    return SkyServer(database, limits=QueryLimits.private())


@pytest.fixture(scope="module")
def sharded_columnar_skyserver(survey_output):
    from repro.loader import SkyServerLoader
    from repro.schema import create_skyserver_database
    from repro.skyserver import QueryLimits, SkyServer

    database = create_skyserver_database(with_indices=False)
    loader = SkyServerLoader(database, columnar=True, shards=4)
    report = loader.load_pipeline_output(survey_output)
    assert report.succeeded, report.summary()
    assert report.cluster is not None
    return SkyServer(database, limits=QueryLimits.private(),
                     cluster=report.cluster)


def test_fig13_parallel_single_node_byte_identical(columnar_skyserver):
    server = columnar_skyserver
    serial = server.run_all_data_mining_queries()
    original = server.session.planner
    server.session.planner = Planner(server.database, parallelism=4,
                                     parallel_row_threshold=0)
    server.session.plan_cache.clear()
    try:
        parallel = server.run_all_data_mining_queries()
    finally:
        server.session.planner = original
        server.session.plan_cache.clear()
    _assert_suites_identical(serial, parallel)
    assert server.session.morsels_dispatched > 0


def test_fig13_parallel_sharded_byte_identical(sharded_columnar_skyserver):
    from repro.cluster import ClusterSession

    server = sharded_columnar_skyserver
    serial = server.run_all_data_mining_queries()
    original = server.session
    parallel_session = ClusterSession(server.cluster,
                                      row_limit=original.row_limit,
                                      time_limit_seconds=original.time_limit_seconds,
                                      parallelism=4)
    parallel_session.session.planner.parallel_row_threshold = 0
    server.session = parallel_session
    try:
        parallel = server.run_all_data_mining_queries()
    finally:
        server.session = original
    _assert_suites_identical(serial, parallel)
