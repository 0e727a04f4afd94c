"""Planner and executor tests: access paths, joins, views, aggregation."""

import inspect

import pytest

from repro.engine import (Database, Planner, PrimaryKey, View, bigint, floating,
                          integer)
from repro.engine.explain import plan_operators
from repro.engine.sql import SqlSession, parse_expression, parse_select


@pytest.fixture()
def session(toy_photo_database):
    return SqlSession(toy_photo_database)


class TestAccessPaths:
    def test_primary_key_equality_uses_index_seek(self, session, toy_photo_database):
        plan = session.plan("select ra from PhotoObj where objID = 42")
        assert "Index Seek" in plan_operators(plan)
        result = plan.execute()
        assert len(result.rows) == 1

    def test_unindexed_predicate_uses_table_scan(self, session):
        plan = session.plan("select objID from PhotoObj where rowv > 20")
        assert "Table Scan" in plan_operators(plan)

    def test_covering_index_used_when_columns_covered(self, session):
        plan = session.plan("select type, modelMag_r from PhotoObj where modelMag_r < 15 and type = type")
        # All referenced columns (type, modelMag_r, objID) are covered by ix_type.
        labels = plan_operators(plan)
        assert "Covering Index Scan" in labels or "Index Seek" in labels

    def test_index_seek_on_composite_prefix(self, session):
        plan = session.plan("select objID from PhotoObj where run = 756 and camcol = 3")
        assert "Index Seek" in plan_operators(plan)
        rows = plan.execute().rows
        assert rows and all(True for _ in rows)

    def test_scan_results_match_seek_results(self, session, toy_photo_database):
        seek = session.query("select objID from PhotoObj where run = 756 and camcol = 3 order by objID")
        toy_photo_database.table("PhotoObj").drop_index("ix_field")
        scan = session.query("select objID from PhotoObj where run = 756 and camcol = 3 order by objID")
        assert seek.rows == scan.rows
        toy_photo_database.table("PhotoObj").create_index("ix_field", ["run", "camcol", "field"])


class TestViews:
    def test_view_folds_to_base_table(self, toy_photo_database):
        toy_photo_database.create_view(
            View("GalaxyView", "PhotoObj", parse_expression("type = 'galaxy'")))
        session = SqlSession(toy_photo_database)
        result = session.query("select count(*) as n from GalaxyView")
        direct = session.query("select count(*) as n from PhotoObj where type = 'galaxy'")
        assert result.scalar() == direct.scalar()

    def test_nested_views(self, toy_photo_database):
        toy_photo_database.create_view(
            View("BrightView", "PhotoObj", parse_expression("modelMag_r < 18")), replace=True)
        toy_photo_database.create_view(
            View("BrightGalaxies", "BrightView", parse_expression("type = 'galaxy'")))
        session = SqlSession(toy_photo_database)
        combined = session.query("select count(*) as n from BrightGalaxies").scalar()
        manual = session.query(
            "select count(*) as n from PhotoObj where modelMag_r < 18 and type = 'galaxy'").scalar()
        assert combined == manual


class TestJoins:
    @pytest.fixture()
    def spectro_database(self, toy_photo_database):
        table = toy_photo_database.create_table("SpecObj", [
            bigint("specObjID"), bigint("objID"), floating("z"), integer("specClass"),
        ], primary_key=PrimaryKey(["specObjID"]))
        rows = [{"specObjID": 1000 + i, "objID": i * 5 + 1, "z": 0.02 * i, "specClass": 2}
                for i in range(40)]
        table.insert_many(rows, database=toy_photo_database)
        table.create_index("ix_obj", ["objID"])
        return toy_photo_database

    def test_equality_join_uses_index_nested_loop(self, spectro_database):
        session = SqlSession(spectro_database)
        plan = session.plan(
            "select p.objID, s.z from SpecObj s join PhotoObj p on p.objID = s.objID")
        assert "Index Nested Loop Join" in plan_operators(plan)
        result = plan.execute()
        assert len(result.rows) == 40

    def test_join_results_are_correct(self, spectro_database):
        session = SqlSession(spectro_database)
        result = session.query(
            "select p.objID, s.z from SpecObj s join PhotoObj p on p.objID = s.objID "
            "where s.z > 0.5 order by s.z")
        assert all(row["z"] > 0.5 for row in result.rows)
        assert [row["z"] for row in result.rows] == sorted(row["z"] for row in result.rows)

    def test_comma_join_with_where(self, spectro_database):
        session = SqlSession(spectro_database)
        result = session.query(
            "select p.objID from PhotoObj p, SpecObj s where p.objID = s.objID and s.z < 0.1")
        assert len(result.rows) == 5

    def test_self_join(self, spectro_database):
        session = SqlSession(spectro_database)
        result = session.query("""
            select a.objID as a_id, b.objID as b_id
            from PhotoObj a join PhotoObj b on b.run = a.run and b.camcol = a.camcol
            where a.objID = 1 and b.objID <> 1 and b.field = a.field
        """)
        assert all(row["a_id"] == 1 and row["b_id"] != 1 for row in result.rows)

    def test_cross_join_without_condition(self, spectro_database):
        session = SqlSession(spectro_database)
        result = session.query(
            "select count(*) as n from SpecObj a, SpecObj b where a.specObjID = 1000 and b.specObjID = 1001")
        assert result.scalar() == 1

    def test_three_way_join(self, spectro_database):
        table = spectro_database.create_table("SpecLine", [
            bigint("lineID"), bigint("specObjID"), floating("ew"),
        ], primary_key=PrimaryKey(["lineID"]))
        table.insert_many([{"lineID": i, "specObjID": 1000 + i % 40, "ew": float(i)}
                           for i in range(120)], database=spectro_database)
        table.create_index("ix_spec", ["specObjID"])
        session = SqlSession(spectro_database)
        result = session.query("""
            select p.objID, l.ew
            from PhotoObj p
            join SpecObj s on s.objID = p.objID
            join SpecLine l on l.specObjID = s.specObjID
            where l.ew > 100
        """)
        assert len(result.rows) == 19
        assert all(row["ew"] > 100 for row in result.rows)

    def test_cost_based_join_order_agrees_with_written_order(self, spectro_database):
        table = spectro_database.create_table("SpecLine", [
            bigint("lineID"), bigint("specObjID"), floating("ew"),
        ], primary_key=PrimaryKey(["lineID"]))
        table.insert_many([{"lineID": i, "specObjID": 1000 + i % 40, "ew": float(i)}
                           for i in range(120)], database=spectro_database)
        spectro_database.analyze()
        sql = ("select l.lineID, p.objID, s.z from SpecLine l "
               "join SpecObj s on s.specObjID = l.specObjID "
               "join PhotoObj p on p.objID = s.objID where l.ew < 60 "
               "order by l.lineID")
        greedy = SqlSession(spectro_database, planner=Planner(spectro_database))
        written = SqlSession(spectro_database,
                             planner=Planner(spectro_database, enable_cbo=False))
        rows = greedy.query(sql).rows
        assert len(rows) == 60
        assert repr(rows) == repr(written.query(sql).rows)


def test_cpu_seconds_count_only_the_query_thread(toy_photo_database, busy_neighbour):
    """A query that waits while another thread burns CPU is charged its
    own thread's CPU only (a process-wide clock would charge it the
    neighbour's 0.3 s)."""
    toy_photo_database.register_scalar_function(
        "wait_for_neighbour", busy_neighbour, replace=True)
    result = SqlSession(toy_photo_database).query(
        "select dbo.wait_for_neighbour() as waited")
    assert result.rows == [{"waited": True}]
    assert result.statistics.cpu_seconds < 0.1


def test_measure_charges_only_the_measuring_thread(busy_neighbour):
    """``repro.bench.timing.measure`` reads the same per-thread clock."""
    from repro.bench.timing import measure

    with measure() as timing:
        busy_neighbour()
    assert timing.elapsed_seconds >= 0.2
    assert timing.cpu_seconds < 0.1


def test_planner_keywords_are_the_documented_switches():
    keywords = set(inspect.signature(Planner).parameters) - {"database"}
    assert keywords == {
        "enable_hash_join", "enable_vectorized", "enable_cbo",
        "enable_index_join", "enable_zone_maps", "enable_runtime_filters",
        "parallelism", "parallel_row_threshold"}


@pytest.fixture(scope="module")
def segmented_pair():
    """A columnar ``obj`` with two sealed segments plus an append tail,
    and a columnar ``nbr`` to join it with."""
    database = Database("inert")
    obj = database.create_table("obj", [
        bigint("objid"), floating("mag"), integer("run"),
    ], primary_key=PrimaryKey(["objid"]), storage="column")
    obj.insert_many({"objid": index, "mag": 14.0 + (index % 997) * 0.01,
                     "run": index % 11} for index in range(10_000))
    nbr = database.create_table("nbr", [
        bigint("objid"), integer("grp"),
    ], storage="column")
    nbr.insert_many({"objid": index * 3, "grp": index % 5}
                    for index in range(3_000))
    database.analyze()
    assert len(obj.storage.segments()) >= 2
    return database


#: One statement per operator shape the inert keywords once steered:
#: a filter, grouped and scalar aggregates (the scalar one skips a
#: sealed segment by its zone map), TOP-N, DISTINCT, and batch hash
#: joins with an unfiltered and a selective build side.
INERT_QUERIES = {
    "filter": "select objid, mag from obj where mag < 15 and run = 3",
    "grouped_aggregate":
        "select run, count(*) as n, sum(mag) as s from obj group by run",
    "scalar_aggregate":
        "select count(*) as n, min(mag) as lo, max(mag) as hi, "
        "avg(mag) as a from obj where objid >= 5000",
    "top_n": "select top 9 objid, mag from obj where run = 7 "
             "order by mag desc, objid",
    "distinct": "select distinct run from obj where mag > 23",
    "count_distinct":
        "select count(distinct run) as d from obj where mag < 16",
    "hash_join": "select n.grp, count(*) as c, sum(o.mag) as s "
                 "from obj o, nbr n where o.objid = n.objid group by n.grp",
    "filtered_build_join": "select o.objid, o.run, n.grp from obj o, nbr n "
                           "where o.objid = n.objid and o.mag < 14.05",
}


@pytest.mark.parametrize("sql", INERT_QUERIES.values(), ids=INERT_QUERIES)
def test_parallelism_keywords_are_inert(segmented_pair, sql):
    """``parallelism`` / ``parallel_row_threshold`` are accepted and
    ignored: plans, EXPLAIN text and rows equal the stock planner's."""
    stock = Planner(segmented_pair).plan(parse_select(sql))
    inert = Planner(segmented_pair, parallelism=4,
                    parallel_row_threshold=0).plan(parse_select(sql))
    assert inert.explain() == stock.explain()
    stock_rows, inert_rows = stock.execute().rows, inert.execute().rows
    assert inert.explain() == stock.explain()
    assert "workers=" not in inert.explain()
    assert "morsels=" not in inert.explain()
    assert inert_rows
    assert repr(inert_rows) == repr(stock_rows)
    if " join " in sql or ", nbr" in sql:
        assert "Batch Hash Join" in plan_operators(inert)


class TestAggregationAndOrdering:
    def test_count_star(self, session):
        assert session.query("select count(*) as n from PhotoObj").scalar() == 500

    def test_group_by_with_having(self, session):
        result = session.query(
            "select type, count(*) as n, avg(modelMag_r) as meanmag from PhotoObj "
            "group by type having count(*) > 10 order by n desc")
        assert len(result.rows) == 2
        assert result.rows[0]["n"] >= result.rows[1]["n"]

    def test_min_max_sum(self, session):
        result = session.query(
            "select min(modelMag_r) as lo, max(modelMag_r) as hi, sum(modelMag_r) as total from PhotoObj")
        row = result.rows[0]
        assert row["lo"] <= row["hi"]
        assert row["total"] == pytest.approx(row["lo"] * 0 + row["total"])

    def test_group_by_expression(self, session):
        result = session.query(
            "select round(modelMag_r, 0) as bin, count(*) as n from PhotoObj "
            "group by round(modelMag_r, 0) order by bin")
        assert sum(row["n"] for row in result.rows) == 500

    def test_aggregate_over_empty_input(self, session):
        result = session.query("select count(*) as n from PhotoObj where modelMag_r > 999")
        assert result.scalar() == 0

    def test_order_by_alias(self, session):
        result = session.query(
            "select objID, rowv*rowv + colv*colv as speed2 from PhotoObj order by speed2 desc")
        speeds = [row["speed2"] for row in result.rows]
        assert speeds == sorted(speeds, reverse=True)

    def test_top_limits_rows(self, session):
        result = session.query("select top 7 objID from PhotoObj order by objID")
        assert len(result.rows) == 7

    def test_distinct(self, session):
        result = session.query("select distinct type from PhotoObj")
        assert sorted(row["type"] for row in result.rows) == ["galaxy", "star"]

    def test_select_into_then_requery(self, session, toy_photo_database):
        session.query("select objID, type into ##subset from PhotoObj where modelMag_r < 16")
        count = session.query("select count(*) as n from ##subset").scalar()
        assert count == toy_photo_database.table("##subset").row_count

    def test_scalar_select_without_from(self, session):
        assert session.query("select 6 * 7 as answer").scalar() == 42
        assert ("Row Source [1 rows AS #dual] (estimated rows=1"
                in session.explain("select 6 * 7 as answer"))

    def test_execution_statistics_populated(self, session):
        result = session.query("select count(*) as n from PhotoObj where modelMag_r > 0")
        assert result.statistics.rows_scanned == 500
        assert result.statistics.bytes_scanned > 0
        assert result.statistics.elapsed_seconds >= 0.0


def _seek_of(plan):
    from repro.engine.operators import IndexRangeScan

    operator = plan.root
    while not isinstance(operator, IndexRangeScan):
        (operator,) = operator.children()
    return operator


@pytest.mark.parametrize("storage", ["row", "column"])
def test_seek_drops_only_the_equalities_its_range_implies(storage):
    """``key = number`` on a numeric leading key column is TRUE on every
    row a range walk of that key returns, so the seek does not re-test
    it; any other conjunct, and every conjunct of a walk that falls back
    to the whole index (a NaN key), is still tested."""
    database = Database(f"seek-{storage}")
    table = database.create_table("t", [
        bigint("id"), integer("type"), floating("mag", nullable=True),
    ], primary_key=PrimaryKey(["id"]), storage=storage)
    table.insert_many([{"id": index, "type": index % 4, "mag": 14.0 + index % 9}
                       for index in range(200)])
    table.create_index("ix_type_mag", ["type", "mag"])
    database.analyze()
    cases = {
        "select count(*) as n from t p where p.type = 3": None,
        "select count(*) as n from t p where 3 = p.type": None,
        "select count(*) as n from t p where p.type = -1": None,
        "select count(*) as n from t p where p.type = 3 and p.mag > 20": "(p.mag > 20)",
        "select count(*) as n from t p where p.type = 3 and p.mag = 16": None,
        "select count(*) as n from t p where p.type >= 3": "(p.type >= 3)",
        "select count(*) as n from t p where p.type = null": "(p.type = NULL)",
    }
    for sql, residual in cases.items():
        seek = _seek_of(Planner(database).plan(parse_select(sql)))
        kept = seek.range_predicate.sql() if seek.range_predicate is not None else None
        assert kept == residual, sql
        assert seek.predicate is not None
    # A NaN key turns every walk of the index into a whole-index read:
    # the implied conjunct is tested again and the answers stay exact.
    for nan_row in ({}, {"id": 1_000, "type": 3, "mag": float("nan")}):
        if nan_row:
            table.insert(nan_row)
        for sql in cases:
            expected = sum(1 for _rid, row in table.iter_rows()
                           if _matches(sql, row))
            assert SqlSession(database).query(sql).rows[0]["n"] == expected, sql


def _matches(sql: str, row: dict) -> bool:
    where = sql.split(" where ", 1)[1]
    type_, mag = row["type"], row["mag"]
    checks = {
        "p.type = 3": type_ == 3, "3 = p.type": type_ == 3, "p.type = -1": type_ == -1,
        "p.type = 3 and p.mag > 20": type_ == 3 and mag > 20,
        "p.type = 3 and p.mag = 16": type_ == 3 and mag == 16,
        "p.type >= 3": type_ >= 3, "p.type = null": False,
    }
    return checks[where]
