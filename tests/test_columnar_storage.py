"""Tests for the columnar storage layer and the vectorized batch engine."""

from __future__ import annotations

import random
import threading

import pytest

from repro.engine import (ColumnStore, Database, Planner, PrimaryKey,
                          RowStore, SqlSession, bigint, floating, integer,
                          make_storage, text)
from repro.engine.errors import SchemaError
from repro.engine.explain import plan_operators
from repro.engine.segments import SEGMENT_ROWS
from repro.engine.sql import parse_select
from repro.engine.types import Column, DataType
from repro.htm import HtmRange, merge_ranges
from repro.loader import SkyServerLoader
from repro.loader.steps import LoadStep
from repro.skyserver import QueryLimits, SkyServer
from repro.skyserver.queries import DATA_MINING_QUERIES, query_by_id


COLUMNS = [
    Column("id", DataType.BIGINT),
    Column("mag", DataType.FLOAT, nullable=True),
    Column("name", DataType.TEXT, nullable=True),
]


def _sample_rows(count: int = 10) -> list[dict]:
    return [{"id": index, "mag": float(index) / 2 if index % 3 else None,
             "name": f"obj{index}" if index % 4 else None}
            for index in range(count)]


def _build_database(storage: str, row_count: int = 2_000,
                    with_nulls: bool = False) -> Database:
    database = Database(f"columnar-{storage}")
    table = database.create_table("photoobj", [
        bigint("id"), floating("ra"), floating("dec"),
        bigint("flags"), floating("modelmag_r", nullable=with_nulls),
        text("type"),
    ], primary_key=PrimaryKey(["id"]), storage=storage)
    rng = random.Random(2002)
    table.insert_many([
        {"id": index,
         "ra": rng.uniform(0.0, 360.0),
         "dec": rng.uniform(-90.0, 90.0),
         "flags": rng.randrange(16),
         "modelmag_r": (None if with_nulls and index % 7 == 0
                        else rng.uniform(14.0, 24.0)),
         "type": rng.choice(["star", "galaxy", "unknown"])}
        for index in range(row_count)
    ])
    return database


class TestStorageEngines:
    def test_make_storage_kinds(self):
        assert isinstance(make_storage("row", COLUMNS), RowStore)
        assert isinstance(make_storage("column", COLUMNS), ColumnStore)
        with pytest.raises(SchemaError):
            make_storage("parquet", COLUMNS)

    @pytest.mark.parametrize("kind", ["row", "column"])
    def test_append_get_roundtrip(self, kind):
        storage = make_storage(kind, COLUMNS)
        rows = _sample_rows()
        ids = [storage.append(dict(row)) for row in rows]
        assert ids == list(range(len(rows)))
        for row_id, row in zip(ids, rows):
            assert storage.get(row_id) == row
        assert storage.get(999) is None
        assert storage.live_count == len(rows)
        assert list(storage.iter_dicts()) == rows

    @pytest.mark.parametrize("kind", ["row", "column"])
    def test_delete_keeps_row_ids_stable(self, kind):
        storage = make_storage(kind, COLUMNS)
        for row in _sample_rows():
            storage.append(row)
        assert storage.delete(3)
        assert not storage.delete(3)          # already dead
        assert storage.get(3) is None
        assert storage.get(4)["id"] == 4      # neighbours untouched
        assert storage.tombstone_count == 1
        assert [row_id for row_id, _row in storage.iter_rows()] == \
            [i for i in range(10) if i != 3]

    @pytest.mark.parametrize("kind", ["row", "column"])
    def test_vacuum_compacts_and_reassigns(self, kind):
        storage = make_storage(kind, COLUMNS)
        for row in _sample_rows():
            storage.append(row)
        for victim in (0, 4, 9):
            storage.delete(victim)
        assert storage.vacuum() == 3
        assert storage.vacuum() == 0
        assert len(storage) == 7
        assert storage.tombstone_count == 0
        survivors = [row["id"] for _rid, row in storage.iter_rows()]
        assert survivors == [1, 2, 3, 5, 6, 7, 8]
        assert storage.get(0)["id"] == 1      # ids compacted

    def test_column_store_bigint_overflow_promotes(self):
        storage = ColumnStore([Column("big", DataType.BIGINT)])
        storage.append({"big": 2 ** 70})
        storage.append({"big": 5})
        assert storage.get(0) == {"big": 2 ** 70}
        assert storage.get(1) == {"big": 5}

    def test_column_store_null_masks(self):
        storage = ColumnStore(COLUMNS)
        for row in _sample_rows():
            storage.append(row)
        _buffers, masks = storage.batch_columns()
        assert "mag" in masks and "name" in masks
        assert "id" not in masks              # NULL-free columns have no mask
        assert storage.column_null_count("id") == 0
        assert storage.column_null_count("mag") > 0


class TestTableStorageIntegration:
    @pytest.mark.parametrize("kind", ["row", "column"])
    def test_vacuum_through_table_interface(self, kind):
        database = Database("vac")
        table = database.create_table("t", [bigint("id"), floating("v")],
                                      primary_key=PrimaryKey(["id"]),
                                      storage=kind)
        table.insert_many({"id": i, "v": i * 0.5} for i in range(100))
        table.delete_where(lambda row: row["id"] % 2 == 0)
        assert table.tombstone_count == 50
        assert table.vacuum() == 50
        assert table.tombstone_count == 0
        assert len(table.rows) == 50
        result = SqlSession(database).query("select id from t where v > 24")
        assert [row["id"] for row in result.rows] == [49 + 2 * i for i in range(26)]
        # The PK index was rebuilt with the compacted ids.
        index = table.primary_key_index()
        assert sorted(table.get_row(rid)["id"] for rid in index.scan()) == \
            sorted(row["id"] for row in table)

    @pytest.mark.parametrize("kind", ["row", "column"])
    def test_maybe_vacuum_threshold(self, kind):
        database = Database("vac2")
        table = database.create_table("t", [bigint("id")], storage=kind)
        table.insert_many({"id": i} for i in range(100))
        table.delete_row(0)
        assert table.maybe_vacuum() == 0      # 1% dead: below threshold
        table.delete_where(lambda row: row["id"] < 40)
        assert table.maybe_vacuum() == 40     # 40% dead: compacted

    def test_convert_storage_round_trip(self):
        database = _build_database("row", row_count=200)
        table = database.table("photoobj")
        before = list(table)
        version = database.schema_version
        assert table.convert_storage("column") == 200
        assert table.storage.kind == "column"
        assert database.schema_version > version      # plan caches invalidate
        assert list(table) == before
        assert table.convert_storage("column") == 200  # no-op
        table.convert_storage("row")
        assert table.storage.kind == "row"
        assert list(table) == before

    def test_describe_reports_storage_kind(self):
        database = _build_database("column", row_count=10)
        assert database.table("photoobj").describe()["storage"] == "column"


SCAN_SQL = ("select id, ra + dec as pos, modelmag_r * 2 - 1 as m2 "
            "from photoobj "
            "where modelmag_r > 15 and modelmag_r < 22 and flags & 3 = 1")
AGG_SQL = ("select count(*) as n, avg(modelmag_r) as mean_r, "
           "min(modelmag_r) as lo, max(modelmag_r) as hi "
           "from photoobj where modelmag_r > 15 and flags & 3 = 1")
GROUP_SQL = ("select type, count(*) as n, avg(modelmag_r) as m "
             "from photoobj where modelmag_r > 15 group by type")


class TestVectorizedExecution:
    @pytest.mark.parametrize("sql", [SCAN_SQL, AGG_SQL, GROUP_SQL])
    def test_matches_row_store_results(self, sql):
        row_result = Planner(_build_database("row")).plan(parse_select(sql)).execute()
        col_result = Planner(_build_database("column")).plan(parse_select(sql)).execute()
        assert col_result.rows == row_result.rows
        assert col_result.statistics.batches_processed > 0
        assert row_result.statistics.batches_processed == 0
        assert col_result.statistics.rows_scanned == row_result.statistics.rows_scanned

    def test_explain_labels_batch_operators(self):
        database = _build_database("column", row_count=50)
        labels = plan_operators(Planner(database).plan(parse_select(SCAN_SQL)))
        assert labels == ["Batch Compute Scalar", "Batch Table Scan"]
        labels = plan_operators(Planner(database).plan(parse_select(AGG_SQL)))
        assert "Batch Aggregate" in labels and "Batch Table Scan" in labels
        # `ra` is not covered by any index, so the source is a table scan.
        top = Planner(database).plan(parse_select("select top 5 ra from photoobj"))
        assert plan_operators(top) == ["Batch Top", "Batch Compute Scalar",
                                       "Batch Table Scan"]

    def test_ordered_group_aggregate_still_batches(self):
        """ORDER BY sorts the group rows; the aggregation below batches."""
        sql = GROUP_SQL + " order by type"
        col_db = _build_database("column")
        plan = Planner(col_db).plan(parse_select(sql))
        assert "Batch Aggregate" in plan_operators(plan)
        col_result = plan.execute()
        row_result = Planner(_build_database("row")).plan(parse_select(sql)).execute()
        assert col_result.rows == row_result.rows
        assert col_result.statistics.batches_processed > 0

    def test_sort_reads_its_chain_through_batches(self):
        """The Sort runs row-mode, but its scan is a batch chain: only
        the rows that pass become dicts, in the row store's order."""
        sql = "select ra from photoobj where flags >= 4 order by ra"
        plan = Planner(_build_database("column")).plan(parse_select(sql))
        assert plan_operators(plan) == ["Compute Scalar", "Sort",
                                        "Batch Table Scan"]
        result = plan.execute()
        assert result.statistics.batches_processed > 0
        row = Planner(_build_database("row")).plan(parse_select(sql)).execute()
        assert repr(result.rows) == repr(row.rows)
        assert result.statistics.rows_scanned == row.statistics.rows_scanned
        assert repr(plan.execute(compiled=False).rows) == repr(row.rows)

    def test_planner_switch_disables_vectorization(self):
        database = _build_database("column")
        planner = Planner(database, enable_vectorized=False)
        plan = planner.plan(parse_select(SCAN_SQL))
        assert not any(label.startswith("Batch") for label in plan_operators(plan))
        result = plan.execute()
        assert result.statistics.batches_processed == 0
        vectorized = Planner(database).plan(parse_select(SCAN_SQL)).execute()
        assert result.rows == vectorized.rows

    def test_uncompiled_execution_falls_back(self):
        database = _build_database("column")
        plan = Planner(database).plan(parse_select(AGG_SQL))
        compiled = plan.execute()
        interpreted = plan.execute(compiled=False)
        assert interpreted.statistics.batches_processed == 0
        assert interpreted.rows == compiled.rows

    def test_nullable_column_takes_row_view_fallback(self):
        """NULLs disable codegen but the batch pipeline stays exact."""
        row_result = Planner(_build_database("row", with_nulls=True)).plan(
            parse_select(AGG_SQL)).execute()
        col_result = Planner(_build_database("column", with_nulls=True)).plan(
            parse_select(AGG_SQL)).execute()
        assert col_result.rows == row_result.rows
        assert col_result.statistics.batches_processed > 0

    @pytest.mark.parametrize("value, fallbacks", [("19.5", 0), ("null", 1)])
    def test_variables_in_batch_predicates(self, value, fallbacks):
        """A bound variable is a constant of the generated loop; a NULL
        one runs the predicate's row-mode function instead."""
        from repro.engine import make_session

        sql = (f"declare @cut float; set @cut = {value}; "
               "select count(*) as n, min(id) as lo from photoobj "
               "where ra + 0 > 10 and modelmag_r < @cut")
        row = make_session(_build_database("row")).query(sql)
        column = make_session(_build_database("column")).query(sql)
        assert column.rows == row.rows
        assert column.statistics.batches_processed > 0
        assert column.statistics.vector_fallbacks == fallbacks

    def test_case_insensitive_string_predicates(self):
        sql = ("select id from photoobj "
               "where type = 'STAR' and type in ('Star', 'GALAXY') "
               "and type like 's%'")
        row = Planner(_build_database("row")).plan(parse_select(sql)).execute()
        col = Planner(_build_database("column")).plan(parse_select(sql)).execute()
        assert col.rows == row.rows and len(col.rows) > 0

    def test_star_projection(self):
        sql = "select * from photoobj where id < 5"
        row = Planner(_build_database("row")).plan(parse_select(sql)).execute()
        col = Planner(_build_database("column")).plan(parse_select(sql)).execute()
        assert col.rows == row.rows

    def test_top_stops_early(self):
        database = _build_database("column", row_count=20_000)
        plan = Planner(database).plan(
            parse_select("select top 3 id from photoobj where flags >= 0"))
        result = plan.execute()
        assert len(result.rows) == 3
        # TOP consumes at most one extra batch, never the whole table.
        assert result.statistics.rows_scanned <= 8192

    def test_session_counters_and_explain_footer(self):
        database = _build_database("column")
        session = SqlSession(database)
        session.query(AGG_SQL)
        session.query("select 1 as one")       # relationless: row path
        modes = session.execution_mode_statistics()
        assert modes["batch_executions"] == 1
        assert modes["row_executions"] == 1
        assert modes["batches_processed"] >= 1
        explained = session.plan(AGG_SQL)
        explained.execute()
        assert "batches=" in explained.explain()


def _segmented_obj(rows: int = 10_000) -> Database:
    """A columnar obj table: two sealed segments plus an append tail."""
    database = Database("segmented-obj")
    table = database.create_table("obj", [
        bigint("objid"), floating("mag"), integer("run"),
    ], primary_key=PrimaryKey(["objid"]), storage="column")
    table.insert_many({"objid": index, "mag": 14.0 + (index % 997) * 0.01,
                       "run": index % 11} for index in range(rows))
    return database


def _query(database: Database, sql: str, **planner_kwargs):
    planner = Planner(database, **planner_kwargs)
    return planner.plan(parse_select(sql)).execute()


class TestSerialBatchScans:
    def test_tombstones_at_segment_boundaries_and_a_dead_segment(self):
        database = _segmented_obj()
        table = database.table("obj")
        assert len(table.storage.segments()) == 2
        # Tombstones hugging both seal boundaries, and the second
        # sealed segment dead from end to end.
        victims = {0, SEGMENT_ROWS - 2, SEGMENT_ROWS - 1,
                   2 * SEGMENT_ROWS, 2 * SEGMENT_ROWS + 1, 9_999}
        victims |= set(range(SEGMENT_ROWS, 2 * SEGMENT_ROWS))
        table.delete_where(lambda row: row["objid"] in victims)
        queries = [
            "select count(*) as n, sum(mag) as s, avg(mag) as a from obj",
            "select run, count(*) as n, max(mag) as m from obj "
            "where mag < 20 group by run",
        ]
        expected = [_query(database, sql, enable_vectorized=False).rows
                    for sql in queries]
        for sql, rows in zip(queries, expected):
            batch = _query(database, sql)
            assert batch.statistics.batches_processed > 0
            assert repr(batch.rows) == repr(rows), sql
        assert expected[0][0]["n"] == 10_000 - len(victims)
        # Vacuum compacts the buffers and re-seals; the answers hold.
        table.vacuum()
        for sql, rows in zip(queries, expected):
            assert repr(_query(database, sql).rows) == repr(rows), sql

    def test_count_never_decreases_under_a_concurrent_appender(self):
        database = _segmented_obj(8_000)
        table = database.table("obj")
        stop = threading.Event()

        def appender():
            objid = 10_000
            while not stop.is_set():
                table.insert({"objid": objid, "mag": 20.0, "run": objid % 11},
                             database=database)
                objid += 1

        writer = threading.Thread(target=appender)
        writer.start()
        plan = Planner(database).plan(
            parse_select("select count(*) as n from obj"))
        try:
            previous = 0
            for _ in range(20):
                count = plan.execute().rows[0]["n"]
                # One scan sees one consistent count, which can only
                # grow between scans.
                assert count >= previous >= 0
                previous = count
        finally:
            stop.set()
            writer.join(timeout=30)
        assert not writer.is_alive()
        assert plan.execute().rows[0]["n"] == table.row_count

    def test_explain_analyze_reports_actuals_and_skipped_segments(self):
        database = _segmented_obj()
        session = SqlSession(database)
        text = session.explain("select count(*) as n from obj "
                               "where mag > 9999", analyze=True)
        # Every operator reports actuals after execution, including
        # zero: the aggregate produced one row, the scan matched none.
        for line in text.splitlines():
            if line.lstrip().startswith("->"):
                assert "actual rows=" in line, line
        # Both sealed segments' zone maps prove mag > 9999 can never
        # match (mag tops out near 24); only the append tail is read.
        assert "segments=0/2 skipped=2" in text
        assert "batches=1 " in text
        assert "workers=" not in text and "morsels=" not in text
        # A predicate no zone map can decide reads every segment.
        text = session.explain("select count(*) as n from obj where run = 3",
                               analyze=True)
        assert "segments=2/2 skipped=0" in text
        assert "batches=3 " in text


def _raising_segment(storage: str) -> Database:
    """``t``: one sealed segment holding the only negative ``x`` and no
    ``kind = 3`` (its zone map disproves that conjunct), then a tail of
    rows that pass both conjuncts; ``b`` holds join keys that only the
    tail matches (a runtime filter's key range disproves the segment)."""
    database = Database(f"raising-{storage}")
    table = database.create_table("t", [
        bigint("k"), floating("x"), integer("kind")], storage=storage)
    table.insert_many({"k": index, "x": -1.0 if index == 17 else 4.0,
                       "kind": index % 3} for index in range(SEGMENT_ROWS))
    table.insert_many({"k": 100_000 + index, "x": 9.0, "kind": 3}
                      for index in range(5))
    database.create_table("b", [bigint("k")], storage=storage).insert_many(
        {"k": 100_000 + index} for index in range(50))
    database.analyze()
    return database


class TestZoneSkipsKeepErrors:
    """A zone map or a runtime join filter must not skip a segment whose
    rows would make an earlier conjunct raise: the row path evaluates
    ``sqrt(x)`` before ``kind = 3`` and fails on the negative ``x``."""

    @pytest.mark.parametrize("sql", [
        "select x from t where sqrt(x) > 1 and kind = 3",
        "select x from t where sqrt(x) > 1 and kind = 3 order by x",
        "select count(*) as n from t where sqrt(x) > 1 and kind = 3",
        "select b.k, t.x from b join t on t.k = b.k where sqrt(t.x) > 1",
    ])
    @pytest.mark.parametrize("storage", ["row", "column"])
    def test_the_segment_is_read_and_raises(self, sql, storage):
        database = _raising_segment(storage)
        if storage == "column":
            assert len(database.table("t").storage.segments()) == 1
        planner = Planner(database, enable_index_join=False)
        with pytest.raises(ValueError, match="math domain error"):
            planner.plan(parse_select(sql)).execute()

    @pytest.mark.parametrize("sql", [
        "select x from t where kind = 3 and sqrt(x) > 1",
        "select x from t where kind = 3 and sqrt(x) > 1 order by x",
    ])
    def test_a_safe_leading_conjunct_still_skips(self, sql):
        """``kind = 3`` first: the row path never evaluates ``sqrt`` on
        the segment's rows, so skipping it is sound and still happens."""
        database = _raising_segment("column")
        result = Planner(database).plan(parse_select(sql)).execute()
        assert [row["x"] for row in result.rows] == [9.0] * 5
        assert result.statistics.segments_skipped == 1
        row_result = Planner(_raising_segment("row")).plan(
            parse_select(sql)).execute()
        assert repr(result.rows) == repr(row_result.rows)


@pytest.fixture(scope="module")
def columnar_skyserver(survey_output):
    from repro.loader import load_release_database

    database, _report = load_release_database(survey_output, columnar=True)
    return SkyServer(database, limits=QueryLimits.private())


class TestFig13BatchLabels:
    def test_explain_says_batch_exactly_when_batches_ran(self, columnar_skyserver):
        """Every Figure-13 statement on a column store: EXPLAIN ANALYZE
        shows a Batch operator if and only if the execution pushed
        batches — the planner marks what the executor runs."""
        session = columnar_skyserver.session
        ran_batch = set()
        for query in DATA_MINING_QUERIES:
            labelled = "-> Batch " in session.explain(query.sql, analyze=True)
            batches = session.query(query.sql).statistics.batches_processed
            assert labelled == (batches > 0), query.query_id
            if batches:
                ran_batch.add(query.query_id)
        # The heavy joins: index seeks and a join probe feed batch joins,
        # and Q15B's math residual and URL projection run in the batch.
        assert {"Q13", "Q15B", "Q18"} <= ran_batch

    def test_batch_expressions_compile_to_generated_loops(self, columnar_skyserver):
        """No batch predicate or projection of the suite runs a row-mode
        function per row — column divisors (Q4, Q15B), ``log10`` (Q2)
        and ``round`` (Q7) included — except the ``dbo.fGetUrlExpId``
        projections of Q15A and Q15B: a session function."""
        session = columnar_skyserver.session
        fallbacks = {query.query_id: session.query(query.sql).statistics.vector_fallbacks
                     for query in DATA_MINING_QUERIES}
        assert {qid: count for qid, count in fallbacks.items() if count} == \
            {"Q15A": 1, "Q15B": 2}
        assert "vector fallbacks=2]" in session.explain(
            query_by_id("Q15B").sql, analyze=True)


class TestLoaderColumnarSwitch:
    def test_loader_converts_loaded_tables(self):
        database = Database("load-columnar")
        database.create_table("obs", [bigint("id"), floating("mag")],
                              primary_key=PrimaryKey(["id"]))
        step = LoadStep(table_name="obs",
                        rows=[{"id": i, "mag": i * 0.25} for i in range(50)])
        loader = SkyServerLoader(database, columnar=True)
        report = loader.run_steps([step], build_indices=False,
                                  build_neighbors=False, validate=False)
        assert report.succeeded
        assert report.columnar_tables == 1
        table = database.table("obs")
        assert table.storage.kind == "column"
        assert table.row_count == 50
        result = SqlSession(database).query(
            "select count(*) as n from obs where mag > 5")
        assert result.statistics.batches_processed > 0
        assert result.rows[0]["n"] == 29

    def test_loader_default_stays_row_oriented(self):
        database = Database("load-row")
        database.create_table("obs", [bigint("id")])
        loader = SkyServerLoader(database)
        report = loader.run_steps(
            [LoadStep(table_name="obs", rows=[{"id": 1}])],
            build_indices=False, build_neighbors=False, validate=False)
        assert report.succeeded and report.columnar_tables == 0
        assert database.table("obs").storage.kind == "row"


class TestHtmRangeMerging:
    def test_overlapping_and_adjacent_ranges_merge(self):
        ranges = [HtmRange(10, 20), HtmRange(21, 30), HtmRange(15, 25),
                  HtmRange(40, 50), HtmRange(52, 60)]
        assert [tuple(r) for r in merge_ranges(ranges)] == [(10, 30), (40, 50), (52, 60)]

    def test_merged_ranges_are_disjoint_and_sorted(self):
        rng = random.Random(11)
        ranges = []
        for _ in range(200):
            low = rng.randrange(0, 1000)
            ranges.append(HtmRange(low, low + rng.randrange(0, 40)))
        merged = [tuple(r) for r in merge_ranges(ranges)]
        for (low_a, high_a), (low_b, _high_b) in zip(merged, merged[1:]):
            assert high_a + 1 < low_b      # disjoint, non-adjacent
        covered = set()
        for low, high in merged:
            covered.update(range(low, high + 1))
        expected = set()
        for r in ranges:
            expected.update(range(r.low, r.high + 1))
        assert covered == expected
