"""Tests for the columnar storage layer and the vectorized batch engine."""

from __future__ import annotations

import random

import pytest

from repro.engine import (ColumnStore, Database, Planner, PrimaryKey,
                          RowStore, SqlSession, bigint, floating,
                          make_storage, text)
from repro.engine.errors import SchemaError
from repro.engine.explain import plan_operators
from repro.engine.sql import parse_select
from repro.engine.types import Column, DataType
from repro.htm import HtmRange, merge_ranges
from repro.loader import SkyServerLoader
from repro.loader.steps import LoadStep


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

    def test_sort_between_project_and_scan_stays_row_mode(self):
        sql = "select ra from photoobj where flags >= 0 order by ra"
        plan = Planner(_build_database("column")).plan(parse_select(sql))
        assert not any(label.startswith("Batch") for label in plan_operators(plan))
        assert plan.execute().statistics.batches_processed == 0

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
