"""The table write path: atomic bulk inserts and lazily decoded deletes.

``Table.insert_many`` validates the whole bulk — coercion, NOT NULL,
checks, foreign keys and uniqueness against both the index and the rest
of the batch — before it touches storage, an index or the write-ahead
log.  A bulk that fails leaves the table exactly as it was, on either
storage layout, and a durable database that saw the failure reopens.
"""

from __future__ import annotations

import pytest

from repro.engine import (CheckConstraint, CheckViolation, Database,
                          ForeignKey, ForeignKeyViolation, NotNullViolation,
                          PrimaryKey, PrimaryKeyViolation, bigint, floating,
                          text)
from repro.engine.durable import DurabilityManager
from repro.engine.sql import SqlSession, parse_expression
from repro.engine.storage import ColumnStore

LAYOUTS = ["row", "column"]


def _parent_table(database: Database, layout: str):
    table = database.create_table("P", [bigint("objID")],
                                  primary_key=PrimaryKey(["objID"]),
                                  storage=layout)
    table.insert_many([{"objID": value} for value in range(5)])
    return table


def _count(database: Database, where: str = "") -> int:
    sql = "select count(*) as n from P" + (f" where {where}" if where else "")
    return SqlSession(database).query(sql).rows[0]["n"]


def _index_state(table) -> dict:
    return {name: list(index.scan()) for name, index in table.indexes.items()}


class TestAtomicInsertMany:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_duplicate_against_the_table_inserts_nothing(self, layout):
        database = Database("atomic")
        table = _parent_table(database, layout)
        with pytest.raises(PrimaryKeyViolation):
            table.insert_many([{"objID": 10}, {"objID": 3}])
        assert _count(database) == 5
        assert _count(database, "objID = 3") == 1
        assert _count(database, "objID = 10") == 0
        assert table.row_count == 5
        assert len(table.storage) == 5
        assert len(table.primary_key_index()) == 5

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_duplicate_within_the_batch_inserts_nothing(self, layout):
        database = Database("atomic")
        table = _parent_table(database, layout)
        with pytest.raises(PrimaryKeyViolation):
            table.insert_many([{"objID": 7}, {"objID": 8}, {"objID": 7}])
        assert _count(database) == 5

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_every_constraint_is_checked_before_any_write(self, layout):
        database = Database("atomic")
        _parent_table(database, layout)
        child = database.create_table("C", [
            bigint("id"), bigint("parent"), text("label"),
            floating("mag", nullable=True)],
            primary_key=PrimaryKey(["id"]),
            foreign_keys=[ForeignKey(["parent"], "P", ["objID"])],
            checks=[CheckConstraint(parse_expression("mag < 30"), "mag_ok")],
            storage=layout)
        child.create_index("ix_label", ["label"])
        child.insert({"id": 1, "parent": 0, "label": "a"}, database=database)
        before = (_index_state(child), child.data_bytes,
                  child.modification_counter, len(child.storage))
        good = {"id": 2, "parent": 1, "label": "b", "mag": 20.0}
        bad_rows = [
            ({"id": 3, "parent": 99, "label": "c"}, ForeignKeyViolation),
            ({"id": 3, "parent": 1}, NotNullViolation),
            ({"id": 3, "parent": 1, "label": "c", "mag": 31.0}, CheckViolation),
        ]
        for bad, error in bad_rows:
            with pytest.raises(error):
                child.insert_many([good, bad], database=database)
            assert (_index_state(child), child.data_bytes,
                    child.modification_counter, len(child.storage)) == before

    def test_failed_bulk_never_reaches_the_wal(self, tmp_path):
        database = Database("atomic")
        table = _parent_table(database, "row")
        manager = DurabilityManager.attach(database, tmp_path)
        with pytest.raises(PrimaryKeyViolation):
            table.insert_many([{"objID": 10}, {"objID": 3}])
        table.insert_many([{"objID": 11}, {"objID": 12}])
        manager.close()
        reopened = DurabilityManager.open(tmp_path)
        assert _count(reopened.database) == 7
        assert _count(reopened.database, "objID = 3") == 1
        assert _count(reopened.database, "objID = 10") == 0
        reopened.close()

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_successful_bulk_matches_single_inserts(self, layout):
        bulk_db, single_db = Database("bulk"), Database("single")
        bulk = _parent_table(bulk_db, layout)
        single = _parent_table(single_db, layout)
        for table in (bulk, single):
            table.create_index("ix_mod", ["objID"])
        rows = [{"objID": value} for value in (40, 12, 33, 5.0, 21)]
        bulk.insert_many(rows)
        for row in rows:
            single.insert(row)
        assert _index_state(bulk) == _index_state(single)
        assert bulk.data_bytes == single.data_bytes
        assert bulk.modification_counter == single.modification_counter


class TestColumnarDeleteWhere:
    def test_predicate_decodes_only_the_columns_it_reads(self, monkeypatch):
        database = Database("lazy")
        table = database.create_table(
            "T", [bigint("objID")] + [floating(f"c{i}") for i in range(40)],
            primary_key=PrimaryKey(["objID"]), storage="column")
        table.insert_many([dict({"objID": row}, **{f"c{i}": float(row + i)
                                                   for i in range(40)})
                           for row in range(9000)])
        assert table.storage.segments()      # some rows are sealed
        decoded: list[str] = []
        original = type(table.storage.segments()[0]).decode_column

        def counting(segment, name):
            decoded.append(name)
            return original(segment, name)

        monkeypatch.setattr(type(table.storage.segments()[0]), "decode_column",
                            counting)
        read = []

        def predicate(row) -> bool:
            read.append(("objid" in row, "nope" in row, row.get("nope", 1)))
            return row["objid"] % 100 == 0
        assert table.delete_where(predicate) == 90
        assert isinstance(table.storage, ColumnStore)
        assert set(decoded) == {"objid"}
        assert decoded.count("objid") == len(table.storage.segments())
        assert read[0] == (True, False, 1)
        assert table.row_count == 8910
        assert not list(table.primary_key_index().seek((100,)))
