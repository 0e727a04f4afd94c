"""§9.4: the write path costs what a write changes, not what the table holds.

The paper calls loading "very cpu intensive": conversion, constraint
checks and index maintenance.  A live archive also takes incremental
loads while it is queried, so three ratios of the write path are gated
here — ratios only, so the gate holds on any host:

* **bulk vs single** — on a ~5k-row table with 8 indexes, ``insert_many``
  costs no more per row than ``insert``: a bulk is validated once and
  merged into each index, never re-sorted in full.
* **equal-key runs** — deleting 50 rows that sit in a 4k-entry run of
  one key (as PhotoObj rows without a spectrum share ``specObjID = 0``)
  costs at most 3x deleting 50 rows with unique keys: a remove bisects
  to its ``(key, row id)`` entry instead of walking the run.
* **large bulk** — a 100k-row ``insert_many`` into an empty indexed
  table costs at most 2x the ``defer_index_sort`` + ``rebuild_indexes``
  load path: a large batch merges in one pass and never goes quadratic.
"""

from __future__ import annotations

import gc
import time

from conftest import print_report
from repro.bench import ExperimentReport
from repro.engine import (CURRENT_TIMESTAMP, Database, PrimaryKey, bigint,
                          floating, integer, timestamp)

TABLE_ROWS = 5_000
RUN_ROWS = 4_000
BATCH_ROWS = 50
LARGE_BULK_ROWS = 100_000

BULK_PER_ROW_CEILING = 1.0
RUN_DELETE_CEILING = 3.0
LARGE_BULK_CEILING = 2.0

BANDS = "ugriz"


def _photo_table(database: Database):
    """A PhotoObj-like table: primary key plus seven secondary indexes."""
    table = database.create_table("PhotoObj", [
        bigint("objID"), bigint("specObjID"), bigint("parentID"),
        integer("run"), integer("camcol"), integer("field"), integer("type"),
        floating("ra"), floating("dec"), bigint("htmID"), bigint("flags"),
        *[floating(f"mag_{band}") for band in BANDS],
        timestamp("insertTime", default=CURRENT_TIMESTAMP)],
        primary_key=PrimaryKey(["objID"]))
    table.create_index("ix_spec", ["specObjID"])
    table.create_index("ix_parent", ["parentID"])
    table.create_index("ix_htm", ["htmID"])
    table.create_index("ix_field", ["run", "camcol", "field"])
    table.create_index("ix_type_mag", ["type", "mag_r"])
    table.create_index("ix_radec", ["ra", "dec"])
    table.create_index("ix_flags", ["flags"])
    return table


def _photo_row(obj_id: int, spec_id: int = 0) -> dict:
    """One row whose keys are unique in every index but ``ix_spec``."""
    row = {"objID": obj_id, "specObjID": spec_id, "parentID": obj_id * 3,
           "run": 752 + obj_id % 3, "camcol": 1 + obj_id % 6,
           "field": obj_id, "type": 3 + obj_id % 4 // 2,
           "ra": (obj_id * 0.37) % 360.0, "dec": (obj_id * 0.11) % 90.0 - 45.0,
           "htmID": (obj_id * 2654435761) % (1 << 40), "flags": obj_id}
    for offset, band in enumerate(BANDS):
        row[f"mag_{band}"] = 14.0 + (obj_id * (offset + 3)) % 900 / 100.0
    return row


def _timed(thunk) -> float:
    started = time.perf_counter()
    thunk()
    return time.perf_counter() - started


def test_insert_many_per_row_within_single_insert():
    database = Database("write-path")
    table = _photo_table(database)
    table.insert_many([_photo_row(obj_id) for obj_id in range(TABLE_ROWS)])
    next_id = TABLE_ROWS
    single_us, bulk_us = [], []
    for _round in range(5):
        singles = [_photo_row(obj_id) for obj_id in range(next_id, next_id + BATCH_ROWS)]
        next_id += BATCH_ROWS
        single_us.append(_timed(lambda: [table.insert(row) for row in singles])
                         / BATCH_ROWS * 1e6)
        bulk = [_photo_row(obj_id) for obj_id in range(next_id, next_id + BATCH_ROWS)]
        next_id += BATCH_ROWS
        bulk_us.append(_timed(lambda: table.insert_many(bulk)) / BATCH_ROWS * 1e6)
    single, many = sorted(single_us)[2], sorted(bulk_us)[2]
    ratio = many / single

    report = ExperimentReport(
        "§9.4 — bulk insert versus single inserts (8 indexes)",
        f"Median of 5 rounds of {BATCH_ROWS} rows into a "
        f"{TABLE_ROWS}-row table.")
    report.add("insert per row", "", round(single, 1), unit="us")
    report.add("insert_many per row", "", round(many, 1), unit="us")
    report.add("insert_many / insert", f"<= {BULK_PER_ROW_CEILING}",
               round(ratio, 2))
    print_report(report)
    assert table.row_count == TABLE_ROWS + 10 * BATCH_ROWS
    assert ratio <= BULK_PER_ROW_CEILING


def test_delete_in_equal_key_run_within_3x_unique_keys():
    database = Database("write-path")
    table = _photo_table(database)
    # specObjID 0 for the first RUN_ROWS rows, unique for the rest.
    rows = [_photo_row(obj_id, 0 if obj_id < RUN_ROWS else obj_id)
            for obj_id in range(TABLE_ROWS)]
    table.insert_many(rows)
    in_run = rows[RUN_ROWS // 2:RUN_ROWS // 2 + BATCH_ROWS]
    unique = rows[-BATCH_ROWS:]

    def delete_and_restore(victims: list[dict]) -> float:
        doomed = {row["objID"] for row in victims}
        elapsed = _timed(lambda: table.delete_where(
            lambda row: row["objid"] in doomed))
        table.insert_many(victims)
        return elapsed

    run_s = min(delete_and_restore(in_run) for _ in range(3))
    unique_s = min(delete_and_restore(unique) for _ in range(3))
    ratio = run_s / unique_s

    report = ExperimentReport(
        "§9.4 — deletes inside a long run of one index key",
        f"delete_where of {BATCH_ROWS} rows, best of 3, {TABLE_ROWS}-row table.")
    report.add(f"rows in a {RUN_ROWS}-entry run", "", round(run_s * 1e3, 2), unit="ms")
    report.add("rows with unique keys", "", round(unique_s * 1e3, 2), unit="ms")
    report.add("run / unique", f"<= {RUN_DELETE_CEILING}", round(ratio, 2))
    print_report(report)
    assert len(table.indexes["ix_spec"]) == TABLE_ROWS
    assert ratio <= RUN_DELETE_CEILING


def _large_table(database: Database):
    table = database.create_table("Neighbors", [
        bigint("objID"), bigint("neighborObjID"), floating("distance"),
        integer("mode")], primary_key=PrimaryKey(["objID", "neighborObjID"]))
    table.create_index("ix_neighbor", ["neighborObjID"])
    table.create_index("ix_distance", ["distance"])
    return table


def test_large_bulk_within_2x_deferred_rebuild():
    rows = [{"objID": pair // 4, "neighborObjID": (pair * 7919) % LARGE_BULK_ROWS,
             "distance": (pair * 0.618) % 0.5, "mode": pair % 3}
            for pair in range(LARGE_BULK_ROWS)]

    def deferred() -> float:
        table = _large_table(Database("deferred"))

        def load() -> None:
            for row in rows:
                table.insert(row, defer_index_sort=True)
            table.rebuild_indexes()
        return _timed(load)

    def bulk() -> float:
        table = _large_table(Database("bulk"))
        return _timed(lambda: table.insert_many(rows))

    gc.collect()
    deferred_s = deferred()
    gc.collect()
    bulk_s = bulk()
    ratio = bulk_s / deferred_s

    report = ExperimentReport(
        "§9.4 — a large bulk into an empty indexed table",
        f"{LARGE_BULK_ROWS} rows, 3 indexes.")
    report.add("defer_index_sort + rebuild_indexes", "", round(deferred_s, 3), unit="s")
    report.add("insert_many", "", round(bulk_s, 3), unit="s")
    report.add("insert_many / deferred", f"<= {LARGE_BULK_CEILING}", round(ratio, 2))
    print_report(report)
    assert ratio <= LARGE_BULK_CEILING
