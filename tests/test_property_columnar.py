"""Property tests: ColumnStore and RowStore are observationally identical.

The same random data is loaded into a row-backed and a column-backed
table, a random single-table query (filter / projection / aggregation /
ORDER BY / TOP) runs against both, and the results must match exactly —
the column-backed run through the vectorized batch pipeline over
column buffers, the row-backed run through the same pipeline reading
the stored row dicts.  A second pass
deletes a random subset, vacuums both stores and re-checks.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (Database, Planner, PrimaryKey, bigint, boolean,
                          floating, text)
from repro.engine.sql import parse_select


ROW_STRATEGY = st.lists(
    st.tuples(
        st.one_of(st.none(),
                  st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)),
        st.integers(min_value=-255, max_value=255),
        st.sampled_from(["star", "galaxy", "Star", "QSO", ""]),
        st.booleans(),
    ),
    min_size=0, max_size=80)

PREDICATES = [
    "value > 10",
    "value is not null and value < 0",
    "flags & 3 = 1",
    "flags between 16 and 200",
    "label = 'star'",
    "label in ('star', 'QSO')",
    "label like 's%'",
    "value > -100 and flags % 7 = 2",
    "flags / 2 >= 10 or value is null",
    "label between 'B' and 'b'",          # case-SENSITIVE, unlike =/</<=
    "not (flags > 100) and -flags < 50",
    "ok & 1 = 1",
    "(flags | 8) % 3 = 0 and label >= 'Q'",
]

PROJECTIONS = [
    "id, value, flags, label",
    "id, value * 2 - 1 as v2, flags & 15 as low",
    "id, ok & ok as both, -flags as neg",  # bool bitwise must yield ints
    "*",
]

AGGREGATES = [
    "count(*) as n",
    "count(*) as n, min(value) as lo, max(value) as hi, avg(flags) as af",
    "label, count(*) as n, sum(flags) as s",        # GROUP BY label
    "count(distinct label) as d",
]


def _build_pair(rows):
    databases = []
    for storage in ("row", "column"):
        database = Database(f"prop-{storage}")
        table = database.create_table("t", [
            bigint("id"), floating("value", nullable=True),
            bigint("flags"), text("label", nullable=True), boolean("ok"),
        ], primary_key=PrimaryKey(["id"]), storage=storage)
        table.insert_many(
            {"id": index, "value": value, "flags": flags,
             "label": label or None, "ok": ok}
            for index, (value, flags, label, ok) in enumerate(rows))
        databases.append(database)
    return databases


def _run(database, sql):
    plan = Planner(database).plan(parse_select(sql))
    result = plan.execute()
    return result.rows, result.statistics


def _queries(predicate_index, projection_index, aggregate_index,
             order_desc, top):
    predicate = PREDICATES[predicate_index % len(PREDICATES)]
    projection = PROJECTIONS[projection_index % len(PROJECTIONS)]
    aggregate = AGGREGATES[aggregate_index % len(AGGREGATES)]
    top_clause = f"top {top} " if top else ""
    direction = "desc" if order_desc else ""
    queries = [
        f"select {top_clause}{projection} from t where {predicate}",
        f"select {projection} from t where {predicate} order by id {direction}",
    ]
    if aggregate.startswith("label,"):
        queries.append(f"select {aggregate} from t where {predicate} group by label")
    else:
        queries.append(f"select {aggregate} from t where {predicate}")
    return queries


@given(rows=ROW_STRATEGY,
       predicate_index=st.integers(min_value=0, max_value=63),
       projection_index=st.integers(min_value=0, max_value=63),
       aggregate_index=st.integers(min_value=0, max_value=63),
       order_desc=st.booleans(),
       top=st.integers(min_value=0, max_value=7))
@settings(max_examples=40)
def test_column_store_matches_row_store(rows, predicate_index, projection_index,
                                        aggregate_index, order_desc, top):
    row_db, col_db = _build_pair(rows)
    for sql in _queries(predicate_index, projection_index, aggregate_index,
                        order_desc, top):
        row_rows, _ = _run(row_db, sql)
        col_rows, _ = _run(col_db, sql)
        assert col_rows == row_rows, sql
        # Dict equality treats True == 1; require identical value types
        # too (the interpreter's bitwise ops return ints, never bools).
        assert [[type(value) for value in row.values()] for row in col_rows] == \
            [[type(value) for value in row.values()] for row in row_rows], sql


@given(rows=ROW_STRATEGY,
       predicate_index=st.integers(min_value=0, max_value=63),
       modulus=st.integers(min_value=2, max_value=5))
@settings(max_examples=40)
def test_vacuum_preserves_results_on_both_stores(rows, predicate_index, modulus):
    row_db, col_db = _build_pair(rows)
    sql = (f"select id, value, flags, label from t "
           f"where {PREDICATES[predicate_index % len(PREDICATES)]} order by id")
    for database in (row_db, col_db):
        table = database.table("t")
        table.delete_where(lambda row: row["id"] % modulus == 0)
    before_row, _ = _run(row_db, sql)
    before_col, _ = _run(col_db, sql)
    assert before_col == before_row
    for database in (row_db, col_db):
        table = database.table("t")
        dead = table.tombstone_count
        assert table.vacuum() == dead
        assert table.tombstone_count == 0
    after_row, _ = _run(row_db, sql)
    after_col, _ = _run(col_db, sql)
    assert after_row == before_row
    assert after_col == before_col
