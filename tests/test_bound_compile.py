"""Compile-time binding, the range-probe join, and the INTO plan-cache fix.

* compiled execution never resolves a name per row (no ``RowScope`` on
  the compiled path — the guard that keeps a future operator from
  quietly reintroducing it);
* ``inner.col BETWEEN outer.a AND outer.b`` over an indexed column is an
  index nested-loop join whose probe is a range seek, row for row the
  nested-loop join it replaces;
* a ``SELECT … INTO`` refills an unchanged layout in place, and a
  changed one costs only the cached plans that read the target.
"""

from __future__ import annotations

import pytest

from repro.engine import (Database, Planner, PrimaryKey, SqlSession, bigint,
                          floating, text)
from repro.engine.explain import plan_operators
from repro.engine.expressions import RowScope
from repro.engine.sql import parse_select
from repro.engine.types import NULL
from repro.skyserver.queries import DATA_MINING_QUERIES, query_by_id


# ---------------------------------------------------------------------------
# Compiled closures never resolve a name at run time
# ---------------------------------------------------------------------------

#: RowScopes one statement may still build: constant evaluation only
#: (a SET expression, a table-valued function's arguments, plan-time
#: folding) — never one per row.
CONSTANT_EVALUATIONS = 4


def test_compiled_fig13_never_touches_a_row_scope(skyserver, monkeypatch):
    calls = {"lookup": 0, "init": 0}
    original_init, original_lookup = RowScope.__init__, RowScope.lookup

    def counting_init(self):
        calls["init"] += 1
        original_init(self)

    def counting_lookup(self, name, qualifier=None):
        calls["lookup"] += 1
        return original_lookup(self, name, qualifier)

    monkeypatch.setattr(RowScope, "__init__", counting_init)
    monkeypatch.setattr(RowScope, "lookup", counting_lookup)
    for query in DATA_MINING_QUERIES:
        calls.update(lookup=0, init=0)
        result = skyserver.query(query.sql)
        assert result.statistics.exprs_compiled or result.statistics.batches_processed
        assert calls["lookup"] == 0, f"{query.query_id} resolved a name at run time"
        assert calls["init"] <= CONSTANT_EVALUATIONS, (
            f"{query.query_id} built {calls['init']} scopes "
            f"for {result.statistics.rows_scanned} scanned rows")


# ---------------------------------------------------------------------------
# The range-probe join
# ---------------------------------------------------------------------------

def _cover_database(spans, *, storage: str = "row") -> Database:
    """``photo`` (htmID-indexed) and a table-valued ``fCover()`` of spans."""
    database = Database("cover")
    photo = database.create_table("photo", [
        bigint("objID"), bigint("htmID", nullable=True), floating("mag"),
        text("name"),
    ], primary_key=PrimaryKey(["objID"]), storage=storage)
    photo.insert_many([
        {"objID": index + 1,
         "htmID": NULL if index % 17 == 0 else (index * 37) % 400,
         "mag": 14.0 + (index % 9), "name": f"o{index}"}
        for index in range(300)])
    photo.create_index("ix_photo_htm", ["htmID"])
    database.register_table_function(
        "fCover", [bigint("htmIDstart", nullable=True),
                   bigint("htmIDend", nullable=True)],
        lambda: [{"htmIDstart": low, "htmIDend": high} for low, high in spans])
    database.analyze()
    return database


def _plans(database: Database, sql: str):
    query = parse_select(sql)
    probe = Planner(database).plan(query)
    nested = Planner(database, enable_index_join=False).plan(query)
    assert "range probe photo.ix_photo_htm" in probe.explain()
    assert "Nested Loop Join" in plan_operators(nested)
    return probe, nested


# Both shapes are covered by ix_photo_htm, so the nested-loop plan scans
# that same index per cover row: rows must then agree in order too.
BETWEEN_SQL = ("select P.objID, P.htmID, C.htmIDstart from fCover() as C, photo as P "
               "where P.htmID between C.htmIDstart and C.htmIDend")
PAIR_SQL = ("select P.objID, C.htmIDend from fCover() as C, photo as P "
            "where P.htmID >= C.htmIDstart and C.htmIDend >= P.htmID")
SPANS = [(10, 60), (55, 58), (390, 900), (200, 120)]


@pytest.mark.parametrize("sql", [BETWEEN_SQL, PAIR_SQL], ids=["between", "pair"])
@pytest.mark.parametrize("spans", [
    SPANS,
    [],                                      # an empty cover
    [(NULL, 50), (10, NULL), (20, 30)],      # NULL bounds match nothing
    [(10.5, 59.5), (True, 3)],               # float and bool bounds still rank
], ids=["spans", "empty", "null-bounds", "float-bool"])
def test_range_probe_rows_equal_the_nested_loop_join(sql, spans):
    probe, nested = _plans(_cover_database(spans), sql)
    rows = probe.execute().rows
    assert repr(rows) == repr(nested.execute().rows)          # same rows, same order
    assert repr(rows) == repr(probe.execute(compiled=False).rows)
    if spans == SPANS:
        assert rows


def test_range_probe_skips_tombstoned_rows():
    database = _cover_database(SPANS)
    database.table("photo").delete_where(lambda row: row["objid"] % 3 == 0)
    probe, nested = _plans(database, BETWEEN_SQL)
    assert repr(probe.execute().rows) == repr(nested.execute().rows)


@pytest.mark.parametrize("storage", ["row", "column"])
def test_range_probe_keeps_local_predicates_in_its_residual(storage):
    # P.mag and P.name are outside the index: the nested-loop plan scans
    # the heap instead, so only the row *sets* are comparable.
    database = _cover_database(SPANS, storage=storage)
    probe, nested = _plans(
        database, "select P.objID, P.name, C.htmIDend from fCover() as C, photo as P "
                  "where P.htmID between C.htmIDstart and C.htmIDend and P.mag < 18")
    rows = probe.execute().rows
    assert rows and all(row["objID"] for row in rows)
    assert sorted(map(repr, rows)) == sorted(map(repr, nested.execute().rows))


def test_range_probe_reads_only_the_rows_in_range():
    database = _cover_database(SPANS)
    probe, nested = _plans(
        database, "select count(*) as n from fCover() as C, photo as P "
                  "where P.htmID between C.htmIDstart and C.htmIDend")
    result = probe.execute()
    matches = result.rows[0]["n"]
    assert matches == nested.execute().rows[0]["n"] > 0
    join = probe.root.children()[0].children()[0]
    assert join.actual_rows == matches
    # every fetched inner row is a match: cover rows + matches, not
    # cover rows x index entries
    assert result.statistics.rows_scanned == len(SPANS) + matches
    assert nested.last_statistics.rows_scanned > 10 * result.statistics.rows_scanned


def test_bounds_that_cannot_seek_fail_like_the_nested_loop_join():
    database = _cover_database([("a", "z")])
    probe, nested = _plans(database, BETWEEN_SQL)
    with pytest.raises(TypeError):
        nested.execute()
    with pytest.raises(TypeError):
        probe.execute()


def test_q10a_probes_the_htm_index(skyserver):
    sql = query_by_id("Q10A").sql
    text_plan = skyserver.session.explain(sql, analyze=True)
    assert "range probe PhotoObj.ix_photoobj_htm" in text_plan
    assert "Covering Index Scan" not in text_plan
    result = skyserver.query(sql)
    matches = result.scalar()
    cover_rows = len(skyserver.query(
        "select * from spHTM_Cover(185, -0.5, 3)").rows)
    assert matches > 0
    assert result.statistics.rows_scanned == cover_rows + matches
    nested = Planner(skyserver.database, enable_index_join=False).plan(
        parse_select(sql)).execute()
    assert nested.rows == result.rows
    # the row form keeps outer order x index order
    row_sql = ("select P.objID from spHTM_Cover(185, -0.5, 3) as C, PhotoObj as P "
               "where P.htmID between C.htmIDstart and C.htmIDend")
    assert repr(skyserver.query(row_sql).rows) == repr(
        Planner(skyserver.database, enable_index_join=False).plan(
            parse_select(row_sql)).execute().rows)


# ---------------------------------------------------------------------------
# SELECT ... INTO no longer flushes the plan cache
# ---------------------------------------------------------------------------

def test_second_fig13_pass_hits_the_plan_cache(skyserver):
    for query in DATA_MINING_QUERIES:
        skyserver.query(query.sql)
    version = skyserver.database.schema_version
    hits = sum(skyserver.query(query.sql).statistics.plan_cache_hits
               for query in DATA_MINING_QUERIES)
    # Q1 and Q15A perform DDL (INTO) and are never cached themselves;
    # they write two different layouts to ##results, so each replaces it
    # — which no longer costs the other twenty their plans.
    assert skyserver.database.schema_version > version
    assert hits == 20


def test_into_refills_an_unchanged_layout_in_place(toy_photo_database):
    database = toy_photo_database
    session = SqlSession(database)
    session.query("select objID, ra into ##results from PhotoObj where run = 756")
    first = database.table("##results")
    version = database.schema_version
    session.query("select objID from PhotoObj where run = 745")     # cached
    result = session.query(
        "select objID, ra into ##results from PhotoObj where run = 745")
    assert database.table("##results") is first
    assert database.schema_version == version
    assert first.row_count == len(result.rows) == 250
    assert {row["objid"] % 2 for row in first.storage.iter_dicts()} == {0}
    assert session.query(
        "select objID from PhotoObj where run = 745").statistics.plan_cache_hits == 1


def test_into_with_a_changed_layout_invalidates_the_plans_that_read_it(
        toy_photo_database):
    database = toy_photo_database
    session = SqlSession(database)
    session.query("select objID, ra into ##results from PhotoObj where run = 756")
    session.query("select objID from PhotoObj where run = 745")
    session.query("select count(*) from ##results")
    version = database.schema_version
    session.query("select objID, dec, ra into ##results from PhotoObj where run = 756")
    assert database.schema_version > version
    assert [column.name for column in database.table("##results").columns] == [
        "objID", "dec", "ra"]
    reread = session.query("select count(*), min(dec) from ##results")
    assert reread.rows == [{"count(*)": 250, "min(dec)": reread.rows[0]["min(dec)"]}]
    stale = session.query("select count(*) from ##results")
    assert stale.statistics.plan_cache_hits == 0 and stale.scalar() == 250
    # ... and only those: PhotoObj's plans never referenced ##results
    assert session.query(
        "select objID from PhotoObj where run = 745").statistics.plan_cache_hits == 1
    database.table("PhotoObj").create_index("ix_mag", ["modelMag_r"])
    assert session.query(
        "select objID from PhotoObj where run = 745").statistics.plan_cache_hits == 0
