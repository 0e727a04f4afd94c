"""Property tests: narrow row reads never change results.

Every access operator the planner builds carries ``columns`` — the row
keys the query references on its relation — and a column store
materialises only those keys (:meth:`ColumnStore.get` /
``iter_dicts(columns)``).  The interpreter (``execute(compiled=False)``)
ignores ``columns`` and reads whole rows, so it is an independent
oracle: over a column store with two sealed segments plus an append
tail, the compiled (narrowed) path must return ``repr``-identical rows
in the same order — and fail alike — as the interpreter, and as the
same data on a row store.  NULL-heavy, ``-0.0`` and NaN values,
tombstones and vacuum are drawn by hypothesis; the storage-level tests
pin the contract (exact keys, whole-row key order, one empty dict per
live row for an empty column set, snapshot scans under appends) and
the decode bound of the row-mode top-n shape.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.engine import (Database, Planner, PrimaryKey, UnknownColumnError,
                          View, bigint, floating, integer, parse_expression,
                          text)
from repro.engine import segments
from repro.engine.operators import IndexNestedLoopJoin, TableScan
from repro.engine.segments import SEGMENT_ROWS
from repro.engine.sql import parse_select
from repro.engine.types import NULL

#: Two sealed segments; the tail comes on top.
SEALED_ROWS = 2 * SEGMENT_ROWS

#: Every SELECT either orders by a unique key or returns only counts, so
#: the row store (whose plans may read in index order) must agree too.
SINGLE_TABLE = [
    # top-n: the row-mode ORDER BY + TOP shape
    "select top 7 objid, mag from obj where mag < 20 order by mag, objid",
    # filter + project
    "select objid, mag * 2 as m2, band from obj "
    "where run = 3 and err is null order by objid",
    # a CASE reads the columns of every branch and its default
    "select objid, case when mag < 18 then band when err is null then run "
    "else type end as c from obj where run < 4 order by objid",
    # GROUP BY / HAVING
    "select band, count(*) as n, min(run) as lo from obj "
    "group by band having count(*) > 1 order by band",
    # ORDER BY a select alias, and by ordinal
    "select run as r, count(*) as n from obj where mag > 15 "
    "group by run order by r",
    "select top 5 objid as o, err from obj where type is not null "
    "order by 1 desc",
    # zero referenced columns
    "select count(*) as n from obj",
    "select 2 as two from obj order by 1",
    # whole rows
    "select top 3 * from obj where mag > 20 order by objid",
    # index seeks across the first seal boundary and into the tail
    f"select objid, mag, band from obj where objid between "
    f"{SEGMENT_ROWS - 3} and {SEGMENT_ROWS + 3} order by objid",
    f"select objid, type from obj where htmid >= {4 * SEALED_ROWS - 8} "
    f"order by objid",
    # a covering index scan on the row store (the column store scans)
    "select htmid from obj where htmid + 0 < 40 order by htmid",
    # a view that declares a column subset, narrowed and whole
    "select objid, mag from bright order by objid",
    "select objid, band from bright order by objid",
    "select top 4 * from bright order by objid desc",
]

JOINS = [
    # equality join: INLJ on the primary key or hash
    "select n.nbrid, p.mag, n.distance from nbr n join obj p "
    "on p.objid = n.objid where p.run < 5 order by n.nbrid",
    # NULL join keys
    "select n.nbrid, p.objid, p.band from nbr n join obj p on p.objid = n.nid "
    "order by n.nbrid",
    # alias.* on either side
    "select p.*, n.distance from nbr n join obj p on p.objid = n.objid "
    "order by n.nbrid",
    "select n.*, p.band from nbr n join obj p on p.objid = n.objid "
    "order by n.nbrid",
    # an unqualified name both relations have (first alias wins)
    "select objid, distance, mag from nbr n join obj p on p.objid = n.objid "
    "order by nbrid",
    # GROUP BY over a join
    "select p.band, count(*) as n from nbr n join obj p on p.objid = n.objid "
    "group by p.band order by p.band",
]

#: The range-probe join (and, with index joins off, its nested loop).
RANGE_JOIN = ("select s.spanid, p.objid, p.mag from spans s, obj p "
              "where p.htmid between s.lo and s.hi order by s.spanid, p.objid")

#: References that cannot resolve: both paths raise UnknownColumnError
#: when a row reaches them, and neither raises on an empty input.
BROKEN = [
    "select p.nosuch from obj p order by p.objid",
    "select top 3 objid from obj where nosuch > 1 order by objid",
    "select g.nosuch from obj g join nbr n on n.objid = g.objid",
    "select n.nbrid from nbr n join obj p on p.objid = n.objid "
    "where p.nosuch = n.distance",
]

SINGLE_OPTIONS = [{}, {"enable_vectorized": False}]
JOIN_OPTIONS = [{}, {"enable_index_join": False}]
RANGE_OPTIONS = [{}, {"enable_index_join": False}]


def _values(palette_strategy):
    return st.lists(palette_strategy, min_size=1, max_size=5)


_floats = st.one_of(st.none(), st.just(-0.0), st.just(0.0),
                    st.just(float("nan")),
                    st.floats(min_value=10.0, max_value=25.0,
                              allow_nan=False, width=32))


@st.composite
def datasets(draw):
    # More tail rows than tombstones: a vacuum still leaves two segments.
    rows = SEALED_ROWS + draw(st.integers(min_value=13, max_value=52))
    palettes = {
        "run": draw(_values(st.integers(min_value=0, max_value=6))),
        "mag": draw(_values(_floats)),
        "err": draw(_values(_floats)),
        "band": draw(_values(st.one_of(st.none(), st.sampled_from("ugriz")))),
        "type": draw(_values(st.one_of(st.none(),
                                       st.integers(min_value=0, max_value=3)))),
    }
    # Positions near the seal boundaries and in the tail, where the
    # segment/tail bookkeeping of a narrowed read can go wrong.
    seams = st.sampled_from([0, 1, SEGMENT_ROWS - 1, SEGMENT_ROWS,
                             SEGMENT_ROWS + 1, SEALED_ROWS - 1, SEALED_ROWS,
                             rows - 1])
    tombstones = draw(st.lists(st.one_of(seams, st.integers(0, rows - 1)),
                               max_size=12))
    neighbours = sorted(draw(st.lists(
        st.tuples(st.one_of(seams, st.integers(0, rows - 1)),
                  st.one_of(st.none(), seams), _floats),
        max_size=20)), key=lambda entry: entry[0])
    spans = draw(st.lists(
        st.tuples(st.one_of(seams, st.integers(0, rows - 1)),
                  st.one_of(st.none(), st.integers(0, 6))),
        max_size=4))
    return {"rows": rows, "palettes": palettes, "tombstones": tombstones,
            "vacuum": draw(st.booleans()), "neighbours": neighbours,
            "spans": spans}


def _null(value):
    return NULL if value is None else value


def _obj_row(index: int, palettes: dict) -> dict:
    def pick(name, stride, offset=0):
        palette = palettes[name]
        return _null(palette[(index * stride + offset) % len(palette)])
    return {"objID": index, "htmID": 4 * index, "run": pick("run", 1),
            "mag": pick("mag", 7), "err": pick("err", 3, 1),
            "band": _null(palettes["band"][(index // 64) % len(palettes["band"])]),
            "type": pick("type", 5, 2)}


def build_database(storage: str, data: dict) -> Database:
    database = Database(f"narrow_{storage}")
    obj = database.create_table("obj", [
        bigint("objID"), bigint("htmID"), integer("run"),
        floating("mag", nullable=True), floating("err", nullable=True),
        text("band", nullable=True), integer("type", nullable=True),
    ], primary_key=PrimaryKey(["objID"]), storage=storage)
    obj.insert_many(_obj_row(index, data["palettes"])
                    for index in range(data["rows"]))
    obj.create_index("ix_obj_htm", ["htmID"])
    doomed = set(data["tombstones"])
    obj.delete_where(lambda row: row["objid"] in doomed)
    if data["vacuum"]:
        obj.vacuum()
    nbr = database.create_table("nbr", [
        bigint("nbrID"), bigint("objID"), bigint("nid", nullable=True),
        floating("distance", nullable=True),
    ], storage=storage)
    nbr.insert_many({"nbrID": index + 1, "objID": objid, "nid": _null(nid),
                     "distance": _null(distance)}
                    for index, (objid, nid, distance)
                    in enumerate(data["neighbours"]))
    spans = database.create_table("spans", [
        bigint("spanID"), bigint("lo"), bigint("hi", nullable=True),
    ], storage=storage)
    spans.insert_many({"spanID": index + 1, "lo": 4 * low,
                       "hi": NULL if width is None else 4 * (low + width)}
                      for index, (low, width) in enumerate(data["spans"]))
    database.create_view(View("bright", "obj", parse_expression("mag < 20"),
                              columns=("objID", "mag")))
    database.analyze()
    return database


def _outcome(plan, *, compiled: bool):
    """The rows by ``repr`` (-0.0, NaN and int/float identity included),
    or the engine error raised."""
    try:
        return ("rows", repr(plan.execute(compiled=compiled).rows))
    except UnknownColumnError as error:
        return ("UnknownColumnError", str(error))


def _assert_parity(column_db: Database, row_db: Database, sql: str,
                   options: dict) -> None:
    plan = Planner(column_db, **options).plan(parse_select(sql))
    narrowed = _outcome(plan, compiled=True)
    context = (sql, options)
    assert narrowed == _outcome(plan, compiled=False), context
    row_plan = Planner(row_db, **options).plan(parse_select(sql))
    assert narrowed == _outcome(row_plan, compiled=True), context


@settings(max_examples=4, deadline=None)
@given(data=datasets())
def test_narrow_reads_match_whole_row_oracle(data):
    column_db = build_database("column", data)
    row_db = build_database("row", data)
    photo = column_db.table("obj").storage
    assert len(photo.segments()) >= 2 and len(photo) > SEALED_ROWS
    battery = ([(sql, options) for sql in SINGLE_TABLE for options in SINGLE_OPTIONS]
               + [(sql, options) for sql in JOINS for options in JOIN_OPTIONS]
               + [(RANGE_JOIN, options) for options in RANGE_OPTIONS]
               + [(sql, {}) for sql in BROKEN])
    for sql, options in battery:
        _assert_parity(column_db, row_db, sql, options)


@pytest.mark.parametrize("sql", BROKEN)
def test_unknown_columns_raise_on_rows_and_not_on_empty_input(sql):
    data = {"rows": SEALED_ROWS + 5,
            "palettes": {"run": [1], "mag": [18.0], "err": [None],
                         "band": ["r"], "type": [1]},
            "tombstones": [], "vacuum": False,
            "neighbours": [(3, None, 0.5)], "spans": []}
    database = build_database("column", data)
    plan = Planner(database).plan(parse_select(sql))
    with pytest.raises(UnknownColumnError):
        plan.execute()
    database.table("obj").truncate()
    database.table("nbr").truncate()
    assert plan.execute().rows == []


# ---------------------------------------------------------------------------
# The storage contract
# ---------------------------------------------------------------------------

def _obj_table(storage: str, rows: int = SEALED_ROWS + 30):
    database = Database(f"contract_{storage}")
    table = database.create_table("obj", [
        bigint("objID"), floating("mag", nullable=True), text("band"),
        integer("run"),
    ], primary_key=PrimaryKey(["objID"]), storage=storage)
    table.insert_many({"objID": index,
                       "mag": NULL if index % 5 == 0 else -0.0 if index % 7 == 0
                       else 14.0 + index % 9,
                       "band": "ugriz"[index % 5], "run": index % 3}
                      for index in range(rows))
    return database, table


def test_column_reads_return_exactly_the_asked_keys():
    _database, table = _obj_table("column")
    storage = table.storage
    for row_id in (0, 5, SEGMENT_ROWS - 1, SEGMENT_ROWS, SEALED_ROWS + 3):
        whole = storage.get(row_id)
        assert list(whole) == ["objid", "mag", "band", "run"]
        narrow = storage.get(row_id, ("run", "mag"))
        assert list(narrow) == ["run", "mag"]
        assert repr(narrow) == repr({"run": whole["run"], "mag": whole["mag"]})
        assert storage.get(row_id, ()) == {}
    wholes = list(storage.iter_rows())
    assert [list(row) for _id, row in wholes[:1]] == [["objid", "mag", "band", "run"]]
    narrowed = list(storage.iter_rows(("mag",)))
    assert [row_id for row_id, _row in narrowed] == [row_id for row_id, _row in wholes]
    assert repr([row for _id, row in narrowed]) == repr(
        [{"mag": row["mag"]} for _id, row in wholes])
    assert list(storage.iter_dicts(("band", "objid")))[SEGMENT_ROWS] == {
        "band": "ugriz"[SEGMENT_ROWS % 5], "objid": SEGMENT_ROWS}


def test_whole_rows_match_the_stored_rows_of_a_row_store():
    _db, column = _obj_table("column")
    _db, row = _obj_table("row")
    for table in (column, row):
        table.delete_where(lambda r: r["objid"] % 11 == 0
                           or r["objid"] in (SEGMENT_ROWS, SEALED_ROWS + 1))
    assert repr(list(column.storage.iter_rows())) == repr(list(row.storage.iter_rows()))
    assert repr(list(column.storage.iter_dicts())) == repr(list(row.storage.iter_dicts()))
    column.vacuum()
    row.vacuum()
    assert repr(list(column.storage.iter_rows())) == repr(list(row.storage.iter_rows()))


def test_row_store_serves_its_stored_dicts():
    _db, table = _obj_table("row", rows=20)
    stored = table.storage.slots()
    assert table.storage.get(3, ("mag",)) is stored[3]
    assert next(table.storage.iter_dicts(())) is stored[0]


def test_empty_column_set_yields_one_dict_per_live_row():
    database, table = _obj_table("column")
    table.delete_where(lambda row: row["objid"] in (0, SEGMENT_ROWS + 2,
                                                    SEALED_ROWS + 4))
    live = table.row_count
    assert list(table.storage.iter_dicts(())) == [{}] * live
    assert [row_id for row_id, _row in table.storage.iter_rows(())] == [
        row_id for row_id, _row in table.storage.iter_rows()]
    result = Planner(database).plan(
        parse_select("select 2 as two from obj order by 1")).execute()
    assert len(result.rows) == live


def test_open_scan_ignores_appends_and_seals_behind_it():
    _db, table = _obj_table("column")
    storage = table.storage
    whole = list(storage.iter_rows())
    # NULL-free columns: no mask shortens their buffers to the snapshot.
    narrow_scan = storage.iter_dicts(("objid", "run"))
    whole_scan = storage.iter_rows()
    narrow_seen, whole_seen = [next(narrow_scan)], [next(whole_scan)]
    tail = len(storage) - SEALED_ROWS
    # Enough appends to fill the tail and seal a third segment mid-scan.
    for index in range(SEGMENT_ROWS - tail + 10):
        table.insert({"objID": 10 ** 6 + index, "mag": 1.0, "band": "u", "run": 0})
    assert len(storage.segments()) == 3
    narrow_seen.extend(narrow_scan)
    whole_seen.extend(whole_scan)
    assert repr(whole_seen) == repr(whole)
    assert narrow_seen == [{"objid": row["objid"], "run": row["run"]}
                           for _row_id, row in whole]


def test_top_n_decodes_only_referenced_columns():
    database, table = _obj_table("column")
    sealed = len(table.storage.segments())
    sql = "select top 5 objid, mag from obj where mag < 20 order by mag, objid"
    plan = Planner(database).plan(parse_select(sql))
    plan.execute()
    before = segments.DECODE_EVENTS
    narrowed = plan.execute()
    assert segments.DECODE_EVENTS - before <= 2 * sealed
    before = segments.DECODE_EVENTS
    whole = plan.execute(compiled=False)
    assert segments.DECODE_EVENTS - before == 4 * sealed
    assert repr(narrowed.rows) == repr(whole.rows)


def test_planner_attaches_read_columns():
    database, _table = _obj_table("column")
    database.create_table("nbr", [bigint("objID"), floating("distance")])

    def operators(sql, **options):
        found, stack = [], [Planner(database, **options).plan(parse_select(sql)).root]
        while stack:
            operator = stack.pop()
            found.append(operator)
            stack.extend(operator.children())
        return found

    (scan,) = [op for op in operators(
        "select top 5 objid, mag from obj where Mag < 20 and nosuch = 1 "
        "order by mag") if isinstance(op, TableScan)]
    assert scan.columns == ("mag", "objid")
    (scan,) = [op for op in operators("select top 5 * from obj order by mag")
               if isinstance(op, TableScan)]
    assert scan.columns is None
    (scan,) = [op for op in operators("select count(*) from obj where 1 = 1",
                                      enable_vectorized=False)
               if isinstance(op, TableScan)]
    assert scan.columns == ()
    (join,) = [op for op in operators(
        "select n.distance, p.band from nbr n join obj p on p.objid = n.objid")
        if isinstance(op, IndexNestedLoopJoin)]
    assert join.inner_columns == ("band", "objid")
