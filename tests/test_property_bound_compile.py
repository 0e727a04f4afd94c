"""Property test: bound-compiled execution ≡ the interpreter.

Compiled execution resolves every column reference once per execution
against the operators' layouts (``binding[alias][key]``); the
interpreter (``execute(compiled=False)``) resolves names per row through
a ``RowScope`` and is the oracle.  Over random 2–3-table joins on row and
column storage, under every join strategy the planner can be pinned to,
the two must return ``repr``-identical rows — and fail alike: an unknown
column or alias raises ``UnknownColumnError`` exactly when the
interpreter does, which over an empty input is not at all.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.engine import (Database, Planner, PrimaryKey, UnknownColumnError,
                          bigint, floating, integer)
from repro.engine.sql import parse_select
from repro.engine.types import NULL

#: Join shapes with the reference spellings that must all bind alike:
#: mixed case (``g.objId`` vs ``objID``), unqualified names two aliases
#: share (first alias wins), a table-valued function alias, residual
#: predicates, and aggregates referenced by alias, by qualified name and
#: by SQL text above the aggregation.
QUERIES = [
    # mixed-case qualified references + residual predicates
    "select g.objId, G.MAG, n.Distance from obj g join nbr n on n.OBJID = g.objid "
    "where g.mag < 21 and n.distance + g.mag > 14",
    # unqualified names present in two aliases: the first alias wins
    # (objID differs between the two: n.objID vs s.objID = n.neighborObjID)
    "select objID, distance, z from nbr n join spec s on s.objID = n.neighborObjID "
    "where distance < 0.8 order by objID, specID",
    # a table-valued function alias, ordered by its unqualified column
    "select G.objID, GN.distance from obj as G join fNear(40) as GN "
    "on G.objID = GN.objID where (G.run & 1) = 0 order by distance",
    # three tables, NULL join keys on both hops, a cross-table residual
    "select n.objID, n.neighborObjID, s.z from nbr n "
    "join obj p1 on p1.objID = n.objID "
    "join spec s on s.objID = n.neighborObjID "
    "where p1.mag < s.z * 10 + 18",
    # non-equality join (nested loop / range probe) with a star
    "select c.lo, p.* from fSpans(3) as c, obj as p "
    "where p.objID between c.lo and c.hi",
    # aggregate referenced by alias
    "select n.objID, count(*) as companions from nbr n "
    "join obj p on p.objID = n.objID group by n.objID "
    "having count(*) >= 2 order by companions desc, n.objID",
    # ... by qualified name above the aggregate
    "select n.objID, min(n.distance) from nbr n join obj p on p.objID = n.objID "
    "where p.mag < 23 group by n.objID order by n.objID desc",
    # ... and by SQL text (aggregate and group expression)
    "select p.run % 3, count(*), avg(p.mag) from obj p "
    "join nbr n on n.objID = p.objID group by p.run % 3 "
    "having avg(p.mag) > 10 order by count(*) desc, p.run % 3",
]

#: References that cannot resolve: compiled must fail per row, like the
#: interpreter, and therefore not at all on an empty input.
BROKEN = [
    "select g.nosuch from obj g join nbr n on n.objID = g.objID",
    "select x.objID + 1 from obj g join nbr n on n.objID = g.objID",
    "select g.objID from obj g join nbr n on n.objID = g.objID "
    "where nosuch + n.distance > 0",
    "select n.objID, count(*) from nbr n join obj p on p.objID = n.objID "
    "group by n.objID order by p.mag",
]

PLANNERS = [
    {},
    {"enable_index_join": False},
    {"enable_index_join": False, "enable_hash_join": False},
    {"enable_sort_merge": True, "enable_index_join": False},
    {"enable_cbo": False},
    {"enable_dp_joins": True},
]

_keys = st.one_of(st.none(), st.integers(min_value=1, max_value=30))


@st.composite
def datasets(draw):
    objects = draw(st.lists(
        st.tuples(st.integers(min_value=700, max_value=760),
                  st.one_of(st.none(),
                            st.floats(min_value=12.0, max_value=25.0,
                                      allow_nan=False, width=32))),
        max_size=30))
    neighbors = draw(st.lists(
        st.tuples(_keys, _keys,
                  st.floats(min_value=0.0, max_value=1.0, allow_nan=False,
                            width=32)),
        max_size=60))
    spectra = draw(st.lists(
        st.tuples(_keys, st.floats(min_value=0.0, max_value=0.5,
                                   allow_nan=False, width=32)),
        max_size=20))
    return objects, neighbors, spectra


def _null(value):
    return NULL if value is None else value


def build_database(storage: str, data) -> Database:
    objects, neighbors, spectra = data
    database = Database(f"bound_{storage}")
    obj = database.create_table("obj", [
        bigint("objID"), integer("run"), floating("mag", nullable=True),
    ], primary_key=PrimaryKey(["objID"]), storage=storage)
    nbr = database.create_table("nbr", [
        bigint("objID", nullable=True), bigint("neighborObjID", nullable=True),
        floating("distance"),
    ], storage=storage)
    spec = database.create_table("spec", [
        bigint("specID"), bigint("objID", nullable=True), floating("z"),
    ], primary_key=PrimaryKey(["specID"]), storage=storage)
    obj.insert_many([{"objID": index + 1, "run": run, "mag": _null(mag)}
                     for index, (run, mag) in enumerate(objects)])
    nbr.insert_many([{"objID": _null(left), "neighborObjID": _null(right),
                      "distance": distance}
                     for left, right, distance in neighbors])
    spec.insert_many([{"specID": index + 1, "objID": _null(objid), "z": z}
                      for index, (objid, z) in enumerate(spectra)])
    nbr.create_index("ix_nbr_obj", ["objID"])
    database.register_table_function(
        "fNear", [bigint("objID"), floating("distance")],
        lambda limit: [{"objid": objid, "DISTANCE": objid / 40.0}
                       for objid in range(1, int(limit), 3)])
    database.register_table_function(
        "fSpans", [bigint("lo"), bigint("hi", nullable=True)],
        lambda count: [{"lo": 4 * index, "hi": 4 * index + 2 if index else NULL}
                       for index in range(int(count))])
    database.analyze()
    return database


def _outcome(plan, *, compiled: bool):
    """The rows (by repr: -0.0 vs 0.0 and int vs float must match too),
    or the engine error raised."""
    try:
        return ("rows", repr(plan.execute(compiled=compiled).rows))
    except UnknownColumnError as error:
        return ("UnknownColumnError", str(error))


def _assert_parity(data, storage, options, sql):
    database = build_database(storage, data)
    plan = Planner(database, **options).plan(parse_select(sql))
    assert _outcome(plan, compiled=True) == _outcome(plan, compiled=False)


@pytest.mark.parametrize("options", PLANNERS, ids=repr)
@pytest.mark.parametrize("sql", QUERIES)
@settings(max_examples=8, deadline=None)
@given(data=datasets(), storage=st.sampled_from(["row", "column"]))
def test_bound_compiled_rows_match_interpreter(data, storage, options, sql):
    _assert_parity(data, storage, options, sql)


@pytest.mark.parametrize("options", PLANNERS, ids=repr)
@pytest.mark.parametrize("sql", BROKEN)
@settings(max_examples=6, deadline=None)
@given(data=datasets(), storage=st.sampled_from(["row", "column"]))
def test_unresolved_references_fail_exactly_like_the_interpreter(
        data, storage, options, sql):
    _assert_parity(data, storage, options, sql)


@pytest.mark.parametrize("storage", ["row", "column"])
@pytest.mark.parametrize("sql", BROKEN)
def test_unresolved_reference_raises_on_rows_and_not_on_empty_input(storage, sql):
    populated = build_database(storage, (
        [(756, 18.0), (745, 19.5)], [(1, 2, 0.25), (2, 1, 0.5)], [(1, 0.1)]))
    with pytest.raises(UnknownColumnError):
        Planner(populated).plan(parse_select(sql)).execute()
    empty = build_database(storage, ([], [], []))
    assert Planner(empty).plan(parse_select(sql)).execute().rows == []
