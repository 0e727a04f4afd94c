"""Property tests: shard fragments read only the columns their plan references.

Every fragment relation a cluster plan ships carries ``columns``
(:class:`repro.cluster.planner.FragmentRelation`): the single-node
planner's ``_read_columns`` over what the query references — the select
list, WHERE/ON (join keys, residuals, runtime-filter keys), GROUP BY,
HAVING, ORDER BY — plus an index path's key columns, which rank each
row for the merge; None when ``*`` needs whole rows.  A shard, a column
store, then reads just those columns on every access path: the batch
scan, index seeks and index joins.

Over a wide PhotoObj-like table of two sealed segments plus a tail, on
1 and 4 shards under hash and zone placement, the narrowed cluster
must return ``repr``-identical rows in the same order — or the same
error — as a column-store single node reading whole rows
(``execute(compiled=False)``).  Statements whose order is the access
path's (index order without ORDER BY) are compared with that oracle
only; the rest order by a unique key or return counts, so they must
match the same oracle over row stores too.
"""

from __future__ import annotations

import functools
from typing import Optional

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.cluster import ClusterSession, FallbackPlan, ShardCluster  # noqa: E402
from repro.engine import (Database, Planner, PrimaryKey, bigint,  # noqa: E402
                          floating, integer, text)
from repro.engine.segments import SEGMENT_ROWS  # noqa: E402
from repro.engine.sql import SqlSession, parse_select  # noqa: E402
from repro.engine.types import NULL  # noqa: E402

#: Two sealed segments on one shard; the tail comes on top.
SEALED_ROWS = 2 * SEGMENT_ROWS

#: Columns no statement names: what a whole-row read would pay for.
PADDING = [f"pad{index}" for index in range(8)]

#: Order by a unique key, or return counts: every layout must agree.
ORDERED = [
    # scan → filter → project, vectorizable and not
    "select objID, modelMag_r * 2 as m2, band from PhotoObj "
    "where flags = 3 and err is null order by objID",
    "select objID, err from PhotoObj where band like 'r%' order by objID",
    # partial aggregates, and an order-sensitive float SUM/AVG
    "select count(*) as n, min(modelMag_r) as lo, max(ra) as hi "
    "from PhotoObj where type >= 1",
    "select sum(modelMag_r) as s, avg(ra) as a, count(err) as e "
    "from PhotoObj where flags < 3",
    # GROUP BY / HAVING, ORDER BY a select alias and by ordinal
    "select type, count(*) as n, min(ra) as lo from PhotoObj "
    "group by type having count(*) > 1 order by type",
    "select flags as f, count(*) as n from PhotoObj where modelMag_r > 15 "
    "group by flags order by f",
    "select top 5 objID as o, err from PhotoObj where type is not null "
    "order by 1 desc",
    # TOP with ORDER BY, DISTINCT
    "select top 7 objID, modelMag_r from PhotoObj where modelMag_r < 20 "
    "order by modelMag_r, objID",
    "select distinct type from PhotoObj where flags <> 2 order by type",
    # whole rows
    "select top 3 * from PhotoObj where flags = 2 order by objID",
    # co-partitioned joins: join key not selected, a residual across both
    # sides, an aggregate over the join, alias.* on either side
    "select n.neighborObjID, p.band from Neighbors n join PhotoObj p "
    "on p.objID = n.objID where p.flags <> 4 order by n.neighborObjID, p.band",
    "select n.neighborObjID, p.ra from Neighbors n join PhotoObj p "
    "on p.objID = n.objID where n.distance * 100 < p.ra "
    "order by n.neighborObjID, p.ra",
    "select p.type, count(*) as n from Neighbors n join PhotoObj p "
    "on p.objID = n.objID group by p.type order by p.type",
    "select p.*, n.distance from Neighbors n join PhotoObj p "
    "on p.objID = n.objID order by n.neighborObjID, p.objID",
    "select n.*, p.band from Neighbors n join PhotoObj p "
    "on p.objID = n.objID order by n.neighborObjID, n.objID",
    # A self-join on Neighbors' duplicate keys is a hash join; a NULL
    # in its second key part joins nothing.
    "select n1.neighborObjID, n2.neighborObjID as m from Neighbors n1 "
    "join Neighbors n2 on n2.objID = n1.objID and n2.kind = n1.kind "
    "order by n1.neighborObjID, m",
    # PhotoObj joins probe an index; ix_obj_type takes the NULL kinds
    # too, which must seek nothing
    "select n.neighborObjID, p.band from Neighbors n join PhotoObj p "
    "on p.objID = n.objID and p.type = n.kind order by n.neighborObjID, p.band",
    # float SUM/AVG over each join strategy: ordered gathers, NULL groups
    "select sum(n.distance) as s, avg(p.ra) as a, count(*) as c "
    "from Neighbors n join PhotoObj p on p.objID = n.objID "
    "where p.type is not null",
    "select n1.kind, sum(n2.distance) as s, count(*) as c from Neighbors n1 "
    "join Neighbors n2 on n2.objID = n1.objID group by n1.kind order by n1.kind",
    # a bare * over each join strategy: a column both sides hold shows
    # the drive side's value
    "select top 40 *, p.ra as r from Neighbors n join PhotoObj p "
    "on p.objID = n.objID where p.flags <> 4 order by n.neighborObjID, p.objID",
    "select * from Neighbors n1 join Neighbors n2 on n2.objID = n1.objID "
    "and n2.kind = n1.kind order by n1.neighborObjID, n2.neighborObjID",
]

#: Rows come in the access path's order: compared with the column oracle only.
ACCESS_ORDER = [
    # index seek on (dec, ra), ra never named: the merge ranks rows by
    # the whole key, ra included
    "select objID, type from PhotoObj where dec between 1 and 2.5",
    # a scan, though ix_radec covers it (a row store would walk the index)
    "select objID, type from PhotoObj where ra between 1 and 2.5",
    # (type, modelMag_r), modelMag_r never named
    "select objID, flags from PhotoObj where type = 2",
    # TOP without ORDER BY: the first rows of the scan
    "select top 7 objID, band from PhotoObj where flags = 1",
    "select top 4 * from PhotoObj where type = 3",
    # DISTINCT in merged order
    "select distinct band, type from PhotoObj where flags <> 2",
    # a co-partitioned join in the drive side's order
    "select n.objID, p.modelMag_r from Neighbors n join PhotoObj p "
    "on p.objID = n.objID",
    # Groups in first-seen order over a hash join whose sides both hold
    # duplicate keys, so one drive row's matches carry ordinals above 0.
    # NULL and -0.0/0.0 group keys; the build side's predicate leaves a
    # runtime filter.
    "select n2.distance, count(*) as c from Neighbors n1 join Neighbors n2 "
    "on n2.objID = n1.objID where n2.neighborObjID < 300 group by n2.distance",
]

#: References the table lacks: UnknownColumnError once a row reaches them,
#: nothing over an empty input.
BROKEN = [
    "select p.nosuch from PhotoObj p",
    "select top 3 objID from PhotoObj where nosuch > 1",
    "select p.nosuch from PhotoObj p join Neighbors n on n.objID = p.objID",
    "select n.neighborObjID from Neighbors n join PhotoObj p "
    "on p.objID = n.objID where p.nosuch = n.distance",
]

#: ``SELECT ... INTO``: the new table must hold the same rows.
INTO = "select objID, ra, err into ##narrow from PhotoObj where type = 1"

LAYOUTS = [(shards, partition) for shards in (1, 4)
           for partition in ("hash", "zone")]


# -- data -----------------------------------------------------------------

def _palette(values):
    return st.lists(values, min_size=1, max_size=5)


#: Index key columns hold NULLs and -0.0 but no NaN: a NaN key leaves an
#: index in insertion order, which differs per shard.
_keys = st.one_of(st.none(), st.just(-0.0), st.just(0.0),
                  st.floats(min_value=14.0, max_value=24.0,
                            allow_nan=False, width=32))
_floats = st.one_of(_keys, st.just(float("nan")))


@st.composite
def datasets(draw):
    # More tail rows than tombstones: a vacuum still leaves two segments.
    rows = SEALED_ROWS + draw(st.integers(min_value=13, max_value=40))
    palettes = {
        "ra": draw(_palette(st.sampled_from([-0.0, 0.5, 2.0, 45.0, 300.0]))),
        "modelmag_r": draw(_palette(_keys)),
        "err": draw(_palette(_floats)),
        "type": draw(_palette(st.one_of(st.none(),
                                        st.integers(min_value=0, max_value=4)))),
        "band": draw(_palette(st.one_of(st.none(), st.sampled_from("ugriz")))),
        "pad": draw(_palette(_floats)),
    }
    seams = st.sampled_from([0, 1, SEGMENT_ROWS - 1, SEGMENT_ROWS,
                             SEALED_ROWS - 1, SEALED_ROWS, rows - 1])
    objects = st.one_of(seams, st.integers(0, rows - 1))
    return {
        "rows": rows,
        "dec_step": draw(st.sampled_from([7, 11, 13])),
        "palettes": palettes,
        "tombstones": draw(st.lists(objects, max_size=12)),
        "vacuum": draw(st.booleans()),
        "neighbours": draw(st.lists(
            st.tuples(objects, objects, st.one_of(st.none(), _keys)),
            max_size=30)),
    }


def _null(value):
    return NULL if value is None else value


def _photo_row(index: int, data: dict) -> dict:
    palettes = data["palettes"]

    def pick(name, stride, offset=0):
        palette = palettes[name]
        return _null(palette[(index * stride + offset) % len(palette)])
    row = {"objID": index, "htmID": 4 * index,
           # ~97 declinations: ties the seek's second key column breaks
           "dec": (index * data["dec_step"] % 97) / 4.0 - 12.0,
           "ra": pick("ra", 3), "type": pick("type", 5, 2),
           "modelMag_r": pick("modelmag_r", 7), "err": pick("err", 3, 1),
           "flags": index % 5,
           "band": _null(palettes["band"][(index // 64) % len(palettes["band"])])}
    row.update((name, pick("pad", 1, position))
               for position, name in enumerate(PADDING))
    return row


def build_database(storage: str, data: dict) -> Database:
    database = Database(f"cluster_narrow_{storage}")
    photo = database.create_table("PhotoObj", [
        bigint("objID"), bigint("htmID"), floating("ra"), floating("dec"),
        integer("type", nullable=True), floating("modelMag_r", nullable=True),
        floating("err", nullable=True), integer("flags"),
        text("band", nullable=True),
    ] + [floating(name, nullable=True) for name in PADDING],
        primary_key=PrimaryKey(["objID"]), storage=storage)
    photo.insert_many(_photo_row(index, data) for index in range(data["rows"]))
    photo.create_index("ix_radec", ["dec", "ra"],
                       included_columns=["type", "flags"])
    photo.create_index("ix_type_mag", ["type", "modelMag_r"],
                       included_columns=["flags"])
    photo.create_index("ix_htm", ["htmID"])
    photo.create_index("ix_obj_type", ["objID", "type"])
    neighbors = database.create_table("Neighbors", [
        bigint("objID"), bigint("neighborObjID"),
        floating("distance", nullable=True), integer("kind", nullable=True),
    ], storage=storage)
    neighbors.insert_many({"objID": a, "neighborObjID": b, "distance": _null(d),
                           "kind": None if b % 4 == 0 else b % 5}
                          for a, b, d in data["neighbours"])
    database.analyze()
    return database


def _delete(data: dict):
    doomed = set(data["tombstones"])
    return lambda row: row["objid"] in doomed


def single_node(storage: str, data: dict) -> Database:
    database = build_database(storage, data)
    photo = database.table("PhotoObj")
    photo.delete_where(_delete(data))
    if data["vacuum"]:
        photo.vacuum()
    return database


def cluster_session(data: dict, shards: int, partition: str) -> ClusterSession:
    """The data split across ``shards``; the deletes land on the shards
    (tombstones in their stores), then the optional vacuum."""
    cluster = ShardCluster.from_database(build_database("row", data),
                                         shards=shards, partition=partition)
    cluster.delete_where("PhotoObj", _delete(data))
    if data["vacuum"]:
        for node in cluster.shards:
            node.vacuum("PhotoObj")
    return ClusterSession(cluster)


# -- outcomes ---------------------------------------------------------------

def outcome(run) -> tuple[str, str]:
    """The rows by ``repr`` (-0.0, NaN, int vs float and order), or the
    engine error raised."""
    try:
        return ("rows", repr(run().rows))
    except Exception as error:
        return (type(error).__name__, str(error))


def whole_rows(database: Database, sql: str) -> tuple[str, str]:
    plan = Planner(database).plan(parse_select(sql))
    return outcome(lambda: plan.execute(compiled=False))


def assert_layout_matches(data: dict, shards: int, partition: str,
                          oracles: Optional[dict] = None) -> None:
    oracles = oracles or {storage: single_node(storage, data)
                          for storage in ("column", "row")}
    session = cluster_session(data, shards, partition)
    segments = [len(node.table("PhotoObj").storage.segments())
                for node in session.cluster.shards]
    assert sum(segments) >= (2 if shards == 1 else 0)
    for sql in ORDERED + ACCESS_ORDER:
        context = (shards, partition, sql)
        narrowed = outcome(lambda: session.query(sql))
        assert narrowed == whole_rows(oracles["column"], sql), context
        if sql not in ACCESS_ORDER:
            assert narrowed == whole_rows(oracles["row"], sql), context
    for sql in BROKEN:
        # A co-partitioned join builds its inner side on every shard, so
        # it can meet a row the single node never reads (an empty drive
        # side); and the interpreter words the error its own way.
        context = (shards, partition, sql)
        narrowed = outcome(lambda: session.query(sql))
        single = whole_rows(oracles["column"], sql)
        if single[0] != "rows":
            assert narrowed[0] == single[0] == "UnknownColumnError", context
        if narrowed[0] == "rows":
            assert narrowed == single, context
    expected = whole_rows(oracles["column"], INTO)
    assert outcome(lambda: session.query(INTO)) == expected
    written = session.cluster.coordinator.table("##narrow")
    assert repr(list(written.storage.iter_dicts())) == repr(
        list(oracles["column"].table("##narrow").storage.iter_dicts()))


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(data=datasets(), layout=st.sampled_from(LAYOUTS))
def test_narrowed_cluster_matches_whole_row_oracle(data, layout):
    assert_layout_matches(data, *layout)


# -- fixed data: every layout, and the plan shapes the battery relies on ----

FIXED = {
    "rows": SEALED_ROWS + 29, "dec_step": 7,
    "palettes": {"ra": [300.0, -0.0, 2.0], "modelmag_r": [None, 19.5, -0.0, 22.0],
                 "err": [None, float("nan"), 15.5], "type": [None, 0, 1, 2, 3, 4],
                 "band": ["r", None, "g"], "pad": [None, 1.0]},
    "tombstones": [0, SEGMENT_ROWS - 1, SEGMENT_ROWS, SEALED_ROWS + 3, 77],
    "vacuum": False,
    # Every third object has two more neighbours: duplicate join keys.
    "neighbours": [(index * 53 % (SEALED_ROWS + 29), index * 31 % 400,
                    None if index % 4 == 0 else index / 50.0)
                   for index in range(60)]
                  + [(index * 53 % (SEALED_ROWS + 29), (index * 7 + copy) % 400,
                      (-0.0, 0.0, None)[(index + copy) % 3])
                     for index in range(0, 60, 3) for copy in (1, 2)],
}


@functools.lru_cache(maxsize=None)
def fixed_oracles(vacuum: bool) -> dict:
    data = dict(FIXED, vacuum=vacuum)
    return {storage: single_node(storage, data) for storage in ("column", "row")}


@pytest.mark.parametrize("shards,partition,vacuum", [
    (1, "hash", False), (4, "hash", True), (1, "zone", True), (4, "zone", False)])
def test_fixed_data_matches_whole_row_oracle(shards, partition, vacuum):
    assert_layout_matches(dict(FIXED, vacuum=vacuum), shards, partition,
                          fixed_oracles(vacuum))


def test_fragments_carry_narrow_columns():
    session = cluster_session(FIXED, 4, "hash")
    planner = session.cluster_planner

    def plan(sql):
        return planner.plan(parse_select(sql))

    seek = plan("select objID, type from PhotoObj where dec between 1 and 2.5")
    assert seek.relation.access.kind == "seek"
    # ra ranks the merge though the statement never names it
    assert seek.relation.columns == ("dec", "objid", "ra", "type")
    scan = plan("select top 5 objID from PhotoObj where nosuch > 1 and flags = 1")
    assert scan.relation.access.kind == "scan"
    assert scan.relation.columns == ("flags", "objid")
    assert plan("select top 3 * from PhotoObj").relation.columns is None
    join = plan("select n.neighborObjID, p.band from Neighbors n "
                "join PhotoObj p on p.objID = n.objID where n.distance < p.ra")
    columns = {relation.binding: relation.columns
               for relation in (join.drive, join.inner)}
    assert columns == {"n": ("distance", "neighborobjid", "objid"),
                       "p": ("band", "objid", "ra")}
    star = plan("select p.*, n.distance from Neighbors n join PhotoObj p "
                "on p.objID = n.objID")
    columns = {relation.binding: relation.columns
               for relation in (star.drive, star.inner)}
    assert columns == {"n": ("distance", "objid"), "p": None}


def test_the_battery_engages_seeks_scans_and_runtime_filters():
    """The shapes the property test relies on really are planned."""
    columnar = cluster_session(FIXED, 4, "hash")
    assert "Shard Index Seek ix_radec" in columnar.explain(ACCESS_ORDER[0])
    assert "Shard[0] Shard Scan PhotoObj" in columnar.explain(ACCESS_ORDER[1])
    assert "Shard Index Seek ix_type_mag" in columnar.explain(ACCESS_ORDER[2])
    planner = columnar.cluster_planner

    def strategy(sql):
        return planner.plan(parse_select(sql)).strategy

    # PhotoObj joins probe its indexes per drive row, NULL keys included
    assert strategy(ORDERED[10]) == strategy(ORDERED[16]) == "index"
    probe = planner.plan(parse_select(ORDERED[16]))
    assert probe.inner.access.index_name == "ix_obj_type"
    assert columnar.query(ORDERED[10]).statistics.random_lookups > 0
    # Neighbors self-joins hash, push a runtime filter and match one
    # drive row more than once (ordinals above 0)
    assert strategy(ORDERED[15]) == strategy(ACCESS_ORDER[-1]) == "hash"
    grouped = planner.plan(parse_select(ACCESS_ORDER[-1]))
    assert grouped.aggregate_mode == "partial"
    assert columnar.query(ACCESS_ORDER[-1]).statistics.runtime_filter_rows_pruned > 0
    objects = [a for a, _b, _d in FIXED["neighbours"]]
    assert len(set(objects)) < len(objects)
    assert planner.plan(parse_select(ORDERED[17])).aggregate_mode == "ordered"
    assert planner.plan(parse_select(ORDERED[18])).aggregate_mode == "ordered"


@pytest.mark.parametrize("sql", BROKEN)
def test_unknown_columns_raise_on_shard_rows_and_not_on_empty_shards(sql):
    """The batch fragment raises at the first selected position, so a
    shard whose rows are all deleted raises nothing."""
    session = cluster_session(dict(FIXED, tombstones=[]), 4, "hash")
    assert not isinstance(session.cluster_planner.plan(parse_select(sql)),
                          FallbackPlan)
    assert outcome(lambda: session.query(sql))[0] == "UnknownColumnError"
    for name in ("PhotoObj", "Neighbors"):
        session.cluster.delete_where(name, lambda row: True)
    assert outcome(lambda: session.query(sql)) == ("rows", "[]")


@pytest.mark.parametrize("palette,dec_step,where", [
    # 0.0 and -0.0 tie: MIN/MAX keep the first one the scan meets
    ([None, -0.0, 0.0], 7, "where dec > -3"),
    ([None, -0.0, 0.0], 13, "where dec > -3"),
    # a NaN poisons the comparisons the first rows make
    ([None, float("nan"), None, -0.0, 19.5], 13, ""),
])
def test_shard_float_min_max_match_the_single_node(palette, dec_step, where):
    """Shard partials merge in shard order, not scan order: when float
    MIN/MAX partials tie or hold NaN (in shard order these data answer
    0.0 and NaN), the merge re-runs as an ordered gather and keeps the
    first row's value."""
    data = dict(FIXED, dec_step=dec_step, tombstones=[], neighbours=[],
                palettes=dict(FIXED["palettes"], modelmag_r=palette))
    sql = ("select min(modelMag_r) as lo, max(modelMag_r) as hi "
           f"from PhotoObj {where}")
    session = cluster_session(data, 4, "zone")
    executor = session.cluster.executor
    assert session.cluster_planner.plan(
        parse_select(sql)).aggregate_mode == "partial"
    assert outcome(lambda: session.query(sql)) == whole_rows(
        single_node("column", data), sql)
    assert executor.ordered_aggregate_gathers == 1
    # Untied, NaN-free partials still merge as partials.
    data = dict(FIXED, tombstones=[], neighbours=[])
    session = cluster_session(data, 4, "zone")
    sql = "select min(ra) as lo, max(ra) as hi from PhotoObj where ra > 1"
    assert outcome(lambda: session.query(sql)) == whole_rows(
        single_node("column", data), sql)
    assert session.cluster.executor.ordered_aggregate_gathers == 0


@pytest.mark.parametrize("shards", [1, 4])
def test_join_groups_surface_in_their_first_matches_order(shards):
    """Two groups first meet on one drive row, in one order there and in
    the other on a shard the merge reads first.  Each group's merge key
    is its first row's — the drive row's key plus the match's ordinal —
    and only the ordinal puts the two in the single node's order."""
    from repro.cluster.partition import stable_hash

    early, late = (next(objid for objid in range(100)
                        if stable_hash(objid) % 4 == shard) for shard in (0, 1))
    # kind = None if neighborObjID % 4 == 0 else neighborObjID % 5: the
    # first drive row (late's) meets kind 0 then NULL, early's NULL then 0.
    data = dict(FIXED, tombstones=[], neighbours=[
        (late, 10, 0.5), (late, 20, 1.5), (early, 40, 2.5), (early, 30, 3.5)])
    sql = ("select n2.kind, count(*) as c from Neighbors n1 join Neighbors n2 "
           "on n2.objID = n1.objID where n2.neighborObjID < 1000 "
           "group by n2.kind")
    session = cluster_session(data, shards, "hash")
    if shards == 4:
        placement = session.cluster.placement("Neighbors")
        assert [placement.shard_of_value(objid) for objid in (early, late)] == [0, 1]
    plan = session.cluster_planner.plan(parse_select(sql))
    assert (plan.strategy, plan.inner.binding, plan.aggregate_mode) == (
        "hash", "n2", "partial")
    expected = whole_rows(single_node("column", data), sql)
    assert expected == ("rows", "[{'kind': 0, 'c': 4}, {'kind': None, 'c': 4}]")
    assert outcome(lambda: session.query(sql)) == expected


def _magnitudes(storage: str) -> Database:
    db = Database(f"nulls_{storage}")
    photo = db.create_table("PhotoObj", [
        bigint("objID"), floating("dec"), floating("mag", nullable=True),
    ], primary_key=PrimaryKey(["objID"]), storage=storage)
    # NULL magnitudes only in the northern half: zone shards split on
    # dec, so some shards hold NULLs and some do not.
    photo.insert_many({"objID": index, "dec": index / 100.0,
                       "mag": NULL if index > 600 and index % 3 == 0
                       else 15.0 + index % 7}
                      for index in range(1200))
    db.analyze()
    return db


def _magnitude_shards() -> ClusterSession:
    cluster = ShardCluster.from_database(_magnitudes("row"), shards=4,
                                         partition="zone")
    return ClusterSession(cluster)


def test_shards_share_compiles_only_where_nulls_match():
    """A scatter's fragments share their vector compiles, and a compile
    for a shard whose column holds no NULL reads the column unmasked: a
    shard whose column holds NULLs must compile its own."""
    # Shard 0 (no NULL) compiles first; a NULL row read unmasked would
    # pass the filter with whatever its buffer slot holds.
    sql = "select objID, mag + 1 as m from PhotoObj where mag < 100 order by objID"
    session = _magnitude_shards()
    nulls = [node.table("PhotoObj").storage.column_null_count("mag") > 0
             for node in session.cluster.shards]
    assert True in nulls and False in nulls
    assert outcome(lambda: session.query(sql)) == whole_rows(
        _magnitudes("column"), sql)


def test_a_cached_statement_follows_its_variables_types():
    """Variables compile to typed constants.  A cached statement run
    again with an equal value of another type (3 then 3.0, 0.0 then
    -0.0) must answer as the single node does, which compiles anew."""
    sql = ("select objID, objID / @x as q, mag * @s as z from PhotoObj "
           "where objID < 700 and objID % 50 = 1 order by objID")
    session = _magnitude_shards()
    single = SqlSession(_magnitudes("column"))
    answers = set()
    for x, s in ((3, 0.0), (3.0, -0.0), (3, -0.0), (3.0, 0.0)):
        for target in (session, single):
            target.set_variable("x", x)
            target.set_variable("s", s)
        answer = outcome(lambda: session.query(sql))
        assert answer == outcome(lambda: single.query(sql)), (x, s)
        answers.add(answer)
    assert len(answers) == 4
    assert session.plan_cache.hits >= 3
