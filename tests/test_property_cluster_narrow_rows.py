"""Property tests: shard fragments read only the columns their plan references.

Every fragment relation a cluster plan ships carries ``columns``
(:class:`repro.cluster.planner.FragmentRelation`): the single-node
planner's ``_read_columns`` over what the query references — the select
list, WHERE/ON (join keys, residuals, runtime-filter keys), GROUP BY,
HAVING, ORDER BY — plus an index path's key columns, which rank each
row for the merge; None when ``*`` needs whole rows.  A columnar shard
then builds rows holding just those keys, on every access path: the
vectorized scan, the row-mode scan and index seeks.

Over a wide PhotoObj-like table of two sealed segments plus a tail, on
1 and 4 shards under hash and zone placement, the narrowed columnar
cluster must return ``repr``-identical rows in the same order — or the
same error — as the single node reading whole rows
(``execute(compiled=False)``); the same data in row stores must agree
with the same oracle over a row store.  Statements whose order is the
access path's (index order without ORDER BY) are compared within one
storage layout; the rest order by a unique key or return counts, so
they are compared across layouts too.
"""

from __future__ import annotations

import functools
from typing import Optional

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.cluster import ClusterSession, ShardCluster  # noqa: E402
from repro.engine import (Database, Planner, PrimaryKey, bigint,  # noqa: E402
                          floating, integer, text)
from repro.engine.segments import SEGMENT_ROWS  # noqa: E402
from repro.engine.sql import parse_select  # noqa: E402
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
]

#: Rows come in the access path's order: compared within one layout.
ACCESS_ORDER = [
    # index seek / covering scan on (dec, ra), ra never named: the merge
    # ranks rows by the whole key, ra included
    "select objID, type from PhotoObj where dec between 1 and 2.5",
    # a covering scan on the row store walks (dec, ra), dec never named
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
]

#: References the table lacks: UnknownColumnError once a row reaches them.
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
    neighbors = database.create_table("Neighbors", [
        bigint("objID"), bigint("neighborObjID"),
        floating("distance", nullable=True),
    ], storage=storage)
    neighbors.insert_many({"objID": a, "neighborObjID": b, "distance": _null(d)}
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


def cluster_session(storage: str, data: dict, shards: int,
                    partition: str) -> ClusterSession:
    """The data split across ``shards``; the deletes land on the shards
    (tombstones in their stores), then the optional vacuum."""
    cluster = ShardCluster.from_database(build_database("row", data),
                                         shards=shards, partition=partition,
                                         columnar=storage == "column")
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
    sessions = {storage: cluster_session(storage, data, shards, partition)
                for storage in ("column", "row")}
    segments = [len(node.table("PhotoObj").storage.segments())
                for node in sessions["column"].cluster.shards]
    assert sum(segments) >= (2 if shards == 1 else 0)
    for sql in ORDERED + ACCESS_ORDER:
        context = (shards, partition, sql)
        narrowed = outcome(lambda: sessions["column"].query(sql))
        assert narrowed == whole_rows(oracles["column"], sql), context
        on_rows = outcome(lambda: sessions["row"].query(sql))
        assert on_rows == whole_rows(oracles["row"], sql), context
        if sql not in ACCESS_ORDER:
            assert narrowed == on_rows, context
    for sql in BROKEN:
        # A co-partitioned join builds its inner side on every shard, so
        # it can meet a row the single node never reads (an empty drive
        # side); and the interpreter words the error its own way.
        context = (shards, partition, sql)
        narrowed = outcome(lambda: sessions["column"].query(sql))
        assert narrowed == outcome(lambda: sessions["row"].query(sql)), context
        single = whole_rows(oracles["column"], sql)
        if single[0] != "rows":
            assert narrowed[0] == single[0] == "UnknownColumnError", context
        if narrowed[0] == "rows":
            assert narrowed == single, context
    expected = whole_rows(oracles["column"], INTO)
    for storage, session in sessions.items():
        assert outcome(lambda: session.query(INTO)) == expected, storage
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
    "neighbours": [(index * 53 % (SEALED_ROWS + 29), index * 31 % 400,
                    None if index % 4 == 0 else index / 50.0)
                   for index in range(60)],
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
    session = cluster_session("column", FIXED, 4, "hash")
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


def test_the_battery_engages_seeks_runtime_filters_and_covering_scans():
    """The shapes the property test relies on really are planned."""
    columnar = cluster_session("column", FIXED, 4, "hash")
    row = cluster_session("row", FIXED, 4, "hash")
    sql = ACCESS_ORDER[0]
    assert "Shard Index Seek ix_radec" in columnar.explain(sql)
    assert "Shard Covering Index Scan ix_radec" in row.explain(ACCESS_ORDER[1])
    assert "Shard Index Seek ix_type_mag" in columnar.explain(ACCESS_ORDER[2])
    join = columnar.query(ORDERED[10])
    assert join.statistics.runtime_filter_rows_pruned > 0


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
    for storage in ("column", "row"):
        session = cluster_session(storage, data, 4, "zone")
        executor = session.cluster.executor
        assert session.cluster_planner.plan(
            parse_select(sql)).aggregate_mode == "partial"
        gathers = executor.ordered_aggregate_gathers
        assert outcome(lambda: session.query(sql)) == whole_rows(
            single_node(storage, data), sql), storage
        assert executor.ordered_aggregate_gathers == gathers + 1, storage
    # Untied, NaN-free partials still merge as partials.
    data = dict(FIXED, tombstones=[], neighbours=[])
    session = cluster_session("column", data, 4, "zone")
    sql = "select min(ra) as lo, max(ra) as hi from PhotoObj where ra > 1"
    assert outcome(lambda: session.query(sql)) == whole_rows(
        single_node("column", data), sql)
    assert session.cluster.executor.ordered_aggregate_gathers == 0
