"""Property tests: runtime join filters never change results.

The same random three-table data (an Obj spine, a Nbr arm with NULLable
join keys, and a Cat lookup) is queried under runtime filters on vs
off and serial vs 4-worker morsel-parallel planners, over both row and
column layouts, and single-node vs 1-shard vs 4-shard clusters.
Every combination must return repr-identical rows.  The generators
deliberately include NULL join keys (which never join, and which a
runtime filter must therefore be free to drop) and draws where the hash
build side is larger than the probe side.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.cluster import ClusterSession, ShardCluster
from repro.engine import (Database, Planner, PrimaryKey, SqlSession, bigint,
                          floating, integer)

THREE_SQL = ("select o.objid as a, n.nbrid as b, c.kind as k, o.mag as m "
             "from obj o, nbr n, cat c "
             "where o.objid = n.objid and n.nbrid = c.objid and o.mag < 20 "
             "order by a, b, k, m")

AGG_SQL = ("select count(*) as cnt, min(o.mag) as lo, max(n.dist) as hi "
           "from obj o, nbr n "
           "where o.objid = n.objid and o.mag < 21")

# Aggregate form of the three-table join: aggregates ride the batch
# pipeline (ORDER BY queries sort row-mode), so this is the shape where
# the probe scan actually carries a runtime filter.
THREE_AGG_SQL = ("select count(*) as cnt, sum(o.mag) as s "
                 "from obj o, nbr n, cat c "
                 "where o.objid = n.objid and n.nbrid = c.objid "
                 "and o.mag < 20")

# Co-partitionable on objid = objid (both tables placed by objid).
CLUSTER_SQL = ("select o.objid as a, n.nbrid as b, n.dist as d "
               "from obj o, nbr n where o.objid = n.objid and o.mag < 20 "
               "order by a, b, d")

AFFINITY = {"obj": "objid", "nbr": "objid"}


def _build_database(storage: str, obj_rows, nbr_rows, cat_rows) -> Database:
    database = Database(f"rtf-{storage}")
    obj = database.create_table("obj", [
        bigint("objid"), floating("mag"),
    ], primary_key=PrimaryKey(["objid"]), storage=storage)
    nbr = database.create_table("nbr", [
        bigint("objid", nullable=True), bigint("nbrid", nullable=True),
        floating("dist"),
    ], storage=storage)
    cat = database.create_table("cat", [
        bigint("objid"), integer("kind"),
    ], primary_key=PrimaryKey(["objid"]), storage=storage)
    obj.insert_many({"objid": objid, "mag": mag} for objid, mag in obj_rows)
    nbr.insert_many({"objid": objid, "nbrid": nbrid, "dist": dist}
                    for objid, nbrid, dist in nbr_rows)
    cat.insert_many({"objid": objid, "kind": kind} for objid, kind in cat_rows)
    database.analyze()
    return database


def _planners(database: Database) -> dict[str, Planner]:
    return {
        "rf_off": Planner(database, enable_runtime_filters=False),
        "rf_on": Planner(database),
        "workers4_rf_on": Planner(database, parallelism=4,
                                  parallel_row_threshold=0),
    }


@st.composite
def survey(draw):
    # Sizes are drawn independently per table so either join side can be
    # the larger one — a build side bigger than its probe is a required
    # shape, not an accident.
    obj_ids = draw(st.lists(st.integers(min_value=0, max_value=400),
                            min_size=3, max_size=50, unique=True))
    obj_rows = [(objid,
                 draw(st.floats(min_value=14.0, max_value=24.0,
                                allow_nan=False, width=32)))
                for objid in obj_ids]
    key = st.one_of(st.none(), st.integers(min_value=0, max_value=400))
    nbr_rows = draw(st.lists(
        st.tuples(key, key,
                  st.floats(min_value=0.0, max_value=1.0,
                            allow_nan=False, width=32)),
        min_size=0, max_size=120))
    cat_ids = draw(st.lists(st.integers(min_value=0, max_value=400),
                            min_size=1, max_size=40, unique=True))
    cat_rows = [(objid, draw(st.integers(min_value=0, max_value=5)))
                for objid in cat_ids]
    return obj_rows, nbr_rows, cat_rows


@given(survey())
@settings(max_examples=15, deadline=None)
def test_single_node_configs_are_repr_identical(data):
    obj_rows, nbr_rows, cat_rows = data
    baseline: dict[str, str] = {}
    for storage in ("row", "column"):
        database = _build_database(storage, obj_rows, nbr_rows, cat_rows)
        for name, planner in _planners(database).items():
            session = SqlSession(database, planner=planner)
            for sql in (THREE_SQL, AGG_SQL, THREE_AGG_SQL):
                rendered = repr(session.query(sql).rows)
                if sql not in baseline:
                    baseline[sql] = rendered
                else:
                    assert rendered == baseline[sql], (storage, name, sql)


@given(survey())
@settings(max_examples=6, deadline=None)
def test_cluster_configs_are_repr_identical(data):
    obj_rows, nbr_rows, cat_rows = data
    baseline: dict[str, str] = {}
    for storage in ("row", "column"):
        single = _build_database(storage, obj_rows, nbr_rows, cat_rows)
        expected = repr(SqlSession(single).query(CLUSTER_SQL).rows)
        for shards in (1, 4):
            for runtime_filters in (True, False):
                cluster = ShardCluster.from_database(
                    _build_database(storage, obj_rows, nbr_rows, cat_rows),
                    shards=shards, affinity=AFFINITY)
                session = ClusterSession(cluster)
                session.cluster_planner.engine.enable_runtime_filters = \
                    runtime_filters
                rendered = repr(session.query(CLUSTER_SQL).rows)
                assert rendered == expected, (storage, shards, runtime_filters)
        if CLUSTER_SQL not in baseline:
            baseline[CLUSTER_SQL] = expected
        else:
            assert expected == baseline[CLUSTER_SQL], storage


def test_runtime_filter_prunes_and_preserves_results():
    """A selective build side must actually prune the probe scan."""
    obj_rows = [(objid, 14.0 + (objid % 100) * 0.1)
                for objid in range(20000)]
    # The build side covers one narrow slice of objid space, so most of
    # the probe's sealed segments are out of the build-key range.
    nbr_rows = [(100 + index % 400, 100 + (index * 7) % 400,
                 index * 0.001) for index in range(500)]
    cat_rows = [(objid, objid % 5) for objid in range(0, 401)]
    database = _build_database("column", obj_rows, nbr_rows, cat_rows)
    results = {}
    for enabled in (True, False):
        # Index joins would win on obj's primary key here; force the
        # hash path so the probe is the 20k-row columnar scan the
        # runtime filter exists to prune.
        planner = Planner(database, enable_index_join=False,
                          enable_runtime_filters=enabled)
        session = SqlSession(database, planner=planner)
        result = session.query(THREE_AGG_SQL)
        results[enabled] = repr(result.rows)
        statistics = result.statistics
        if enabled:
            assert statistics.runtime_filter_segments_pruned > 0
        else:
            assert statistics.runtime_filter_segments_pruned == 0
            assert statistics.runtime_filter_rows_pruned == 0
    assert results[True] == results[False]


def test_build_larger_than_probe_stays_identical():
    """Filters stay sound when the hash build outweighs the probe."""
    obj_rows = [(objid, 15.0 + objid * 0.01) for objid in range(40)]
    nbr_rows = [(index % 50, (index * 3) % 50, index * 0.01)
                for index in range(600)]
    cat_rows = [(objid, objid % 3) for objid in range(50)]
    for sql in (THREE_SQL, THREE_AGG_SQL):
        rendered = set()
        for storage in ("row", "column"):
            database = _build_database(storage, obj_rows, nbr_rows, cat_rows)
            for planner in _planners(database).values():
                session = SqlSession(database, planner=planner)
                rendered.add(repr(session.query(sql).rows))
        assert len(rendered) == 1, sql

