"""Property suite: sharded execution ≡ single-node execution.

For random data, every cluster layout (1/2/4/7 shards × hash/zone
placement) must return *exactly* the rows — same values, same order —
the single-node engine returns over column stores, the shards' layout, across filters, aggregates (including
order-sensitive float SUM/AVG), TOP-N with and without ORDER BY,
DISTINCT, and co-partitioned Neighbors joins (shard-local under hash
placement everywhere, and under zone placement through the derived
child routing).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import ClusterSession, ShardCluster
from repro.engine import (Database, NULL, PrimaryKey, SqlSession, bigint,
                          floating, integer)

LAYOUTS = [(shards, partition)
           for shards in (1, 2, 4, 7)
           for partition in ("hash", "zone")]


def build_database(objects, neighbor_pairs, storage: str = "row") -> Database:
    """PhotoObj + Neighbors (the names drive the derived zone placement)."""
    database = Database("property-cluster")
    photo = database.create_table(
        "PhotoObj",
        [bigint("objID"), integer("type"), floating("dec"),
         floating("mag", nullable=True), integer("flags")],
        primary_key=PrimaryKey(["objID"]), storage=storage)
    neighbors = database.create_table(
        "Neighbors",
        [bigint("objID"), bigint("neighborObjID"), floating("distance")],
        primary_key=PrimaryKey(["objID", "neighborObjID"]), storage=storage)
    photo.insert_many(
        {"objID": objid, "type": type_, "dec": dec,
         "mag": NULL if mag is None else mag, "flags": flags}
        for objid, type_, dec, mag, flags in objects)
    neighbors.insert_many(
        {"objID": a, "neighborObjID": b, "distance": distance}
        for a, b, distance in neighbor_pairs)
    database.analyze()
    return database


def query_battery(threshold: float, top: int) -> list[str]:
    return [
        # filters (sargable + residual, NULL-aware)
        f"select objID, mag from PhotoObj where mag < {threshold}",
        f"select objID from PhotoObj where type = 1 and dec > {threshold - 20}",
        # aggregates: exact partials (count/min/max/int-sum) and
        # order-sensitive float SUM/AVG (the ordered-input gather)
        "select count(*) as n, min(mag) as lo, max(mag) as hi from PhotoObj",
        "select sum(type) as s, avg(type) as a from PhotoObj",
        f"select sum(mag) as s, avg(mag) as a from PhotoObj where dec < {threshold}",
        "select type, count(*) as n, avg(mag) as m from PhotoObj "
        "group by type order by n desc",
        # TOP-N with and without ORDER BY; DISTINCT union
        f"select top {top} objID from PhotoObj where type >= 1",
        f"select top {top} objID, mag from PhotoObj order by mag desc",
        "select distinct type from PhotoObj",
        f"select distinct flags from PhotoObj where dec > {threshold - 25}",
        # co-partitioned Neighbors joins (+ aggregation over the join)
        "select n.objID, n.neighborObjID, p.mag from Neighbors n "
        "join PhotoObj p on p.objID = n.objID where n.distance < 0.5",
        "select n.objID, count(*) as companions from Neighbors n "
        "join PhotoObj p on p.objID = n.objID where p.type >= 1 "
        "group by n.objID having count(*) >= 2 order by companions desc",
    ]


def assert_equivalent(database_rows, shards: int, partition: str,
                      queries) -> None:
    objects, neighbor_pairs = database_rows
    single = SqlSession(build_database(objects, neighbor_pairs, "column"))
    cluster = ShardCluster.from_database(
        build_database(objects, neighbor_pairs),
        shards=shards, partition=partition)
    session = ClusterSession(cluster)
    for sql in queries:
        expected = single.query(sql)
        actual = session.query(sql)
        assert actual.columns == expected.columns, sql
        assert actual.rows == expected.rows, (
            f"{shards} shards / {partition}: {sql}")


# -- data strategies --------------------------------------------------------

_mag = st.one_of(st.none(), st.floats(min_value=10.0, max_value=30.0,
                                      allow_nan=False))


@st.composite
def survey_rows(draw):
    count = draw(st.integers(min_value=5, max_value=60))
    objids = draw(st.lists(st.integers(min_value=1, max_value=10 ** 6),
                           min_size=count, max_size=count, unique=True))
    objects = []
    for objid in objids:
        objects.append((objid,
                        draw(st.integers(min_value=0, max_value=3)),
                        draw(st.floats(min_value=-40.0, max_value=40.0,
                                       allow_nan=False)),
                        draw(_mag),
                        draw(st.integers(min_value=0, max_value=7))))
    pair_count = draw(st.integers(min_value=0, max_value=40))
    pairs = set()
    neighbor_pairs = []
    for _ in range(pair_count):
        a = draw(st.sampled_from(objids))
        b = draw(st.sampled_from(objids))
        if a == b or (a, b) in pairs:
            continue
        pairs.add((a, b))
        neighbor_pairs.append(
            (a, b, draw(st.floats(min_value=0.0, max_value=1.0,
                                  allow_nan=False))))
    return objects, neighbor_pairs


# -- the exhaustive layout sweep on one deterministic dataset ---------------

@pytest.fixture(scope="module")
def fixed_dataset():
    import random

    rng = random.Random(2002)
    objids = rng.sample(range(1, 10 ** 6), 120)
    objects = [(objid, rng.randint(0, 3), rng.uniform(-40, 40),
                None if rng.random() < 0.05 else rng.uniform(10, 30),
                rng.randint(0, 7)) for objid in objids]
    pairs = set()
    while len(pairs) < 150:
        pairs.add(tuple(rng.sample(objids, 2)))
    neighbor_pairs = [(a, b, rng.uniform(0, 1)) for a, b in pairs]
    return objects, neighbor_pairs


@pytest.mark.parametrize("shards,partition", LAYOUTS)
def test_all_layouts_match_single_node(fixed_dataset, shards, partition):
    assert_equivalent(fixed_dataset, shards, partition,
                      query_battery(threshold=20.0, top=9))


def test_zone_neighbors_join_is_shard_local(fixed_dataset):
    """Derived placement keeps objID joins co-partitioned under zones."""
    objects, neighbor_pairs = fixed_dataset
    cluster = ShardCluster.from_database(build_database(objects, neighbor_pairs),
                                         shards=4, partition="zone")
    session = ClusterSession(cluster)
    session.query("select n.objID, p.mag from Neighbors n "
                  "join PhotoObj p on p.objID = n.objID")
    assert cluster.executor.copartitioned_queries == 1
    assert cluster.executor.fallback_queries == 0


# -- randomized data × layout × thresholds ----------------------------------

@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(rows=survey_rows(),
       layout=st.sampled_from(LAYOUTS),
       threshold=st.floats(min_value=12.0, max_value=28.0, allow_nan=False),
       top=st.integers(min_value=1, max_value=12))
def test_random_data_equivalence(rows, layout, threshold, top):
    shards, partition = layout
    assert_equivalent(rows, shards, partition, query_battery(threshold, top))
