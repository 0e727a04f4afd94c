"""Cluster subsystem tests: partitioning, pruning, merges, integration.

The acceptance test at the bottom builds a 4-shard SkyServer over the
same synthetic survey the session fixtures load single-node, runs the
whole fig13 20-query suite on both, and asserts byte-identical results.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.cluster import (ClusterSession, DerivedPlacement, FallbackPlan,
                           HashPlacement, HtmPlacement, ShardCluster,
                           SingleTablePlan, ZonePlacement, colocated,
                           quantile_boundaries, stable_hash)
from repro.engine import (BindError, Database, PrimaryKey, SqlSession, bigint,
                          floating, integer)
from repro.engine.operators import AggregateState
from repro.engine.sql import parse_batch
from repro.engine.sql.ast import SelectStatement
from repro.engine.expressions import AggregateCall
from repro.skyserver import QueryLimits, SkyServer
from repro.skyserver.pool import SkyServerPool


# ---------------------------------------------------------------------------
# Fixtures: a small generic two-table database (Obj + its Nbr arm)
# ---------------------------------------------------------------------------

def build_generic(rows: int = 400, neighbors: int = 600,
                  storage: str = "row") -> Database:
    import random

    database = Database("cluster-unit")
    obj = database.create_table(
        "Obj",
        [bigint("objID"), integer("type"), floating("dec"), floating("mag"),
         bigint("htmID")],
        primary_key=PrimaryKey(["objID"]), storage=storage)
    nbr = database.create_table(
        "Neighbors",
        [bigint("objID"), bigint("neighborObjID"), floating("distance")],
        primary_key=PrimaryKey(["objID", "neighborObjID"]), storage=storage)
    rng = random.Random(20020603)
    ids = [i * 13 + 5 for i in range(rows)]
    obj.insert_many(
        {"objID": oid, "type": rng.randint(0, 3),
         "dec": rng.uniform(-30.0, 30.0), "mag": rng.uniform(14.0, 24.0),
         "htmID": rng.randint(10 ** 12, 2 * 10 ** 12)}
        for oid in ids)
    seen = set()
    pairs = []
    while len(pairs) < neighbors:
        a, b = rng.sample(ids, 2)
        if (a, b) in seen:
            continue
        seen.add((a, b))
        pairs.append({"objID": a, "neighborObjID": b,
                      "distance": rng.uniform(0.0, 1.0)})
    nbr.insert_many(pairs)
    database.analyze()
    return database


AFFINITY = {"obj": "objid", "neighbors": "objid"}


def make_cluster(shards: int, partition: str = "hash") -> ShardCluster:
    return ShardCluster.from_database(build_generic(), shards=shards,
                                      partition=partition, affinity=AFFINITY)


# ---------------------------------------------------------------------------
# Partitioning schemes
# ---------------------------------------------------------------------------

class TestPlacements:
    def test_stable_hash_is_process_independent(self):
        assert stable_hash(12345) == stable_hash(12345)
        assert stable_hash("abc") == stable_hash("abc")
        # splitmix64 spreads sequential ids
        shards = {stable_hash(i) % 4 for i in range(32)}
        assert shards == {0, 1, 2, 3}

    def test_hash_placement_prunes_equality_to_one_shard(self):
        placement = HashPlacement("Obj", "objid", 8)
        assert placement.prune_equal(42) == {stable_hash(42) % 8}
        assert placement.prune_range(1, 100) == set(range(8))

    def test_range_placement_boundaries(self):
        placement = ZonePlacement("Obj", "dec", 4, [-10.0, 0.0, 10.0])
        assert placement.shard_of({"dec": -20.0}) == 0
        assert placement.shard_of({"dec": -5.0}) == 1
        assert placement.shard_of({"dec": 25.0}) == 3
        assert placement.prune_range(-5.0, 5.0) == {1, 2}
        assert placement.prune_range(11.0, 20.0) == {3}
        assert placement.prune_range(None, -15.0) == {0}
        assert placement.prune_equal(-5.0) == {1}
        assert placement.describe() == {
            "table": "Obj", "scheme": "zone", "column": "dec", "shards": 4,
            "boundaries": [-10.0, 0.0, 10.0]}

    def test_range_colocation_requires_the_same_boundaries(self):
        a = ZonePlacement("Obj", "dec", 2, [0.0])
        b = ZonePlacement("Other", "dec", 2, [0.0])
        c = ZonePlacement("Other", "dec", 2, [5.0])
        assert colocated(a, "dec", b, "dec")
        assert not colocated(a, "dec", c, "dec")

    @pytest.mark.parametrize("partition", ["zone", "htm"])
    def test_an_empty_table_splits_the_key_space_evenly(self, partition):
        database = Database("empty")
        database.create_table("PhotoObj", [bigint("objID"), floating("dec"),
                                           bigint("htmID")],
                              primary_key=PrimaryKey(["objID"]))
        cluster = ShardCluster.from_database(database, shards=3,
                                             partition=partition)
        boundaries = cluster.placement("PhotoObj").boundaries
        assert len(boundaries) == 2 and boundaries == sorted(boundaries)
        if partition == "zone":
            assert boundaries == [-30.0, 30.0]
        cluster.insert("PhotoObj", {"objID": 1, "dec": 45.0, "htmID": 10 ** 12})
        assert cluster.total_rows("PhotoObj") == 1

    def test_htm_placement_prunes_cover_ranges(self):
        placement = HtmPlacement("PhotoObj", "htmid", 4, [100, 200, 300])
        assert placement.prune_ranges([(10, 50)]) == {0}
        assert placement.prune_ranges([(150, 160), (350, 400)]) == {1, 3}

    def test_quantile_boundaries_balance(self):
        values = list(range(100))
        boundaries = quantile_boundaries(values, 4)
        assert len(boundaries) == 3
        assert boundaries == sorted(boundaries)

    def test_derived_placement_follows_parent(self):
        parent = ZonePlacement("Obj", "dec", 2, [0.0])
        route = {1: 0, 2: 1}
        derived = DerivedPlacement("Neighbors", "objid", 2, "Obj", route)
        assert derived.shard_of({"objid": 1}) == 0
        assert derived.shard_of({"objid": 2}) == 1
        assert colocated(derived, "objid", parent, "objid")
        assert not colocated(derived, "neighborobjid", parent, "objid")
        assert derived.prune_equal(2) == {1}
        assert derived.prune_equal(99) == {stable_hash(99) % 2}
        assert derived.describe()["parent"] == "obj"

    def test_hash_colocation_requires_same_token_and_columns(self):
        a = HashPlacement("Obj", "objid", 4)
        b = HashPlacement("Neighbors", "objid", 4)
        c = HashPlacement("Neighbors", "objid", 8)
        assert colocated(a, "objid", b, "objid")
        assert not colocated(a, "objid", c, "objid")
        assert not colocated(a, "mag", b, "objid")


# ---------------------------------------------------------------------------
# Shard nodes: sequences survive compaction
# ---------------------------------------------------------------------------

class TestShardNode:
    def test_split_preserves_global_order(self):
        database = build_generic(rows=50, neighbors=40)
        original = [row["objid"] for _rid, row in
                    database.table("Obj").iter_rows()]
        cluster = ShardCluster.from_database(database, shards=3,
                                             affinity=AFFINITY)
        gathered = [row["objid"] for _seq, row in cluster.gathered_rows("Obj")]
        assert gathered == original

    def test_sequences_survive_vacuum(self):
        database = build_generic(rows=60, neighbors=10)
        cluster = ShardCluster.from_database(database, shards=2,
                                             affinity=AFFINITY)
        for node in cluster.shards:
            assert node.table("Obj").storage.kind == "column"
        removed = cluster.delete_where("Obj", lambda row: row["type"] == 0)
        assert removed > 0
        survivors = [row["objid"] for _s, row in cluster.gathered_rows("Obj")]
        for node in cluster.shards:
            node.vacuum("Obj")
        assert [row["objid"] for _s, row in cluster.gathered_rows("Obj")] == survivors

    def test_insert_routes_by_placement(self):
        cluster = make_cluster(4)
        placement = cluster.placement("Obj")
        shard = cluster.insert("Obj", {"objID": 999983, "type": 1,
                                       "dec": 1.0, "mag": 20.0, "htmID": 7})
        assert shard == placement.shard_of({"objid": 999983})
        assert cluster.total_rows("Obj") == 401


# ---------------------------------------------------------------------------
# Distributed planning and pruning
# ---------------------------------------------------------------------------

class TestPlanningAndPruning:
    def test_single_table_chain_distributes(self):
        cluster = make_cluster(4)
        session = ClusterSession(cluster)
        from repro.engine.sql import parse_batch

        query = parse_batch("select objID from Obj where mag < 20")[0].query
        plan = session.cluster_planner.plan(query)
        assert isinstance(plan, SingleTablePlan)

    def test_function_and_multiway_joins_fall_back(self):
        cluster = make_cluster(2)
        session = ClusterSession(cluster)
        from repro.engine.sql import parse_batch

        sql = ("select o.objID from Obj o "
               "join Neighbors n on n.objID = o.objID "
               "join Obj p on p.objID = n.neighborObjID")
        plan = session.cluster_planner.plan(parse_batch(sql)[0].query)
        assert isinstance(plan, FallbackPlan)

    def test_pk_equality_prunes_to_one_shard(self):
        cluster = make_cluster(4)
        session = ClusterSession(cluster)
        executor = cluster.executor
        before = executor.fragments_pruned
        result = session.query("select objID from Obj where objID = 57")
        assert len(result.rows) == 1
        assert executor.fragments_pruned - before == 3

    def test_zone_range_prunes_shards(self):
        cluster = make_cluster(4, partition="zone")
        session = ClusterSession(cluster)
        executor = cluster.executor
        before = executor.fragments_pruned
        session.query("select count(*) as n from Obj where dec between 25 and 29")
        assert executor.fragments_pruned - before >= 2

    def test_statistics_prune_non_partition_columns(self):
        # Zone shards carry disjoint dec statistics, so even a predicate
        # evaluated through the stats-only path prunes.
        cluster = make_cluster(4, partition="zone")
        from repro.cluster import candidate_shards
        from repro.engine.sql import parse_batch

        session = ClusterSession(cluster)
        query = parse_batch("select objID from Obj where dec > 29")[0].query
        plan = session.cluster_planner.plan(query)
        assert isinstance(plan, SingleTablePlan)
        survivors = candidate_shards(cluster, plan.relation,
                                     cluster.coordinator.evaluation_context())
        assert len(survivors) < 4

    def test_statistics_pruning_keeps_shards_a_bound_raises_on(self):
        """Every shard's x is all NULL, so ANALYZE min/max would prune
        them all — but the single node meets ``sqrt(-1)`` on each row and
        raises, so the cluster must read the shards and raise too."""

        def build() -> Database:
            database = Database("null-x")
            table = database.create_table(
                "PhotoObj", [bigint("objID"), floating("x", nullable=True)],
                primary_key=PrimaryKey(["objID"]))
            table.insert_many({"objID": objid, "x": None}
                              for objid in range(1, 17))
            database.analyze()
            return database

        sql = "select objID from PhotoObj where x > sqrt(-1)"
        with pytest.raises(ValueError, match="math domain error"):
            SqlSession(build()).query(sql)
        cluster = ShardCluster.from_database(build(), shards=4)
        with pytest.raises(ValueError, match="math domain error"):
            ClusterSession(cluster).query(sql)
        # A bound that cannot raise still prunes by statistics.
        assert ClusterSession(cluster).query(
            "select objID from PhotoObj where x > 0").rows == []
        assert cluster.executor.fragments_pruned == 4

    def test_planner_errors_fall_back_to_the_coordinator(self):
        from repro.engine.errors import BindError, PlanError
        from repro.engine.sql import parse_batch

        cluster = make_cluster(4)
        session = ClusterSession(cluster)
        query = parse_batch("select objID from Obj where mag < 20")[0].query
        for error in (PlanError("no plan"), BindError("no binding")):
            with mock.patch.object(session.cluster_planner.engine, "plan",
                                   side_effect=error):
                plan = session.cluster_planner.plan(query)
            assert isinstance(plan, FallbackPlan) and plan.tables == ["Obj"]
        # The gathered coordinator then raises the single node's error.
        sql = "select o.objID from Obj o where x.mag < 20"
        with pytest.raises(BindError) as single:
            SqlSession(build_generic()).query(sql)
        with pytest.raises(BindError) as clustered:
            session.query(sql)
        assert str(clustered.value) == str(single.value)

    def test_range_probe_join_falls_back_and_matches_single_node(self):
        """The engine range-probes ``p.v between r.lo and r.hi``: its
        matches come in ``v`` order, which a shard-local hash join of the
        co-partitioned pair cannot reproduce."""
        from repro.engine.sql import parse_batch

        def build() -> Database:
            database = Database("range-probe")
            ranges = database.create_table(
                "Ranges", [bigint("id"), floating("lo"), floating("hi")])
            points = database.create_table("Points", [bigint("id"), floating("v")])
            ranges.insert_many({"id": i, "lo": i * 0.1, "hi": i * 0.1 + 0.5}
                               for i in range(200))
            # Each id's points load in descending v.
            points.insert_many({"id": i % 200,
                                "v": (i % 200) * 0.1 + 0.6 - (i // 200) * 0.15}
                               for i in range(800))
            points.create_index("ix_points_v", ["v"])
            database.analyze()
            return database

        sql = ("select r.id, p.v from Ranges r join Points p on p.id = r.id "
               "and p.v between r.lo and r.hi where r.id = 3")
        single = SqlSession(build())
        assert "range probe Points.ix_points_v" in single.explain(sql)
        session = ClusterSession(ShardCluster.from_database(build(), shards=4))
        plan = session.cluster_planner.plan(parse_batch(sql)[0].query)
        assert isinstance(plan, FallbackPlan) and plan.reason == "range-probe join"
        rows = session.query(sql).rows
        assert [row["v"] for row in rows] == sorted(row["v"] for row in rows)
        assert repr(rows) == repr(single.query(sql).rows)

    def test_explain_shows_shard_and_merge_operators(self):
        cluster = make_cluster(4)
        session = ClusterSession(cluster)
        text = session.explain("select objID from Obj where objID = 57")
        assert "Merge" in text
        assert "Shard[0]" in text and "Shard[3]" in text
        assert "pruned=3" in text
        # A distributed result's plan renders the same text on demand.
        result = session.query("select objID from Obj where objID = 57")
        assert result.plan.explain() == text
        fallback = session.explain(
            "select o.objID from Obj o join Neighbors n "
            "on n.neighborObjID = o.objID")
        assert "Gather" in fallback


# ---------------------------------------------------------------------------
# Equivalence on the generic database (spot checks; the hypothesis suite
# in test_property_cluster.py covers the space)
# ---------------------------------------------------------------------------

QUERIES = [
    "select objID, mag from Obj where mag < 18 and type = 2",
    "select count(*) as n, min(mag) as lo, max(mag) as hi, avg(mag) as m "
    "from Obj where dec > 0",
    "select type, count(*) as n from Obj group by type order by n desc",
    "select top 7 objID from Obj where type = 1",
    "select top 5 objID, mag from Obj order by mag desc",
    "select distinct type from Obj",
    "select * from Obj where dec between 5 and 6",
    "select n.objID, n.distance, o.mag from Neighbors n "
    "join Obj o on o.objID = n.objID where n.distance < 0.2 and o.mag < 20",
    "select n.objID, count(*) as companions from Neighbors n "
    "join Obj o on o.objID = n.objID where o.type = 1 "
    "group by n.objID having count(*) >= 2 order by companions desc",
]


@pytest.mark.parametrize("shards,partition", [(2, "hash"), (4, "hash"),
                                              (4, "zone"), (3, "htm")])
def test_generic_equivalence(shards, partition):
    from repro.engine.sql import parse_select

    singles = {storage: SqlSession(build_generic(storage=storage))
               for storage in ("row", "column")}
    cluster = make_cluster(shards, partition)
    session = ClusterSession(cluster)
    for sql in QUERIES:
        # Fragments run on the column-store shards; a fallback runs on
        # the coordinator's gathered row-store copies.
        plan = session.cluster_planner.plan(parse_select(sql))
        single = singles["row" if isinstance(plan, FallbackPlan) else "column"]
        expected = single.query(sql)
        actual = session.query(sql)
        assert actual.columns == expected.columns, sql
        assert actual.rows == expected.rows, sql


def test_select_into_materialises_on_coordinator():
    single = SqlSession(build_generic(storage="column"))
    cluster = make_cluster(3)
    session = ClusterSession(cluster)
    sql = "select objID, mag into ##bright from Obj where mag < 16"
    expected = single.query(sql)
    actual = session.query(sql)
    assert actual.rows == expected.rows
    follow = session.query("select count(*) as n from ##bright")
    assert follow.rows[0]["n"] == len(expected.rows)


def test_row_limit_enforced_on_distributed_path():
    from repro.engine import QueryLimitExceeded

    cluster = make_cluster(2)
    session = ClusterSession(cluster, row_limit=5)
    with pytest.raises(QueryLimitExceeded):
        session.query("select objID from Obj")


def test_analyze_refreshes_shard_statistics():
    cluster = make_cluster(2)
    session = ClusterSession(cluster)
    cluster.insert("Obj", {"objID": 10 ** 9, "type": 1, "dec": 0.5,
                           "mag": 15.0, "htmID": 11})
    session.execute("analyze Obj")
    for node in cluster.shards:
        statistics = node.database.table_statistics("Obj")
        assert statistics is not None
        assert not statistics.is_stale(node.table("Obj"))


# ---------------------------------------------------------------------------
# The session's plan cache holds both plan kinds
# ---------------------------------------------------------------------------

FALLBACK = ("select o.objID, n.distance from Obj o join Neighbors n "
            "on n.neighborObjID = o.objID where n.distance < 0.05")


def _cache_flags(result) -> tuple[int, int]:
    return (result.statistics.plan_cache_hits,
            result.statistics.plan_cache_misses)


def test_fallback_plans_are_cached_until_a_shard_write():
    single = SqlSession(build_generic())
    cluster = make_cluster(4)
    session = ClusterSession(cluster)
    with mock.patch.object(session.planner, "plan",
                           wraps=session.planner.plan) as plan:
        first = session.query(FALLBACK)
        second = session.query(FALLBACK)
        assert (_cache_flags(first), _cache_flags(second)) == ((0, 1), (1, 0))
        assert session.last_plan_source == "cache"
        assert plan.call_count == 1
        assert second.rows == first.rows == single.query(FALLBACK).rows

        # A write re-gathers the table in place; the coordinator plan
        # made over the old copy is not reused.
        row = {"objID": 5, "neighborObjID": 18, "distance": 0.01}
        cluster.insert("Neighbors", row)
        single.database.table("Neighbors").insert(row)
        third = session.query(FALLBACK)
        assert _cache_flags(third) == (0, 1)
        assert session.last_plan_source == "fallback"
        assert plan.call_count == 2
        assert third.rows == single.query(FALLBACK).rows
        assert len(third.rows) == len(first.rows) + 1
        assert _cache_flags(session.query(FALLBACK)) == (1, 0)
    statistics = session.plan_cache.statistics()
    assert (statistics["hits"], statistics["misses"],
            statistics["invalidations"]) == (2, 2, 1)


def test_distributed_plans_report_cache_hits():
    session = ClusterSession(make_cluster(2))
    sql = "select objID, mag from Obj where mag < 15"
    assert _cache_flags(session.query(sql)) == (0, 1)
    assert _cache_flags(session.query(sql)) == (1, 0)
    # INTO plans are never cached
    into = "select objID into ##few from Obj where mag < 15"
    assert _cache_flags(session.query(into)) == (0, 1)
    assert _cache_flags(session.query(into)) == (0, 1)


def test_plan_sources_are_one_set_on_both_backends():
    cluster = make_cluster(2)
    single = SqlSession(build_generic())
    distributed = "select objID, mag from Obj where mag < 15"
    sources = []
    for session in (single, ClusterSession(cluster)):
        for sql in (distributed, distributed, FALLBACK, FALLBACK):
            session.query(sql)
            sources.append(session.last_plan_source)
    assert sources == ["planned", "cache", "planned", "cache",
                       "planned", "cache", "fallback", "cache"]


def test_cluster_batch_is_parsed_once(monkeypatch):
    from repro.engine.sql import session as sql_session

    cluster = make_cluster(4)
    server = SkyServer(cluster.coordinator, limits=QueryLimits.private(),
                       cluster=cluster)
    parse = mock.Mock(wraps=sql_session.parse_batch)
    monkeypatch.setattr(sql_session, "parse_batch", parse)
    sql = ("declare @bright float; set @bright = 15; "
           "select objID, mag from Obj where mag < @bright")
    answers = [server.query(sql).rows for _ in range(3)]
    assert parse.call_count == 1
    assert answers[0] == answers[1] == answers[2] != []
    for statistics in (server.plan_cache_statistics(),
                       server.site_statistics()["plan_cache"]):
        assert (statistics["hits"], statistics["misses"]) == (2, 1)


# ---------------------------------------------------------------------------
# AVG partial aggregation (engine satellite)
# ---------------------------------------------------------------------------

class TestAggregatePartials:
    def test_avg_merges_as_sum_count_pairs(self):
        left = AggregateState(AggregateCall("avg", None))
        right = AggregateState(AggregateCall("avg", None))
        for value in (2, 4):
            left.update(value)
        for value in (6,):
            right.update(value)
        left.merge_partial(right.partial_state())
        assert left.result() == (2 + 4 + 6) / 3

    def test_count_min_max_merge(self):
        left = AggregateState(AggregateCall("min", None))
        right = AggregateState(AggregateCall("min", None))
        left.update(5)
        right.update(3)
        left.merge_partial(right.partial_state())
        assert left.result() == 3

    def test_distinct_partials_refuse_to_merge(self):
        from repro.engine.errors import PlanError

        state = AggregateState(AggregateCall("count", None, distinct=True))
        with pytest.raises(PlanError):
            state.partial_state()

    def test_avg_stays_on_batch_path(self):
        """AVG over a columnar scan aggregates in batch mode (no row fallback)."""
        database = build_generic(rows=200, neighbors=10)
        for name in database.table_names():
            database.table(name).convert_storage("column")
        session = SqlSession(database)
        result = session.query(
            "select avg(mag) as m, count(*) as n from Obj where mag < 22")
        assert result.statistics.batches_processed > 0
        # And the sharded partial path covers integer AVG without the
        # ordered-input gather.
        cluster = ShardCluster.from_database(build_generic(rows=200, neighbors=10),
                                             shards=2, affinity=AFFINITY)
        csession = ClusterSession(cluster)
        csession.query("select avg(type) as t from Obj")
        assert cluster.executor.ordered_aggregate_gathers == 0
        # Float AVG gathers ordered inputs for bit-identical results.
        csession.query("select avg(mag) as m from Obj")
        assert cluster.executor.ordered_aggregate_gathers == 1

    def test_group_keeps_the_signed_zero_of_its_first_row(self):
        """-0.0 and 0.0 share a group; like the single node, the group
        shows the value of its first row, whichever shard holds it."""

        def build() -> Database:
            database = Database("signed-zero")
            table = database.create_table(
                "PhotoObj", [bigint("objID"), floating("g")],
                primary_key=PrimaryKey(["objID"]))
            table.insert_many({"objID": objid, "g": -0.0 if objid == 1 else 0.0}
                              for objid in range(1, 17))
            database.analyze()
            return database

        sql = "select g, count(*) as n from PhotoObj group by g"
        expected = SqlSession(build()).query(sql).rows
        assert repr(expected) == "[{'g': -0.0, 'n': 16}]"
        cluster = ShardCluster.from_database(build(), shards=4)
        assert repr(ClusterSession(cluster).query(sql).rows) == repr(expected)
        assert cluster.executor.ordered_aggregate_gathers == 0

    def test_huge_integer_sums_use_ordered_mode(self):
        """SUM over 62-bit ids exceeds float's exact-integer range: the
        partial path would merge non-associatively, so the executor must
        gather ordered inputs and stay bit-identical to a single node."""
        import random

        def build(storage: str = "row"):
            database = Database("bigsum")
            table = database.create_table(
                "photoobj", [bigint("objid"), floating("mag")],
                primary_key=PrimaryKey(["objid"]), storage=storage)
            rng = random.Random(3)
            table.insert_many({"objid": rng.getrandbits(62),
                               "mag": rng.uniform(10, 20)}
                              for _ in range(2000))
            database.analyze()
            return database

        sql = "select sum(objid) as s, avg(objid) as a from photoobj"
        # The row and column single nodes sum in different orders.
        expected = SqlSession(build("column")).query(sql)
        cluster = ShardCluster.from_database(build(), shards=4)
        actual = ClusterSession(cluster).query(sql)
        assert actual.rows == expected.rows
        assert cluster.executor.ordered_aggregate_gathers == 1


#: Aggregates T-SQL rejects: ``*`` is COUNT(*)'s alone.
STAR_AGGREGATES = ("sum(*)", "avg(*)", "min(*)", "max(*)", "count(distinct *)")


@pytest.mark.parametrize("shards", [1, 4])
def test_star_is_count_star_only(shards):
    """``f(*)`` other than COUNT(*) is a syntax error on one node and on
    shards alike, and COUNT(*) still counts rows, grouped or not."""
    from repro.engine import SQLSyntaxError

    database = build_generic()
    session = (SqlSession(database) if shards == 1
               else ClusterSession(make_cluster(shards)))
    for aggregate in STAR_AGGREGATES:
        with pytest.raises(SQLSyntaxError):
            session.query(f"select {aggregate} as v from Obj")
    rows = [row for _row_id, row in database.table("Obj").iter_rows()]
    assert session.query("select count(*) as n from Obj where mag < 20").rows == [
        {"n": sum(1 for row in rows if row["mag"] < 20)}]
    grouped = session.query(
        "select type, count(*) as n, avg(mag) as m from Obj group by type "
        "order by type").rows
    assert [(row["type"], row["n"]) for row in grouped] == sorted(
        (kind, sum(1 for row in rows if row["type"] == kind))
        for kind in {row["type"] for row in rows})


@pytest.mark.parametrize("sql", ["select objID from Obj where count(*) > 1",
                                 "select objID from Obj order by count(*)"])
def test_an_aggregate_outside_aggregation_raises_on_shard_rows(sql):
    """A shard fragment raises at its first selected row, with the
    single node's error, and raises nothing over empty shards."""
    from repro.engine import ExpressionError
    from repro.engine.sql import parse_select

    cluster = make_cluster(4)
    session = ClusterSession(cluster)
    assert not isinstance(session.cluster_planner.plan(parse_select(sql)),
                          FallbackPlan)
    with pytest.raises(ExpressionError) as expected:
        SqlSession(build_generic(storage="column")).query(sql)
    with pytest.raises(ExpressionError) as actual:
        session.query(sql)
    assert str(actual.value) == str(expected.value)
    cluster.delete_where("Obj", lambda row: True)
    assert session.query(sql).rows == []


@pytest.mark.parametrize("layout", ["row", "column", "shards"])
@pytest.mark.parametrize("sql", [
    "select objID from Obj o where x.mag > 1",
    "select x.mag from Obj o",
    "select x.* from Obj o",
    "select objID from Obj o order by x.mag",
    "select count(*) as n from Obj o group by x.type",
    "select o.type from Obj o group by o.type having max(x.mag) > 0",
    "select x.objID + 1 from Obj o join Neighbors n on n.objID = o.objID",
])
def test_an_unknown_alias_raises_in_every_clause(layout, sql):
    """A qualifier naming no FROM relation is a bind error when the
    statement is planned, wherever it appears and whatever the layout;
    ORDER BY an output alias still orders."""
    session = (ClusterSession(make_cluster(4)) if layout == "shards"
               else SqlSession(build_generic(storage=layout)))
    with pytest.raises(BindError, match="unknown alias 'x'"):
        session.query(sql)
    rows = session.query("select objID as m from Obj o order by m desc").rows
    assert [row["m"] for row in rows[:2]] == [399 * 13 + 5, 398 * 13 + 5]


def _photo_database(name: str) -> Database:
    """200 PhotoObj rows in a 1 x 0.8 degree patch, indexed on htmID."""
    import random

    from repro.htm import lookup_id

    database = Database(name)
    table = database.create_table(
        "PhotoObj",
        [bigint("objID"), floating("ra"), floating("dec"), bigint("htmID"),
         bigint("type"), bigint("mode"), floating("modelMag_r")],
        primary_key=PrimaryKey(["objID"]))
    rng = random.Random(5)
    rows = []
    for index in range(200):
        ra, dec = rng.uniform(183.0, 184.0), rng.uniform(-1.4, -0.6)
        rows.append({"objID": index, "ra": ra, "dec": dec,
                     "htmID": lookup_id(ra, dec), "type": 1, "mode": 1,
                     "modelMag_r": 18.0})
    table.insert_many(rows)
    table.create_index("ix_htm", ["htmID"])
    database.analyze()
    return database


def test_cone_pruning_keeps_shards_with_stale_statistics():
    """A row inserted after ANALYZE (outside every analyzed htmID range)
    must still be found by the pruned cone scatter."""
    from repro.htm import cover_circle, lookup_id
    from repro.skyserver.spatial import nearby_from_candidates

    cluster = ShardCluster.from_database(_photo_database("stale-cone"),
                                         shards=4, partition="htm")
    ra, dec = 186.5, 1.2
    cluster.insert("PhotoObj", {"objID": 999999, "ra": ra, "dec": dec,
                                "htmID": lookup_id(ra, dec), "type": 1,
                                "mode": 1, "modelMag_r": 18.0})
    candidates = cluster.executor.cone_candidate_rows(cover_circle(ra, dec, 2.0))
    found = nearby_from_candidates(candidates, ra, dec, 2.0)
    assert [entry["objID"] for entry in found] == [999999]


def test_simulated_disks_run_on_the_calling_thread_and_sleep_once(
        monkeypatch):
    """Modelled per-shard disks change no answer and start no thread:
    fragments and cone fetches run on the caller's thread, and a scatter
    sleeps once, for its largest fragment's bytes at the modelled rate
    (every shard streams off its own disks alongside the others)."""
    import threading

    import repro.skyserver.spatial as spatial
    from repro.cluster import executor as executor_module
    from repro.htm import cover_circle

    cluster = ShardCluster.from_database(_photo_database("simulated-disks"),
                                         shards=4)
    executor = cluster.executor
    session = ClusterSession(cluster)
    sql = ("select objID, modelMag_r from PhotoObj where dec > -1.2 "
           "order by objID")
    cover = cover_circle(183.5, -1.0, 20.0)
    plain = (session.query(sql).rows, executor.cone_candidate_rows(cover))

    threads: list[int] = []
    fragment_bytes: list[int] = []
    sleeps: list[float] = []
    run_fragment = executor._run_fragment
    candidate_rows = spatial._candidate_rows

    def traced_fragment(*args, **kwargs):
        threads.append(threading.get_ident())
        fragment = run_fragment(*args, **kwargs)
        fragment_bytes.append(fragment.statistics.bytes_scanned)
        return fragment

    def traced_candidates(*args, **kwargs):
        threads.append(threading.get_ident())
        return candidate_rows(*args, **kwargs)

    monkeypatch.setattr(executor, "_run_fragment", traced_fragment)
    monkeypatch.setattr(spatial, "_candidate_rows", traced_candidates)
    monkeypatch.setattr(executor_module.time, "sleep", sleeps.append)
    executor.simulated_scan_mbps = 50.0
    result = session.query(sql)
    assert len(fragment_bytes) == 4
    assert sleeps == [pytest.approx(max(fragment_bytes) / 50.0e6)]
    assert max(fragment_bytes) < result.statistics.bytes_scanned
    simulated = (result.rows, executor.cone_candidate_rows(cover))
    assert simulated == plain
    assert len(threads) > 4
    assert set(threads) == {threading.get_ident()}


# ---------------------------------------------------------------------------
# Result-cache invalidation across shards (pool satellite)
# ---------------------------------------------------------------------------

def _cluster_pool(cluster: ShardCluster, workers: int = 2) -> SkyServerPool:
    class _Host:
        database = cluster.coordinator

    host = _Host()
    host.cluster = cluster
    return SkyServerPool(host, workers=workers, result_cache_size=16)


def test_pool_cache_invalidated_by_shard_dml():
    cluster = make_cluster(3)
    pool = _cluster_pool(cluster)
    try:
        sql = "select count(*) as n from Obj"
        first = pool.execute(sql)
        assert first.rows[0]["n"] == 400
        again = pool.execute(sql)
        assert again.rows[0]["n"] == 400
        assert pool.result_cache.hits >= 1
        # DML lands on exactly one shard; the cached cluster-wide result
        # must still be invalidated.
        cluster.insert("Obj", {"objID": 31337, "type": 2, "dec": -1.0,
                               "mag": 19.0, "htmID": 3})
        refreshed = pool.execute(sql)
        assert refreshed.rows[0]["n"] == 401
        assert pool.result_cache.invalidations >= 1
    finally:
        pool.shutdown()


def test_pool_cache_invalidated_by_coordinator_only_dml():
    """A table only the coordinator holds versions by its own counter."""
    cluster = make_cluster(2)
    scratch = cluster.coordinator.create_table("##t", [bigint("id")])
    scratch.insert({"id": 1})
    assert (cluster.table_versions("##t")
            == cluster.coordinator.table_versions("##t")
            == (scratch.modification_counter,))
    with _cluster_pool(cluster) as pool:
        sql = "select count(*) as n from ##t"
        assert pool.execute(sql).rows[0]["n"] == 1
        assert pool.execute(sql).rows[0]["n"] == 1
        assert pool.result_cache.hits == 1
        scratch.insert({"id": 2})
        assert pool.execute(sql).rows[0]["n"] == 2
        assert pool.result_cache.invalidations == 1


def test_plans_over_coordinator_only_tables_outlive_dml():
    """As on one node: the coordinator reads ``##t`` in place, so DML on
    it leaves the cached plan valid."""
    cluster = make_cluster(2)
    scratch = cluster.coordinator.create_table("##t", [bigint("id")])
    session = ClusterSession(cluster)
    sql = "select count(*) as n from ##t"
    assert session.query(sql).rows[0]["n"] == 0
    scratch.insert({"id": 1})
    again = session.query(sql)
    assert again.rows[0]["n"] == 1 and _cache_flags(again) == (1, 0)


def test_pool_tickets_report_cluster_plan_cache_hits():
    with _cluster_pool(make_cluster(2), workers=1) as pool:
        sources = []
        for sql in ("select objID from Obj where mag < 15", FALLBACK) * 2:
            ticket = pool.submit(sql)
            ticket.result(10.0)
            sources.append(ticket.plan_source)
            pool.result_cache.clear()
    assert sources == ["planned", "fallback", "cache", "cache"]


# ---------------------------------------------------------------------------
# SkyServer integration: the fig13 acceptance criterion
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sharded_skyserver(survey_output):
    from repro.schema import create_skyserver_database
    from repro.loader import SkyServerLoader

    database = create_skyserver_database(with_indices=False)
    loader = SkyServerLoader(database, shards=4)
    report = loader.load_pipeline_output(survey_output)
    assert report.succeeded, report.summary()
    assert report.shards == 4 and report.cluster is not None
    return SkyServer(database, limits=QueryLimits.private(),
                     cluster=report.cluster)


@pytest.fixture(scope="module")
def columnar_skyserver(survey_output):
    from repro.loader import load_release_database

    database, _report = load_release_database(survey_output, columnar=True)
    return SkyServer(database, limits=QueryLimits.private())


#: The fig13 statements the cluster runs as shard fragments (the rest
#: gather): single tables and the co-partitioned joins Q8, Q17, Q18.
FRAGMENT_QUERIES = ["Q2", "Q3", "Q4", "Q5", "Q7", "Q8", "Q11", "Q14", "Q15A",
                    "Q16", "Q17", "Q18", "Q19"]


def fig13_selects(server):
    """``(query id, the SELECT whose rows the statement returns)``."""
    from repro.engine.sql import parse_batch
    from repro.engine.sql.ast import SelectStatement
    from repro.skyserver.queries import DATA_MINING_QUERIES

    for query in DATA_MINING_QUERIES:
        statements = [statement for statement
                      in parse_batch(server._resolve_placeholders(query))
                      if isinstance(statement, SelectStatement)]
        yield query.query_id, statements[-1].query


class TestShardedSkyServer:
    def test_fig13_suite_byte_identical(self, skyserver, columnar_skyserver,
                                        sharded_skyserver):
        """The default layout's shards are column stores and its
        coordinator's tables row stores.  Fragments match the columnar
        single node; a statement that gathers matches the row-store
        single node, because the gathered coordinator copies are row
        stores."""
        cluster = sharded_skyserver.cluster
        assert cluster.coordinator.table("PhotoObj").storage.kind == "row"
        assert {node.table(name).storage.kind for node in cluster.shards
                for name in cluster.table_keys()} == {"column"}
        planner = sharded_skyserver.session.cluster_planner
        fragments = {query_id for query_id, query
                     in fig13_selects(sharded_skyserver)
                     if not isinstance(planner.plan(query), FallbackPlan)}
        assert sorted(fragments) == sorted(FRAGMENT_QUERIES)
        rows = skyserver.run_all_data_mining_queries()
        columns = columnar_skyserver.run_all_data_mining_queries()
        sharded = sharded_skyserver.run_all_data_mining_queries()
        assert len(sharded) == len(rows) == len(columns) >= 20
        for row_run, column_run, actual in zip(rows, columns, sharded):
            expected = column_run if actual.query_id in fragments else row_run
            assert actual.query_id == expected.query_id
            assert actual.result.columns == expected.result.columns, (
                expected.query_id)
            assert repr(actual.result.rows) == repr(expected.result.rows), (
                expected.query_id)

    def test_cached_fig13_statements_stay_unchanged(
            self, skyserver, columnar_skyserver, sharded_skyserver):
        """Two fig13 passes through one 4-shard session: the
        second is served from the plan cache (bar the INTO statements,
        which are never cached) with the first pass's and the single
        node's rows, and EXPLAIN before any execution renders as the
        distributed executor or the fallback's coordinator planner does."""
        from repro.engine import Planner
        from repro.skyserver.queries import DATA_MINING_QUERIES

        server = sharded_skyserver
        cluster = server.cluster
        session = ClusterSession(cluster)
        planner = session.cluster_planner
        texts = {query.query_id: server._resolve_placeholders(query)
                 for query in DATA_MINING_QUERIES}
        selects = dict(fig13_selects(server))
        for query_id, sql in texts.items():
            plan = planner.plan(next(
                statement.query for statement in parse_batch(sql)
                if isinstance(statement, SelectStatement)))
            if isinstance(plan, FallbackPlan):
                cluster.ensure_local(planner.plan_tables(plan))
                expected = (f"Gather (fallback: {plan.reason}) -> "
                            "coordinator plan:\n"
                            + Planner(cluster.coordinator).plan(plan.query).explain())
            else:
                expected = cluster.executor.explain_plan(plan, {})
            assert session.explain(sql) == expected, query_id

        first = {query_id: session.query(sql) for query_id, sql in texts.items()}
        second = {query_id: session.query(sql) for query_id, sql in texts.items()}
        into = {query_id for query_id, query in selects.items() if query.into}
        assert into == {"Q1", "Q15A"}
        assert {query_id: result.statistics.plan_cache_hits
                for query_id, result in second.items()} == {
            query_id: 0 if query_id in into else 1 for query_id in texts}
        fragments = {query_id for query_id, query in selects.items()
                     if not isinstance(planner.plan(query), FallbackPlan)}
        rows = {run.query_id: run.result
                for run in skyserver.run_all_data_mining_queries()}
        columns = {run.query_id: run.result
                   for run in columnar_skyserver.run_all_data_mining_queries()}
        for query_id, result in second.items():
            single = (columns if query_id in fragments else rows)[query_id]
            assert result.columns == first[query_id].columns == single.columns
            assert (repr(result.rows) == repr(first[query_id].rows)
                    == repr(single.rows)), query_id

    def test_additional_queries_identical(self, skyserver, sharded_skyserver):
        single = skyserver.run_all_data_mining_queries(
            ["SX1", "SX2", "SX3", "SX4", "SX5"])
        sharded = sharded_skyserver.run_all_data_mining_queries(
            ["SX1", "SX2", "SX3", "SX4", "SX5"])

        def stable(rows):
            # The two fixtures are independent *loads*: their
            # CURRENT_TIMESTAMP insert times differ by wall clock, not
            # by layout.  SX1's SELECT * is the only query exposing it.
            return [{name: value for name, value in row.items()
                     if name != "inserttime"} for row in rows]

        for expected, actual in zip(single, sharded):
            assert stable(actual.result.rows) == stable(expected.result.rows), (
                expected.query_id)

    def test_cluster_statistics_surface(self, sharded_skyserver):
        sharded_skyserver.query("select count(*) as n from PhotoObj")
        statistics = sharded_skyserver.site_statistics()["cluster"]
        assert statistics["shards"] == 4
        assert statistics["partition"] == "hash"
        assert statistics["queries"]["distributed"] >= 1
        assert "pruned" in statistics["fragments"]
        assert "partial_merges" in statistics["merge"]
        assert statistics["placements"]["photoobj"]["column"] == "objid"

    def test_cone_search_matches_single_node(self, skyserver, sharded_skyserver):
        single = skyserver.cone_search(185.0, -0.5, 2.0)
        sharded = sharded_skyserver.cone_search(185.0, -0.5, 2.0)
        assert [row["objID"] for row in sharded] == [row["objID"] for row in single]

    def test_explore_object_gathers(self, skyserver, sharded_skyserver):
        row = next(iter(skyserver.database.table("PhotoObj")))
        expected = skyserver.explore_object(row["objid"])
        actual = sharded_skyserver.explore_object(row["objid"])

        def stable(record):
            return {name: value for name, value in record.items()
                    if name != "inserttime"}

        assert stable(actual["photo"]) == stable(expected["photo"])
        assert actual["neighbors"] == expected["neighbors"]

    def test_explain_distributed_query(self, sharded_skyserver):
        text = sharded_skyserver.explain(
            "select objID from PhotoObj where objID = 1")
        assert "Merge" in text and "Shard[" in text

    def test_cluster_plans_carry_the_single_node_decisions(
            self, columnar_skyserver, sharded_skyserver):
        """Every fig13 fragment plan reads and joins its relations as the
        column-store single-node planner's plan does: access kind,
        index, key range and columns per relation; drive side, inner
        side and strategy per join."""
        from repro.cluster.planner import ClusterPlanner, CoPartitionedJoinPlan
        from repro.engine import Planner
        from repro.engine.operators import (HashJoin, IndexNestedLoopJoin,
                                            IndexRangeScan, NestedLoopJoin,
                                            TableScan)

        single, sharded = columnar_skyserver, sharded_skyserver
        kinds = {TableScan: "scan", IndexRangeScan: "seek"}

        def sql(bounds):
            return None if bounds is None else [bound.sql() for bound in bounds]

        def engine_access(operator):
            index = getattr(operator, "index", None)
            columns = operator.columns
            if index is not None and columns is not None:
                # Shards also read the index key: it ranks rows for the merge.
                columns = tuple(sorted(set(columns) | set(index.columns)))
            return (operator.binding_name, kinds[type(operator)],
                    index.name if index is not None else None,
                    sql(getattr(operator, "low", None)),
                    sql(getattr(operator, "high", None)), columns)

        def cluster_access(relation):
            access = relation.access
            return (relation.binding, access.kind, access.index_name,
                    sql(access.low), sql(access.high), relation.columns)

        def engine_decisions(root):
            node = root
            while (not isinstance(node, (HashJoin, NestedLoopJoin,
                                         IndexNestedLoopJoin))
                   and node.children()):
                (node,) = node.children()
            if isinstance(node, HashJoin):
                return (engine_access(node.probe), engine_access(node.build),
                        "hash")
            if isinstance(node, NestedLoopJoin):
                return (engine_access(node.outer), engine_access(node.inner),
                        "nested")
            if isinstance(node, IndexNestedLoopJoin):
                # The probed side has no access operator of its own.
                return (engine_access(node.outer), node.inner_binding, "index")
            return engine_access(node)

        cluster_planner = ClusterPlanner(sharded.cluster)
        planner = Planner(single.database)
        checked = []
        for query_id, query in fig13_selects(sharded):
            plan = cluster_planner.plan(query)
            if isinstance(plan, FallbackPlan):
                continue
            expected = engine_decisions(planner.plan(query).root)
            if isinstance(plan, CoPartitionedJoinPlan):
                inner = (plan.inner.binding if plan.strategy == "index"
                         else cluster_access(plan.inner))
                actual = (cluster_access(plan.drive), inner, plan.strategy)
            else:
                actual = cluster_access(plan.relation)
            assert actual == expected, query_id
            checked.append(query_id)
        assert checked == FRAGMENT_QUERIES


# ---------------------------------------------------------------------------
# The inert planner keywords on the fig13 suite
# ---------------------------------------------------------------------------

def _fig13_answers(server):
    """Per fig13 statement: columns, rows (by repr) and the executed
    plan's EXPLAIN text, from a cold plan cache."""
    server.session.plan_cache.clear()
    return [(run.query_id, run.result.columns, repr(run.result.rows),
             run.result.plan.explain())
            for run in server.run_all_data_mining_queries()]


class TestInertPlannerKeywords:
    @pytest.mark.parametrize("fixture", ["skyserver", "columnar_skyserver"])
    def test_planner_parallelism_changes_no_answer_or_plan(self, request,
                                                           fixture):
        from repro.engine import Planner

        server = request.getfixturevalue(fixture)

        def inert_planner():
            return Planner(server.database, parallelism=4,
                           parallel_row_threshold=0)

        # Executions feed the estimates back, so both plans of a
        # statement are made before either runs.
        for query_id, query in fig13_selects(server):
            text = inert_planner().plan(query).explain()
            assert text == Planner(server.database).plan(query).explain(), (
                query_id)
            assert "workers=" not in text and "morsels=" not in text
        stock = _fig13_answers(server)
        original = server.session.planner
        server.session.planner = inert_planner()
        try:
            inert = _fig13_answers(server)
        finally:
            server.session.planner = original
            server.session.plan_cache.clear()
        assert len(stock) >= 20
        assert ([answer[:3] for answer in inert]
                == [answer[:3] for answer in stock])

    def test_planner_config_parallelism_changes_no_answer_or_plan(self):
        """Two servers built alike, but for the inert config field,
        answer every statement alike and explain it byte for byte."""
        from repro.pipeline import SurveyConfig
        from repro.skyserver import PlannerConfig, ServerConfig, StorageConfig

        def serve(planner):
            return SkyServer.create(ServerConfig(
                survey=SurveyConfig(scale=0.0003, seed=4,
                                    density_per_sq_deg=900.0),
                storage=StorageConfig(columnar=True), planner=planner,
                limits=QueryLimits.private()))

        stock = _fig13_answers(serve(PlannerConfig()))
        inert = _fig13_answers(serve(PlannerConfig(parallelism=4)))
        assert len(stock) >= 20
        assert inert == stock


# ---------------------------------------------------------------------------
# Data-release flips on a sharded server
# ---------------------------------------------------------------------------

class TestShardedReleaseFlip:
    """``SkyServer.load_release`` on a cluster (``ShardCluster.
    swap_release``): every read answers from one release, whatever
    the flip interleaves with."""

    SEED_A, SEED_B = 4, 99
    COUNT = "select count(*) as n from PhotoObj where type = 3"
    STATEMENTS = (
        COUNT,
        "select top 10 objID, modelMag_r from PhotoObj "
        "where modelMag_r < 21 order by modelMag_r, objID",
        # Not distributable: gathers both tables into the coordinator.
        "select count(*) as n from PhotoObj o join Neighbors n "
        "on n.neighborObjID = o.objID where o.type = 3",
    )

    @staticmethod
    def _survey(seed: int):
        from repro.pipeline import SurveyConfig

        return SurveyConfig(scale=0.0003, seed=seed, density_per_sq_deg=900.0)

    def _server(self, root=None, workers: int = 0):
        from repro.skyserver import (ClusterConfig, PoolConfig, ServerConfig,
                                     StorageConfig)

        return SkyServer.create(ServerConfig(
            survey=self._survey(self.SEED_A),
            cluster=ClusterConfig(shards=4),
            storage=StorageConfig(path=None if root is None else str(root)),
            pool=PoolConfig(workers=workers)))

    def _release_b(self):
        from repro.pipeline import SyntheticSurvey

        return SyntheticSurvey(self._survey(self.SEED_B)).run()

    def _answers(self, run) -> tuple:
        return tuple(repr(run(sql).rows) for sql in self.STATEMENTS)

    def test_a_flip_keeps_the_coordinator_layout_and_column_shards(self):
        """A release loads into the coordinator's layout, not the
        shards': a default-layout server stays row on the coordinator."""
        from repro.skyserver import ClusterConfig, ServerConfig

        server = SkyServer.create(ServerConfig(
            survey=self._survey(self.SEED_A), cluster=ClusterConfig(shards=2)))
        server.load_release(self._release_b())
        cluster = server.cluster
        assert cluster.coordinator.table("PhotoObj").storage.kind == "row"
        assert [node.table("PhotoObj").storage.kind
                for node in cluster.shards] == ["column", "column"]

    def test_a_flip_between_fragments_leaves_the_scatter_on_one_release(
            self, monkeypatch):
        server = self._server()
        release_a = server.query(self.COUNT).rows
        release_b = self._release_b()
        executor = server.cluster.executor
        # Fragments run on this thread, in shard order; the flip lands
        # just before the third shard's fragment.
        original = executor._run_fragment
        calls = []

        def run_fragment(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                server.load_release(release_b)
            return original(*args, **kwargs)

        monkeypatch.setattr(executor, "_run_fragment", run_fragment)
        during = server.query(self.COUNT).rows
        assert len(calls) >= 4 and server.release_number == 2
        monkeypatch.undo()
        after = server.query(self.COUNT).rows
        assert after != release_a
        assert during == release_a

    def test_readers_during_a_flip_see_one_release_and_reopen_on_the_new(
            self, tmp_path):
        import sys
        import threading

        root = tmp_path / "db"
        server = self._server(root, workers=2)
        pool = server._pool

        def pooled(sql):
            return pool.execute(sql, "admin", timeout=120)

        release_a = self._answers(pooled)
        release_b = self._release_b()
        seen: list[tuple] = []
        errors: list[BaseException] = []
        flipped = threading.Event()

        def reader(position: int) -> None:
            sql = self.STATEMENTS[position % len(self.STATEMENTS)]
            extra = 0
            try:
                while extra < 3:
                    seen.append((position, repr(pooled(sql).rows)))
                    extra += flipped.is_set()
            except BaseException as error:      # reported below
                errors.append(error)

        readers = [threading.Thread(target=reader, args=(position,))
                   for position in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers:
                thread.start()
            info = server.load_release(release_b)
        finally:
            flipped.set()
            for thread in readers:
                thread.join(timeout=120)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert errors == []
        assert info["release"] == 2 and info["checkpointed"]
        answers_b = self._answers(pooled)
        assert answers_b != release_a
        for position, answer in seen:
            statement = position % len(self.STATEMENTS)
            assert answer in (release_a[statement], answers_b[statement])
        assert {answer for _position, answer in seen} & set(answers_b)

        # A crash after the flip reopens on release B.
        pool.shutdown()
        server.cluster.close_durable()
        reopened = SkyServer.open(root)
        assert self._answers(lambda sql: reopened.query(sql)) == answers_b
        reopened.close()
