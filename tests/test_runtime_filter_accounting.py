"""Runtime join filters are exact, and shard scans account like the engine.

* The batch hash join's runtime filter tests probe keys against the
  build's own key set, so it drops exactly the scanned probe rows whose
  key the build does not hold — no more (that would change answers) and
  no fewer (a sketch with false positives would keep some).
* Shard fragments scan through the engine's ``TableScan.batches``, so a
  1-shard columnar cluster reports the same scan, segment and runtime
  filter counters as the single node running the same statement in
  batch mode with the same build side.
"""

from __future__ import annotations

from repro.cluster import ClusterSession, ShardCluster
from repro.engine import Database, Planner, SqlSession, bigint, floating
from repro.engine.operators import HashJoin
from repro.engine.sql import parse_select

#: Counters a 1-shard cluster must report exactly as the single node.
SCAN_COUNTERS = ("rows_scanned", "batches_processed", "segments_scanned",
                 "segments_skipped", "runtime_filter_segments_pruned",
                 "runtime_filter_rows_pruned")


def _hash_joins(operator):
    if isinstance(operator, HashJoin):
        yield operator
    for child in operator.children():
        yield from _hash_joins(child)


def test_runtime_filter_prunes_exactly_the_probe_rows_without_a_match():
    database = Database("rtf-exact")
    build = database.create_table("build", [bigint("k"), floating("w")],
                                  storage="column")
    probe = database.create_table("probe", [bigint("k", nullable=True),
                                            floating("v")], storage="column")
    # Build keys span the probe's whole key range, so the range layer
    # prunes no segment and every probe row is scanned.
    build_keys = list(range(0, 24000, 9)) + [23999]
    build.insert_many({"k": key, "w": key * 0.5} for key in build_keys)
    probe_keys = [None if index % 997 == 0 else (index * 7919) % 24000
                  for index in range(24000)]
    probe.insert_many({"k": key, "v": index * 0.25}
                      for index, key in enumerate(probe_keys))
    database.analyze()

    planner = Planner(database, enable_index_join=False)
    plan = planner.plan(parse_select("select count(*) as n, sum(p.v) as s "
                                     "from probe p, build b where p.k = b.k"))
    (join,) = _hash_joins(plan.root)
    assert join.build.binding_name == "b"
    result = plan.execute()
    assert result.statistics.batches_processed > 0

    held = set(build_keys)
    misses = sum(1 for key in probe_keys if key is None or key not in held)
    assert misses >= 10000
    statistics = result.statistics
    assert statistics.runtime_filter_segments_pruned == 0
    assert statistics.runtime_filter_rows_pruned == misses
    assert result.rows[0]["n"] == len(probe_keys) - misses
    assert join.runtime_filter_kind == "range+keys"


def _survey(name: str) -> Database:
    database = Database(name)
    obj = database.create_table("obj", [bigint("objid"), floating("mag")],
                                storage="column")
    nbr = database.create_table("nbr", [bigint("objid"), bigint("nbrid"),
                                        floating("dist")], storage="column")
    obj.insert_many({"objid": objid, "mag": 14.0 + (objid * 37 % 100) * 0.1}
                    for objid in range(3000))
    # Four sealed segments and a tail, sorted by objid and dist: the
    # last two segments lie past obj's last key and past dist 0.5, so
    # the build's key range and the scan's zone maps prune them whole.
    nbr.insert_many({"objid": index // 2, "nbrid": index,
                     "dist": index / 12000.0} for index in range(16484))
    database.analyze()
    return database


STATEMENTS = [
    # a filtered scan whose zone maps skip the segments past dist 0.5
    "select nbrid, dist from nbr where dist < 0.5",
    # a co-partitioned hash join: obj builds, nbr probes
    "select count(*) as n, sum(n.dist) as d from obj o, nbr n "
    "where o.objid = n.objid and o.mag < 20",
]


def test_one_shard_fragments_account_like_the_single_node():
    single = _survey("single")
    cluster = ShardCluster.from_database(
        _survey("sharded"), shards=1,
        affinity={"obj": "objid", "nbr": "objid"})
    planner = Planner(single, enable_index_join=False)
    single_session = SqlSession(single, planner=planner)
    cluster_session = ClusterSession(cluster)
    cluster_session.cluster_planner.engine.enable_index_join = False
    for sql in STATEMENTS:
        expected = single_session.query(sql)
        assert expected.statistics.batches_processed > 0, sql
        plan = cluster_session.cluster_planner.plan(parse_select(sql))
        assert plan.kind != "fallback", sql
        joins = list(_hash_joins(planner.plan(parse_select(sql)).root))
        if joins:
            assert plan.kind == "join"
            assert plan.inner.binding == joins[0].build.binding_name
            assert expected.statistics.runtime_filter_rows_pruned > 0
            assert expected.statistics.runtime_filter_segments_pruned > 0
        else:
            assert expected.statistics.segments_skipped > 0
        actual = cluster_session.query(sql)
        assert repr(actual.rows) == repr(expected.rows), sql
        for name in SCAN_COUNTERS:
            assert (getattr(actual.statistics, name)
                    == getattr(expected.statistics, name)), (sql, name)
