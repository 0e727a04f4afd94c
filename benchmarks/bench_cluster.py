"""The sharded cluster: scatter-gather speedup and HTM shard pruning.

"When Database Systems Meet the Grid" distributes the SDSS catalogs
across nodes so that (a) a scan-bound query streams off many disks at
once and (b) a spatial query touches only the nodes whose sky region it
selects.  This benchmark gates both properties of the reproduction's
cluster subsystem:

* **scatter-gather speedup** — a scan+aggregate over >= 100k rows must
  run >= 2x faster on a 4-shard cluster than on a 1-shard cluster.  On
  the paper's hardware scans are disk-bandwidth-bound (Figure 15), so
  each shard node is modelled with its own disk: the executor's
  ``simulated_scan_mbps`` charges a scatter the time its largest
  fragment's bytes take to stream off one shard's disks (one ``sleep``,
  as the shards' disks stream side by side, exactly as real per-node
  I/O would overlap).  Both layouts are charged identically; the
  4-shard win is the I/O overlap, which is the property sharding
  exists to buy.
* **shard pruning** — an HTM cone query against an 8-shard HTM-range
  cluster must touch <= 1/4 of the shards (>= 4x pruning), driven by
  the existing :mod:`repro.htm` covers intersected with the shard
  boundaries and per-shard statistics.
* **narrow shard reads** (real CPU, no simulated disk) — a
  scan→filter→project fragment over a 120-column table split across 4
  columnar shards decodes only the columns it references (at most
  referenced columns × sealed segments, counted by
  ``segments.DECODE_EVENTS``) and runs within 2x of the same query on a
  single-node column store.
* **batch fragments** (real CPU) — on the benchmark survey, fig13's
  grouped scan (Q16), index-probe join (Q17) and hash join + grouped
  aggregate (Q18) on a 4-shard columnar cluster each run within 2x of
  one columnar node.

Every cluster returns byte-identical results to a single-node session,
re-checked here.
"""

from __future__ import annotations

import random
import time

from conftest import print_report
from repro.bench import ExperimentReport
from repro.cluster import ClusterSession, ShardCluster
from repro.engine import (Database, Planner, PrimaryKey, SqlSession, bigint,
                          floating, segments)
from repro.engine.segments import SEGMENT_ROWS
from repro.engine.sql import parse_select
from repro.htm import cover_circle, lookup_id
from repro.loader import load_release_database
from repro.skyserver import QueryLimits, SkyServer
from repro.skyserver.queries import query_by_id
from repro.skyserver.spatial import get_nearby_objects, nearby_from_candidates

SCAN_ROWS = 100_000
#: Modelled per-shard sequential-scan bandwidth.  One low-end disk per
#: shard node; what matters for the gate is that both layouts are
#: charged the same rate per byte.
SHARD_SCAN_MBPS = 8.0

PRUNE_ROWS = 24_000
PRUNE_SHARDS = 8

AGGREGATE_SQL = ("select count(*) as n, sum(flags) as s, "
                 "min(modelmag_r) as mn, max(modelmag_r) as mx "
                 "from photoobj where modelmag_r between 14 and 23")


def _scan_rows(rows: int) -> list[dict]:
    rng = random.Random(2002)
    return [
        {"objid": index,
         "ra": rng.uniform(150.0, 250.0),
         "dec": rng.uniform(-5.0, 5.0),
         "flags": rng.randrange(8),
         "modelmag_r": rng.uniform(14.0, 24.0)}
        for index in range(rows)
    ]


def _scan_database(rows: list[dict]) -> Database:
    database = Database("bench_cluster")
    table = database.create_table("photoobj", [
        bigint("objid"), floating("ra"), floating("dec"),
        bigint("flags"), floating("modelmag_r"),
    ], primary_key=PrimaryKey(["objid"]))
    table.insert_many(rows)
    database.analyze()
    return database


def _timed_query(session, sql: str, repeats: int = 3) -> tuple[float, list]:
    best = float("inf")
    rows = None
    for _ in range(repeats):
        started = time.perf_counter()
        rows = session.query(sql).rows
        best = min(best, time.perf_counter() - started)
    return best, rows


def test_scatter_gather_speedup_gate():
    """>= 2x: 4-shard parallel scan+aggregate vs 1-shard, same I/O model."""
    rows = _scan_rows(SCAN_ROWS)
    single = SqlSession(_scan_database(rows))
    expected = single.query(AGGREGATE_SQL).rows

    sessions = {}
    for shards in (1, 4):
        cluster = ShardCluster.from_database(
            _scan_database(rows), shards=shards, partition="hash")
        cluster.executor.simulated_scan_mbps = SHARD_SCAN_MBPS
        sessions[shards] = ClusterSession(cluster)

    one_seconds, one_rows = _timed_query(sessions[1], AGGREGATE_SQL)
    four_seconds, four_rows = _timed_query(sessions[4], AGGREGATE_SQL)
    assert one_rows == expected
    assert four_rows == expected
    speedup = one_seconds / four_seconds

    report = ExperimentReport(
        "Cluster scatter-gather — parallel scan+aggregate",
        f"{SCAN_ROWS} rows, COUNT/SUM/MIN/MAX with a range predicate; "
        f"1-shard vs 4-shard cluster, each shard node modelled with a "
        f"{SHARD_SCAN_MBPS:g} MB/s scan disk (Figure 15's scans are "
        "disk-bound; fragment I/O overlaps across shards).")
    report.add("1-shard elapsed", "", round(one_seconds, 4), unit="s")
    report.add("4-shard elapsed", "", round(four_seconds, 4), unit="s")
    report.add("speedup", ">= 2x", f"{speedup:.1f}x")
    report.add("results identical to single node", "yes",
               "yes" if four_rows == expected else "NO")
    print_report(report)

    assert speedup >= 2.0, (
        f"4-shard cluster only {speedup:.2f}x over 1-shard")


def test_htm_cone_shard_pruning_gate():
    """>= 4x pruning: an HTM cone query touches <= shards/4 shards."""
    rng = random.Random(20020603)
    database = Database("bench_cluster_prune")
    table = database.create_table("PhotoObj", [
        bigint("objID"), floating("ra"), floating("dec"), bigint("htmID"),
        bigint("type"), bigint("mode"), floating("modelMag_r"),
    ], primary_key=PrimaryKey(["objID"]))
    rows = []
    for index in range(PRUNE_ROWS):
        ra = rng.uniform(183.0, 187.0)
        dec = rng.uniform(-1.5, 1.5)
        rows.append({"objID": index, "ra": ra, "dec": dec,
                     "htmID": lookup_id(ra, dec),
                     "type": rng.randrange(6), "mode": 1,
                     "modelMag_r": rng.uniform(14.0, 24.0)})
    table.insert_many(rows)
    table.create_index("ix_photoobj_htm", ["htmID"])
    database.analyze()

    reference = get_nearby_objects(database, 185.0, -0.5, 2.0)

    cluster = ShardCluster.from_database(_rebuild(rows), shards=PRUNE_SHARDS,
                                         partition="htm")
    executor = cluster.executor
    ranges = cover_circle(185.0, -0.5, 2.0)
    candidates = executor.cone_candidate_rows(ranges)
    nearby = nearby_from_candidates(candidates, 185.0, -0.5, 2.0)
    touched = executor.fragments_executed
    pruned = executor.fragments_pruned
    assert touched + pruned == PRUNE_SHARDS
    pruning_factor = PRUNE_SHARDS / max(1, touched)

    report = ExperimentReport(
        "Cluster shard pruning — HTM cone query",
        f"{PRUNE_ROWS} objects over a 4°x3° patch, {PRUNE_SHARDS} shards "
        "partitioned on htmID quantile ranges; a 2-arcmin cone search "
        "scatters only to the shards its HTM cover intersects.")
    report.add("shards total", "", PRUNE_SHARDS)
    report.add("shards touched", f"<= {PRUNE_SHARDS // 4}", touched)
    report.add("pruning factor (total/touched)", ">= 4x",
               f"{pruning_factor:.1f}x")
    report.add("cone results identical", "yes",
               "yes" if [r["objID"] for r in nearby]
               == [r["objID"] for r in reference] else "NO")
    print_report(report)

    assert [entry["objID"] for entry in nearby] == [
        entry["objID"] for entry in reference]
    assert pruning_factor >= 4.0, (
        f"cone touched {touched} of {PRUNE_SHARDS} shards "
        f"({pruning_factor:.1f}x)")


def _rebuild(rows: list[dict]) -> Database:
    database = Database("bench_cluster_prune_sharded")
    table = database.create_table("PhotoObj", [
        bigint("objID"), floating("ra"), floating("dec"), bigint("htmID"),
        bigint("type"), bigint("mode"), floating("modelMag_r"),
    ], primary_key=PrimaryKey(["objID"]))
    table.insert_many(rows)
    table.create_index("ix_photoobj_htm", ["htmID"])
    database.analyze()
    return database


#: A PhotoObj-like width: the key, the filtered column and 118 fillers.
WIDE_FILLERS = 118
#: Enough rows that every one of 4 hash shards seals a segment.
WIDE_SHARDS = 4
WIDE_ROWS = WIDE_SHARDS * (SEGMENT_ROWS + 500)
WIDE_SQL = "select id, mag from wide where mag < 15"


def _wide_database(storage: str) -> Database:
    fillers = [f"f{index:03d}" for index in range(WIDE_FILLERS)]
    database = Database(f"bench_cluster_wide_{storage}")
    table = database.create_table(
        "wide", [bigint("id"), floating("mag")] + [floating(name) for name in fillers],
        primary_key=PrimaryKey(["id"]), storage=storage)
    rng = random.Random(2002)
    rows = []
    for index in range(WIDE_ROWS):
        row = {name: float(index % (position + 2))
               for position, name in enumerate(fillers)}
        row.update(id=index, mag=rng.uniform(14.0, 24.0))
        rows.append(row)
    table.insert_many(rows)
    database.analyze()
    return database


def _best_of(thunk, repeats: int = 5) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(repeats):
        started = time.perf_counter()
        result = thunk()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_narrow_shard_reads_gate():
    """Shards decode and build only the referenced columns: <= 2 decodes
    per sealed segment, and within 2x of a single-node column store."""
    single_plan = Planner(_wide_database("column")).plan(parse_select(WIDE_SQL))
    cluster = ShardCluster.from_database(_wide_database("row"),
                                         shards=WIDE_SHARDS, partition="hash")
    session = ClusterSession(cluster)
    sealed = sum(len(node.table("wide").storage.segments())
                 for node in cluster.shards)
    assert all(node.table("wide").storage.segments() for node in cluster.shards)
    assert "Shard Scan" in session.explain(WIDE_SQL)

    single_s, single = _best_of(lambda: single_plan.execute())
    session.query(WIDE_SQL)
    before = segments.DECODE_EVENTS
    sharded = session.query(WIDE_SQL)
    decodes = segments.DECODE_EVENTS - before
    sharded_s, _result = _best_of(lambda: session.query(WIDE_SQL))
    assert repr(sharded.rows) == repr(single.rows)
    ratio = sharded_s / single_s

    report = ExperimentReport(
        "Cluster narrow shard reads — real CPU",
        f"{WIDE_SQL!r} over {WIDE_ROWS} rows x {WIDE_FILLERS + 2} columns "
        f"split across {WIDE_SHARDS} columnar hash shards ({sealed} sealed "
        "segments in all), vs the same statement on a single-node column "
        "store; no simulated disk.")
    report.add("single node elapsed", "", round(single_s, 4), unit="s")
    report.add("4 shards elapsed", "", round(sharded_s, 4), unit="s")
    report.add("4 shards / single node", "<= 2x", f"{ratio:.2f}x")
    report.add("segment decodes per execution", f"<= {2 * sealed}", decodes)
    print_report(report)

    assert decodes <= 2 * sealed, f"{decodes} decodes for 2 referenced columns"
    assert ratio <= 2.0, f"4 shards take {ratio:.2f}x the single node"


#: Shard fragments that join and group (Q16, Q17, Q18): at most this
#: much the single columnar node's time, on real CPU.
FRAGMENT_CEILING = 2.0
FRAGMENT_QUERIES = ("Q16", "Q17", "Q18")


def test_batch_fragments_gate(bench_survey):
    """A 4-shard columnar cluster runs the grouped, index-joined and
    hash-joined fig13 statements within 2x of one columnar node."""
    single_database, _report = load_release_database(bench_survey,
                                                     columnar=True)
    database, report = load_release_database(bench_survey, columnar=True,
                                             shards=4)
    single = SkyServer(single_database, limits=QueryLimits.private())
    sharded = SkyServer(database, limits=QueryLimits.private(),
                        cluster=report.cluster)
    ratios = {}
    table = ExperimentReport(
        "Cluster batch fragments — real CPU",
        "Q16 (grouped partial aggregate), Q17 (index-probe join) and Q18 "
        "(hash join + grouped aggregate) on a 4-shard hash-partitioned "
        "columnar cluster vs one columnar node, best of 7 alternating "
        "runs each, no simulated disk.")
    for query_id in FRAGMENT_QUERIES:
        sql = query_by_id(query_id).sql
        single_s = sharded_s = float("inf")
        for _ in range(7):
            # Alternate, so a drift in the host's speed meets both sides.
            seconds, expected = _best_of(lambda: single.query(sql), repeats=1)
            single_s = min(single_s, seconds)
            seconds, actual = _best_of(lambda: sharded.query(sql), repeats=1)
            sharded_s = min(sharded_s, seconds)
            assert repr(actual.rows) == repr(expected.rows), query_id
        ratios[query_id] = sharded_s / single_s
        table.add(f"{query_id} 4 shards / single node", f"<= {FRAGMENT_CEILING}x",
                  f"{sharded_s * 1e3:.1f} / {single_s * 1e3:.1f} ms "
                  f"({ratios[query_id]:.2f}x)")
    print_report(table)
    slow = {query_id: round(ratio, 2) for query_id, ratio in ratios.items()
            if ratio > FRAGMENT_CEILING}
    assert not slow, f"4 shards over the single node: {slow}"
