"""Runtime join filters: sideways information passing on a 3-table join.

The paper's hard queries join PhotoObj to its snowflake arms and the
Neighbors table (Table 1's q15, the fig13 shapes), and the probe side is
always the wide 100k+-row fact table.  PR 8 lets a batch hash join hand
its build keys sideways to the probe scan: the min/max range composes
with PR 7's zone maps to skip whole sealed segments before they are
read, and the build's own key set drops non-matching rows
pre-materialization.

This benchmark gates the win on a **selective 100k ⋈ 25k ⋈ 5k
three-table join+aggregate**, timed on real CPU (no simulated disk)
like ``bench_segments.py``.  The engine executes serially, so the
asserted speedup can only come from runtime-filter pruning: probe
segments never decoded and probe rows never gathered.  The
segment-skip counters prove it: the filtered run must skip sealed
probe segments, the unfiltered run must skip none, and both must
return byte-identical rows.
"""

from __future__ import annotations

import random
import time

from conftest import print_report
from repro.bench import ExperimentReport
from repro.engine import (Database, Planner, SqlSession, bigint, floating,
                          integer)

PHOTO_ROWS = 100_000
NEIGHBOR_ROWS = 25_000
FIELD_ROWS = 5_000

#: field(5k, 2% selected) ⋈ neighbors(25k) ⋈ photoobj(100k): the
#: selected field rows' neighbors all point into one narrow objid band
#: of PhotoObj, so the build side of the outer join knows — at runtime,
#: not at plan time — that all but a couple of probe segments are dead.
JOIN_SQL = ("select count(*) as n, sum(p.mag) as s, min(p.mag) as lo "
            "from field f, neighbors nb, photoobj p "
            "where f.objid = nb.objid and nb.neighborobjid = p.objid "
            "and f.flag = 1")


def _bench_database() -> Database:
    rng = random.Random(20020603)
    database = Database("bench_runtime_filters")
    photoobj = database.create_table("photoobj", [
        bigint("objid"), floating("ra"), floating("mag"), integer("run"),
    ], storage="column")
    photoobj.insert_many(
        {"objid": index,
         "ra": rng.uniform(150.0, 250.0),
         "mag": rng.uniform(14.0, 24.0),
         "run": index % 6}
        for index in range(PHOTO_ROWS))
    field = database.create_table("field", [
        bigint("objid"), integer("flag"),
    ], storage="column")
    field.insert_many(
        {"objid": index, "flag": 1 if index % 50 == 0 else 0}
        for index in range(FIELD_ROWS))
    neighbors = database.create_table("neighbors", [
        bigint("objid"), bigint("neighborobjid"), floating("distance"),
    ], storage="column")
    neighbors.insert_many(
        {"objid": index % FIELD_ROWS,
         # Selected field rows' neighbors land in [40000, 42000); the
         # rest spread over the full objid range, so nothing but the
         # build side's actual keys makes the probe slice narrow.
         "neighborobjid": (40_000 + (index % 2_000)
                           if (index % FIELD_ROWS) % 50 == 0
                           else (index * 7) % PHOTO_ROWS),
         "distance": rng.uniform(0.0, 1.0)}
        for index in range(NEIGHBOR_ROWS))
    database.analyze()
    return database


def _session(database: Database, *, runtime_filters: bool) -> SqlSession:
    planner = Planner(database, enable_runtime_filters=runtime_filters)
    return SqlSession(database, planner=planner)


def _timed_query(session: SqlSession, sql: str, repeats: int = 3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = session.query(sql)
        best = min(best, time.perf_counter() - started)
    return best, result


def test_runtime_filter_join_speedup_gate():
    """>= 2x: runtime filters vs none on the selective three-table join."""
    database = _bench_database()
    off_seconds, off = _timed_query(
        _session(database, runtime_filters=False), JOIN_SQL)
    on_seconds, on = _timed_query(
        _session(database, runtime_filters=True), JOIN_SQL)

    assert repr(on.rows) == repr(off.rows)
    # The win is pruning: only the filtered run may skip probe
    # segments.
    assert on.statistics.runtime_filter_segments_pruned > 0
    assert on.statistics.runtime_filter_rows_pruned > 0
    assert off.statistics.runtime_filter_segments_pruned == 0
    assert off.statistics.runtime_filter_rows_pruned == 0
    speedup = off_seconds / on_seconds
    total = on.statistics.segments_scanned + on.statistics.segments_skipped

    report = ExperimentReport(
        "Runtime join filters — selective 100k ⋈ 25k ⋈ 5k join+aggregate",
        "field(2% selected) ⋈ neighbors ⋈ photoobj, real CPU, serial "
        "execution: the outer hash build's key range and key set prune "
        "the probe scan's sealed segments and rows before they are "
        "read.")
    report.add("no-filter elapsed", "", round(off_seconds, 4), unit="s")
    report.add("filtered elapsed", "", round(on_seconds, 4), unit="s")
    report.add("segments pruned by filter", "most",
               f"{on.statistics.runtime_filter_segments_pruned}/{total}")
    report.add("probe rows pruned by filter", "",
               on.statistics.runtime_filter_rows_pruned)
    report.add("speedup", ">= 2x", f"{speedup:.1f}x")
    report.add("results identical", "yes",
               "yes" if repr(on.rows) == repr(off.rows) else "NO")
    print_report(report)

    assert speedup >= 2.0, f"runtime filters only {speedup:.2f}x"
