"""Compressed segments: zone-map skipping and encoding-aware execution.

Section 7 of "When Database Systems Meet the Grid" explains why the
20 data-mining queries stay interactive: most of them touch a narrow
slice of the sky, and the server only reads the stripes that slice
lives in.  PR 7 gives the columnar engine the storage-level version of
that observation — fixed-size sealed segments carrying per-column
encodings and zone maps — and this benchmark gates the three wins:

* **zone-map speedup** — a selective filter+aggregate over >= 100k
  rows must run >= 2x faster with zone maps than without, timed on
  real CPU (no simulated disk): a skipped segment is never decoded or
  filtered.
* **encoding-aware execution** — an equality filter over a
  dictionary-encoded column must run *without decoding a single
  segment* (the predicate is evaluated once per dictionary, then
  answered from the codes), returning rows byte-identical to a
  forced-plain layout of the same table.
* **compression** — dictionary/RLE-eligible columns (the snowflake
  arms' low-cardinality flags, classifications and band labels) must
  seal at >= 3x below their uncompressed in-memory size.

Every configuration must return byte-identical rows.
"""

from __future__ import annotations

import random
import time

from conftest import print_report
from repro.bench import ExperimentReport
from repro.engine import (Database, Planner, SqlSession, bigint, floating,
                          integer, text)
from repro.engine import segments

SCAN_ROWS = 100_000

#: A narrow slice of a 100k-row monotone key: all but one or two
#: segments are provably out of range and skippable.
SELECTIVE_SQL = ("select count(*) as n, sum(mag) as s, min(mag) as lo, "
                 "max(mag) as hi from photoobj "
                 "where objid between 40000 and 40400")

DICT_FILTER_SQL = "select count(*) as n from photoobj where band = 'r'"


def _bench_database(forced_encoding=None) -> Database:
    """100k-row PhotoObj-shaped columnar table, no indexes (the gate
    measures the scan layer, not the B-tree)."""
    rng = random.Random(2002)
    previous = segments.FORCED_ENCODING
    segments.FORCED_ENCODING = forced_encoding
    try:
        database = Database(f"bench_segments-{forced_encoding}")
        photoobj = database.create_table("photoobj", [
            bigint("objid"), floating("ra"), floating("mag"),
            integer("run"), text("band"),
        ], storage="column")
        photoobj.insert_many(
            {"objid": index,
             "ra": rng.uniform(150.0, 250.0),
             "mag": rng.uniform(14.0, 24.0),
             "run": index % 6,
             "band": "ugriz"[(index // 64) % 5]}
            for index in range(SCAN_ROWS))
    finally:
        segments.FORCED_ENCODING = previous
    database.analyze()
    return database


def _session(database: Database, *, zone_maps: bool) -> SqlSession:
    planner = Planner(database, enable_zone_maps=zone_maps)
    return SqlSession(database, planner=planner)


def _timed_query(session: SqlSession, sql: str, repeats: int = 3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = session.query(sql)
        best = min(best, time.perf_counter() - started)
    return best, result


def test_zone_map_skipping_speedup_gate():
    """>= 2x: zone maps vs full scan on a selective filter+aggregate."""
    database = _bench_database()
    off_seconds, off = _timed_query(_session(database, zone_maps=False),
                                    SELECTIVE_SQL)
    on_seconds, on = _timed_query(_session(database, zone_maps=True),
                                  SELECTIVE_SQL)
    assert repr(on.rows) == repr(off.rows)
    assert on.statistics.segments_skipped > 0
    assert off.statistics.segments_skipped == 0
    speedup = off_seconds / on_seconds
    total = on.statistics.segments_scanned + on.statistics.segments_skipped

    report = ExperimentReport(
        "Zone-map segment skipping — selective filter+aggregate",
        f"{SCAN_ROWS}-row PhotoObj, 401-row objid slice, COUNT/SUM/MIN/"
        "MAX on real CPU (§7's stripe locality at segment granularity: "
        "out-of-range segments are never read).")
    report.add("full-scan elapsed", "", round(off_seconds, 4), unit="s")
    report.add("zone-map elapsed", "", round(on_seconds, 4), unit="s")
    report.add("segments skipped",
               "most", f"{on.statistics.segments_skipped}/{total}")
    report.add("speedup", ">= 2x", f"{speedup:.1f}x")
    report.add("results identical", "yes",
               "yes" if repr(on.rows) == repr(off.rows) else "NO")
    print_report(report)

    assert speedup >= 2.0, f"zone maps only {speedup:.2f}x over full scan"


def test_encoding_aware_execution_gate():
    """Dictionary-code filters decode nothing and match plain layouts."""
    plain = _session(_bench_database("plain"), zone_maps=True)
    auto = _session(_bench_database(), zone_maps=True)
    expected = plain.query(DICT_FILTER_SQL)

    segments.DECODE_EVENTS = 0
    got = auto.query(DICT_FILTER_SQL)
    decodes = segments.DECODE_EVENTS

    report = ExperimentReport(
        "Encoding-aware execution — equality filter on a dict column",
        "COUNT over band='r' on the auto-encoded store: the predicate "
        "runs once per segment dictionary and the match is read off "
        "the codes, so no segment is ever decoded.")
    report.add("segment decodes", "0", decodes)
    report.add("identical to forced-plain layout", "yes",
               "yes" if repr(got.rows) == repr(expected.rows) else "NO")
    print_report(report)

    assert repr(got.rows) == repr(expected.rows)
    assert decodes == 0, f"dict filter decoded {decodes} segment columns"


def test_compression_ratio_gate():
    """>= 3x on dictionary/RLE-eligible (low-cardinality) columns."""
    rng = random.Random(7)
    database = Database("bench_segments-compression")
    # The snowflake arms' shape: classifications, flags and band labels
    # — low cardinality throughout, often in long runs.
    arm = database.create_table("photoflags", [
        bigint("objid"), text("classification"), text("band"),
        integer("status"), integer("field"),
    ], storage="column")
    arm.insert_many(
        {"objid": index,
         "classification": "galaxy" if rng.random() < 0.3 else "star",
         "band": "ugriz"[(index // 96) % 5],
         "status": rng.randrange(4),
         "field": index // 256}
        for index in range(SCAN_ROWS))
    stats = arm.storage.storage_statistics()
    ratio = stats["compression_ratio"]

    report = ExperimentReport(
        "Segment compression — dict/RLE-eligible snowflake-arm columns",
        f"{SCAN_ROWS}-row flags/classification table: encoded size of "
        "the sealed segments vs the uncompressed in-memory cost model.")
    report.add("logical bytes", "", stats["logical_bytes"])
    report.add("encoded bytes", "", stats["encoded_bytes"])
    report.add("encodings", "dict/rle/delta",
               str(dict(sorted(stats["encodings"].items()))))
    report.add("compression ratio", ">= 3x", f"{ratio:.2f}x")
    print_report(report)

    assert stats["segments"] > 0
    assert ratio >= 3.0, f"compression only {ratio:.2f}x"
