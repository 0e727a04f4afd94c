"""Property tests: compressed segments never change query results.

The segment layer makes three promises.  Encodings are lossless —
``decode(encode(x))`` gives back the exact objects, bit patterns
included.  Zone maps are conservative — a segment is skipped (or a
scalar aggregate answered from its zone) only when the stored min/max
prove the result cannot differ, and DML tombstones immediately bar
zone answers until ``vacuum`` re-seals.  And encoding choice is
invisible — plain, dict, RLE and delta layouts return byte-identical
rows with zone maps on or off.  These tests
attack all three: random queries across forced layouts × zone maps, deterministic seams (segment-boundary DELETE, vacuum
re-seal, dictionary-code filters with zero decodes), and the paper's
fig13 data-mining suite on segmented storage, single-node and sharded.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.engine import (Database, Planner, PrimaryKey, bigint, floating,
                          integer, text)
from repro.engine import segments
from repro.engine.segments import (DeltaColumn, DictColumn, PlainColumn,
                                   RleColumn, SEGMENT_ROWS, encode_column)
from repro.engine.sql import parse_select
from repro.engine.types import DataType

settings.register_profile("repro-segments", deadline=None, max_examples=25)
settings.load_profile("repro-segments")

#: None lets every sealed column pick its own encoding.
LAYOUTS = ("plain", "dict", "rle", "delta", None)

#: Two sealed segments plus an append tail.
ROWS = SEGMENT_ROWS * 2 + 600

BANDS = ("u", "g", "r", "i", "z")


def _exact(rows) -> str:
    """A bit-faithful rendering (repr distinguishes 0.0 from -0.0)."""
    return repr(rows)


def _run(database: Database, sql: str, *, zone_maps: bool = True):
    planner = Planner(database, enable_zone_maps=zone_maps)
    return planner.plan(parse_select(sql)).execute()


@contextmanager
def _forced(layout):
    previous = segments.FORCED_ENCODING
    segments.FORCED_ENCODING = layout
    try:
        yield
    finally:
        segments.FORCED_ENCODING = previous


def _build(layout, seed: int, rows: int = ROWS, *,
           with_pk: bool = True) -> Database:
    """A columnar obj table sealed under ``layout``.

    ``objid`` ascends (delta-friendly), ``run`` cycles every row
    (dict-friendly), ``band`` changes every 64 rows (RLE-friendly) and
    ``mag`` is seeded noise (stays plain) — the same seed always builds
    the same logical table whatever the physical layout.
    """
    rng = random.Random(seed)
    with _forced(layout):
        database = Database(f"seg-{layout}-{seed}")
        table = database.create_table("obj", [
            bigint("objid"), floating("mag"), integer("run"), text("band"),
        ], primary_key=PrimaryKey(["objid"]) if with_pk else None,
            storage="column")
        table.insert_many({"objid": index,
                           "mag": 14.0 + rng.random() * 10.0,
                           "run": index % 7,
                           "band": BANDS[(index // 64) % len(BANDS)]}
                          for index in range(rows))
    database.analyze()
    return database


def _boundary_delete(database: Database) -> int:
    """Tombstones hugging the first seal boundary plus segment 0's zone
    minimum; returns the number of rows deleted."""
    dead = {0, SEGMENT_ROWS - 1, SEGMENT_ROWS, SEGMENT_ROWS + 1,
            2 * SEGMENT_ROWS - 1}
    database.table("obj").delete_where(lambda row: row["objid"] in dead)
    return len(dead)


# ---------------------------------------------------------------------------
# Hypothesis: layouts × zone maps are result-identical
# ---------------------------------------------------------------------------

QUERIES = [
    "select count(*) as n, min(objid) as lo, max(objid) as hi from obj",
    "select count(*) as n, sum(objid) as s, avg(objid) as a from obj",
    "select count(*) as n from obj where band = 'r'",
    "select count(*) as n, sum(mag) as s from obj "
    "where objid between 100 and 300",
    "select band, count(*) as n, max(mag) as m from obj group by band",
    "select top 9 objid, mag, band from obj where mag > 23.5",
    "select count(*) as n, min(band) as lo, max(band) as hi from obj "
    "where run < 5",
]


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(min_value=0, max_value=7),
       query_index=st.integers(min_value=0, max_value=63),
       layout=st.sampled_from(("dict", "rle", "delta", None)),
       with_dml=st.booleans())
def test_layouts_byte_identical(seed, query_index, layout, with_dml):
    sql = QUERIES[query_index % len(QUERIES)]
    plain = _build("plain", seed)
    other = _build(layout, seed)
    if with_dml:
        _boundary_delete(plain)
        _boundary_delete(other)
    want = _run(plain, sql, zone_maps=False)
    for database in (plain, other):
        for zone_maps in (False, True):
            got = _run(database, sql, zone_maps=zone_maps)
            context = (sql, database.name, zone_maps)
            assert got.columns == want.columns, context
            assert _exact(got.rows) == _exact(want.rows), context


# ---------------------------------------------------------------------------
# Encodings: decode(encode(x)) == x, bit patterns included
# ---------------------------------------------------------------------------

ROUNDTRIP_BUFFERS = [
    (DataType.TEXT, ["star" if i % 3 else "galaxy" for i in range(1000)]),
    (DataType.INTEGER, [i // 100 for i in range(1200)]),          # long runs
    (DataType.BIGINT, list(range(5_000_000, 5_002_048))),         # monotone
    (DataType.FLOAT, [(-0.0 if i % 5 == 0 else i * 0.25)
                      for i in range(800)]),                       # -0.0 kept
    (DataType.INTEGER, [None if i % 7 == 0 else i % 4
                        for i in range(900)]),                     # NULLs
    (DataType.BIGINT, [2**60 + i * 3 for i in range(600)]),       # wide ints
]


@pytest.mark.parametrize("layout", LAYOUTS)
def test_encoding_roundtrip_identity(layout):
    with _forced(layout):
        for dtype, values in ROUNDTRIP_BUFFERS:
            encoded = encode_column(values, dtype)
            assert _exact(list(encoded.decode())) == _exact(list(values))
            for position in (0, 1, len(values) // 2, len(values) - 1):
                assert _exact(encoded.value_at(position)) == \
                    _exact(values[position])


def test_forced_encodings_produce_expected_classes():
    low_cardinality = ["a" if i % 2 else "b" for i in range(512)]
    runs = [i // 64 for i in range(512)]
    monotone = list(range(512))
    with _forced("dict"):
        assert isinstance(encode_column(low_cardinality, DataType.TEXT),
                          DictColumn)
    with _forced("rle"):
        assert isinstance(encode_column(runs, DataType.INTEGER), RleColumn)
    with _forced("delta"):
        assert isinstance(encode_column(monotone, DataType.BIGINT),
                          DeltaColumn)
    with _forced("plain"):
        assert isinstance(encode_column(runs, DataType.INTEGER), PlainColumn)
    # Ineligible buffers always fall back to plain rather than erroring.
    floats = [i * 0.5 for i in range(64)]
    for layout in ("delta",):
        with _forced(layout):
            assert isinstance(encode_column(floats, DataType.FLOAT),
                              PlainColumn)


def test_storage_statistics_report_compression():
    auto = _build(None, seed=2).table("obj").storage.storage_statistics()
    plain = _build("plain", seed=2).table("obj").storage.storage_statistics()
    assert auto["segments_sealed"] == plain["segments_sealed"] == 2
    assert auto["tail_rows"] == plain["tail_rows"] == 600
    assert plain["compression_ratio"] == 1.0
    assert auto["compression_ratio"] > 1.0
    assert auto["encoded_bytes"] < plain["encoded_bytes"]
    assert set(auto["encodings"]) <= {"plain", "dict", "rle", "delta"}


# ---------------------------------------------------------------------------
# Zone maps: skipping, zone-answered aggregates, dictionary-code filters
# ---------------------------------------------------------------------------

def test_zone_maps_skip_segments_for_selective_filters():
    # No primary key: the CBO must table-scan, so skipping is the only
    # way to avoid reading the segments the range cannot touch.
    database = _build(None, seed=4, with_pk=False)
    sql = ("select count(*) as n, sum(mag) as s from obj "
           "where objid between 100 and 300")
    off = _run(database, sql, zone_maps=False)
    on = _run(database, sql)
    assert _exact(on.rows) == _exact(off.rows)
    assert on.statistics.segments_skipped >= 1
    assert on.statistics.rows_scanned < off.statistics.rows_scanned
    assert off.statistics.segments_skipped == 0


@pytest.mark.parametrize("where", [
    "objid < 100 or objid between 200 and 300",
    "objid in (7, 150, 299)",
])
def test_zone_maps_skip_segments_for_a_disjunction_on_one_column(where):
    database = _build(None, seed=4, with_pk=False)
    sql = f"select count(*) as n, sum(mag) as s from obj where {where}"
    off = _run(database, sql, zone_maps=False)
    on = _run(database, sql)
    assert _exact(on.rows) == _exact(off.rows)
    assert on.statistics.segments_skipped >= 1
    assert on.statistics.rows_scanned < off.statistics.rows_scanned


def test_scalar_aggregates_answer_from_zone_maps():
    database = _build(None, seed=5)
    sql = ("select count(*) as n, min(objid) as lo, max(objid) as hi, "
           "sum(objid) as s, avg(objid) as a from obj")
    off = _run(database, sql, zone_maps=False)
    on = _run(database, sql)
    assert _exact(on.rows) == _exact(off.rows)
    # Both sealed segments were answered without scanning a row.
    assert on.statistics.segments_skipped == 2
    assert on.statistics.segments_scanned == 0
    assert on.statistics.rows_scanned == 600        # tail only


def test_dict_equality_filters_run_without_decoding():
    database = _build(None, seed=6)
    sql = "select count(*) as n from obj where band = 'r'"
    want = _run(database, sql, zone_maps=False)
    segments.DECODE_EVENTS = 0
    got = _run(database, sql)
    assert _exact(got.rows) == _exact(want.rows)
    assert segments.DECODE_EVENTS == 0


# ---------------------------------------------------------------------------
# Gathers by row id read what get() reads, in the order asked
# ---------------------------------------------------------------------------

#: One sealed segment per forced layout (delta takes the integer
#: columns; the others fall back to plain), then the append tail.
GATHER_LAYOUTS = ("plain", "dict", "rle", "delta")


@pytest.fixture(scope="module")
def gather_store():
    """A column store whose segments are sealed plain, dict, RLE and
    delta, plus a tail; NULLs in ``mag`` and ``band``, tombstones in
    every unit."""
    rng = random.Random(37)
    database = Database("gather")
    table = database.create_table("obj", [
        bigint("objid"), floating("mag", nullable=True), integer("run"),
        text("band", nullable=True),
    ], storage="column")
    rows = [{"objid": index,
             "mag": None if rng.random() < 0.1 else rng.choice((14.5, -0.0, 21.25)),
             "run": index % 7,
             "band": None if (index // 300) % 5 == 2 else BANDS[(index // 64) % 5]}
            for index in range(SEGMENT_ROWS * len(GATHER_LAYOUTS) + 500)]
    for position, layout in enumerate(GATHER_LAYOUTS):
        with _forced(layout):
            table.insert_many(rows[position * SEGMENT_ROWS:(position + 1) * SEGMENT_ROWS])
    table.insert_many(rows[SEGMENT_ROWS * len(GATHER_LAYOUTS):])
    storage = table.storage
    for row_id in rng.sample(range(len(rows)), 400):
        storage.delete(row_id)
    encodings = {(segment.encoding_of("objid"), segment.encoding_of("band"))
                 for segment in storage.segments()}
    assert {"plain", "dict", "rle", "delta"} <= {name for pair in encodings
                                                 for name in pair}
    assert any(segment.masks for segment in storage.segments())
    return storage


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=2**16),
       size=st.sampled_from((0, 1, 5, 120, 900, 3000, 20000)),
       window=st.sampled_from(((0, 1), (0, 5), (3, 5), (1, 3), (4, 5))),
       order=st.sampled_from(("shuffled", "sorted", "reversed")))
def test_gather_reads_what_get_reads(gather_store, seed, size, window, order):
    """Row ids over any units — unsorted, repeated, dead or out of
    range, sparse (read per id) or dense (units read whole) — gather
    exactly the live ones, in the order given, valued as ``get``."""
    storage = gather_store
    rng = random.Random(seed)
    low, high = window[0] * SEGMENT_ROWS - 2, min(window[1] * SEGMENT_ROWS,
                                                  len(storage)) + 2
    ids = [rng.randrange(low, high) for _ in range(size)]
    if order != "shuffled":
        ids.sort(reverse=order == "reversed")
    live, columns = storage.gather(ids)
    assert live == [row_id for row_id in ids if storage.get(row_id) is not None]
    names = ("objid", "mag", "run", "band")
    for name in names:
        assert _exact(columns[name]) == _exact([storage.get(row_id)[name]
                                                for row_id in live]), name
    for position in range(0, len(live), max(1, len(live) // 7)):
        assert _exact(columns.row(position, names)) == \
            _exact(storage.get(live[position], names))


# ---------------------------------------------------------------------------
# Regression: segment-boundary DELETE, then vacuum re-seals the zones
# ---------------------------------------------------------------------------

def test_zone_maps_stay_correct_across_boundary_delete_and_vacuum():
    database = _build(None, seed=11)
    table = database.table("obj")
    scalar_sql = ("select count(*) as n, min(objid) as lo, "
                  "max(objid) as hi from obj")
    range_sql = ("select count(*) as n, sum(mag) as s from obj "
                 f"where objid between {SEGMENT_ROWS - 4} "
                 f"and {SEGMENT_ROWS + 4}")
    deleted = _boundary_delete(database)
    # The stale zones (built at seal) still claim objid 0 exists; the
    # tombstones must bar zone answers so the live minimum (1) wins.
    for sql in (scalar_sql, range_sql):
        off = _run(database, sql, zone_maps=False)
        on = _run(database, sql)
        assert _exact(on.rows) == _exact(off.rows), sql
    assert _run(database, scalar_sql).rows[0]["lo"] == 1
    # Vacuum compacts and re-seals: fresh segments, fresh zone maps.
    assert table.vacuum() == deleted
    stats = table.storage.storage_statistics()
    assert stats["sealed_rows"] + stats["tail_rows"] == ROWS - deleted
    for sql in (scalar_sql, range_sql):
        off = _run(database, sql, zone_maps=False)
        on = _run(database, sql)
        assert _exact(on.rows) == _exact(off.rows), sql
    # The rebuilt zones are trusted again: the scalar aggregate is
    # answered from every sealed segment without scanning it.
    result = _run(database, scalar_sql)
    assert result.statistics.segments_skipped == stats["segments"]
    assert result.statistics.segments_scanned == 0
    # Vacuum re-sealed both segments: the cumulative seal counter keeps
    # the original seals and adds the rebuilt ones.
    assert stats["segments_sealed"] == 2 * stats["segments"]


# ---------------------------------------------------------------------------
# Acceptance: the fig13 suite over segmented storage, single-node + sharded
# ---------------------------------------------------------------------------

def _assert_suites_identical(expected, actual):
    assert len(expected) == len(actual) >= 20
    for want, got in zip(expected, actual):
        assert got.query_id == want.query_id
        assert got.result.columns == want.result.columns, want.query_id
        assert _exact(got.result.rows) == _exact(want.result.rows), \
            want.query_id


@pytest.fixture(scope="module")
def segmented_skyserver(survey_output):
    from repro.loader import SkyServerLoader
    from repro.schema import create_skyserver_database
    from repro.skyserver import QueryLimits, SkyServer

    database = create_skyserver_database(with_indices=False)
    loader = SkyServerLoader(database, columnar=True)
    report = loader.load_pipeline_output(survey_output)
    assert report.succeeded, report.summary()
    return SkyServer(database, limits=QueryLimits.private())


@pytest.fixture(scope="module")
def sharded_segmented_skyserver(survey_output):
    from repro.loader import SkyServerLoader
    from repro.schema import create_skyserver_database
    from repro.skyserver import QueryLimits, SkyServer

    database = create_skyserver_database(with_indices=False)
    loader = SkyServerLoader(database, columnar=True, shards=4)
    report = loader.load_pipeline_output(survey_output)
    assert report.succeeded, report.summary()
    assert report.cluster is not None
    return SkyServer(database, limits=QueryLimits.private(),
                     cluster=report.cluster)


def test_fig13_zone_maps_byte_identical_single_node(segmented_skyserver):
    server = segmented_skyserver
    original = server.session.planner
    server.session.planner = Planner(server.database, enable_zone_maps=False)
    server.session.plan_cache.clear()
    try:
        baseline = server.run_all_data_mining_queries()
    finally:
        server.session.planner = original
        server.session.plan_cache.clear()
    with_zones = server.run_all_data_mining_queries()
    _assert_suites_identical(baseline, with_zones)
    storage = server.storage_statistics()
    assert storage["compression_ratio"] >= 1.0
    assert any(entry["segments_sealed"] > 0
               for entry in storage["tables"].values())
    assert storage["segments_scanned"] + storage["segments_skipped"] > 0


def test_fig13_sharded_segments_byte_identical(segmented_skyserver,
                                               sharded_segmented_skyserver):
    server = sharded_segmented_skyserver
    first = server.run_all_data_mining_queries()
    second = server.run_all_data_mining_queries()   # plan-cache pass
    _assert_suites_identical(first, second)
    # The merged storage report conserves every table's rows across the
    # four shards (at the test survey's density each shard stays below
    # one SEGMENT_ROWS seal, so the rows all sit in the append tails).
    sharded = server.storage_statistics()["tables"]
    single = segmented_skyserver.storage_statistics()["tables"]
    science = {"PhotoObj", "Neighbors", "Profile", "SpecObj"}
    assert science <= set(sharded) and science <= set(single)
    for name in set(sharded) & set(single):
        entry, want = sharded[name], single[name]
        assert (entry["sealed_rows"] + entry["tail_rows"]
                == want["sealed_rows"] + want["tail_rows"]), name


def test_sharded_scans_skip_segments_and_stay_identical():
    from repro.cluster import ClusterSession, ShardCluster
    from repro.engine import SqlSession

    rows = SEGMENT_ROWS * 9       # two sealed segments per shard
    single = _build(None, seed=13, rows=rows, with_pk=False)
    sharded = ShardCluster.from_database(
        _build(None, seed=13, rows=rows, with_pk=False), shards=4,
        columnar=True)
    reference = SqlSession(single)
    session = ClusterSession(sharded)
    for sql in QUERIES:
        expected = reference.query(sql)
        actual = session.query(sql)
        assert actual.columns == expected.columns, sql
        assert _exact(actual.rows) == _exact(expected.rows), sql
    modes = session.execution_mode_statistics()
    assert modes["segments_scanned"] + modes["segments_skipped"] > 0
    # The range query only touches one segment per shard; zone maps let
    # the other sealed segments go unread.
    assert modes["segments_skipped"] > 0
