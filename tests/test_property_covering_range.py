"""Property suite: a covering index scan bounded by its own predicate ≡ the full scan.

When the cost-based planner's cheapest access path is a covering index
scan and the scan's local conjuncts bound a key prefix of that index
(equalities, then at most one range, on the leading columns), the scan
walks only that key range.  It must be invisible in the answer: over
random data with NaN keys, DML with tombstones and vacuum, awkward
bounds — NULL, NaN, ``(- x)``, empty ranges, strings against numeric
keys, bounds that fail to evaluate — and conjuncts that raise on rows
outside the range, the bounded scan, the same plan with its bounds
cleared, and the interpreter (``execute(compiled=False)``) return
``repr``-identical rows in the same order, or raise the same error;
1 and 4 hash shards return what the single node returns.
"""

from __future__ import annotations

from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.cluster import ClusterSession, ShardCluster  # noqa: E402
from repro.engine import (Database, Planner, PrimaryKey,  # noqa: E402
                          SqlSession, bigint, floating, integer, text)
from repro.engine import planner as engine_planner  # noqa: E402
from repro.engine.operators import CoveringIndexScan  # noqa: E402
from repro.engine.sql import parse_select  # noqa: E402
from repro.engine.types import NULL  # noqa: E402

#: The three PhotoObj index shapes the bounded scan has to handle — a
#: two-column float key, an integer-then-float key, one bigint key —
#: and a text key, which no number may seek.
INDEXES = {"ix_radec": ["dec", "ra"], "ix_type_mag": ["type", "modelMag_r"],
           "ix_htm": ["htmID"], "ix_name": ["name"]}

#: Wide rows, so a covering scan (entry width / row width, floored at
#: 0.05) beats an index seek for all but the narrowest ranges.
PADDING = "x" * 400


def build_database(objects, deleted=(), vacuum=False, extra=()) -> Database:
    database = Database("covering-range")
    photo = database.create_table("PhotoObj", [
        bigint("objID"), integer("type"), floating("dec", nullable=True),
        floating("ra"), floating("modelMag_r", nullable=True), bigint("htmID"),
        text("name"), text("note"),
    ], primary_key=PrimaryKey(["objID"]))
    photo.insert_many(_row(objid, values)
                      for objid, values in enumerate(objects, 1))
    for name, columns in INDEXES.items():
        photo.create_index(name, columns)
    doomed = set(deleted)
    if doomed:
        photo.delete_where(lambda row: row["objid"] in doomed)
    if vacuum:
        photo.vacuum()
    for offset, values in enumerate(extra, len(objects) + 1):
        photo.insert(_row(offset, values))
    database.analyze()
    return database


def _row(objid: int, values: tuple) -> dict:
    type_, dec, ra, mag, htm = values
    return {"objID": objid, "type": type_, "dec": NULL if dec is None else dec,
            "ra": ra, "modelMag_r": NULL if mag is None else mag,
            "htmID": htm, "name": f"obj{htm}", "note": PADDING}


def covering_scans(plan) -> list[CoveringIndexScan]:
    found = []

    def walk(operator) -> None:
        if isinstance(operator, CoveringIndexScan):
            found.append(operator)
        for child in operator.children():
            walk(child)

    walk(plan.root)
    return found


def outcome(run) -> tuple[str, str]:
    """The rows by ``repr`` (-0.0 vs 0.0, int vs float, order), or the
    error raised (a math domain error in a bound is not an engine error)."""
    try:
        return ("rows", repr(run().rows))
    except Exception as error:
        return (type(error).__name__, str(error))


def assert_bounded_matches_full(database: Database, sql: str) -> bool:
    """Bounded ≡ unbounded ≡ interpreter; True when a scan was bounded."""
    plan = Planner(database).plan(parse_select(sql))
    scans = covering_scans(plan)
    bounded = any(scan.low or scan.high for scan in scans)
    answer = outcome(plan.execute)
    assert outcome(lambda: plan.execute(compiled=False)) == answer, sql
    for scan in scans:
        scan.low = scan.high = None
    assert outcome(plan.execute) == answer, sql
    return bounded


# -- strategies -------------------------------------------------------------

#: Ties, signed zeros and negatives on purpose: equality prefixes and
#: range edges must land on duplicate keys.
_floats = st.one_of(
    st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.25, 1.0, 1.5, 3.0]),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False).map(
        lambda value: round(value, 3)))

#: Stored floats may also be NaN, which no key order can place.
_stored_floats = st.one_of(_floats, st.just(float("nan")))

_object = st.tuples(st.integers(min_value=0, max_value=3),
                    st.one_of(st.none(), _stored_floats), _stored_floats,
                    st.one_of(st.none(), _stored_floats),
                    st.integers(min_value=-6, max_value=40))


def _number(value) -> str:
    """A numeric SQL bound; negatives (and -0.0) are spelt ``(- x)``."""
    if isinstance(value, float) and (value < 0 or str(value) == "-0.0"):
        return f"(- {-value!r})"
    if isinstance(value, int) and value < 0:
        return f"(- {-value})"
    return repr(value)


_numbers = st.one_of(st.integers(min_value=-7, max_value=42),
                     _floats).map(_number)

#: Bounds ``index.range`` cannot rank against a numeric key, or that
#: fail to evaluate: the scan must read the whole index and match — or
#: raise — exactly like it.
_awkward = st.sampled_from([
    "null", "cast_float('nan')", "'abc'", "'1.5'", "sqrt(-1)",
    "1e308 * 10", "(- 1e308 * 10)"])

_bounds = st.one_of(_numbers, _numbers, _numbers, _awkward)

SHAPES = [
    # (dec, ra): BETWEEN, one-sided, flipped, equality prefix + range
    ("select count(*) as n from PhotoObj where ra between {lo} and {hi} "
     "and dec between {lo} and {hi}"),
    "select objID, dec, ra from PhotoObj where dec between {lo} and {hi}",
    "select objID, dec from PhotoObj where dec >= {lo}",
    "select objID, dec from PhotoObj where dec < {hi}",
    "select objID, dec, ra from PhotoObj where {lo} <= dec and ra > {value}",
    "select objID, dec, ra from PhotoObj where dec > {lo} and ra <= {hi}",
    "select objID, ra from PhotoObj where dec = {value} and ra between {lo} and {hi}",
    "select objID, ra from PhotoObj where dec = {value} and ra <= {hi}",
    # (type, modelMag_r)
    ("select objID, modelMag_r from PhotoObj where type = 1 "
     "and modelMag_r between {lo} and {hi}"),
    "select top 3 objID, type from PhotoObj where type between {lo} and {hi}",
    "select count(*) as n from PhotoObj where type = {value} and modelMag_r > {lo}",
    # (htmID)
    "select objID, htmID from PhotoObj where htmID between {lo} and {hi}",
    "select count(*) as n from PhotoObj where htmID > {lo} and htmID < {hi}",
    # a text key: numbers compare with its values only by raising
    "select objID, name from PhotoObj where name <= {hi}",
    # a conjunct that can raise on rows outside the range, listed first
    "select objID, dec from PhotoObj where sqrt(ra - {value}) > 0 and dec between {lo} and {hi}",
    "select count(*) as n from PhotoObj where ra > 'abc' and dec >= {lo}",
]


@st.composite
def statements(draw) -> str:
    return draw(st.sampled_from(SHAPES)).format(
        lo=draw(_bounds), hi=draw(_bounds), value=draw(_bounds))


@st.composite
def datasets(draw):
    objects = draw(st.lists(_object, max_size=40))
    deleted = (draw(st.lists(st.integers(min_value=1, max_value=len(objects)),
                             max_size=8)) if objects else [])
    return (objects, deleted, draw(st.booleans()),
            draw(st.lists(_object, max_size=5)))


# -- single node ------------------------------------------------------------

@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=datasets(), sql=statements())
def test_bounded_covering_scan_matches_full_scan_and_interpreter(data, sql):
    assert_bounded_matches_full(build_database(*data), sql)


FIXED = [(index % 4, round((index * 7 % 23) / 4.0 - 3.0, 2), index * 0.37 % 5,
          None if index % 9 == 0 else 15.0 + index % 11, index % 31)
         for index in range(120)]


@pytest.mark.parametrize("sql", [
    "select count(*) as n from PhotoObj where ra between 0.5 and 4 "
    "and dec between (- 1.0) and 0.5",
    "select objID, dec, ra from PhotoObj where dec between 0.25 and 2",
    "select objID, dec from PhotoObj where dec >= 1.5",
    "select objID, dec from PhotoObj where dec < (- 1)",
    "select objID, ra from PhotoObj where dec = 0.0 and ra between 1 and 4",
    "select objID, modelMag_r from PhotoObj where type = 1 and modelMag_r between 16 and 24",
    "select top 3 objID, type from PhotoObj where type between 2 and 3",
    "select objID, htmID from PhotoObj where htmID between 5 and 20",
])
@pytest.mark.parametrize("dml", ["none", "tombstones", "vacuum"])
def test_bounded_shapes_plan_bounded_and_match(sql, dml):
    """The shapes the property test draws really are bounded covering
    scans — so its equalities are not vacuous."""
    deleted = range(1, 120, 3) if dml != "none" else ()
    database = build_database(FIXED, deleted, dml == "vacuum", FIXED[:7])
    assert assert_bounded_matches_full(database, sql), sql


def _read_whole_index(database: Database, sql: str) -> bool:
    statistics = database.table("PhotoObj").indexes["ix_radec"].statistics
    statistics.reset()
    outcome(Planner(database).plan(parse_select(sql)).execute)
    return (statistics.full_scans, statistics.range_scans) == (1, 0)


@pytest.mark.parametrize("where", [
    "dec >= cast_float('nan')", "dec >= 'abc'", "dec >= sqrt(-1)",
    "dec >= @nothing", "dec >= 1e308 * 10", "objID <> 'x' and dec >= 0",
    "sqrt(ra - 3) > 0 and dec between 0 and 1",
    "ra > 'abc' and dec between 0 and 1"])
def test_conjuncts_that_can_raise_leave_the_scan_unbounded(where):
    """Only numeric columns against number literals bound the scan:
    anything else may raise on a row outside the range."""
    database = build_database(FIXED)
    sql = f"select objID, dec from PhotoObj where {where}"
    (scan,) = covering_scans(Planner(database).plan(parse_select(sql)))
    assert scan.low is None and scan.high is None
    assert _read_whole_index(database, sql)


def test_a_conjunct_raising_outside_the_range_still_raises():
    """Only the row outside ``dec between 0 and 1`` makes ``sqrt`` raise."""
    database = build_database([(0, 0.5, 4.0, 20.0, 1), (0, 5.0, 1.0, 20.0, 2)])
    sql = "select objID, dec from PhotoObj where sqrt(ra - 3) > 0 and dec between 0 and 1"
    assert covering_scans(Planner(database).plan(parse_select(sql)))
    assert outcome(lambda: SqlSession(database).query(sql)) == (
        "ValueError", "math domain error")


def test_a_null_bound_reads_the_whole_index():
    database = build_database(FIXED)
    sql = "select objID, dec from PhotoObj where dec >= null"
    (scan,) = covering_scans(Planner(database).plan(parse_select(sql)))
    assert scan.low is not None
    assert _read_whole_index(database, sql)


@pytest.mark.parametrize("dml", ["none", "delete", "vacuum"])
def test_an_index_holding_a_nan_key_reads_the_whole_index(dml):
    """NaN leaves the entries out of key order (dec = 3, NaN, 1, 2 sorts
    as inserted), so a bisection would start past the dec = 3 entry."""
    objects = [(0, dec, 1.0, 20.0, 1) for dec in (3.0, float("nan"), 1.0, 2.0)]
    database = build_database(objects, deleted=[4] if dml != "none" else (),
                              vacuum=dml == "vacuum")
    sql = "select objID, dec from PhotoObj where dec between 2.5 and 3.5"
    assert assert_bounded_matches_full(database, sql)
    assert SqlSession(database).query(sql).rows == [{"objID": 1, "dec": 3.0}]
    assert _read_whole_index(database, sql)
    # Deleting the NaN row re-sorts what it misplaced: bisection is sound again.
    database.table("PhotoObj").delete_where(lambda row: row["dec"] != row["dec"])
    assert assert_bounded_matches_full(database, sql)
    assert SqlSession(database).query(sql).rows == [{"objID": 1, "dec": 3.0}]
    assert not _read_whole_index(database, sql)


def test_bounded_scan_reads_only_its_range_and_explains_it():
    database = build_database(FIXED)
    sql = "select objID, dec from PhotoObj where dec between 0.25 and 1"
    plan = Planner(database).plan(parse_select(sql))
    assert "Covering Index Scan" in plan.explain()
    assert "ix_radec (dec, ra) range [0.25]..[1] AS" in plan.explain()
    result = plan.execute()
    inside = sum(1 for values in FIXED
                 if values[1] is not None and 0.25 <= values[1] <= 1)
    assert result.statistics.rows_scanned == inside == len(result.rows)


# -- sharded ----------------------------------------------------------------

def sharded_outcome(run) -> tuple[str, str]:
    """:func:`outcome`, less an error's message: which shard meets the
    first offending row, and so which value the message quotes, depends
    on the placement, bounded or not."""
    kind, detail = outcome(run)
    return (kind, detail if kind == "rows" else "")


def assert_sharded_matches_single(data, shards: int, sql: str) -> None:
    cluster = ShardCluster.from_database(build_database(*data), shards=shards,
                                         partition="hash")
    expected = sharded_outcome(
        lambda: SqlSession(build_database(*data)).query(sql))
    assert sharded_outcome(lambda: ClusterSession(cluster).query(sql)) == expected, (
        f"{shards} shards: {sql}")


def _unbounded(*_arguments):
    return None, None


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=datasets(), sql=statements(), shards=st.sampled_from([1, 4]))
def test_sharded_bounded_covering_scan_matches_unbounded_and_single_node(
        data, sql, shards):
    """Bounded shard scans ≡ the same cluster with every covering scan
    unbounded; and any rows the single node returns, the cluster returns.

    One difference from the single node holds bounded or not: a NaN key
    leaves an index in insertion order, which differs per shard.
    """
    cluster = ShardCluster.from_database(build_database(*data), shards=shards,
                                         partition="hash")
    bounded = sharded_outcome(lambda: ClusterSession(cluster).query(sql))
    with mock.patch.object(engine_planner, "covering_scan_bounds", _unbounded):
        assert sharded_outcome(lambda: ClusterSession(cluster).query(sql)) == bounded, (
            f"{shards} shards: {sql}")
    single = sharded_outcome(lambda: SqlSession(build_database(*data)).query(sql))
    if single[0] == "rows" and "nan" not in repr(data):
        assert bounded == single, f"{shards} shards: {sql}"


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("where", [
    "dec between 0.25 and 1", "dec >= 'abc'", "dec <= null",
    "dec <= cast_float('nan')", "dec > sqrt(-1)", "name <= 5"])
def test_sharded_covering_scans_match_single_node(shards, where):
    cluster = ShardCluster.from_database(build_database(FIXED), shards=shards,
                                         partition="hash")
    column = where.split()[0]
    sql = f"select objID, {column} from PhotoObj where {where}"
    assert "Shard[0] Shard Covering Index Scan ix_" in ClusterSession(
        cluster).explain(sql)
    assert_sharded_matches_single((FIXED,), shards, sql)


def test_sharded_explain_prints_the_key_range():
    cluster = ShardCluster.from_database(build_database(FIXED), shards=4,
                                         partition="hash")
    text_plan = ClusterSession(cluster).explain(
        "select objID, dec from PhotoObj where dec between 0.25 and 1")
    assert "Shard[3] Shard Covering Index Scan ix_radec range [0.25]..[1] " in text_plan


# -- the web_mix rectangle ---------------------------------------------------

def test_web_rectangle_reads_a_fifth_of_the_index_or_less(skyserver):
    """The pool's ``count(*)`` rectangle (±0.1° around an object) walks
    the dec band its predicate bounds, not all of ``ix_photoobj_radec``."""
    photo = skyserver.database.table("PhotoObj")
    index = photo.indexes["ix_photoobj_radec"]
    objects = sorted(photo.storage.iter_dicts(), key=lambda row: row["dec"])
    target = objects[len(objects) // 2]
    ra, dec = target["ra"], target["dec"]
    sql = (f"select count(*) as n from PhotoObj "
           f"where ra between {ra - 0.1:.4f} and {ra + 0.1:.4f} "
           f"and dec between {dec - 0.1:.4f} and {dec + 0.1:.4f}")
    assert "Covering Index Scan [PhotoObj.ix_photoobj_radec (dec, ra) range" in (
        skyserver.explain(sql))
    result = skyserver.query(sql)
    assert result.rows[0]["n"] >= 1
    assert 0 < result.statistics.index_entries_read < len(index) / 5


# -- index seeks --------------------------------------------------------------
#
# A seek walks BTreeIndex.range_or_scan, as the covering scan does, and
# filters by every local conjunct, the key-prefix ones too: a bound that
# does not rank reads the whole index, and the conjunct it came from then
# answers with SQL's semantics — NULL matches nothing, a string against a
# number raises — as a table scan would.

SEEK_ROWS = [(index % 4, round((index * 7 % 23) / 4.0 - 3.0, 2), index * 0.37 % 5,
              None if index % 9 == 0 else 15.0 + index % 11, index % 31)
             for index in range(600)]

#: ``note`` is not in ix_type_mag: the CBO seeks rather than covers.
SEEK = "select objID, note from PhotoObj where type = 3 and modelMag_r {}"


def _sessions(objects, shards):
    if shards == 0:
        return SqlSession(build_database(objects))
    cluster = ShardCluster.from_database(build_database(objects),
                                         shards=shards, partition="hash")
    return ClusterSession(cluster)


def _assert_seeks(session, shards: int, sql: str) -> None:
    plan = session.explain(sql)
    assert ("Shard Index Seek ix_type_mag" if shards
            else "Index Seek [PhotoObj.ix_type_mag") in plan, plan


@pytest.mark.parametrize("shards", [0, 1, 4])
@pytest.mark.parametrize("bound", [">= null", "<= null", "between null and 20",
                                   "between 16 and null"])
def test_an_index_seek_with_a_null_bound_returns_nothing(shards, bound):
    session = _sessions(SEEK_ROWS, shards)
    sql = SEEK.format(bound)
    _assert_seeks(session, shards, sql)
    assert session.query(sql).rows == []
    if not shards:
        plan = Planner(session.database).plan(parse_select(sql))
        assert plan.execute(compiled=False).rows == []


def _scan_rows(session, bound: str) -> list:
    """The seek's statement with its conjuncts unsargable: a table scan."""
    rows = session.query("select objID, note from PhotoObj where type + 0 = 3 "
                         f"and modelMag_r + 0 {bound}").rows
    return sorted(row["objID"] for row in rows)


@pytest.mark.parametrize("shards", [0, 1, 4])
@pytest.mark.parametrize("bound", ["> 20", "< 20", ">= 20", "between 17 and 20"])
def test_an_index_seek_returns_the_scans_rows(shards, bound):
    """A strict bound walks an inclusive key range; the filter drops the
    entries on the bound itself."""
    session = _sessions(SEEK_ROWS, shards)
    sql = SEEK.format(bound)
    _assert_seeks(session, shards, sql)
    rows = session.query(sql).rows
    assert sorted(row["objID"] for row in rows) == _scan_rows(session, bound)
    assert rows


@pytest.mark.parametrize("shards", [0, 1, 4])
def test_an_index_seek_with_a_null_variable_returns_nothing(shards):
    session = _sessions(SEEK_ROWS, shards)
    _assert_seeks(session, shards, SEEK.format(">= @m"))
    assert session.query("declare @m float; " + SEEK.format(">= @m")).rows == []
    assert len(session.query("declare @m float; set @m = 20; "
                             + SEEK.format(">= @m")).rows) == sum(
        1 for type_, _dec, _ra, mag, _htm in SEEK_ROWS
        if type_ == 3 and mag is not None and mag >= 20)


@pytest.mark.parametrize("shards", [0, 1, 4])
def test_an_index_seek_raises_like_the_scan_on_a_string_bound(shards):
    session = _sessions(SEEK_ROWS, shards)
    sql = SEEK.format(">= 'abc'")
    _assert_seeks(session, shards, sql)
    scan = sharded_outcome(lambda: session.query(
        "select objID, note from PhotoObj where type + 0 = 3 "
        "and modelMag_r + 0 >= 'abc'"))
    assert scan[0] == "ExpressionError"
    assert sharded_outcome(lambda: session.query(sql)) == scan


@pytest.mark.parametrize("shards", [0, 1, 4])
def test_an_index_seek_over_a_nan_key_returns_the_scans_rows(shards):
    """A NaN key leaves the index out of key order: the seek reads it whole."""
    objects = [(type_, dec, ra, float("nan") if index % 5 == 0 else mag, htm)
               for index, (type_, dec, ra, mag, htm) in enumerate(SEEK_ROWS)]
    session = _sessions(objects, shards)
    sql = SEEK.format("between 16 and 19")
    _assert_seeks(session, shards, sql)
    rows = session.query(sql).rows
    assert sorted(row["objID"] for row in rows) == _scan_rows(
        session, "between 16 and 19")
    assert rows
