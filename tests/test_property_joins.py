"""Property test: every join strategy returns the same rows.

Generates PhotoObj/SpecObj-shaped data and runs the same join query
under all three join strategies — index nested-loop, hash, and plain
nested-loop — forced via the planner flags (``enable_index_join`` /
``enable_hash_join``), over both row-oriented and column-oriented
storage (the latter exercises the vectorized batch hash join).  All six
plans must return identical multisets of rows.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.engine import Database, Planner, PrimaryKey, bigint, floating, integer
from repro.engine.explain import plan_operators, plan_strategies
from repro.engine.sql import parse_select

JOIN_SQL = ("select p.objid, p.run, p.mag, s.z "
            "from photoobj p join specobj s on p.specid = s.specid "
            "where p.mag < 21 and s.z >= 0")

AGGREGATE_SQL = ("select count(*) as n, min(p.mag) as lo, max(s.z) as hi "
                 "from photoobj p join specobj s on p.specid = s.specid "
                 "where p.mag < 22")


def _build_database(storage: str, photo_rows, spec_rows) -> Database:
    database = Database(f"prop_{storage}")
    photo = database.create_table("photoobj", [
        bigint("objid"), integer("run"), bigint("specid"), floating("mag"),
    ], primary_key=PrimaryKey(["objid"]), storage=storage)
    spec = database.create_table("specobj", [
        bigint("specid"), floating("z"),
    ], primary_key=PrimaryKey(["specid"]), storage=storage)
    photo.insert_many([
        {"objid": index + 1, "run": run, "specid": specid, "mag": mag}
        for index, (run, specid, mag) in enumerate(photo_rows)
    ])
    spec.insert_many([{"specid": specid, "z": z} for specid, z in spec_rows])
    # The index the INL join probes (SpecObj is the smaller, outer side).
    photo.create_index("ix_photo_spec", ["specid"])
    database.analyze()
    return database


def _planners(database: Database) -> dict[str, Planner]:
    return {
        # Index joins beat hash on cost for these shapes (the probe is
        # a unique-key lookup), so leaving both on yields the INL plan.
        "index": Planner(database, enable_hash_join=False),
        "hash": Planner(database, enable_index_join=False),
        "nested": Planner(database, enable_index_join=False,
                          enable_hash_join=False),
    }


def _sorted_rows(result) -> list[tuple]:
    return sorted(tuple(sorted(row.items())) for row in result.rows)


@st.composite
def photo_and_spec(draw):
    spec_ids = draw(st.lists(st.integers(min_value=0, max_value=60),
                             min_size=5, max_size=40, unique=True))
    spec_rows = [(specid, draw(st.floats(min_value=0.0, max_value=0.5,
                                         allow_nan=False, width=32)))
                 for specid in spec_ids]
    photo_rows = draw(st.lists(
        st.tuples(st.integers(min_value=700, max_value=760),
                  st.integers(min_value=0, max_value=80),
                  st.floats(min_value=14.0, max_value=24.0,
                            allow_nan=False, width=32)),
        min_size=25, max_size=120))
    return photo_rows, spec_rows


@given(photo_and_spec())
@settings(max_examples=25, deadline=None)
def test_all_join_strategies_agree(data):
    photo_rows, spec_rows = data
    baseline = None
    for storage in ("row", "column"):
        database = _build_database(storage, photo_rows, spec_rows)
        for strategy, planner in _planners(database).items():
            for sql in (JOIN_SQL, AGGREGATE_SQL):
                plan = planner.plan(parse_select(sql))
                rows = _sorted_rows(plan.execute())
                key = sql
                if baseline is None or key not in baseline:
                    baseline = baseline or {}
                    baseline[key] = rows
                else:
                    assert rows == baseline[key], (storage, strategy, sql)


def test_forced_strategies_produce_the_expected_operators():
    photo_rows = [(756, index % 20, 15.0 + index * 0.1) for index in range(40)]
    spec_rows = [(index, 0.01 * index) for index in range(20)]
    database = _build_database("row", photo_rows, spec_rows)
    planners = _planners(database)
    assert "Index Nested Loop Join" in plan_strategies(
        planners["index"].plan(parse_select(JOIN_SQL)))
    assert "Hash Join" in plan_strategies(
        planners["hash"].plan(parse_select(JOIN_SQL)))
    assert "Nested Loop Join" in plan_strategies(
        planners["nested"].plan(parse_select(JOIN_SQL)))


def test_column_store_hash_plan_batches():
    photo_rows = [(756, index % 20, 15.0 + index * 0.05) for index in range(80)]
    spec_rows = [(index, 0.01 * index) for index in range(20)]
    database = _build_database("column", photo_rows, spec_rows)
    plan = Planner(database, enable_index_join=False).plan(
        parse_select(AGGREGATE_SQL))
    assert "Batch Hash Join" in plan_operators(plan)
    result = plan.execute()
    assert result.statistics.batches_processed > 0


# ---------------------------------------------------------------------------
# Single-key joins and GROUP BY keep the key-tuple semantics
# ---------------------------------------------------------------------------
#
# A single join or group key is hashed as the value itself, several as a
# tuple.  The two must agree on every key a row can carry: NULL never
# joins but is one group; 1, 1.0 and True are one key, so are 0.0 and
# -0.0; a NaN matches itself (one object shared by rows, found by
# identity) and nothing else (fresh NaNs); strings compare exactly.
# Each single-key statement is checked against its twin with a second,
# always-equal key part (which takes the tuple path), and both against
# the interpreter.  Table-valued functions hand rows over uncoerced, so
# the palette reaches the operators as drawn.

import math  # noqa: E402

from repro.cluster import ClusterSession, ShardCluster  # noqa: E402
from repro.engine import SqlSession  # noqa: E402
from repro.engine.types import NULL  # noqa: E402

SHARED_NAN = float("nan")
KEY_PALETTE = [NULL, 0, 1, 2, 1.0, True, False, 0.0, -0.0, 2.5, SHARED_NAN,
               "fresh nan", "a", "A"]
_join_keys = st.sampled_from(KEY_PALETTE)


def _fresh(value):
    return float("nan") if value == "fresh nan" else value


def _key_database(left, right) -> Database:
    database = Database("single_keys")
    left_rows = [{"k": _fresh(k), "j": _fresh(j), "one": 1, "v": index}
                 for index, (k, j) in enumerate(left)]
    right_rows = [{"k": _fresh(k), "j": _fresh(j), "one": 1, "v": index}
                  for index, (k, j) in enumerate(right)]
    columns = [floating("k", nullable=True), floating("j", nullable=True),
               integer("one"), integer("v")]
    database.register_table_function("fLeft", columns, lambda _n: left_rows)
    database.register_table_function("fRight", columns, lambda _n: right_rows)
    # The index-join inner side: numeric keys, coerced to float, plus
    # unmatched filler rows so the optimizer picks the index join.
    inner = database.create_table("tk", [bigint("id"), floating("k", nullable=True),
                                         integer("one")])
    keys = [row["k"] for row in right_rows if not isinstance(row["k"], str)]
    keys += [100.0 + index for index in range(40)]
    inner.insert_many([{"id": index, "k": key, "one": 1}
                       for index, key in enumerate(keys)])
    inner.create_index("ix_tk_k", ["k"])
    database.analyze()
    return database


def _outcome(plan, compiled=True):
    try:
        return ("rows", repr(plan.execute(compiled=compiled).rows))
    except Exception as error:  # parity covers failures too
        return ("error", type(error).__name__, str(error))


JOIN = "select a.v, b.v as w, a.k, b.k as bk from fLeft(0) as a join fRight(0) as b on {on}"
GROUP = "select a.k, count(*) as n, sum(a.v) as s, max(a.j) as hi from fLeft(0) as a group by {by}"
INDEX_JOIN = "select a.v, t.id, t.k from fLeft(0) as a join tk as t on {on}"


@given(st.lists(st.tuples(_join_keys, _join_keys), max_size=20),
       st.lists(st.tuples(_join_keys, _join_keys), max_size=20))
@settings(max_examples=60, deadline=None)
def test_single_key_paths_match_the_tuple_path_and_the_interpreter(left, right):
    database = _key_database(left, right)
    hashing = Planner(database, enable_index_join=False)
    pairs = [
        (hashing, JOIN.format(on="a.k = b.k"), JOIN.format(on="a.k = b.k and a.one = b.one")),
        (hashing, GROUP.format(by="a.k"), GROUP.format(by="a.k, a.one")),
        (Planner(database), INDEX_JOIN.format(on="t.k = a.k"),
         INDEX_JOIN.format(on="t.k = a.k and t.one = a.one")),
    ]
    for planner, single_sql, twin_sql in pairs:
        single = planner.plan(parse_select(single_sql))
        twin = planner.plan(parse_select(twin_sql))
        assert _outcome(single) == _outcome(twin) == _outcome(single, False), single_sql
    # Two-part keys with NULL in one part: parity with the interpreter.
    for sql in (JOIN.format(on="a.k = b.k and a.j = b.j"), GROUP.format(by="a.k, a.j")):
        plan = hashing.plan(parse_select(sql))
        assert _outcome(plan) == _outcome(plan, False), sql


def test_single_key_twins_plan_as_intended():
    database = _key_database([(1, 2)], [(1, 2)])
    hashing = Planner(database, enable_index_join=False)
    single = hashing.plan(parse_select(JOIN.format(on="a.k = b.k"))).explain()
    twin = hashing.plan(parse_select(
        JOIN.format(on="a.k = b.k and a.one = b.one"))).explain()
    assert "build(a.k) = probe(b.k)" in single or "build(b.k) = probe(a.k)" in single
    assert "a.one" in twin.split("Hash Join [")[1].split("]")[0]
    probe = Planner(database).plan(parse_select(INDEX_JOIN.format(on="t.k = a.k")))
    assert "Index Nested Loop Join" in plan_operators(probe)


def test_nan_and_equal_number_keys_join_as_before():
    # Duplicate build keys, a shared NaN (matches itself), a fresh NaN
    # (matches nothing), NULL (never joins), 1/1.0/True and 0.0/-0.0.
    left = [(1, 0), (1.0, 0), (True, 0), (SHARED_NAN, 0), ("fresh nan", 0),
            (NULL, 0), (0.0, 0), (-0.0, 0)]
    right = [(1, 0), (True, 0), (SHARED_NAN, 0), ("fresh nan", 0), (NULL, 0), (-0.0, 0)]
    database = _key_database(left, right)
    plan = Planner(database, enable_index_join=False).plan(
        parse_select(JOIN.format(on="a.k = b.k")))
    pairs = sorted((row["v"], row["w"]) for row in plan.execute().rows)
    assert pairs == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 2),
                     (6, 5), (7, 5)]
    groups = Planner(database).plan(parse_select(GROUP.format(by="a.k"))).execute()
    assert [(repr(row["k"]), row["n"]) for row in groups.rows] == [
        ("1", 3), ("nan", 1), ("nan", 1), ("None", 1), ("0.0", 2)]


# -- the cluster's co-partitioned join and fragment aggregates -------------

def _cluster_database(objects, pairs, storage: str = "row") -> Database:
    database = Database("single_keys_cluster")
    photo = database.create_table(
        "PhotoObj", [bigint("objID"), integer("type"), floating("mag", nullable=True),
                     integer("one")],
        primary_key=PrimaryKey(["objID"]), storage=storage)
    neighbors = database.create_table(
        "Neighbors", [bigint("objID"), bigint("neighborObjID"), floating("distance"),
                      integer("one")],
        primary_key=PrimaryKey(["objID", "neighborObjID"]), storage=storage)
    photo.insert_many({"objID": objid, "type": type_, "mag": mag, "one": 1}
                      for objid, (type_, mag) in enumerate(objects, start=1))
    neighbors.insert_many({"objID": a, "neighborObjID": b, "distance": distance, "one": 1}
                          for (a, b), distance in sorted(pairs.items()))
    database.analyze()
    return database


_ON = "from Neighbors n join PhotoObj p on p.objID = n.objID"
_TWIN_ON = "from Neighbors n join PhotoObj p on p.objID = n.objID and p.one = n.one"
#: (single-key statement, its tuple-path twin): the join itself, then
#: partial fragments (count/max) and ordered ones (float sum/avg).
CLUSTER_PAIRS = [
    (f"select n.objID, n.neighborObjID, p.mag {_ON} where n.distance < 0.7",
     f"select n.objID, n.neighborObjID, p.mag {_TWIN_ON} where n.distance < 0.7"),
    (f"select p.mag, count(*) as c, max(n.distance) as d {_ON} group by p.mag",
     f"select p.mag, count(*) as c, max(n.distance) as d {_ON} group by p.mag, p.one"),
    (f"select n.objID, sum(n.distance) as d {_ON} group by n.objID",
     f"select n.objID, sum(n.distance) as d {_ON} group by n.objID, n.one"),
]
#: Two-part group keys with NULL parts.
CLUSTER_MULTI = [
    f"select p.mag, p.type, count(*) as c {_ON} group by p.mag, p.type",
    f"select p.type, p.mag, avg(n.distance) as d {_ON} group by p.type, p.mag",
]

_mags = st.sampled_from([NULL, 0.0, -0.0, 1.0, 17.5, 20.25, math.nan])


def _zero_blind(rows):
    """Rows as a multiset, -0.0 read as 0.0: across shards the group
    keeps whichever signed zero its first merged fragment saw."""
    return sorted(repr({key: 0.0 if value == 0.0 and isinstance(value, float) else value
                        for key, value in row.items()}) for row in rows)


@pytest.mark.parametrize("shards", [1, 4])
@given(objects=st.lists(st.tuples(st.integers(min_value=0, max_value=3), _mags),
                        min_size=1, max_size=25),
       pairs=st.dictionaries(st.tuples(st.integers(min_value=1, max_value=25),
                                       st.integers(min_value=1, max_value=25)),
                             st.floats(min_value=0.0, max_value=1.0, width=32),
                             max_size=40))
@settings(max_examples=15, deadline=None)
def test_cluster_join_and_fragment_aggregates_keep_the_tuple_path(shards, objects, pairs):
    # The shards are column stores: the single node is one too.
    single = SqlSession(_cluster_database(objects, pairs, "column"))
    cluster = ShardCluster.from_database(_cluster_database(objects, pairs),
                                         shards=shards, partition="hash")
    session = ClusterSession(cluster)
    for single_sql, twin_sql in CLUSTER_PAIRS:
        rows = session.query(single_sql).rows
        assert repr(rows) == repr(session.query(twin_sql).rows), single_sql
        expected = single.query(single_sql).rows
        if shards == 1:
            assert repr(rows) == repr(expected), single_sql
        assert _zero_blind(rows) == _zero_blind(expected), single_sql
    for sql in CLUSTER_MULTI:
        assert _zero_blind(session.query(sql).rows) == _zero_blind(single.query(sql).rows)
    assert cluster.executor.copartitioned_queries == 2 * len(CLUSTER_PAIRS) + len(
        CLUSTER_MULTI)
