"""Vectorized batch hash join vs the row-at-a-time hash join.

PR 2 kept joins on the row path: every probe match merged two binding
dicts and re-bound a RowScope for the residual, the filters and the
aggregation above the join.  This benchmark measures the batch hash
join of PR 3 on the paper's canonical join shape (Figure 10 /
PhotoObj⋈SpecObj): a 50k-row photometric table filtered and joined
against a 5k-row spectroscopic table, aggregated at the top — the
whole chain staying on column buffers.

Acceptance: the batch hash join pipeline is at least 1.5x the row-path
hash join on the 50k⋈5k filter+join+aggregate query.  The floor was 2x
(measured 3.3-3.9x) until the row side got faster — its expressions
became generated functions and its single-key join and GROUP BY loops
stopped building key tuples — which took the row path from ~215 to
~60 ms here and the ratio to 1.6-2.1x (median 2.0x over eight runs on
a 2-core host, Python 3.11); the batch side is unchanged.  Both
absolute times are printed.  The row side is the row pipeline, pinned
with ``Planner(enable_vectorized=False)`` since a row store is a batch
source too; the row store's batch plan is timed and printed beside it.
"""

from __future__ import annotations

import random
import time

from conftest import print_report
from repro.bench import ExperimentReport
from repro.engine import Database, Planner, PrimaryKey, bigint, floating
from repro.engine.explain import plan_operators
from repro.engine.sql import parse_select

PHOTO_ROWS = 50_000
SPEC_ROWS = 5_000

JOIN_SQL = ("select count(*) as n, avg(p.modelmag_r) as mean_r, avg(s.z) as mean_z "
            "from photoobj p join specobj s on p.specobjid = s.specobjid "
            "where p.modelmag_r between 15 and 22 and s.z > 0.02")


def _build_database(storage: str) -> Database:
    database = Database(f"bench_joins_{storage}")
    photo = database.create_table("photoobj", [
        bigint("id"), bigint("specobjid"), bigint("flags"), floating("modelmag_r"),
    ], primary_key=PrimaryKey(["id"]), storage=storage)
    spec = database.create_table("specobj", [
        bigint("specobjid"), floating("z"), bigint("specclass"),
    ], primary_key=PrimaryKey(["specobjid"]), storage=storage)
    rng = random.Random(2002)
    photo.insert_many([
        {"id": index,
         "specobjid": rng.randrange(SPEC_ROWS * 2),
         "flags": rng.randrange(16),
         "modelmag_r": rng.uniform(14.0, 24.0)}
        for index in range(PHOTO_ROWS)
    ])
    spec.insert_many([
        {"specobjid": index,
         "z": rng.uniform(0.0, 0.4),
         "specclass": rng.randrange(6)}
        for index in range(SPEC_ROWS)
    ])
    database.analyze()
    return database


def _best_of(thunk, repeats: int = 5):
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = thunk()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_batch_hash_join_speedup_at_least_1_5x():
    """The acceptance gate: 50k⋈5k filter+join+aggregate, batch >= 1.5x row."""
    # Hash joins forced on both sides (no index on the join key anyway
    # once the planner sees how unselective an index probe would be).
    row_database = _build_database("row")
    row_plan = Planner(row_database, enable_index_join=False,
                       enable_vectorized=False).plan(parse_select(JOIN_SQL))
    unpinned_plan = Planner(row_database,
                            enable_index_join=False).plan(parse_select(JOIN_SQL))
    column_plan = Planner(_build_database("column"),
                          enable_index_join=False).plan(parse_select(JOIN_SQL))
    assert "Hash Join" in plan_operators(row_plan)
    assert "Batch Hash Join" in plan_operators(column_plan)
    assert "Batch Hash Join" in plan_operators(unpinned_plan)

    row_s, row_result = _best_of(lambda: row_plan.execute())
    column_s, column_result = _best_of(lambda: column_plan.execute())
    unpinned_s, unpinned_result = _best_of(lambda: unpinned_plan.execute())
    assert column_result.rows == row_result.rows == unpinned_result.rows
    assert column_result.statistics.batches_processed > 0
    assert row_result.statistics.batches_processed == 0
    speedup = row_s / column_s

    report = ExperimentReport(
        "Batch hash join — 50k⋈5k filter+join+aggregate",
        "Row-path hash join (binding dicts, per-row scopes) vs the batch "
        "pipeline (vector key extraction, gathered column buffers, "
        "C-level reductions).")
    report.add("row hash join elapsed", "", round(row_s, 4), unit="s")
    report.add("batch hash join elapsed", "", round(column_s, 4), unit="s")
    report.add("speedup", ">= 1.5x", f"{speedup:.1f}x")
    report.add("row store, batch hash join elapsed", "", round(unpinned_s, 4), unit="s")
    report.add("joined rows", "", column_result.rows[0]["n"])
    report.add("batches", "", column_result.statistics.batches_processed)
    print_report(report)
    print(f"row hash join {row_s * 1e3:.1f} ms, batch hash join {column_s * 1e3:.1f} ms, "
          f"row store batch hash join {unpinned_s * 1e3:.1f} ms")

    assert speedup >= 1.5, (f"batch hash join only {speedup:.2f}x faster "
                            f"(row {row_s * 1e3:.1f} ms, batch {column_s * 1e3:.1f} ms)")


NEIGHBOR_OBJECTS = 20_000
NEIGHBOR_PAIRS = 60_000

#: Figure 13's Q18 on a column store: an index seek builds the join, the
#: Neighbors scan probes, and GROUP BY … HAVING count(*) folds the pairs.
SEEK_GROUP_SQL = ("select n.objid, count(*) as companions "
                  "from neighbors n join photoobj p on p.objid = n.objid "
                  "where p.type = 3 group by n.objid having count(*) >= 5 "
                  "order by companions desc")


def _build_neighbors() -> Database:
    database = Database("bench_joins_neighbors")
    photo = database.create_table("photoobj", [
        bigint("objid"), bigint("type"), floating("modelmag_r"),
    ], primary_key=PrimaryKey(["objid"]), storage="column")
    neighbors = database.create_table("neighbors", [
        bigint("objid"), bigint("neighborobjid"), floating("distance"),
    ], primary_key=PrimaryKey(["objid", "neighborobjid"]), storage="column")
    rng = random.Random(2002)
    photo.insert_many([
        {"objid": index, "type": rng.choice((3, 3, 6, 6, 0)),
         "modelmag_r": rng.uniform(14.0, 24.0)}
        for index in range(NEIGHBOR_OBJECTS)
    ])
    photo.create_index("ix_photoobj_type_mag", ["type", "modelmag_r"])
    pairs = sorted({(rng.randrange(NEIGHBOR_OBJECTS), rng.randrange(NEIGHBOR_OBJECTS))
                    for _ in range(NEIGHBOR_PAIRS)})
    neighbors.insert_many([
        {"objid": objid, "neighborobjid": other, "distance": rng.uniform(0.0, 0.5)}
        for objid, other in pairs
    ])
    database.analyze()
    return database


def test_seek_built_join_aggregate_speedup_at_least_1_5x():
    """The gate: Q18's seek ⋈ scan → GROUP BY … HAVING, batch >= 1.5x row."""
    database = _build_neighbors()
    batch_plan = Planner(database).plan(parse_select(SEEK_GROUP_SQL))
    row_plan = Planner(database, enable_vectorized=False).plan(
        parse_select(SEEK_GROUP_SQL))
    labels = plan_operators(batch_plan)
    assert {"Batch Aggregate", "Batch Hash Join", "Batch Index Seek"} <= set(labels)
    assert not any(label.startswith("Batch") for label in plan_operators(row_plan))

    row_s, row_result = _best_of(lambda: row_plan.execute())
    batch_s, batch_result = _best_of(lambda: batch_plan.execute())
    assert repr(batch_result.rows) == repr(row_result.rows)
    assert batch_result.statistics.batches_processed > 0
    speedup = row_s / batch_s

    report = ExperimentReport(
        "Seek-built batch join + grouped aggregate (Figure 13's Q18)",
        f"{NEIGHBOR_PAIRS // 1000}k Neighbors pairs probing a type = 3 "
        f"index seek of {NEIGHBOR_OBJECTS // 1000}k PhotoObj rows, grouped "
        "with HAVING count(*) >= 5: enable_vectorized off vs on, one "
        "column-store database.")
    report.add("row-mode elapsed", "", round(row_s, 4), unit="s")
    report.add("batch elapsed", "", round(batch_s, 4), unit="s")
    report.add("speedup", ">= 1.5x", f"{speedup:.1f}x")
    report.add("groups", "", len(batch_result.rows))
    print_report(report)
    print(f"row mode {row_s * 1e3:.1f} ms, batch {batch_s * 1e3:.1f} ms")

    assert speedup >= 1.5, (f"seek-built batch join only {speedup:.2f}x faster "
                            f"(row {row_s * 1e3:.1f} ms, batch {batch_s * 1e3:.1f} ms)")


def test_cbo_join_estimates_are_sane():
    """ANALYZE-backed estimates land within 3x of the actual join output."""
    database = _build_database("column")
    plan = Planner(database, enable_index_join=False).plan(parse_select(JOIN_SQL))
    result = plan.execute()

    def find_join(operator):
        if operator.label.endswith("Hash Join"):
            return operator
        for child in operator.children():
            found = find_join(child)
            if found is not None:
                return found
        return None

    join = find_join(plan.root)
    assert join is not None and join.planner_rows is not None
    actual = join.actual_rows
    estimated = join.planner_rows
    ratio = max(estimated, actual) / max(1, min(estimated, actual))

    report = ExperimentReport(
        "Join cardinality estimation quality",
        "Histogram + distinct-count estimates vs the executed plan.")
    report.add("estimated join rows", "", estimated)
    report.add("actual join rows", "", actual)
    report.add("ratio", "<= 3x", f"{ratio:.2f}x")
    report.add("result", "", result.rows[0]["n"])
    print_report(report)

    assert ratio <= 3.0


#: Figure 13's Q20 on a column store: a seek of bright type-3 objects
#: drives an index nested-loop join into Neighbors' composite primary
#: key, whose pairs hash-join a second seek and group per object.
INDEX_JOIN_GROUP_SQL = ("select p.objid, p.modelmag_r, count(*) as companions "
                        "from photoobj p "
                        "join neighbors n on n.objid = p.objid "
                        "join photoobj q on q.objid = n.neighborobjid "
                        "where q.type = 3 and p.type = 3 and p.modelmag_r < 17 "
                        "group by p.objid, p.modelmag_r having count(*) >= 2 "
                        "order by companions desc")


def test_seek_driven_index_join_aggregate_speedup_at_least_1_5x():
    """The gate: Q20's seek → index join → hash join → GROUP BY … HAVING,
    batch >= 1.5x row mode, byte-identical rows."""
    database = _build_neighbors()
    batch_plan = Planner(database).plan(parse_select(INDEX_JOIN_GROUP_SQL))
    row_plan = Planner(database, enable_vectorized=False).plan(
        parse_select(INDEX_JOIN_GROUP_SQL))
    labels = plan_operators(batch_plan)
    assert {"Batch Aggregate", "Batch Hash Join", "Batch Index Nested Loop Join",
            "Batch Index Seek"} <= set(labels), labels
    assert [label.removeprefix("Batch ") for label in labels] \
        == plan_operators(row_plan)

    row_s, row_result = _best_of(lambda: row_plan.execute())
    batch_s, batch_result = _best_of(lambda: batch_plan.execute())
    assert repr(batch_result.rows) == repr(row_result.rows)
    assert batch_result.rows
    speedup = row_s / batch_s

    report = ExperimentReport(
        "Seek-driven batch index join + hash join + grouped aggregate "
        "(Figure 13's Q20)",
        f"A type = 3, modelmag_r < 17 seek of {NEIGHBOR_OBJECTS // 1000}k "
        f"PhotoObj rows probing the composite key of {NEIGHBOR_PAIRS // 1000}k "
        "Neighbors pairs, hash-joined with a type = 3 seek and grouped with "
        "HAVING count(*) >= 2: enable_vectorized off vs on, one column-store "
        "database.")
    report.add("row-mode elapsed", "", round(row_s, 4), unit="s")
    report.add("batch elapsed", "", round(batch_s, 4), unit="s")
    report.add("speedup", ">= 1.5x", f"{speedup:.1f}x")
    report.add("groups", "", len(batch_result.rows))
    print_report(report)
    print(f"row mode {row_s * 1e3:.1f} ms, batch {batch_s * 1e3:.1f} ms")

    assert speedup >= 1.5, (f"seek-driven batch index join only {speedup:.2f}x "
                            f"faster (row {row_s * 1e3:.1f} ms, batch "
                            f"{batch_s * 1e3:.1f} ms)")
