"""Compiled expression pipeline vs the interpreted evaluator.

Every row of a scan used to pay recursive ``Expression.evaluate``
dispatch plus a fresh ``RowScope``; hot operators now compile each
expression once per execution into one generated function that reads
the row bindings directly.  This benchmark measures that on a 50k-row
filter+project scan (the shape of the paper's "complex colour cut"
queries of §11) and the session plan cache on a hot repeated query.

It also gates the shape of Figure 13's heaviest statement (Q18): a
row-store hash join, GROUP BY, HAVING and ORDER BY, where every
expression runs as one generated function and the join and aggregate
loops hash a single key as the value itself.

Acceptance: the compiled row pipeline is at least 2x the interpreted
path on the 50k-row scan, and the compiled join+aggregate at least 3x
the interpreted one.  Both compiled sides are the row pipeline, pinned
with ``Planner(enable_vectorized=False)`` (a row store is a batch
source too); the report prints the row store's batch plan beside them.
"""

from __future__ import annotations

import random
import time

from conftest import print_report
from repro.bench import ExperimentReport
from repro.engine import (Database, Planner, PrimaryKey, SqlSession, bigint,
                          floating, integer)
from repro.engine.explain import plan_operators
from repro.engine.sql import parse_select

ROW_COUNT = 50_000
SQL = ("select id, ra + dec as pos, modelmag_r * 2 - 1 as m2 "
       "from photoobj "
       "where modelmag_r > 15 and modelmag_r < 22 and flags & 3 = 1")


def _build_database(row_count: int = ROW_COUNT) -> Database:
    database = Database("bench_compiled")
    table = database.create_table("photoobj", [
        bigint("id"), floating("ra"), floating("dec"),
        bigint("flags"), floating("modelmag_r"),
    ], primary_key=PrimaryKey(["id"]))
    rng = random.Random(2002)
    table.insert_many([
        {"id": index,
         "ra": rng.uniform(0.0, 360.0),
         "dec": rng.uniform(-90.0, 90.0),
         "flags": rng.randrange(16),
         "modelmag_r": rng.uniform(14.0, 24.0)}
        for index in range(row_count)
    ])
    return database


def _best_of(thunk, repeats: int = 3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = thunk()
        best = min(best, time.perf_counter() - started)
    return best, result


def _batch_plan_seconds(database: Database, sql: str, expected, **flags) -> float:
    """Best time of the row store's unpinned (batch) plan of ``sql``,
    checked against ``expected``."""
    plan = Planner(database, **flags).plan(parse_select(sql))
    seconds, result = _best_of(lambda: plan.execute())
    assert repr(result.rows) == repr(expected.rows)
    assert result.statistics.batches_processed > 0
    return seconds


def test_compiled_scan_speedup_at_least_2x():
    database = _build_database()
    query = parse_select(SQL)
    interpreted_plan = Planner(database, enable_vectorized=False).plan(query)
    compiled_plan = Planner(database, enable_vectorized=False).plan(query)

    interpreted_s, interpreted_result = _best_of(
        lambda: interpreted_plan.execute(compiled=False))
    compiled_s, compiled_result = _best_of(lambda: compiled_plan.execute())

    assert compiled_result.rows == interpreted_result.rows
    assert compiled_result.statistics.batches_processed == 0
    batch_s = _batch_plan_seconds(database, SQL, compiled_result)
    speedup = interpreted_s / compiled_s

    report = ExperimentReport(
        "Compiled expression pipeline — 50k-row filter+project scan",
        "Interpreted per-row Expression.evaluate vs the compiled row "
        "pipeline (one generated function per expression).")
    report.add("interpreted elapsed", "", round(interpreted_s, 4), unit="s")
    report.add("compiled elapsed", "", round(compiled_s, 4), unit="s")
    report.add("speedup", ">= 2x", f"{speedup:.1f}x")
    report.add("batch plan elapsed", "", round(batch_s, 4), unit="s")
    report.add("rows selected", "", len(compiled_result.rows))
    report.add("exprs compiled", "", compiled_result.statistics.exprs_compiled)
    print_report(report)

    assert speedup >= 2.0, f"compiled path only {speedup:.2f}x faster"


JOIN_AGGREGATE_SQL = (
    "select n.objid, count(*) as companions from neighbors n "
    "join photoobj p on p.objid = n.objid where p.type = 3 "
    "group by n.objid having count(*) >= 5 order by companions desc")

#: Photometry ahead of ``type``: a row store hands whole rows to the
#: interpreter, whose name lookups scan them (the schema's PhotoObj has
#: 148 columns, ``type`` the eleventh).
MAGNITUDES = [f"{kind}_{band}" for kind in ("psfmag", "modelmag", "petromag")
              for band in "ugriz"]


def _build_neighbors_database(objects: int = 4_000, pairs: int = 12_000) -> Database:
    """Q18's tables on a row store: PhotoObj and ~3 Neighbors pairs per
    object (the survey has 10,918 pairs for 4,323 objects)."""
    database = Database("bench_compiled_join")
    photo = database.create_table(
        "photoobj", [bigint("objid"), *map(floating, MAGNITUDES), integer("type")],
        primary_key=PrimaryKey(["objid"]))
    neighbors = database.create_table("neighbors", [
        bigint("objid"), bigint("neighborobjid"), floating("distance"),
        integer("type"), integer("neighbortype"),
    ])
    rng = random.Random(2002)
    types = {index: rng.choice((3, 3, 6)) for index in range(objects)}
    photo.insert_many([{"objid": index, "type": type_,
                        **{name: rng.uniform(14.0, 24.0) for name in MAGNITUDES}}
                       for index, type_ in types.items()])
    rows = []
    for _ in range(pairs):
        left, right = rng.randrange(objects), rng.randrange(objects)
        rows.append({"objid": left, "neighborobjid": right,
                     "distance": rng.uniform(0.0, 0.5),
                     "type": types[left], "neighbortype": types[right]})
    neighbors.insert_many(rows)
    database.analyze()
    return database


def test_compiled_join_aggregate_speedup_at_least_3x():
    """Q18's shape on a row store: hash join, GROUP BY, HAVING, ORDER BY."""
    database = _build_neighbors_database()
    plan = Planner(database, enable_index_join=False,
                   enable_vectorized=False).plan(parse_select(JOIN_AGGREGATE_SQL))
    assert {"Hash Join", "Aggregate", "Sort"} <= set(plan_operators(plan))

    # Best of 9 alternated runs: a burst of load slows both sides, not one.
    interpreted_s = compiled_s = float("inf")
    for _ in range(9):
        seconds, interpreted_result = _best_of(lambda: plan.execute(compiled=False), 1)
        interpreted_s = min(interpreted_s, seconds)
        seconds, compiled_result = _best_of(lambda: plan.execute(), 1)
        compiled_s = min(compiled_s, seconds)

    assert repr(compiled_result.rows) == repr(interpreted_result.rows)
    assert compiled_result.statistics.batches_processed == 0
    batch_s = _batch_plan_seconds(database, JOIN_AGGREGATE_SQL, compiled_result,
                                  enable_index_join=False)
    speedup = interpreted_s / compiled_s

    report = ExperimentReport(
        "Compiled expressions — row-store join + aggregate (Q18 shape)",
        "Interpreted per-row Expression.evaluate vs generated functions, "
        "single-key hash join and GROUP BY loops.")
    report.add("interpreted elapsed", "", round(interpreted_s, 4), unit="s")
    report.add("compiled elapsed", "", round(compiled_s, 4), unit="s")
    report.add("speedup", ">= 3x", f"{speedup:.1f}x")
    report.add("batch plan elapsed", "", round(batch_s, 4), unit="s")
    report.add("groups returned", "", len(compiled_result.rows))
    print_report(report)

    assert speedup >= 3.0, f"compiled join+aggregate only {speedup:.2f}x faster"


def test_plan_cache_hot_query():
    """The second execution of an identical batch skips lex/parse/plan."""
    database = _build_database(5_000)
    session = SqlSession(database)
    repeats = 50

    cold_s, _ = _best_of(lambda: session.query(SQL), repeats=1)
    assert session.plan_cache.misses == 1

    started = time.perf_counter()
    for _ in range(repeats):
        session.query(SQL)
    hot_s = (time.perf_counter() - started) / repeats
    assert session.plan_cache.hits == repeats
    assert session.planner.plans_built == 1  # never re-planned

    report = ExperimentReport(
        "Plan cache — hot repeated SkyServer query",
        "The SkyServer traffic of §7 repeats hot template queries; cached "
        "plans skip the lexer, parser and planner on every repeat.")
    report.add("first execution (parse+plan+run)", "", round(cold_s * 1e3, 3), unit="ms")
    report.add("cached execution (run only)", "", round(hot_s * 1e3, 3), unit="ms")
    report.add("cache hits", repeats, session.plan_cache.hits)
    print_report(report)
