"""Statistics subsystem + cost-based optimizer tests.

Covers the ANALYZE statement (lexer→parser→session), the statistics
collected per column (distinct counts, min/max, null fraction,
equi-depth histogram, MCVs), staleness tracking, the planner's
statistics-driven cardinality estimates and cost-based access-path /
join-order / build-side choices, the selectivity-compounding fix, the
EXPLAIN cost output (including EXPLAIN ANALYZE), and the vectorized
batch hash join.
"""

import random

import pytest

from repro.engine import (Database, Planner, PrimaryKey, SqlSession, bigint,
                          floating)
from repro.engine.explain import plan_operators, plan_strategies
from repro.engine.operators import HashJoin, IndexRangeScan, TableScan
from repro.engine.sql import parse_select
from repro.engine.stats import collect_table_statistics


@pytest.fixture()
def session(toy_photo_database):
    return SqlSession(toy_photo_database)


def _find_operators(plan, kind):
    found = []

    def walk(operator):
        if isinstance(operator, kind):
            found.append(operator)
        for child in operator.children():
            walk(child)

    walk(plan.root)
    return found


class TestStatisticsCollection:
    def test_analyze_statement_collects_statistics(self, session, toy_photo_database):
        assert toy_photo_database.table_statistics("PhotoObj") is None
        results = session.execute("analyze PhotoObj")
        assert results[0].kind == "analyze"
        assert results[0].value == ["PhotoObj"]
        statistics = toy_photo_database.table_statistics("PhotoObj")
        assert statistics is not None
        assert statistics.row_count == 500

    def test_analyze_without_table_analyzes_everything(self, session, toy_photo_database):
        results = session.execute("analyze")
        assert set(results[0].value) == set(toy_photo_database.table_names())

    def test_bare_analyze_in_unseparated_batch(self, session, toy_photo_database):
        """Regression: bare ANALYZE must not swallow the next statement."""
        results = session.execute("analyze\nselect count(*) as n from PhotoObj")
        assert results[0].kind == "analyze"
        assert set(results[0].value) == set(toy_photo_database.table_names())
        assert results[1].kind == "select"
        assert results[1].result.scalar() == 500

    def test_column_statistics_contents(self, toy_photo_database):
        statistics = collect_table_statistics(toy_photo_database.table("PhotoObj"))
        run = statistics.column("run")
        assert run.distinct_count == 2
        assert run.minimum == 745 and run.maximum == 756
        assert run.null_fraction == 0.0
        assert 745 in run.mcvs and 756 in run.mcvs
        assert run.mcvs[756] == 250
        mag = statistics.column("modelMag_r")
        assert len(mag.histogram_bounds) >= 2
        assert 14.0 <= mag.minimum <= mag.maximum <= 22.0

    def test_mcv_equality_selectivity_is_exact(self, toy_photo_database):
        statistics = collect_table_statistics(toy_photo_database.table("PhotoObj"))
        kind = statistics.column("type")
        galaxies = sum(1 for row in toy_photo_database.table("PhotoObj")
                       if row["type"] == "galaxy")
        assert kind.equality_selectivity("galaxy") == pytest.approx(galaxies / 500)

    def test_histogram_range_selectivity_tracks_reality(self, toy_photo_database):
        statistics = collect_table_statistics(toy_photo_database.table("PhotoObj"))
        mag = statistics.column("modelMag_r")
        actual = sum(1 for row in toy_photo_database.table("PhotoObj")
                     if row["modelmag_r"] < 16.0) / 500
        estimated = mag.range_selectivity(None, 16.0)
        assert abs(estimated - actual) < 0.1

    def test_point_range_over_heavy_value_keeps_its_mass(self, empty_database):
        """Regression: BETWEEN x AND x over a frequent value must not collapse."""
        table = empty_database.create_table("t", [bigint("a")])
        table.insert_many([{"a": 5} for _ in range(500)]
                          + [{"a": i % 100 + 10} for i in range(500)])
        statistics = collect_table_statistics(table)
        column = statistics.column("a")
        equality = column.equality_selectivity(5)
        point_range = column.range_selectivity(5, 5)
        assert point_range >= equality * 0.9

    def test_point_range_over_non_mcv_duplicates(self, empty_database):
        """Regression: duplicate-heavy values outside the MCV list too."""
        table = empty_database.create_table("t", [bigint("a")])
        # 20 values, 5% each: none dominant enough to matter, all equal.
        table.insert_many([{"a": i % 20} for i in range(10_000)])
        statistics = collect_table_statistics(table)
        column = statistics.column("a")
        estimated = column.range_selectivity(19, 19)
        assert estimated == pytest.approx(0.05, rel=0.5)

    def test_null_fraction(self, empty_database):
        table = empty_database.create_table(
            "t", [bigint("a"), floating("b", nullable=True)])
        table.insert_many([{"a": i, "b": None if i % 4 == 0 else float(i)}
                           for i in range(100)])
        statistics = collect_table_statistics(table)
        assert statistics.column("b").null_fraction == pytest.approx(0.25)
        assert statistics.column("a").null_fraction == 0.0

    def test_statistics_work_on_column_store(self, empty_database):
        table = empty_database.create_table(
            "t", [bigint("a"), floating("b")], storage="column")
        table.insert_many([{"a": i % 10, "b": float(i)} for i in range(200)])
        statistics = collect_table_statistics(table)
        assert statistics.column("a").distinct_count == 10
        assert statistics.column("b").minimum == 0.0
        assert statistics.column("b").maximum == 199.0


class TestStaleness:
    def test_modification_counter_tracks_dml(self, empty_database):
        table = empty_database.create_table("t", [bigint("a")])
        assert table.modification_counter == 0
        row_id = table.insert({"a": 1})
        table.insert({"a": 2})
        assert table.modification_counter == 2
        table.delete_row(row_id)
        assert table.modification_counter == 3

    def test_freshness_report(self, empty_database):
        table = empty_database.create_table("t", [bigint("a")])
        table.insert({"a": 1})
        empty_database.analyze_table("t")
        fresh = empty_database.statistics_freshness()[0]
        assert fresh["analyzed"] and not fresh["stale"]
        table.insert({"a": 2})
        stale = empty_database.statistics_freshness()[0]
        assert stale["stale"] and stale["modifications_since_analyze"] == 1

    def test_analyze_invalidates_cached_plans(self, session, toy_photo_database):
        sql = "select objID from PhotoObj where modelMag_r < 15"
        session.query(sql)
        assert session.plan_cache.hits == 0
        session.query(sql)
        assert session.plan_cache.hits == 1
        session.execute("analyze PhotoObj")
        session.query(sql)   # schema version bumped: replanned, not reused
        assert session.plan_cache.hits == 1

    def test_stale_access_path_not_reused_after_analyze(self, session,
                                                        toy_photo_database):
        """Regression: a cached pre-ANALYZE plan whose access path the new
        statistics would change must be replanned, not replayed.

        ``run = 756`` covers half the table.  Without statistics the
        fallback constants make seeking the ``(run, camcol, field)``
        index look cheap; once
        ANALYZE reveals how unselective the predicate is, the CBO costs
        the 250 random bookmark lookups above a sequential scan."""
        wide_sql = "select objID, ra, rowv, colv, flags from PhotoObj where run = 756"
        before = session.query(wide_sql)
        assert "Index Seek" in plan_strategies(before.plan)
        session.query(wide_sql)
        assert session.plan_cache.hits == 1        # the seek plan is cached

        session.execute("analyze PhotoObj")
        after = session.query(wide_sql)
        assert session.plan_cache.hits == 1        # stale entry dropped, not reused
        assert session.plan_cache.invalidations == 1
        assert "Index Seek" not in plan_strategies(after.plan)
        assert sorted(after.column("objID")) == sorted(before.column("objID"))


class TestSelectivityCompounding:
    def test_many_conjuncts_do_not_collapse_to_one_row(self, session):
        """Regression: per-conjunct constants used to multiply unchecked."""
        sql = ("select objID from PhotoObj "
               "where rowv > 1 and colv > 1 and rowv < 29 and colv < 29 "
               "and modelMag_r > 14 and modelMag_r < 22 and ra > 180 and dec > -1")
        plan = session.plan(sql)
        scans = _find_operators(plan, TableScan)
        assert scans, plan_operators(plan)
        estimate = scans[0].planner_rows
        # Naive compounding would give 500 * 0.25^8 < 1 row; the
        # exponential backoff keeps a usable estimate.
        assert estimate is not None and estimate >= 10

    def test_estimate_clamped_to_at_least_one(self, session):
        plan = session.plan(
            "select objID from PhotoObj where run = 1 and camcol = 2 and field = 3 "
            "and type = 'x' and flags = 99")
        for operator in _find_operators(plan, (TableScan, IndexRangeScan)):
            assert operator.planner_rows >= 1

    def test_fallback_estimator_also_backed_off(self, toy_photo_database):
        """Without ANALYZE statistics the fixed constants compound with
        the same backoff."""
        planner = Planner(toy_photo_database)
        plan = planner.plan(parse_select(
            "select objID from PhotoObj "
            "where rowv > 1 and colv > 1 and rowv < 29 and colv < 29 "
            "and modelMag_r > 14 and modelMag_r < 22 and ra > 180 and dec > -1"))
        assert planner.fallback_plans == 1
        scans = _find_operators(plan, TableScan)
        assert scans and scans[0].planner_rows >= 1


class TestCostBasedChoices:
    def test_selective_equality_seeks_wide_range_scans(self, session):
        session.execute("analyze PhotoObj")
        seek_plan = session.plan("select objID from PhotoObj where objID = 42")
        assert "Index Seek" in plan_strategies(seek_plan)
        # run covers half the table: fetching 250 rows through random
        # bookmark lookups is costed above one sequential scan.
        wide_sql = "select objID, ra, rowv, colv, flags from PhotoObj where run = 756"
        wide_plan = session.plan(wide_sql)
        assert "Index Seek" not in plan_strategies(wide_plan)
        rows = wide_plan.execute().rows
        assert len(rows) == 250

    def test_hash_join_builds_on_smaller_side(self, toy_photo_database):
        table = toy_photo_database.create_table("SpecObj", [
            bigint("specObjID"), bigint("objID"), floating("z"),
        ], primary_key=PrimaryKey(["specObjID"]))
        table.insert_many([{"specObjID": 1000 + i, "objID": i * 5 + 1, "z": 0.02 * i}
                           for i in range(40)], database=toy_photo_database)
        toy_photo_database.analyze()
        planner = Planner(toy_photo_database, enable_index_join=False)
        plan = planner.plan(parse_select(
            "select p.objID, s.z from PhotoObj p join SpecObj s on p.objID = s.objID"))
        joins = _find_operators(plan, HashJoin)
        assert len(joins) == 1
        join = joins[0]
        assert join.build.planner_rows <= join.probe.planner_rows
        assert join.build.planner_rows == 40

    def test_optimizer_plan_counters(self, toy_photo_database):
        session = SqlSession(toy_photo_database)
        session.query("select objID from PhotoObj where rowv > 20")
        counters = session.optimizer_statistics()
        assert counters == {"cbo_plans": 0, "fallback_plans": 1}
        session.execute("analyze PhotoObj")
        session.query("select objID from PhotoObj where rowv > 21")
        counters = session.optimizer_statistics()
        assert counters["cbo_plans"] == 1


class TestExplainOutput:
    def test_explain_shows_cost_and_rows(self, session):
        session.execute("analyze")
        text_plan = session.explain("select objID from PhotoObj where objID = 42")
        assert "estimated rows=" in text_plan
        assert "cost=" in text_plan

    def test_explain_analyze_shows_actual_rows(self, session):
        text_plan = session.explain(
            "select count(*) as n from PhotoObj where type = 'galaxy'", analyze=True)
        assert "actual rows=" in text_plan

    @pytest.mark.parametrize("options, sql, label", [
        ({}, "select type, modelMag_r from PhotoObj where type = type",
         "Covering Index Scan"),
        ({}, "select a.objID from PhotoObj a join PhotoObj b "
             "on a.objID = b.objID where a.objID = 7", "Index Nested Loop Join"),
        ({"enable_index_join": False}, "select a.objID from PhotoObj a "
         "join PhotoObj b on a.objID = b.objID where a.rowv > 29", "Hash Join"),
        ({}, "select a.objID from PhotoObj a, PhotoObj b "
             "where a.rowv > b.colv + 29.9 and a.objID < 3", "Nested Loop Join"),
        ({}, "select f.objID from fFew() as f", "Table-valued Function"),
        ({}, "select 6 * 7 as answer", "Row Source"),
    ], ids=["covering-scan", "index-join", "hash-join", "nested-loop",
            "table-function", "relationless"])
    def test_every_operator_carries_planner_rows(self, toy_photo_database,
                                                 options, sql, label):
        """Without ANALYZE statistics the fallback constants still cost
        every plan shape, so EXPLAIN reads ``planner_rows`` on each line."""
        toy_photo_database.register_table_function(
            "fFew", [bigint("objID")], lambda: [{"objID": 1}, {"objID": 2}],
            row_estimate=3)
        plan = Planner(toy_photo_database, **options).plan(parse_select(sql))
        assert label in plan_strategies(plan)
        operators = _find_operators(plan, object)
        assert all(operator.planner_rows is not None for operator in operators)
        lines = plan.explain().splitlines()
        assert len(lines) == len(operators)
        assert all("(estimated rows=" in line for line in lines)

    def test_explain_without_analyze_has_no_actuals(self, session):
        text_plan = session.explain("select objID from PhotoObj where rowv > 20")
        assert "actual rows=" not in text_plan

    def test_explain_analyze_runs_declare_set_batches(self, session):
        """Regression: EXPLAIN ANALYZE must execute the batch's DECLARE/SET."""
        text_plan = session.explain(
            "declare @r integer set @r = 756 "
            "select count(*) as n from PhotoObj where run = @r", analyze=True)
        assert "actual rows=" in text_plan


class TestBatchHashJoin:
    SQL_AGGREGATE = ("select count(*) as n, avg(p.mag) as m, min(s.z) as lo "
                     "from photoobj p join specobj s on p.specid = s.specid "
                     "where p.mag between 15 and 22 and s.z > 0.05")
    SQL_PROJECT = ("select p.id, p.mag + s.z as mz "
                   "from photoobj p join specobj s on p.specid = s.specid "
                   "where p.mag < 18")
    SQL_GROUP = ("select s.cls, count(*) as n, avg(p.mag) as m "
                 "from photoobj p join specobj s on p.specid = s.specid "
                 "group by s.cls order by s.cls")

    @staticmethod
    def _build(storage: str) -> Database:
        database = Database(f"join_{storage}")
        photo = database.create_table("photoobj", [
            bigint("id"), bigint("specid"), floating("mag"),
        ], primary_key=PrimaryKey(["id"]), storage=storage)
        spec = database.create_table("specobj", [
            bigint("specid"), floating("z"), bigint("cls"),
        ], primary_key=PrimaryKey(["specid"]), storage=storage)
        rng = random.Random(2002)
        photo.insert_many([{"id": i, "specid": rng.randrange(400),
                            "mag": rng.uniform(14.0, 24.0)} for i in range(4000)])
        spec.insert_many([{"specid": i, "z": rng.uniform(0.0, 0.4),
                           "cls": rng.randrange(4)} for i in range(300)])
        database.analyze()
        return database

    @pytest.mark.parametrize("sql", [SQL_AGGREGATE, SQL_PROJECT, SQL_GROUP])
    def test_batch_join_matches_row_path(self, sql):
        # The row store with vectorization off is the row pipeline.
        results = {}
        for storage in ("row", "column"):
            planner = Planner(self._build(storage), enable_index_join=False,
                              enable_vectorized=storage == "column")
            result = planner.plan(parse_select(sql)).execute()
            results[storage] = result
        assert results["row"].rows == results["column"].rows
        assert results["column"].statistics.batches_processed > 0
        assert results["row"].statistics.batches_processed == 0

    def test_batch_join_labels(self):
        planner = Planner(self._build("column"), enable_index_join=False)
        labels = plan_operators(planner.plan(parse_select(self.SQL_AGGREGATE)))
        assert "Batch Hash Join" in labels
        assert labels.count("Batch Table Scan") == 2
        assert "Batch Aggregate" in labels

    def test_row_backed_join_stays_row_mode(self):
        """Pinned to the row pipeline, a row-store join plans no batch
        operator; unpinned, the same plan runs batch."""
        database = self._build("row")
        planner = Planner(database, enable_index_join=False, enable_vectorized=False)
        plan = planner.plan(parse_select(self.SQL_AGGREGATE))
        labels = plan_operators(plan)
        assert "Hash Join" in labels
        assert not any(label.startswith("Batch") for label in labels)
        batch = Planner(database, enable_index_join=False).plan(
            parse_select(self.SQL_AGGREGATE))
        assert "Batch Hash Join" in plan_operators(batch)
        assert plan_strategies(batch) == labels
        assert batch.execute().rows == plan.execute().rows

    def test_uncompiled_execution_falls_back(self):
        planner = Planner(self._build("column"), enable_index_join=False)
        plan = planner.plan(parse_select(self.SQL_AGGREGATE))
        compiled = plan.execute()
        interpreted = plan.execute(compiled=False)
        assert compiled.rows == interpreted.rows
        assert interpreted.statistics.batches_processed == 0


class TestSampleQueryPlans:
    """Acceptance: EXPLAIN cost/rows on sample queries from the 20-query suite."""

    QUERY_IDS = ["Q1", "Q3", "Q8", "Q9", "Q11"]

    def test_sample_queries_show_cost_estimates(self, skyserver):
        from repro.skyserver.queries import query_by_id
        costed = 0
        for query_id in self.QUERY_IDS:
            sql = query_by_id(query_id).sql
            if "{" in sql:
                continue
            text_plan = skyserver.session.explain(sql)
            assert "estimated rows=" in text_plan
            if "cost=" in text_plan:
                costed += 1
        assert costed >= 3

    def test_loader_auto_analyzed_every_table(self, skyserver):
        freshness = skyserver.database.statistics_freshness()
        loaded = [entry for entry in freshness if entry["analyzed"]]
        assert len(loaded) >= 10

    def test_site_statistics_reports_optimizer(self, skyserver):
        skyserver.query("select top 5 objID from PhotoObj")
        statistics = skyserver.site_statistics()
        optimizer = statistics["optimizer"]
        assert optimizer["plans"]["cbo_plans"] >= 1
        assert any(entry.get("analyzed") for entry
                   in optimizer["statistics_freshness"])

    def test_spectro_join_uses_index_or_hash_with_costs(self, skyserver):
        from repro.skyserver.queries import query_by_id
        text_plan = skyserver.session.explain(query_by_id("Q8").sql)
        assert "Join" in text_plan
        assert "cost=" in text_plan
