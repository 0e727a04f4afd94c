"""Tests for the compiled expression pipeline, plan cache and vacuum."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (CURRENT_TIMESTAMP, Database, PrimaryKey, Planner,
                          SqlSession, bigint, floating, text, timestamp)
from repro.engine.compile import (RowCompileError, compile_expression,
                                  compile_row_expression, table_layout)
from repro.engine.errors import ExpressionError
from repro.engine.expressions import (BinaryOp, ColumnRef, EvaluationContext,
                                      FunctionCall, Literal, RowScope, Variable)
from repro.engine.sql import parse_expression, parse_select
from repro.engine.sql.session import PlanCache
from repro.engine.types import NULL
from repro.loader.undo import undo_time_window
import datetime as _dt


def make_database(rows=200):
    database = Database("compiletest")
    table = database.create_table("t", [
        bigint("id"), floating("value", nullable=True), text("label", nullable=True),
        bigint("flags"),
    ], primary_key=PrimaryKey(["id"]))
    table.insert_many([
        {"id": index,
         "value": (index * 0.5) - 10 if index % 7 else NULL,
         "label": f"L{index % 5}" if index % 11 else NULL,
         "flags": index % 16}
        for index in range(rows)
    ], database=database)
    return database, table


# ---------------------------------------------------------------------------
# Compiled scalar evaluation
# ---------------------------------------------------------------------------

class TestCompiledExpressions:
    CASES = [
        "value * 2 + 1 > 0",
        "value between -3 and 12.5",
        "label in ('l1', 'L2', 'nope')",
        "label like 'l%'",
        "label is null",
        "value is not null and value < 50",
        "flags & 3 = 1 or flags | 8 = 15",
        "case when value > 0 then 'pos' when value < 0 then 'neg' else 'zero' end",
        "abs(value) + sqrt(16)",
        "- value",
        "not (value > 0)",
        "value / 0",
        "id % 3",
        "1 + 2 * 3",
        "'A' = 'a'",
    ]

    @pytest.mark.parametrize("sql", CASES)
    def test_compiled_matches_interpreted(self, sql):
        _database, table = make_database()
        expression = parse_expression(sql)
        context = EvaluationContext()
        compiled = compile_expression(expression, context,
                                      table_layout(table, "t"))
        for _row_id, row in table.iter_rows():
            scope = RowScope().bind("t", row)
            assert compiled({"t": row}) == expression.evaluate(scope, context)

    @pytest.mark.parametrize("sql", CASES)
    def test_row_mode_matches_interpreted(self, sql):
        _database, table = make_database()
        expression = parse_expression(sql)
        context = EvaluationContext()
        compiled = compile_row_expression(expression, context, table, "t")
        for _row_id, row in table.iter_rows():
            scope = RowScope().bind("t", row)
            assert compiled(row) == expression.evaluate(scope, context)

    def test_constant_folding(self):
        expression = parse_expression("1 + 2 * 3")
        compiled = compile_expression(expression, EvaluationContext())
        assert compiled(None) == 7  # no scope access needed

    def test_folding_defers_errors(self):
        # 'a' + 1 is a constant subtree whose evaluation raises; it must
        # raise at call time, not compile time (short-circuits may skip it).
        expression = BinaryOp("+", Literal("a"), Literal(1))
        compiled = compile_expression(expression, EvaluationContext())
        with pytest.raises(ExpressionError):
            compiled(None)
        guarded = BinaryOp("and", Literal(False), expression)
        assert compile_expression(guarded, EvaluationContext())(None) is False

    def test_variables_fold_to_constants(self):
        context = EvaluationContext(variables={"cut": 4})
        expression = parse_expression("@cut * 2")
        assert compile_expression(expression, context)(None) == 8

    def test_undeclared_variable_raises_at_call(self):
        compiled = compile_expression(Variable("missing"), EvaluationContext())
        with pytest.raises(ExpressionError):
            compiled(None)

    def test_unknown_function_raises_at_call(self):
        compiled = compile_expression(
            FunctionCall("no_such_fn", [Literal(1)]), EvaluationContext())
        with pytest.raises(Exception):
            compiled(None)

    def test_row_mode_rejects_foreign_columns(self):
        _database, table = make_database()
        with pytest.raises(RowCompileError):
            compile_row_expression(ColumnRef("value", "other"),
                                   EvaluationContext(), table, "t")


# ---------------------------------------------------------------------------
# The compiled row pipeline vs the interpreted pipeline
# ---------------------------------------------------------------------------

class TestRowPipeline:
    QUERIES = [
        "select id, value * 2 as v from t where value > 0 and flags & 3 = 1",
        "select * from t where label like 'L%'",
        "select top 5 id from t where value is not null",
        "select distinct label from t where value > -100",
        "select id from t where value between 0 and 20",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_row_pipeline_matches_interpreted(self, sql):
        database, _table = make_database()
        query = parse_select(sql)
        # A row store batches unless pinned to the row pipeline.
        compiled = Planner(database, enable_vectorized=False).plan(query).execute()
        interpreted = Planner(database).plan(query).execute(compiled=False)
        assert compiled.rows == interpreted.rows
        assert compiled.columns == interpreted.columns
        assert compiled.statistics.rows_scanned == interpreted.statistics.rows_scanned
        assert compiled.statistics.bytes_scanned == interpreted.statistics.bytes_scanned

    def test_compiled_plan_keeps_explain_shape_and_actuals(self):
        database, _table = make_database()
        result = SqlSession(database).query(
            "select id from t where value > 0 and 1 = 1")
        plan_text = result.plan.explain()
        assert "Table Scan" in plan_text
        assert "compiled exprs=" in plan_text
        assert result.plan.root.actual_rows == len(result.rows)

    def test_compile_counter_populated(self):
        database, _table = make_database()
        result = SqlSession(database).query("select id, value from t where value > 0")
        assert result.statistics.exprs_compiled > 0
        interpreted = Planner(database).plan(
            parse_select("select id from t where value > 0")).execute(compiled=False)
        assert interpreted.statistics.exprs_compiled == 0


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------

def _normalize_char_by_char(sql_text: str) -> str:
    """``PlanCache.normalize`` as it was before its unquoted fast path:
    one character at a time, quoted literals copied verbatim."""
    out: list[str] = []
    pending_space = False
    i, n = 0, len(sql_text)
    while i < n:
        ch = sql_text[i]
        if ch == "'":
            end = i + 1
            while end < n:
                if sql_text[end] == "'":
                    if end + 1 < n and sql_text[end + 1] == "'":
                        end += 2
                        continue
                    break
                end += 1
            end = min(end, n - 1)
            if pending_space and out:
                out.append(" ")
            pending_space = False
            out.append(sql_text[i:end + 1])
            i = end + 1
        elif ch.isspace():
            pending_space = True
            i += 1
        else:
            if pending_space and out:
                out.append(" ")
            pending_space = False
            out.append(ch)
            i += 1
    return "".join(out)


#: Every character ``str.isspace()`` accepts, plus look-alikes it does
#: not (zero-width space, word joiner) and SQL text.
_SPACES = "".join(chr(code) for code in range(0x3001) if chr(code).isspace())
_SQL_TEXT = st.lists(st.sampled_from(
    list(_SPACES) + ["\u200b", "\u2060", "'", "''", "a", "B", "1", "=",
                     "select", " from ", "é"]), max_size=40).map("".join)


class TestNormalize:
    @settings(max_examples=300, deadline=None)
    @given(_SQL_TEXT)
    def test_matches_the_character_loop(self, sql_text):
        assert PlanCache.normalize(sql_text) == _normalize_char_by_char(sql_text)

    @settings(max_examples=200, deadline=None)
    @given(_SQL_TEXT.filter(lambda text: "'" not in text))
    def test_unquoted_text_matches_the_character_loop(self, sql_text):
        assert PlanCache.normalize(sql_text) == _normalize_char_by_char(sql_text)

    def test_quoted_whitespace_is_kept(self):
        assert PlanCache.normalize(" select  'a  b'\t from\n t ") == \
            "select 'a  b' from t"
        assert PlanCache.normalize("select\u3000x\x1c y") == "select x y"


class TestPlanCache:
    def test_second_execution_skips_parse_and_plan(self):
        database, _table = make_database()
        session = SqlSession(database)
        sql = "select id from t where value > 3"
        first = session.query(sql)
        assert session.plan_cache.misses == 1 and session.plan_cache.hits == 0
        assert first.statistics.plan_cache_misses == 1
        built = session.planner.plans_built
        second = session.query("select  id\n from t  where value > 3")
        assert session.plan_cache.hits == 1
        assert session.planner.plans_built == built  # no re-plan
        assert second.statistics.plan_cache_hits == 1
        assert second.rows == first.rows

    def test_variables_reevaluate_against_cached_plan(self):
        database, _table = make_database()
        session = SqlSession(database)
        batch = ("declare @cut float\n"
                 "set @cut = 3\n"
                 "select id from t where value > @cut")
        first = session.query(batch)
        batch2 = batch.replace("= 3", "= 90")
        # Different SQL text → different cache entry; but re-running the
        # identical batch must re-run SET and honour the variable.
        second = session.query(batch)
        assert second.rows == first.rows
        assert session.plan_cache.hits == 1
        third = session.query(batch2)
        assert len(third.rows) < len(first.rows)

    def test_ddl_invalidates_cached_plans(self):
        database, table = make_database()
        session = SqlSession(database)
        sql = "select id from t where value > 3"
        session.query(sql)
        session.query(sql)
        assert session.plan_cache.hits == 1
        table.create_index("ix_value", ["value"])  # DDL bumps schema version
        result = session.query(sql)
        assert session.plan_cache.invalidations == 1
        # The re-planned query now uses the new index.
        assert "Index Seek" in result.plan.explain()

    def test_create_and_drop_table_bump_schema_version(self):
        database, _table = make_database()
        before = database.schema_version
        database.create_table("extra", [bigint("id")])
        assert database.schema_version > before
        mid = database.schema_version
        database.drop_table("extra")
        assert database.schema_version > mid

    def test_select_into_is_not_cached(self):
        database, _table = make_database()
        session = SqlSession(database)
        sql = "select id, value into ##hot from t where value > 0"
        session.query(sql)
        session.query(sql)
        assert session.plan_cache.hits == 0  # INTO performs DDL: never cached
        # And the materialised table reflects the latest run.
        assert database.has_table("##hot")

    def test_lru_eviction(self):
        database, _table = make_database()
        session = SqlSession(database, plan_cache_size=2)
        session.query("select id from t where value > 1")
        session.query("select id from t where value > 2")
        session.query("select id from t where value > 3")
        assert len(session.plan_cache) == 2
        assert session.plan_cache.evictions == 1
        session.query("select id from t where value > 1")  # evicted → miss
        assert session.plan_cache.hits == 0

    def test_string_literal_whitespace_is_not_collapsed(self):
        database, table = make_database(0)
        table.insert_many([{"id": 1, "value": 0.0, "label": "a b", "flags": 0},
                           {"id": 2, "value": 0.0, "label": "a  b", "flags": 0}],
                          database=database)
        session = SqlSession(database)
        one = session.query("select id from t where label = 'a  b'")
        two = session.query("select id from t where label = 'a b'")
        assert [row["id"] for row in one.rows] == [2]
        assert [row["id"] for row in two.rows] == [1]
        assert session.plan_cache.hits == 0  # different literals, different keys

    def test_in_list_stays_lazy_after_match(self):
        # 1 IN (1, 'a'+1): the interpreter matches the first item and never
        # evaluates the raising second item; compiled must do the same.
        from repro.engine.expressions import InList
        expression = InList(Literal(1), [Literal(1),
                                         BinaryOp("+", Literal("a"), Literal(1))])
        context = EvaluationContext()
        scope = RowScope()
        assert expression.evaluate(scope, context) is True
        assert compile_expression(expression, context)(scope) is True

    def test_explain_does_not_cache_select_into(self):
        database, _table = make_database()
        session = SqlSession(database)
        sql = "select id, value into ##hot2 from t where value > 0"
        session.explain(sql)          # plans without executing
        session.query(sql)
        assert session.plan_cache.hits == 0  # the INTO batch was never cached
        session.query(sql)
        assert session.plan_cache.hits == 0

    def test_explain_uses_cache(self):
        database, _table = make_database()
        session = SqlSession(database)
        sql = "select id from t where value > 3"
        session.explain(sql)
        built = session.planner.plans_built
        session.explain(sql)
        assert session.planner.plans_built == built
        assert session.plan_cache.hits == 1


# ---------------------------------------------------------------------------
# Tombstone compaction
# ---------------------------------------------------------------------------

class TestVacuum:
    def test_vacuum_compacts_and_preserves_queries(self):
        database, table = make_database(100)
        deleted = table.delete_where(lambda row: row["id"] % 2 == 0)
        assert deleted == 50
        assert table.tombstone_count == 50
        before = {row["id"] for row in table}
        reclaimed = table.vacuum()
        assert reclaimed == 50
        assert table.tombstone_count == 0
        assert len(table.rows) == 50
        assert {row["id"] for row in table} == before
        # Indexes were rebuilt over the new row ids.
        result = SqlSession(database).query("select id from t where id = 37")
        assert [row["id"] for row in result.rows] == [37]

    def test_maybe_vacuum_threshold(self):
        _database, table = make_database(100)
        table.delete_where(lambda row: row["id"] < 10)  # 10% dead: below threshold
        assert table.maybe_vacuum() == 0
        table.delete_where(lambda row: row["id"] < 40)  # 40% dead: compact
        assert table.maybe_vacuum() == 40
        assert table.tombstone_count == 0

    def test_undo_path_vacuums(self):
        database = Database("undotest")
        table = database.create_table(
            "obs", [bigint("id"),
                    timestamp("insertTime", default=CURRENT_TIMESTAMP)],
            primary_key=PrimaryKey(["id"]))
        t0 = _dt.datetime(2002, 1, 1, tzinfo=_dt.timezone.utc)
        table.set_clock(lambda: t0)
        table.insert_many([{"id": index} for index in range(30)])
        bad_start = _dt.datetime(2002, 6, 1, tzinfo=_dt.timezone.utc)
        table.set_clock(lambda: bad_start)
        table.insert_many([{"id": 100 + index} for index in range(70)])
        deleted = undo_time_window(database, "obs", bad_start, None)
        assert deleted == 70
        # 70% of slots were tombstones → the undo path compacted them.
        assert table.tombstone_count == 0
        assert len(table.rows) == 30
