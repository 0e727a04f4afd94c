"""Property-based tests (hypothesis) for the engine's core data structures."""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Database, Planner, PrimaryKey, bigint, floating, text
from repro.engine.compile import compile_expression, row_keys
from repro.engine.sql import SqlSession, parse_expression, parse_select
from repro.engine.expressions import (Between, BinaryOp, CaseWhen, ColumnRef,
                                      EvaluationContext, FunctionCall, InList,
                                      Like, Literal, RowScope, UnaryOp)
from repro.engine.types import NULL

settings.register_profile("repro", deadline=None, max_examples=60)
settings.load_profile("repro")


def build_table(values):
    database = Database("prop")
    table = database.create_table("t", [
        bigint("id"), floating("value", nullable=True), text("label", nullable=True),
    ], primary_key=PrimaryKey(["id"]))
    rows = [{"id": index, "value": value, "label": f"L{index % 7}"}
            for index, value in enumerate(values)]
    table.insert_many(rows, database=database)
    return database, table


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), max_size=120))
def test_index_range_matches_brute_force(values):
    """An index range scan returns exactly the rows a full scan would."""
    _database, table = build_table(values)
    index = table.create_index("ix_value", ["value"])
    if not values:
        assert list(index.range((0.0,), (1.0,))) == []
        return
    low = min(values)
    high = max(values)
    midpoint_low = low + (high - low) * 0.25
    midpoint_high = low + (high - low) * 0.75
    via_index = sorted(table.get_row(rid)["id"]
                       for rid in index.range((midpoint_low,), (midpoint_high,)))
    via_scan = sorted(row["id"] for row in table
                      if row["value"] is not None and midpoint_low <= row["value"] <= midpoint_high)
    assert via_index == via_scan


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1, max_size=120))
def test_index_scan_is_sorted_and_complete(values):
    _database, table = build_table(values)
    index = table.create_index("ix_value", ["value"])
    scanned = [table.get_row(rid)["value"] for rid in index.scan()]
    assert len(scanned) == len(values)
    assert scanned == sorted(scanned)


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=100))
def test_index_seek_equality_matches_filter(labels):
    database = Database("prop2")
    table = database.create_table("t", [bigint("id"), bigint("bucket")],
                                  primary_key=PrimaryKey(["id"]))
    table.insert_many([{"id": index, "bucket": bucket} for index, bucket in enumerate(labels)],
                      database=database)
    index = table.create_index("ix_bucket", ["bucket"])
    target = labels[0]
    via_index = sorted(table.get_row(rid)["id"] for rid in index.seek((target,)))
    via_scan = sorted(row["id"] for row in table if row["bucket"] == target)
    assert via_index == via_scan


@given(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
       st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
def test_parsed_arithmetic_matches_python(a, b):
    expression = parse_expression("a * 2 + b - 3")
    scope = RowScope().bind("t", {"a": a, "b": b})
    value = expression.evaluate(scope, EvaluationContext())
    assert value == (a * 2 + b - 3)


@given(st.floats(min_value=-100, max_value=100, allow_nan=False),
       st.floats(min_value=-100, max_value=100, allow_nan=False),
       st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_between_equivalent_to_comparisons(value, low, high):
    low, high = min(low, high), max(low, high)
    scope = RowScope().bind("t", {"x": value})
    context = EvaluationContext()
    between = parse_expression(f"x between {low} and {high}").evaluate(scope, context)
    comparisons = parse_expression(f"x >= {low} and x <= {high}").evaluate(scope, context)
    assert between == comparisons


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                          st.floats(min_value=10, max_value=25, allow_nan=False)),
                min_size=1, max_size=80))
def test_sql_group_count_matches_python(rows):
    """GROUP BY counts agree with a plain Python dictionary count."""
    database = Database("prop3")
    table = database.create_table("t", [bigint("id"), bigint("bucket"), floating("mag")],
                                  primary_key=PrimaryKey(["id"]))
    table.insert_many([{"id": index, "bucket": bucket, "mag": mag}
                       for index, (bucket, mag) in enumerate(rows)], database=database)
    session = SqlSession(database)
    result = session.query("select bucket, count(*) as n from t group by bucket")
    expected: dict[int, int] = {}
    for bucket, _mag in rows:
        expected[bucket] = expected.get(bucket, 0) + 1
    assert {row["bucket"]: row["n"] for row in result.rows} == expected


@given(st.lists(st.floats(min_value=10, max_value=25, allow_nan=False),
                min_size=1, max_size=80),
       st.floats(min_value=10, max_value=25, allow_nan=False))
def test_sql_filter_matches_python(values, threshold):
    """WHERE mag < t returns exactly the Python-filtered set."""
    database, table = build_table(values)
    session = SqlSession(database)
    result = session.query(f"select id from t where value < {threshold!r}")
    expected = {index for index, value in enumerate(values) if value < threshold}
    assert {row["id"] for row in result.rows} == expected


# ---------------------------------------------------------------------------
# Compiled evaluation equivalence
# ---------------------------------------------------------------------------

_literals = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    st.sampled_from(["abc", "L1", "%b_", ""]),
    st.just(NULL),
).map(Literal)

_columns = st.sampled_from(["x", "y", "s"]).map(ColumnRef)


def _make_binary(children):
    ops = st.sampled_from(["+", "-", "*", "/", "%", "=", "<>", "<", "<=", ">",
                           ">=", "and", "or", "&", "|", "^"])
    return st.tuples(ops, children, children).map(
        lambda triple: BinaryOp(triple[0], triple[1], triple[2]))


def _make_unary(children):
    ops = st.sampled_from(["-", "+", "not", "is null", "is not null"])
    return st.tuples(ops, children).map(lambda pair: UnaryOp(pair[0], pair[1]))


def _expression_strategy():
    def extend(children):
        return st.one_of(
            _make_binary(children),
            _make_unary(children),
            st.tuples(children, children, children, st.booleans()).map(
                lambda t: Between(t[0], t[1], t[2], t[3])),
            st.tuples(children, st.lists(children, max_size=3), st.booleans()).map(
                lambda t: InList(t[0], t[1], t[2])),
            st.tuples(children, _literals, st.booleans()).map(
                lambda t: Like(t[0], t[1], t[2])),
            st.tuples(st.lists(st.tuples(children, children), min_size=1, max_size=2),
                      children).map(lambda t: CaseWhen(t[0], t[1])),
            st.tuples(st.sampled_from(["abs", "coalesce", "isnull", "len"]),
                      st.lists(children, min_size=1, max_size=2)).map(
                lambda t: FunctionCall(t[0], t[1][:1] if t[0] in ("abs", "len")
                                       else (t[1] * 2)[:2])),
        )

    return st.recursive(st.one_of(_literals, _columns), extend, max_leaves=16)


_row_values = st.fixed_dictionaries({
    "x": st.one_of(st.integers(min_value=-20, max_value=20), st.just(NULL)),
    "y": st.one_of(st.floats(min_value=-20, max_value=20, allow_nan=False),
                   st.just(NULL)),
    "s": st.one_of(st.sampled_from(["abc", "L1", "zz"]), st.just(NULL)),
})


def _outcome(thunk):
    """A comparable outcome: the value, or the exception type raised."""
    try:
        return ("value", thunk())
    except Exception as exc:  # interpreter and compiler must raise alike
        return ("error", type(exc).__name__)


@given(_expression_strategy(), _row_values)
def test_compiled_evaluation_matches_interpreted(expression, row):
    """compile_expression(e, layout)(binding) ≡ e.evaluate(scope, ctx) on random trees."""
    context = EvaluationContext()
    scope = RowScope().bind("t", row)
    expected = _outcome(lambda: expression.evaluate(scope, context))
    compiled = compile_expression(expression, context, (("t", row_keys(row)),))
    actual = _outcome(lambda: compiled({"t": row}))
    assert actual == expected


@given(st.lists(st.tuples(st.floats(min_value=-100, max_value=100, allow_nan=False),
                          st.integers(min_value=0, max_value=15)),
                min_size=1, max_size=60),
       st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_fused_plan_matches_interpreted_plan(rows, threshold):
    """The fused scan→filter→project path returns the interpreted rows."""
    database = Database("prop_fused")
    table = database.create_table("t", [bigint("id"), floating("value"), bigint("flags")],
                                  primary_key=PrimaryKey(["id"]))
    table.insert_many([{"id": index, "value": value, "flags": flags}
                       for index, (value, flags) in enumerate(rows)], database=database)
    query = parse_select(
        f"select id, value * 2 + 1 as v from t where value > {threshold!r} and flags & 3 <> 2")
    fused = Planner(database).plan(query).execute()
    interpreted = Planner(database).plan(query).execute(compiled=False)
    assert fused.rows == interpreted.rows


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                min_size=1, max_size=60))
def test_order_by_is_total_and_stable_under_reversal(values):
    database, _table = build_table(values)
    session = SqlSession(database)
    ascending = [row["value"] for row in session.query(
        "select value from t order by value").rows]
    descending = [row["value"] for row in session.query(
        "select value from t order by value desc").rows]
    assert ascending == sorted(values)
    assert descending == sorted(values, reverse=True)
