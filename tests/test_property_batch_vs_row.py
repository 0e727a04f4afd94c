"""Property test: the batch engine answers exactly as the row path.

Small column-store tables — one sealed segment plus an append tail,
tombstones inside the segment and in the tail, NULL-holding columns —
are queried through plans built with ``enable_vectorized=True`` and
``False``.  Both must return the same rows in the same order, or raise
the same error, and count the same ``rows_scanned``,
``index_entries_read`` and ``random_lookups``.  The statements are the
shapes Figure 13's heavy joins take on a column store:

* an index seek feeding a hash join's build (Q18), under a grouped
  COUNT(*)/SUM/MIN with HAVING and ORDER BY;
* a hash join whose probe is another hash join (Q13);
* projections over a seek (its rows come out in index order);
* ``abs``/``power``/``sqrt``/``pi`` over 0, -0.0, negative, NaN and
  huge values, in projections, a scan predicate and a join residual
  (Q15B), where a domain or range error must surface as the row path
  raises it — and only for rows the row path evaluates.

Runtime join filters are off on both sides: by design they skip probe
segments the row path scans, which changes ``rows_scanned``.

A second suite covers the vector codegen's whole numeric subset: every
numeric built-in, and column divisors of 0, -0.0, NaN, ints, floats and
bools — the row path's NULL for a zero divisor — under AND, OR, NOT,
CASE and IS NULL, before a conjunct that raises, and in projection and
group-key positions — over ``t`` alone and over ``t`` joined 1:1 on its
key with ``u``, a renamed copy, each column read through either alias
(a batch join's two-binding schema).  The column store, a row store of
the same rows and the interpreter must give ``repr``-identical rows or
raise the same error, and a two-binding compile must fall back to the
per-position loop exactly when the one-binding compile does.

A third suite covers the row-mode operators that read a batch chain
(``operators.input_rows``): ORDER BY — ascending and descending, over
several keys, NULL-heavy and duplicate keys so ties show, mixed-case
text — with and without TOP, and index nested-loop, nested-loop and
hash joins whose sides are column-store chains.  The same data in a
column store and a row store, and the column store's plan run by the
interpreter (``execute(compiled=False)``), must give ``repr``-identical
rows and the same ``rows_scanned``, ``index_entries_read`` and
``random_lookups``; zone maps are off there (a skipped segment is not
scanned) and on for a rows-only check.

A fourth suite covers row stores as batch sources: one set of plans
over a row store, run with ``enable_vectorized`` on, off and under the
interpreter after each write — tombstones, a vacuum and inserts after
it, a column's first NULL — must give ``repr``-identical rows or the
same error, the same counters and the same actual rows per operator
(under a TOP without ORDER BY, rows only: a batch source stops at a
batch edge).
"""

from __future__ import annotations

import math
import random
import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.engine import (ColumnBatch, Database, Planner, PrimaryKey,  # noqa: E402
                          bigint, boolean, compile_expression,
                          compile_vector_predicate, compile_vector_projection,
                          floating, integer, text)
from repro.engine.batch import BATCH_ROWS  # noqa: E402
from repro.engine.compile import conjunct_hazards  # noqa: E402
from repro.engine.expressions import EvaluationContext  # noqa: E402
from repro.engine.explain import plan_operators  # noqa: E402
from repro.engine.segments import SEGMENT_ROWS  # noqa: E402
from repro.engine.sql import parse_expression, parse_select  # noqa: E402

#: Q18's shape: seek-built join, grouped, HAVING, ORDER BY over groups.
GROUPED_SQL = ("select n.objid, count(*) as c, sum(n.dist) as s, "
               "min(n.dist) as lo from nbr n join obj o on o.objid = n.objid "
               "where o.kind = 3 group by n.objid having count(*) >= 2 "
               "order by c desc")

#: Q13's shape: the Neighbors scan probes one seek, the join probes another.
NESTED_SQL = ("select n.objid, n.nbrid, n.dist from nbr n "
              "join obj a on a.objid = n.objid join obj b on b.objid = n.nbrid "
              "where a.kind = 3 and b.kind = 3 and a.objid < b.objid "
              "and abs(a.mag - b.mag) < 1.5")

#: Seek-built join on a non-unique key: matches come out in build order.
FANOUT_SQL = ("select o.objid, o.mag, n.dist from nbr n "
              "join obj o on o.partner = n.objid where o.kind = 3")

SEEK_SQL = "select objid, mag from obj where kind = 3"

FUNCTION_SQLS = (
    "select objid, abs(colour) as a, abs(kind - 2) as k, power(colour, 2) as p, "
    "sqrt(abs(colour)) as r, colour * (180 * 60 / pi()) as d from obj where kind = 2",
    "select objid, colour from obj where sqrt(colour) >= 1",
    "select count(*) as n, sum(power(colour, 2)) as s, min(abs(colour)) as lo "
    "from obj where kind <> 3",
    "select a.objid, b.objid as other, sqrt(b.colour) as r from obj a "
    "join obj b on b.objid = a.partner where abs(a.colour - b.colour) <= 2 "
    "and power(b.colour, 2) < 100",
)

STATEMENTS = (GROUPED_SQL, NESTED_SQL, FANOUT_SQL, SEEK_SQL, *FUNCTION_SQLS)

#: Special inputs of the math functions; a small palette keeps the
#: sealed colour column dictionary-encoded.
COLOURS = (0.0, -0.0, 0.25, 1.0, 2.5, 4.0, 9.0, -1.0, -2.5, math.nan, 1e300)


def _planners(database: Database) -> dict[bool, Planner]:
    return {vectorized: Planner(database, enable_vectorized=vectorized,
                                enable_index_join=False,
                                enable_runtime_filters=False)
            for vectorized in (True, False)}


def _build(seed: int, tail: int, mag_nulls: bool, colours: tuple,
           dead: list[int]) -> Database:
    """``obj`` (one sealed segment + ``tail`` rows) and ``nbr`` pairs:
    enough pairs that a seek of ``obj`` builds and the pairs probe."""
    rng = random.Random(seed)
    database = Database("batch-vs-row")
    obj = database.create_table("obj", [
        bigint("objid"), integer("kind"), floating("mag", nullable=True),
        floating("colour"), bigint("partner"),
    ], primary_key=PrimaryKey(["objid"]), storage="column")
    count = SEGMENT_ROWS + tail
    obj.insert_many({
        "objid": objid, "kind": rng.randrange(5),
        "mag": None if mag_nulls and rng.random() < 0.1 else round(rng.uniform(14, 24), 2),
        "colour": rng.choice(colours), "partner": rng.randrange(count),
    } for objid in range(count))
    obj.create_index("ix_obj_kind_mag", ["kind", "mag"])
    nbr = database.create_table("nbr", [
        bigint("objid", nullable=True), bigint("nbrid"),
        floating("dist", nullable=True),
    ], storage="column")
    nbr.insert_many({
        "objid": None if rng.random() < 0.02 else rng.randrange(count),
        "nbrid": rng.randrange(count),
        "dist": None if rng.random() < 0.05 else round(rng.uniform(0, 0.5), 3),
    } for _ in range(3 * count // 2))
    doomed = {position % count for position in dead}
    obj.delete_where(lambda row: row["objid"] in doomed)
    database.analyze()
    return database


def _outcome(planner: Planner, sql: str):
    try:
        result = planner.plan(parse_select(sql)).execute()
    except Exception as error:  # both sides must raise the same error
        return ("error", type(error).__name__, str(error))
    statistics = result.statistics
    return ("rows", repr(result.rows), statistics.rows_scanned,
            statistics.index_entries_read, statistics.random_lookups)


@st.composite
def tables(draw):
    return dict(
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        tail=draw(st.integers(min_value=1, max_value=300)),
        mag_nulls=draw(st.booleans()),
        colours=tuple(draw(st.lists(st.sampled_from(COLOURS), min_size=1,
                                    max_size=6, unique_by=repr))),
        # Tombstones inside the sealed segment and in the tail.
        dead=draw(st.lists(st.integers(min_value=0, max_value=SEGMENT_ROWS + 300),
                           max_size=40)),
    )


@given(tables())
@settings(max_examples=12, deadline=None)
def test_batch_plans_answer_as_row_plans(spec):
    database = _build(**spec)
    planners = _planners(database)
    for sql in STATEMENTS:
        batch, row = (_outcome(planners[flag], sql) for flag in (True, False))
        assert batch == row, sql


def test_heavy_shapes_run_batch():
    """The shapes above really take the batch engine on these tables."""
    database = _build(seed=7, tail=120, mag_nulls=True,
                      colours=(0.25, 1.0, 4.0), dead=[3, 4000, 4100])
    planners = _planners(database)
    for sql in STATEMENTS:
        plan = planners[True].plan(parse_select(sql))
        assert plan.execute().statistics.batches_processed > 0, sql
        assert any(label.startswith("Batch") for label in plan_operators(plan)), sql
    for sql in (GROUPED_SQL, NESTED_SQL, FANOUT_SQL, SEEK_SQL):
        assert "Batch Index Seek" in plan_operators(
            planners[True].plan(parse_select(sql))), sql
    nested = planners[True].plan(parse_select(NESTED_SQL)).root
    joins = [operator for operator in _walk(nested)
             if type(operator).__name__ == "HashJoin"]
    assert any(type(join.probe).__name__ == "HashJoin" for join in joins)
    grouped = plan_operators(planners[True].plan(parse_select(GROUPED_SQL)))
    assert {"Batch Aggregate", "Batch Index Seek"} <= set(grouped)


def test_math_errors_come_only_from_rows_the_row_path_reads():
    """A raising predicate never runs over a segment's dictionary, whose
    values include tombstoned rows' (here the only negative colour)."""
    database = _build(seed=3, tail=10, mag_nulls=False,
                      colours=(1.0, 4.0, 9.0, -1.0), dead=[])
    obj = database.table("obj")
    assert obj.storage.segments()[0].encoding_of("colour") == "dict"
    assert obj.delete_where(lambda row: row["colour"] < 0)
    planners = _planners(database)
    sql = "select objid, colour from obj where sqrt(colour) >= 2"
    assert (_outcome(planners[True], sql) == _outcome(planners[False], sql)
            and _outcome(planners[True], sql)[0] == "rows")


def test_math_codegen_only_for_the_builtins_themselves():
    """``abs``/``power``/``sqrt`` run as generated code (typed: ``abs``
    of an int is an int) and ``pi()`` folds as a divisor; a session
    function named ``abs`` keeps its own meaning through the fallback."""
    database = Database("math-codegen")
    table = database.create_table("t", [integer("k"), floating("x")],
                                  storage="column")
    table.insert_many({"k": k, "x": x} for k, x in
                      ((-3, -2.5), (0, 0.0), (True, 9.0), (7, -0.0)))
    batch = ColumnBatch(*table.storage.batch_columns(), [0, 1, 2, 3], "t")

    def values(sql, evaluation=EvaluationContext()):
        fn, tag = compile_vector_projection(parse_expression(sql), evaluation,
                                            {"t": table})
        return fn(batch, batch.selection), tag

    assert values("abs(k)") == ([3, 0, 1, 7], "int")
    assert values("abs(x)") == ([2.5, 0.0, 9.0, 0.0], "float")
    assert values("power(k, 2)") == ([9.0, 0.0, 1.0, 49.0], "float")
    assert values("sqrt(abs(x)) * (180 * 60 / pi())")[1] == "float"
    assert values("x / pi()")[0] == [x / math.pi for x in (-2.5, 0.0, 9.0, -0.0)]
    with pytest.raises(ValueError, match="math domain error"):
        values("sqrt(x)")
    shadowed = EvaluationContext(functions={"abs": lambda value: 42})
    assert values("abs(k)", shadowed) == ([42] * 4, None)


# -- the codegen's numeric subset: built-ins and column divisors ---------------

#: Every numeric built-in of one argument (``round``, ``power`` and
#: ``atn2`` are drawn with their other arguments).
UNARY_BUILTINS = ("abs", "sqrt", "square", "exp", "log", "log10", "floor",
                  "ceiling", "sign", "sin", "cos", "tan", "asin", "acos", "atan",
                  "radians", "degrees", "cast_int", "cast_float")

#: NULL-free columns: ``k`` and ``d`` are the divisors (zeros of both
#: signs, NaN), ``flag`` a boolean one; ``y`` holds no NaN.
DIVISOR_COLUMNS = {
    "i": (-7, -1, 0, 1, 3, 12),
    "k": (0, 1, -3, 7, 2),
    "x": (0.0, -0.0, 0.5, -2.5, 3.0, 1e300, math.nan),
    "y": (0.0, -0.0, 1.5, -2.0, 4.0),
    "d": (0.0, -0.0, math.nan, 1.5, -2.0, 4.0),
    "flag": (True, False),
}

#: Divisors: columns of every tag, and expressions that can be zero.
DIVISORS = ("k", "d", "x", "i", "flag", "(d - 1.5)", "(k - 1)", "abs(k)")


def _build_divisors(seed: int, tail: int, dead: list[int]) -> dict[str, Database]:
    """The same ``t`` (one sealed segment plus ``tail`` rows, tombstones)
    and its copy ``u`` in a column store and a row store, row ids alike."""
    rng = random.Random(seed)
    count = SEGMENT_ROWS + tail
    rows = [{"id": row_id, **{name: rng.choice(palette)
                              for name, palette in DIVISOR_COLUMNS.items()}}
            for row_id in range(count)]
    doomed = {position % count for position in dead}
    databases = {}
    for storage in ("column", "row"):
        database = Database(f"divisors-{storage}")
        for name in ("t", "u"):
            table = database.create_table(name, [
                bigint("id"), integer("i"), integer("k"), floating("x"),
                floating("y"), floating("d"), boolean("flag"),
            ], primary_key=PrimaryKey(["id"]), storage=storage)
            table.insert_many(dict(row) for row in rows)
            table.delete_where(lambda row: row["id"] in doomed)
        database.analyze()
        databases[storage] = database
    return databases


@st.composite
def numeric_terms(draw, depth: int = 2):
    """A numeric expression over ``t``: built-ins, divisions, arithmetic."""
    if depth == 0 or draw(st.integers(min_value=0, max_value=3)) == 0:
        return draw(st.sampled_from(("i", "k", "x", "y", "d", "flag", "2", "0.5")))
    inner = draw(numeric_terms(depth - 1))
    kind = draw(st.sampled_from(("unary", "round", "power", "atn2", "/", "%",
                                 "arith", "neg")))
    if kind == "unary":
        return f"{draw(st.sampled_from(UNARY_BUILTINS))}({inner})"
    if kind == "round":
        return draw(st.sampled_from((f"round({inner}, 1)", f"round({inner})")))
    if kind in ("power", "atn2"):
        other = draw(numeric_terms(depth - 1))
        return f"{kind}({inner}, {other if kind == 'atn2' else 2})"
    if kind in ("/", "%"):
        return f"({inner} {kind} {draw(st.sampled_from(DIVISORS))})"
    if kind == "neg":
        return f"(-{inner})"
    other = draw(numeric_terms(depth - 1))
    return f"({inner} {draw(st.sampled_from(('+', '-', '*')))} {other})"


@st.composite
def divisor_predicates(draw, depth: int = 2):
    """A predicate over ``t`` whose operands may divide by a column."""
    term = draw(numeric_terms())
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from((
            f"{term} > 1", f"{term} <= 0.5", f"{term} = 0", f"{term} <> 0",
            f"{term} between 0 and 2", f"{term} in (0, 1, 2.5)",
            f"{term} is null", f"{term} is not null",
            f"x between {term} and {draw(numeric_terms())}",
            f"(x / {draw(st.sampled_from(DIVISORS))}) > 1")))
    left = draw(divisor_predicates(depth - 1))
    right = draw(divisor_predicates(depth - 1))
    return draw(st.sampled_from((
        f"({left} and {right})", f"({left} or {right})", f"(not {left})",
        # The row path's AND evaluates this conjunct after a NULL; it
        # raises for negative x.
        f"({left} and sqrt(x) >= 0)",
        f"(case when {left} then 1 else 0 end) = 1")))


#: A column of ``t`` in generated SQL (function names never match).
COLUMN_WORD = re.compile(r"\b(i|k|x|y|d|flag)\b")


def _qualified(draw, sql: str) -> str:
    """``sql`` with each column read through ``t`` or its copy ``u``."""
    return COLUMN_WORD.sub(
        lambda match: f"{draw(st.sampled_from(('t', 'u')))}.{match.group(1)}",
        sql)


#: ``t`` joined 1:1 on its key with its copy: a two-binding batch.
SELF_JOIN = "from t join u on u.id = t.id"


@st.composite
def divisor_statements(draw):
    """One statement; a single drawn expression in it may raise, so the
    row path and the batch engine meet the same error first."""
    shape = draw(st.sampled_from(("where", "project", "group", "join where",
                                  "join project")))
    if shape == "where":
        return f"select id from t where {draw(divisor_predicates())}"
    if shape == "project":
        return f"select id, {draw(numeric_terms())} as v from t where i <> 3"
    if shape == "join where":
        predicate = _qualified(draw, draw(divisor_predicates()))
        return f"select t.id {SELF_JOIN} where {predicate}"
    if shape == "join project":
        term = _qualified(draw, draw(numeric_terms()))
        return f"select t.id, {term} as v {SELF_JOIN} where t.i <> 3"
    # Group keys divide, so no stored NaN object passes through unchanged
    # (a row store's rows share one; computed ones never do).
    key = (f"({draw(st.sampled_from(('i', 'k', 'y', 'flag')))} "
           f"{draw(st.sampled_from(('/', '%')))} {draw(st.sampled_from(DIVISORS))})")
    key = draw(st.sampled_from((key, f"floor({key})", f"round({key}, 1)",
                                f"sign({key})", f"abs({key})")))
    return f"select {key} as g, count(*) as n from t group by {key}"


def _divisor_outcomes(databases: dict[str, Database], sql: str):
    """(column store, row store, column store interpreted); rows only —
    a column-free predicate may scan the row store's primary key.  The
    self-join is a hash join, which runs batch on the column store."""
    column = Planner(databases["column"], enable_index_join=False).plan(
        parse_select(sql))
    row = Planner(databases["row"], enable_index_join=False).plan(
        parse_select(sql))
    return tuple(outcome[:2] if outcome[0] == "rows" else outcome
                 for outcome in (_run(column), _run(row),
                                 _run(column, compiled=False)))


@given(seed=st.integers(min_value=0, max_value=2**16),
       tail=st.integers(min_value=1, max_value=200),
       dead=st.lists(st.integers(min_value=0, max_value=SEGMENT_ROWS + 200),
                     max_size=30),
       statements=st.lists(divisor_statements(), min_size=1, max_size=8))
@settings(max_examples=12, deadline=None)
def test_divisors_and_builtins_answer_as_the_row_store(seed, tail, dead, statements):
    databases = _build_divisors(seed, tail, dead)
    for sql in statements:
        column, row, interpreted = _divisor_outcomes(databases, sql)
        assert column == row == interpreted, sql


def test_divisor_and_builtin_shapes_vectorize():
    """Fig. 13's shapes compile to generated loops — Q15B's and Q4's
    column divisors, Q2's ``log10``, Q7's ``round`` — and so do IS NULL
    of a divisor and every numeric built-in; what would show False for
    the row path's NULL falls back to the row view."""
    databases = _build_divisors(seed=11, tail=40, dead=[2, 4100])
    database = databases["column"]
    table = database.table("t")
    evaluation = EvaluationContext()

    def fallback(sql, predicate=True):
        expression = parse_expression(sql)
        if predicate:
            fn = compile_vector_predicate(expression, evaluation, {"t": table})
        else:
            fn, _tag = compile_vector_projection(expression, evaluation,
                                                 {"t": table})
        return getattr(fn, "row_fallback", False)

    for sql in ("x / d > 1.5 and y > 2.0", "i / k > 1.3 or flag",
                "y + 2.5 * log10(2 * 3.1415927 * y * y + 0.0001) between 23 and 25",
                "(i / k) is null", "not ((y % d) is not null)",
                "power(x, 2) + power(y, 2) > 0.111111 and x / d > 1.5",
                *(f"{name}(x) > 0" for name in UNARY_BUILTINS),
                "round(x, 1) > 0", "atn2(x, y) > 0"):
        assert not fallback(sql), sql
    for sql in ("x / d", "i / k", "round(x - y, 1)", "i % k", "sign(x)"):
        assert not fallback(sql, predicate=False), sql
    for sql in ("not (x / d > 1)", "x / d > 1 and sqrt(x) >= 0",
                "sqrt(x) / d > 1", "(x / d > 1) is null", "sign(x) / 2 > 0",
                "round(x, i / k) > 0"):
        assert fallback(sql), sql
    assert fallback("x / d > 1", predicate=False)
    # A raising operand is still evaluated under IS NULL, and BETWEEN
    # bounds that may raise keep the row path's evaluation order.
    assert not fallback("sqrt(x) is not null")
    assert fallback("x between 0 and sqrt(y)")
    for sql in ("select id from t where sqrt(x) is not null",
                "select id from t where x between 3 and sqrt(x)"):
        outcomes = _divisor_outcomes(databases, sql)
        assert outcomes[0] == outcomes[1] == outcomes[2], sql
        assert outcomes[0][:2] == ("error", "ValueError"), sql
    plan = Planner(database).plan(parse_select(
        "select i / k as q, round(x - y, 1) as r from t where x / d > 1.5"))
    statistics = plan.execute().statistics
    assert statistics.batches_processed > 0
    assert statistics.vector_fallbacks == 0
    assert "vector fallbacks=0" in plan.explain()
    plan = Planner(database).plan(parse_select(
        "select id from t where not (x / d > 1)"))
    assert plan.execute().statistics.vector_fallbacks == 1


def test_divisor_conjuncts_report_may_be_null():
    """Zone skips read these: a column divisor may be NULL, a built-in
    other than abs/square may raise."""
    table = _build_divisors(seed=11, tail=40, dead=[])["column"].table("t")
    evaluation = EvaluationContext()

    def hazards(sql):
        return conjunct_hazards(parse_expression(sql), evaluation, {"t": table})

    assert hazards("x / d > 1") == (False, True)
    assert hazards("(i % k) is null") == (False, True)
    assert hazards("x / 2 > 1") == (False, False)
    assert hazards("abs(x) > 1") == (False, False)
    assert hazards("log10(y) > 1") == (True, False)
    assert hazards("sqrt(x) / d > 1") == (True, True)


def _outcome_of(compute):
    try:
        return ("values", repr(compute()))
    except Exception as error:  # every side must raise the same error
        return ("error", type(error).__name__, str(error))


@given(seed=st.integers(min_value=0, max_value=2**16),
       predicate=st.booleans(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_two_bindings_compile_as_one(seed, predicate, data):
    """A drawn expression over ``t``'s batch, and the same expression
    with each column read through ``t`` or ``u`` over the 1:1 join's
    batch: both agree with the row path, and the join's falls back to
    the per-position loop exactly when the scan's does."""
    rng = random.Random(seed)
    rows = [{"id": row_id, **{name: rng.choice(palette)
                              for name, palette in DIVISOR_COLUMNS.items()}}
            for row_id in range(40)]
    database = Database("two-bindings")
    schema = {}
    for name in ("t", "u"):
        schema[name] = database.create_table(name, [
            bigint("id"), integer("i"), integer("k"), floating("x"),
            floating("y"), floating("d"), boolean("flag"),
        ], primary_key=PrimaryKey(["id"]), storage="column")
        schema[name].insert_many(dict(row) for row in rows)
    sql = data.draw(divisor_predicates() if predicate else numeric_terms())
    single = parse_expression(sql)
    joined = parse_expression(_qualified(data.draw, sql))
    evaluation = EvaluationContext()
    positions = list(range(len(rows)))
    columns, masks = schema["t"].storage.batch_columns()
    scan_batch = ColumnBatch(columns, masks, positions, "t")
    join_batch = ColumnBatch({f"{alias}.{key}": values for alias in schema
                              for key, values in columns.items()},
                             {}, positions, "#join")

    def vector(expression, compile_schema, batch):
        if predicate:
            fn = compile_vector_predicate(expression, evaluation, compile_schema)
        else:
            fn, _tag = compile_vector_projection(expression, evaluation,
                                                 compile_schema)
        return (getattr(fn, "row_fallback", False),
                _outcome_of(lambda: fn(batch, batch.selection)))

    def row_path():
        fn = compile_expression(joined, evaluation,
                                tuple((alias, table.row_keys)
                                      for alias, table in schema.items()))
        values = [fn({"t": row, "u": row}) for row in rows]
        if predicate:
            return [position for position, value in enumerate(values)
                    if value is True]
        return values

    scan_fallback, scan_outcome = vector(single, {"t": schema["t"]}, scan_batch)
    join_fallback, join_outcome = vector(joined, schema, join_batch)
    assert scan_fallback == join_fallback, sql
    assert scan_outcome == join_outcome == _outcome_of(row_path), sql


# -- row-mode consumers of batch chains ---------------------------------------

#: Mixed-case text: the sort compares lower-cased, so these tie in groups.
NAMES = ("abc", "ABC", "Abc", "b", "B", "ab", "", "zeta", "Zeta")

#: Sort keys (``-0.0`` and ``0.0`` tie in ``b``; ``a`` is 40 % NULL).
SORT_KEYS = ("s.a", "s.b", "s.name", "s.grp", "s.a + s.grp", "s.id")

#: Scan predicates; ``s.grp = 3`` can plan as a seek of ``ix_s_grp``.
PREDICATES = (None, "s.b < 1", "s.a is null or s.grp = 2", "s.name like 'a%'",
              "s.grp in (1, 3)", "s.b <> 0.5 and s.a >= 1", "s.grp = 3")

#: Join shapes: planner switches and the FROM clause (the other side is
#: ``x``).  ``s.a = x.id`` is NULL for 40 % of ``s``; NULL keys never join.
JOINS = {
    "index": ({"enable_hash_join": False},
              "from s join t x on x.id = s.grp"),
    "hash": ({"enable_index_join": False},
             "from t x join s on s.a = x.id"),
    "nested": ({"enable_index_join": False, "enable_hash_join": False},
               "from s join u x on x.id = s.grp"),
}


def _build_pair(seed: int, tail: int, dead: list[int]) -> dict[str, Database]:
    """The same ``s`` (one sealed segment plus ``tail`` rows, tombstones),
    ``t`` (keyed) and ``u`` (five rows, the nested loop's inner) in a
    column store and a row store, row ids alike."""
    rng = random.Random(seed)
    count = SEGMENT_ROWS + tail
    s_rows = [{"id": objid, "grp": rng.randrange(7),
               "a": None if rng.random() < 0.4 else rng.randrange(5),
               "b": None if rng.random() < 0.2 else rng.choice(
                   (-1.5, -0.0, 0.0, 0.5, 1.0, 2.5)),
               "name": None if rng.random() < 0.15 else rng.choice(NAMES)}
              for objid in range(count)]
    t_rows = [{"id": objid, "label": rng.choice(NAMES),
               "w": round(rng.uniform(0, 9), 1)} for objid in range(600)]
    doomed = {position % count for position in dead}
    databases = {}
    for storage in ("column", "row"):
        database = Database(f"chains-{storage}")
        s = database.create_table("s", [
            bigint("id"), integer("grp"), integer("a", nullable=True),
            floating("b", nullable=True), text("name", nullable=True),
        ], primary_key=PrimaryKey(["id"]), storage=storage)
        s.insert_many(dict(row) for row in s_rows)
        s.create_index("ix_s_grp", ["grp"])
        t = database.create_table("t", [
            bigint("id"), text("label"), floating("w"),
        ], primary_key=PrimaryKey(["id"]), storage=storage)
        t.insert_many(dict(row) for row in t_rows)
        database.create_table("u", [
            bigint("id"), text("label"), floating("w"),
        ], storage=storage).insert_many(dict(row) for row in t_rows[:5])
        s.delete_where(lambda row: row["id"] in doomed)
        database.analyze()
        databases[storage] = database
    return databases


@st.composite
def ordered_statements(draw):
    keys = draw(st.lists(st.sampled_from(SORT_KEYS), min_size=1, max_size=3,
                         unique=True))
    order = ", ".join(key + draw(st.sampled_from(("", " desc")))
                      for key in keys)
    predicate = draw(st.sampled_from(PREDICATES))
    where = f" where {predicate}" if predicate else ""
    top = draw(st.sampled_from(("", "top 1 ", "top 7 ", "top 60 ")))
    join = draw(st.sampled_from((None, *JOINS)))
    if join is None:
        return {}, (f"select {top}s.id, s.a, s.b, s.name from s{where} "
                    f"order by {order}")
    flags, source = JOINS[join]
    sorted_by = draw(st.booleans())
    if not sorted_by:
        # TOP without ORDER BY stops a join early: the row path stops
        # mid-scan, a batch scan at a batch edge.
        top, order = "", ""
    else:
        order = f" order by {order}, x.label, x.w"
    return flags, (f"select {top}s.id, s.b, s.name, x.label, x.w "
                   f"{source}{where}{order}")


def _run(plan, **options):
    try:
        result = plan.execute(**options)
    except Exception as error:  # every side must raise the same error
        return ("error", type(error).__name__, str(error))
    statistics = result.statistics
    return ("rows", repr(result.rows), statistics.rows_scanned,
            statistics.index_entries_read, statistics.random_lookups)


def _chain_outcomes(databases: dict[str, Database], flags: dict, sql: str):
    """(column store, row store, interpreter, column store with zone maps)."""
    exact = dict(flags, enable_zone_maps=False, enable_runtime_filters=False)
    column = Planner(databases["column"], **exact).plan(parse_select(sql))
    row = Planner(databases["row"], **exact).plan(parse_select(sql))
    zoned = Planner(databases["column"], **flags).plan(parse_select(sql))
    # One plan on both stores, so the counters compare.
    assert _unlabelled(column) == _unlabelled(row), sql
    return (_run(column), _run(row), _run(column, compiled=False), _run(zoned))


@given(seed=st.integers(min_value=0, max_value=2**16),
       tail=st.integers(min_value=1, max_value=200),
       dead=st.lists(st.integers(min_value=0, max_value=SEGMENT_ROWS + 200),
                     max_size=30),
       statements=st.lists(ordered_statements(), min_size=1, max_size=6))
@settings(max_examples=10, deadline=None)
def test_row_consumers_of_batch_chains_answer_as_the_row_store(
        seed, tail, dead, statements):
    databases = _build_pair(seed, tail, dead)
    for flags, sql in statements:
        column, row, interpreted, zoned = _chain_outcomes(databases, flags, sql)
        assert column == row == interpreted, sql
        assert zoned[:2] == column[:2], sql


def test_row_consumers_read_their_chains_as_batches():
    """The shapes above: the Sort, the index and nested-loop joins'
    outer sides and the row hash join's sides are Batch chains, and
    batches ran.  An index join a projection reads directly runs batch
    whole."""
    databases = _build_pair(seed=5, tail=50, dead=[1, 4100])
    database = databases["column"]
    cases = [
        ({}, "select top 7 s.id, s.a from s where s.b < 1 order by s.a desc, s.name",
         ["Top", "Compute Scalar", "Sort", "Batch Table Scan"]),
        ({}, "select s.id, s.a from s where s.grp = 3 order by s.name",
         ["Compute Scalar", "Sort", "Batch Index Seek"]),
        (JOINS["index"][0], "select s.id, s.b, x.label " + JOINS["index"][1],
         ["Batch Compute Scalar", "Batch Index Nested Loop Join",
          "Batch Table Scan"]),
        (JOINS["index"][0], "select s.id, s.b, x.label " + JOINS["index"][1]
         + " where s.grp = 3 order by x.label desc",
         ["Compute Scalar", "Sort", "Index Nested Loop Join",
          "Batch Index Seek"]),
        (JOINS["nested"][0], "select s.id, s.b, x.label " + JOINS["nested"][1],
         ["Compute Scalar", "Nested Loop Join", "Batch Table Scan",
          "Table Scan"]),
        (JOINS["hash"][0], "select s.id, s.b, x.label " + JOINS["hash"][1]
         + " order by x.label",
         ["Compute Scalar", "Sort", "Hash Join", "Batch Table Scan",
          "Batch Table Scan"]),
    ]
    for flags, sql, labels in cases:
        plan = Planner(database, **flags).plan(parse_select(sql))
        assert plan_operators(plan) == labels, sql
        assert plan.execute().statistics.batches_processed > 0, sql
        assert Planner(database, enable_vectorized=False, **flags).plan(
            parse_select(sql)).execute().statistics.batches_processed == 0, sql
        column, row, interpreted, _zoned = _chain_outcomes(databases, flags, sql)
        assert column == row == interpreted, sql


def _unlabelled(plan) -> list[str]:
    """A plan's operator labels without their ``Batch`` prefixes."""
    return [label.removeprefix("Batch ") for label in plan_operators(plan)]


def _walk(operator):
    yield operator
    for child in operator.children():
        yield from _walk(child)


# -- whole-batch join passes: hash tables, counted groups, index joins ---------

#: Key palettes whose values collide under Python equality — ``1``/
#: ``1.0``/``True``, ``0``/``0.0``/``-0.0``/``False`` — plus NaN (equal
#: only to itself) and NULL (equal to nothing).
INT_KEYS = (0, 1, 2, 3, True, False, None)
FLOAT_KEYS = (0.0, -0.0, 1.0, 2.5, 3.0, math.nan, None)
#: Index keys of ``q``: the palette's, each repeated, among plain ints.
INNER_KEYS = INT_KEYS + tuple(range(4, 24))

#: Hash joins built on ``b`` (a few rows, drawn keys) and probed by
#: ``p``, and COUNT(*)-only groups over them.
HASH_KEY_SQLS = (
    "select b.id, p.id as pid, p.x from p join b on b.k = p.k",
    "select b.id, p.id as pid from p join b on b.f = p.f",
    "select b.id, b.k, p.id as pid, p.f from p join b on b.k = p.f",
    "select b.id, p.id as pid, p.x from p join b on b.k = p.k and b.f = p.f",
    "select b.id, p.id as pid from p join b on b.k = p.k where b.w < p.x",
    "select b.f, count(*) as n from p join b on b.k = p.k group by b.f",
    "select p.f, p.m, count(*) as n, count(*) as again from p group by p.f, p.m",
    "select p.f, count(*) as n from p where p.x < 0.6 group by p.f order by n desc",
)

#: Index nested-loop joins into ``q`` through its non-unique ``(k, m)``
#: index — prefix and whole-key seeks, NULL key parts, a residual —
#: driven by a seek of ``p`` across its segment boundary.
INDEX_KEY_SQLS = (
    "select p.id, q.id as qid, q.w from p join q on q.k = p.k "
    "where p.id between 4000 and 4200",
    "select p.id, q.id as qid from p join q on q.k = p.k and q.m = p.m "
    "where p.id between 4000 and 4200",
    "select p.id, q.id as qid, q.label from p join q on q.k = p.k "
    "and q.w > p.x where q.label like 'a%' and p.id between 4080 and 4150",
    "select q.m, count(*) as n from p join q on q.k = p.k and q.m = p.m "
    "where p.id between 4000 and 4200 group by q.m",
)
INDEX_JOIN = {"enable_hash_join": False}


def _build_keys(seed: int, tail: int, build: list[tuple], dead: list[int],
                inner_dead: list[int]) -> Database:
    """``p`` (one sealed segment plus ``tail`` rows) probing ``b`` (one
    row per ``build`` key pair) and driving index seeks into ``q``;
    ``dead`` tombstones ``p`` rows, ``inner_dead`` ``q`` rows."""
    rng = random.Random(seed)
    database = Database("join-keys")
    count = SEGMENT_ROWS + tail
    p = database.create_table("p", [
        bigint("id"), integer("k", nullable=True), floating("f", nullable=True),
        integer("m", nullable=True), floating("x"),
    ], primary_key=PrimaryKey(["id"]), storage="column")
    p.insert_many({"id": row_id, "k": rng.choice(INT_KEYS),
                   "f": rng.choice(FLOAT_KEYS), "m": rng.choice((None, 0, 1, 2)),
                   "x": round(rng.random(), 2)} for row_id in range(count))
    b = database.create_table("b", [
        bigint("id"), integer("k", nullable=True), floating("f", nullable=True),
        floating("w"),
    ], storage="column")
    b.insert_many({"id": row_id, "k": k, "f": f, "w": round(rng.random(), 2)}
                  for row_id, (k, f) in enumerate(build))
    q = database.create_table("q", [
        bigint("id"), integer("k", nullable=True), integer("m", nullable=True),
        floating("w"), text("label"),
    ], primary_key=PrimaryKey(["id"]), storage="column")
    q.insert_many({"id": row_id, "k": rng.choice(INNER_KEYS),
                   "m": rng.choice((None, 0, 1, 2)), "w": round(rng.random(), 2),
                   "label": rng.choice(NAMES)} for row_id in range(300))
    q.create_index("ix_q_km", ["k", "m"])
    doomed = {position % count for position in dead}
    p.delete_where(lambda row: row["id"] in doomed)
    gone = {position % 300 for position in inner_dead}
    q.delete_where(lambda row: row["id"] in gone)
    database.analyze()
    return database


def _key_outcomes(database: Database, flags: dict, sql: str):
    """(batch, row) outcomes with runtime filters off, and the batch
    outcome with them on (they skip probe rows, so only its answer
    compares)."""
    exact = dict(flags, enable_runtime_filters=False)
    batch, row = (_outcome(Planner(database, enable_vectorized=vectorized, **exact),
                           sql) for vectorized in (True, False))
    filtered = _outcome(Planner(database, **flags), sql)
    return batch, row, filtered


@given(seed=st.integers(min_value=0, max_value=2**16),
       tail=st.integers(min_value=1, max_value=200),
       build=st.lists(st.tuples(st.sampled_from(INT_KEYS),
                                st.sampled_from(FLOAT_KEYS)),
                      min_size=1, max_size=12),
       distinct=st.booleans(),
       dead=st.lists(st.integers(min_value=0, max_value=SEGMENT_ROWS + 200),
                     max_size=20),
       inner_dead=st.lists(st.integers(min_value=0, max_value=299), max_size=30))
@settings(max_examples=20, deadline=None)
def test_join_keys_and_counted_groups_answer_as_the_row_path(
        seed, tail, build, distinct, dead, inner_dead):
    if distinct:
        # One build row per ``k`` (1, 1.0 and True are one key): the
        # hash table maps bare ordinals.
        seen: dict = {}
        build = [pair for pair in build if seen.setdefault(pair[0], pair) is pair]
    database = _build_keys(seed, tail, build, dead, inner_dead)
    for flags, statements in (({"enable_index_join": False}, HASH_KEY_SQLS),
                              (INDEX_JOIN, INDEX_KEY_SQLS)):
        for sql in statements:
            batch, row, filtered = _key_outcomes(database, flags, sql)
            assert batch == row, sql
            assert filtered[:2] == row[:2], sql


#: Build keys with every hazard at once: 1/True and 0.0/-0.0 twins, a
#: NaN, NULL parts, and (in ``DUPLICATED``) a repeated key.
DISTINCT_BUILD = [(1, 1.0), (0, -0.0), (2, math.nan), (None, 2.5), (3, None)]
DUPLICATED_BUILD = DISTINCT_BUILD + [(True, 0.0), (None, None), (2, 1.0)]


@pytest.mark.parametrize("build", [DISTINCT_BUILD, DUPLICATED_BUILD],
                         ids=["distinct", "duplicated"])
def test_join_key_shapes_run_batch(build):
    """The statements above take the batch hash join, the batch
    aggregate and the batch index join, and answer as the row path."""
    database = _build_keys(11, 90, build, dead=[5, 4100, 4150],
                           inner_dead=[0, 7, 8, 120])
    for sql in HASH_KEY_SQLS:
        labels = plan_operators(Planner(database, enable_index_join=False).plan(
            parse_select(sql)))
        assert {"Batch Hash Join", "Batch Aggregate"} & set(labels), sql
    for sql in INDEX_KEY_SQLS:
        labels = plan_operators(Planner(database, **INDEX_JOIN).plan(
            parse_select(sql)))
        assert "Batch Index Nested Loop Join" in labels, sql
    for flags, statements in (({"enable_index_join": False}, HASH_KEY_SQLS),
                              (INDEX_JOIN, INDEX_KEY_SQLS)):
        for sql in statements:
            batch, row, filtered = _key_outcomes(database, flags, sql)
            assert batch == row, sql
            assert batch[0] == "rows", batch
            assert filtered[:2] == row[:2], sql


# -- row stores as batch sources ----------------------------------------------

#: Every shape a row store feeds the batch engine: a scan, a whole and a
#: key-range-bounded covering scan, a seek, GROUP BY (its chain a
#: covering scan), the index nested-loop join into the row store, a hash
#: join, and a Sort's chain.  ``c`` holds no NULL until one arrives
#: after the plans are made (``r.c > 1`` then leaves the generated loop).
ROW_STORE_SQLS = (
    ({}, "select r.id, r.c * 2 as c2, r.b from r where r.c > 1 and r.grp <> 3"),
    ({}, "select r.id, r.grp * 2 as g2 from r where r.grp in (1, 3) and r.id > 100"),
    ({}, "select r.grp, r.c from r where r.grp >= 2 and r.grp <= 4 and r.c > 0"),
    ({}, "select r.id, r.name from r where r.grp = 3 and r.c < 3"),
    ({}, "select r.grp, count(*) as n, sum(r.c) as t, min(r.c) as lo from r "
         "group by r.grp order by r.grp"),
    ({"enable_hash_join": False},
     "select r.id, r.c, x.label from r join t x on x.id = r.grp where r.c >= 1"),
    ({"enable_index_join": False},
     "select x.label, count(*) as n, max(r.c) as m from t x join r on r.a = x.id "
     "group by x.label"),
    ({}, "select r.id, r.name from r where r.name like 'a%' order by r.c desc, r.id"),
    # GROUP BY under TOP: the groups stream, so every operator's actual
    # rows are the row path's.
    ({}, "select top 3 r.grp, count(*) as n from r group by r.grp"),
)

#: TOP without ORDER BY: the row path stops mid-scan, a batch source at
#: a batch edge, so only the rows must agree.
ROW_STORE_TOP_SQLS = (
    ({}, "select top 5 r.id, r.c from r where r.c > 1"),
    ({"enable_hash_join": False},
     "select top 7 r.id, x.label from r join t x on x.id = r.grp where r.c >= 1"),
)


def _row_store_row(rng: random.Random, objid: int, c_nulls: float = 0.0) -> dict:
    return {"id": objid, "grp": rng.randrange(7),
            "a": None if rng.random() < 0.4 else rng.randrange(5),
            "b": None if rng.random() < 0.2 else rng.choice((-1.5, -0.0, 0.5, 2.5)),
            "c": None if rng.random() < c_nulls else rng.randrange(6),
            "name": None if rng.random() < 0.15 else rng.choice(NAMES)}


def _row_store(seed: int, tail: int) -> Database:
    """``r`` (``BATCH_ROWS + tail`` rows, ``c`` NULL-free) and ``t``,
    both row stores."""
    rng = random.Random(seed)
    database = Database("row-batches")
    r = database.create_table("r", [
        bigint("id"), integer("grp"), integer("a", nullable=True),
        floating("b", nullable=True), integer("c", nullable=True),
        text("name", nullable=True),
    ], primary_key=PrimaryKey(["id"]))
    r.insert_many(_row_store_row(rng, objid) for objid in range(BATCH_ROWS + tail))
    r.create_index("ix_r_grp", ["grp"])
    r.create_index("ix_r_grp_c", ["grp", "c"])
    t = database.create_table("t", [bigint("id"), text("label"), floating("w")],
                              primary_key=PrimaryKey(["id"]))
    t.insert_many({"id": objid, "label": rng.choice(NAMES), "w": float(objid % 9)}
                  for objid in range(600))
    database.analyze()
    return database


def _operator_rows(plan) -> list[tuple[str, int]]:
    """(label without ``Batch``, actual rows) of every operator, top down."""
    return [(operator.label.removeprefix("Batch "), operator.actual_rows)
            for operator in _walk(plan.root)]


def _row_store_outcome(plan, exact: bool, **options):
    try:
        result = plan.execute(**options)
    except Exception as error:  # every side must raise the same error
        return ("error", type(error).__name__, str(error))
    statistics = result.statistics
    counters = (statistics.rows_scanned, statistics.bytes_scanned,
                statistics.index_entries_read, statistics.random_lookups)
    if not exact:
        return ("rows", repr(result.rows)), counters
    return ("rows", repr(result.rows), *counters, _operator_rows(plan)), None


def _row_store_sides(database: Database, flags: dict, sql: str):
    """(batch plan, row plan): one plan, labelled apart only by ``Batch``."""
    batch, row = (Planner(database, enable_vectorized=vectorized, **flags)
                  .plan(parse_select(sql)) for vectorized in (True, False))
    assert _unlabelled(batch) == plan_operators(row), sql
    assert any(label.startswith("Batch ") for label in plan_operators(batch)), sql
    return batch, row


def _compare_row_store(plans, sql: str, exact: bool) -> None:
    batch, row = plans
    batch_outcome, batch_counters = _row_store_outcome(batch, exact)
    row_outcome, row_counters = _row_store_outcome(row, exact)
    interpreted, _counters = _row_store_outcome(batch, exact, compiled=False)
    assert batch_outcome == row_outcome == interpreted, sql
    if not exact and batch_outcome[0] == "rows":
        assert all(map(int.__ge__, batch_counters, row_counters)), sql


@given(seed=st.integers(min_value=0, max_value=2**16),
       tail=st.integers(min_value=1, max_value=200),
       dead=st.lists(st.integers(min_value=0, max_value=BATCH_ROWS + 200),
                     min_size=1, max_size=60),
       vacuum=st.booleans(),
       inserted=st.integers(min_value=0, max_value=40))
@settings(max_examples=8, deadline=None)
def test_row_store_batches_answer_as_the_row_path(seed, tail, dead, vacuum,
                                                  inserted):
    """A row store with ``enable_vectorized`` on, off, and under the
    interpreter: the same rows or error, counters and actual rows, from
    the same plans run again after each write — tombstones, a vacuum
    and inserts after it, and a first NULL in ``c``, which the plans
    met NULL-free."""
    database = _row_store(seed, tail)
    plans = [(_row_store_sides(database, flags, sql), sql, True)
             for flags, sql in ROW_STORE_SQLS]
    plans += [(_row_store_sides(database, flags, sql), sql, False)
              for flags, sql in ROW_STORE_TOP_SQLS]

    def compare() -> None:
        for sides, sql, exact in plans:
            _compare_row_store(sides, sql, exact)

    compare()
    table = database.table("r")
    count = BATCH_ROWS + tail
    doomed = {position % count for position in dead}
    table.delete_where(lambda values: values["id"] in doomed)
    compare()
    rng = random.Random(seed)
    if vacuum:
        table.vacuum()
        # Fewer rows than the vacuum reclaimed, some with a NULL ``c``:
        # the slots end before the counts' last watermark.
        table.insert_many(_row_store_row(rng, objid, c_nulls=0.5)
                          for objid in range(count, count + min(inserted, len(doomed))))
        compare()
    table.insert(_row_store_row(rng, 10**6, c_nulls=1.0))
    compare()


def test_row_store_null_counts_follow_every_write():
    """``RowStore.column_null_count`` against a recount, through
    inserts, deletes, a vacuum and inserts after it, a clear."""
    database = _row_store(seed=3, tail=10)
    table = database.table("r")
    storage = table.storage

    def recount(name: str) -> int:
        return sum(1 for _row_id, values in table.iter_rows()
                   if values[name] is None)

    def check() -> None:
        for name in ("a", "b", "c", "name"):
            assert storage.column_null_count(name) == recount(name), name

    check()
    table.insert({"id": -1, "grp": 1, "a": None, "b": None, "c": None,
                  "name": None})
    check()
    table.delete_where(lambda values: values["a"] is None and values["id"] % 3 == 0)
    check()
    table.vacuum()
    table.insert_many({"id": -2 - i, "grp": 1, "a": None, "b": 1.0, "c": None,
                       "name": "x"} for i in range(5))
    check()
    table.truncate()
    check()
    table.insert({"id": 1, "grp": 1, "a": None, "b": 1.0, "c": 2, "name": "y"})
    check()


def test_row_store_shapes_run_batch():
    """The shapes above are batch on a row store (covering scans with a
    key range among them), and a NULL arriving in ``c`` sends the
    predicates that read it to the row-view loop, not a wrong answer."""
    database = _row_store(seed=11, tail=30)
    database.table("r").delete_where(lambda values: values["id"] in (5, 4100))
    labels = set()
    for flags, sql in ROW_STORE_SQLS:
        plan = Planner(database, **flags).plan(parse_select(sql))
        labels.update(plan_operators(plan))
        assert plan.execute().statistics.batches_processed > 0, sql
    assert {"Batch Covering Index Scan", "Batch Index Seek", "Batch Table Scan",
            "Batch Index Nested Loop Join", "Batch Hash Join",
            "Batch Aggregate"} <= labels
    ranged = Planner(database).plan(parse_select(ROW_STORE_SQLS[2][1]))
    assert " range [" in ranged.explain()
    flags, sql = ROW_STORE_SQLS[0]
    plan = Planner(database, **flags).plan(parse_select(sql))
    before = plan.execute().statistics.vector_fallbacks
    database.table("r").insert({"id": 10**6, "grp": 2, "a": 1, "b": 0.5,
                                "c": None, "name": "abc"})
    assert plan.execute().statistics.vector_fallbacks > before
