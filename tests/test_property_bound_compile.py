"""Property test: bound-compiled execution ≡ the interpreter.

Compiled execution resolves every column reference once per execution
against the operators' layouts (``binding[alias][key]``); the
interpreter (``execute(compiled=False)``) resolves names per row through
a ``RowScope`` and is the oracle.  Over random 2–3-table joins on row and
column storage, under every join strategy the planner can be pinned to
and on the row-at-a-time path over column storage, the two must return
``repr``-identical rows — and fail alike: an unknown column raises
``UnknownColumnError`` exactly when the interpreter does, which over an
empty input is not at all.  (An unknown alias is a ``BindError`` when
the statement is planned: ``tests/test_cluster.py``.)
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.engine import (Database, Planner, PrimaryKey, UnknownColumnError,
                          bigint, floating, integer)
from repro.engine.sql import parse_select
from repro.engine.types import NULL

#: Join shapes with the reference spellings that must all bind alike:
#: mixed case (``g.objId`` vs ``objID``), unqualified names two aliases
#: share (first alias wins), a table-valued function alias, residual
#: predicates, and aggregates referenced by alias, by qualified name and
#: by SQL text above the aggregation.
QUERIES = [
    # mixed-case qualified references + residual predicates
    "select g.objId, G.MAG, n.Distance from obj g join nbr n on n.OBJID = g.objid "
    "where g.mag < 21 and n.distance + g.mag > 14",
    # unqualified names present in two aliases: the first alias wins
    # (objID differs between the two: n.objID vs s.objID = n.neighborObjID)
    "select objID, distance, z from nbr n join spec s on s.objID = n.neighborObjID "
    "where distance < 0.8 order by objID, specID",
    # a table-valued function alias, ordered by its unqualified column
    "select G.objID, GN.distance from obj as G join fNear(40) as GN "
    "on G.objID = GN.objID where (G.run & 1) = 0 order by distance",
    # three tables, NULL join keys on both hops, a cross-table residual
    "select n.objID, n.neighborObjID, s.z from nbr n "
    "join obj p1 on p1.objID = n.objID "
    "join spec s on s.objID = n.neighborObjID "
    "where p1.mag < s.z * 10 + 18",
    # non-equality join (nested loop / range probe) with a star
    "select c.lo, p.* from fSpans(3) as c, obj as p "
    "where p.objID between c.lo and c.hi",
    # aggregate referenced by alias
    "select n.objID, count(*) as companions from nbr n "
    "join obj p on p.objID = n.objID group by n.objID "
    "having count(*) >= 2 order by companions desc, n.objID",
    # ... by qualified name above the aggregate
    "select n.objID, min(n.distance) from nbr n join obj p on p.objID = n.objID "
    "where p.mag < 23 group by n.objID order by n.objID desc",
    # ... and by SQL text (aggregate and group expression)
    "select p.run % 3, count(*), avg(p.mag) from obj p "
    "join nbr n on n.objID = p.objID group by p.run % 3 "
    "having avg(p.mag) > 10 order by count(*) desc, p.run % 3",
]

#: References that cannot resolve: compiled must fail per row, like the
#: interpreter, and therefore not at all on an empty input.
BROKEN = [
    "select g.nosuch from obj g join nbr n on n.objID = g.objID",
    "select g.objID from obj g join nbr n on n.objID = g.objID "
    "where nosuch + n.distance > 0",
    "select n.objID, count(*) from nbr n join obj p on p.objID = n.objID "
    "group by n.objID order by p.mag",
]

PLANNERS = [
    {},
    {"enable_index_join": False},
    {"enable_index_join": False, "enable_hash_join": False},
    {"enable_cbo": False},
    {"enable_runtime_filters": False},
    {"enable_vectorized": False},
]

_keys = st.one_of(st.none(), st.integers(min_value=1, max_value=30))


@st.composite
def datasets(draw):
    objects = draw(st.lists(
        st.tuples(st.integers(min_value=700, max_value=760),
                  st.one_of(st.none(),
                            st.floats(min_value=12.0, max_value=25.0,
                                      allow_nan=False, width=32))),
        max_size=30))
    neighbors = draw(st.lists(
        st.tuples(_keys, _keys,
                  st.floats(min_value=0.0, max_value=1.0, allow_nan=False,
                            width=32)),
        max_size=60))
    spectra = draw(st.lists(
        st.tuples(_keys, st.floats(min_value=0.0, max_value=0.5,
                                   allow_nan=False, width=32)),
        max_size=20))
    return objects, neighbors, spectra


def _null(value):
    return NULL if value is None else value


def build_database(storage: str, data) -> Database:
    objects, neighbors, spectra = data
    database = Database(f"bound_{storage}")
    obj = database.create_table("obj", [
        bigint("objID"), integer("run"), floating("mag", nullable=True),
    ], primary_key=PrimaryKey(["objID"]), storage=storage)
    nbr = database.create_table("nbr", [
        bigint("objID", nullable=True), bigint("neighborObjID", nullable=True),
        floating("distance"),
    ], storage=storage)
    spec = database.create_table("spec", [
        bigint("specID"), bigint("objID", nullable=True), floating("z"),
    ], primary_key=PrimaryKey(["specID"]), storage=storage)
    obj.insert_many([{"objID": index + 1, "run": run, "mag": _null(mag)}
                     for index, (run, mag) in enumerate(objects)])
    nbr.insert_many([{"objID": _null(left), "neighborObjID": _null(right),
                      "distance": distance}
                     for left, right, distance in neighbors])
    spec.insert_many([{"specID": index + 1, "objID": _null(objid), "z": z}
                      for index, (objid, z) in enumerate(spectra)])
    nbr.create_index("ix_nbr_obj", ["objID"])
    database.register_table_function(
        "fNear", [bigint("objID"), floating("distance")],
        lambda limit: [{"objid": objid, "DISTANCE": objid / 40.0}
                       for objid in range(1, int(limit), 3)])
    database.register_table_function(
        "fSpans", [bigint("lo"), bigint("hi", nullable=True)],
        lambda count: [{"lo": 4 * index, "hi": 4 * index + 2 if index else NULL}
                       for index in range(int(count))])
    database.analyze()
    return database


def _outcome(plan, *, compiled: bool):
    """The rows (by repr: -0.0 vs 0.0 and int vs float must match too),
    or the engine error raised."""
    try:
        return ("rows", repr(plan.execute(compiled=compiled).rows))
    except UnknownColumnError as error:
        return ("UnknownColumnError", str(error))


def _assert_parity(data, storage, options, sql):
    database = build_database(storage, data)
    plan = Planner(database, **options).plan(parse_select(sql))
    assert _outcome(plan, compiled=True) == _outcome(plan, compiled=False)


@pytest.mark.parametrize("options", PLANNERS, ids=repr)
@pytest.mark.parametrize("sql", QUERIES)
@settings(max_examples=8, deadline=None)
@given(data=datasets(), storage=st.sampled_from(["row", "column"]))
def test_bound_compiled_rows_match_interpreter(data, storage, options, sql):
    _assert_parity(data, storage, options, sql)


@pytest.mark.parametrize("options", PLANNERS, ids=repr)
@pytest.mark.parametrize("sql", BROKEN)
@settings(max_examples=6, deadline=None)
@given(data=datasets(), storage=st.sampled_from(["row", "column"]))
def test_unresolved_references_fail_exactly_like_the_interpreter(
        data, storage, options, sql):
    _assert_parity(data, storage, options, sql)


@pytest.mark.parametrize("storage", ["row", "column"])
@pytest.mark.parametrize("sql", BROKEN)
def test_unresolved_reference_raises_on_rows_and_not_on_empty_input(storage, sql):
    populated = build_database(storage, (
        [(756, 18.0), (745, 19.5)], [(1, 2, 0.25), (2, 1, 0.5)], [(1, 0.1)]))
    with pytest.raises(UnknownColumnError):
        Planner(populated).plan(parse_select(sql)).execute()
    empty = build_database(storage, ([], [], []))
    assert Planner(empty).plan(parse_select(sql)).execute().rows == []


# ---------------------------------------------------------------------------
# Generated functions, expression by expression
# ---------------------------------------------------------------------------
#
# Each expression compiles to one generated function.  Over random trees
# and a value palette built to hit every edge of the interpreter's rules
# — NULL, NaN, signed zeros, bools against ints, ints against floats,
# strings that differ only in case, values that cannot be compared,
# added or and-ed — the function must return what ``Expression.evaluate``
# returns (same ``repr``) or raise what it raises (same type, same
# message), in binding mode and in one-alias row mode.

import math  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from repro.engine.compile import (RowCompileError, compile_expression,  # noqa: E402
                                  compile_row_expression, generated_source,
                                  row_keys)
from repro.engine.expressions import (AggregateCall, Between, BinaryOp,  # noqa: E402
                                      CaseWhen, ColumnRef, EvaluationContext,
                                      FunctionCall, InList, Like, Literal,
                                      RowScope, UnaryOp, Variable)
from repro.engine.operators import evaluate_projected  # noqa: E402
from repro.engine.sql import SqlSession, parse_expression  # noqa: E402

PALETTE = [NULL, 0, 1, -1, 3, True, False, 0.0, -0.0, 1.0, 2.5, -7.25,
           math.nan, math.inf, "abc", "ABC", "L1", "", "a%", "12"]
_palette = st.sampled_from(PALETTE)

#: References over the binding ``{"t": …, "u": …}``: qualified and bare,
#: mixed case, a name both aliases have (``x``: t wins), and ones that
#: do not resolve.
REFERENCES = [ColumnRef("x"), ColumnRef("X", "T"), ColumnRef("x", "u"),
              ColumnRef("y"), ColumnRef("s"), ColumnRef("S", "t"),
              ColumnRef("nosuch"), ColumnRef("x", "nosuch")]

BINARY_OPS = ["+", "-", "*", "/", "%", "=", "<>", "!=", "<", "<=", ">", ">=",
              "and", "or", "&", "|", "^"]
FUNCTIONS = {"abs": 1, "len": 1, "sqrt": 1, "coalesce": 2, "isnull": 2,
             "power": 2, "nosuchfn": 1}


def _function(name, args):
    return FunctionCall(name, args[:FUNCTIONS[name]])


def _trees(leaves):
    def extend(children):
        return st.one_of(
            st.builds(BinaryOp, st.sampled_from(BINARY_OPS), children, children),
            st.builds(UnaryOp, st.sampled_from(["-", "+", "not", "is null",
                                                "is not null"]), children),
            st.builds(Between, children, children, children, st.booleans()),
            st.builds(InList, children, st.lists(children, max_size=3), st.booleans()),
            st.builds(Like, children, children, st.booleans()),
            st.builds(CaseWhen, st.lists(st.tuples(children, children),
                                         min_size=1, max_size=3),
                      st.one_of(st.none(), children)),
            st.builds(_function, st.sampled_from(sorted(FUNCTIONS)),
                      st.lists(children, min_size=2, max_size=2)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


_leaves = st.one_of(_palette.map(Literal), st.sampled_from(REFERENCES),
                    st.sampled_from([Variable("v"), Variable("missing")]))
expressions = _trees(_leaves)
bindings = st.fixed_dictionaries({
    "t": st.fixed_dictionaries({"x": _palette, "S": _palette}),
    "u": st.fixed_dictionaries({"y": _palette, "x": _palette}),
})


def _result(thunk):
    """The value by ``repr``, or the error by type and message."""
    try:
        return ("value", repr(thunk()))
    except Exception as error:  # the two paths must fail alike
        return ("error", type(error).__name__, str(error))


def _layout(binding):
    return tuple((alias, row_keys(row)) for alias, row in binding.items())


def _interpreted(expression, binding, context):
    return _result(lambda: expression.evaluate(RowScope.from_binding(binding),
                                               context))


@settings(max_examples=400, deadline=None)
@given(expressions, bindings, _palette)
def test_generated_function_matches_interpreter(expression, binding, variable):
    context = EvaluationContext(variables={"v": variable})
    compiled = compile_expression(expression, context, _layout(binding))
    assert _result(lambda: compiled(binding)) == _interpreted(
        expression, binding, context), generated_source(
            expression, context, _layout(binding))


@settings(max_examples=250, deadline=None)
@given(expressions, bindings, _palette)
def test_row_mode_function_matches_interpreter(expression, binding, variable):
    context = EvaluationContext(variables={"v": variable})
    row = binding["t"]
    try:
        compiled = compile_row_expression(
            expression, context, SimpleNamespace(row_keys=row_keys(row)), "t")
    except RowCompileError:
        return  # a reference outside the one table: the binding path runs it
    assert _result(lambda: compiled(row)) == _interpreted(
        expression, {"t": row}, context)


#: Hand-picked edges, each over every palette row: NULL checks,
#: case-insensitive strings, mixed types that raise, bitwise operators
#: on floats and strings, short-circuits guarding raising operands,
#: raising constant subtrees (lazy: they raise per row), and
#: unresolved references behind a short-circuit.
EDGES = [
    "x = 1", "x <> s", "x < s", "s = 'abc'", "'ABC' = s", "s < 'B'", "s >= t.S",
    "x = y", "x + y", "x - y * 2", "x / y", "x % y", "x / 0", "x % 0.0",
    "'a' + 1", "s + 1", "x + s", "x & 3", "x | 1.5", "s ^ 1", "2.5 & x",
    "x between 0 and y", "x not between s and 'z'", "s between 'a' and 'B'",
    "x in (1, 2.5, null)", "s in ('ABC', x)", "s not in ('l1', null)",
    "s like 'A%'", "x like 1", "s like x", "s not like null",
    "x is null or 'a' + 1 = 2", "x is not null and 'a' + 1 = 2",
    "x = x or 'a' < 1", "x <> x and 'a' < 1", "y is null or nosuch = 1",
    "1 = 0 and nosuch = 1", "1 = 1 or x.nosuch = 1",
    "case when x > 0 then 'a' + 1 when x < 0 then -x end",
    "case when s = 'abc' then x else y end", "-s", "not x", "not s",
    "abs(x) + sqrt(y)", "coalesce(null, s, x)", "power(x, 2) < 1e300",
    "@v * 2 + x", "@v = x and @missing = 1", "@missing",
    "(x & 1) = 0 and s is not null",
]


@pytest.mark.parametrize("sql", EDGES)
def test_generated_edges_match_interpreter(sql):
    expression = parse_expression(sql)
    context = EvaluationContext(variables={"v": 3})
    for left in PALETTE:
        for right in (NULL, 1, -0.0, "ABC", math.nan):
            binding = {"t": {"x": left, "S": right}, "u": {"y": right, "x": 1}}
            compiled = compile_expression(expression, context, _layout(binding))
            assert _result(lambda: compiled(binding)) == _interpreted(
                expression, binding, context), (sql, left, right)


def test_raising_constant_subtree_is_lazy():
    expression = parse_expression("x > 0 and 1 / 'a' = 2")
    compiled = compile_expression(expression, EvaluationContext(),
                                  (("t", {"x": "x"}),))
    assert compiled({"t": {"x": -1}}) is False
    with pytest.raises(Exception) as raised:
        compiled({"t": {"x": 1}})
    assert str(raised.value) == "cannot apply '/' to 1 and 'a'"


def test_literals_share_one_generated_source():
    layout = (("p", {"type": "type", "modelmag_r": "modelMag_r"}),)
    context = EvaluationContext()
    sources = {generated_source(parse_expression(
        f"p.type = {kind} and modelmag_r between {low} and {low + 1.5}"),
        context, layout) for kind, low in [(3, 17.0), (6, 19.25), (0, -2.5)]}
    assert len(sources) == 1


#: A grouped output row and references above it: by name, by SQL text,
#: qualified by an alias that is gone, and aggregates.
OUTPUT = {"g": 7, "count(*)": 4, "(g + 1)": 8, "avg(m)": -0.0}
PROJECTED_LEAVES = [ColumnRef("g"), ColumnRef("g", "p"), ColumnRef("nosuch"),
                    AggregateCall("count"), AggregateCall("avg", ColumnRef("m")),
                    BinaryOp("+", ColumnRef("g"), Literal(1)),
                    BinaryOp("+", ColumnRef("g", "p"), Literal(1))]


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from(PROJECTED_LEAVES),
                 _trees(st.one_of(st.sampled_from(PROJECTED_LEAVES),
                                  _palette.map(Literal)))))
def test_projected_fallback_matches_interpreter(expression):
    """Above an aggregate an unresolved expression reads its own name or
    SQL text from the output row — decided once, at compile time."""
    context = EvaluationContext()
    binding = {"#output": OUTPUT}
    compiled = compile_expression(expression, context, _layout(binding),
                                  projected=True)
    assert _result(lambda: compiled(binding)) == _result(
        lambda: evaluate_projected(expression, RowScope.from_binding(binding),
                                   context))


def test_variables_are_frozen_per_execution():
    variables = {"cut": 2}
    context = EvaluationContext(variables=variables)
    compiled = compile_expression(parse_expression("x * @cut"), context,
                                  (("t", {"x": "x"}),))
    variables["cut"] = 5  # a later SET does not reach this execution
    assert compiled({"t": {"x": 3}}) == 6
    database = build_database("row", ([(756, 18.0), (745, 19.5)], [], []))
    session = SqlSession(database)
    for cut in (18.5, 20.0):
        batch = (f"declare @cut float; set @cut = {cut}; "
                 "select objID from obj where mag < @cut order by objID")
        rows = session.query(batch).rows
        assert [row["objID"] for row in rows] == [
            objid for objid, mag in ((1, 18.0), (2, 19.5)) if mag < cut]


def test_deeply_nested_blocks_split_into_functions():
    """Right-nested ORs and long CASEs nest a block per level; past the
    emitter's depth they continue in functions of their own."""
    right_nested = Literal(False)
    for value in range(60):
        right_nested = BinaryOp("or", BinaryOp("=", ColumnRef("x"), Literal(value)),
                                right_nested)
    long_case = CaseWhen([(BinaryOp("=", ColumnRef("x"), Literal(value)), Literal(value * 2))
                          for value in range(40)], Literal("none"))
    context = EvaluationContext()
    for expression in (right_nested, long_case):
        assert "def _s" in generated_source(expression, context, (("t", {"x": "x"}),))
        for x in (NULL, 0, 7, 39, 59, 99):
            binding = {"t": {"x": x}}
            compiled = compile_expression(expression, context, (("t", {"x": "x"}),))
            assert _result(lambda: compiled(binding)) == _interpreted(
                expression, binding, context)
