"""Unit tests for the expression AST, NULL semantics and predicate analysis."""

import math

import pytest

from repro.engine import EvaluationContext, RowScope, UnknownColumnError
from repro.engine.expressions import (combine_conjuncts, conjuncts,
                                      extract_sargable, is_constant)
from repro.engine.sql import parse_expression


def evaluate(expression, row=None, variables=None):
    scope = RowScope()
    if row is not None:
        scope.bind("t", row)
    context = EvaluationContext(variables={k.lower(): v for k, v in (variables or {}).items()})
    return expression.evaluate(scope, context)


class TestArithmeticAndComparison:
    def test_addition(self):
        assert evaluate(parse_expression("1 + 2 * 3")) == 7

    def test_parenthesised_precedence(self):
        assert evaluate(parse_expression("(1 + 2) * 3")) == 9

    def test_integer_division_truncates_toward_zero(self):
        assert evaluate(parse_expression("7 / 2")) == 3
        assert evaluate(parse_expression("-7 / 2")) == -3

    def test_float_division(self):
        assert evaluate(parse_expression("7.0 / 2")) == pytest.approx(3.5)

    def test_division_by_zero_is_null(self):
        assert evaluate(parse_expression("1 / 0")) is None

    def test_modulo(self):
        assert evaluate(parse_expression("10 % 3")) == 1

    def test_comparisons(self):
        assert evaluate(parse_expression("2 < 3")) is True
        assert evaluate(parse_expression("3 <= 3")) is True
        assert evaluate(parse_expression("2 > 3")) is False
        assert evaluate(parse_expression("2 <> 3")) is True
        assert evaluate(parse_expression("'abc' = 'ABC'")) is True

    def test_column_reference(self):
        expression = parse_expression("mag + 1")
        assert evaluate(expression, {"mag": 20.0}) == 21.0

    def test_qualified_column_reference(self):
        expression = parse_expression("t.mag * 2")
        assert evaluate(expression, {"mag": 4.0}) == 8.0

    def test_unknown_column_raises(self):
        with pytest.raises(UnknownColumnError):
            evaluate(parse_expression("nosuchcolumn"), {"mag": 1.0})


class TestNullSemantics:
    def test_comparison_with_null_is_null(self):
        assert evaluate(parse_expression("mag > 5"), {"mag": None}) is None

    def test_arithmetic_with_null_is_null(self):
        assert evaluate(parse_expression("mag + 1"), {"mag": None}) is None

    def test_and_short_circuit_false(self):
        assert evaluate(parse_expression("1 = 2 and mag > 5"), {"mag": None}) is False

    def test_and_with_null_is_null(self):
        assert evaluate(parse_expression("1 = 1 and mag > 5"), {"mag": None}) is None

    def test_or_short_circuit_true(self):
        assert evaluate(parse_expression("1 = 1 or mag > 5"), {"mag": None}) is True

    def test_is_null(self):
        assert evaluate(parse_expression("mag is null"), {"mag": None}) is True
        assert evaluate(parse_expression("mag is not null"), {"mag": None}) is False

    def test_in_list_with_null_value(self):
        assert evaluate(parse_expression("mag in (1, 2)"), {"mag": None}) is None


class TestPredicates:
    def test_between_inclusive(self):
        assert evaluate(parse_expression("5 between 5 and 10")) is True
        assert evaluate(parse_expression("11 between 5 and 10")) is False

    def test_not_between(self):
        assert evaluate(parse_expression("11 not between 5 and 10")) is True

    def test_in_list(self):
        assert evaluate(parse_expression("3 in (1, 2, 3)")) is True
        assert evaluate(parse_expression("'star' in ('galaxy', 'STAR')")) is True

    def test_not_in_list(self):
        assert evaluate(parse_expression("4 not in (1, 2, 3)")) is True

    def test_like_wildcards(self):
        assert evaluate(parse_expression("'SkyServer' like 'sky%'")) is True
        assert evaluate(parse_expression("'SkyServer' like '%server'")) is True
        assert evaluate(parse_expression("'SkyServer' like 'Sky_erver'")) is True
        assert evaluate(parse_expression("'SkyServer' like 'Moon%'")) is False

    def test_not_negates(self):
        assert evaluate(parse_expression("not 1 = 2")) is True

    def test_bitwise_and_flags(self):
        assert evaluate(parse_expression("flags & 4"), {"flags": 7}) == 4
        assert evaluate(parse_expression("(flags & 8) = 0"), {"flags": 7}) is True

    def test_bitwise_or_xor(self):
        assert evaluate(parse_expression("1 | 2")) == 3
        assert evaluate(parse_expression("3 ^ 1")) == 2


class TestFunctionsAndCase:
    def test_builtin_math_functions(self):
        assert evaluate(parse_expression("sqrt(16)")) == 4.0
        assert evaluate(parse_expression("power(2, 10)")) == 1024.0
        assert evaluate(parse_expression("abs(-3)")) == 3
        assert evaluate(parse_expression("pi()")) == pytest.approx(math.pi)
        assert evaluate(parse_expression("log10(100)")) == pytest.approx(2.0)
        assert evaluate(parse_expression("round(3.14159, 2)")) == pytest.approx(3.14)

    def test_string_functions(self):
        assert evaluate(parse_expression("upper('abc')")) == "ABC"
        assert evaluate(parse_expression("len('abcd')")) == 4
        assert evaluate(parse_expression("substring('galaxy', 1, 3)")) == "gal"
        assert evaluate(parse_expression("charindex('LAX', 'galaxy')")) == 3
        assert evaluate(parse_expression("charindex('z', 'galaxy')")) == 0
        assert evaluate(parse_expression("charindex(null, 'galaxy')")) == 0

    def test_null_handling_functions(self):
        assert evaluate(parse_expression("isnull(mag, -1)"), {"mag": None}) == -1
        assert evaluate(parse_expression("coalesce(mag, other, 9)"),
                        {"mag": None, "other": None}) == 9

    def test_registered_scalar_function(self):
        context = EvaluationContext(functions={"fphotoflags": lambda name: 4})
        expression = parse_expression("dbo.fPhotoFlags('saturated')")
        assert expression.evaluate(RowScope(), context) == 4

    def test_variable_reference(self):
        expression = parse_expression("(flags & @saturated) = 0")
        assert evaluate(expression, {"flags": 3}, {"saturated": 4}) is True

    def test_case_when(self):
        expression = parse_expression(
            "case when mag < 18 then 'bright' when mag < 21 then 'medium' else 'faint' end")
        assert evaluate(expression, {"mag": 17.0}) == "bright"
        assert evaluate(expression, {"mag": 20.0}) == "medium"
        assert evaluate(expression, {"mag": 25.0}) == "faint"


class TestPredicateAnalysis:
    def test_conjunct_splitting(self):
        expression = parse_expression("a = 1 and b > 2 and (c < 3 or d = 4)")
        parts = conjuncts(expression)
        assert len(parts) == 3

    def test_combine_conjuncts_roundtrip(self):
        expression = parse_expression("a = 1 and b = 2")
        combined = combine_conjuncts(conjuncts(expression))
        assert evaluate(combined, {"a": 1, "b": 2}) is True

    def test_is_constant(self):
        assert is_constant(parse_expression("1 + 2"))
        assert is_constant(parse_expression("@x * 2"))
        assert not is_constant(parse_expression("mag + 1"))

    def test_sargable_equality(self):
        sargable = extract_sargable(parse_expression("type = 3"))
        assert sargable is not None
        assert sargable.column == "type"
        assert sargable.is_equality

    def test_sargable_flipped_comparison(self):
        sargable = extract_sargable(parse_expression("21 > modelMag_r"))
        assert sargable is not None
        assert sargable.column == "modelmag_r"
        assert sargable.high is not None and sargable.low is None

    def test_sargable_between(self):
        sargable = extract_sargable(parse_expression("z between 0.1 and 0.2"))
        assert sargable is not None
        assert sargable.low is not None and sargable.high is not None

    def test_non_sargable_expression(self):
        assert extract_sargable(parse_expression("rowv*rowv + colv*colv > 50")) is None

    def test_referenced_columns(self):
        expression = parse_expression("r.run = g.run and abs(g.field - r.field) <= 1")
        refs = expression.referenced_columns()
        assert ("r", "run") in refs and ("g", "field") in refs


BETWEEN_TEXT_BOUNDS = [
    "dec between 'a' and 'b'",
    "dec not between 'a' and 'b'",
    # The row path tests low <= dec first; only a row that passes it
    # reaches the text bound.
    "dec between 1 and 'b'",
    "'a' between dec and 3",
]


def _between_database(storage: str):
    from repro.engine import Database
    from repro.engine.segments import SEGMENT_ROWS
    from repro.engine.types import Column, DataType

    database = Database(f"between-{storage}")
    table = database.create_table("T", [
        Column("id", DataType.BIGINT), Column("dec", DataType.FLOAT),
    ], storage=storage)
    # A sealed segment and a tail: zone maps must not hide the error.
    table.insert_many({"id": i, "dec": i * 0.5} for i in range(SEGMENT_ROWS + 10))
    return database


@pytest.mark.parametrize("where", BETWEEN_TEXT_BOUNDS)
def test_between_with_text_bounds_raises_the_engine_error(where):
    """BETWEEN a FLOAT column and text raises ExpressionError — as
    ``dec >= 'a'`` does — on the row store, on the column store and
    under the interpreter, with one message."""
    from repro.engine import Planner
    from repro.engine.errors import ExpressionError
    from repro.engine.sql import parse_select

    sql = f"select id from T where {where}"
    messages = set()
    for storage in ("row", "column"):
        database = _between_database(storage)
        for compiled in (True, False):
            plan = Planner(database).plan(parse_select(sql))
            with pytest.raises(ExpressionError) as raised:
                plan.execute(compiled=compiled)
            messages.add(str(raised.value))
    assert len(messages) == 1, messages
    assert messages.pop().startswith("cannot compare ")
