"""Expression AST and evaluator.

Expressions appear in SELECT lists, WHERE clauses, JOIN conditions,
CHECK constraints, view definitions and computed columns.  The same AST
is produced by the programmatic query-builder API and by the SQL
parser, and is consumed by the planner (which inspects predicates for
index-sargable conjuncts) and by the physical operators (which evaluate
expressions row by row).

The evaluator implements SQL three-valued NULL semantics for
comparisons and boolean connectives: any comparison with NULL yields
NULL, ``AND``/``OR`` propagate NULL unless short-circuited by their
identity element, and a WHERE clause only accepts rows for which the
predicate is strictly true.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence

from .errors import ExpressionError, UnknownColumnError, UnknownFunctionError
from .types import NULL


# ---------------------------------------------------------------------------
# Row scope
# ---------------------------------------------------------------------------

class RowScope:
    """Name-resolution scope for evaluating expressions against rows.

    A scope maps table aliases to row dictionaries.  Unqualified column
    names are resolved by searching the aliases in order; the first row
    containing the column wins (ambiguity is tolerated and resolved in
    declaration order, as SQL Server does for natural single-table
    queries; the binder qualifies columns whenever it can).
    """

    __slots__ = ("_rows", "_order")

    def __init__(self) -> None:
        self._rows: dict[str, Mapping[str, Any]] = {}
        self._order: list[str] = []

    @classmethod
    def from_binding(cls, binding: Mapping[str, Mapping[str, Any]]) -> "RowScope":
        """The scope of one operator binding (alias → row, in order)."""
        scope = cls()
        for alias, row in binding.items():
            scope.bind(alias, row)
        return scope

    def bind(self, alias: str, row: Mapping[str, Any]) -> "RowScope":
        key = alias.lower()
        if key not in self._rows:
            self._order.append(key)
        self._rows[key] = row
        return self

    def lookup(self, name: str, qualifier: Optional[str] = None) -> Any:
        if qualifier:
            row = self._rows.get(qualifier.lower())
            if row is None:
                raise UnknownColumnError(f"unknown table alias {qualifier!r}")
            lowered = name.lower()
            for key, value in row.items():
                if key.lower() == lowered:
                    return value
            raise UnknownColumnError(f"unknown column {qualifier}.{name}")
        lowered = name.lower()
        for alias in self._order:
            row = self._rows[alias]
            for key, value in row.items():
                if key.lower() == lowered:
                    return value
        raise UnknownColumnError(f"unknown column {name!r}")

# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

class Expression:
    """Base class for expression AST nodes."""

    # Subclasses declare their own __slots__; an empty tuple here keeps
    # instances __dict__-free so per-node allocation stays small.
    __slots__ = ()

    def evaluate(self, scope: RowScope, context: "EvaluationContext") -> Any:
        raise NotImplementedError

    def referenced_columns(self) -> set[tuple[Optional[str], str]]:
        """All (qualifier, column-name) pairs referenced by this expression."""
        refs: set[tuple[Optional[str], str]] = set()
        self._collect_columns(refs)
        return refs

    def _collect_columns(self, refs: set[tuple[Optional[str], str]]) -> None:
        for child in self.children():
            child._collect_columns(refs)

    def children(self) -> Sequence["Expression"]:
        return ()

    def sql(self) -> str:
        """A SQL-ish rendering used in EXPLAIN output and error messages."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.sql()}>"


@dataclass(frozen=True, slots=True)
class EvaluationContext:
    """Ambient evaluation state: scalar functions and session variables."""

    functions: Mapping[str, Callable[..., Any]] = field(default_factory=dict)
    variables: Mapping[str, Any] = field(default_factory=dict)

    def call(self, name: str, args: Sequence[Any]) -> Any:
        lowered = name.lower()
        bare = lowered[len("dbo."):] if lowered.startswith("dbo.") else lowered
        func = self.functions.get(lowered) or self.functions.get(bare)
        if func is None:
            func = _BUILTIN_FUNCTIONS.get(bare)
        if func is None:
            raise UnknownFunctionError(f"unknown function {name!r}")
        return func(*args)

    def variable(self, name: str) -> Any:
        key = name.lower()
        if key not in self.variables:
            raise ExpressionError(f"undeclared variable @{name}")
        return self.variables[key]


class Literal(Expression):
    """A constant value."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def evaluate(self, scope: RowScope, context: EvaluationContext) -> Any:
        return self.value

    def sql(self) -> str:
        if self.value is NULL:
            return "NULL"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return str(self.value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Literal) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("Literal", self.value))


class ColumnRef(Expression):
    """A reference to a column, optionally qualified by a table alias."""

    __slots__ = ("qualifier", "name")

    def __init__(self, name: str, qualifier: Optional[str] = None):
        self.name = name
        self.qualifier = qualifier

    def evaluate(self, scope: RowScope, context: EvaluationContext) -> Any:
        return scope.lookup(self.name, self.qualifier)

    def _collect_columns(self, refs: set[tuple[Optional[str], str]]) -> None:
        refs.add((self.qualifier.lower() if self.qualifier else None, self.name.lower()))

    def sql(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ColumnRef)
                and other.name.lower() == self.name.lower()
                and (other.qualifier or "").lower() == (self.qualifier or "").lower())

    def __hash__(self) -> int:
        return hash(("ColumnRef", (self.qualifier or "").lower(), self.name.lower()))


class Variable(Expression):
    """A session variable reference (``@saturated``)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name.lstrip("@")

    def evaluate(self, scope: RowScope, context: EvaluationContext) -> Any:
        return context.variable(self.name)

    def sql(self) -> str:
        return f"@{self.name}"


class Star(Expression):
    """``SELECT *`` marker; expanded by the binder/executor, never evaluated."""

    __slots__ = ("qualifier",)

    def __init__(self, qualifier: Optional[str] = None):
        self.qualifier = qualifier

    def evaluate(self, scope: RowScope, context: EvaluationContext) -> Any:
        raise ExpressionError("'*' cannot be evaluated as a scalar expression")

    def sql(self) -> str:
        return f"{self.qualifier}.*" if self.qualifier else "*"


_ARITHMETIC = {"+", "-", "*", "/", "%"}
_COMPARISON = {"=", "<>", "!=", "<", "<=", ">", ">="}


def truncate_int_div(left: int, right: int) -> int:
    """SQL Server integer division: truncates toward zero (unlike ``//``).

    The single definition shared by the interpreter, the scalar/row
    compiler and the vector codegen — the three evaluation paths must
    not diverge.  The caller handles ``right == 0`` (NULL).
    """
    quotient = abs(left) // abs(right)
    return quotient if (left >= 0) == (right >= 0) else -quotient
_BITWISE = {"&", "|", "^"}
_LOGICAL = {"and", "or"}


class BinaryOp(Expression):
    """A binary operation: arithmetic, comparison, bitwise or logical."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression):
        self.op = op.lower() if op.lower() in _LOGICAL else op
        self.left = left
        self.right = right

    def children(self) -> Sequence[Expression]:
        return (self.left, self.right)

    def evaluate(self, scope: RowScope, context: EvaluationContext) -> Any:
        op = self.op
        if op in _LOGICAL:
            return self._evaluate_logical(op, scope, context)
        left = self.left.evaluate(scope, context)
        right = self.right.evaluate(scope, context)
        if left is NULL or right is NULL:
            return NULL
        if op in _ARITHMETIC:
            return self._arithmetic(op, left, right)
        if op in _COMPARISON:
            return self._compare(op, left, right)
        if op in _BITWISE:
            return self._bitwise(op, left, right)
        raise ExpressionError(f"unknown binary operator {op!r}")

    def _evaluate_logical(self, op: str, scope: RowScope, context: EvaluationContext) -> Any:
        left = self.left.evaluate(scope, context)
        if op == "and":
            if left is False:
                return False
            right = self.right.evaluate(scope, context)
            if right is False:
                return False
            if left is NULL or right is NULL:
                return NULL
            return bool(left) and bool(right)
        # OR
        if left is True:
            return True
        right = self.right.evaluate(scope, context)
        if right is True:
            return True
        if left is NULL or right is NULL:
            return NULL
        return bool(left) or bool(right)

    @staticmethod
    def _arithmetic(op: str, left: Any, right: Any) -> Any:
        try:
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if right == 0:
                    return NULL
                if isinstance(left, int) and isinstance(right, int):
                    return truncate_int_div(left, right)
                return left / right
            if op == "%":
                if right == 0:
                    return NULL
                return math.fmod(left, right) if isinstance(left, float) or isinstance(right, float) else left % right
        except TypeError as exc:
            raise ExpressionError(f"cannot apply {op!r} to {left!r} and {right!r}") from exc
        raise ExpressionError(f"unknown arithmetic operator {op!r}")

    @staticmethod
    def _compare(op: str, left: Any, right: Any) -> Any:
        if isinstance(left, str) and isinstance(right, str):
            left_cmp, right_cmp = left.lower(), right.lower()
        else:
            left_cmp, right_cmp = left, right
        try:
            if op == "=":
                return left_cmp == right_cmp
            if op in ("<>", "!="):
                return left_cmp != right_cmp
            if op == "<":
                return left_cmp < right_cmp
            if op == "<=":
                return left_cmp <= right_cmp
            if op == ">":
                return left_cmp > right_cmp
            if op == ">=":
                return left_cmp >= right_cmp
        except TypeError as exc:
            raise ExpressionError(f"cannot compare {left!r} {op} {right!r}") from exc
        raise ExpressionError(f"unknown comparison operator {op!r}")

    @staticmethod
    def _bitwise(op: str, left: Any, right: Any) -> Any:
        try:
            left_int, right_int = int(left), int(right)
        except (TypeError, ValueError) as exc:
            raise ExpressionError(f"bitwise {op!r} requires integers") from exc
        if op == "&":
            return left_int & right_int
        if op == "|":
            return left_int | right_int
        return left_int ^ right_int

    def sql(self) -> str:
        return f"({self.left.sql()} {self.op.upper()} {self.right.sql()})"


class UnaryOp(Expression):
    """Unary minus, unary plus, NOT, IS NULL and IS NOT NULL."""

    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expression):
        self.op = op.lower()
        self.operand = operand

    def children(self) -> Sequence[Expression]:
        return (self.operand,)

    def evaluate(self, scope: RowScope, context: EvaluationContext) -> Any:
        value = self.operand.evaluate(scope, context)
        if self.op == "is null":
            return value is NULL
        if self.op == "is not null":
            return value is not NULL
        if value is NULL:
            return NULL
        if self.op == "-":
            return -value
        if self.op == "+":
            return value
        if self.op == "not":
            return not bool(value)
        raise ExpressionError(f"unknown unary operator {self.op!r}")

    def sql(self) -> str:
        if self.op in ("is null", "is not null"):
            return f"({self.operand.sql()} {self.op.upper()})"
        return f"({self.op.upper()} {self.operand.sql()})"


def between_error(value: Any, low: Any, high: Any, negated: bool) -> ExpressionError:
    """The error of a BETWEEN whose operand and bounds do not compare."""
    keyword = "NOT BETWEEN" if negated else "BETWEEN"
    return ExpressionError(f"cannot compare {value!r} {keyword} {low!r} AND {high!r}")


class Between(Expression):
    """``expr BETWEEN low AND high`` (inclusive on both ends)."""

    __slots__ = ("operand", "low", "high", "negated")

    def __init__(self, operand: Expression, low: Expression, high: Expression,
                 negated: bool = False):
        self.operand = operand
        self.low = low
        self.high = high
        self.negated = negated

    def children(self) -> Sequence[Expression]:
        return (self.operand, self.low, self.high)

    def evaluate(self, scope: RowScope, context: EvaluationContext) -> Any:
        value = self.operand.evaluate(scope, context)
        low = self.low.evaluate(scope, context)
        high = self.high.evaluate(scope, context)
        if value is NULL or low is NULL or high is NULL:
            return NULL
        try:
            result = low <= value <= high
        except TypeError as exc:
            raise between_error(value, low, high, self.negated) from exc
        return (not result) if self.negated else result

    def sql(self) -> str:
        keyword = "NOT BETWEEN" if self.negated else "BETWEEN"
        return f"({self.operand.sql()} {keyword} {self.low.sql()} AND {self.high.sql()})"


class InList(Expression):
    """``expr IN (v1, v2, ...)``."""

    __slots__ = ("operand", "items", "negated")

    def __init__(self, operand: Expression, items: Sequence[Expression], negated: bool = False):
        self.operand = operand
        self.items = list(items)
        self.negated = negated

    def children(self) -> Sequence[Expression]:
        return (self.operand, *self.items)

    def evaluate(self, scope: RowScope, context: EvaluationContext) -> Any:
        value = self.operand.evaluate(scope, context)
        if value is NULL:
            return NULL
        saw_null = False
        for item in self.items:
            candidate = item.evaluate(scope, context)
            if candidate is NULL:
                saw_null = True
                continue
            if isinstance(value, str) and isinstance(candidate, str):
                if value.lower() == candidate.lower():
                    return not self.negated
            elif candidate == value:
                return not self.negated
        if saw_null:
            return NULL
        return self.negated

    def sql(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        inner = ", ".join(item.sql() for item in self.items)
        return f"({self.operand.sql()} {keyword} ({inner}))"


class Like(Expression):
    """``expr LIKE pattern`` with SQL ``%`` and ``_`` wildcards."""

    __slots__ = ("operand", "pattern", "negated")

    def __init__(self, operand: Expression, pattern: Expression, negated: bool = False):
        self.operand = operand
        self.pattern = pattern
        self.negated = negated

    def children(self) -> Sequence[Expression]:
        return (self.operand, self.pattern)

    def evaluate(self, scope: RowScope, context: EvaluationContext) -> Any:
        value = self.operand.evaluate(scope, context)
        pattern = self.pattern.evaluate(scope, context)
        if value is NULL or pattern is NULL:
            return NULL
        import re

        result = re.match(like_regex(pattern), str(value),
                          flags=re.IGNORECASE) is not None
        return (not result) if self.negated else result

    def sql(self) -> str:
        keyword = "NOT LIKE" if self.negated else "LIKE"
        return f"({self.operand.sql()} {keyword} {self.pattern.sql()})"


def like_regex(pattern: Any) -> str:
    """The regex for a SQL LIKE pattern (shared by interpreter and compiler).

    ``re.escape`` leaves ``%`` and ``_`` unescaped, so the replacements act
    on the literal wildcard characters.
    """
    import re

    return "^" + re.escape(str(pattern)).replace("%", ".*").replace("_", ".") + "$"


class FunctionCall(Expression):
    """A scalar function call, e.g. ``sqrt(x)`` or ``dbo.fPhotoFlags('saturated')``."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Expression]):
        self.name = name
        self.args = list(args)

    def children(self) -> Sequence[Expression]:
        return tuple(self.args)

    def evaluate(self, scope: RowScope, context: EvaluationContext) -> Any:
        values = [arg.evaluate(scope, context) for arg in self.args]
        return context.call(self.name, values)

    def sql(self) -> str:
        inner = ", ".join(arg.sql() for arg in self.args)
        return f"{self.name}({inner})"


class CaseWhen(Expression):
    """A searched ``CASE WHEN cond THEN value ... ELSE value END``."""

    __slots__ = ("branches", "default")

    def __init__(self, branches: Sequence[tuple[Expression, Expression]],
                 default: Optional[Expression] = None):
        self.branches = list(branches)
        self.default = default

    def children(self) -> Sequence[Expression]:
        kids: list[Expression] = []
        for condition, value in self.branches:
            kids.extend((condition, value))
        if self.default is not None:
            kids.append(self.default)
        return tuple(kids)

    def evaluate(self, scope: RowScope, context: EvaluationContext) -> Any:
        for condition, value in self.branches:
            if condition.evaluate(scope, context) is True:
                return value.evaluate(scope, context)
        if self.default is not None:
            return self.default.evaluate(scope, context)
        return NULL

    def sql(self) -> str:
        parts = ["CASE"]
        for condition, value in self.branches:
            parts.append(f"WHEN {condition.sql()} THEN {value.sql()}")
        if self.default is not None:
            parts.append(f"ELSE {self.default.sql()}")
        parts.append("END")
        return " ".join(parts)


class AggregateCall(Expression):
    """An aggregate reference (``count(*)``, ``avg(x)``).

    Aggregates are computed by the Aggregate physical operator; when an
    AggregateCall is evaluated directly it reads the already-computed
    value from the row produced by that operator (keyed by its SQL text).
    """

    __slots__ = ("func", "argument", "distinct")

    def __init__(self, func: str, argument: Optional[Expression] = None, distinct: bool = False):
        self.func = func.lower()
        self.argument = argument
        self.distinct = distinct

    def children(self) -> Sequence[Expression]:
        return (self.argument,) if self.argument is not None else ()

    def evaluate(self, scope: RowScope, context: EvaluationContext) -> Any:
        key = self.result_key()
        try:
            return scope.lookup(key)
        except UnknownColumnError:
            raise ExpressionError(
                f"aggregate {self.sql()} evaluated outside an aggregation operator")

    def result_key(self) -> str:
        return self.sql()

    def sql(self) -> str:
        inner = "*" if self.argument is None else self.argument.sql()
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.func}({inner})"


# ---------------------------------------------------------------------------
# Built-in scalar functions (T-SQL flavoured, as used by the paper's queries)
# ---------------------------------------------------------------------------

def _sql_str(value: Any) -> str:
    return "" if value is NULL else str(value)


def _strict(core: Callable[..., Any], arity: int = 1) -> Callable[..., Any]:
    """The SQL form of a numeric function: NULL when an argument is NULL,
    else ``core``'s value.  The core stays reachable as ``.core``: the
    vector codegen, whose operands are never NULL, calls it directly."""
    if arity == 1:
        function = lambda x: NULL if x is NULL else core(x)  # noqa: E731
    else:
        function = lambda x, y: NULL if NULL in (x, y) else core(x, y)  # noqa: E731
    function.core = core
    return function


_BUILTIN_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "abs": _strict(abs),
    "sqrt": _strict(math.sqrt),
    "square": _strict(lambda x: x * x),
    "power": _strict(math.pow, 2),
    "exp": _strict(math.exp),
    "log": _strict(math.log),
    "log10": _strict(math.log10),
    "floor": _strict(math.floor),
    "ceiling": _strict(math.ceil),
    # Not strict: NULL digits raise in int().
    "round": lambda x, digits=0: NULL if x is NULL else round(x, int(digits)),
    "sign": _strict(lambda x: 0 if x == 0 else math.copysign(1, x)),
    "pi": lambda: math.pi,
    "sin": _strict(math.sin),
    "cos": _strict(math.cos),
    "tan": _strict(math.tan),
    "asin": _strict(lambda x: math.asin(max(-1.0, min(1.0, x)))),
    "acos": _strict(lambda x: math.acos(max(-1.0, min(1.0, x)))),
    "atan": _strict(math.atan),
    "atn2": _strict(math.atan2, 2),
    "radians": _strict(math.radians),
    "degrees": _strict(math.degrees),
    "coalesce": lambda *args: next((a for a in args if a is not NULL), NULL),
    "nullif": lambda a, b: NULL if a == b else a,
    "isnull": lambda a, b: b if a is NULL else a,
    "len": lambda s: NULL if s is NULL else len(str(s)),
    "upper": lambda s: NULL if s is NULL else str(s).upper(),
    "lower": lambda s: NULL if s is NULL else str(s).lower(),
    "ltrim": lambda s: NULL if s is NULL else str(s).lstrip(),
    "rtrim": lambda s: NULL if s is NULL else str(s).rstrip(),
    "str": lambda x, *rest: NULL if x is NULL else str(x),
    "substring": lambda s, start, length: NULL if s is NULL else str(s)[int(start) - 1:int(start) - 1 + int(length)],
    "charindex": lambda needle, haystack: 0 if NULL in (needle, haystack) else _sql_str(haystack).lower().find(_sql_str(needle).lower()) + 1,
    "cast_int": _strict(int),
    "cast_float": _strict(float),
}


# ---------------------------------------------------------------------------
# Predicate analysis helpers used by the planner
# ---------------------------------------------------------------------------

def conjuncts(expression: Optional[Expression]) -> list[Expression]:
    """Split a predicate into its top-level AND-ed conjuncts."""
    if expression is None:
        return []
    if isinstance(expression, BinaryOp) and expression.op == "and":
        return conjuncts(expression.left) + conjuncts(expression.right)
    return [expression]


def combine_conjuncts(parts: Sequence[Expression]) -> Optional[Expression]:
    """Combine predicates with AND; returns None for an empty sequence."""
    result: Optional[Expression] = None
    for part in parts:
        result = part if result is None else BinaryOp("and", result, part)
    return result


def is_constant(expression: Expression) -> bool:
    """True when the expression references no columns (variables count as constants)."""
    return not expression.referenced_columns()


@dataclass
class SargablePredicate:
    """A predicate usable to drive an index access path.

    ``column`` is the unqualified column name (lower-cased); ``low`` /
    ``high`` are constant-bound expressions (inclusive) and may be None
    for open ranges; an equality predicate has ``low is high``.
    """

    column: str
    qualifier: Optional[str]
    low: Optional[Expression]
    high: Optional[Expression]
    is_equality: bool
    source: Expression


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


def extract_sargable(predicate: Expression) -> Optional[SargablePredicate]:
    """Recognise ``col op constant``, ``constant op col`` and BETWEEN predicates."""
    if isinstance(predicate, Between) and not predicate.negated:
        if isinstance(predicate.operand, ColumnRef) and is_constant(predicate.low) and is_constant(predicate.high):
            col = predicate.operand
            return SargablePredicate(col.name.lower(), col.qualifier, predicate.low,
                                     predicate.high, False, predicate)
        return None
    if not isinstance(predicate, BinaryOp) or predicate.op not in _COMPARISON:
        return None
    left, right, op = predicate.left, predicate.right, predicate.op
    if isinstance(right, ColumnRef) and is_constant(left):
        left, right = right, left
        op = _FLIP.get(op, op)
    if not (isinstance(left, ColumnRef) and is_constant(right)):
        return None
    column, qualifier = left.name.lower(), left.qualifier
    if op == "=":
        return SargablePredicate(column, qualifier, right, right, True, predicate)
    if op in ("<", "<="):
        return SargablePredicate(column, qualifier, None, right, False, predicate)
    if op in (">", ">="):
        return SargablePredicate(column, qualifier, right, None, False, predicate)
    return None
