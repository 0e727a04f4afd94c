"""Expression compilation: AST subtrees become plain Python closures.

The interpreted evaluator (:meth:`Expression.evaluate`) pays a virtual
dispatch, an operator-string comparison and often a fresh ``RowScope``
for every row.  For the hot operators that is the dominant CPU cost of a
query, so each operator instead compiles its expressions **once per
execution** into closures:

* :func:`compile_expression` binds the expression to a *layout* — the
  ordered alias → row-key shape of the bindings an operator emits —
  and produces ``Callable[[binding], Any]``: every column reference is
  resolved **once, here** (qualified, or unqualified with the first
  alias that has the column winning) into a ``binding[alias][key]``
  read, with the interpreter's SQL three-valued-NULL semantics,
  short-circuit AND/OR and error behaviour.  A reference the layout
  cannot resolve compiles to a closure that raises
  :class:`UnknownColumnError` when (and only when) a row reaches it;
* :func:`compile_row_expression` is the one-alias case of the same
  bound compiler for the fused single-table fast path: the closure
  takes the table's row dict itself, so a column is one C-level
  ``itemgetter``.  It is strict — :class:`RowCompileError` when a
  reference does not resolve against the one table (the caller then
  falls back to the general path);
* :func:`compile_vector_predicate` / :func:`compile_vector_projection`
  produce batch-at-a-time functions over
  :class:`~repro.engine.batch.ColumnBatch` selection vectors.  Where
  three-valued logic provably cannot surface (NULL-free columns,
  constant non-column operands, statically compatible types) the
  expression is translated into one **generated list comprehension**
  over the column buffers; otherwise the row-mode closure is driven
  over a NULL-mask-aware batch row view.  :class:`VectorCompileError`
  signals that not even row mode applies;
* constant subtrees are folded at compile time (``2*3+1`` evaluates
  once, session variables are frozen to their per-execution values,
  constant LIKE patterns pre-compile their regex, constant IN lists
  pre-evaluate their candidates).

Folding is conservative: a constant subtree whose evaluation raises is
left as a lazy closure so errors surface exactly where the interpreter
would raise them (or not at all, when short-circuiting skips them).

Thread safety: a compiled closure closes only over immutable compile
products (folded constants, pre-compiled regexes, the frozen variable
values, the resolved binding/row keys) and *reads* whatever binding,
row dict or column buffers it is handed — it never writes shared
state.  The morsel-parallel scan driver (:mod:`repro.engine.parallel`)
relies on this: one compiled closure is shared by every worker, each
applying it to its own morsel's
:class:`~repro.engine.batch.ColumnBatch` concurrently.  Keep new
codegen paths free of per-call mutable caches.  Runtime join filters
(:class:`repro.engine.operators.RuntimeJoinFilter`) obey the same
contract — built once after the hash build, then only *read* by
workers — so they compose with any closure compiled here without
changing which rows those closures ultimately accept.
"""

from __future__ import annotations

import math
import re
from operator import eq, ge, gt, itemgetter, le, lt, ne
from typing import Any, Callable, Iterable, Mapping, Optional

from .errors import ExpressionError, UnknownColumnError, UnknownFunctionError
from .expressions import (_ARITHMETIC, _BITWISE, _BUILTIN_FUNCTIONS,
                          _COMPARISON, AggregateCall, Between,
                          BinaryOp, CaseWhen, ColumnRef, EvaluationContext,
                          Expression, FunctionCall, InList, Like, Literal,
                          RowScope, Star, UnaryOp, Variable, like_regex,
                          truncate_int_div)
from .types import DataType, NULL

#: A compiled scalar expression.  The single argument is a binding
#: (alias → row dict) for :func:`compile_expression` and a plain row
#: dict for :func:`compile_row_expression`.
CompiledExpression = Callable[[Any], Any]

#: The shape of the bindings an operator emits: ordered ``(binding key,
#: row keys)`` pairs, where ``row keys`` maps each column's lower-cased
#: name to the key it has in that alias's row dicts.  Order is the
#: unqualified-name search order (first alias with the column wins).
Layout = tuple[tuple[str, Mapping[str, str]], ...]


def row_keys(names: Iterable[str]) -> dict[str, str]:
    """Lower-cased name → row key; the first spelling of a name wins,
    as it would for a case-insensitive scan of the row."""
    keys: dict[str, str] = {}
    for name in names:
        keys.setdefault(name.lower(), name)
    return keys


def table_layout(table: Any, binding_name: str) -> Layout:
    """The one-alias layout of a base table's rows bound as ``binding_name``."""
    return ((binding_name, table.row_keys),)


def merge_layouts(first: Layout, second: Layout) -> Layout:
    """The layout of ``{**first_binding, **second_binding}``."""
    merged = dict(first)
    merged.update(second)
    return tuple(merged.items())


def resolve_column(layout: Layout, name: str,
                   qualifier: Optional[str] = None) -> tuple[str, str]:
    """``(binding key, row key)`` of a column reference under ``layout``.

    The resolution rules (and the messages of the
    :class:`UnknownColumnError` raised when they fail) are
    :meth:`RowScope.lookup`'s, applied once instead of per row.
    """
    lowered = name.lower()
    if qualifier:
        wanted = qualifier.lower()
        for binding_key, columns in layout:
            if binding_key.lower() == wanted:
                key = columns.get(lowered)
                if key is None:
                    raise UnknownColumnError(f"unknown column {qualifier}.{name}")
                return binding_key, key
        raise UnknownColumnError(f"unknown table alias {qualifier!r}")
    for binding_key, columns in layout:
        key = columns.get(lowered)
        if key is not None:
            return binding_key, key
    raise UnknownColumnError(f"unknown column {name!r}")


class RowCompileError(Exception):
    """An expression cannot be compiled in direct-row mode.

    Raised during :func:`compile_row_expression` when a node references
    a column outside the scanned table, contains an aggregate, or is a
    node type the row-mode compiler does not support.  Callers fall
    back to the general scope-based path.
    """


class VectorCompileError(Exception):
    """An expression cannot run in the vectorized batch path at all.

    Raised by :func:`compile_vector_predicate` /
    :func:`compile_vector_projection` when not even the per-row
    fallback (a row-mode closure driven over a batch row view) can
    evaluate the expression against the scanned table.  Callers fall
    back to the row-at-a-time operator pipeline.
    """


_COMPARATORS = {"=": eq, "<>": ne, "!=": ne, "<": lt, "<=": le, ">": gt, ">=": ge}


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def compile_expression(expression: Expression, evaluation: EvaluationContext,
                       layout: Layout = (), *,
                       projected: bool = False) -> CompiledExpression:
    """Compile ``expression`` to a closure over a binding shaped as ``layout``.

    ``compiled(binding)`` is equivalent to ``expression.evaluate(scope,
    evaluation)`` for a scope holding the binding's rows (session
    variables are frozen at compile time, which is sound because
    compilation happens per execution).  ``projected`` adds the
    select-list / order-key rule of :func:`repro.engine.operators.
    evaluate_projected`: above an aggregate the base columns are gone,
    so an expression with a reference the layout cannot resolve falls
    back to reading its name (a bare column) or SQL text (anything
    else) from the grouped output row.
    """
    compiler = _Compiler(evaluation, layout)
    fn, _is_const = compiler.compile(expression)
    if projected and compiler.has_unresolved:
        name = (expression.name if isinstance(expression, ColumnRef)
                else expression.sql())
        fallback, _is_const = compiler.column(ColumnRef(name))
        resolved = fn

        def fn(binding: Any) -> Any:
            try:
                return resolved(binding)
            except UnknownColumnError:
                return fallback(binding)

    return fn


def compile_row_expression(expression: Expression, evaluation: EvaluationContext,
                           table: "Any", binding_name: str) -> CompiledExpression:
    """Compile ``expression`` to a closure over a plain row dict.

    Column references must resolve to columns of ``table`` (qualified by
    ``binding_name`` or unqualified); raises :class:`RowCompileError`
    otherwise.
    """
    fn, _is_const = _RowCompiler(
        evaluation, table_layout(table, binding_name)).compile(expression)
    return fn


def supports_row_mode(expression: Expression, table: "Any", binding_name: str) -> bool:
    """True when :func:`compile_row_expression` would accept ``expression``."""
    try:
        compile_row_expression(expression, EvaluationContext(), table, binding_name)
    except RowCompileError:
        return False
    return True


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------

class _Compiler:
    """Bottom-up compiler producing ``(closure, is_constant)`` pairs.

    Column references are bound against ``layout`` as the tree is
    compiled; the closures read ``binding[alias][key]`` and never see a
    name again.
    """

    def __init__(self, evaluation: EvaluationContext, layout: Layout = ()):
        self.evaluation = evaluation
        self.layout = layout
        #: Set once any reference failed to resolve (its closure raises
        #: UnknownColumnError per row): only then can the projected
        #: fallback of :func:`compile_expression` ever trigger.
        self.has_unresolved = False

    # -- dispatch -----------------------------------------------------------

    def compile(self, node: Expression) -> tuple[CompiledExpression, bool]:
        if isinstance(node, Literal):
            value = node.value
            return (lambda _target: value), True
        if isinstance(node, ColumnRef):
            return self.column(node)
        if isinstance(node, Variable):
            return self.variable(node)
        if isinstance(node, BinaryOp):
            return self.binary(node)
        if isinstance(node, UnaryOp):
            return self.unary(node)
        if isinstance(node, Between):
            return self.between(node)
        if isinstance(node, InList):
            return self.in_list(node)
        if isinstance(node, Like):
            return self.like(node)
        if isinstance(node, FunctionCall):
            return self.function_call(node)
        if isinstance(node, CaseWhen):
            return self.case_when(node)
        if isinstance(node, AggregateCall):
            return self.aggregate(node)
        if isinstance(node, Star):
            def star(_target: Any) -> Any:
                raise ExpressionError("'*' cannot be evaluated as a scalar expression")
            return star, False
        return self.fallback(node)

    def fallback(self, node: Expression) -> tuple[CompiledExpression, bool]:
        """Unknown node subclass: defer to the interpreter."""
        evaluation = self.evaluation
        self.has_unresolved = True  # the interpreter resolves names per row
        return (lambda binding: node.evaluate(RowScope.from_binding(binding),
                                              evaluation)), False

    # -- leaves -------------------------------------------------------------

    def column(self, node: ColumnRef) -> tuple[CompiledExpression, bool]:
        try:
            alias, key = resolve_column(self.layout, node.name, node.qualifier)
        except UnknownColumnError as error:
            return self.unresolved(str(error))
        return self.reference(alias, key), False

    def reference(self, alias: str, key: str) -> CompiledExpression:
        """The read of one resolved column out of the closure's argument."""
        return lambda binding: binding[alias][key]

    def unresolved(self, message: str) -> tuple[CompiledExpression, bool]:
        """A reference the layout cannot resolve fails per row, not here:
        over an empty input it must never raise at all."""
        self.has_unresolved = True

        def fn(_binding: Any) -> Any:
            raise UnknownColumnError(message)

        return fn, False

    def variable(self, node: Variable) -> tuple[CompiledExpression, bool]:
        evaluation = self.evaluation
        try:
            value = evaluation.variable(node.name)
        except ExpressionError:
            # Undeclared: raise at evaluation time, exactly like the interpreter.
            name = node.name
            return (lambda _target: evaluation.variable(name)), False
        return (lambda _target: value), True

    # -- folding ------------------------------------------------------------

    def _fold(self, fn: CompiledExpression) -> tuple[CompiledExpression, bool]:
        """Evaluate a constant closure once; stay lazy if it raises."""
        try:
            value = fn(None)
        except Exception:
            return fn, False
        return (lambda _target: value), True

    # -- operators ----------------------------------------------------------

    def binary(self, node: BinaryOp) -> tuple[CompiledExpression, bool]:
        op = node.op
        left_fn, left_const = self.compile(node.left)
        right_fn, right_const = self.compile(node.right)
        if op == "and":
            fn = _compile_and(left_fn, right_fn)
        elif op == "or":
            fn = _compile_or(left_fn, right_fn)
        elif op in _COMPARISON:
            fn = _compile_comparison(op, left_fn, right_fn)
        elif op in _ARITHMETIC:
            fn = _compile_arithmetic(op, left_fn, right_fn)
        elif op in _BITWISE:
            fn = _compile_bitwise(op, left_fn, right_fn)
        else:
            def fn(_target: Any) -> Any:
                raise ExpressionError(f"unknown binary operator {op!r}")
        if left_const and right_const:
            return self._fold(fn)
        return fn, False

    def unary(self, node: UnaryOp) -> tuple[CompiledExpression, bool]:
        op = node.op
        operand_fn, operand_const = self.compile(node.operand)
        if op == "is null":
            def fn(target: Any) -> Any:
                return operand_fn(target) is NULL
        elif op == "is not null":
            def fn(target: Any) -> Any:
                return operand_fn(target) is not NULL
        elif op == "-":
            def fn(target: Any) -> Any:
                value = operand_fn(target)
                return NULL if value is NULL else -value
        elif op == "+":
            def fn(target: Any) -> Any:
                value = operand_fn(target)
                return NULL if value is NULL else value
        elif op == "not":
            def fn(target: Any) -> Any:
                value = operand_fn(target)
                return NULL if value is NULL else not bool(value)
        else:
            def fn(target: Any) -> Any:
                if operand_fn(target) is NULL:
                    return NULL
                raise ExpressionError(f"unknown unary operator {op!r}")
        if operand_const:
            return self._fold(fn)
        return fn, False

    def between(self, node: Between) -> tuple[CompiledExpression, bool]:
        operand_fn, operand_const = self.compile(node.operand)
        low_fn, low_const = self.compile(node.low)
        high_fn, high_const = self.compile(node.high)
        negated = node.negated

        def fn(target: Any) -> Any:
            value = operand_fn(target)
            low = low_fn(target)
            high = high_fn(target)
            if value is NULL or low is NULL or high is NULL:
                return NULL
            result = low <= value <= high
            return (not result) if negated else result

        if operand_const and low_const and high_const:
            return self._fold(fn)
        return fn, False

    def in_list(self, node: InList) -> tuple[CompiledExpression, bool]:
        operand_fn, operand_const = self.compile(node.operand)
        compiled_items = [self.compile(item) for item in node.items]
        negated = node.negated
        if all(is_const for _fn, is_const in compiled_items):
            candidates = [item_fn(None) for item_fn, _is_const in compiled_items]

            def fn(target: Any) -> Any:
                value = operand_fn(target)
                if value is NULL:
                    return NULL
                return _in_candidates(value, candidates, negated)

            if operand_const:
                return self._fold(fn)
            return fn, False

        item_fns = [item_fn for item_fn, _is_const in compiled_items]

        def fn(target: Any) -> Any:
            value = operand_fn(target)
            if value is NULL:
                return NULL
            # The generator keeps the interpreter's laziness: items after
            # the first match are never evaluated (so they cannot raise).
            return _in_candidates(value, (item_fn(target) for item_fn in item_fns),
                                  negated)

        return fn, False

    def like(self, node: Like) -> tuple[CompiledExpression, bool]:
        operand_fn, operand_const = self.compile(node.operand)
        pattern_fn, pattern_const = self.compile(node.pattern)
        negated = node.negated
        if pattern_const:
            pattern = pattern_fn(None)
            if pattern is NULL:
                def fn(target: Any) -> Any:
                    operand_fn(target)  # preserve evaluation-order errors
                    return NULL
            else:
                regex = re.compile(like_regex(pattern), re.IGNORECASE)

                def fn(target: Any) -> Any:
                    value = operand_fn(target)
                    if value is NULL:
                        return NULL
                    result = regex.match(str(value)) is not None
                    return (not result) if negated else result
            if operand_const:
                return self._fold(fn)
            return fn, False

        def fn(target: Any) -> Any:
            value = operand_fn(target)
            pattern = pattern_fn(target)
            if value is NULL or pattern is NULL:
                return NULL
            result = re.match(like_regex(pattern), str(value),
                              flags=re.IGNORECASE) is not None
            return (not result) if negated else result

        return fn, False

    def function_call(self, node: FunctionCall) -> tuple[CompiledExpression, bool]:
        arg_fns = [fn for fn, _is_const in (self.compile(arg) for arg in node.args)]
        lowered = node.name.lower()
        bare = lowered[len("dbo."):] if lowered.startswith("dbo.") else lowered
        evaluation = self.evaluation
        func = (evaluation.functions.get(lowered) or evaluation.functions.get(bare)
                or _BUILTIN_FUNCTIONS.get(bare))
        if func is None:
            name = node.name

            def fn(target: Any) -> Any:
                for arg_fn in arg_fns:  # arguments evaluate first, as interpreted
                    arg_fn(target)
                raise UnknownFunctionError(f"unknown function {name!r}")

            return fn, False
        # Functions may be impure (fGetUrlExpId, random samplers): never folded.
        return (lambda target: func(*[arg_fn(target) for arg_fn in arg_fns])), False

    def case_when(self, node: CaseWhen) -> tuple[CompiledExpression, bool]:
        branches = [(self.compile(condition), self.compile(value))
                    for condition, value in node.branches]
        branch_fns = [(cond_fn, val_fn)
                      for (cond_fn, _cc), (val_fn, _vc) in branches]
        default = self.compile(node.default) if node.default is not None else None

        if default is not None:
            default_fn, default_const = default
        else:
            default_fn, default_const = (lambda _target: NULL), True

        def fn(target: Any) -> Any:
            for cond_fn, val_fn in branch_fns:
                if cond_fn(target) is True:
                    return val_fn(target)
            return default_fn(target)

        all_const = default_const and all(
            cc and vc for (_f, cc), (_g, vc) in branches)
        if all_const:
            return self._fold(fn)
        return fn, False

    def aggregate(self, node: AggregateCall) -> tuple[CompiledExpression, bool]:
        # The aggregation operator's output row carries the computed
        # value under the aggregate's SQL text.
        try:
            alias, key = resolve_column(self.layout, node.result_key())
        except UnknownColumnError:
            rendering = node.sql()

            def fn(_binding: Any) -> Any:
                raise ExpressionError(
                    f"aggregate {rendering} evaluated outside an aggregation operator")

            return fn, False
        return self.reference(alias, key), False


class _RowCompiler(_Compiler):
    """The one-alias case: closures take that alias's row dict itself
    (the fused fast path and the batch row-view fallback), and a
    reference outside the one table is a compile-time error."""

    def reference(self, alias: str, key: str) -> CompiledExpression:
        # Every row carries every column the plan references, so a
        # C-level itemgetter does.
        return itemgetter(key)

    def unresolved(self, message: str) -> tuple[CompiledExpression, bool]:
        raise RowCompileError(message)

    def aggregate(self, node: AggregateCall) -> tuple[CompiledExpression, bool]:
        raise RowCompileError("aggregates cannot run in the fused scan path")

    def fallback(self, node: Expression) -> tuple[CompiledExpression, bool]:
        raise RowCompileError(f"unsupported node {type(node).__name__} in row mode")


# ---------------------------------------------------------------------------
# Operator closures (shared between binding mode and row mode)
# ---------------------------------------------------------------------------

def _compile_and(left_fn: CompiledExpression,
                 right_fn: CompiledExpression) -> CompiledExpression:
    def fn(target: Any) -> Any:
        left = left_fn(target)
        if left is False:
            return False
        right = right_fn(target)
        if right is False:
            return False
        if left is NULL or right is NULL:
            return NULL
        return bool(left) and bool(right)
    return fn


def _compile_or(left_fn: CompiledExpression,
                right_fn: CompiledExpression) -> CompiledExpression:
    def fn(target: Any) -> Any:
        left = left_fn(target)
        if left is True:
            return True
        right = right_fn(target)
        if right is True:
            return True
        if left is NULL or right is NULL:
            return NULL
        return bool(left) or bool(right)
    return fn


def _compile_comparison(op: str, left_fn: CompiledExpression,
                        right_fn: CompiledExpression) -> CompiledExpression:
    compare = _COMPARATORS[op]

    def fn(target: Any) -> Any:
        left = left_fn(target)
        right = right_fn(target)
        if left is NULL or right is NULL:
            return NULL
        if isinstance(left, str) and isinstance(right, str):
            left, right = left.lower(), right.lower()
        try:
            return compare(left, right)
        except TypeError as exc:
            raise ExpressionError(f"cannot compare {left!r} {op} {right!r}") from exc

    return fn


def _compile_arithmetic(op: str, left_fn: CompiledExpression,
                        right_fn: CompiledExpression) -> CompiledExpression:
    if op == "+":
        def fn(target: Any) -> Any:
            left = left_fn(target)
            right = right_fn(target)
            if left is NULL or right is NULL:
                return NULL
            try:
                return left + right
            except TypeError as exc:
                raise ExpressionError(
                    f"cannot apply {op!r} to {left!r} and {right!r}") from exc
    elif op == "-":
        def fn(target: Any) -> Any:
            left = left_fn(target)
            right = right_fn(target)
            if left is NULL or right is NULL:
                return NULL
            try:
                return left - right
            except TypeError as exc:
                raise ExpressionError(
                    f"cannot apply {op!r} to {left!r} and {right!r}") from exc
    elif op == "*":
        def fn(target: Any) -> Any:
            left = left_fn(target)
            right = right_fn(target)
            if left is NULL or right is NULL:
                return NULL
            try:
                return left * right
            except TypeError as exc:
                raise ExpressionError(
                    f"cannot apply {op!r} to {left!r} and {right!r}") from exc
    elif op == "/":
        def fn(target: Any) -> Any:
            left = left_fn(target)
            right = right_fn(target)
            if left is NULL or right is NULL:
                return NULL
            try:
                if right == 0:
                    return NULL
                if isinstance(left, int) and isinstance(right, int):
                    return truncate_int_div(left, right)
                return left / right
            except TypeError as exc:
                raise ExpressionError(
                    f"cannot apply {op!r} to {left!r} and {right!r}") from exc
    elif op == "%":
        def fn(target: Any) -> Any:
            left = left_fn(target)
            right = right_fn(target)
            if left is NULL or right is NULL:
                return NULL
            try:
                if right == 0:
                    return NULL
                if isinstance(left, float) or isinstance(right, float):
                    return math.fmod(left, right)
                return left % right
            except TypeError as exc:
                raise ExpressionError(
                    f"cannot apply {op!r} to {left!r} and {right!r}") from exc
    else:
        def fn(_target: Any) -> Any:
            raise ExpressionError(f"unknown arithmetic operator {op!r}")
    return fn


def _compile_bitwise(op: str, left_fn: CompiledExpression,
                     right_fn: CompiledExpression) -> CompiledExpression:
    def fn(target: Any) -> Any:
        left = left_fn(target)
        right = right_fn(target)
        if left is NULL or right is NULL:
            return NULL
        try:
            left_int, right_int = int(left), int(right)
        except (TypeError, ValueError) as exc:
            raise ExpressionError(f"bitwise {op!r} requires integers") from exc
        if op == "&":
            return left_int & right_int
        if op == "|":
            return left_int | right_int
        return left_int ^ right_int
    return fn


def _in_candidates(value: Any, candidates: "Any", negated: bool) -> Any:
    saw_null = False
    value_is_str = isinstance(value, str)
    for candidate in candidates:
        if candidate is NULL:
            saw_null = True
            continue
        if value_is_str and isinstance(candidate, str):
            if value.lower() == candidate.lower():
                return not negated
        elif candidate == value:
            return not negated
    if saw_null:
        return NULL
    return negated


# ---------------------------------------------------------------------------
# Vector compilation: expressions over column batches
# ---------------------------------------------------------------------------

#: A compiled vectorized expression.  Called with a
#: :class:`~repro.engine.batch.ColumnBatch` and a selection vector; a
#: predicate returns the narrowed selection, a projection returns one
#: value per selected position.
VectorExpression = Callable[[Any, list], list]


class _Unvectorizable(Exception):
    """Internal: the codegen fast path does not cover this expression.

    The vector compilers catch it and fall back to driving a row-mode
    closure over the batch's row view (still batch-at-a-time, but one
    closure call per row instead of one generated loop).
    """


#: SQL comparison operators to their Python spellings.
_PY_COMPARATORS = {"=": "==", "<>": "!=", "!=": "!=",
                   "<": "<", "<=": "<=", ">": ">", ">=": ">="}

#: Tags the codegen treats as orderable numbers (bool compares as 0/1,
#: exactly as the interpreter's comparison operators do).
_NUMERIC_TAGS = frozenset(("int", "float", "bool"))

_DTYPE_TAGS = {DataType.INTEGER: "int", DataType.BIGINT: "int",
               DataType.FLOAT: "float", DataType.BOOLEAN: "bool",
               DataType.TEXT: "str"}


def _value_tag(value: Any) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "str"
    raise _Unvectorizable(f"constant of type {type(value).__name__}")


def _make_int_div(divisor: int) -> Callable[[int], int]:
    """SQL Server integer division by a non-zero constant (truncates toward 0)."""
    return lambda value: truncate_int_div(value, divisor)


class _VectorCodegen:
    """Translates an expression tree into Python source over column buffers.

    The generated code reads directly from a :class:`ColumnStore`'s
    per-column sequences inside one list comprehension — no per-row
    closure calls, no dicts, no scopes.  The translation is exact only
    where SQL three-valued logic cannot surface: every referenced column
    must be NULL-free (checked against the store's null counts), every
    non-column operand must fold to a non-NULL constant, and operand
    types must be statically compatible (so the interpreter's
    comparison/arithmetic errors cannot occur).  Anything else raises
    :class:`_Unvectorizable` and the caller uses the row-view fallback.
    """

    def __init__(self, evaluation: EvaluationContext, table: "Any", binding_name: str):
        self.evaluation = evaluation
        self.table = table
        self.storage = table.storage
        self.binding_name = binding_name.lower()
        self.env: dict[str, Any] = {}
        self.columns: list[str] = []
        self._scalar = _Compiler(evaluation)
        self._counter = 0

    # -- helpers -----------------------------------------------------------

    def const(self, value: Any) -> str:
        name = f"_k{self._counter}"
        self._counter += 1
        self.env[name] = value
        return name

    def constant_value(self, node: Expression) -> Any:
        """Fold ``node`` to a compile-time constant or raise."""
        fn, is_const = self._scalar.compile(node)
        if not is_const:
            raise _Unvectorizable(f"non-constant operand {node.sql()}")
        return fn(None)

    def use_column(self, name: str) -> str:
        lowered = name.lower()
        if lowered not in self.columns:
            self.columns.append(lowered)
        return f"_c_{lowered}"

    # -- dispatch ------------------------------------------------------------

    def emit(self, node: Expression) -> tuple[str, str]:
        """(python source, type tag) for one subtree."""
        if isinstance(node, Literal):
            return self.literal(node.value)
        if isinstance(node, ColumnRef):
            return self.column(node)
        if isinstance(node, Variable):
            return self.variable(node)
        if isinstance(node, BinaryOp):
            return self.binary(node)
        if isinstance(node, UnaryOp):
            return self.unary(node)
        if isinstance(node, Between):
            return self.between(node)
        if isinstance(node, InList):
            return self.in_list(node)
        if isinstance(node, Like):
            return self.like(node)
        raise _Unvectorizable(f"node {type(node).__name__}")

    # -- leaves --------------------------------------------------------------

    def literal(self, value: Any) -> tuple[str, str]:
        if value is NULL:
            raise _Unvectorizable("NULL literal")
        return self.const(value), _value_tag(value)

    def column(self, node: ColumnRef) -> tuple[str, str]:
        qualifier = (node.qualifier or "").lower()
        if qualifier and qualifier != self.binding_name:
            raise _Unvectorizable(f"column {node.sql()} outside {self.binding_name!r}")
        column = self.table.column(node.name)
        if column is None:
            raise _Unvectorizable(f"no column {node.name!r}")
        if self.storage.kind != "column":
            # Row-backed table: the public entry points still honour
            # their contract (row-view fallback, never AttributeError).
            raise _Unvectorizable("table is not column-backed")
        if self.storage.column_null_count(node.name) > 0:
            raise _Unvectorizable(f"column {node.name!r} holds NULLs")
        tag = _DTYPE_TAGS.get(column.dtype)
        if tag is None:
            raise _Unvectorizable(f"column type {column.dtype.value}")
        return f"{self.use_column(node.name)}[_i]", tag

    def variable(self, node: Variable) -> tuple[str, str]:
        try:
            value = self.evaluation.variable(node.name)
        except ExpressionError as exc:
            raise _Unvectorizable(str(exc)) from exc
        if value is NULL:
            raise _Unvectorizable(f"variable {node.name} is NULL")
        return self.const(value), _value_tag(value)

    # -- operators -------------------------------------------------------------

    def binary(self, node: BinaryOp) -> tuple[str, str]:
        op = node.op
        if op in ("and", "or"):
            left, left_tag = self.emit(node.left)
            right, right_tag = self.emit(node.right)
            if left_tag != "bool" or right_tag != "bool":
                raise _Unvectorizable(f"non-boolean {op} operand")
            return f"({left} {op} {right})", "bool"
        if op in _COMPARISON:
            return self.comparison(node)
        if op in ("+", "-", "*"):
            left, left_tag = self.emit(node.left)
            right, right_tag = self.emit(node.right)
            if left_tag not in _NUMERIC_TAGS or right_tag not in _NUMERIC_TAGS:
                raise _Unvectorizable(f"non-numeric {op!r}")
            tag = "float" if "float" in (left_tag, right_tag) else "int"
            return f"({left} {op} {right})", tag
        if op == "/":
            return self.division(node)
        if op == "%":
            return self.modulo(node)
        if op in _BITWISE:
            left, left_tag = self.emit(node.left)
            right, right_tag = self.emit(node.right)
            if left_tag not in ("int", "bool") or right_tag not in ("int", "bool"):
                raise _Unvectorizable(f"non-integer bitwise {op!r}")
            # The interpreter coerces both sides via int(), so booleans
            # produce int results (True & True is 1, not True).
            if left_tag == "bool":
                left = f"int({left})"
            if right_tag == "bool":
                right = f"int({right})"
            return f"({left} {op} {right})", "int"
        raise _Unvectorizable(f"operator {op!r}")

    def comparison(self, node: BinaryOp) -> tuple[str, str]:
        pyop = _PY_COMPARATORS[node.op]
        left, left_tag = self.emit(node.left)
        right, right_tag = self.emit(node.right)
        if left_tag in _NUMERIC_TAGS and right_tag in _NUMERIC_TAGS:
            return f"({left} {pyop} {right})", "bool"
        if left_tag == "str" and right_tag == "str":
            # The interpreter compares strings case-insensitively.
            return f"({left}.lower() {pyop} {right}.lower())", "bool"
        raise _Unvectorizable(f"comparison of {left_tag} with {right_tag}")

    def division(self, node: BinaryOp) -> tuple[str, str]:
        left, left_tag = self.emit(node.left)
        if left_tag not in _NUMERIC_TAGS:
            raise _Unvectorizable("non-numeric dividend")
        divisor = self.constant_value(node.right)
        if divisor is NULL or not isinstance(divisor, (int, float)) or divisor == 0:
            # A zero (or NULL) divisor makes the whole expression NULL —
            # three-valued logic the fallback path handles exactly.
            raise _Unvectorizable("division needs a non-zero constant divisor")
        if left_tag in ("int", "bool") and isinstance(divisor, int):
            # bool divisors count as ints, exactly as the interpreter's
            # isinstance(right, int) check does (7 / (1=1) is 7, not 7.0).
            helper = self.const(_make_int_div(int(divisor)))
            return f"{helper}({left})", "int"
        return f"({left} / {self.const(divisor)})", "float"

    def modulo(self, node: BinaryOp) -> tuple[str, str]:
        left, left_tag = self.emit(node.left)
        if left_tag not in _NUMERIC_TAGS:
            raise _Unvectorizable("non-numeric modulo")
        divisor = self.constant_value(node.right)
        if divisor is NULL or not isinstance(divisor, (int, float)) or divisor == 0:
            raise _Unvectorizable("modulo needs a non-zero constant divisor")
        if left_tag == "float" or isinstance(divisor, float):
            self.env.setdefault("_fmod", math.fmod)
            return f"_fmod({left}, {self.const(divisor)})", "float"
        return f"({left} % {self.const(divisor)})", "int"

    def unary(self, node: UnaryOp) -> tuple[str, str]:
        op = node.op
        operand, tag = self.emit(node.operand)
        if op == "-":
            if tag not in _NUMERIC_TAGS:
                raise _Unvectorizable("negation of non-number")
            return f"(-{operand})", "int" if tag == "bool" else tag
        if op == "+":
            if tag not in _NUMERIC_TAGS:
                raise _Unvectorizable("unary + of non-number")
            return operand, tag
        if op == "not":
            if tag != "bool":
                raise _Unvectorizable("NOT of non-boolean")
            return f"(not {operand})", "bool"
        if op == "is null":
            # Every codegen-supported subtree is provably non-NULL.
            return self.const(False), "bool"
        if op == "is not null":
            return self.const(True), "bool"
        raise _Unvectorizable(f"unary {op!r}")

    def between(self, node: Between) -> tuple[str, str]:
        operand, operand_tag = self.emit(node.operand)
        low, low_tag = self.emit(node.low)
        high, high_tag = self.emit(node.high)
        tags = {operand_tag, low_tag, high_tag}
        if not (tags <= _NUMERIC_TAGS or tags == {"str"}):
            raise _Unvectorizable("mixed-type BETWEEN")
        # Unlike `<=` comparisons, the interpreter's BETWEEN compares
        # strings case-sensitively — so no .lower() here.
        source = f"({low} <= {operand} <= {high})"
        if node.negated:
            source = f"(not {source})"
        return source, "bool"

    def in_list(self, node: InList) -> tuple[str, str]:
        operand, operand_tag = self.emit(node.operand)
        candidates = [self.constant_value(item) for item in node.items]
        if any(candidate is NULL for candidate in candidates):
            # A NULL candidate makes a non-matching IN evaluate to NULL.
            raise _Unvectorizable("NULL in IN list")
        if operand_tag == "str":
            # Case-insensitive string matching, like the interpreter:
            # lower the operand once and every string candidate.
            folded = {candidate.lower() if isinstance(candidate, str) else candidate
                      for candidate in candidates}
            membership = self.const(frozenset(folded))
            source = f"({operand}.lower() in {membership})"
        elif operand_tag in _NUMERIC_TAGS:
            membership = self.const(frozenset(candidates))
            source = f"({operand} in {membership})"
        else:
            raise _Unvectorizable(f"IN over {operand_tag}")
        if node.negated:
            source = f"(not {source})"
        return source, "bool"

    def like(self, node: Like) -> tuple[str, str]:
        operand, operand_tag = self.emit(node.operand)
        if operand_tag != "str":
            raise _Unvectorizable("LIKE over non-string")
        pattern = self.constant_value(node.pattern)
        if pattern is NULL:
            raise _Unvectorizable("NULL LIKE pattern")
        regex = self.const(re.compile(like_regex(pattern), re.IGNORECASE))
        test = "is None" if node.negated else "is not None"
        return f"({regex}.match({operand}) {test})", "bool"


class _JoinVectorCodegen(_VectorCodegen):
    """Vector codegen over a *joined* batch: columns from several tables.

    The batch's ``columns`` mapping is keyed by the qualified name
    ``"<binding>.<column>"`` (both parts lower-cased); gathered buffers
    are plain lists built by the batch hash join.  The same NULL-freedom
    rule as the single-table codegen applies, checked against each
    source table's column store, so the generated loop never has to
    consider three-valued logic.
    """

    def __init__(self, evaluation: EvaluationContext,
                 schema: "Mapping[str, Any]"):
        self.evaluation = evaluation
        self.schema = {binding.lower(): table for binding, table in schema.items()}
        self.env: dict[str, Any] = {}
        #: Qualified column key -> generated identifier, in first-use order.
        self.column_ids: dict[str, str] = {}
        self._scalar = _Compiler(evaluation)
        self._counter = 0

    def column(self, node: ColumnRef) -> tuple[str, str]:
        qualifier = (node.qualifier or "").lower()
        if qualifier:
            table = self.schema.get(qualifier)
            if table is None:
                raise _Unvectorizable(f"unknown binding {qualifier!r}")
            binding = qualifier
        else:
            owners = [(binding, table) for binding, table in self.schema.items()
                      if table.has_column(node.name)]
            if len(owners) != 1:
                raise _Unvectorizable(f"ambiguous column {node.name!r}")
            binding, table = owners[0]
        column = table.column(node.name)
        if column is None:
            raise _Unvectorizable(f"no column {node.sql()}")
        storage = table.storage
        if storage.kind != "column":
            raise _Unvectorizable("join side is not column-backed")
        if storage.column_null_count(node.name) > 0:
            raise _Unvectorizable(f"column {node.sql()} holds NULLs")
        tag = _DTYPE_TAGS.get(column.dtype)
        if tag is None:
            raise _Unvectorizable(f"column type {column.dtype.value}")
        key = f"{binding}.{node.name.lower()}"
        identifier = self.column_ids.get(key)
        if identifier is None:
            identifier = f"_jc{len(self.column_ids)}"
            self.column_ids[key] = identifier
        return f"{identifier}[_i]", tag


def _codegen_join_vector(expression: Expression, evaluation: EvaluationContext,
                         schema: "Mapping[str, Any]", predicate: bool
                         ) -> tuple[VectorExpression, str, list[str]]:
    """Generated-loop vector fn over a joined batch, or :class:`_Unvectorizable`.

    Returns ``(fn, tag, column_keys)`` where ``column_keys`` are the
    qualified ``"binding.column"`` keys the function reads — the batch
    join gathers exactly those columns.
    """
    generator = _JoinVectorCodegen(evaluation, schema)
    body, tag = generator.emit(expression)
    if predicate and tag != "bool":
        raise _Unvectorizable("predicate does not produce a boolean")
    lines = ["def _vector_fn(_batch, _sel):",
             "    _cols = _batch.columns"]
    for key, identifier in generator.column_ids.items():
        lines.append(f"    {identifier} = _cols[{key!r}]")
    if predicate:
        lines.append(f"    return [_i for _i in _sel if {body}]")
    else:
        lines.append(f"    return [{body} for _i in _sel]")
    namespace = dict(generator.env)
    exec(compile("\n".join(lines), "<join-vector-codegen>", "exec"), namespace)
    return namespace["_vector_fn"], tag, list(generator.column_ids)


def compile_join_vector_predicate(expression: Expression,
                                  evaluation: EvaluationContext,
                                  schema: "Mapping[str, Any]"
                                  ) -> tuple[VectorExpression, list[str]]:
    """Compile a predicate over a joined batch (no row fallback).

    Raises :class:`VectorCompileError` outside the codegen subset — the
    caller then abandons the whole batch-join pipeline and the operator
    tree executes row-at-a-time.
    """
    try:
        fn, _tag, keys = _codegen_join_vector(expression, evaluation, schema,
                                              predicate=True)
        return fn, keys
    except _Unvectorizable as exc:
        raise VectorCompileError(str(exc)) from exc


def compile_join_vector_projection(expression: Expression,
                                   evaluation: EvaluationContext,
                                   schema: "Mapping[str, Any]"
                                   ) -> tuple[VectorExpression, str, list[str]]:
    """Compile a scalar over a joined batch; returns ``(fn, tag, keys)``."""
    try:
        return _codegen_join_vector(expression, evaluation, schema,
                                    predicate=False)
    except _Unvectorizable as exc:
        raise VectorCompileError(str(exc)) from exc


def _codegen_vector(expression: Expression, evaluation: EvaluationContext,
                    table: "Any", binding_name: str,
                    predicate: bool) -> tuple[VectorExpression, str]:
    """Build a generated-loop vector function, or raise :class:`_Unvectorizable`."""
    generator = _VectorCodegen(evaluation, table, binding_name)
    body, tag = generator.emit(expression)
    if predicate and tag != "bool":
        # `FilterOp` keeps rows only when the predicate `is True`; a
        # truthy non-boolean must not pass, so don't generate `if body`.
        raise _Unvectorizable("predicate does not produce a boolean")
    lines = ["def _vector_fn(_batch, _sel):",
             "    _cols = _batch.columns"]
    for name in generator.columns:
        lines.append(f"    _c_{name} = _cols[{name!r}]")
    if predicate:
        lines.append(f"    return [_i for _i in _sel if {body}]")
    else:
        lines.append(f"    return [{body} for _i in _sel]")
    namespace = dict(generator.env)
    exec(compile("\n".join(lines), "<vector-codegen>", "exec"), namespace)
    fn = namespace["_vector_fn"]
    # The column names the generated loop reads.  A single-column
    # predicate can run over a sealed segment's dictionary instead of
    # its decoded rows (segments.SealedSegment.code_filter); row-view
    # fallbacks never set this, so they always take the decoded path.
    fn.vector_columns = list(generator.columns)
    return fn, tag


def _row_view_fallback(expression: Expression, evaluation: EvaluationContext,
                       table: "Any", binding_name: str) -> CompiledExpression:
    """A row-mode closure for batch row views; raises VectorCompileError."""
    try:
        return compile_row_expression(expression, evaluation, table, binding_name)
    except RowCompileError as exc:
        raise VectorCompileError(str(exc)) from exc


def compile_vector_predicate(expression: Expression, evaluation: EvaluationContext,
                             table: "Any", binding_name: str) -> VectorExpression:
    """Compile a predicate to ``fn(batch, selection) -> narrowed selection``.

    Prefers the generated-loop fast path; falls back to calling a
    row-mode closure per selected position (NULL-mask aware) when the
    expression is outside the codegen subset.  Raises
    :class:`VectorCompileError` when not even row mode applies.
    """
    try:
        fn, _tag = _codegen_vector(expression, evaluation, table, binding_name,
                                   predicate=True)
        return fn
    except _Unvectorizable:
        pass
    row_fn = _row_view_fallback(expression, evaluation, table, binding_name)

    def vector(batch: Any, selection: list) -> list:
        view = batch.row_view()
        kept = []
        append = kept.append
        for position in selection:
            view.index = position
            if row_fn(view) is True:
                append(position)
        return kept

    return vector


def compile_vector_projection(expression: Expression, evaluation: EvaluationContext,
                              table: "Any", binding_name: str
                              ) -> tuple[VectorExpression, Optional[str]]:
    """Compile a scalar to ``fn(batch, selection) -> [value, ...]``.

    Returns ``(fn, tag)`` where ``tag`` is the codegen type tag
    (``"int"``/``"float"``/``"bool"``/``"str"``) when the generated loop
    applies — the aggregation operator uses a numeric tag to take
    C-speed ``sum``/``min``/``max`` reductions — and ``None`` for the
    row-view fallback (whose values may include NULLs).
    """
    try:
        return _codegen_vector(expression, evaluation, table, binding_name,
                               predicate=False)
    except _Unvectorizable:
        pass
    row_fn = _row_view_fallback(expression, evaluation, table, binding_name)

    def vector(batch: Any, selection: list) -> list:
        view = batch.row_view()
        values = []
        append = values.append
        for position in selection:
            view.index = position
            append(row_fn(view))
        return values

    return vector, None


